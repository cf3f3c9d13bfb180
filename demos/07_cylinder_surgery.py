"""Cylinder surgery: new semi-equivelar maps on chi = -8 and chi = -10.

Removing two vertex-disjoint equal-size faces and gluing an annular band
between their boundary cycles drops chi by exactly 2.  Consuming all six
quadrangles of two chi=-1 maps with three quadrangular cylinders gives
(3^5, 4^2) maps on chi=-8; covering all 24 vertices with four triangular
bands gives (3^7, 4) maps on chi=-10.
"""

from semap import (
    CylinderSpec,
    FaceSequence,
    add_cylinder,
    catalog_map,
    cylinder_search,
    face_sequence_classes,
    semi_equivelar_type,
    surface_profile,
)

k1, k2, k3 = catalog_map("K1"), catalog_map("K2"), catalog_map("K3")

# One cross-map cylinder: valid, chi drops to -4, but only the eight
# vertices on the consumed quadrangles gained a quadrangle, so the result
# is not semi-equivelar yet.
spec = CylinderSpec(kind="quad", face_a=(0, 2, 3, 4), face_b=(0, 2, 3, 4))
partial = add_cylinder(k1, spec, k2)
print("one cylinder:", surface_profile(partial))
print("   semi-equivelar:", semi_equivelar_type(partial))
print("   face-sequence classes:",
      {str(seq): len(vs) for seq, vs in face_sequence_classes(partial).items()})

# Consuming every quadrangle makes the type uniform.  The search tries
# every pairing of the six quadrangles and every boundary alignment whose
# walls fit the surviving faces (each such gluing of valid bases is valid
# by construction), and keeps one representative per isomorphism class.
# A small candidate budget already finds plenty.
quad_maps, quad_notes, quad_stats = cylinder_search(
    [k1, k2, k3], FaceSequence.from_string("3^5,4^2"), -8, max_candidates=4096)
print(f"\n(3^5, 4^2) on chi=-8: {quad_stats.classes} classes from "
      f"{quad_stats.built} built candidates "
      f"({'exhaustive' if quad_stats.exhausted else 'budgeted'} run)")
sample = quad_maps[0]
print("   sample:", surface_profile(sample), semi_equivelar_type(sample))
print("   built from:", quad_notes[0].bases, "with", len(quad_notes[0].specs), "cylinders")

# Triangular bands need a set of vertex-disjoint triangles covering every
# vertex exactly once; each band adds two triangles at each of its six
# boundary vertices: (3^5, 4) becomes (3^7, 4).
tri_maps, tri_notes, tri_stats = cylinder_search(
    [k1, k2, k3], FaceSequence.from_string("3^7,4"), -10, max_candidates=2592)
print(f"\n(3^7, 4) on chi=-10: {tri_stats.classes} classes from "
      f"{tri_stats.built} built candidates")
sample = tri_maps[0]
print("   sample:", surface_profile(sample), semi_equivelar_type(sample))
