import random
import re

import pytest

from semap import (
    CylinderSpec,
    FaceSequence,
    FlatTypeError,
    ImpossibleTypeError,
    NotTriangulationError,
    PolyhedralMap,
    VertexLink,
    add_cylinder,
    canonical_form,
    face_sequence,
    is_d_covered,
    seed_link,
    sem_vertex_count,
    semi_equivelar_type,
    stack_faces,
    surface_profile,
    validate,
    vertex_link,
)
from semap.core import FlagTemplate, closed_flags, components, face_edges, normalize_face
from oracles import (
    brute_force_orientable,
    degree_by_faces,
    edge_count_oracle,
)


# ---------------------------------------------------------------------------
# faces as undirected cycles
# ---------------------------------------------------------------------------

def test_normalize_face_identifies_rotations_and_reflections():
    assert normalize_face((2, 3, 4, 0)) == normalize_face((0, 2, 3, 4))
    assert normalize_face((4, 3, 2, 0)) == normalize_face((0, 2, 3, 4))
    assert normalize_face((1, 7, 11, 10)) == normalize_face((10, 11, 7, 1))
    # different cyclic orders of the same vertex set stay different faces
    assert normalize_face((0, 1, 2, 3)) != normalize_face((0, 2, 1, 3))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_tetrahedron_is_valid(tetrahedron):
    assert validate(tetrahedron).ok


def test_k1_is_valid(k1):
    assert validate(k1).ok


def test_k1_without_its_quadrangle_fails_closedness(k1):
    idx = next(i for i, f in enumerate(k1.faces)
               if normalize_face(f) == normalize_face((0, 2, 3, 4)))
    broken = k1.drop_face(idx)
    report = validate(broken)
    assert not report.ok
    assert "edge-degree" in report.axioms()


def test_every_catalog_map_validates(all_catalog):
    for entry in all_catalog:
        assert validate(entry.map).ok, entry.name


def test_malformed_faces_are_violations_not_crashes():
    m = PolyhedralMap([(0, 1), (0, 1, 1), (0, 1, 2), (0, 1, 2)], n=3)
    report = validate(m)
    axioms = report.axioms()
    assert "face-size" in axioms
    assert "face-repeat" in axioms
    assert "duplicate-face" in axioms


def test_empty_map_is_invalid():
    report = validate(PolyhedralMap([], n=0))
    assert not report.ok
    assert "empty" in report.axioms()


def test_two_faces_sharing_two_nonadjacent_vertices_rejected():
    # two quadrangles agreeing on a diagonal pair only
    m = PolyhedralMap([(0, 1, 2, 3), (0, 4, 2, 5)], n=6)
    assert "face-intersection" in validate(m).axioms()


def test_pinched_vertex_fails_link_condition():
    # two triangle fans meeting only at vertex 0 (a wedge), plus closure
    butterfly = PolyhedralMap([(0, 1, 2), (0, 3, 4)], n=5)
    report = validate(butterfly)
    assert not report.ok
    assert {"edge-degree", "link"} & report.axioms()


def test_disconnected_union_is_invalid(tetrahedron):
    shifted = [tuple(v + 4 for v in f) for f in tetrahedron.faces]
    m = PolyhedralMap(list(tetrahedron.faces) + shifted, n=8)
    assert "connectivity" in validate(m).axioms()


# ---------------------------------------------------------------------------
# surface_profile
# ---------------------------------------------------------------------------

def test_tetrahedron_profile(tetrahedron):
    p = surface_profile(tetrahedron)
    assert (p.vertex_count, p.edge_count, p.face_count) == (4, 6, 4)
    assert p.euler_characteristic == 2
    assert p.orientable


def test_k1_profile(k1):
    p = surface_profile(k1)
    assert (p.vertex_count, p.edge_count, p.face_count) == (12, 36, 23)
    assert p.euler_characteristic == -1
    assert not p.orientable


def test_t1_profile(t1):
    p = surface_profile(t1)
    assert (p.vertex_count, p.edge_count, p.face_count) == (24, 72, 46)
    assert p.euler_characteristic == -2
    assert p.orientable


def test_counting_identities_on_catalog(all_catalog):
    # sum of face lengths = 2E = sum of vertex degrees
    for entry in all_catalog:
        m = entry.map
        e = surface_profile(m).edge_count
        assert sum(len(f) for f in m.faces) == 2 * e
        assert sum(m.degree(v) for v in range(m.n)) == 2 * e
        assert e == edge_count_oracle(m)


def test_orientability_matches_brute_force_on_small_maps(tetrahedron, cube, rp2, octahedron):
    for m in (tetrahedron, cube, rp2, octahedron):
        assert surface_profile(m).orientable == brute_force_orientable(m), m.name


def test_orientability_invariant_under_relabeling(all_catalog):
    rng = random.Random(20240803)
    for entry in all_catalog:
        want = surface_profile(entry.map).orientable
        for _ in range(5):
            perm = list(range(entry.map.n))
            rng.shuffle(perm)
            assert surface_profile(entry.map.relabel(perm)).orientable == want


TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


@pytest.mark.parametrize("faces, n, message", [
    ([], 3, "not a closed map: it has no faces"),
    # without the closedness check surface_profile answered this one with
    # "chi=1 (non-orientable), V=4 E=7 F=4"
    (TETRA[:3] + [(1, 2, 1)], 4,
     "not a closed map: face #3 (1, 2, 1) is not a polygon on vertices 0..3"),
    # a label outside 0..n-1 is refused before any of the three can run
    (TETRA[:2] + [(0, 2, 4), (1, 2, 3)], 4, "face #2 (0, 2, 4) has a label outside 0..3"),
    (TETRA[:3], 4, "not a closed map: edge (1, 2) lies in 1 face(s)"),
    (TETRA + [(2, 3, 4)], 5, "not a closed map: edge (2, 3) lies in 3 face(s)"),
    # both defects at once: the edge listed first is named, whatever its count
    ([(4, 2, 3)] + TETRA, 5, "not a closed map: edge (2, 4) lies in 1 face(s)"),
    ([(2, 3, 4)] + TETRA, 5, "not a closed map: edge (2, 3) lies in 3 face(s)"),
], ids=["no-faces", "repeated-vertex", "label-out-of-range", "edge-in-1-face", "edge-in-3-faces",
        "1-face-edge-before-3-face-edge", "3-face-edge-before-1-face-edge"])
def test_one_check_refuses_maps_that_are_not_closed(faces, n, message):
    # the first bad face, else the first bad edge in the order the faces list them
    for fn in (canonical_form, surface_profile):
        with pytest.raises(ValueError) as info:
            fn(PolyhedralMap(faces, n=n))
        assert str(info.value) == message, fn.__name__


def test_closed_flags_refuses_a_dropped_or_repeated_wall(k1, k2):
    # a cylinder's walls close the map they are glued into: without its last wall that
    # wall's edges lie in one face, and with its first wall twice that wall's lie in three
    glued = add_cylinder(k1, CylinderSpec("quad", (0, 2, 3, 4), (0, 2, 3, 4)), k2)
    kept, walls = list(glued.faces[:-4]), list(glued.faces[-4:])
    closed_flags(glued)  # refuses nothing as glued
    for broken, wall, count in ((walls[:-1], walls[-1], 1), (walls + walls[:1], walls[0], 3)):
        with pytest.raises(ValueError, match=f"lies in {count} face") as info:
            closed_flags(PolyhedralMap(kept + broken, n=glued.n))
        edge = tuple(map(int, re.search(r"edge \((\d+), (\d+)\)", str(info.value)).groups()))
        assert edge in face_edges(wall)


OCTA = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]


@pytest.mark.parametrize("make, message", [
    (lambda: PolyhedralMap([(0, 1, 2)], n=0), "face #0 (0, 1, 2) has a label outside 0..-1"),
    (lambda: PolyhedralMap([(0, 1, 5)], n=3), "face #0 (0, 1, 5) has a label outside 0..2"),
    # label 5 would merge with the barycenter of face #1 in a stacking on n=4
    (lambda: PolyhedralMap(TETRA[:3] + [(1, 2, 5)], n=4),
     "face #3 (1, 2, 5) has a label outside 0..3"),
    # unchecked, this one had link C4(0, 2, 5, 4) at vertex 1 and type (3^4)
    (lambda: PolyhedralMap(OCTA, n=5), "face #4 (5, 2, 1) has a label outside 0..4"),
    (lambda: PolyhedralMap(TETRA, n=4).relabel([0, 1, 2, 4]),
     "face #1 (0, 1, 4) has a label outside 0..3"),
    (lambda: PolyhedralMap([(0, -1, 2)]), "face #0 (0, -1, 2) has a label outside 0..2"),
], ids=["no-declared-vertex", "undeclared-vertex", "would-merge-with-a-barycenter",
        "octahedron-on-5", "relabel", "negative"])
def test_a_map_refuses_labels_outside_its_vertex_range(make, message):
    # every consumer of a PolyhedralMap may read its labels as 0..n-1
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("faces, n, message", [
    ([(0, 1, 2), (0, 2, 3), (0, 3, -1)], 4, "face #2 (0, 3, -1) has a label outside 0..3"),
    ([(0, 1, 2), (0, 2, 3), (1, 2, 4), (0, 3, 5)], 4,
     "face #2 (1, 2, 4) has a label outside 0..3"),
    # the least and the largest label lie in the last face: the first bad face is named
    ([(0, 1, 2), (0, 2, 4), (0, -1, 9)], 4, "face #1 (0, 2, 4) has a label outside 0..3"),
], ids=["negative-later", "too-large-later", "first-of-two"])
def test_a_map_names_the_first_face_with_a_bad_label(faces, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PolyhedralMap(faces, n=n)


def test_a_map_turns_labels_that_are_not_ints_into_ints():
    m = PolyhedralMap([(True, 0, 2), ["3", 1.0, 2.9]])
    assert m.faces == ((1, 0, 2), (3, 1, 2)) and m.n == 4
    assert all(type(v) is int for face in m.faces for v in face)
    m = PolyhedralMap([(0, 1, 2), (False, 2, 3)], n=4.0)
    assert m.faces == ((0, 1, 2), (0, 2, 3)) and type(m.n) is int
    assert all(type(v) is int for face in m.faces for v in face)
    with pytest.raises(ValueError, match=re.escape("face #1 (0, 2, 7) has a label outside 0..3")):
        PolyhedralMap([(0, 1, 2), ("0", 2, 7.5)], n=4)


def test_flag_moves_are_involutions_with_one_orbit_per_vertex(all_catalog):
    for entry in all_catalog:
        t = FlagTemplate(entry.map.faces, entry.map.n)
        s0, s1, s2, fv = t.s0, t.s1, t.s2, t.fv
        every = range(len(fv))
        for s in (s0, s1, s2):
            assert all(s[s[x]] == x != s[x] for x in every), entry.name
        assert all(s0[s2[x]] == s2[s0[x]] for x in every), entry.name
        orbit = components(len(fv), [(x, s[x]) for s in (s1, s2) for x in every])
        assert len(set(orbit)) == entry.map.n
        assert all(fv[x] == fv[orbit[x]] for x in every)
        graph = [set() for _ in range(entry.map.n)]  # the vertex graph, read off s0
        for x in every:
            graph[fv[x]].add(fv[s0[x]])
        assert graph == [entry.map.neighbors[v] for v in range(entry.map.n)], entry.name
    # edge (2, 3) lies in three faces: s2 pairs the flags of the first two and fixes
    # every flag of the last face, whose other edges lie in one face; all stay involutions
    t = FlagTemplate(TETRA + [(2, 3, 4)], 5)
    every = range(len(t.fv))
    for s in (t.s0, t.s1, t.s2):
        assert all(s[s[x]] == x for x in every)
    assert [x for x in every if t.s2[x] == x] == list(range(24, 30))


def test_components_labels_by_least_member():
    assert components(6, [(3, 4), (4, 1), (5, 2)]) == [0, 1, 2, 1, 1, 2]
    assert components(2, []) == [0, 1]


# ---------------------------------------------------------------------------
# vertex links
# ---------------------------------------------------------------------------

def test_k1_link_of_0_matches_published_notation(k1):
    link = vertex_link(k1, 0)
    assert link.notation() == "C7([2, 3, 4], 5, 6, 7, 1)"
    faces = {normalize_face(f) for f in link.faces()}
    assert faces == {
        normalize_face(f)
        for f in [(0, 2, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 7), (0, 1, 7), (0, 1, 2)]
    }


def test_link_notation_round_trip():
    link = VertexLink.from_notation(0, "C7([2, 3, 4], 5, 6, 7, 1)")
    assert link.notation() == "C7([2, 3, 4], 5, 6, 7, 1)"
    assert link.degree == 6
    assert vertex_link_cycle_from(link) == ((1, 3), (2, 4), (4, 3), (5, 3), (6, 3), (7, 3))


def test_link_notation_reads_what_it_writes(all_catalog, k1_quad):
    maps = [entry.map for entry in all_catalog] + k1_quad[0]
    for m in maps:
        for v in range(m.n):
            link = vertex_link(m, v)
            assert VertexLink.from_notation(v, link.notation()) == link, (m.name, v)
    # two or more larger corners, and a pentagon corner
    for arrangement in [(4, 4, 3, 3, 3, 3, 3), (4, 3, 4, 3, 3, 3, 3), (5, 3, 3, 3), (4, 4, 4)]:
        link = seed_link(arrangement)
        assert VertexLink.from_notation(0, link.notation()) == link, arrangement
    assert seed_link((4, 4, 3, 3, 3, 3, 3)).notation() == "C9([2, 3, 4], [4, 5, 6], 7, 8, 9, 1)"


@pytest.mark.parametrize("text, bad", [
    ("C7([2, 3], 5, 6)", "[2, 3]"),
    ("C7([2, 3, 4], x, 6)", "'x'"),
    ("C7([2, 3, 4], [5, 6, 7], 1)", "[5, 6, 7]"),
    ("C7([2, 3, 4, 5)", "'[2'"),
    ("C7(1, 2,, 3)", "''"),
    ("C1(5)", "no corners"),
    # two triangles on the same three vertices are one face, not a link
    ("C2(5, 6)", "link 'C2(5, 6)' has 2 corners, need >= 3"),
])
def test_link_notation_names_the_bad_token(text, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        VertexLink.from_notation(0, text)


def vertex_link_cycle_from(link):
    return tuple((c[0], len(c) + 1) for c in link.corners)


def test_tetrahedron_link_is_triangle_cycle(tetrahedron):
    link = vertex_link(tetrahedron, 0)
    assert link.degree == 3
    assert all(size == 3 for _, size in vertex_link_cycle_from(link))


def test_t2_link_of_0_has_one_quad_and_five_triangles(t2):
    link = vertex_link(t2, 0)
    sizes = sorted(size for _, size in vertex_link_cycle_from(link))
    assert sizes == [3, 3, 3, 3, 3, 4]
    quad_corner = next(c for c in link.corners if len(c) == 3)
    assert normalize_face((0,) + quad_corner) == normalize_face((0, 2, 3, 4))


def test_link_length_equals_degree_everywhere(all_catalog):
    for entry in all_catalog:
        m = entry.map
        for v in range(m.n):
            assert vertex_link(m, v).degree == m.degree(v) == degree_by_faces(m, v)


def test_link_rotation_reflection_identified():
    a = VertexLink.from_corners(0, [(1, 2), (2, 3), (3, 1)])
    b = VertexLink.from_corners(0, [(2, 3), (3, 1), (1, 2)])
    c = VertexLink.from_corners(0, [(2, 1), (1, 3), (3, 2)])
    assert a == b == c


def test_unknown_vertex_raises(k1):
    with pytest.raises(KeyError):
        vertex_link(k1, 99)


def test_link_refuses_fewer_than_three_corners():
    # two triangles on the same three vertices close a two-corner cycle round 0
    with pytest.raises(ValueError, match=re.escape("vertex 0 has 2 corners, need >= 3")):
        vertex_link(PolyhedralMap([(0, 1, 2), (0, 2, 1), (1, 2, 3)], n=4), 0)
    with pytest.raises(ValueError, match=re.escape("vertex 5 has 2 corners, need >= 3")):
        VertexLink.from_corners(5, [(1, 2), (2, 1)])


def test_link_refuses_faces_that_repeat_a_vertex():
    # a repeated vertex made a two-corner "link" and a link holding its centre
    with pytest.raises(ValueError, match="not a polygon"):
        vertex_link(PolyhedralMap([(0, 3, 2, 3)]), 0)
    bent = PolyhedralMap([(0, 1, 0, 3), (0, 1, 2), (0, 3, 2)])
    with pytest.raises(ValueError, match="not a polygon"):
        vertex_link(bent, 0)


# ---------------------------------------------------------------------------
# face sequences and types
# ---------------------------------------------------------------------------

def test_face_sequence_of_k1_vertex(k1):
    assert str(face_sequence(k1, 0)) == "(3^5, 4)"


def test_face_sequence_of_cube_vertices(cube):
    for v in range(cube.n):
        assert str(face_sequence(cube, v)) == "(4^3)"


def test_stacked_k1_original_vertex_becomes_all_triangles(k1):
    stacked = stack_faces(k1)
    assert str(face_sequence(stacked, 0)) == "(3^12)"


def test_semi_equivelar_types(k2, tetrahedron):
    assert semi_equivelar_type(k2) == FaceSequence.from_string("3^5,4")
    assert semi_equivelar_type(tetrahedron) == FaceSequence.from_string("3^3")


def test_face_sequence_string_parsing():
    seq = FaceSequence.from_string("(3^5, 4^2)")
    assert seq.entries == ((3, 5), (4, 2))
    assert seq.degree == 7
    assert FaceSequence.from_string("3,3,3,4,3,3") == FaceSequence.from_string("3^5,4")
    with pytest.raises(ValueError):
        FaceSequence.from_string("3^5, x")


def test_face_sequence_rejects_bad_entries():
    with pytest.raises(ValueError):
        FaceSequence(((2, 1),))
    with pytest.raises(ValueError):
        FaceSequence(((4, 1), (3, 1)))


# ---------------------------------------------------------------------------
# d-covered
# ---------------------------------------------------------------------------

def test_tetrahedron_is_3_covered(tetrahedron):
    assert is_d_covered(tetrahedron, 3)


def test_stacked_k1_is_12_covered_but_not_11(k1):
    stacked = stack_faces(k1)
    assert is_d_covered(stacked, 12)
    assert not is_d_covered(stacked, 11)


def test_d_covered_refuses_non_triangulations(cube):
    with pytest.raises(NotTriangulationError):
        is_d_covered(cube, 3)


def test_d_covered_refuses_labels_outside_the_vertex_range(tetrahedron):
    # the map is refused where it is made, so no verdict is given about
    # a face list whose edges to label 4 no consumer would see
    faces = list(tetrahedron.faces)
    faces[2] = (faces[2][0], faces[2][1], 4)
    with pytest.raises(ValueError, match=re.escape(
            f"face #2 {faces[2]} has a label outside 0..3")):
        is_d_covered(PolyhedralMap(faces, n=4), 3)


# ---------------------------------------------------------------------------
# vertex counts from type and chi
# ---------------------------------------------------------------------------

def test_vertex_count_for_published_types():
    assert sem_vertex_count(FaceSequence.from_string("3^5,4"), -1) == 12
    assert sem_vertex_count(FaceSequence.from_string("3^5,4"), -2) == 24
    assert sem_vertex_count(FaceSequence.from_string("3^5,4^2"), -8) == 24
    assert sem_vertex_count(FaceSequence.from_string("3^7,4"), -10) == 24
    assert sem_vertex_count(FaceSequence.from_string("3^3"), 2) == 4


def test_flat_type_is_indeterminate():
    with pytest.raises(FlatTypeError):
        sem_vertex_count(FaceSequence.from_string("3^6"), 0)
    with pytest.raises(ImpossibleTypeError):
        sem_vertex_count(FaceSequence.from_string("3^6"), -2)


def test_impossible_counts():
    with pytest.raises(ImpossibleTypeError):
        sem_vertex_count(FaceSequence.from_string("3^7,4"), -1)
    with pytest.raises(ImpossibleTypeError):
        sem_vertex_count(FaceSequence.from_string("3^5,4"), 1)


def test_chi_formula_holds_on_catalog_sems(all_catalog):
    # chi = N * (1 - d/2 + sum p_i/a_i) for every bundled semi-equivelar map
    for entry in all_catalog:
        m = entry.map
        seq = semi_equivelar_type(m)
        assert seq is not None, entry.name
        chi = surface_profile(m).euler_characteristic
        if seq.curvature() != 0:
            assert sem_vertex_count(seq, chi) == m.n, entry.name
