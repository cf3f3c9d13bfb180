"""Semi-equivelar maps on closed surfaces.

Construction, validation, isomorphism testing, covers and cylinder
surgery, and an exhaustive census of semi-equivelar maps.  The census
keeps one map per canonical form; the triangle cylinder search compares
canonical forms only where two class keys meet; the quadrangle cylinder
search builds one gluing per class.

``__all__`` holds every class and each function that the CLI, the demos,
the acceptance tests or the benchmark call.
"""

from .core import (
    Face,
    FaceSequence,
    FlatTypeError,
    ImpossibleTypeError,
    NotTriangulationError,
    PolyhedralMap,
    SurfaceProfile,
    ValidationReport,
    VertexLink,
    Violation,
    face_sequence,
    face_sequence_classes,
    is_d_covered,
    sem_vertex_count,
    semi_equivelar_type,
    surface_profile,
    validate,
    vertex_link,
)
from .isomorphism import (
    AutomorphismGroup,
    SimpleGraph,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    g_t_graph,
    is_vertex_transitive,
    isomorphism,
)
from .catalog import CatalogEntry, ExpectedProfile, catalog, catalog_map
from .census import (
    LinkContradiction,
    PartialMap,
    SearchStats,
    complete_search,
    corner_arrangements,
    enumerate_sems,
    seed_link,
    seed_partial,
)
from .mapio import MapFormatError, load_map, map_to_json, parse_map, serialize_map
from .transforms import (
    CoveringWitness,
    CylinderProvenance,
    CylinderSearchStats,
    CylinderSpec,
    TransformError,
    add_cylinder,
    cylinder_search,
    double_cover,
    stack_faces,
    verify_covering,
)

__all__ = [
    "Face",
    "FaceSequence",
    "FlatTypeError",
    "ImpossibleTypeError",
    "NotTriangulationError",
    "PolyhedralMap",
    "SurfaceProfile",
    "ValidationReport",
    "VertexLink",
    "Violation",
    "face_sequence",
    "face_sequence_classes",
    "is_d_covered",
    "sem_vertex_count",
    "semi_equivelar_type",
    "surface_profile",
    "validate",
    "vertex_link",
    "AutomorphismGroup",
    "SimpleGraph",
    "are_isomorphic",
    "automorphism_group",
    "canonical_form",
    "g_t_graph",
    "is_vertex_transitive",
    "isomorphism",
    "CatalogEntry",
    "ExpectedProfile",
    "catalog",
    "catalog_map",
    "LinkContradiction",
    "PartialMap",
    "SearchStats",
    "complete_search",
    "corner_arrangements",
    "enumerate_sems",
    "seed_link",
    "seed_partial",
    "MapFormatError",
    "load_map",
    "map_to_json",
    "parse_map",
    "serialize_map",
    "CoveringWitness",
    "CylinderProvenance",
    "CylinderSearchStats",
    "CylinderSpec",
    "TransformError",
    "add_cylinder",
    "cylinder_search",
    "double_cover",
    "stack_faces",
    "verify_covering",
]

__version__ = "0.1.0"
