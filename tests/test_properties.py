"""Property tests for the relabeling-invariance core."""

from hypothesis import example, given, settings, strategies as st

from semap import (
    FaceSequence,
    canonical_form,
    catalog_map,
    g_t_graph,
    is_orientable,
    normalize_face,
    semi_equivelar_type,
    surface_profile,
)


@st.composite
def cyclic_variants(draw):
    face = draw(st.lists(st.integers(0, 30), min_size=3, max_size=8, unique=True))
    rotation = draw(st.integers(0, len(face) - 1))
    flipped = draw(st.booleans())
    variant = face[rotation:] + face[:rotation]
    if flipped:
        variant = variant[::-1]
    return tuple(face), tuple(variant)


@given(cyclic_variants())
def test_normalize_face_constant_on_the_dihedral_orbit(pair):
    face, variant = pair
    assert normalize_face(face) == normalize_face(variant)


@given(st.lists(st.integers(0, 9), max_size=8))
@example([])
@example([2, 0, 1, 0])  # the least label repeats
@example([0, 3, 0, 3])
def test_normalize_face_is_the_least_rotation_or_reflection(face):
    seq = tuple(face)
    turns = [s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(s))]
    assert normalize_face(face) == min(turns, default=())


@given(st.permutations(list(range(12))))
@settings(max_examples=40, deadline=None)
def test_canonical_form_and_profile_survive_any_relabeling(perm):
    k1 = catalog_map("K1")
    relabeled = k1.relabel(list(perm))
    assert canonical_form(relabeled) == canonical_form(k1)
    assert is_orientable(relabeled) == is_orientable(k1)
    assert semi_equivelar_type(relabeled) == semi_equivelar_type(k1)
    assert surface_profile(relabeled) == surface_profile(k1)


@given(st.permutations(list(range(12))), st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_g_t_graphs_are_equivariant(perm, t):
    k2 = catalog_map("K2")
    relabeled = k2.relabel(list(perm))
    mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g_t_graph(k2, t).edges}
    assert mapped == set(g_t_graph(relabeled, t).edges)


@given(st.lists(st.integers(3, 9), min_size=3, max_size=9))
@settings(max_examples=60)
def test_face_sequence_string_round_trip(sizes):
    seq = FaceSequence.from_sizes(sizes)
    assert FaceSequence.from_string(str(seq)) == seq
    assert seq.degree == len(sizes)
