import copy
import inspect
import sys
import types
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import automorphism_count, partial_map_admits, rooting_count
from semap import (
    FaceSequence,
    LinkContradiction,
    PartialMap,
    VertexLink,
    are_isomorphic,
    canonical_form,
    complete_search,
    corner_arrangements,
    enumerate_sems,
    seed_link,
    seed_partial,
    semi_equivelar_type,
    surface_profile,
)
from semap import census
from semap.census import PRUNE_REASONS, assume_link
from semap.core import normalize_face

T354 = FaceSequence.from_string("3^5,4")


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_single_arrangement_for_one_quad_types():
    assert corner_arrangements(T354) == [(4, 3, 3, 3, 3, 3)]
    assert corner_arrangements(FaceSequence.from_string("3^7,4")) == [
        (4, 3, 3, 3, 3, 3, 3, 3)]


def test_mixed_types_have_multiple_arrangements():
    # (3^2, 4, 3, 4) and (3^3, 4^2) are different cyclic orders of one multiset
    arrangements = corner_arrangements(FaceSequence.from_string("3^3,4^2"))
    assert len(arrangements) == 2


def test_seed_link_matches_published_normalization():
    link = seed_link((4, 3, 3, 3, 3, 3))
    assert link.notation() == "C7([2, 3, 4], 5, 6, 7, 1)"


def test_seed_partial_commits_the_published_faces():
    partial = seed_partial(T354, -1)
    committed = {normalize_face(f) for f in partial.faces}
    assert committed == {
        normalize_face(f)
        for f in [(0, 2, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 7), (0, 1, 7), (0, 1, 2)]
    }


# ---------------------------------------------------------------------------
# assume_link
# ---------------------------------------------------------------------------

def test_reasserting_committed_link_is_identity():
    partial = seed_partial(T354, -1)
    again = assume_link(partial, 0, seed_link((4, 3, 3, 3, 3, 3)))
    assert sorted(map(normalize_face, again.faces)) == sorted(map(normalize_face, partial.faces))


def test_assume_link_commits_implied_faces():
    partial = seed_partial(T354, -1)
    # a consistent choice for the link of vertex 2 around the seed quad
    link = VertexLink.from_notation(2, "C7([3, 4, 0], 1, 8, 6, 5)")
    before = {normalize_face(f) for f in partial.faces}
    out = assume_link(partial, 2, link)
    new = {normalize_face(f) for f in out.faces} - before
    assert new == {
        normalize_face(f) for f in [(2, 1, 8), (2, 8, 6), (2, 6, 5), (2, 5, 3)]
    }


def test_assume_link_rejects_inconsistent_link():
    partial = seed_partial(T354, -1)
    # this link omits the committed quadrangle corner at vertex 2
    bad = VertexLink.from_notation(2, "C7([5, 6, 7], 8, 9, 1, 0)")
    with pytest.raises(LinkContradiction):
        assume_link(partial, 2, bad)


# The hand analysis splits the choices of lk(2) = C7([3,4,0], 1, c, b, a)
# into branches; these are the ones claimed to die, and a machine check
# must confirm each one does (some die the moment the link is asserted).
DEAD_BRANCHES = [
    (5, 6, 7), (5, 6, 8), (5, 7, 6), (5, 7, 8), (6, 5, 7), (6, 5, 8),
    (5, 8, 6), (5, 8, 9), (6, 7, 5), (6, 8, 5), (6, 8, 9), (7, 8, 5),
    (7, 8, 6),
]
LIVE_BRANCHES = [(6, 7, 8), (8, 6, 9), (8, 7, 6), (8, 9, 6), (8, 9, 10)]


def branch_state(a, b, c):
    partial = seed_partial(T354, -1)
    link = VertexLink.from_notation(2, f"C7([3, 4, 0], 1, {c}, {b}, {a})")
    return assume_link(partial, 2, link)


def test_every_dead_branch_dies():
    for a, b, c in DEAD_BRANCHES:
        try:
            state = branch_state(a, b, c)
        except LinkContradiction:
            continue
        found, stats = complete_search(state)
        assert found == [] and stats.exhausted, (a, b, c)


def test_live_branches_cover_all_three_classes(k1, k2, k3):
    forms = set()
    for a, b, c in LIVE_BRANCHES:
        state = branch_state(a, b, c)
        found, _ = complete_search(state)
        forms |= {canonical_form(m) for m in found}
    assert forms == {canonical_form(k1), canonical_form(k2), canonical_form(k3)}


def test_reduced_branch_dies_like_its_image():
    # (8, 9, 5) reduces to (5, 6, 7) by a relabeling, so it must die too
    try:
        state = branch_state(8, 9, 5)
    except LinkContradiction:
        return
    found, stats = complete_search(state)
    assert found == [] and stats.exhausted


# ---------------------------------------------------------------------------
# partial-map invariants
# ---------------------------------------------------------------------------

def test_add_face_rejects_third_face_on_edge():
    p = PartialMap(12, T354)
    p.add_face((0, 1, 2))
    p.add_face((0, 1, 3))
    with pytest.raises(LinkContradiction, match="2 faces"):
        p.add_face((0, 1, 4))


def test_add_face_rejects_duplicate():
    p = PartialMap(12, T354)
    p.add_face((0, 1, 2))
    with pytest.raises(LinkContradiction, match="already"):
        p.add_face((2, 0, 1))


def test_add_face_rejects_size_budget_overflow():
    p = PartialMap(12, T354)
    p.add_face((0, 1, 2, 3))
    with pytest.raises(LinkContradiction, match="slot"):
        p.add_face((0, 4, 5, 6))


def test_add_face_rejects_two_vertex_overlap():
    p = PartialMap(12, T354)
    p.add_face((0, 1, 2, 3))
    with pytest.raises(LinkContradiction, match="share"):
        p.add_face((0, 2, 4))


def test_add_face_rejects_wrong_size():
    p = PartialMap(12, T354)
    with pytest.raises(LinkContradiction, match="size"):
        p.add_face((0, 1, 2, 3, 4))


def test_add_face_rejects_three_shared_vertices():
    p = PartialMap(8, FaceSequence.from_string("3^3,4^2"))
    p.add_face((0, 1, 2, 3))
    # every other check passes: only the intersection test sees 0, 1, 2
    with pytest.raises(LinkContradiction, match="shares") as info:
        p.add_face((0, 1, 4, 2))
    assert info.value.reason == "intersection"


def test_searches_leave_their_argument_unchanged():
    partial = seed_partial(T354, -1)
    before = copy.deepcopy(vars(partial))
    complete_search(partial, max_nodes=300)
    assert vars(partial) == before
    # a link is committed in place, one face per corner not yet there, and
    # each of those commits pops off the trail
    link = VertexLink.from_notation(2, "C7([3, 4, 0], 1, 8, 6, 5)")
    assert assume_link(partial, 2, link) is partial
    assert len(partial.faces) == 10
    for _ in range(4):
        partial.pop_face()
    assert vars(partial) == before
    # a refused link changes nothing: one refused at once, and one refused
    # after it has committed faces of its own
    with pytest.raises(LinkContradiction):
        assume_link(partial, 2, VertexLink.from_notation(2, "C7([5, 6, 7], 8, 9, 1, 0)"))
    assert vars(partial) == before
    with pytest.raises(LinkContradiction):
        assume_link(partial, 2, VertexLink.from_notation(2, "C7([3, 4, 0], 1, 5, 6, 7)"))
    assert vars(partial) == before


# Faces that close vertex links: the octahedron (4 corners at a vertex), the
# tetrahedron (3) and the (3^5,4) seed link of vertex 0 on labels 0..7 (6).
OCTAHEDRON = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
              (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
TETRAHEDRON = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 2, 3)]
SEED_FACES = list(seed_link((4, 3, 3, 3, 3, 3)).faces())


@st.composite
def face_ops(draw):
    """A target, a vertex count n <= 10 and a list of faces to add, None
    standing for a pop: one or two relabelled closing patterns, shuffled
    together, with random faces (sizes 3..5, labels 0..n) and pops mixed in."""
    seq = FaceSequence.from_string(draw(st.sampled_from(["3^5,4", "3^4"])))
    n = draw(st.integers(8, 10))
    faces = []
    for pattern in draw(st.lists(st.sampled_from([OCTAHEDRON, TETRAHEDRON, SEED_FACES]),
                                 min_size=1, max_size=2)):
        perm = draw(st.permutations(range(n)))
        faces += [tuple(perm[v] for v in f) for f in pattern]
    ops = draw(st.permutations(faces))
    random_face = st.lists(st.integers(0, n), min_size=3, max_size=5).map(tuple)
    for _ in range(draw(st.integers(0, 6))):
        ops.insert(draw(st.integers(0, len(ops))), draw(st.one_of(random_face, st.none())))
    return seq, n, ops


def open_edges_of(faces):
    """The edges lying in exactly one face of a raw face list."""
    uses = Counter(tuple(sorted((f[i - 1], f[i]))) for f in faces for i in range(len(f)))
    return {e for e, k in uses.items() if k == 1}


def site_of(faces):
    """The least (-faces at v, v, w) over both directions of the open
    edges of a raw face list, or None when no edge is open."""
    at = Counter(v for f in faces for v in f)
    sites = [(-at[v], v, w) for a, b in open_edges_of(faces) for v, w in ((a, b), (b, a))]
    return min(sites)[1:] if sites else None


def check_state(engine, p, faces):
    """The edges read off ``arcs`` are those lying in one face, and
    ``_site`` picks the reference site, or None when no edge is open."""
    assert {(v, w) for v, ends in p.arcs.items() for w in ends if v < w} == open_edges_of(faces)
    assert engine._site(p) == site_of(faces)


def check_engine(engine, seq, n, ops):
    """``add_face`` accepts exactly what the oracle admits, a refusal
    changes nothing, each ``pop_face`` restores the state before its add,
    and the open edges and the search site always match the raw faces."""
    p = engine.PartialMap(n, seq)
    faces, before = [], []
    for face in ops:
        if face is None:
            if faces:
                assert p.pop_face() == faces.pop()
                check_state(engine, p, faces)
                assert vars(p) == before.pop()
            continue
        snapshot = copy.deepcopy(vars(p))
        try:
            p.add_face(face)
        except engine.LinkContradiction as exc:
            assert exc.reason in PRUNE_REASONS
            assert not partial_map_admits(faces, face, n, seq), (faces, face)
            assert vars(p) == snapshot
            continue
        assert partial_map_admits(faces, face, n, seq), (faces, face)
        faces.append(face)
        check_state(engine, p, faces)
        before.append(snapshot)
    while faces:
        assert p.pop_face() == faces.pop()
        check_state(engine, p, faces)
        assert vars(p) == before.pop()


# The last seed face closes vertex 0 with its 6th corner (accepted); the
# third tetrahedron face closes vertex 0 with its 3rd of 4 (refused).
CLOSING_EXAMPLES = [
    (T354, 8, SEED_FACES + [None] + SEED_FACES[-1:]),
    (FaceSequence.from_string("3^4"), 8, TETRAHEDRON),
]


@given(face_ops())
@settings(max_examples=300, deadline=None)
@example(CLOSING_EXAMPLES[0])
@example(CLOSING_EXAMPLES[1])
def test_add_face_agrees_with_oracle(case):
    check_engine(census, *case)


def mutant_engine(monkeypatch, old, new):
    source = inspect.getsource(census)
    assert source.count(old) == 1
    module = types.ModuleType("semap.census_mutant")
    module.__package__ = "semap"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), module.__name__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("off_by", ["+ 1", "- 1"])
def test_oracle_check_catches_off_by_one_closing(monkeypatch, off_by):
    mutant = mutant_engine(monkeypatch, "count != self.degree:",
                           f"count != self.degree {off_by}:")
    with pytest.raises(AssertionError):
        for case in CLOSING_EXAMPLES:
            check_engine(mutant, *case)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_tetrahedron_is_the_unique_3_3_map(tetrahedron):
    maps, stats = enumerate_sems(FaceSequence.from_string("3^3"), 2)
    assert len(maps) == 1
    assert are_isomorphic(maps[0], tetrahedron)


def test_octahedron_and_cube_are_unique(octahedron, cube):
    maps, _ = enumerate_sems(FaceSequence.from_string("3^4"), 2)
    assert len(maps) == 1 and are_isomorphic(maps[0], octahedron)
    maps, _ = enumerate_sems(FaceSequence.from_string("4^3"), 2)
    assert len(maps) == 1 and are_isomorphic(maps[0], cube)


def test_icosahedron_class_is_unique(rp2):
    maps, _ = enumerate_sems(FaceSequence.from_string("3^5"), 2)
    assert len(maps) == 1
    # and the projective-plane case on chi=1
    maps1, _ = enumerate_sems(FaceSequence.from_string("3^5"), 1)
    assert len(maps1) == 1
    assert are_isomorphic(maps1[0], rp2)


def test_classification_finds_exactly_three_classes(k1, k2, k3):
    maps, stats = enumerate_sems(T354, -1)
    assert stats.classes == len(maps) == 3
    matches = sorted(
        next(name for name, cat in (("K1", k1), ("K2", k2), ("K3", k3))
             if are_isomorphic(m, cat))
        for m in maps
    )
    assert matches == ["K1", "K2", "K3"]
    for m in maps:
        assert semi_equivelar_type(m) == T354
        p = surface_profile(m)
        assert p.euler_characteristic == -1
        assert not p.orientable


def test_classification_regression_anchors():
    # raw pre-dedup solution count and node count, frozen from this
    # implementation's fixed expansion order
    _, stats = enumerate_sems(T354, -1)
    assert stats.solutions == 32
    assert stats.nodes == 4469
    assert stats.exhausted


def test_search_is_deterministic():
    _, first = enumerate_sems(T354, -1)
    _, second = enumerate_sems(T354, -1)
    assert first.nodes == second.nodes
    assert first.solutions == second.solutions


def test_weaker_seed_reaches_the_same_classes():
    strong, _ = enumerate_sems(T354, -1)
    weak, _ = enumerate_sems(T354, -1, seed="face")
    assert {canonical_form(m) for m in strong} == {canonical_form(m) for m in weak}
    for small in ("3^3", "3^4", "4^3"):
        a, _ = enumerate_sems(FaceSequence.from_string(small), 2)
        b, _ = enumerate_sems(FaceSequence.from_string(small), 2, seed="face")
        assert {canonical_form(m) for m in a} == {canonical_form(m) for m in b}


@pytest.mark.parametrize("seed", ["link", "face"])
@pytest.mark.parametrize("text, chi", [
    ("3^3", 2), ("3^4", 2), ("4^3", 2), ("3^5", 2), ("3^5", 1), ("3^5,4", -1),
    ("3^2,4^3", -1), ("3^2,4^2", 2)])
def test_solutions_count_each_class_once_per_orbit_of_rootings(text, chi, seed):
    # both seeds label what follows them in first-use order, so an exhausted run
    # finds each rooting of each class once, up to automorphism: solutions =
    # sum over classes C of rootings(C) / |Aut(C)|, with no code of the census
    # or of the canonical form on the right-hand side
    maps, stats = enumerate_sems(FaceSequence.from_string(text), chi, seed=seed)
    assert stats.exhausted and maps
    orbits = [divmod(rooting_count(m, seed), automorphism_count(m)) for m in maps]
    assert [rest for _, rest in orbits] == [0] * len(maps)
    assert stats.solutions == sum(count for count, _ in orbits)


def test_impossible_parameters_return_empty():
    maps, stats = enumerate_sems(FaceSequence.from_string("3^7,4"), -1)
    assert maps == []
    assert stats.nodes == 0
    maps, stats = enumerate_sems(FaceSequence.from_string("3^6"), 0)
    assert maps == []


def test_node_budget_reports_partial_coverage():
    maps, stats = enumerate_sems(T354, -1, max_nodes=50)
    assert not stats.exhausted
    assert stats.nodes <= 50


def test_prune_counts_account_for_every_candidate(monkeypatch):
    tried = 0
    candidates = census._candidate_faces

    def counted(partial, v, w):
        nonlocal tried
        out = candidates(partial, v, w)
        tried += len(out)
        return out

    monkeypatch.setattr(census, "_candidate_faces", counted)
    _, stats = enumerate_sems(T354, -1)
    assert stats.exhausted
    assert list(stats.pruned) == list(PRUNE_REASONS)
    # every candidate is either refused for one reason or becomes a node
    assert sum(stats.pruned.values()) + stats.nodes - 1 == tried


def reference_candidates(partial, v, w):
    """The generator without the closing rule: each slot of a face v, w, ...
    takes every used label not on the path, then the least fresh label."""
    target, size_used = partial.target, partial.size_used
    out = []

    def extend(path, left, size):
        if left == 0:
            out.append(tuple(path))
            return
        used = [x for x in sorted(partial.vertex_faces) if x not in path]
        fresh = [x for x in range(partial.n) if x not in partial.vertex_faces
                 and x not in path][:1]
        for x in used + fresh:
            if size_used.get(x, {}).get(size, 0) < target[size]:
                extend(path + [x], left - 1, size)

    for s in sorted(target):
        if size_used[v].get(s, 0) < target[s] and size_used[w].get(s, 0) < target[s]:
            extend([v, w], s - 2, s)
    return out


def accepted_faces(partial, faces):
    out = []
    for face in faces:
        try:
            partial.add_face(face)
        except LinkContradiction:
            continue
        partial.pop_face()
        out.append(face)
    return out


@pytest.mark.parametrize("chi, max_nodes, nodes", [(-1, None, 4469), (-2, 3000, 3000)])
def test_generator_keeps_every_face_the_reference_gets_accepted(monkeypatch, chi,
                                                                max_nodes, nodes):
    generator = census._candidate_faces
    sites = 0

    def checked(partial, v, w):
        nonlocal sites
        sites += 1
        offered = generator(partial, v, w)
        reference = reference_candidates(partial, v, w)
        kept = accepted_faces(partial, reference)
        assert set(offered) <= set(reference)
        assert accepted_faces(partial, offered) == kept
        assert not (set(reference) - set(offered)) & set(kept)
        return offered

    monkeypatch.setattr(census, "_candidate_faces", checked)
    _, stats = enumerate_sems(T354, chi, max_nodes=max_nodes)
    # every node but a complete map is a site
    assert stats.nodes == nodes == sites + stats.solutions


def test_complete_search_refuses_an_empty_partial_map():
    with pytest.raises(ValueError, match="at least one face") as info:
        complete_search(PartialMap(12, T354))
    assert type(info.value) is ValueError


def test_negative_node_budgets_are_refused():
    with pytest.raises(ValueError, match="max_nodes"):
        enumerate_sems(T354, -1, max_nodes=-5)
    with pytest.raises(ValueError, match="max_nodes"):
        complete_search(seed_partial(T354, -1), max_nodes=-1)
    _, stats = enumerate_sems(T354, -1, max_nodes=0)
    assert stats.nodes == 0 and not stats.exhausted


@pytest.mark.parametrize("text", ["4^3", "3^4", "3^3,4", "3^2,4^2"])
def test_seeds_that_do_not_fit_give_no_maps(text):
    # each seed link needs more vertices than chi=1 allows: an arrangement
    # with no completions, not an error
    seq = FaceSequence.from_string(text)
    maps, stats = enumerate_sems(seq, 1)
    assert maps == [] and stats.exhausted
    assert (stats.nodes, stats.solutions, stats.classes) == (0, 0, 0)
    assert stats.reason.count("does not fit") == len(corner_arrangements(seq))
    assert "outside vertex budget" in stats.reason


def test_a_seed_face_that_does_not_fit_gives_no_maps():
    # (3^3) on chi=1 has 2 vertices, too few for one triangle
    maps, stats = enumerate_sems(FaceSequence.from_string("3^3"), 1, seed="face")
    assert maps == [] and stats.exhausted and stats.nodes == 0
    assert stats.reason.startswith("seed face does not fit: face (0, 1, 2)")


def per_seed_reference(seq, chi, max_nodes):
    """The census run one corner arrangement at a time: a complete_search
    per seed on what is left of the budget, its counts merged by hand, and
    classes taken by canonical form afterwards."""
    nodes = solutions = 0
    pruned = dict.fromkeys(PRUNE_REASONS, 0)
    exhausted = True
    classes, forms = [], set()
    for arrangement in corner_arrangements(seq):
        left = None if max_nodes is None else max_nodes - nodes
        found, sub = complete_search(seed_partial(seq, chi, arrangement), max_nodes=left)
        nodes += sub.nodes
        solutions += sub.solutions
        exhausted = exhausted and sub.exhausted
        for reason, count in sub.pruned.items():
            pruned[reason] += count
        for m in found:
            if canonical_form(m) not in forms:
                forms.add(canonical_form(m))
                classes.append((f"{seq}|chi={chi}#{len(classes) + 1}", m.faces))
    return nodes, solutions, pruned, exhausted, classes


@pytest.mark.parametrize("max_nodes", [10, 40, None])
def test_one_budget_across_arrangements_matches_the_per_seed_merge(max_nodes):
    # two arrangements of 24 and 51 nodes: 10 stops in the first, 40 in the second
    seq = FaceSequence.from_string("3^2,4^2")
    assert len(corner_arrangements(seq)) == 2
    maps, stats = enumerate_sems(seq, 2, max_nodes=max_nodes)
    got = (stats.nodes, stats.solutions, stats.pruned, stats.exhausted,
           [(m.name, m.faces) for m in maps])
    assert got == per_seed_reference(seq, 2, max_nodes)
    assert stats.classes == len(maps)
    if max_nodes is None:
        assert (stats.nodes, stats.solutions, stats.classes) == (24 + 51, 4, 2)


@pytest.mark.parametrize("chi, max_nodes", [(-1, None), (-2, 10000)])
def test_census_computes_one_form_per_solution_and_no_key(monkeypatch, chi, max_nodes):
    iso = sys.modules["semap.isomorphism"]
    forms, keys, compute = [], [], iso._compute_canonical

    def counting_compute(m):
        forms.append(m)
        return compute(m)

    monkeypatch.setattr(iso, "_compute_canonical", counting_compute)
    monkeypatch.setattr(iso, "class_key", keys.append)
    maps, stats = enumerate_sems(T354, chi, max_nodes=max_nodes)
    # each complete map, and nothing else, gets its canonical form once
    assert len(forms) == len({id(m) for m in forms}) == stats.solutions
    assert keys == []
    # and the classes are the first map of each form, in arrival order
    firsts = {}
    for m in forms:
        firsts.setdefault(canonical_form(m), m)
    assert [id(m) for m in maps] == [id(m) for m in firsts.values()]
    assert stats.classes == len(maps)
