"""Acceptance criteria, one test per criterion (split where a criterion
mixes independently checkable claims).

Each test prints an ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
``pytest -s`` or in captured output on failure).

Two sub-criteria assert counts taken from the published census tables
whose printed edge lists are visibly corrupted (they contain out-of-range
vertex labels).  The counts are isomorphism invariants, and the classes
they belong to are pinned down independently here (K3 by the exhaustive
classification, T1 as the double cover of K1), so the true values are
computable: |EG(G_6(K3))| = 3 and |EG(G_5(T1))| = 8.  The tests assert
the published numbers as stated and therefore fail; they are kept red
deliberately rather than being weakened to match the computation.
"""

import functools
import hashlib
import random
import time
from itertools import combinations

from semap import (
    FaceSequence,
    are_isomorphic,
    canonical_form,
    catalog,
    catalog_map,
    cylinder_search,
    double_cover,
    enumerate_sems,
    g_t_graph,
    is_d_covered,
    is_vertex_transitive,
    sem_vertex_count,
    semi_equivelar_type,
    stack_faces,
    surface_profile,
    validate,
    verify_covering,
)
from oracles import brute_force_isomorphism

T354 = FaceSequence.from_string("3^5,4")
T3542 = FaceSequence.from_string("3^5,4^2")
T374 = FaceSequence.from_string("3^7,4")


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
            return result
        return run
    return wrap


# ---------------------------------------------------------------------------
# 1. classification of (3^5, 4) on the chi = -1 surface
# ---------------------------------------------------------------------------

@criterion("1 classification chi=-1")
def test_criterion_1_classification():
    t0 = time.perf_counter()
    maps, stats = enumerate_sems(T354, -1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"single-threaded search took {elapsed:.1f}s"
    assert stats.exhausted
    assert len(maps) == 3

    cats = [catalog_map(n) for n in ("K1", "K2", "K3")]
    matched = set()
    for m in maps:
        hits = [c.name for c in cats if are_isomorphic(m, c)]
        assert len(hits) == 1, f"search class matches {hits}"
        matched.add(hits[0])
    assert matched == {"K1", "K2", "K3"}

    _, again = enumerate_sems(T354, -1)
    assert again.nodes == stats.nodes, "node counts differ across runs"
    assert again.solutions == stats.solutions


# ---------------------------------------------------------------------------
# 2. distinguishing invariants of K1, K2, K3
# ---------------------------------------------------------------------------

@criterion("2 K-map invariants")
def test_criterion_2_k_map_invariants():
    k1, k2, k3 = (catalog_map(n) for n in ("K1", "K2", "K3"))
    assert g_t_graph(k1, 6).edge_count == 0
    assert g_t_graph(k1, 2).edge_count == 2
    assert g_t_graph(k2, 2).edge_count == 2
    assert g_t_graph(k2, 6).edge_count == 2
    assert g_t_graph(k3, 2).edge_count == 0

    # unlabeled type: both published 2-edge lists are perfect matchings
    matching2 = g_t_graph(k1, 2).unlabeled_key()
    assert g_t_graph(k2, 2).unlabeled_key() == matching2
    assert g_t_graph(k2, 6).unlabeled_key() == matching2

    assert not are_isomorphic(k1, k2)
    assert not are_isomorphic(k1, k3)
    assert not are_isomorphic(k2, k3)
    for m in (k1, k2, k3):
        assert not is_vertex_transitive(m)


@criterion("2b G6(K3) count as published")
def test_criterion_2b_g6_k3_count_as_published():
    # The published table prints 2 edges, one of them with an out-of-range
    # label; the class invariant computes to 3 (see test_isomorphism for
    # the exact edges).  Asserted as stated, expected to fail.
    k3 = catalog_map("K3")
    count = g_t_graph(k3, 6).edge_count
    assert count == 2, (
        f"|EG(G_6(K3))| = {count}; the published table claims 2 but its "
        "edge list is visibly corrupted ('[8, 12]' is out of range for "
        "0-based labels), and the invariant is forced by the K3 class"
    )


# ---------------------------------------------------------------------------
# 3. double covers and the chi = -2 family
# ---------------------------------------------------------------------------

@criterion("3 double covers chi=-2")
def test_criterion_3_double_covers():
    pairs = [("K1", "T1"), ("K2", "T2"), ("K3", "T3")]
    for base_name, cover_name in pairs:
        base = catalog_map(base_name)
        cat = catalog_map(cover_name)
        cover, witness = double_cover(base)
        assert validate(cover).ok
        p = surface_profile(cover)
        assert p.orientable and p.euler_characteristic == -2
        assert semi_equivelar_type(cover) == T354
        assert verify_covering(cover, base, witness)
        assert are_isomorphic(cover, cat), f"cover({base_name}) vs {cover_name}"

    t1, t2, t3, n = (catalog_map(x) for x in ("T1", "T2", "T3", "N"))
    for a, b in combinations((t1, t2, t3, n), 2):
        assert not are_isomorphic(a, b), (a.name, b.name)
    for m in (t1, t2, t3, n):
        assert not is_vertex_transitive(m), m.name
    assert not surface_profile(n).orientable

    assert g_t_graph(t1, 6).edge_count == 0
    assert g_t_graph(t2, 5).edge_count == 4
    assert g_t_graph(t3, 6).edge_count == 6
    assert g_t_graph(n, 4).edge_count == 8


@criterion("3b G5(T1) count as published")
def test_criterion_3b_g5_t1_count_as_published():
    # The published list prints 6 edges, one out of range ('[2, 24]'); the
    # invariant of the T1 class (the double cover of K1, which the printed
    # T1 is isomorphic to) computes to 8.  Asserted as stated, expected to
    # fail.
    t1 = catalog_map("T1")
    count = g_t_graph(t1, 5).edge_count
    assert count == 6, (
        f"|EG(G_5(T1))| = {count}; the published table claims 6 but its "
        "edge list is visibly corrupted, and the invariant is forced by "
        "the T1 class"
    )


# ---------------------------------------------------------------------------
# 4. stacking gives 12-covered triangulations of chi = -1
# ---------------------------------------------------------------------------

@criterion("4 stacked 12-covered")
def test_criterion_4_stacking():
    for name in ("K1", "K2", "K3"):
        stacked = stack_faces(catalog_map(name))
        assert validate(stacked).ok
        assert all(len(f) == 3 for f in stacked.faces)
        assert stacked.n == 35
        assert surface_profile(stacked).euler_characteristic == -1
        assert is_d_covered(stacked, 12), name


# ---------------------------------------------------------------------------
# 5. cylinder-addition families on chi = -8 and chi = -10
# ---------------------------------------------------------------------------

@criterion("5 cylinder families")
def test_criterion_5_cylinder_families():
    bases = [catalog_map(n) for n in ("K1", "K2", "K3")]
    t0 = time.perf_counter()

    quad_maps, quad_notes, quad_stats = cylinder_search(bases, T3542, -8, jobs=2)
    assert quad_stats.exhausted
    assert len(quad_maps) >= 10, f"only {len(quad_maps)} quad classes"
    forms = set()
    for m in quad_maps:
        assert validate(m).ok
        assert semi_equivelar_type(m) == T3542
        assert surface_profile(m).euler_characteristic == -8
        forms.add(canonical_form(m))
    assert len(forms) == len(quad_maps), "quad classes are not pairwise distinct"
    assert len(quad_maps) == 3002
    digest = hashlib.sha256(b"".join(f + b"\n" for f in sorted(forms))).hexdigest()
    assert digest == "4b82434fb2aa59f394b78d27e3e45040a2e33e193d9f1f603a0a9fab4dfeff45"

    tri_maps, tri_notes, tri_stats = cylinder_search(
        bases, T374, -10, max_candidates=12960, jobs=2)
    assert len(tri_maps) >= 11, f"only {len(tri_maps)} tri classes"
    tri_forms = set()
    for m in tri_maps[:25]:
        assert validate(m).ok
        assert semi_equivelar_type(m) == T374
        assert surface_profile(m).euler_characteristic == -10
    for m in tri_maps:
        tri_forms.add(canonical_form(m))
    assert len(tri_forms) == len(tri_maps), "tri classes are not pairwise distinct"

    # each individual cylinder addition drops chi by exactly 2
    from semap.transforms import _apply_bundle

    def chi_of(faces, n):
        edges = set()
        for f in faces:
            for i in range(len(f)):
                a, b = f[i], f[(i + 1) % len(f)]
                edges.add((min(a, b), max(a, b)))
        return n - len(edges) + len(faces)

    by_name = {m.name: m for m in bases}
    for notes in (quad_notes[:5], tri_notes[:5]):
        for note in notes:
            union, shift = [], 0
            for name in note.bases:
                union += [tuple(v + shift for v in f) for f in by_name[name].faces]
                shift += by_name[name].n
            chi = chi_of(union, shift)
            for k in range(1, len(note.specs) + 1):
                staged = _apply_bundle(union, note.specs[:k])
                assert chi_of(staged, shift) == chi - 2 * k

    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"cylinder searches took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. kernel property suites
# ---------------------------------------------------------------------------

@criterion("6a canonical form invariance")
def test_criterion_6a_canonical_invariance():
    rng = random.Random(47)
    for entry in catalog():
        m = entry.map
        form = canonical_form(m)
        for _ in range(100):
            perm = list(range(m.n))
            rng.shuffle(perm)
            assert canonical_form(m.relabel(perm)) == form, entry.name


@criterion("6b brute-force isomorphism agreement")
def test_criterion_6b_brute_force_agreement(octahedron):
    rng = random.Random(48)
    small = [
        catalog_map("tetrahedron"),
        catalog_map("cube"),
        octahedron,
        stack_faces(catalog_map("tetrahedron")),
    ]
    assert all(m.n <= 8 for m in small)
    pool = list(small)
    for m in small:
        perm = list(range(m.n))
        rng.shuffle(perm)
        pool.append(m.relabel(perm))
    for a, b in combinations(pool, 2):
        assert are_isomorphic(a, b) == (brute_force_isomorphism(a, b) is not None)


@criterion("6c G_t graphs partition all pairs")
def test_criterion_6c_gt_partition():
    for entry in catalog():
        m = entry.map
        total = sum(g_t_graph(m, t).edge_count for t in range(m.n + 1))
        assert total == m.n * (m.n - 1) // 2, entry.name


@criterion("6d chi formula on validated SEMs")
def test_criterion_6d_chi_formula():
    pool = [e.map for e in catalog()]
    maps, _ = enumerate_sems(T354, -1)
    pool += maps
    quad_maps, _, _ = cylinder_search(
        [catalog_map("K1")], T3542, -8, max_candidates=512)
    pool += quad_maps
    for m in pool:
        assert validate(m).ok
        seq = semi_equivelar_type(m)
        assert seq is not None
        if seq.curvature() == 0:
            continue
        chi = surface_profile(m).euler_characteristic
        assert sem_vertex_count(seq, chi) == m.n


@criterion("6e single-face deletions all rejected")
def test_criterion_6e_single_face_deletions():
    for entry in catalog():
        m = entry.map
        for i in range(len(m.faces)):
            assert not validate(m.drop_face(i)).ok, (entry.name, i)
