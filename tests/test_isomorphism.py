import gc
import importlib
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from semap import (
    PolyhedralMap,
    SimpleGraph,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    canonical_map,
    g_t_graph,
    is_vertex_transitive,
    isomorphism,
    link_vertex_set,
    neighbor_set,
    normalize_face,
    stack_faces,
    validate,
)
from semap.core import FlagTemplate, closed_flags
from semap.isomorphism import class_key
from oracles import (
    brute_force_automorphisms,
    brute_force_isomorphism,
    neighbor_oracle,
)


def shuffled(m, rng):
    perm = list(range(m.n))
    rng.shuffle(perm)
    return m.relabel(perm), perm


# ---------------------------------------------------------------------------
# neighbor sets and link sets
# ---------------------------------------------------------------------------

def test_neighbor_set_of_k1_vertex_0(k1):
    # the quadrangle 0-2-3-4 contributes only 2 and 4 as neighbors of 0
    assert neighbor_set(k1, 0) == {1, 2, 4, 5, 6, 7}


def test_neighbor_set_of_tetrahedron(tetrahedron):
    assert neighbor_set(tetrahedron, 0) == {1, 2, 3}


def test_neighbor_set_of_t1_vertex_0(t1):
    assert neighbor_set(t1, 0) == {1, 2, 4, 6, 7, 13}


def test_neighbor_sets_match_oracle(all_catalog):
    for entry in all_catalog:
        for v in range(entry.map.n):
            assert neighbor_set(entry.map, v) == neighbor_oracle(entry.map, v)


def test_link_set_adds_quad_opposites(k1):
    # link cycle of 0 passes through 3, the vertex opposite 0 in the quad
    assert link_vertex_set(k1, 0) == {1, 2, 3, 4, 5, 6, 7}
    assert link_vertex_set(k1, 0) - neighbor_set(k1, 0) == {3}


def test_link_set_equals_neighbors_on_triangulations(tetrahedron, rp2):
    for m in (tetrahedron, rp2):
        for v in range(m.n):
            assert link_vertex_set(m, v) == neighbor_set(m, v)


# ---------------------------------------------------------------------------
# G_t graphs
# ---------------------------------------------------------------------------

def test_g_t_published_values_for_k1(k1):
    assert g_t_graph(k1, 6).edge_count == 0
    g2 = g_t_graph(k1, 2)
    assert g2.sorted_edges() == [(2, 4), (7, 10)]


def test_g_t_published_values_for_k2(k2):
    assert g_t_graph(k2, 2).edge_count == 2
    assert g_t_graph(k2, 6).sorted_edges() == [(1, 6), (5, 7)]


def test_g_t_k3_values(k3):
    assert g_t_graph(k3, 2).edge_count == 0
    # The published table prints two edges ([1,6] plus a garbled out-of-range
    # pair); the class itself has three, an isomorphism invariant any
    # relabeling of K3 must reproduce.
    assert g_t_graph(k3, 6).sorted_edges() == [(0, 8), (1, 6), (2, 7)]


def test_g_t_partitions_all_pairs(all_catalog):
    for entry in all_catalog:
        m = entry.map
        total = sum(g_t_graph(m, t).edge_count for t in range(m.n + 1))
        assert total == m.n * (m.n - 1) // 2, entry.name


def test_g_t_neighbor_variant_also_partitions(k1):
    total = sum(g_t_graph(k1, t, sets="neighbor").edge_count for t in range(k1.n + 1))
    assert total == k1.n * (k1.n - 1) // 2


def test_g_t_equivariance_under_relabeling(k1, k2):
    rng = random.Random(7)
    for m in (k1, k2):
        for t in (2, 5, 6):
            g = g_t_graph(m, t)
            relabeled, perm = shuffled(m, rng)
            g2 = g_t_graph(relabeled, t)
            mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
            assert mapped == set(g2.edges)


def test_g2_of_k1_is_two_disjoint_edges(k1, k2):
    # unlabeled isomorphism type: a perfect matching on 4 of 12 vertices
    assert g_t_graph(k1, 2).unlabeled_key() == g_t_graph(k2, 2).unlabeled_key()


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(0, 5)}))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_canonical_form_invariant_under_relabeling(all_catalog):
    rng = random.Random(101)
    for entry in all_catalog:
        form = canonical_form(entry.map)
        for _ in range(10):
            relabeled, _ = shuffled(entry.map, rng)
            assert canonical_form(relabeled) == form, entry.name


def test_edge_in_four_faces_is_refused_not_a_key_error():
    # two tetrahedra sharing the edge 0-1: every edge count is even, so the
    # old pairing of half-edges went through and the walk hit a KeyError
    m = PolyhedralMap([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                       (0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 4, 5)])
    for fn in (canonical_form, automorphism_group, is_vertex_transitive):
        with pytest.raises(ValueError, match="closed map"):
            fn(m)


def test_canonical_form_refuses_disconnected_maps(tetrahedron):
    both = PolyhedralMap(tetrahedron.faces + tuple(tuple(v + 4 for v in f)
                                                   for f in tetrahedron.faces))
    with pytest.raises(ValueError, match="connected"):
        canonical_form(both)


def every_root_code(m):
    """Least breadth-first flag code over all roots: a complete invariant
    that roots at every flag instead of the filtered few."""
    t = FlagTemplate(m.faces, m.n)
    s0, s1, s2 = t.s0, t.s1, t.s2
    best = None
    for root in range(len(s0)):
        order = {root: 0}
        queue = [root]
        code = []
        for x in queue:
            for y in (s0[x], s1[x], s2[x]):
                if y not in order:
                    order[y] = len(queue)
                    queue.append(y)
                code.append(order[y])
        if best is None or code < best:
            best = code
    return m.n, tuple(best)


def scrambled(m, rng):
    """``m`` relabeled, its faces shuffled, each rotated and maybe reversed."""
    relabeled, _ = shuffled(m, rng)
    faces = []
    for f in relabeled.faces:
        k = rng.randrange(len(f))
        f = f[k:] + f[:k]
        faces.append(f[::-1] if rng.random() < 0.5 else f)
    rng.shuffle(faces)
    return PolyhedralMap(faces, n=m.n)


def test_root_filter_partitions_like_rooting_at_every_flag(k1_quad):
    rng = random.Random(17)
    sample = rng.sample(k1_quad[0], 8)
    family = sample + [scrambled(m, rng) for m in sample for _ in range(2)]

    def partition(key):
        blocks = {}
        for i, m in enumerate(family):
            blocks.setdefault(key(m), set()).add(i)
        return {frozenset(b) for b in blocks.values()}

    by_form = partition(canonical_form)
    assert by_form == partition(every_root_code)
    assert len(by_form) == len(sample)


def reference_canonical(m):
    """(form, canonical faces, labelings) by the algorithm as first written,
    sharing no code with the library: a flag builder over the raw faces, a
    root key per flag, and one breadth-first walk per root that stops at its
    first position worse than the best code so far.  Closed maps only."""
    s0, s1, fv, flen = [], [], [], []
    halves = {}  # (vertex, far end of edge) -> the flags on that half-edge
    for face in m.faces:
        k, b = len(face), len(fv)
        for i, v in enumerate(face):
            x = b + 2 * i
            fv += (v, v)
            flen += (k, k)
            s1 += (x + 1, x)
            s0 += (b + 2 * ((i + 1) % k) + 1, b + 2 * ((i - 1) % k))
            halves.setdefault((v, face[(i + 1) % k]), []).append(x)
            halves.setdefault((v, face[i - 1]), []).append(x + 1)
    s2 = list(range(len(fv)))
    for x, y in halves.values():
        s2[x], s2[y] = y, x
    around = {v: set() for v in range(m.n)}
    sizes = {v: [] for v in range(m.n)}
    for face in m.faces:
        for i, v in enumerate(face):
            around[v].update((face[i - 1], face[(i + 1) % len(face)]))
            sizes[v].append(len(face))
    sig = {v: (tuple(sorted(sizes[v])),
               tuple(sorted(len(around[v] & around[w]) for w in around[v])))
           for v in range(m.n)}
    face_counts, sig_counts = Counter(flen), Counter(sig.values())
    key = [(face_counts[flen[x]], flen[x], sig_counts[sig[fv[x]]], sig[fv[x]])
           for x in range(len(fv))]

    def walk(root, best):
        order, queue, code = {root: 0}, [root], []
        tied = best is not None
        for x in queue:
            for y in (s0[x], s1[x], s2[x]):
                if y not in order:
                    order[y] = len(queue)
                    queue.append(y)
                if tied and order[y] != best[len(code)]:
                    if order[y] > best[len(code)]:
                        return None
                    tied = False
                code.append(order[y])
        return code, queue

    best, queues = None, []
    least = min(key)
    for root in (x for x, k in enumerate(key) if k == least):
        walked = walk(root, best)
        if walked is None:
            continue
        if best is None or walked[0] < best:
            best, queues = walked[0], []
        queues.append(walked[1])
    labelings = []
    for queue in queues:
        first = list(dict.fromkeys(fv[x] for x in queue))
        labelings.append(tuple(first.index(v) for v in range(m.n)))
    faces = []
    for face in m.faces:
        t = tuple(labelings[0][v] for v in face)
        faces.append(min(s[i:] + s[:i] for s in (t, t[::-1]) for i in range(len(t))))
    faces.sort()
    form = f"{m.n}|" + ";".join(",".join(map(str, f)) for f in faces)
    return form.encode(), tuple(faces), tuple(labelings)


def test_canonical_data_equals_the_reference_algorithm(all_catalog, k1_quad):
    iso = importlib.import_module("semap.isomorphism")
    rng = random.Random(23)
    maps = [entry.map for entry in all_catalog]
    maps += [scrambled(m, rng) for m in maps for _ in range(3)]
    maps += k1_quad[0]
    for m in maps:
        data = iso._compute_canonical(m)
        got = (data.form, data.canonical_faces, data.labelings)
        assert got == reference_canonical(m), m.name


def test_canonical_forms_separate_k1_k2_k3(k1, k2, k3):
    forms = {canonical_form(k1), canonical_form(k2), canonical_form(k3)}
    assert len(forms) == 3


def test_canonical_map_is_isomorphic_representative(k1):
    rep = canonical_map(k1)
    assert validate(rep).ok
    assert are_isomorphic(rep, k1)
    assert canonical_form(rep) == canonical_form(k1)


def test_canonical_data_is_freed_with_its_map(k1):
    m, _ = shuffled(k1, random.Random(11))
    ref = weakref.ref(m)
    canonical_form(m)
    automorphism_group(m)
    assert isomorphism(m, m) is not None
    del m
    gc.collect()
    assert ref() is None


def test_canonical_data_is_computed_once_per_map(k1, monkeypatch):
    # the package attribute ``isomorphism`` is the function, not the module
    iso = importlib.import_module("semap.isomorphism")
    calls = []
    compute = iso._compute_canonical

    def counting(m):
        calls.append(m)
        return compute(m)

    monkeypatch.setattr(iso, "_compute_canonical", counting)
    m, _ = shuffled(k1, random.Random(12))
    canonical_form(m)
    canonical_map(m)
    isomorphism(m, m)
    automorphism_group(m)
    is_vertex_transitive(m)
    assert len(calls) == 1 and calls[0] is m


# ---------------------------------------------------------------------------
# class keys
# ---------------------------------------------------------------------------

def key_of(m):
    return class_key(closed_flags(m)[3])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_class_key_is_a_relabeling_invariant(all_catalog, k1_quad, data):
    m = data.draw(st.sampled_from([entry.map for entry in all_catalog] + k1_quad[0]))
    perm = data.draw(st.permutations(range(m.n)))
    assert key_of(m.relabel(perm)) == key_of(m)


def test_class_key_does_not_depend_on_the_hash_seed(k1, k1_quad):
    # a pool started by spawn computes keys under its own hash seed; str or
    # bytes in the hashed data would make its keys differ from the parent's
    maps = [k1, k1_quad[0][0]]
    code = ("import json, sys\n"
            "from semap import PolyhedralMap\n"
            "from semap.core import closed_flags\n"
            "from semap.isomorphism import class_key\n"
            "maps = [PolyhedralMap(faces, n=n) for n, faces in json.loads(sys.argv[1])]\n"
            "print(json.dumps([class_key(closed_flags(m)[3]) for m in maps]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    arg = json.dumps([[m.n, m.faces] for m in maps])
    keys = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", code, arg], env=env,
                              capture_output=True, text=True, check=True)
        keys.append(json.loads(done.stdout))
    assert keys[0] == keys[1] == [key_of(m) for m in maps]


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def test_k_maps_pairwise_non_isomorphic(k1, k2, k3):
    assert not are_isomorphic(k1, k2)
    assert not are_isomorphic(k1, k3)
    assert not are_isomorphic(k2, k3)


def test_t_maps_pairwise_non_isomorphic(t1, t2, t3, n_map):
    maps = [t1, t2, t3, n_map]
    for a, b in combinations(maps, 2):
        assert not are_isomorphic(a, b), (a.name, b.name)


def test_relabeled_map_is_isomorphic_with_verified_witness(k1):
    rng = random.Random(5)
    relabeled, perm = shuffled(k1, rng)
    witness = isomorphism(k1, relabeled)
    assert witness is not None
    for face in k1.faces:
        image = normalize_face(tuple(witness[v] for v in face))
        assert image in set(relabeled.face_keys)


def test_swap_relabeling_example(k1):
    perm = list(range(12))
    perm[0], perm[11] = perm[11], perm[0]
    assert are_isomorphic(k1, k1.relabel(perm))


def test_isomorphism_agrees_with_brute_force_on_small_maps(
        tetrahedron, cube, octahedron):
    rng = random.Random(9)
    stacked_tetra = stack_faces(tetrahedron)  # 8 vertices
    pool = [tetrahedron, cube, octahedron, stacked_tetra]
    for m in list(pool):
        relabeled, _ = shuffled(m, rng)
        pool.append(relabeled)
    for a, b in combinations(pool, 2):
        got = are_isomorphic(a, b)
        want = brute_force_isomorphism(a, b) is not None
        assert got == want, (a.name, b.name)


def test_isomorphism_is_an_equivalence_relation(k1, k2, t1, octahedron):
    rng = random.Random(13)
    pool = [k1, k2, t1, octahedron]
    pool += [shuffled(m, rng)[0] for m in pool]
    for a in pool:
        assert are_isomorphic(a, a)
    for a, b in combinations(pool, 2):
        assert are_isomorphic(a, b) == are_isomorphic(b, a)
    for a in pool:
        for b in pool:
            for c in pool:
                if are_isomorphic(a, b) and are_isomorphic(b, c):
                    assert are_isomorphic(a, c)


# ---------------------------------------------------------------------------
# automorphisms and transitivity
# ---------------------------------------------------------------------------

def test_tetrahedron_automorphisms(tetrahedron):
    group = automorphism_group(tetrahedron)
    assert group.order == 24
    assert len(group.orbits) == 1
    assert is_vertex_transitive(tetrahedron)


def test_automorphisms_match_brute_force(tetrahedron, cube, octahedron, rp2):
    for m in (tetrahedron, cube, octahedron, rp2):
        group = automorphism_group(m)
        brute = brute_force_automorphisms(m)
        assert group.order == len(brute)
        assert set(group.elements) == set(brute)


def test_k_maps_not_vertex_transitive(k1, k2, k3):
    for m in (k1, k2, k3):
        group = automorphism_group(m)
        assert len(group.orbits) > 1
        assert not is_vertex_transitive(m)


def test_n_not_vertex_transitive(n_map):
    assert not is_vertex_transitive(n_map)


def test_generators_preserve_faces(all_catalog):
    for entry in all_catalog:
        m = entry.map
        group = automorphism_group(m)
        keys = set(m.face_keys)
        for gen in group.generators:
            mapped = {normalize_face(tuple(gen[v] for v in f)) for f in m.faces}
            assert mapped == keys, entry.name


def test_orbits_partition_and_divide_order(all_catalog):
    for entry in all_catalog:
        group = automorphism_group(entry.map)
        seen = sorted(v for orbit in group.orbits for v in orbit)
        assert seen == list(range(entry.map.n))
        for orbit in group.orbits:
            assert group.order % len(orbit) == 0


def test_generators_generate_the_whole_group(cube):
    from semap.isomorphism import _closure

    group = automorphism_group(cube)
    assert len(_closure(list(group.generators), cube.n)) == group.order
