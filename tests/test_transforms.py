import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest
from oracles import is_covering, refinement_tells_apart

from semap import (
    CoveringWitness,
    CylinderSpec,
    FaceSequence,
    PolyhedralMap,
    TransformError,
    add_cylinder,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    cylinder_search,
    double_cover,
    face_sequence,
    face_sequence_classes,
    is_d_covered,
    isomorphism,
    semi_equivelar_type,
    stack_faces,
    surface_profile,
    validate,
    verify_covering,
)

T45 = FaceSequence.from_string("3^5,4^2")
T37 = FaceSequence.from_string("3^7,4")


# ---------------------------------------------------------------------------
# double cover
# ---------------------------------------------------------------------------

def test_double_cover_of_k1_is_t1(k1, t1):
    cover, witness = double_cover(k1)
    assert verify_covering(cover, k1, witness)
    assert are_isomorphic(cover, t1)


def test_double_cover_properties(k1, k2, k3):
    for base in (k1, k2, k3):
        cover, witness = double_cover(base)
        p = surface_profile(cover)
        q = surface_profile(base)
        assert p.orientable
        assert p.euler_characteristic == 2 * q.euler_characteristic
        assert (p.vertex_count, p.edge_count, p.face_count) == (
            2 * q.vertex_count, 2 * q.edge_count, 2 * q.face_count)
        assert validate(cover).ok
        assert verify_covering(cover, base, witness)
        for x in range(cover.n):
            assert face_sequence(cover, x) == face_sequence(base, witness.vertex_map[x])


def test_double_cover_of_k3_matches_catalog_t3(k3, t3):
    cover, _ = double_cover(k3)
    assert are_isomorphic(cover, t3)


def test_double_cover_of_projective_plane_is_a_sphere_triangulation(rp2):
    cover, witness = double_cover(rp2)
    assert cover.n == 12
    assert validate(cover).ok
    assert all(len(f) == 3 for f in cover.faces)
    p = surface_profile(cover)
    assert p.euler_characteristic == 2
    assert p.orientable
    assert verify_covering(cover, rp2, witness)


def test_double_cover_refuses_orientable_input(tetrahedron, t1):
    for m in (tetrahedron, t1):
        with pytest.raises(TransformError, match="orientable"):
            double_cover(m)


def test_verify_covering_identity(tetrahedron):
    witness = CoveringWitness(vertex_map={v: v for v in range(4)}, fold=1)
    assert verify_covering(tetrahedron, tetrahedron, witness)


def test_verify_covering_refuses_two_faces_folded_onto_one_at_a_vertex(tetrahedron):
    # two tetrahedron sheets, with the second sheet's (5, 6, 7) replaced by the
    # mixed-sheet (5, 6, 3): every base vertex still has two preimages and every cover
    # face still goes onto a base face, but at 3 both (1, 2, 3) and (5, 6, 3) go onto
    # the base's (1, 2, 3); only the check at each vertex sees it
    sheets = [tuple(v + 4 * s for v in f) for s in (0, 1) for f in tetrahedron.faces]
    faces = [(5, 6, 3) if sorted(f) == [5, 6, 7] else f for f in sheets]
    assert faces != sheets
    cover = PolyhedralMap(faces, n=8)
    witness = CoveringWitness(vertex_map={v: v % 4 for v in range(8)}, fold=2)
    assert verify_covering(PolyhedralMap(sheets, n=8), tetrahedron, witness)
    assert not verify_covering(cover, tetrahedron, witness)
    assert not is_covering(cover.faces, tetrahedron.faces, witness.vertex_map, 2)


def test_verify_covering_rejects_wrong_fold_or_mangled_map(k1):
    cover, witness = double_cover(k1)
    assert not verify_covering(cover, k1, CoveringWitness(witness.vertex_map, fold=3))
    bad = dict(witness.vertex_map)
    # redirect two lifts of one vertex onto vertices of different degree
    bad[0], bad[1] = bad[1], bad[0]
    mangled = CoveringWitness(bad, fold=2)
    assert verify_covering(cover, k1, mangled) == (bad == witness.vertex_map)


def test_verify_covering_via_isomorphism_to_catalog(t2, k2):
    # compose catalog T2 -> computed cover -> K2 into a checked covering map
    cover, witness = double_cover(k2)
    iso = isomorphism(t2, cover)
    assert iso is not None
    composed = CoveringWitness(
        vertex_map={v: witness.vertex_map[iso[v]] for v in range(t2.n)}, fold=2)
    assert verify_covering(t2, k2, composed)


def corruptions(witness, base_n, rng):
    """Seeded corruptions of a witness: two images swapped (five times), one
    vertex redirected, and the fold off by one either way."""
    vm, out = witness.vertex_map, []
    for _ in range(5):
        x, y = rng.sample(sorted(vm), 2)
        out.append(CoveringWitness({**vm, x: vm[y], y: vm[x]}, witness.fold))
    x = rng.choice(sorted(vm))
    out.append(CoveringWitness({**vm, x: rng.choice([b for b in range(base_n) if b != vm[x]])},
                               witness.fold))
    out += [CoveringWitness(vm, witness.fold + d) for d in (-1, 1)]
    return out


def test_verify_covering_agrees_with_the_oracle(request):
    # the double covers of the non-orientable catalog maps, and the catalog tori
    # T1 -> K1 and T2 -> K2 through them; each with seeded corruptions
    cases = []
    for name in ("k1", "k2", "k3", "rp2", "n_map"):
        base = request.getfixturevalue(name)
        cover, witness = double_cover(base)
        cases.append((cover, base, witness))
    for torus, (cover, base, witness) in zip(("t1", "t2"), cases):
        torus = request.getfixturevalue(torus)
        iso = isomorphism(torus, cover)
        composed = {v: witness.vertex_map[iso[v]] for v in range(torus.n)}
        cases.append((torus, base, CoveringWitness(composed, witness.fold)))
    rng = random.Random(29)
    for cover, base, witness in cases:
        # a witness moved by a symmetry of the cover is a covering too
        g = rng.choice(automorphism_group(cover).elements)
        moved = {x: witness.vertex_map[g[x]] for x in range(cover.n)}
        for vm in (witness.vertex_map, moved):
            assert verify_covering(cover, base, CoveringWitness(vm, witness.fold))
            assert is_covering(cover.faces, base.faces, vm, witness.fold)
        refused = 0
        for bad in corruptions(witness, base.n, rng):
            got = verify_covering(cover, base, bad)
            assert got == is_covering(cover.faces, base.faces, bad.vertex_map, bad.fold), bad
            refused += not got
        assert refused > 0, cover.name


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

def test_stack_tetrahedron(tetrahedron):
    stacked = stack_faces(tetrahedron)
    assert stacked.n == 8
    assert validate(stacked).ok
    p = surface_profile(stacked)
    assert p.euler_characteristic == 2
    assert all(len(f) == 3 for f in stacked.faces)


def test_stack_counts_and_chi(k1, cube):
    for m in (k1, cube):
        stacked = stack_faces(m)
        p, q = surface_profile(stacked), surface_profile(m)
        assert p.vertex_count == q.vertex_count + q.face_count
        assert p.edge_count == 3 * q.edge_count
        assert p.face_count == 2 * q.edge_count
        assert p.euler_characteristic == q.euler_characteristic
        assert validate(stacked).ok


def test_stacked_k1_original_vertices_have_degree_12(k1):
    stacked = stack_faces(k1)
    for v in range(k1.n):
        assert stacked.degree(v) == 12
    assert is_d_covered(stacked, 12)


# ---------------------------------------------------------------------------
# single cylinder additions
# ---------------------------------------------------------------------------

def quads_of(m):
    return sorted(f for f in m.face_keys if len(f) == 4)


def test_cross_map_quad_cylinder_drops_chi_by_two(k1, k2):
    results = []
    for reflect in (False, True):
        for offset in range(4):
            spec = CylinderSpec(kind="quad", face_a=(0, 2, 3, 4),
                                face_b=(0, 2, 3, 4), offset=offset, reflect=reflect)
            m = add_cylinder(k1, spec, k2)
            assert validate(m).ok
            assert m.n == 24
            assert surface_profile(m).euler_characteristic == -4
            results.append(m)
    assert results


def test_partial_cylinder_breaks_semi_equivelarity(k1, k2):
    spec = CylinderSpec(kind="quad", face_a=(0, 2, 3, 4), face_b=(0, 2, 3, 4))
    m = add_cylinder(k1, spec, k2)
    assert semi_equivelar_type(m) is None
    classes = face_sequence_classes(m)
    assert len(classes) == 2
    # the consumed quads' vertices gained a quadrangle, everyone else kept theirs
    by_type = {str(seq): sorted(vs) for seq, vs in classes.items()}
    assert sorted(by_type["(3^5, 4^2)"]) == [0, 2, 3, 4, 12, 14, 15, 16]
    assert len(by_type["(3^5, 4)"]) == 16


def test_internal_k1_quad_cylinders_all_refuse(k1):
    attempts = 0
    for qa, qb in combinations(quads_of(k1), 2):
        for reflect in (False, True):
            for offset in range(4):
                attempts += 1
                spec = CylinderSpec(kind="quad", face_a=qa, face_b=qb,
                                    offset=offset, reflect=reflect)
                with pytest.raises(TransformError):
                    add_cylinder(k1, spec)
    assert attempts == 24


def test_add_cylinder_rejects_shared_vertices_and_self_gluing(k1):
    sharing = CylinderSpec(kind="tri", face_a=(0, 1, 2), face_b=(0, 4, 5))
    with pytest.raises(TransformError, match="share"):
        add_cylinder(k1, sharing)
    to_itself = CylinderSpec(kind="quad", face_a=(0, 2, 3, 4), face_b=(0, 2, 3, 4))
    with pytest.raises(TransformError, match="itself"):
        add_cylinder(k1, to_itself)


def test_add_cylinder_rejects_missing_face(k1):
    spec = CylinderSpec(kind="quad", face_a=(0, 1, 2, 3), face_b=(5, 6, 9, 8))
    with pytest.raises(TransformError, match="not present"):
        add_cylinder(k1, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        CylinderSpec(kind="quad", face_a=(0, 1, 2), face_b=(3, 4, 5))
    with pytest.raises(ValueError):
        CylinderSpec(kind="pent", face_a=(0, 1, 2, 3, 4), face_b=(5, 6, 7, 8, 9))
    with pytest.raises(ValueError):
        CylinderSpec(kind="tri", face_a=(0, 1, 2), face_b=(3, 4, 5), offset=3)


def test_tri_band_cylinder_drops_chi_by_two(k1):
    # two vertex-disjoint triangles across two copies of K1
    found = False
    for reflect in (False, True):
        for offset in range(3):
            spec = CylinderSpec(kind="tri", face_a=(0, 1, 2), face_b=(0, 1, 2),
                                offset=offset, reflect=reflect)
            try:
                m = add_cylinder(k1, spec, k1)
            except TransformError:
                continue
            found = True
            assert validate(m).ok
            assert surface_profile(m).euler_characteristic == -4
            # band vertices gained exactly two triangles
            for v in (0, 1, 2, 12, 13, 14):
                assert face_sequence(m, v) == T37
    assert found


def test_failed_gluing_leaves_inputs_untouched(k1):
    before = k1.faces
    spec = CylinderSpec(kind="quad", face_a=(0, 2, 3, 4), face_b=(5, 6, 9, 8))
    with pytest.raises(TransformError):
        add_cylinder(k1, spec)
    assert k1.faces == before


# ---------------------------------------------------------------------------
# cylinder search
# ---------------------------------------------------------------------------

def test_search_single_base_chi_minus_4_is_empty(k1):
    maps, notes, stats = cylinder_search([k1], T45, -4)
    assert maps == []
    assert stats.exhausted
    assert stats.candidates == 0


def test_search_impossible_type_is_empty(k1):
    maps, _, stats = cylinder_search([k1], FaceSequence.from_string("3^9"), -8)
    assert maps == []


def test_quad_search_sample_properties(k1, k2):
    maps, notes, stats = cylinder_search([k1, k2], T45, -8, max_candidates=1536)
    assert not stats.exhausted
    assert stats.classes == len(maps) >= 1
    for m, note in zip(maps, notes):
        assert validate(m).ok
        assert semi_equivelar_type(m) == T45
        assert surface_profile(m).euler_characteristic == -8
        assert len(note.specs) == 3
        # chi bookkeeping: two chi=-1 bases and -2 per cylinder
        assert -1 - 1 - 2 * len(note.specs) == -8


def test_search_results_are_pairwise_non_isomorphic(k1):
    maps, _, stats = cylinder_search([k1], T45, -8, max_candidates=1024)
    for a, b in combinations(maps, 2):
        assert not are_isomorphic(a, b)


def test_search_is_deterministic_and_job_independent(k1, k3):
    # the budget admits 2 units, so jobs=2 runs them on two workers
    one = cylinder_search([k1, k3], T45, -8, max_candidates=1024, jobs=1)
    two = cylinder_search([k1, k3], T45, -8, max_candidates=1024, jobs=2)
    assert one[2].bundles == two[2].bundles == 2
    assert [m.faces for m in one[0]] == [m.faces for m in two[0]]
    assert one[1] == two[1]
    assert one[2].candidates == two[2].candidates
    assert one[2].built == two[2].built
    assert one[2].valid == two[2].valid
    assert one[2].classes == two[2].classes


def test_negative_candidate_budget_is_refused(k1):
    with pytest.raises(ValueError, match="max_candidates"):
        cylinder_search([k1], T45, -8, max_candidates=-1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_is_refused(k1, jobs):
    with pytest.raises(ValueError, match="jobs"):
        cylinder_search([k1], T45, -8, max_candidates=1024, jobs=jobs)


def test_no_flags_are_built_per_gluing(k1, monkeypatch):
    import sys

    core, transforms = sys.modules["semap.core"], sys.modules["semap.transforms"]
    iso = sys.modules["semap.isomorphism"]
    passes, maps, forms, keys, per_slice = [0], [0], [], [], []
    template_init, init = core.FlagTemplate.__init__, PolyhedralMap.__init__
    run_unit, compute, key = transforms._run_unit, iso._compute_canonical, transforms.class_key

    def counting_template(*args, **kwargs):
        passes[0] += 1
        template_init(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        maps[0] += 1
        init(self, *args, **kwargs)

    def counting_compute(m):
        forms.append(m)
        return compute(m)

    def recording_key(neighbours):
        keys.append(key(neighbours))
        return keys[-1]

    def counting_unit(*args, **kwargs):
        before = passes[0], maps[0], len(forms), len(keys)
        out = run_unit(*args, **kwargs)
        per_slice.append((passes[0] - before[0], maps[0] - before[1], len(forms) - before[2],
                          len(keys) - before[3], len(out)))
        return out

    monkeypatch.setattr(core.FlagTemplate, "__init__", counting_template)
    monkeypatch.setattr(PolyhedralMap, "__init__", counting_init)
    monkeypatch.setattr(iso, "_compute_canonical", counting_compute)
    monkeypatch.setattr(transforms, "class_key", recording_key)
    monkeypatch.setattr(transforms, "_run_unit", counting_unit)
    # quad: no flags, map, key or form per slice or per gluing;
    # a fresh base, whose form is computed once, for the merge and its group
    base = k1.relabel(list(range(k1.n)))
    _, _, stats = cylinder_search([base], T45, -8)
    assert stats.built == stats.classes == sum(built for *_, built in per_slice) == 482
    assert len(per_slice) < stats.built
    assert {(p, m, f, k) for p, m, f, k, _ in per_slice} == {(0, 0, 0, 0)}
    assert keys == []
    assert len(forms) == 1 and forms[0] is base
    # triangle: no flags, map or form per slice, one key per gluing, and forms only
    # where a key is shared: every gluing with that key, once each
    per_slice.clear()
    forms.clear()
    base = k1.relabel(list(range(k1.n)))
    _, _, stats = cylinder_search([base], T37, -10, max_candidates=2592)
    assert stats.built == sum(built for *_, built in per_slice) == len(keys) == 1472
    assert len(per_slice) < stats.built
    assert {(p, m, f) for p, m, f, _, _ in per_slice} == {(0, 0, 0)}
    assert all(k == built for *_, k, built in per_slice)
    counts = Counter(keys)
    shared = {k for k, c in counts.items() if c > 1}
    assert forms[0] is base
    assert len(forms) - 1 == sum(counts[k] for k in shared) < 50
    assert all(key([(sum(1 << w for w in m.neighbors[v]), tuple(sorted(m.neighbors[v])))
                    for v in range(m.n)]) in shared for m in forms[1:])
    # and one flag pass per call on the public path (a fresh map: nothing memoised)
    for fn in (canonical_form, surface_profile, validate):
        fresh = k1.relabel(list(range(k1.n)))
        before = passes[0]
        fn(fresh)
        assert passes[0] - before == 1, fn.__name__
    # a double cover validates the base, builds its flags once, and validates the cover
    before = passes[0]
    double_cover(k1.relabel(list(range(k1.n))))
    assert passes[0] - before == 3


@pytest.fixture(scope="module")
def k1_tri(k1):
    """Results and provenance of the (3^7,4) chi=-10 search on K1 at 2592
    candidates: 1472 classes, no two sharing a class key."""
    maps, notes, stats = cylinder_search([k1], T37, -10, max_candidates=2592)
    assert stats.classes == len(maps) == 1472
    return maps, notes


def test_key_collisions_fall_back_on_canonical_forms(k1, k1_tri, monkeypatch):
    # one key for every gluing: each is told apart by its canonical form alone, which is
    # computed once for every gluing (the triangle kind is the one whose gluings are keyed)
    import sys

    iso = sys.modules["semap.isomorphism"]
    forms, compute = [], iso._compute_canonical

    def counting_compute(m):
        forms.append(m)
        return compute(m)

    canonical_form(k1)
    monkeypatch.setattr(sys.modules["semap.transforms"], "class_key", lambda neighbours: 0)
    monkeypatch.setattr(iso, "_compute_canonical", counting_compute)
    maps, notes, stats = cylinder_search([k1], T37, -10, max_candidates=2592)
    assert [(m.name, m.faces) for m in maps] == [(m.name, m.faces) for m in k1_tri[0]]
    assert notes == k1_tri[1]
    assert len(forms) == len({id(m) for m in forms}) == stats.built


@pytest.mark.parametrize("names, budget, classes, shared",
                         [(("k1", "k2", "k3"), 2592, 2072, 0), (("k1",), 10368, 4160, 0),
                          (("k3",), None, 28288, 36)], ids=["k123-2592", "k1-10368", "k3"])
def test_keys_repeat_only_where_colour_refinement_cannot_split_the_graphs(
        request, monkeypatch, names, budget, classes, shared):
    # a key is seen twice only on vertex graphs that exact colour refinement cannot tell
    # apart, and canonical forms are computed only for the (fresh) bases, for their merge
    # and symmetry groups, and for the gluings under a repeated key.  A weaker key costs
    # forms and changes no result: a sum of hash((c,)) over the meet counts repeated keys
    # on 16 gluings of K1 here
    import sys

    iso, transforms = sys.modules["semap.isomorphism"], sys.modules["semap.transforms"]
    forms, seen, compute, key = [], {}, iso._compute_canonical, transforms.class_key
    bases = [b.relabel(list(range(b.n))) for b in map(request.getfixturevalue, names)]

    def counting_compute(m):
        forms.append(m)
        return compute(m)

    def recording_key(neighbours):
        k = key(neighbours)
        seen.setdefault(k, []).append([ws for _, ws in neighbours])
        return k

    monkeypatch.setattr(iso, "_compute_canonical", counting_compute)
    monkeypatch.setattr(transforms, "class_key", recording_key)
    _, _, stats = cylinder_search(bases, T37, -10, max_candidates=budget)
    assert stats.exhausted == (budget is None) and stats.built == stats.classes == classes
    assert sum(map(len, seen.values())) == stats.built
    repeated = [graphs for graphs in seen.values() if len(graphs) > 1]
    assert sum(map(len, repeated)) == shared
    assert len(forms) == len(bases) + shared
    assert all(m is b for m, b in zip(forms, bases))
    for graphs in repeated:
        assert not any(refinement_tells_apart(a, b) for a, b in combinations(graphs, 2))


def test_isomorphic_bases_are_merged(k1, k1_quad):
    # a relabelled K1 under another name would repeat every class of [K1]; the first
    # base of each canonical form is kept, so the output is that of [K1] itself
    twin = k1.relabel([(7 * v + 5) % k1.n for v in range(k1.n)], name="K1'")
    assert twin.faces != k1.faces
    maps, notes, stats = cylinder_search([k1, twin], T45, -8)
    assert stats.built == stats.classes == len(maps) == 482
    assert [(m.name, m.faces) for m in maps] == [(m.name, m.faces) for m in k1_quad[0]]
    assert notes == k1_quad[1]
    maps, _, stats = cylinder_search([twin, k1], T45, -8)
    assert stats.built == len(maps) == 482
    assert {m.name.split("#")[0] for m in maps} == {"K1'+K1'"}


@pytest.mark.parametrize("names, classes", [(("k1",), 482), (("t1", "t2", "t3", "n_map"), 844)],
                         ids=["k1", "t1+t2+t3+n"])
def test_quad_results_each_start_a_class_in_a_class_sink(request, names, classes):
    # the quad search keeps no class store; a test-local sink, a set of canonical
    # forms (which that path never computes), finds every result a new class
    bases = [request.getfixturevalue(name) for name in names]
    maps, _, stats = cylinder_search(bases, T45, -8)
    assert stats.exhausted and stats.built == stats.classes == len(maps) == classes
    assert len({canonical_form(m) for m in maps}) == len(maps)


def test_slices_concatenate_to_the_whole_unit(k1):
    # ``product`` varies the first pair slowest, so the slices, in order, are the unit
    from semap.transforms import _combo_units, _run_unit

    multiset, pairing = next(_combo_units([k1], T45, -8, "quad"))
    moves = multiset.admit(pairing, "quad")
    feasible = multiset.screen(pairing, "quad")
    whole = _run_unit(None, moves, feasible)
    parts = [_run_unit(None, moves, [[g]] + feasible[1:]) for g in feasible[0]]
    assert len(parts) > 1 and whole
    assert [f for p in parts for f in p] == whole


@pytest.mark.parametrize("target, chi, walls", [(T45, -8, 4), (T37, -10, 6)], ids=["quad", "tri"])
def test_results_of_one_slice_share_their_face_tuples(k1, target, chi, walls):
    # a unit's kept faces and each gluing's walls are built once per unit, and a
    # result holds them as they are: two results of one slice (same pairing, same
    # first gluing) hold the very same kept and first-pair wall tuples
    maps, notes, _ = cylinder_search([k1], target, chi, max_candidates=2592)
    i = next(i for i, (p, q) in enumerate(zip(notes, notes[1:])) if p.specs[0] == q.specs[0]
             and [(s.face_a, s.face_b) for s in p.specs] == [(s.face_a, s.face_b) for s in q.specs])
    one, two = maps[i].faces, maps[i + 1].faces
    shared = len(one) - walls * (len(notes[i].specs) - 1)
    assert one[:shared] == two[:shared] and one != two
    assert all(f is g for f, g in zip(one[:shared], two[:shared]))


def test_search_pool_has_no_more_workers_than_units(k1, monkeypatch):
    import concurrent.futures as cf

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", SerialPool)
    _, _, stats = cylinder_search([k1], T45, -8, max_candidates=1024, jobs=64)
    assert (stats.bundles, stats.covered_units) == (2, 0)
    assert started == [2]


@pytest.mark.parametrize("names, combo, kind, target, chi", [
    pytest.param(("k1",), (0, 0), "quad", T45, -8, id="quad-target0--8"),
    pytest.param(("k1",), (0, 0), "tri", T37, -10, id="tri-target1--10"),
    pytest.param(("k1", "k3"), (0, 1), "quad", T45, -8, id="k1+k3-quad"),
    pytest.param(("k1", "k3"), (0, 1), "tri", T37, -10, id="k1+k3-tri"),
])
def test_screen_accepts_exactly_the_valid_gluings(request, names, combo, kind, target, chi):
    # the first unit of the base multiset ``combo``; validate shares no code with the screen
    from semap.transforms import _apply_bundle, _combo_units, _gluings

    bases = [request.getfixturevalue(name) for name in names]
    multiset, pairing = next(u for u in _combo_units(bases, target, chi, kind)
                             if u[0].combo == combo)
    faces, n = multiset.faces, multiset.n
    feasible = multiset.screen(pairing, kind)
    gluings = _gluings(kind)
    accepted = 0
    for choice in product(gluings, repeat=len(pairing)):
        specs = [CylinderSpec(kind=kind, face_a=a, face_b=b, offset=o, reflect=r)
                 for (a, b), (o, r) in zip(pairing, choice)]
        screened = all(gluings.index(g) in ok for g, ok in zip(choice, feasible))
        valid = validate(PolyhedralMap(_apply_bundle(faces, specs), n=n)).ok
        assert screened == valid, specs
        accepted += screened
    assert accepted > 0


@pytest.mark.parametrize("names, combo", [(("k1",), (0, 0)), (("k1", "k3"), (0, 1))],
                         ids=["tri-target1--10", "k1+k3-tri"])
def test_keys_read_the_vertex_graph_of_the_built_map(request, monkeypatch, names, combo):
    # every screened gluing of the first unit (no moves, so none is skipped): the
    # neighbour sets its key reads, each pair's glued sets for its gluing (the union's
    # plus the walls' edges, made once per unit), are those of the map that gluing
    # builds, read off that map's own faces
    import sys

    from semap.transforms import _apply_bundle, _combo_units, _glued, _gluings, _run_unit

    keyed = []
    monkeypatch.setattr(sys.modules["semap.transforms"], "class_key", keyed.append)
    bases = [request.getfixturevalue(name) for name in names]
    multiset, pairing = next(u for u in _combo_units(bases, T37, -10, "tri")
                             if u[0].combo == combo)
    feasible = multiset.screen(pairing, "tri")
    sets = [{g: _glued(multiset.union.neighbors, walls) for g, walls in pair.items()}
            for pair in feasible]
    found = _run_unit(sets, [], feasible)
    choices = list(product(*feasible))
    assert [choice for _, choice in found] == choices and len(keyed) == len(choices) > 0
    gluings = _gluings("tri")
    for neighbours, choice in zip(keyed, choices):
        specs = [CylinderSpec("tri", a, b, *gluings[g]) for (a, b), g in zip(pairing, choice)]
        built = PolyhedralMap(_apply_bundle(multiset.faces, specs), n=multiset.n)
        expected = [built.neighbors[v] for v in range(built.n)]
        assert [ws for _, ws in neighbours] == [tuple(sorted(nv)) for nv in expected], specs
        assert [mask for mask, _ in neighbours] == [sum(1 << w for w in nv) for nv in expected]


def _unreduced_forms(bases, target, chi, kind, max_candidates):
    """Canonical forms of every valid gluing of every admitted unit, no
    symmetry used, and the number of gluings built."""
    from semap.transforms import _apply_bundle, _combo_units, _gluings

    forms, built, spent = set(), 0, 0
    for multiset, pairing in _combo_units(bases, target, chi, kind):
        faces, n = multiset.faces, multiset.n
        spent += len(_gluings(kind)) ** len(pairing)
        if spent > max_candidates:
            break
        for choice in product(_gluings(kind), repeat=len(pairing)):
            specs = [CylinderSpec(kind=kind, face_a=a, face_b=b, offset=o, reflect=r)
                     for (a, b), (o, r) in zip(pairing, choice)]
            cand = PolyhedralMap(_apply_bundle(faces, specs), n=n)
            built += 1
            if validate(cand).ok and semi_equivelar_type(cand) == target:
                forms.add(canonical_form(cand))
    return forms, built


@pytest.mark.parametrize("names, budget, covered", [(("k1",), 1536, 1), (("k1", "k3"), 1024, 0)],
                         ids=["k1", "k1+k3"])
def test_orbit_reduced_search_matches_unreduced(request, names, budget, covered):
    bases = [request.getfixturevalue(name) for name in names]
    maps, _, stats = cylinder_search(bases, T45, -8, max_candidates=budget)
    forms, built = _unreduced_forms(bases, T45, -8, "quad", budget)
    assert stats.covered_units == covered
    assert {canonical_form(m) for m in maps} == forms
    assert stats.built < built


def test_search_refuses_an_invalid_base(k1):
    from semap.transforms import _combo_units

    # K1 + K1 as one base is disconnected, so it is not a map
    both = PolyhedralMap(k1.faces + tuple(tuple(v + 12 for v in f) for f in k1.faces), n=24)
    with pytest.raises(TransformError, match="base #0 is not a valid map: \\[connectivity\\]"):
        cylinder_search([both], T45, -8, max_candidates=1024)
    # [K1] reaches the same faces and every pairing that joins the two copies
    via_k1 = [u for u in _combo_units([k1], T45, -8, "quad") if u[0].combo == (0, 0)]
    via_both = list(_combo_units([both], T45, -8, "quad"))
    assert {multiset.faces for multiset, _ in via_k1 + via_both} == {both.faces}
    joined = {p for _, p in via_both if any((a[0] < 12) != (b[0] < 12) for a, b in p)}
    assert {p for _, p in via_k1} == joined


@pytest.mark.parametrize("names, kind, target, chi, units", [
    pytest.param(("k1",), "quad", T45, -8, 15, id="k1-quad"),
    pytest.param(("k1", "k2", "k3"), "quad", T45, -8, 90, id="k1+k2+k3-quad"),
    pytest.param(("k1", "k2", "k3"), "tri", T37, -10, 4224, id="k1+k2+k3-tri"),
])
def test_the_sites_of_every_pairing_cover_each_vertex_once(request, names, kind, target, chi,
                                                          units):
    # the premise of the screen's proof, so pairings need no disjointness filter: the
    # sites are pairwise vertex-disjoint and together hold every vertex of the union
    from semap.transforms import _combo_units

    bases = [request.getfixturevalue(name) for name in names]
    seen = 0
    for multiset, pairing in _combo_units(bases, target, chi, kind):
        sites = [site for pair in pairing for site in pair]
        assert sorted(v for site in sites for v in site) == list(range(multiset.n)), pairing
        seen += 1
    assert seen == units


def test_units_of_one_base_multiset_share_one_multiset(k1, k3):
    from semap.transforms import _combo_units

    units = list(_combo_units([k1, k3], T45, -8, "quad"))
    assert len({id(ms) for ms, _ in units}) == len({ms.combo for ms, _ in units}) > 1


@pytest.mark.parametrize("names, combo, kind, target, chi", [
    pytest.param(("k1",), (0, 0), "quad", T45, -8, id="k1-quad"),
    pytest.param(("k1", "k3"), (0, 1), "tri", T37, -10, id="k1+k3-tri"),
])
def test_admission_is_pure(request, names, combo, kind, target, chi):
    # admitting a unit reads nothing from earlier units: asked twice, or with the
    # pairings in reverse on a fresh multiset, each pairing gets the same answer
    from semap.transforms import _combo_units, _Multiset

    bases = [request.getfixturevalue(name) for name in names]
    units = [u for u in _combo_units(bases, target, chi, kind) if u[0].combo == combo]
    multiset, pairings = units[0][0], [p for _, p in units]
    forward = []
    for p in pairings:
        moves = multiset.admit(p, kind)
        assert multiset.admit(p, kind) == moves, p
        forward.append(moves)
    fresh = _Multiset(bases, combo)
    assert [fresh.admit(p, kind) for p in reversed(pairings)][::-1] == forward
    assert None in forward and sum(m is not None for m in forward) > 1


def test_provenance_replays_to_the_same_map(k1, k2):
    from semap.transforms import _apply_bundle

    maps, notes, _ = cylinder_search([k1, k2], T45, -8, max_candidates=512)
    assert maps
    m, note = maps[0], notes[0]
    by_name = {"K1": k1, "K2": k2}
    union, shift = [], 0
    for name in note.bases:
        base = by_name[name]
        union += [tuple(v + shift for v in f) for f in base.faces]
        shift += base.n
    replay = PolyhedralMap(_apply_bundle(union, note.specs), n=shift)
    assert replay == m


def test_tri_search_finds_37_4_maps(k1):
    maps, notes, stats = cylinder_search([k1], T37, -10, max_candidates=2592)
    assert len(maps) >= 2
    # two units, each in slices: the pool of two gives the same search
    two = cylinder_search([k1], T37, -10, max_candidates=2592, jobs=2)
    assert [(m.name, m.n, m.faces) for m in maps] == [(m.name, m.n, m.faces) for m in two[0]]
    assert notes == two[1]
    assert replace(stats, seconds=0) == replace(two[2], seconds=0)
    assert (stats.bundles, stats.covered_units) == (2, 0)
    for m in maps:
        assert validate(m).ok
        assert semi_equivelar_type(m) == T37
        assert surface_profile(m).euler_characteristic == -10
