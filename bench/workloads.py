"""The benchmark's workloads: seeded inputs, the job a user waits for, and
the checks of its results against the pinned answers.

Every library call goes through a recorder ``rec(name, fn, *args)`` (see
``tracing.py``), so the same job code runs timed and traced.  Checks run
after the job, outside its timed region.  A check that fails, or a call
that raises, counts as one failed operation; the run goes on.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from dataclasses import dataclass, field

from semap import (
    CylinderSpec,
    FaceSequence,
    add_cylinder,
    automorphism_group,
    canonical_form,
    catalog,
    catalog_map,
    complete_search,
    corner_arrangements,
    cylinder_search,
    double_cover,
    enumerate_sems,
    g_t_graph,
    is_d_covered,
    parse_map,
    seed_partial,
    semi_equivelar_type,
    serialize_map,
    stack_faces,
    surface_profile,
    validate,
    verify_covering,
    vertex_link,
)

CENSUS_TYPE = "3^5,4"
CENSUS_BUDGET = 10000          # search nodes for the chi=-2 census
QUAD_TYPE, QUAD_CHI = "3^5,4^2", -8
TRI_TYPE, TRI_CHI = "3^7,4", -10
TRI_BUDGET = 2592              # candidates: the first two work units
TRI_JOBS = 2                   # one worker per CPU of the reference machine
CATALOG_ROUNDS = 20            # rounds over all catalog maps per job
REPLAY_CLASSES = 200           # emitted classes replayed per traced search
# The K1+K2 gluing of demos/07, in catalog labels.
CYLINDER_FACE = (0, 2, 3, 4)


@dataclass
class Outcome:
    """Operations attempted and failed, and the work counts of the job."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def digest(maps) -> str:
    """sha256 of the sorted canonical forms: the class set, label-free."""
    h = hashlib.sha256()
    for form in sorted(canonical_form(m) for m in maps):
        h.update(form + b"\n")
    return h.hexdigest()


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# census: the link-completion search at two depths
# ---------------------------------------------------------------------------

def census_inputs(seed: int) -> dict:
    # The census input is a type and an Euler characteristic; the seed
    # does not enter it.
    return {"seq": FaceSequence.from_string(CENSUS_TYPE),
            "searches": ((-1, None), (-2, CENSUS_BUDGET))}


def census_job(inp: dict, rec) -> list:
    results = []
    for chi, budget in inp["searches"]:
        classes, stats = rec(f"census.enumerate_sems.chi{chi}", enumerate_sems,
                             inp["seq"], chi, max_nodes=budget)
        results.append((chi, classes, stats.nodes, stats.solutions, stats.exhausted))
    return results


def census_replay(inp: dict, rec) -> list:
    """``enumerate_sems`` re-done through its public parts, so the trace
    splits search time (``complete_search``) from classify time."""
    seq = inp["seq"]
    results = []
    for chi, budget in inp["searches"]:
        with rec.span("census.enumerate"):
            classes, seen = [], set()
            nodes = solutions = 0
            exhausted = True
            for arrangement in corner_arrangements(seq):
                partial = rec("census.seed_partial", seed_partial, seq, chi,
                              arrangement)
                left = None if budget is None else budget - nodes
                found, stats = rec("census.complete_search", complete_search,
                                   partial, left)
                nodes += stats.nodes
                solutions += stats.solutions
                exhausted = exhausted and stats.exhausted
                with rec.span("census.classify"):
                    for m in found:
                        if rec("core.semi_equivelar_type", semi_equivelar_type, m) != seq:
                            continue
                        profile = rec("core.surface_profile", surface_profile, m)
                        if profile.euler_characteristic != chi:
                            continue
                        form = rec("isomorphism.canonical_form", canonical_form, m)
                        if form not in seen:
                            seen.add(form)
                            classes.append(m)
        results.append((chi, classes, nodes, solutions, exhausted))
    return results


def census_check(results: list, pins: dict, out: Outcome) -> None:
    refs = {canonical_form(catalog_map(name)): name for name in ("K1", "K2", "K3")}
    nodes = solutions = classes_total = 0
    for chi, classes, n_nodes, n_solutions, exhausted in results:
        pin = pins[f"chi{chi}"]
        nodes += n_nodes
        solutions += n_solutions
        classes_total += len(classes)
        bad = []
        if len(classes) != pin["classes"]:
            bad.append(f"{len(classes)} classes, pinned {pin['classes']}")
        if exhausted != pin["exhausted"]:
            bad.append(f"exhausted={exhausted}, pinned {pin['exhausted']}")
        if "isomorphic_to" in pin:
            names = sorted(refs.get(canonical_form(m), "?") for m in classes)
            if names != pin["isomorphic_to"]:
                bad.append(f"classes are {names}, pinned {pin['isomorphic_to']}")
        if "digest" in pin and digest(classes) != pin["digest"]:
            bad.append("digest of canonical forms differs from the pin")
        out.record(not bad, f"census chi={chi}: " + "; ".join(bad))
    out.counts.update(nodes=nodes, solutions=solutions, classes=classes_total)


# ---------------------------------------------------------------------------
# quad_k1 and tri_budget: cylinder-bundle searches
# ---------------------------------------------------------------------------

def quad_inputs(seed: int) -> dict:
    k1 = catalog_map("K1")
    k1 = k1.relabel(_permutation(_rng(seed, "quad_k1"), k1.n))
    return {"bases": [k1], "type": FaceSequence.from_string(QUAD_TYPE),
            "chi": QUAD_CHI, "max_candidates": None, "jobs": 1}


def tri_inputs(seed: int, jobs: int = TRI_JOBS) -> dict:
    # The truncated candidate stream depends on the bases' labels, so the
    # bases keep their catalog labels and the seed does not enter.
    return {"bases": [catalog_map(name) for name in ("K1", "K2", "K3")],
            "type": FaceSequence.from_string(TRI_TYPE), "chi": TRI_CHI,
            "max_candidates": TRI_BUDGET, "jobs": jobs}


def cylinder_job(inp: dict, rec):
    maps, _, stats = rec("transforms.cylinder_search", cylinder_search,
                         inp["bases"], inp["type"], inp["chi"],
                         max_candidates=inp["max_candidates"], jobs=inp["jobs"])
    return maps, stats


def cylinder_check(result, pin: dict, out: Outcome) -> None:
    maps, stats = result
    bad = []
    if len(maps) != pin["classes"]:
        bad.append(f"{len(maps)} classes, pinned {pin['classes']}")
    if stats.exhausted != pin["exhausted"]:
        bad.append(f"exhausted={stats.exhausted}, pinned {pin['exhausted']}")
    if digest(maps) != pin["digest"]:
        bad.append("digest of canonical forms differs from the pin")
    out.record(not bad, "cylinder_search: " + "; ".join(bad))
    out.counts.update(bundles=stats.bundles, candidates=stats.candidates,
                      built=stats.built, valid=stats.valid, classes=stats.classes)


def cylinder_replay(maps, seed: int, rec) -> None:
    """Per-candidate layer costs, measured on this search's own maps: the
    calls ``cylinder_search`` makes on every built candidate, replayed on
    seeded relabellings of emitted classes (so no cached form is reused)."""
    rng = _rng(seed, "replay")
    picked = rng.sample(maps, min(REPLAY_CLASSES, len(maps)))
    with rec.span("replay"):
        for m in picked:
            cand = m.relabel(_permutation(rng, m.n))
            rec("core.validate", validate, cand)
            rec("core.semi_equivelar_type", semi_equivelar_type, cand)
            rec("core.surface_profile", surface_profile, cand)
            rec("isomorphism.canonical_form", canonical_form, cand)


# ---------------------------------------------------------------------------
# catalog_ops: interactive use of the library on every catalog map
# ---------------------------------------------------------------------------

def _link_size(faces, v: int) -> int:
    return len({u for f in faces if v in f for u in f} - {v})


def _neighbour_count(faces, v: int) -> int:
    near = set()
    for f in faces:
        if v in f:
            i = f.index(v)
            near.update((f[i - 1], f[(i + 1) % len(f)]))
    return len(near)


def catalog_inputs(seed: int) -> dict:
    rng = _rng(seed, "catalog_ops")
    entries = catalog()
    rounds = []
    for _ in range(CATALOG_ROUNDS):
        items = []
        for e in entries:
            m = e.map.relabel(_permutation(rng, e.map.n))
            items.append({
                "name": e.name, "map": m,
                "ts": range(_link_size(m.faces, 0) + 1),
                "d": 2 * _neighbour_count(m.faces, 0),
                "cover": not e.expected.orientable,
            })
        k1, k2 = catalog_map("K1"), catalog_map("K2")
        p1, p2 = _permutation(rng, k1.n), _permutation(rng, k2.n)
        spec = CylinderSpec(kind="quad",
                            face_a=tuple(p1[v] for v in CYLINDER_FACE),
                            face_b=tuple(p2[v] for v in CYLINDER_FACE))
        rounds.append({"maps": items,
                       "cylinder": (k1.relabel(p1), spec, k2.relabel(p2))})
    return {"rounds": rounds}


def _map_ops(item: dict, rec, answer) -> None:
    """The calls a CLI user makes on one map; ``answer(key, value)``
    keeps each answer to check."""
    m = item["map"]
    text = rec("mapio.serialize_map", serialize_map, m)
    answer("roundtrip", rec("mapio.parse_map", parse_map, text) == m)
    answer("valid", rec("core.validate", validate, m).ok)
    answer("profile", str(rec("core.surface_profile", surface_profile, m)))
    degrees = {rec("core.vertex_link", vertex_link, m, v).degree for v in range(m.n)}
    answer("link_degrees", sorted(degrees))
    form = rec("isomorphism.canonical_form", canonical_form, m)
    answer("form_digest", hashlib.sha256(form).hexdigest())
    answer("aut_order", rec("isomorphism.automorphism_group", automorphism_group, m).order)
    edges = [rec("isomorphism.g_t_graph", g_t_graph, m, t).edge_count for t in item["ts"]]
    answer("g_t_edges", edges)
    stacked = rec("transforms.stack_faces", stack_faces, m)
    answer("stacked", [stacked.n, len(stacked.faces)])
    answer("d_covered", rec("core.is_d_covered", is_d_covered, stacked, item["d"]))
    if item["cover"]:
        cover, witness = rec("transforms.double_cover", double_cover, m)
        answer("cover", [cover.n, len(cover.faces)])
        answer("covering", rec("transforms.verify_covering", verify_covering,
                               cover, m, witness))


def catalog_job(inp: dict, rec) -> list:
    """Answers as (map name, operation, value).  A call that raises ends
    that map's sequence for the round; its traceback is kept as the
    answer ``raised``, which has no pin."""
    answers = []
    for rnd in inp["rounds"]:
        for item in rnd["maps"]:
            def answer(key, value, name=item["name"]):
                answers.append((name, key, value))
            try:
                _map_ops(item, rec, answer)
            except Exception:  # noqa: BLE001 - reported as a failed operation
                answer("raised", traceback.format_exc(limit=3))
        a, spec, b = rnd["cylinder"]
        try:
            glued = rec("transforms.add_cylinder", add_cylinder, a, spec, b)
            answers.append(("K1+K2", "glued", [glued.n, len(glued.faces)]))
        except Exception:  # noqa: BLE001 - reported as a failed operation
            answers.append(("K1+K2", "raised", traceback.format_exc(limit=3)))
    return answers


def catalog_check(answers: list, pins: dict, out: Outcome) -> None:
    for name, key, val in answers:
        want = pins.get(name, {}).get(key, "<no pin>")
        out.record(val == want, f"{name} {key}: got {val!r}, pinned {want!r}")
    out.counts.update(answers=len(answers))
