"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as w  # noqa: E402
from semap import PolyhedralMap  # noqa: E402
from tracing import CallTimer, Tracer  # noqa: E402

PINS = json.loads(run.PINS.read_text())


def _small_catalog_round(names=("tetrahedron", "cube", "rp2_6")) -> dict:
    inp = w.catalog_inputs(seed=5)
    rnd = inp["rounds"][0]
    rnd["maps"] = [item for item in rnd["maps"] if item["name"] in names]
    return {"rounds": [rnd]}


def test_smoke_small_maps_timed_and_traced():
    timer, tracer = CallTimer(), Tracer("smoke")
    for rec in (timer, tracer):
        out = w.Outcome()
        w.catalog_check(w.catalog_job(_small_catalog_round(), rec),
                        PINS["pins"]["catalog_ops"], out)
        assert out.failed == 0 and out.attempted > 20, out.failures
    # The timer keeps one sample per library call, the tracer one span.
    assert sum(map(len, timer.samples.values())) == len(tracer.spans) > 20
    assert len(timer.samples["core.vertex_link"]) == 4 + 8 + 6
    layers = tracer.layers()
    assert layers["transforms.double_cover"]["calls"] == 1  # rp2_6 only
    assert all(v["self_s"] <= v["total_s"] + 1e-9 for v in layers.values())


def test_smoke_small_cylinder_search_traced():
    inp = w.quad_inputs(seed=5)
    inp["max_candidates"] = 512  # the first work unit only
    tracer = Tracer("smoke")
    with tracer.span("job"):
        maps, stats = w.cylinder_job(inp, tracer)
    assert not stats.exhausted and stats.built > 0 and maps
    w.cylinder_replay(maps, seed=5, rec=tracer)
    traced = {"layers": tracer.layers(), "solve_s": 1.0,
              "counts": {"bundles": stats.bundles, "candidates": stats.candidates,
                         "built": stats.built, "valid": stats.valid,
                         "classes": stats.classes}}
    m = run.layer_metrics("quad_k1", {"solve_s": 1.0}, traced, None)
    assert set(m) == set(run.PER_LAYER)
    assert m["transforms.built"] == stats.built
    assert m["isomorphism.canonical_form.calls"] == min(w.REPLAY_CLASSES, len(maps))
    assert m["transforms.per_built_ms"] > 0 and m["census.nodes"] == 0


def test_tracer_self_time_excludes_children():
    tracer = Tracer("t")
    with tracer.span("outer"):
        tracer("inner", sum, range(100000))
    layers = tracer.layers()
    outer, inner = layers["outer"], layers["inner"]
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9


def test_raising_call_is_a_failed_operation():
    rnd = _small_catalog_round(("tetrahedron",))["rounds"][0]
    broken = PolyhedralMap([(0, 1, 2), (0, 1, 3)], n=4)  # an open surface
    rnd["maps"][0] = dict(rnd["maps"][0], map=broken)
    out = w.Outcome()
    w.catalog_check(w.catalog_job({"rounds": [rnd]}, CallTimer()),
                    PINS["pins"]["catalog_ops"], out)
    assert out.failed >= 1
    assert any("raised" in f or "got" in f for f in out.failures)


def test_wrong_pin_is_counted_not_fatal(tmp_path, monkeypatch, capsys):
    pins = json.loads(json.dumps(PINS))
    pins["pins"]["catalog_ops"]["cube"]["aut_order"] = 47
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", path)
    code = run.main(["--workload", "catalog_ops", "--seed", "2",
                     "--seconds", "0", "--trace", "0"])
    stdout = capsys.readouterr().out
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    # One repetition: CATALOG_ROUNDS rounds, one wrong answer in each.
    assert result["correct"] is False
    assert result["failed"] == w.CATALOG_ROUNDS
    assert result["attempted"] > result["failed"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert "aut_order: got 48, pinned 47" in stdout


def test_quad_k1_digest_does_not_depend_on_the_seed():
    # A truncated search keeps label-dependent classes (1024 candidates give
    # 202 classes under one seed and 482 under another), so this runs the
    # whole search, twice: about 40 s.
    pin = PINS["pins"]["quad_k1"]
    for seed in (11, 12):
        out = w.Outcome()
        w.cylinder_check(w.cylinder_job(w.quad_inputs(seed), CallTimer()), pin, out)
        assert out.failed == 0, out.failures


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(run.WORKLOADS)
