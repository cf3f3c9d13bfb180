"""semap benchmark: one workload, timed or traced, checked against pins.

    python3 bench/run.py --workload quad_k1 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every repetition of a job runs in a fresh interpreter (``rep.py``), so no
memoised result crosses from one timed job to the next.  It is a closed
loop with one caller process; only ``tri_budget`` starts a pool of
``TRI_JOBS`` workers.

``--trace 0`` repeats the workload's fixed job until ``--seconds`` have
passed (at least once) and reports the end-to-end metrics.  ``--trace 1``
runs the job once untraced and once under the span tracer, plus the
layer replays, and reports the per-layer metrics; it ignores
``--seconds``.  Every line but the last is for people; the last line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("census", "quad_k1", "tri_budget", "catalog_ops")
RUN_LIMIT_S = 170.0      # the whole run, children included
SETUP_SAMPLES = 30       # fresh-interpreter set-ups per timed run, at least

# The calls whose latencies give call_p50_ms and call_p99_ms; by default
# every call.  A census job makes two calls of unlike depth, so only the
# deeper one counts.
LATENCY_CALLS = {"census": ("census.enumerate_sems.chi-2",)}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Spans around single library calls; each gives "<name>.ms" (mean self
# time per call) and "<name>.calls".
PER_CALL = (
    "core.validate", "core.semi_equivelar_type", "core.surface_profile",
    "isomorphism.canonical_form", "core.vertex_link",
    "isomorphism.automorphism_group", "isomorphism.g_t_graph",
    "transforms.double_cover", "transforms.verify_covering",
    "transforms.stack_faces", "core.is_d_covered", "transforms.add_cylinder",
    "mapio.parse_map", "mapio.serialize_map",
)
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in PER_CALL
       for kind, unit in (("ms", "ms"), ("calls", "count"))},
    "census.nodes": "count", "census.nodes_per_s": "1/s",
    "census.search_s": "s", "census.classify_s": "s",
    "census.solution_yield": "ratio", "census.class_yield": "ratio",
    "transforms.bundles": "count", "transforms.candidates": "count",
    "transforms.built": "count", "transforms.valid": "count",
    "transforms.classes": "count", "transforms.screen_yield": "ratio",
    "transforms.valid_yield": "ratio", "transforms.class_yield": "ratio",
    "transforms.search_s": "s", "transforms.per_built_ms": "ms",
    "transforms.unaccounted_ms": "ms", "transforms.jobs2_speedup": "ratio",
    "catalog.load_s": "s", "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


class Runner:
    """Starts repetitions as child processes, all within one deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def rep(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--pins", str(PINS),
               *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        cmd += ["--spawned", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} repetition of {self.workload} timed out") from None
        finally:
            try:  # pool workers left behind by a crashed repetition
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition exited {proc.returncode}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    runner.rep("setup")  # not measured: compiles the byte code of a fresh checkout
    # Set-up samples are taken before and after the jobs, so that they do
    # not all fall into one slow or fast spell of a shared machine.
    setups = [runner.rep("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    start = time.monotonic()
    reps: list[dict] = []
    while not reps or time.monotonic() - start < seconds:
        reps.append(runner.rep("timed"))
    setups += [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.rep("setup")["setup_s"])
    wanted = LATENCY_CALLS.get(runner.workload)
    calls = [ms for r in reps for call, samples in r["calls_ms"].items()
             if wanted is None or call in wanted for ms in samples]
    p99, beyond = percentile(calls, 0.99)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in reps),
        "call_p50_ms": statistics.median(calls),
        "call_p99_ms": p99,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    samples = {"setup_s": len(setups), "solve_s": len(reps), "call_p50_ms": len(calls),
               "call_p99_ms": f"{len(calls)}, {beyond} beyond it",
               "peak_rss_mb": len(reps)}
    return metrics, samples, reps


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload: str, untraced: dict, traced: dict,
                  jobs1: dict | None) -> dict:
    """Per-layer metrics from one traced repetition; a layer the workload
    never reaches reads 0."""
    spans, counts = traced["layers"], traced["counts"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    m = {name: 0.0 for name in PER_LAYER}
    for name in PER_CALL:
        calls = spans.get(name, {}).get("calls", 0)
        m[f"{name}.calls"] = calls
        m[f"{name}.ms"] = _ratio(1000.0 * spans.get(name, {}).get("self_s", 0.0), calls)
    if workload == "census":
        search = total("census.complete_search")
        m.update({
            "census.nodes": counts["nodes"],
            "census.nodes_per_s": _ratio(counts["nodes"], search),
            "census.search_s": search,
            "census.classify_s": total("census.classify"),
            "census.solution_yield": _ratio(counts["solutions"], counts["nodes"]),
            "census.class_yield": _ratio(counts["classes"], counts["solutions"]),
        })
    if workload in ("quad_k1", "tri_budget"):
        c = counts
        search = total("transforms.cylinder_search")
        per_built = _ratio(1000.0 * search, c["built"])
        # Per built candidate the search validates once; type, chi and
        # canonical form follow only for valid candidates.
        replayed = m["core.validate.ms"] + _ratio(c["valid"], c["built"]) * (
            m["core.semi_equivelar_type.ms"] + m["core.surface_profile.ms"]
            + m["isomorphism.canonical_form.ms"])
        m.update({f"transforms.{k}": c[k]
                  for k in ("bundles", "candidates", "built", "valid", "classes")})
        m.update({
            "transforms.screen_yield": _ratio(c["built"], c["candidates"]),
            "transforms.valid_yield": _ratio(c["valid"], c["built"]),
            "transforms.class_yield": _ratio(c["classes"], c["valid"]),
            "transforms.search_s": search,
            "transforms.per_built_ms": per_built,
            "transforms.unaccounted_ms": per_built - replayed,
        })
        if jobs1 is not None:
            m["transforms.jobs2_speedup"] = _ratio(
                jobs1["layers"]["transforms.cylinder_search"]["total_s"], search)
    m["catalog.load_s"] = total("catalog.load")
    m["trace.overhead_frac"] = _ratio(traced["solve_s"] - untraced["solve_s"],
                                      untraced["solve_s"])
    return m


def traced_run(runner: Runner) -> tuple[dict, list[dict]]:
    untraced = runner.rep("timed")
    traced = runner.rep("traced")
    reps = [untraced, traced]
    jobs1 = None
    if runner.workload == "tri_budget":
        jobs1 = runner.rep("traced", "--jobs", "1")
        reps.append(jobs1)
    return layer_metrics(runner.workload, untraced, traced, jobs1), reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # Turn a polite stop into SystemExit, so Runner.rep still kills the
    # repetition it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "semap" / "__init__.py").is_file():
        print(f"no semap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, reps = traced_run(runner)
            units, samples = PER_LAYER, {}
        else:
            metrics, samples, reps = timed(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    recorded = json.loads(PINS.read_text()).get("work_counts", {}).get(args.workload, {})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  git {git_sha()}")
    for r in reps:
        for key, want in recorded.items():
            if key in r["counts"] and r["counts"][key] != want:
                print(f"notice: work count {key} is {r['counts'][key]}, recorded {want}")
        for failure in r["failures"]:
            print(f"FAILED: {failure}")
    for name, value in metrics.items():
        n = f"  (samples: {samples[name]})" if name in samples else ""
        print(f"{name:34s} {value:14.6g} {units[name]}{n}")
    print(f"{'fail_ratio':34s} {_ratio(failed, attempted):14.6g}   "
          f"(failed {failed} of {attempted} operations)")
    if args.trace and args.workload in ("quad_k1", "tri_budget"):
        print(f"per built candidate {metrics['transforms.per_built_ms']:.4f} ms = "
              f"validate {metrics['core.validate.ms']:.4f} + type "
              f"{metrics['core.semi_equivelar_type.ms']:.4f} + profile "
              f"{metrics['core.surface_profile.ms']:.4f} + canonical_form "
              f"{metrics['isomorphism.canonical_form.ms']:.4f} (x valid/built) + "
              f"unaccounted {metrics['transforms.unaccounted_ms']:.4f}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
