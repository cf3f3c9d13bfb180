"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no memoised result
(``catalog()``, the ``canonical_form`` cache) survives from one timed job
to the next.  It prints one JSON object on its last line of output.

Modes: ``setup`` stops after set-up; ``timed`` runs the job with per-call
latency timing only; ``traced`` runs it under a span tracer and adds the
per-layer replays.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--pins", required=True)
    ap.add_argument("--jobs", type=int, default=None, help="tri_budget worker count")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import semap  # set-up includes the import

    if not Path(semap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"semap imported from {semap.__file__}, not from the checkout", file=sys.stderr)
        return 2

    import workloads as w
    from tracing import CallTimer, Tracer

    tracer = Tracer(f"{args.workload}:{args.seed}") if args.mode == "traced" else None
    if tracer:
        tracer("catalog.load", w.catalog)
    else:
        w.catalog()
    name = args.workload
    if name == "census":
        inp = w.census_inputs(args.seed)
        job = w.census_replay if tracer else w.census_job
    elif name == "quad_k1":
        inp, job = w.quad_inputs(args.seed), w.cylinder_job
    elif name == "tri_budget":
        inp = w.tri_inputs(args.seed, args.jobs or w.TRI_JOBS)
        job = w.cylinder_job
    elif name == "catalog_ops":
        inp, job = w.catalog_inputs(args.seed), w.catalog_job
    else:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    report = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    pins = json.loads(Path(args.pins).read_text())["pins"][name]
    rec = tracer or CallTimer()
    out = w.Outcome()
    t0 = time.perf_counter()
    try:
        result = job(inp, rec)
    except Exception:  # noqa: BLE001 - a raising library call fails the operation
        out.record(False, f"{name} raised: {traceback.format_exc(limit=3)}")
        result = None
    report["solve_s"] = time.perf_counter() - t0
    report["peak_rss_mb"] = _peak_rss_mb()
    if isinstance(rec, CallTimer):
        report["calls_ms"] = {call: [s * 1000.0 for s in samples]
                              for call, samples in rec.samples.items()}

    if result is not None:
        if name == "census":
            w.census_check(result, pins, out)
        elif name == "catalog_ops":
            w.catalog_check(result, pins, out)
        else:
            w.cylinder_check(result, pins, out)
            if tracer:
                w.cylinder_replay(result[0], args.seed, tracer)
    if tracer:
        report["run_id"] = tracer.run_id
        report["layers"] = tracer.layers()
    report.update(attempted=out.attempted, failed=out.failed,
                  failures=out.failures[:5], counts=out.counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
