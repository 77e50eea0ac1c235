"""The measured process: one workload, one process, sequential driver.

Run from the checkout root as ``python3 -m perfbench.worker ...`` with
``src`` on ``PYTHONPATH`` (``run.py`` does this).  It sets up (imports,
machine, generated inputs), reports ``setup_s`` measured from the
launcher's spawn time, and unless ``--setup-only`` times
``Workload.run`` repeatedly for ``--seconds``.  With ``--trace 1`` it
alternates untraced and traced runs and derives the per-layer metrics.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from perfbench import layers, metrics, workloads
from perfbench.spans import Tracer

#: Fewest timed runs of each kind, however short ``--seconds`` is.
MIN_RUNS = 3


def _timed(prep, checker, calib=None):
    """One run: counters reset, heap collected, then timed; returns
    ``(seconds, result, engine stats, graph counters)``.  A ``calib``
    list receives one calibration-loop time taken just before the run."""
    from repro.dataplane.graph import GRAPHS
    from repro.sim.engine import STATS

    STATS.reset()
    GRAPHS.reset()
    gc.collect()
    if calib is not None:
        calib.append(metrics.calibration_loop())
    t0 = time.perf_counter()
    result = prep.run()
    dt = time.perf_counter() - t0
    stats, graphs = STATS.snapshot(), GRAPHS.snapshot()
    checker.check(workloads.outputs(result))
    return dt, result, stats, graphs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--spawn-t", type=float, required=True,
                   help="time.monotonic() in the launcher just before spawning")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--pinned", help="pinned outputs JSON; runs are checked against "
                   "its entry for --workload")
    p.add_argument("--spans-out", help="write the traced spans here at exit")
    args = p.parse_args(argv)

    tracer = seen = None
    if args.trace:
        seen = layers.Observed()
        tracer = Tracer(layers.make_entries(seen))
        tracer.install(run_id=0)        # run 0 = set-up (schedule parse)
    try:
        prep = workloads.prepare(args.workload, args.inputs)
    finally:
        if tracer is not None:
            tracer.remove()
    setup_s = time.monotonic() - args.spawn_t
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None
    if args.pinned:
        with open(args.pinned) as fh:
            reference = json.load(fh)[args.workload]
    checker = metrics.Checker(reference)
    _, first, _, _ = _timed(prep, checker)           # warm-up, checked, not timed

    untraced, calib, traced, per_run = [], [], [], []
    # Spans kept for the dump: the set-up run and the latest traced run.
    setup_spans = len(tracer.spans) if tracer is not None else 0
    deadline = time.monotonic() + args.seconds
    while len(untraced) < MIN_RUNS or time.monotonic() < deadline:
        untraced.append(_timed(prep, checker, calib)[0])
        if tracer is None:
            continue
        run_id = len(traced) + 1
        seen.clear()
        tracer.truncate(setup_spans)
        tracer.install(run_id)
        try:
            dt, result, stats, graphs = _timed(prep, checker)
        finally:
            tracer.remove()
        traced.append(dt)
        per_run.append(layers.run_metrics(
            tracer, tracer.run_spans(run_id), seen, result, stats, graphs, dt,
        ))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc = {
        "setup_s": setup_s,
        "wall_samples": untraced,
        "calib_samples": calib,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_frac": checker.fail_frac,
        "mismatches": checker.mismatches[:20],
        "outputs": workloads.outputs(first),
        "counts": workloads.counts(first),
    }
    if tracer is not None:
        layer = {k: metrics.median([r[k] for r in per_run]) for k in per_run[0]}
        wall = metrics.median(untraced)
        layer["sim.host_us_per_event"] = wall * 1e6 / layer["sim.events"]
        layer["workload.parse_s"] = sum(
            s[3] - s[2] for s in tracer.run_spans(0) if s[1] == "workload.load_schedule"
        )
        layer["workload.steps"] = len(prep.schedule.steps) if prep.schedule else 0
        layer["trace.overhead_frac"] = metrics.median(traced) / wall - 1.0
        doc["traced_samples"] = traced
        doc["layers"] = layer
        doc["coverage_errors"] = layers.coverage_errors(args.workload, layer)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
