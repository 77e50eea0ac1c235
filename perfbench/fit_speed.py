#!/usr/bin/env python3
"""Fit, and check, the host-speed correction of ``wall_s`` and ``setup_s``.

    python3 perfbench/fit_speed.py fit [--seconds 60] [--repeats 3]
    python3 perfbench/fit_speed.py check --seeds 100-109 [--out FILE]

``fit`` runs ``--repeats`` rounds of one timed process per workload for
``--seconds`` each, timing the calibration loop just before every sample
as every benchmark run does, adds the data to what ``speed_fit.json``
already holds, and refits on all of it.  How strongly a workload follows
the loop depends on what the host's neighbours run, so the rounds spread
each workload's data over time, and repeated ``fit`` calls over hours.  The samples are cut into
consecutive ``SEGMENT_S``-second segments; per workload, the
least-squares slope of log(segment median sample) on log(segment median
loop time) over all its segments, clipped to [0, 1], is the workload's
speed exponent.  The set-up exponent is fitted the same way on each
round's (median set-up time, median loop time), pooled over the
workloads after dividing out each workload's own level.
``speed_fit.json`` receives the exponents, the correlations, the data
they came from, and the reference loop time (the median over all
segments).

``check`` runs the benchmark command once per workload and seed and
reports, per end-to-end metric, the median and the spread (IQR / median)
over the seeds, and the same for the raw ``wall_s`` and ``setup_s``, so
that the correction can be judged against the raw figures of the same
runs.  With ``--out`` the run set is
appended to that JSON file, so that sets made at different times can be
compared.

Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, workloads  # noqa: E402  (needs ROOT on sys.path)
from perfbench.metrics import (  # noqa: E402
    END_TO_END, SPEED_FIT, fit_exponent, fit_pooled_exponent,
)

SEGMENT_S = 10.0


def segments(samples, calib, seconds=SEGMENT_S):
    """``(median sample, median loop time)`` per consecutive stretch of
    at least ``seconds`` of samples."""
    out, lo, acc = [], 0, 0.0
    for i, dt in enumerate(samples):
        acc += dt
        if acc >= seconds:
            out.append((statistics.median(samples[lo:i + 1]),
                        statistics.median(calib[lo:i + 1])))
            lo, acc = i + 1, 0.0
    return out


def fit(seconds: float, repeats: int) -> int:
    """Add ``repeats`` rounds of data to speed_fit.json and refit on all
    of it, so that data from several sittings (several host moods) count."""
    doc = {"workloads": {}, "setups": {}}
    if os.path.exists(SPEED_FIT):
        with open(SPEED_FIT) as fh:
            doc = json.load(fh)
    points = {name: doc["workloads"].get(name, {}).get("segments", [])
              for name in workloads.WORKLOADS}
    setups = {name: doc["setups"].get(name, []) for name in workloads.WORKLOADS}
    for _ in range(repeats):
        for name in workloads.WORKLOADS:
            res = run.measure(name, workloads.DEFAULT_SEED, seconds, trace=0)
            if res["failed"]:
                print(f"{name}: {res['failed']} runs differ from the pinned outputs",
                      file=sys.stderr)
                return 1
            points[name] += [[round(t, 6), round(c, 6)]
                             for t, c in segments(res["wall_samples"], res["calib_samples"])]
            setups[name].append([round(statistics.median(res["setup_samples"]), 6),
                                 round(statistics.median(res["calib_samples"]), 6)])
    doc = {"segment_s": SEGMENT_S, "workloads": {}}
    for name, pts in points.items():
        exponent, corr = fit_exponent(pts)
        doc["workloads"][name] = {
            "exponent": round(exponent, 3), "corr": round(corr, 3), "segments": pts,
        }
        print(f"{name}: exponent {exponent:.3f}, corr {corr:.3f}, {len(pts)} segments")
    exponent, corr = fit_pooled_exponent(setups.values())
    doc.update(setup_exponent=round(exponent, 3), setup_corr=round(corr, 3), setups=setups)
    print(f"setup: exponent {exponent:.3f}, corr {corr:.3f}, "
          f"{sum(map(len, setups.values()))} runs")
    doc["ref_calib_s"] = round(statistics.median(c for pts in points.values() for _, c in pts), 6)
    with open(SPEED_FIT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def check(seeds, seconds: float, out) -> int:
    summary = {}
    for name in workloads.WORKLOADS:
        values = {"wall_s_raw": [], "setup_s_raw": [], **{m: [] for m in END_TO_END}}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} runs differ", file=sys.stderr)
                return 1
            with open(os.path.join(run.OUT_DIR, f"run-{name}-s{seed}-t0.json")) as fh:
                record = json.load(fh)
            values["wall_s_raw"].append(statistics.median(record["wall_samples"]))
            values["setup_s_raw"].append(statistics.median(record["setup_samples"]))
            for metric in END_TO_END:
                values[metric].append(result["metrics"][metric]["value"])
        summary[name] = {
            metric: {"median": statistics.median(v), "spread": spread(v), "values": v}
            for metric, v in values.items()
        }
        print(f"{name}: " + ", ".join(
            f"{metric} median {s['median']:.4f} spread {s['spread']:.3f}"
            for metric, s in summary[name].items()), flush=True)
    if out:
        doc = {"sets": []}
        if os.path.exists(out):
            with open(out) as fh:
                doc = json.load(fh)
        doc["sets"].append({"seeds": list(seeds), "seconds": seconds, "metrics": summary})
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python3 perfbench/fit_speed.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    f = sub.add_parser("fit")
    f.add_argument("--seconds", type=float, default=60.0)
    f.add_argument("--repeats", type=int, default=3)
    c = sub.add_parser("check")
    c.add_argument("--seeds", type=_seeds, required=True, help="e.g. 100-109")
    c.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    c.add_argument("--out")
    args = p.parse_args(argv)
    if args.cmd == "fit":
        return fit(args.seconds, args.repeats)
    return check(args.seeds, args.seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
