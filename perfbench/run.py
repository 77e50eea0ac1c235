#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--trace 1]  # every workload, one table
    python3 perfbench/run.py --pin                    # rewrite pinned.json

Run from the root of a checkout; the simulator is imported from ``src``.
Per workload it generates the seeded inputs under ``perfbench/_inputs``,
starts fresh processes that set up only (``setup_s``), then one process
that times ``Workload.run`` for ``--seconds`` (``wall_s``,
``peak_rss_mb``) and checks every run's simulated outputs: against
``pinned.json`` on the default seed, against the process's first run on
any other.  ``--trace 1`` reports the per-layer metrics instead; with
``--workload all`` it also checks that ``hw.spec`` takes its largest share
of wall time on ``halo-fattree512``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import layers, workloads  # noqa: E402  (needs ROOT on sys.path)
from perfbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, at_reference_speed, load_speed_fit, median, report, tail,
)

PINNED = os.path.join(HERE, "pinned.json")
INPUTS_DIR = os.path.join(HERE, "_inputs")
OUT_DIR = os.path.join(HERE, "_out")

#: Set-up-only processes started before and again after the timed
#: process, so the set-up median spans the whole run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140
DEFAULT_SECONDS = 20


def _env() -> dict:
    env = dict(os.environ)
    paths = [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(args: list, timeout: float) -> dict:
    """Start one measured process; its last stdout line is its result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args, "--spawn-t", repr(t0)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            check_pinned: bool = True) -> dict:
    """Generate inputs, run the set-up probes and the timed process."""
    gen_dir = os.path.join(INPUTS_DIR, f"{workload}-s{seed}")
    inputs = workloads.generate(workload, seed, gen_dir)
    base = ["--workload", workload, "--inputs", inputs]

    def probes():
        return [] if trace else [
            _spawn(base + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]

    setups = probes()
    extra = ["--seconds", repr(seconds), "--trace", str(trace)]
    if check_pinned and seed == workloads.DEFAULT_SEED:
        extra += ["--pinned", PINNED]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        extra += ["--spans-out", os.path.join(OUT_DIR, f"spans-{workload}-s{seed}.jsonl")]
    doc = _spawn(base + extra, WORKER_TIMEOUT_S)
    doc["setup_samples"] = setups + [doc["setup_s"]] + probes()
    doc["host"] = {
        "calib_s": median(doc["calib_samples"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    return doc


def end_to_end(workload: str, doc: dict) -> dict:
    """``wall_s`` and ``setup_s`` at the reference host speed of
    speed_fit.json, and the peak RSS.  The set-up processes bracket the
    timed one, so its loop times measure their stretch too."""
    fit = load_speed_fit()
    return {
        "wall_s": at_reference_speed(doc["wall_samples"], doc["calib_samples"],
                                     fit["workloads"][workload]["exponent"],
                                     fit["ref_calib_s"]),
        "setup_s": at_reference_speed(doc["setup_samples"], doc["calib_samples"],
                                      fit["setup_exponent"], fit["ref_calib_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def print_human(workload: str, seed: int, trace: int, doc: dict) -> None:
    host = doc["host"]
    walls = doc["wall_samples"]
    print(f"perfbench {workload} seed={seed} trace={trace} | python {host['python']}, "
          f"nproc {host['nproc']}, calib_s {host['calib_s']:.4f}")
    e2e = end_to_end(workload, doc)
    hi = tail(walls)
    hi_txt = f"p{hi[0]} {hi[1]:.4f} s" if hi else "too few samples for a tail percentile"
    print(f"  wall_s       {e2e['wall_s']:.4f} s    at reference speed; raw median "
          f"{median(walls):.4f} s of n={len(walls)}; raw {hi_txt}")
    print(f"  setup_s      {e2e['setup_s']:.4f} s    at reference speed; raw median "
          f"{median(doc['setup_samples']):.4f} s of {len(doc['setup_samples'])} "
          f"process starts")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac    {doc['fail_frac']:.4f} ratio  "
          f"({doc['failed']} of {doc['attempted']} runs differ from the reference)")
    for line in doc["mismatches"]:
        print(f"    mismatch: {line}", file=sys.stderr)
    if trace:
        for name, (unit, _better) in PER_LAYER.items():
            print(f"  {name:30s} {doc['layers'][name]:.6g} {unit}")
        for err in doc["coverage_errors"]:
            print(f"  COVERAGE: {workload}: {err}", file=sys.stderr)


def record(workload: str, seed: int, trace: int, doc: dict) -> None:
    """Keep the run set with its host figures next to the spans."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"run-{workload}-s{seed}-t{trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, **doc}, fh, indent=1)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    doc = measure(workload, seed, seconds, trace)
    record(workload, seed, trace, doc)
    print_human(workload, seed, trace, doc)
    errors = doc.get("coverage_errors", [])
    values = doc["layers"] if trace else end_to_end(workload, doc)
    return {
        "correct": doc["failed"] == 0 and not errors,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": report(values, PER_LAYER if trace else END_TO_END),
    }


def pin() -> int:
    """Rewrite pinned.json from one default-seed run of every workload."""
    pinned = {}
    for name in workloads.WORKLOADS:
        doc = measure(name, workloads.DEFAULT_SEED, 0, trace=0, check_pinned=False)
        if doc["failed"]:
            print(f"{name}: runs disagree with each other; not pinned", file=sys.stderr)
            return 1
        pinned[name] = doc["outputs"]
        print(f"pinned {name}: {doc['counts']}")
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="a workload name, or 'all'")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.pin:
        return pin()
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
        for name in workloads.WORKLOADS:
            res = run_one(name, seed, args.seconds, args.trace)
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            summary["workloads"][name] = res["metrics"]
        if args.trace:
            shares = {name: m["hw.spec.wall_share"]["value"]
                      for name, m in summary["workloads"].items()}
            print("hw.spec.wall_share: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
            for err in layers.spec_share_errors(shares):
                print(f"  COVERAGE: {err}", file=sys.stderr)
                summary["correct"] = False
        print(json.dumps(summary))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    print(json.dumps(run_one(args.workload, seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
