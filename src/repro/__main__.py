"""Command-line entry point: regenerate paper exhibits.

    python -m repro list                 # show available exhibits
    python -m repro fig4                 # regenerate one exhibit
    python -m repro fig4 --grids 1,256   # custom sweep
    python -m repro all [--fast]         # everything -> RESULTS.md
    python -m repro san <script>         # sanitize a run (see repro.san)
    python -m repro san --list-checks
    python -m repro analyze [--sarif out.sarif]   # static analysis (repro.analyze)
    python -m repro topo <spec>          # print/validate a machine spec
    python -m repro topo --machine fat-tree-512    # generated cluster fabrics
    python -m repro topo --list
    python -m repro profile <script> --chrome out.json --util --critical-path
    python -m repro bench [--against auto]   # simulator wall-clock suite
    python -m repro bench --suite cluster-fattree-512 --shards 4   # sharded engine
    python -m repro sweep --workloads pingpong --machines gh200-2x4 \
        --policies single,multi          # cached (workload x machine x policy) grid
    python -m repro replay sched.jsonl --machine fat-tree-512   # trace replay
    python -m repro replay --gen-llm dp=2,tp=4,pp=2 --out sched.jsonl
    python -m repro fault faults.jsonl --workload halo \
        --machine fat-tree-512           # run a workload under link faults
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Mapping

from repro.bench import render
from repro.sim.context import RunContext, using

#: Subcommand -> (module, entry point); every entry takes the remaining argv.
SUBCOMMANDS = {
    "san": ("repro.san.cli", "main"),
    "analyze": ("repro.analyze.cli", "main"),
    "topo": ("repro.hw.spec.cli", "main"),
    "profile": ("repro.obs.cli", "main"),
    "bench": ("repro.perf.bench", "main"),
    "sweep": ("repro.workload.cli", "main_sweep"),
    "replay": ("repro.workload.cli", "main_replay"),
    "fault": ("repro.workload.cli", "main_fault"),
}


def context_from_environ(environ: Mapping[str, str]) -> RunContext:
    """The run context the ``REPRO_*`` variables in ``environ`` ask for
    (DESIGN.md §18); empty values count as unset."""
    try:
        return RunContext(
            policy=environ.get("REPRO_PATH_POLICY") or "single",
            coalesce=not environ.get("REPRO_NO_COALESCE"),
            graphs=not environ.get("REPRO_NO_GRAPHS"),
        )
    except ValueError as exc:  # the only field RunContext checks: policy
        raise ValueError(f"REPRO_PATH_POLICY={exc}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ctx = context_from_environ(os.environ)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if argv and argv[0] in SUBCOMMANDS:
        module, entry = SUBCOMMANDS[argv[0]]
        run, argv = getattr(importlib.import_module(module), entry), argv[1:]
    else:
        run = _exhibit_main
    with using(ctx):
        return run(argv)


def _exhibit_main(argv) -> int:
    from repro.workload.exhibits import EXHIBIT_WORKLOADS

    exhibits = {wl.name: wl for wl in EXHIBIT_WORKLOADS}
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate exhibits of the GPU-initiated MPI Partitioned paper.",
    )
    parser.add_argument("exhibit", help="'list', 'all', or one of: " + ", ".join(exhibits))
    parser.add_argument("--grids", help="comma-separated grid sizes (p2p/coll/dl exhibits)")
    parser.add_argument("--multipliers", help="comma-separated multipliers (Jacobi exhibits)")
    parser.add_argument("--fast", action="store_true", help="decimate 'all' sweeps")
    args = parser.parse_args(argv)

    if args.exhibit == "list":
        for name, wl in exhibits.items():
            doc = (type(wl).__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0

    if args.exhibit == "all":
        from scripts import regenerate_results  # pragma: no cover - thin wrapper

        sys.argv = ["regenerate_results"] + (["--fast"] if args.fast else [])
        regenerate_results.main()
        return 0

    wl = exhibits.get(args.exhibit)
    if wl is None:
        parser.error(f"unknown exhibit {args.exhibit!r}; try 'list'")
    kwargs = {}
    if args.grids:
        kwargs["grids"] = tuple(int(g) for g in args.grids.split(","))
    if args.multipliers:
        kwargs["multipliers"] = tuple(int(m) for m in args.multipliers.split(","))
    print(render(wl.run(**kwargs).series))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
