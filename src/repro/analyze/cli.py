"""``python -m repro analyze`` — whole-program static analysis.

::

    python -m repro analyze                       # analyze src/repro
    python -m repro analyze src/repro tests       # explicit roots
    python -m repro analyze --list                # rule catalogue
    python -m repro analyze --rule det-unordered-iter   # one rule only
    python -m repro analyze --sarif out.sarif     # SARIF 2.1.0 export
    python -m repro analyze --no-baseline         # show baselined findings too
    python -m repro analyze --write-baseline      # accept current findings

Exit status: 0 when every finding is suppressed inline or baselined,
1 when new findings exist (a file that does not parse is a ``syntax``
finding), 2 on usage errors and missing paths.  The baseline
(``analyze-baseline.json``) pins known over-approximations by exact
``(rule, path, line)``; stale entries are reported as warnings so the
file shrinks as code improves.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analyze import baseline as baseline_mod
from repro.analyze.model import Project
from repro.analyze.registry import all_passes, all_rules, render_rules
from repro.analyze.rules import Finding, apply_suppressions, run_passes
from repro.analyze.sarif import write_sarif


def analyze_paths(
    paths: Sequence[str], only: Optional[Sequence[str]] = None
):
    """-> (project, kept findings, suppressed findings)."""
    project = Project.load([Path(p) for p in paths])
    findings = run_passes(project, all_passes(), only=only)
    kept, suppressed = apply_suppressions(project, findings)
    return project, kept, suppressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Whole-program static analysis (see repro.analyze).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list every rule, then exit"
    )
    parser.add_argument(
        "--rule", action="append", metavar="ID", dest="rules",
        help="run only this rule (repeatable; default: all)",
    )
    parser.add_argument(
        "--sarif", metavar="OUT", help="write findings as SARIF 2.1.0"
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=baseline_mod.DEFAULT_BASELINE,
        help=f"baseline file (default: {baseline_mod.DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(render_rules())
        return 0

    try:
        project, kept, suppressed = analyze_paths(args.paths, only=args.rules)
    except ValueError as exc:
        print(f"analyze: {exc} (see --list)", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"analyze: no such file or directory: {exc.filename}",
              file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        baseline_mod.save(baseline_path, kept)
        print(
            f"analyze: wrote {len(kept)} finding(s) to {baseline_path}"
        )
        return 0

    matched: List[Finding] = []
    stale: list = []
    new = kept
    if not args.no_baseline and baseline_path.is_file():
        known = baseline_mod.load(baseline_path)
        new, matched, stale = baseline_mod.split(kept, known)

    for f in new:
        print(f.render())
    for key in stale:
        rule, path, line = key
        print(
            f"warning: stale baseline entry {rule} at {path}:{line} "
            "(no longer reported — regenerate with --write-baseline)"
        )
    print(
        f"analyze: {len(new)} finding(s) "
        f"({len(matched)} baselined, {len(suppressed)} suppressed, "
        f"{len(project.modules)} modules)"
    )

    if args.sarif:
        write_sarif(Path(args.sarif), new, all_rules())

    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(main())
