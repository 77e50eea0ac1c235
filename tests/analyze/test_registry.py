"""One registry: ids, families, and the CLI listings that share it."""

from repro.analyze.passes import invariants
from repro.analyze.registry import all_passes, all_rules, render_rules
from repro.analyze.rules import FAMILIES
from repro.san.cli import list_checks

EXPECTED_RULES = {
    # invariants
    "wallclock", "raw-units", "dropped-return",
    "obs-bypass", "eager-obs-payload", "fabric-bypass",
    "shard-shared-state", "workload-bypass",
    "fabric-mutation-bypass", "syntax",
    # effects
    "effect-illegal-yield", "effect-leaked-waiter",
    # determinism
    "det-unordered-iter", "det-unseeded-random",
    "det-id-order", "det-float-accum",
    # static happens-before
    "hb-read-unordered", "hb-send-overwrite",
    # captured transfer graphs
    "graph-capture-mutation",
}


def test_registry_contents_and_families():
    rules = all_rules()
    assert set(rules) == EXPECTED_RULES
    assert {r.family for r in rules.values()} == set(FAMILIES)
    for p in all_passes():
        for rule in p.rules.values():
            assert rule.family == p.family


def test_migrated_ids_keep_their_summaries():
    """Each invariant rule is declared once, in invariants.RULES."""
    rules = all_rules()
    for rid, rule in invariants.RULES.items():
        assert rules[rid] is rule


def test_lint_cli_list_matches_analyzer_list(capsys):
    """``analyze --list`` is the lint front-end's catalogue: the registry."""
    from repro.analyze.cli import main as analyze_main

    assert analyze_main(["--list"]) == 0
    assert capsys.readouterr().out.strip() == render_rules()


def test_san_list_checks_covers_every_static_rule():
    text = list_checks()
    for rule_id in EXPECTED_RULES:
        assert rule_id in text, f"{rule_id} missing from san --list-checks"


def test_analyze_module_lists_same_registry():
    import os
    import subprocess
    import sys

    from .conftest import REPO_ROOT

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "--list"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    for rule_id in EXPECTED_RULES:
        assert rule_id in proc.stdout
