"""The repro.san.lint invariants as the analyzer's invariant family.

Two guarantees: (1) on the real tree the analyzer reports *exactly* the
findings ``lint_source`` reports module by module, and (2) each rule
fires (positive) and stays quiet (negative) when driven through the
analyzer.
"""

import textwrap

from repro.san.lint import STATIC_CHECKS, _in_core, lint_source

from .conftest import REPRO_SRC, rules_of


def test_migrated_rules_report_identical_findings(analyze_path):
    direct = {
        (f.path, f.line, f.check)
        for path in sorted(REPRO_SRC.rglob("*.py"))
        if path.name != "units.py"
        for f in lint_source(path.read_text(), str(path), scoped=_in_core(path))
    }
    new = {
        (f.path, f.line, f.rule)
        for f in analyze_path(REPRO_SRC, only=list(STATIC_CHECKS))
    }
    assert new == direct
    assert direct == set()       # and the tree itself is lint-clean


CASES = {
    "wallclock": (
        "import time\n\ndef f():\n    return time.monotonic()\n",
        "def f(now):\n    return now\n",
    ),
    "raw-units": (
        "DELAY = 1e-6\n",
        "from repro.units import us\nDELAY = us(1)\n",
    ),
    "dropped-return": (
        "def body():\n    yield 1\n    return 42\n\n"
        "def go(engine):\n    engine.process(body())\n",
        "def body():\n    yield 1\n    return 42\n\n"
        "def go(engine):\n    ev = engine.process(body())\n    return ev\n",
    ),
    "obs-bypass": (
        "def f(x):\n    print(x)\n",
        "def f(obs, x):\n    obs.instant('lane', 'msg', 0)\n",
    ),
    "eager-obs-payload": (
        "def f(engine, x):\n    engine.trace(f'value {x}')\n",
        "def f(engine, x):\n"
        "    obs = engine.obs\n"
        "    if obs is not None:\n"
        "        obs.instant('lane', f'value {x}', 0)\n",
    ),
    "fabric-bypass": (
        "def f(engine, route, n):\n    return start_transfer(engine, route, n)\n",
        "def f(fabric, desc):\n    fabric.dataplane.put(desc)\n",
    ),
    "shard-shared-state": (
        "def f(shard):\n    return shard.engine\n",
        "def f(shard, msg):\n    shard.put(msg)\n",
    ),
    "workload-bypass": (
        "def f(cfg, main):\n    return World(cfg).run(main)\n",
        "def f(cfg, main):\n    return run_ranks(cfg, main)\n",
    ),
    "fabric-mutation-bypass": (
        "def f(link):\n    link.up = False\n",
        "def f(state, link):\n    state.down_link(link)\n",
    ),
}


def test_each_invariant_rule_positive_and_negative(analyze):
    assert set(CASES) == set(STATIC_CHECKS)
    for rule, (bad, good) in CASES.items():
        core = "src/repro/sim/mod.py"
        hits = analyze({core: textwrap.dedent(bad)}, only=[rule])
        assert rules_of(hits) == [rule], f"{rule}: expected a finding"
        clean = analyze({core: textwrap.dedent(good)}, only=[rule])
        assert clean == [], f"{rule}: false positive on {clean}"
