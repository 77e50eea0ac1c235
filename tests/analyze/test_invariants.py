"""The invariant family: one case table, plus the ownership-table drift test.

Each row is ``(rule, module path, source, expected finding lines)`` and
runs through the analyzer with only that rule enabled.  The path decides
scope: ``src/repro/{sim,cuda,partitioned,mpi,hw}/...`` is the
deterministic core, and any path component naming an owner package
exempts the module from that package's ownership rows.
"""

import textwrap

import pytest

from repro.analyze.cli import main as analyze_main
from repro.analyze.passes.invariants import GUIDANCE, OWNERSHIP, RULES

from .conftest import REPRO_SRC


def case(rule, path, source, lines, id):
    return pytest.param(rule, path, textwrap.dedent(source), lines, id=id)


SIM, CUDA, MPI = "src/repro/sim/x.py", "src/repro/cuda/x.py", "src/repro/mpi/x.py"
BENCH, PERF = "src/repro/bench/x.py", "src/repro/perf/x.py"

WALLCLOCK = "import time\n\ndef f():\n    return time.time()\n"
DROPPED = """\
    def worker():
        yield 1
        return 42

    def spawn(engine):
        engine.process(worker())
"""
EAGER = "def f(engine, x):\n    engine.trace(f'value={x}')\n"
START_TRANSFER = """\
    from repro.hw.links import start_transfer

    def f(engine, route, n):
        return start_transfer(engine, route, n, name='x')
"""
WORLD = "from repro.mpi.world import World\n\ndef f(cfg):\n    return World(cfg)\n"
SHARD_ENGINE = "def f(shard):\n    return shard.engine.peek()\n"
LEDGER = "def f(link, n):\n    link.outstanding_bytes += n\n"

CASES = [
    # -- wallclock ----------------------------------------------------------
    case("wallclock", SIM, WALLCLOCK, [4], "wallclock_call_flagged"),
    case("wallclock", SIM,
         "import random\n\ndef f():\n    return random.random()\n", [1, 4],
         "random_module_flagged"),
    case("wallclock", SIM,
         "import numpy as np\n\ndef f():\n    return np.random.rand()\n", [4, 4],
         "numpy_random_flagged"),
    case("wallclock", SIM,
         "from time import monotonic\nfrom random import choice\n", [1, 2],
         "wallclock_imports_flagged"),
    case("wallclock", SIM,
         "import datetime\n\nT = datetime.datetime.now()\n", [3],
         "datetime_now_flagged"),
    case("wallclock", BENCH, WALLCLOCK, [], "wallclock_unscoped_files_exempt"),
    case("wallclock", SIM, "def f(engine):\n    return engine.now\n", [],
         "engine_now_is_fine"),
    # -- raw-units ----------------------------------------------------------
    case("raw-units", CUDA, "LATENCY = 7.8 * 1e-6\n", [1], "raw_unit_float_flagged"),
    case("raw-units", CUDA, "SIZE = 4 * 1024 ** 2\n", [1], "raw_unit_pow_flagged"),
    case("raw-units", CUDA, "X = 0.5\nY = 1024\nZ = 2e-5\n", [],
         "non_unit_literals_pass"),
    case("raw-units", "src/repro/sim/units.py", "US = 1e-6\n", [],
         "units_module_defines_literals"),
    case("raw-units", BENCH, "DELAY = 1e-6\n", [], "raw_units_unscoped_files_exempt"),
    # -- dropped-return -----------------------------------------------------
    case("dropped-return", SIM, DROPPED, [6], "dropped_return_flagged"),
    case("dropped-return", "tests/test_x.py", DROPPED, [6],
         "dropped_return_applies_everywhere"),
    case("dropped-return", SIM, DROPPED.replace(
        "engine.process(worker())", "ev = engine.process(worker())\n        return ev"),
         [], "bound_process_event_passes"),
    case("dropped-return", SIM, DROPPED.replace("        return 42\n", ""), [],
         "valueless_body_passes"),
    case("dropped-return", SIM, DROPPED.replace("worker())", ")"), [],
         "argless_process_call_passes"),
    case("dropped-return", SIM, """\
        def worker():
            yield 1
            def inner():
                return 42

        def spawn(engine):
            engine.process(worker())
    """, [], "nested_def_return_not_counted"),
    # -- obs-bypass ---------------------------------------------------------
    case("obs-bypass", SIM, "def f(x):\n    print(x)\n", [2], "print_in_core_flagged"),
    case("obs-bypass", "src/repro/hw/spec/cli.py", "def main():\n    print('report')\n",
         [], "cli_modules_may_print"),
    case("obs-bypass", BENCH, "def f(x):\n    print(x)\n", [],
         "print_outside_core_passes"),
    case("obs-bypass", SIM, "def f(items, out, x):\n    items.append(x)\n    out.print(x)\n",
         [], "other_calls_pass"),
    # -- eager-obs-payload --------------------------------------------------
    case("eager-obs-payload", SIM, EAGER, [2], "eager_fstring_trace_flagged"),
    case("eager-obs-payload", CUDA, """\
        def f(engine, x):
            obs = engine.obs
            if obs is not None:
                obs.instant("lane", f"value={x}", ("gpu", 0))
    """, [], "guarded_fstring_passes"),
    case("eager-obs-payload", MPI, """\
        def f(self, x):
            if self.engine.obs is not None:
                self.engine.obs.instant("lane", f"value={x}", ("gpu", 0))
    """, [], "guarded_dotted_obs_passes"),
    case("eager-obs-payload", SIM, """\
        def f(obs, x):
            return obs.instant("l", f"{x}", 0) if obs is not None else None
    """, [], "guarded_conditional_expression_passes"),
    case("eager-obs-payload", SIM, """\
        def f(obs, x):
            obs.span("lane", "name", ("gpu", 0), 0.0, 1.0, detail=f"x={x}")
    """, [2], "eager_fstring_kwarg_flagged"),
    case("eager-obs-payload", SIM, "def f(engine, x):\n    engine.trace('launch', grid=x)\n",
         [], "plain_payload_passes"),
    case("eager-obs-payload", SIM, """\
        def f(engine, x):
            if engine.obs is not None:
                pass
            else:
                engine.trace(f"value={x}")
    """, [5], "else_branch_not_guarded"),
    case("eager-obs-payload", SIM, """\
        def f(engine, x):
            if x is not None:
                engine.trace(f"value={x}")
    """, [3], "unrelated_if_is_not_a_guard"),
    case("eager-obs-payload", BENCH, EAGER, [], "eager_rule_unscoped_files_exempt"),
    # -- fabric-bypass ------------------------------------------------------
    case("fabric-bypass", "src/repro/ucx/x.py", START_TRANSFER, [1, 4],
         "direct_start_transfer_flagged"),
    case("fabric-bypass", MPI, "def f(links, r):\n    links.start_transfer(r)\n", [2],
         "attribute_start_transfer_flagged"),
    case("fabric-bypass", MPI, """\
        def f(rt, a, b, n):
            rt.fabric.dataplane.put(a, b, traffic_class='coll', name='x')
            rt.fabric.dataplane.rma_put(a, b)
            return rt.fabric.dataplane.control(a, b, n)
    """, [], "dataplane_submission_passes"),
    case("fabric-bypass", "src/repro/dataplane/plane.py", START_TRANSFER, [],
         "dataplane_modules_exempt"),
    case("fabric-bypass", "src/repro/hw/topology.py", START_TRANSFER, [],
         "hw_modules_exempt"),
    case("fabric-bypass", MPI, "def f(bank, a, b):\n    return bank.transfer(a, b)\n",
         [], "unrelated_transfer_methods_pass"),
    # -- workload-bypass ----------------------------------------------------
    case("workload-bypass", BENCH, WORLD, [4], "direct_world_construction_flagged"),
    case("workload-bypass", PERF,
         "from repro.shard import ClusterJob\n\ndef f(spec):\n"
         "    return ClusterJob(spec, 'halo').run()\n", [4], "direct_cluster_job_flagged"),
    case("workload-bypass", BENCH, "def f(mod, cfg):\n    return mod.World(cfg)\n", [2],
         "attribute_launcher_flagged"),
    case("workload-bypass", "src/repro/workload/runner.py", WORLD, [],
         "workload_owners_exempt_from_bypass"),
    case("workload-bypass", "src/repro/mpi/world.py", WORLD, [], "mpi_owns_world"),
    case("workload-bypass", "src/repro/shard/workloads.py", WORLD, [], "shard_owns_world"),
    case("workload-bypass", "tests/shard/test_x.py", WORLD, [],
         "shard_tests_exempt_from_workload_bypass"),
    case("workload-bypass", "tests/mpi/test_x.py", WORLD, [], "mpi_tests_exempt"),
    case("workload-bypass", BENCH,
         "from repro.workload import run_ranks\n\ndef f(cfg, main):\n"
         "    return run_ranks(cfg, main, nprocs=2).results\n", [],
         "run_ranks_passes_bypass"),
    # -- shard-shared-state -------------------------------------------------
    case("shard-shared-state", PERF, """\
        def f(shard, other_shard, shards, job):
            shard.engine.run()
            other_shard.mailbox.recv(0, 't')
            shards[0].fabric.dataplane.put(None, None)
            job.shard.bridge.drain()
            shard._step_hash.update(b'x')
            self.shards[1].procs = []
    """, [2, 3, 4, 5, 6, 7], "shard_internal_access_flagged"),
    case("shard-shared-state", PERF, """\
        def f(shard):
            shard.put(None, shard.remote(9, 8, 't'))
            shard.recv(0, 't')
            out = shard.step_window(1.0, [])
            return shard.next_time(), shard.results(), shard.done
    """, [], "shard_public_surface_passes"),
    case("shard-shared-state", "src/repro/shard/cluster.py", SHARD_ENGINE, [],
         "shard_package_modules_exempt"),
    case("shard-shared-state", "tests/shard/test_x.py", SHARD_ENGINE, [],
         "shard_tests_exempt_from_shard_rule"),
    case("shard-shared-state", MPI, """\
        def f(world, self):
            world.engine.run()
            return self.fabric.dataplane
    """, [], "non_shard_receivers_pass"),
    # -- fabric-mutation-bypass ---------------------------------------------
    case("fabric-mutation-bypass", MPI, """\
        def f(link, bw):
            link.up = False
            link.bandwidth *= 0.5
            link.base_bandwidth: float = bw
    """, [2, 3, 4], "link_field_writes_flagged"),
    case("fabric-mutation-bypass", MPI, LEDGER, [2], "ledger_write_outside_dataplane"),
    case("fabric-mutation-bypass", "src/repro/dataplane/ledger.py", LEDGER, [],
         "dataplane_maintains_outstanding_bytes"),
    case("fabric-mutation-bypass", "src/repro/dataplane/ledger.py",
         "def f(link):\n    link.bandwidth = 0\n", [2], "dataplane_may_not_write_bandwidth"),
    case("fabric-mutation-bypass", "src/repro/hw/links.py",
         "def f(link, state):\n    link.up = False\n    state.epoch += 1\n", [],
         "hw_owns_link_state"),
    case("fabric-mutation-bypass", MPI, """\
        def f(self, state):
            state.epoch = 3
            self.link_state.armed = True
    """, [2, 3], "link_state_bookkeeping_flagged"),
    case("fabric-mutation-bypass", MPI, """\
        def f(self, link, state):
            self.epoch += 1
            up = link.up
            state.down_link(link)
    """, [], "unscoped_epoch_reads_and_api_pass"),
    # -- env-read -------------------------------------------------------------
    case("env-read", "src/repro/dataplane/plane.py", """\
        import os

        def f():
            a = os.environ.get("REPRO_PATH_POLICY")
            b = os.getenv("REPRO_NO_GRAPHS")
            os.environ["X"] = "1"
            return a, b
    """, [4, 5, 6], "env_reads_outside_the_edge_flagged"),
    case("env-read", "src/repro/__main__.py",
         "import os\n\ndef main():\n    return dict(os.environ)\n", [],
         "cli_entry_point_reads_env"),
    case("env-read", "perfbench/run.py",
         "import os\n\nENV = dict(os.environ, PYTHONPATH='src')\n", [],
         "perfbench_passes_env_to_its_worker"),
    case("env-read", BENCH, """\
        def f(ctx, environ, proc):
            return ctx.environ, environ.get("X"), proc.getenv("Y")
    """, [], "non_os_receivers_pass"),
    # -- syntax ---------------------------------------------------------------
    case("syntax", SIM, "x = 1\ndef f(:\n    pass\n", [2], "unparsable_module_reported"),
    case("syntax", BENCH, "def f():\n    pass\n", [], "parsable_module_passes"),
]


@pytest.mark.parametrize("rule,path,source,lines", CASES)
def test_case(analyze, rule, path, source, lines):
    findings = analyze({path: source}, only=[rule])
    assert sorted(f.line for f in findings) == lines
    assert {f.rule for f in findings} <= {rule}
    if rule in GUIDANCE:
        assert all(f.message.endswith(GUIDANCE[rule]) for f in findings)


def test_every_rule_has_positive_and_negative_rows():
    assert {row.rule for row in OWNERSHIP} <= set(RULES)
    assert set(GUIDANCE) == {row.rule for row in OWNERSHIP}
    rows = [c.values for c in CASES]
    for rule in RULES:
        assert any(r == rule and lines for r, _, _, lines in rows), rule
        assert any(r == rule and not lines for r, _, _, lines in rows), rule


def test_syntax_finding_is_suppressible(analyze):
    src = "def f(:  # repro: ignore[syntax]\n    pass\n"
    assert analyze({SIM: src}, only=["syntax"]) == []


# -- end to end --------------------------------------------------------------

def test_seeded_wallclock_file_fails(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(WALLCLOCK)
    assert analyze_main([str(bad), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "wallclock" in out and "bad.py" in out


def test_seeded_file_outside_core_passes(tmp_path, capsys):
    ok = tmp_path / "repro" / "bench" / "timer.py"
    ok.parent.mkdir(parents=True)
    ok.write_text(WALLCLOCK)
    assert analyze_main([str(ok), "--no-baseline"]) == 0


def test_real_tree_is_clean(capsys):
    rules = [f"--rule={rid}" for rid in RULES]
    assert analyze_main([str(REPRO_SRC), "--no-baseline", *rules]) == 0
    assert "analyze: 0 finding(s)" in capsys.readouterr().out
