"""The AST lint: determinism, unit-literal, and dropped-return invariants."""

from pathlib import Path

from repro.analyze.cli import main as analyze_main
from repro.san.lint import STATIC_CHECKS, lint_source

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _checks(findings):
    return [f.check for f in findings]


# -- wallclock ---------------------------------------------------------------

def test_wallclock_call_flagged():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert "wallclock" in _checks(lint_source(src, "sim/x.py"))


def test_random_module_flagged():
    src = "import random\n\ndef f():\n    return random.random()\n"
    findings = lint_source(src, "sim/x.py")
    assert _checks(findings).count("wallclock") >= 1


def test_numpy_random_flagged():
    src = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
    assert "wallclock" in _checks(lint_source(src, "sim/x.py"))


def test_wallclock_unscoped_files_exempt():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert lint_source(src, "bench/x.py", scoped=False) == []


def test_engine_now_is_fine():
    src = "def f(engine):\n    return engine.now\n"
    assert lint_source(src, "sim/x.py") == []


# -- raw-units ---------------------------------------------------------------

def test_raw_unit_float_flagged():
    src = "LATENCY = 7.8 * 1e-6\n"
    findings = lint_source(src, "cuda/x.py")
    assert _checks(findings) == ["raw-units"]
    assert "repro.units.us" in findings[0].message


def test_raw_unit_pow_flagged():
    src = "SIZE = 4 * 1024 ** 2\n"
    findings = lint_source(src, "cuda/x.py")
    assert _checks(findings) == ["raw-units"]
    assert "MiB" in findings[0].message


def test_non_unit_literals_pass():
    src = "X = 0.5\nY = 1024\nZ = 2e-5\n"
    assert lint_source(src, "cuda/x.py") == []


# -- dropped-return ----------------------------------------------------------

DROPPED = """
def worker():
    yield 1
    return 42

def spawn(engine):
    engine.process(worker())
"""

BOUND = """
def worker():
    yield 1
    return 42

def spawn(engine):
    ev = engine.process(worker())
    return ev
"""

NO_VALUE = """
def worker():
    yield 1

def spawn(engine):
    engine.process(worker())
"""


def test_dropped_return_flagged():
    findings = lint_source(DROPPED, "sim/x.py")
    assert _checks(findings) == ["dropped-return"]
    assert "'worker'" in findings[0].message


def test_bound_process_event_passes():
    assert lint_source(BOUND, "sim/x.py") == []


def test_valueless_body_passes():
    assert lint_source(NO_VALUE, "sim/x.py") == []


# -- obs-bypass --------------------------------------------------------------

def test_print_in_core_flagged():
    src = "def f(x):\n    print(x)\n"
    findings = lint_source(src, "sim/x.py")
    assert _checks(findings) == ["obs-bypass"]
    assert "repro.obs" in findings[0].message


def test_cli_modules_may_print():
    src = "def main():\n    print('report')\n"
    assert lint_source(src, "hw/spec/cli.py") == []


def test_print_outside_core_passes():
    src = "def f(x):\n    print(x)\n"
    assert lint_source(src, "bench/x.py", scoped=False) == []


def test_other_append_calls_pass():
    src = "def f(items, x):\n    items.append(x)\n"
    assert lint_source(src, "sim/x.py") == []


# -- eager-obs-payload -------------------------------------------------------

EAGER = """
def f(engine, x):
    engine.trace(f"value={x}")
"""

GUARDED = """
def f(engine, x):
    obs = engine.obs
    if obs is not None:
        obs.instant("lane", f"value={x}", ("gpu", 0))
"""

GUARDED_DOTTED = """
def f(self, x):
    if self.engine.obs is not None:
        self.engine.obs.instant("lane", f"value={x}", ("gpu", 0))
"""

EAGER_KWARG = """
def f(obs, x):
    obs.span("lane", "name", ("gpu", 0), 0.0, 1.0, detail=f"x={x}")
"""

PLAIN_PAYLOAD = """
def f(engine, x):
    engine.trace("launch", grid=x)
"""

ELSE_BRANCH = """
def f(engine, x):
    if engine.obs is not None:
        pass
    else:
        engine.trace(f"value={x}")
"""


def test_eager_fstring_trace_flagged():
    findings = lint_source(EAGER, "sim/x.py")
    assert _checks(findings) == ["eager-obs-payload"]
    assert "f-string" in findings[0].message


def test_guarded_fstring_passes():
    assert lint_source(GUARDED, "cuda/x.py") == []


def test_guarded_dotted_obs_passes():
    assert lint_source(GUARDED_DOTTED, "mpi/x.py") == []


def test_eager_fstring_kwarg_flagged():
    assert _checks(lint_source(EAGER_KWARG, "sim/x.py")) == ["eager-obs-payload"]


def test_plain_payload_passes():
    assert lint_source(PLAIN_PAYLOAD, "sim/x.py") == []


def test_else_branch_not_guarded():
    assert _checks(lint_source(ELSE_BRANCH, "sim/x.py")) == ["eager-obs-payload"]


def test_eager_rule_unscoped_files_exempt():
    assert lint_source(EAGER, "bench/x.py", scoped=False) == []


# -- fabric-bypass -----------------------------------------------------------

def test_direct_start_transfer_flagged():
    src = (
        "from repro.hw.links import start_transfer\n\n"
        "def f(engine, route, n):\n"
        "    return start_transfer(engine, route, n, name='x')\n"
    )
    findings = lint_source(src, "ucx/x.py", scoped=False)
    assert _checks(findings) == ["fabric-bypass", "fabric-bypass"]
    assert "dataplane" in findings[0].message


def test_dataplane_submission_passes():
    src = (
        "def f(rt, a, b, n):\n"
        "    rt.fabric.dataplane.put(a, b, traffic_class='coll', name='x')\n"
        "    rt.fabric.dataplane.rma_put(a, b)\n"
        "    return rt.fabric.dataplane.control(a, b, n)\n"
    )
    assert lint_source(src, "mpi/x.py") == []


def test_dataplane_and_hw_modules_exempt():
    src = (
        "from repro.hw.links import start_transfer\n\n"
        "def f(engine, route, n):\n"
        "    return start_transfer(engine, route, n, name='x')\n"
    )
    assert lint_source(src, "dataplane/plane.py", scoped=False) == []
    assert lint_source(src, "hw/topology.py", scoped=False) == []


def test_unrelated_transfer_methods_pass():
    # Only start_transfer drives links; other .transfer methods pass.
    src = "def f(bank, a, b):\n    return bank.transfer(a, b)\n"
    assert lint_source(src, "mpi/x.py") == []


# -- workload-bypass ---------------------------------------------------------

def test_direct_world_construction_flagged():
    src = (
        "from repro.mpi.world import World\n\n"
        "def f(cfg, main):\n"
        "    return World(cfg).run(main, nprocs=2)\n"
    )
    findings = lint_source(src, "bench/x.py", scoped=False)
    assert _checks(findings) == ["workload-bypass"]
    assert "run_ranks" in findings[0].message


def test_direct_cluster_job_flagged():
    src = (
        "from repro.shard import ClusterJob\n\n"
        "def f(spec):\n"
        "    return ClusterJob(spec, 'halo').run()\n"
    )
    findings = lint_source(src, "perf/x.py", scoped=False)
    assert _checks(findings) == ["workload-bypass"]


def test_attribute_launcher_flagged():
    src = "def f(mod, cfg):\n    return mod.World(cfg)\n"
    findings = lint_source(src, "bench/x.py", scoped=False)
    assert _checks(findings) == ["workload-bypass"]


def test_workload_owners_exempt_from_bypass():
    src = "from repro.mpi.world import World\n\ndef f(cfg):\n    return World(cfg)\n"
    assert lint_source(src, "workload/runner.py", scoped=False) == []
    assert lint_source(src, "mpi/world.py", scoped=False) == []
    assert lint_source(src, "shard/workloads.py", scoped=False) == []


def test_run_ranks_passes_bypass():
    src = (
        "from repro.workload import run_ranks\n\n"
        "def f(cfg, main):\n"
        "    return run_ranks(cfg, main, nprocs=2).results\n"
    )
    assert lint_source(src, "bench/x.py", scoped=False) == []


# -- shard-shared-state ------------------------------------------------------

def test_shard_internal_access_flagged():
    src = (
        "def f(shard, other_shard, shards, job):\n"
        "    shard.engine.run()\n"
        "    other_shard.mailbox.recv(0, 't')\n"
        "    shards[0].fabric.dataplane.put(None, None)\n"
        "    job.shard.bridge.drain()\n"
        "    shard._step_hash.update(b'x')\n"
    )
    findings = lint_source(src, "perf/x.py")
    assert _checks(findings).count("shard-shared-state") == 5


def test_shard_public_surface_passes():
    src = (
        "def f(shard):\n"
        "    shard.put(None, shard.remote(9, 8, 't'))\n"
        "    shard.recv(0, 't')\n"
        "    out = shard.step_window(1.0, [])\n"
        "    return shard.next_time(), shard.results(), shard.done\n"
    )
    assert lint_source(src, "perf/x.py") == []


def test_shard_package_modules_exempt():
    src = "def f(shard):\n    return shard.engine.peek()\n"
    assert lint_source(src, "shard/cluster.py", scoped=False) == []
    assert lint_source(src, "src/repro/shard/executor.py", scoped=False) == []


def test_non_shard_receivers_pass():
    # 'engine' etc. on receivers that are not shard-shaped are fine.
    src = (
        "def f(world, self):\n"
        "    world.engine.run()\n"
        "    return self.fabric.dataplane\n"
    )
    assert lint_source(src, "mpi/x.py") == []


# -- drivers -----------------------------------------------------------------

def test_seeded_wallclock_file_fails(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    assert analyze_main([str(bad), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "wallclock" in out and "bad.py" in out


def test_seeded_file_outside_core_passes(tmp_path, capsys):
    ok = tmp_path / "repro" / "bench" / "timer.py"
    ok.parent.mkdir(parents=True)
    ok.write_text("import time\n\ndef now():\n    return time.time()\n")
    assert analyze_main([str(ok), "--no-baseline"]) == 0


def test_real_tree_is_clean(capsys):
    rules = [f"--rule={cid}" for cid in STATIC_CHECKS]
    assert analyze_main([str(REPO_SRC), "--no-baseline", *rules]) == 0
    assert "analyze: 0 finding(s)" in capsys.readouterr().out
