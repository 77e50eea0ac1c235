"""The run context: one configuration record, captured by each Engine."""

import json

import pytest

from repro.__main__ import context_from_environ, main
from repro.bench.series import Series
from repro.dataplane.policy import MultiPathPolicy, SinglePathPolicy
from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.spec import ONE_NODE
from repro.hw.topology import Fabric
from repro.sim.context import RunContext, current, using
from repro.sim.engine import Engine
from repro.workload.base import ExecOutcome, Workload, WorkloadError


def test_default_context():
    assert current() == RunContext()
    assert current().policy == "single"
    assert current().coalesce and current().graphs
    assert current().faults is None and current().bus is None and current().routes is None


def test_using_swaps_and_restores_even_on_error():
    before = current()
    with pytest.raises(RuntimeError):
        with using(policy="multi", coalesce=False) as ctx:
            assert current() is ctx
            assert (ctx.policy, ctx.coalesce, ctx.graphs) == ("multi", False, True)
            with using(graphs=False):
                assert (current().policy, current().graphs) == ("multi", False)
            assert current() is ctx
            raise RuntimeError("boom")
    assert current() is before


def test_using_a_whole_context_then_changes():
    base = RunContext(policy="congestion", graphs=False)
    with using(base, coalesce=False) as ctx:
        assert ctx == RunContext(policy="congestion", graphs=False, coalesce=False)


def test_engine_captures_the_context_at_construction():
    with using(policy="multi", coalesce=False) as ctx:
        engine = Engine()
    assert engine.ctx is ctx
    assert not engine.coalescing
    # Built after the block, but on the engine: the engine's context wins.
    assert isinstance(Fabric(engine, ONE_NODE).dataplane.policy, MultiPathPolicy)
    assert Engine().coalescing


def test_context_rejects_unknown_policy():
    with pytest.raises(ValueError, match="'bogus' is not a known policy"):
        RunContext(policy="bogus")


# -- the command-line edge ----------------------------------------------------

def test_environ_parse_turns_a_dict_into_a_context():
    assert context_from_environ({}) == RunContext()
    assert context_from_environ({"REPRO_PATH_POLICY": ""}) == RunContext()
    assert context_from_environ({
        "REPRO_PATH_POLICY": "multi", "REPRO_NO_COALESCE": "1", "REPRO_NO_GRAPHS": "yes",
        "UNRELATED": "x",
    }) == RunContext(policy="multi", coalesce=False, graphs=False)
    # Empty means unset, as with the shell's ``VAR= cmd``.
    assert context_from_environ({"REPRO_NO_COALESCE": ""}).coalesce


def test_environ_parse_names_the_variable_on_a_bad_policy():
    with pytest.raises(
        ValueError,
        match=r"REPRO_PATH_POLICY='bogus' is not a known policy \(single\|multi\|congestion\)",
    ):
        context_from_environ({"REPRO_PATH_POLICY": "bogus"})


def test_cli_bad_policy_exits_2_without_traceback(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PATH_POLICY", "bogus")
    assert main(["bench"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == (
        "repro: REPRO_PATH_POLICY='bogus' is not a known policy (single|multi|congestion)"
    )


def test_cli_runs_the_subcommand_under_the_environment_context(monkeypatch, tmp_path):
    out = tmp_path / "grid.json"
    monkeypatch.setenv("REPRO_PATH_POLICY", "multi")
    assert main(["sweep", "--workloads", "p2p-point", "--machines", "gh200-2x4",
                 "--no-cache", "--out", str(out)]) == 0
    [cell] = json.loads(out.read_text())["cells"]
    assert cell["policy"] == cell["result"]["policy"] == "multi"
    assert current() == RunContext()


# -- Workload.run -------------------------------------------------------------

class _Probe(Workload):
    """Builds one fabric, reports what it saw, then optionally fails."""

    name = "probe"

    def __init__(self, fail=False):
        self.fail = fail
        self.seen = []

    def _execute(self, machine, shards, **params):
        fab = Fabric(Engine(), ONE_NODE)
        self.seen.append((type(fab.dataplane.policy), fab.link_state.armed))
        if self.fail:
            raise RuntimeError("mid-run failure")
        return ExecOutcome(series=Series("probe", "probe", ["x"]))


def test_workload_run_rejects_unknown_policy():
    with pytest.raises(WorkloadError, match="'bogus' is not a known policy"):
        _Probe().run(policy="bogus")


def test_workload_run_records_the_resolved_policy():
    assert _Probe().run().policy == "single"
    with using(policy="congestion"):
        assert _Probe().run().policy == "congestion"
        assert _Probe().run(policy="multi").policy == "multi"


def test_failed_run_leaks_nothing():
    sched = FaultSchedule([FaultEvent(1e-3, "nvl0->1", "down")])
    probe = _Probe(fail=True)
    before = current()
    with pytest.raises(RuntimeError, match="mid-run failure"):
        probe.run(policy="multi", faults=sched)
    assert probe.seen == [(MultiPathPolicy, True)]
    assert current() is before
    fab = Fabric(Engine(), ONE_NODE)
    assert isinstance(fab.dataplane.policy, SinglePathPolicy)
    assert not fab.link_state.armed and fab.fault_events == []
