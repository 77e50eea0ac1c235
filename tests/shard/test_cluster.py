"""The equivalence sweep: every execution mode, bit-identical signatures.

Two tiers of equivalence (DESIGN.md §14):

* sequential == mp-1 == mp-N on the **full** signature, including the
  per-shard ``(time, priority, seq)`` step digests and pop counts — the
  injection schedule is computed driver-side, so grouping shards onto
  workers cannot change any shard engine's heap history.
* the single-heap *reference* run matches on everything semantic
  (message stream digest, pop totals, rank results, end time, byte
  ledgers); only heap sequence numbering differs, so step streams are
  not comparable across that boundary.
"""

import os
import time

import pytest

from repro.hw.spec.generators import resolve_machine
from repro.hw.spec.schema import SpecError
from repro.shard import ClusterError, ClusterJob, local_spec
from repro.shard import workloads as workloads_mod
from repro.sim.context import using
from repro.sim.engine import STATS

MACHINES = ["fat-tree-32-r2-l2", "dragonfly-32-r2-g2"]

#: Decimated configs keep the sweep fast; shapes still cross every shard.
CFG = {
    "halo": {"iters": 2, "chunks": 2, "chunk_bytes": 1 << 16, "face_bytes": 1 << 16},
    "allreduce-node": {"iters": 2, "elems": 256, "ring_bytes": 1 << 12},
}


def _job(machine, workload, collect_steps=True):
    return ClusterJob(
        resolve_machine(machine), workload, cfg=CFG[workload],
        collect_steps=collect_steps,
    )


# -- the sweep ----------------------------------------------------------------

@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("workload", ["halo", "allreduce-node"])
def test_modes_bit_identical(machine, workload):
    job = _job(machine, workload)
    seq = job.run()
    assert seq.mode == "sequential" and seq.messages > 0
    sig = seq.signature()
    assert "step_digests" in sig and "per_shard_popped" in sig
    for workers in (1, 3):
        mp = job.run(workers=workers)
        assert mp.mode == "mp" and mp.workers == workers
        assert mp.windows == seq.windows
        assert mp.signature() == sig


@pytest.mark.parametrize("machine", MACHINES)
def test_no_coalesce_keeps_modes_identical(machine):
    job = _job(machine, "halo")
    with using(coalesce=False):
        seq = job.run()
        mp = job.run(workers=2)
    assert mp.signature() == seq.signature()


def _build_ctx_probe(shard, cfg):
    def probe():
        yield shard.engine.timeout(0)
        ctx = shard.engine.ctx
        return (ctx.policy, ctx.coalesce, ctx.graphs, shard.fabric.dataplane.policy.name)

    return [shard.engine.process(probe(), name=f"probe{shard.id}")]


def test_workers_build_under_the_callers_run_context(monkeypatch):
    """Forked workers receive the run context from the executor and build
    every shard (engine, fabric, dataplane) under it."""
    monkeypatch.setitem(workloads_mod.WORKLOADS, "ctx-probe", (_build_ctx_probe, {}))
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "ctx-probe")
    with using(policy="multi", coalesce=False, graphs=False):
        res = job.run(workers=2)
    assert res.mode == "mp"
    assert len(res.results) == 4
    assert all(v == [("multi", False, False, "multi")] for v in res.results.values())


@pytest.mark.parametrize("workload", ["halo", "allreduce-node"])
def test_reference_run_matches_semantics(workload):
    """The single-heap baseline: same physics, no windows."""
    job = _job("fat-tree-32-r2-l2", workload, collect_steps=False)
    seq = job.run_sequential()
    ref = job.run_reference()
    assert ref.mode == "reference" and ref.windows == 0
    for field in (
        "machine", "workload", "messages", "msg_digest",
        "events_popped", "results", "t_end", "bytes_by_class",
    ):
        assert getattr(ref, field) == getattr(seq, field), field


def test_halo_results_report_every_gpu():
    result = _job("fat-tree-32-r2-l2", "halo", collect_steps=False).run()
    gpus = sorted(g for ranks in result.results.values() for g, _t in ranks)
    assert gpus == list(range(32))


# -- stats merge (satellite: deterministic STATS absorption) ------------------

def test_mp_stats_absorbed_into_module_stats():
    job = _job("fat-tree-32-r2-l2", "halo", collect_steps=False)
    STATS.reset()
    result = job.run(workers=2)
    snap = STATS.snapshot()
    assert snap["events_popped"] == result.events_popped
    assert snap["events_popped"] == sum(result.per_shard_popped)


# -- failure modes ------------------------------------------------------------

def _build_stuck(shard, cfg):
    def waiter():
        yield shard.recv(shard.gpu_base, ("never",))

    return [shard.engine.process(waiter(), name=f"stuck{shard.id}")]


def test_cross_shard_deadlock_detected(monkeypatch):
    monkeypatch.setitem(workloads_mod.WORKLOADS, "stuck", (_build_stuck, {}))
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "stuck")
    with pytest.raises(ClusterError, match="deadlock"):
        job.run()


def test_single_node_spec_rejected():
    single = local_spec(resolve_machine("fat-tree-32-r2-l2"), 0)
    with pytest.raises(SpecError, match="at least 2"):
        ClusterJob(single, "halo")


def test_unknown_workload_rejected():
    with pytest.raises(ClusterError, match="unknown workload"):
        ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "nope")


def test_zero_workers_rejected():
    job = _job("fat-tree-32-r2-l2", "halo", collect_steps=False)
    with pytest.raises(ClusterError, match=">= 1"):
        job.run(workers=0)


def test_workers_clamped_to_shard_count():
    result = _job("fat-tree-32-r2-l2", "halo", collect_steps=False).run(workers=64)
    assert result.workers == result.shards == 4


# -- scaling ------------------------------------------------------------------

@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 physical cores; this host cannot "
           "demonstrate it (window orchestration overhead is pinned to be "
           "near zero by the wall-clock parity of mp vs sequential runs)",
)
def test_mp_speedup_at_four_workers():
    job = ClusterJob(
        resolve_machine("fat-tree-512"), "halo", cfg={"iters": 4, "chunks": 2}
    )
    t0 = time.perf_counter()
    seq = job.run()
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    mp = job.run(workers=4)
    t_mp = time.perf_counter() - t0
    assert mp.signature() == seq.signature()
    assert t_seq / t_mp >= 1.8
