"""NCCL baseline: correctness, stream semantics, performance character."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MAX, SUM
from repro.mpi.world import World
from repro.nccl import NcclComm
from repro.nccl.allreduce import _pick_channels
from repro.units import us


def _job(P, n, op=SUM, config=None, epochs=1, values=None):
    config = config or (ONE_NODE if P <= 4 else PAPER_TESTBED)

    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        buf = ctx.gpu.alloc(n)
        outs = []
        for e in range(epochs):
            buf.data[:] = values(ctx.rank, e) if values else float(ctx.rank + 1)
            nccl.all_reduce(buf, buf, op)
            yield from ctx.gpu.sync_h()
            outs.append(buf.data.copy())
        return outs

    return World(config).run(main, nprocs=P)


@pytest.mark.parametrize("P", [2, 3, 4])
def test_allreduce_sum(P):
    for r in _job(P, 64 * P):
        assert np.all(r[0] == sum(range(1, P + 1)))


def test_allreduce_max():
    for r in _job(4, 256, op=MAX):
        assert np.all(r[0] == 4.0)


def test_allreduce_eight_ranks_two_nodes():
    for r in _job(8, 1024, config=PAPER_TESTBED):
        assert np.all(r[0] == 36.0)


def test_multiple_calls_in_sequence():
    res = _job(4, 256, epochs=3, values=lambda r, e: float(r + 1 + e))
    for r in res:
        for e in range(3):
            assert np.all(r[e] == sum(x + 1 + e for x in range(4)))


def test_single_rank_copy():
    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        src = ctx.gpu.alloc(16, fill=3.0)
        dst = ctx.gpu.alloc(16)
        nccl.all_reduce(src, dst)
        yield from ctx.gpu.sync_h()
        assert np.all(dst.data == 3.0)
        return True

    assert World(ONE_NODE).run(main, nprocs=1) == [True]


def test_out_of_place():
    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        src = ctx.gpu.alloc(64, fill=float(ctx.rank + 1))
        dst = ctx.gpu.alloc(64)
        nccl.all_reduce(src, dst)
        yield from ctx.gpu.sync_h()
        assert np.all(dst.data == 10.0)
        assert np.all(src.data == float(ctx.rank + 1))
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_requires_device_buffers():
    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        with pytest.raises(MpiUsageError):
            nccl.all_reduce(ctx.gpu.alloc_pinned(8), ctx.gpu.alloc_pinned(8))
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_count_must_divide_ranks():
    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        with pytest.raises(MpiUsageError):
            nccl.all_reduce(ctx.gpu.alloc(7), ctx.gpu.alloc(7))
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_enqueued_on_stream_not_blocking_host():
    """all_reduce returns immediately; sync waits for completion."""

    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        buf = ctx.gpu.alloc(1 << 18, fill=1.0)
        t0 = ctx.now
        nccl.all_reduce(buf, buf)
        host_cost = ctx.now - t0
        yield from ctx.gpu.sync_h()
        total = ctx.now - t0
        return host_cost, total

    res = World(ONE_NODE).run(main, nprocs=4)
    for host_cost, total in res:
        assert host_cost == 0.0
        assert total > 10 * us


def test_no_per_step_syncs_beats_partitioned():
    """NCCL must beat the partitioned allreduce (paper Fig 6)."""
    from repro.bench.coll import measure_allreduce

    nccl_t = measure_allreduce(1024, "nccl", ONE_NODE, 4)
    part_t = measure_allreduce(1024, "partitioned", ONE_NODE, 4)
    assert nccl_t < part_t


def test_pick_channels():
    assert _pick_channels(512) == 1        # below min granularity
    assert _pick_channels(8192) == 8
    assert _pick_channels(3 * 1024) == 3   # must divide
    assert _pick_channels(1) == 1


@given(
    P=st.sampled_from([2, 4]),
    n_factor=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_property_nccl_equals_numpy_sum(P, n_factor, seed):
    rng = np.random.default_rng(seed)
    n = P * 32 * n_factor
    inputs = {r: rng.standard_normal(n) for r in range(P)}

    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        buf = ctx.gpu.alloc(n)
        buf.data[:] = inputs[ctx.rank]
        nccl.all_reduce(buf, buf)
        yield from ctx.gpu.sync_h()
        return buf.data.copy()

    results = World(ONE_NODE).run(main, nprocs=P)
    expected = sum(inputs.values())
    for r in results:
        assert np.allclose(r, expected)
