"""Traditional collectives: correctness + baseline cost structure."""

import numpy as np
import pytest

from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MAX, MIN, PROD, SUM
from repro.mpi.world import World
from repro.units import us


def test_barrier_synchronizes():
    arrivals = []

    def main(ctx):
        yield ctx.engine.timeout(ctx.rank * 10 * us)  # staggered entry
        yield from ctx.comm.barrier()
        arrivals.append((ctx.rank, ctx.now))

    World(ONE_NODE).run(main, nprocs=4)
    times = [t for _r, t in arrivals]
    assert max(times) - min(times) < 5 * us  # everyone leaves together-ish
    assert min(times) >= 30 * us             # nobody leaves before the last entry


def test_barrier_single_rank():
    def main(ctx):
        yield from ctx.comm.barrier()
        return True

    assert World(ONE_NODE).run(main, nprocs=1) == [True]


@pytest.mark.parametrize("root", [0, 1, 3])
def test_bcast_from_any_root(root):
    def main(ctx):
        buf = ctx.gpu.alloc_pinned(32, fill=float(ctx.rank * 100))
        if ctx.rank == root:
            buf.data[:] = 77.0
        yield from ctx.comm.bcast(buf, root=root)
        assert np.all(buf.data == 77.0)

    World(ONE_NODE).run(main, nprocs=4)


def test_bcast_bad_root():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.bcast(ctx.gpu.alloc_pinned(4), root=9)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


@pytest.mark.parametrize("op,expected", [
    (SUM, 1.0 + 2.0 + 3.0 + 4.0),
    (PROD, 24.0),
    (MAX, 4.0),
    (MIN, 1.0),
])
def test_allreduce_ops_host(op, expected):
    def main(ctx):
        sbuf = ctx.gpu.alloc_pinned(128, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc_pinned(128)
        yield from ctx.comm.allreduce(sbuf, rbuf, op)
        assert np.all(rbuf.data == expected)

    World(ONE_NODE).run(main, nprocs=4)


def test_allreduce_device_buffers_correct():
    def main(ctx):
        sbuf = ctx.gpu.alloc(4096, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc(4096)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.all(rbuf.data == 10.0)
        return ctx.now

    World(ONE_NODE).run(main, nprocs=4)


def test_allreduce_device_pays_bounce_penalty():
    """Device-buffer allreduce must cost far more than host-buffer."""

    def main(ctx, space):
        n = 1 << 17
        if space == "device":
            sbuf, rbuf = ctx.gpu.alloc(n, fill=1.0), ctx.gpu.alloc(n)
        else:
            sbuf, rbuf = ctx.gpu.alloc_pinned(n, fill=1.0), ctx.gpu.alloc_pinned(n)
        t0 = ctx.now
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        return ctx.now - t0

    t_dev = max(World(ONE_NODE).run(main, nprocs=4, args=("device",)))
    t_host = max(World(ONE_NODE).run(main, nprocs=4, args=("host",)))
    assert t_dev > 3 * t_host


def test_allreduce_mismatched_sizes():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.allreduce(ctx.gpu.alloc(8), ctx.gpu.alloc(16), SUM)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_allreduce_single_rank_copies():
    def main(ctx):
        sbuf = ctx.gpu.alloc(16, fill=3.0)
        rbuf = ctx.gpu.alloc(16)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.all(rbuf.data == 3.0)

    World(ONE_NODE).run(main, nprocs=1)


@pytest.mark.parametrize("root", [0, 2])
def test_reduce_to_root(root):
    def main(ctx):
        sbuf = ctx.gpu.alloc_pinned(64, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc_pinned(64) if ctx.rank == root else None
        yield from ctx.comm.reduce(sbuf, rbuf, SUM, root=root)
        if ctx.rank == root:
            assert np.all(rbuf.data == 10.0)

    World(ONE_NODE).run(main, nprocs=4)


def test_allgather():
    def main(ctx):
        chunk = 16
        sbuf = ctx.gpu.alloc_pinned(chunk, fill=float(ctx.rank))
        rbuf = ctx.gpu.alloc_pinned(chunk * ctx.size)
        yield from ctx.comm.allgather(sbuf, rbuf)
        for r in range(ctx.size):
            assert np.all(rbuf.data[r * chunk:(r + 1) * chunk] == float(r))

    World(ONE_NODE).run(main, nprocs=4)


def test_allreduce_eight_ranks_two_nodes():
    def main(ctx):
        sbuf = ctx.gpu.alloc(1024, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc(1024)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.all(rbuf.data == sum(range(1, 9)))

    World(PAPER_TESTBED).run(main, nprocs=8)
