"""World/launcher: rank placement, init costs, request plumbing."""

import pytest

from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiUsageError
from repro.mpi.requests import Request, waitall
from repro.mpi.world import World
from repro.units import us


def test_rank_to_gpu_mapping():
    """Rank r runs on GPU r: ranks 0-3 node 0, ranks 4-7 node 1."""

    def main(ctx):
        yield ctx.engine.timeout(0)
        return (ctx.rank, ctx.gpu.gpu_id, ctx.gpu.node)

    res = World(PAPER_TESTBED).run(main, nprocs=8)
    for r, gpu_id, node in res:
        assert gpu_id == r
        assert node == (0 if r < 4 else 1)


def test_results_ordered_by_rank():
    def main(ctx):
        yield ctx.engine.timeout((8 - ctx.rank) * us)  # finish out of order
        return ctx.rank

    assert World(PAPER_TESTBED).run(main, nprocs=8) == list(range(8))


def test_nprocs_bounds():
    def main(ctx):
        yield ctx.engine.timeout(0)

    with pytest.raises(MpiUsageError):
        World(ONE_NODE).run(main, nprocs=5)
    with pytest.raises(MpiUsageError):
        World(ONE_NODE).run(main, nprocs=0)


def test_args_passed_through():
    def main(ctx, a, b):
        yield ctx.engine.timeout(0)
        return a + b + ctx.rank

    assert World(ONE_NODE).run(main, nprocs=2, args=(10, 20)) == [30, 31]


def test_init_charges_time():
    def main(ctx):
        yield ctx.engine.timeout(0)
        return ctx.now

    times = World(ONE_NODE).run(main, nprocs=2)
    # MPI_Init (ucp context + worker) takes ~10us before main body runs.
    assert all(t >= 9 * us for t in times)


def test_ctx_fields():
    def main(ctx):
        yield ctx.engine.timeout(0)
        assert ctx.size == 3
        assert ctx.comm.size == 3
        assert ctx.comm.rank == ctx.rank
        assert ctx.mpi.initialized
        assert ctx.params is ctx.world.fabric.spec.params
        return True

    assert all(World(ONE_NODE).run(main, nprocs=3))


def test_request_double_complete_rejected(one_node_world):
    rt_holder = {}

    def main(ctx):
        yield ctx.engine.timeout(0)
        rt_holder["rt"] = ctx.mpi
        return True

    one_node_world.run(main, nprocs=1)
    req = Request(rt_holder["rt"], "test")
    req._complete()
    from repro.mpi.errors import MpiStateError

    with pytest.raises(MpiStateError):
        req._complete()


def test_waitall_empty_and_completed(one_node_world):
    def main(ctx):
        sreq = yield from ctx.comm.isend(ctx.gpu.alloc_pinned(4), dest=1)
        yield from waitall(ctx.mpi, [sreq])
        yield from waitall(ctx.mpi, [])  # no-op
        return True

    def main2(ctx):
        if ctx.rank == 0:
            return (yield from main(ctx))
        rbuf = ctx.gpu.alloc_pinned(4)
        yield from ctx.comm.recv(rbuf, source=0)
        return True

    assert all(one_node_world.run(main2, nprocs=2))


def test_two_sequential_jobs_on_separate_worlds():
    def main(ctx):
        yield from ctx.comm.barrier()
        return ctx.now

    t1 = World(ONE_NODE).run(main, nprocs=4)
    t2 = World(ONE_NODE).run(main, nprocs=4)
    assert t1 == t2  # determinism across identical worlds
