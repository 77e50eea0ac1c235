"""Fused device-side partitioned allreduce (the Section VI-B extension)."""

import numpy as np
import pytest

from repro.cuda.kernel import UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.ops import MAX, SUM
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.pcoll.fused import FusedPallreduce, fused_pallreduce_init


def _job(P, U, chunk=64, epochs=1, op=SUM, values=None, via_comm=False):
    n = U * P * chunk

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n)
        if via_comm:
            req = yield from comm.pallreduce_init(
                w, w, partitions=U, op=op, device=ctx.gpu, fused=True
            )
        else:
            req = yield from fused_pallreduce_init(comm, w, w, U, op, ctx.gpu)
        outs = []
        for e in range(epochs):
            w.data[:] = values(ctx.rank, e) if values else float(ctx.rank + 1)
            yield from req.start()
            yield from req.pbuf_prepare()
            for u in range(U):
                yield from req.pready(u)
            yield from req.wait()
            outs.append(w.data.copy())
        return outs

    return World(ONE_NODE).run(main, nprocs=P)


@pytest.mark.parametrize("P,U", [(2, 1), (2, 4), (3, 2), (4, 8)])
def test_fused_sum(P, U):
    for r in _job(P, U):
        assert np.all(r[0] == sum(range(1, P + 1)))


def test_fused_via_comm_api():
    for r in _job(4, 4, via_comm=True):
        assert np.all(r[0] == 10.0)


def test_fused_max():
    for r in _job(4, 2, op=MAX):
        assert np.all(r[0] == 4.0)


def test_fused_multi_epoch():
    res = _job(4, 2, epochs=3, values=lambda r, e: float(r + 1 + 5 * e))
    for r in res:
        for e in range(3):
            assert np.all(r[e] == sum(x + 1 + 5 * e for x in range(4)))


def test_fused_nonuniform_payload():
    n = 4 * 2 * 32

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n)
        w.data[:] = np.arange(n) + 1000 * ctx.rank
        req = yield from fused_pallreduce_init(comm, w, w, 2, SUM, ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(2):
            yield from req.pready(u)
        yield from req.wait()
        return w.data.copy()

    results = World(ONE_NODE).run(main, nprocs=4)
    expected = sum(np.arange(n) + 1000 * r for r in range(4))
    for r in results:
        assert np.allclose(r, expected)


def test_fused_rejects_cross_node_clique():
    def main(ctx):
        comm = ctx.comm
        n = 8 * 8 * 8
        w = ctx.gpu.alloc(n)
        with pytest.raises(MpiUsageError, match="NVLink"):
            yield from fused_pallreduce_init(comm, w, w, 8, SUM, ctx.gpu)
        return True

    assert all(World(PAPER_TESTBED).run(main, nprocs=8))


def test_fused_requires_in_place():
    def main(ctx):
        comm = ctx.comm
        with pytest.raises(MpiUsageError, match="in-place"):
            yield from fused_pallreduce_init(
                comm, ctx.gpu.alloc(64), ctx.gpu.alloc(64), 2, SUM, ctx.gpu
            )
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_fused_pready_semantics_enforced():
    def main(ctx):
        comm = ctx.comm
        n = 4 * 2 * 16
        w = ctx.gpu.alloc(n, fill=1.0)
        req = yield from fused_pallreduce_init(comm, w, w, 2, SUM, ctx.gpu)
        with pytest.raises(MpiStateError):
            req.issue_user_pready(0)   # before start
        yield from req.start()
        yield from req.pbuf_prepare()
        yield from req.pready(0)
        with pytest.raises(MpiStateError, match="twice"):
            yield from req.pready(0)
        with pytest.raises(MpiUsageError):
            yield from req.pready(7)
        yield from req.pready(1)
        yield from req.wait()
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_fused_device_driven():
    def main(ctx):
        comm = ctx.comm
        grid, block = 16, 1024
        w = ctx.gpu.alloc(grid * block, fill=float(ctx.rank + 1))
        req = yield from fused_pallreduce_init(comm, w, w, 4, SUM, ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        preq = yield from req.prequest_create(ctx.gpu, grid=grid, block=block)
        k = UniformKernel(grid, block, WorkSpec.vector_add(),
                          wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv))
        yield from ctx.gpu.launch_h(k)
        yield from req.wait()
        assert np.all(w.data == 10.0)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_fused_beats_host_progressed_collective():
    """The headline prediction: fused closes the gap to NCCL."""
    from repro.bench.coll import measure_allreduce
    from repro.cuda import UniformKernel as UK

    def fused_main(ctx):
        comm = ctx.comm
        grid = 1024
        w = ctx.gpu.alloc(grid * 1024)
        req = yield from fused_pallreduce_init(comm, w, w, 8, SUM, ctx.gpu)
        preq = None
        times = []
        for _ in range(2):
            w.data[:] = 1.0
            yield from req.start()
            yield from req.pbuf_prepare()
            if preq is None:
                preq = yield from req.prequest_create(ctx.gpu, grid=grid, block=1024)
            yield from comm.barrier()
            t0 = ctx.now
            k = UK(grid, 1024, WorkSpec.vector_add(),
                   wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv))
            yield from ctx.gpu.launch_h(k)
            yield from req.wait()
            times.append(ctx.now - t0)
        return times

    per_rank = World(ONE_NODE).run(fused_main, nprocs=4)
    fused_t = max(col[-1] for col in per_rank)
    pe_t = measure_allreduce(1024, "partitioned", ONE_NODE, 4)
    nccl_t = measure_allreduce(1024, "nccl", ONE_NODE, 4)
    assert fused_t < pe_t * 0.6
    assert fused_t < nccl_t * 1.2


def test_fused_parrived():
    def main(ctx):
        comm = ctx.comm
        n = 4 * 2 * 16
        w = ctx.gpu.alloc(n, fill=1.0)
        req = yield from fused_pallreduce_init(comm, w, w, 2, SUM, ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        assert not req.parrived(0)
        for u in range(2):
            yield from req.pready(u)
        yield from req.wait()
        assert req.parrived(0) and req.parrived(1)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))
