"""Persistent standard p2p (Send_init/Recv_init) and comm dup/split."""

import numpy as np
import pytest

from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiStateError
from repro.mpi.world import World


# -- persistent p2p ---------------------------------------------------------

def test_persistent_send_recv_epochs():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            buf = ctx.gpu.alloc_pinned(16)
            req = yield from comm.send_init(buf, dest=1, tag=4)
            for e in range(4):
                buf.data[:] = float(e)
                yield from req.start()
                yield from req.wait()
            return True
        buf = ctx.gpu.alloc_pinned(16)
        req = yield from comm.recv_init(buf, source=0, tag=4)
        got = []
        for e in range(4):
            yield from req.start()
            yield from req.wait()
            got.append(buf.data[0])
        assert got == [0.0, 1.0, 2.0, 3.0]
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_persistent_rendezvous_device_buffers():
    def main(ctx):
        comm = ctx.comm
        n = 4096
        if ctx.rank == 0:
            buf = ctx.gpu.alloc(n)
            req = yield from comm.send_init(buf, dest=1, tag=0)
            for e in range(2):
                buf.data[:] = float(e + 1)
                yield from req.start()
                yield from req.wait()
            return True
        buf = ctx.gpu.alloc(n)
        req = yield from comm.recv_init(buf, source=0, tag=0)
        for e in range(2):
            yield from req.start()
            yield from req.wait()
            assert np.all(buf.data == float(e + 1))
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_persistent_start_while_active_rejected():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            buf = ctx.gpu.alloc(1024)
            req = yield from comm.send_init(buf, dest=1)
            yield from req.start()
            with pytest.raises(MpiStateError):
                yield from req.start()
            yield from req.wait()
            return True
        buf = ctx.gpu.alloc(1024)
        rreq = yield from comm.recv_init(buf, source=0)
        yield from rreq.start()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_persistent_mixes_with_plain_p2p():
    """A persistent recv matches a plain send (matching is by envelope)."""

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            yield from comm.send(ctx.gpu.alloc_pinned(8, fill=5.0), dest=1, tag=9)
            return True
        buf = ctx.gpu.alloc_pinned(8)
        req = yield from comm.recv_init(buf, source=0, tag=9)
        yield from req.start()
        yield from req.wait()
        assert np.all(buf.data == 5.0)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


# -- dup / split --------------------------------------------------------------

def test_dup_preserves_group_isolates_traffic():
    def main(ctx):
        comm = ctx.comm
        dup = yield from comm.dup()
        assert dup.comm_id != comm.comm_id
        assert dup.size == comm.size and dup.rank == comm.rank
        # Same tag on both communicators: no cross-talk.
        if ctx.rank == 0:
            yield from comm.send(ctx.gpu.alloc_pinned(4, fill=1.0), dest=1, tag=0)
            yield from dup.send(ctx.gpu.alloc_pinned(4, fill=2.0), dest=1, tag=0)
            return True
        b_dup = ctx.gpu.alloc_pinned(4)
        b_orig = ctx.gpu.alloc_pinned(4)
        yield from dup.recv(b_dup, source=0, tag=0)
        yield from comm.recv(b_orig, source=0, tag=0)
        assert b_dup.data[0] == 2.0 and b_orig.data[0] == 1.0
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_split_by_parity():
    def main(ctx):
        comm = ctx.comm
        sub = yield from comm.split(color=ctx.rank % 2)
        assert sub.size == 2
        assert sub.rank == ctx.rank // 2
        # Collectives work inside the subgroup.
        sbuf = ctx.gpu.alloc_pinned(8, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc_pinned(8)
        yield from sub.allreduce(sbuf, rbuf)
        expect = (1 + 3) if ctx.rank % 2 == 0 else (2 + 4)
        assert np.all(rbuf.data == expect)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_split_key_reorders():
    def main(ctx):
        sub = yield from ctx.comm.split(color=0, key=-ctx.rank)
        return sub.rank

    ranks = World(ONE_NODE).run(main, nprocs=4)
    assert ranks == [3, 2, 1, 0]


def test_split_undefined_color():
    def main(ctx):
        sub = yield from ctx.comm.split(color=0 if ctx.rank < 2 else -1)
        if ctx.rank < 2:
            assert sub is not None and sub.size == 2
        else:
            assert sub is None
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_sequential_splits_get_distinct_ids():
    def main(ctx):
        a = yield from ctx.comm.split(color=0)
        b = yield from ctx.comm.split(color=0)
        assert a.comm_id != b.comm_id
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_partitioned_channel_on_split_comm():
    """The paper's API works on derived communicators too."""

    def main(ctx):
        sub = yield from ctx.comm.split(color=ctx.rank % 2)
        if sub.rank == 0:
            sbuf = ctx.gpu.alloc(64, fill=float(ctx.rank))
            sreq = yield from sub.psend_init(sbuf, 2, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            for i in range(2):
                yield from sreq.pready(i)
            yield from sreq.wait()
            return None
        rbuf = ctx.gpu.alloc(64)
        rreq = yield from sub.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return rbuf.data[0]

    res = World(ONE_NODE).run(main, nprocs=4)
    assert res[2] == 0.0   # rank 2 is rank 1 of the even subgroup (root 0)
    assert res[3] == 1.0   # rank 3 receives from rank 1
