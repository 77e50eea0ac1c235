"""Property-based stress: random p2p traffic patterns deliver intact."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spec import ONE_NODE
from repro.mpi.requests import waitall
from repro.mpi.world import World

message = st.tuples(
    st.integers(min_value=1, max_value=2048),   # element count
    st.integers(min_value=0, max_value=3),      # tag
    st.booleans(),                              # device buffer?
)


@given(msgs=st.lists(message, min_size=1, max_size=12), recv_shuffle=st.randoms())
@settings(max_examples=25, deadline=None)
def test_property_random_traffic_delivers_intact(msgs, recv_shuffle):
    """Rank 0 isends a random batch; rank 1 receives in per-tag order but
    random tag interleaving.  Every payload arrives exactly as sent."""
    # Per-tag FIFO is the MPI guarantee; build expected sequences per tag.
    by_tag = {}
    for i, (n, tag, dev) in enumerate(msgs):
        by_tag.setdefault(tag, []).append((i, n, dev))
    tag_order = list(by_tag)
    recv_shuffle.shuffle(tag_order)

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            reqs = []
            for i, (n, tag, dev) in enumerate(msgs):
                alloc = ctx.gpu.alloc if dev else ctx.gpu.alloc_pinned
                buf = alloc(n, fill=float(i + 1))
                r = yield from comm.isend(buf, dest=1, tag=tag)
                reqs.append(r)
            yield from waitall(ctx.mpi, reqs)
            return None
        results = {}
        for tag in tag_order:
            for i, n, dev in by_tag[tag]:
                alloc = ctx.gpu.alloc if dev else ctx.gpu.alloc_pinned
                rbuf = alloc(n)
                yield from comm.recv(rbuf, source=0, tag=tag)
                results[i] = rbuf.data.copy()
        return results

    _, received = World(ONE_NODE).run(main, nprocs=2)
    for i, (n, _tag, _dev) in enumerate(msgs):
        assert len(received[i]) == n
        assert np.all(received[i] == float(i + 1)), f"message {i} corrupted"


@given(
    partitions=st.integers(min_value=1, max_value=16),
    order_seed=st.randoms(),
    epochs=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_property_pready_any_order_any_epochs(partitions, order_seed, epochs):
    """Host MPI_Pready in arbitrary partition order, over several epochs,
    always delivers every partition's bytes exactly once."""
    n = partitions * 8
    order = list(range(partitions))
    order_seed.shuffle(order)

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n)
            sreq = yield from comm.psend_init(sbuf, partitions, dest=1, tag=0)
            for e in range(epochs):
                for p in range(partitions):
                    sbuf.partition(p, partitions).data[:] = 100.0 * e + p
                yield from sreq.start()
                yield from sreq.pbuf_prepare()
                for p in order:
                    yield from sreq.pready(p)
                yield from sreq.wait()
            return None
        rbuf = ctx.gpu.alloc(n)
        rreq = yield from comm.precv_init(rbuf, partitions, source=0, tag=0)
        snaps = []
        for e in range(epochs):
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()
            snaps.append(rbuf.data.copy())
        return snaps

    _, snaps = World(ONE_NODE).run(main, nprocs=2)
    for e, snap in enumerate(snaps):
        expected = np.repeat(100.0 * e + np.arange(partitions), 8)
        assert np.array_equal(snap, expected)
