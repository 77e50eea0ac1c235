"""Partitioned reduce: binomial and flat (multi-incoming) schedules."""

import numpy as np
import pytest

from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MAX, NOP, SUM
from repro.mpi.world import World
from repro.pcoll.tree import binomial_reduce_schedule, flat_reduce_schedule


def _job(P, algorithm, root=0, op=SUM, U=4, chunk=32, config=None):
    config = config or (ONE_NODE if P <= 4 else PAPER_TESTBED)
    n = U * chunk

    def main(ctx):
        comm = ctx.comm
        buf = ctx.gpu.alloc(n, fill=float(ctx.rank + 1))
        req = yield from comm.preduce_init(
            buf, partitions=U, op=op, root=root, algorithm=algorithm
        )
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(U):
            yield from req.pready(u)
        yield from req.wait()
        return buf.data.copy()

    return World(config).run(main, nprocs=P)


@pytest.mark.parametrize("algorithm", ["binomial", "flat"])
@pytest.mark.parametrize("P", [2, 3, 4])
def test_reduce_sum_at_root(algorithm, P):
    res = _job(P, algorithm)
    assert np.all(res[0] == sum(range(1, P + 1)))


@pytest.mark.parametrize("algorithm", ["binomial", "flat"])
def test_reduce_nonzero_root(algorithm):
    res = _job(4, algorithm, root=3)
    assert np.all(res[3] == 10.0)


def test_reduce_max_op():
    res = _job(4, "flat", op=MAX)
    assert np.all(res[0] == 4.0)


def test_reduce_eight_ranks_binomial():
    res = _job(8, "binomial", root=5)
    assert np.all(res[5] == 36.0)


def test_flat_schedule_has_multi_incoming_step():
    """The flat root step carries all P-1 incoming neighbours at once."""
    s = flat_reduce_schedule(0, 8, SUM, root=0)
    assert len(s.steps) == 1
    assert len(s.steps[0].incoming) == 7
    assert s.steps[0].op is SUM
    leaf = flat_reduce_schedule(3, 8, SUM, root=0)
    assert leaf.steps[0].outgoing == (0,)
    assert leaf.steps[0].op is NOP


def test_binomial_schedule_structure():
    """Root receives log2(P) children over the rounds; leaves send once."""
    root = binomial_reduce_schedule(0, 8, SUM, root=0)
    assert root.all_outgoing() == []
    assert sorted(root.all_incoming()) == [1, 2, 4]
    leaf = binomial_reduce_schedule(7, 8, SUM, root=0)
    assert leaf.all_incoming() == []
    assert leaf.all_outgoing() == [6]  # 7 sends to 6 in round 0


def test_binomial_send_after_receives():
    """Rank 4 of 8 receives 5 and 6 before sending to 0 (round order)."""
    s = binomial_reduce_schedule(4, 8, SUM, root=0)
    rounds = [(st.incoming, st.outgoing) for st in s.steps]
    assert rounds[0] == ((5,), ())
    assert rounds[1] == ((6,), ())
    assert rounds[2] == ((), (0,))


def test_unknown_algorithm_rejected():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.preduce_init(ctx.gpu.alloc(16), 2, algorithm="magic")
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_reduce_random_payload_matches_numpy():
    rng = np.random.default_rng(7)
    n = 4 * 32
    inputs = {r: rng.standard_normal(n) for r in range(4)}

    def main(ctx):
        comm = ctx.comm
        buf = ctx.gpu.alloc(n)
        buf.data[:] = inputs[ctx.rank]
        req = yield from comm.preduce_init(buf, partitions=4, algorithm="binomial")
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(4):
            yield from req.pready(u)
        yield from req.wait()
        return buf.data.copy()

    res = World(ONE_NODE).run(main, nprocs=4)
    assert np.allclose(res[0], sum(inputs.values()))
