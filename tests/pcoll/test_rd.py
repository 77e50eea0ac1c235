"""Recursive-doubling allreduce schedule + execution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spec import ONE_NODE
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MAX, SUM
from repro.mpi.world import World
from repro.pcoll.rd import recursive_doubling_allreduce_schedule, verify_rd_completion


def test_schedule_structure():
    s = recursive_doubling_allreduce_schedule(5, 8)
    assert s.n_steps == 3
    assert s.n_chunks == 1
    partners = [st.incoming[0] for st in s.steps]
    assert partners == [5 ^ 1, 5 ^ 2, 5 ^ 4]
    for step in s.steps:
        assert step.incoming == step.outgoing
        assert step.op is SUM


def test_power_of_two_required():
    with pytest.raises(MpiUsageError, match="power-of-two"):
        recursive_doubling_allreduce_schedule(0, 6)


def test_needs_two_ranks():
    with pytest.raises(MpiUsageError):
        recursive_doubling_allreduce_schedule(0, 1)


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_static_completion(p):
    assert verify_rd_completion(p)


@given(p_log=st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_property_completion(p_log):
    assert verify_rd_completion(1 << p_log)


def _run_rd(P, n=256, op=SUM, U=2, config=None):
    config = config or ONE_NODE

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n, fill=float(ctx.rank + 1))
        req = yield from comm.pallreduce_init(
            w, w, partitions=U, op=op, algorithm="recursive_doubling", device=ctx.gpu
        )
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(U):
            yield from req.pready(u)
        yield from req.wait()
        return w.data.copy()

    return World(config).run(main, nprocs=P)


@pytest.mark.parametrize("P", [2, 4])
def test_rd_allreduce_sum(P):
    for r in _run_rd(P):
        assert np.all(r == sum(range(1, P + 1)))


def test_rd_allreduce_max():
    for r in _run_rd(4, op=MAX):
        assert np.all(r == 4.0)


def test_rd_eight_ranks_two_nodes():
    from repro.hw.spec import PAPER_TESTBED

    for r in _run_rd(8, config=PAPER_TESTBED):
        assert np.all(r == 36.0)


def test_rd_random_payload():
    rng = np.random.default_rng(3)
    n = 128
    inputs = {r: rng.standard_normal(n) for r in range(4)}

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n)
        w.data[:] = inputs[ctx.rank]
        req = yield from comm.pallreduce_init(
            w, w, partitions=2, algorithm="recursive_doubling", device=ctx.gpu
        )
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(2):
            yield from req.pready(u)
        yield from req.wait()
        return w.data.copy()

    for r in World(ONE_NODE).run(main, nprocs=4):
        assert np.allclose(r, sum(inputs.values()))


def test_rd_faster_than_ring_for_small_messages():
    from repro.units import us

    def run(alg):
        def main(ctx):
            comm = ctx.comm
            w = ctx.gpu.alloc(64, fill=1.0)
            req = yield from comm.pallreduce_init(
                w, w, partitions=1, algorithm=alg, device=ctx.gpu
            )
            yield from req.start()
            yield from req.pbuf_prepare()
            t0 = ctx.now
            yield from req.pready(0)
            yield from req.wait()
            return ctx.now - t0

        return max(World(ONE_NODE).run(main, nprocs=4))

    assert run("recursive_doubling") < run("ring")
