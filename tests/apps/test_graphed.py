"""Graph-captured app variants: same numerics and clock as eager paths."""

import numpy as np
import pytest

from repro.apps.dl import DlConfig, run_dl
from repro.apps.jacobi import JacobiConfig, run_jacobi, serial_jacobi
from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.world import World
from repro.sim.context import using


def _jacobi(ctx, cfg):
    return (yield from run_jacobi(ctx, cfg))


def _dl(ctx, cfg):
    return (yield from run_dl(ctx, cfg))


def _assemble(results, tile, py, px):
    glob = np.zeros((py * tile + 2, px * tile + 2))
    for res in results:
        ry, rx = res.coords
        glob[1 + ry * tile:1 + (ry + 1) * tile,
             1 + rx * tile:1 + (rx + 1) * tile] = res.local[1:-1, 1:-1]
    return glob


def test_jacobi_graphed_matches_serial_4_ranks():
    cfg = JacobiConfig(multiplier=1, base_tile=16, iters=10, variant="graphed")
    results = World(ONE_NODE).run(_jacobi, nprocs=4, args=(cfg,))
    glob = _assemble(results, cfg.tile, 2, 2)
    ref = serial_jacobi(2 * cfg.tile, 2 * cfg.tile, cfg.iters)
    assert np.allclose(glob[1:-1, 1:-1], ref[1:-1, 1:-1])


def test_jacobi_graphed_matches_serial_8_ranks_two_nodes():
    cfg = JacobiConfig(multiplier=1, base_tile=8, iters=8, variant="graphed")
    results = World(PAPER_TESTBED).run(_jacobi, nprocs=8, args=(cfg,))
    glob = _assemble(results, cfg.tile, 4, 2)
    ref = serial_jacobi(4 * cfg.tile, 2 * cfg.tile, cfg.iters)
    assert np.allclose(glob[1:-1, 1:-1], ref[1:-1, 1:-1])


def test_jacobi_graphed_time_identical_without_graphs():
    cfg = JacobiConfig(multiplier=1, base_tile=8, iters=6, variant="graphed")

    def solve():
        return World(ONE_NODE).run(_jacobi, nprocs=4, args=(cfg,))

    on = solve()
    with using(graphs=False):
        off = solve()
    assert [r.time for r in on] == [r.time for r in off]
    for a, b in zip(on, off):
        assert np.allclose(a.local, b.local)


def test_dl_graphed_matches_nccl_numerics():
    def run(variant):
        cfg = DlConfig(grid=16, block=1024, steps=3, variant=variant)
        return World(ONE_NODE).run(_dl, nprocs=4, args=(cfg,))

    graphed = run("graphed")
    nccl = run("nccl")
    assert np.allclose(graphed[0].grad, nccl[0].grad)
    for g, n in zip(graphed, nccl):
        assert g.losses == pytest.approx(n.losses)
    base = graphed[0].grad
    for r in graphed[1:]:
        assert np.allclose(r.grad, base)


def test_dl_graphed_time_identical_without_graphs():
    def run():
        cfg = DlConfig(grid=16, block=1024, steps=3, variant="graphed")
        return World(ONE_NODE).run(_dl, nprocs=4, args=(cfg,))

    on = run()
    with using(graphs=False):
        off = run()
    assert [r.time for r in on] == [r.time for r in off]
    for a, b in zip(on, off):
        assert a.losses == b.losses
        assert np.allclose(a.grad, b.grad)
