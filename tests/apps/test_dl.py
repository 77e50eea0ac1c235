"""DL proxy: gradient agreement across variants, loss descent, timing."""

import numpy as np
import pytest

from repro.apps.dl import DlConfig, run_dl
from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiUsageError
from repro.mpi.world import World


def _main(ctx, cfg):
    return (yield from run_dl(ctx, cfg))


def _run(variant, grid=16, steps=3, nprocs=4, config=ONE_NODE, partitions=8):
    cfg = DlConfig(grid=grid, block=1024, steps=steps, variant=variant,
                   partitions=partitions)
    return World(config).run(_main, nprocs=nprocs, args=(cfg,))


@pytest.mark.parametrize("variant", ["traditional", "partitioned", "nccl"])
def test_loss_decreases(variant):
    results = _run(variant)
    for r in results:
        assert len(r.losses) == 3
        assert all(b <= a + 1e-12 for a, b in zip(r.losses, r.losses[1:]))


def test_all_variants_compute_identical_gradients():
    """Communication mechanism must not change the numerics."""
    grads = {v: _run(v)[0].grad for v in ("traditional", "partitioned", "nccl")}
    assert np.allclose(grads["traditional"], grads["partitioned"])
    assert np.allclose(grads["traditional"], grads["nccl"])


def test_all_ranks_agree_on_allreduced_gradient():
    for variant in ("traditional", "partitioned", "nccl"):
        results = _run(variant)
        base = results[0].grad
        for r in results[1:]:
            assert np.allclose(r.grad, base)


def test_losses_identical_across_ranks_given_seeded_shards():
    """Each rank trains on its own shard but shares weights, so losses
    differ across ranks yet evolve consistently (all decrease)."""
    results = _run("nccl")
    assert len({round(r.losses[1], 9) for r in results}) == len(results)


def test_variant_timing_ordering():
    # The paper evaluates large kernels (the app is collective-bound);
    # below ~256 blocks the partitioned path's fixed per-step costs
    # exceed the traditional staging penalty and the ordering flips.
    t = {v: max(r.time for r in _run(v, grid=256)) for v in
         ("traditional", "partitioned", "nccl")}
    assert t["traditional"] > t["partitioned"] > t["nccl"]


def test_goodput_reported():
    r = _run("nccl")[0]
    n_bytes = 16 * 1024 * 8 * 3
    assert r.goodput == pytest.approx(n_bytes / r.time)


def test_two_nodes_eight_ranks():
    results = _run("partitioned", nprocs=8, config=PAPER_TESTBED)
    base = results[0].grad
    for r in results[1:]:
        assert np.allclose(r.grad, base)


def test_unknown_variant_rejected():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from run_dl(ctx, DlConfig(variant="sgd"))
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))
