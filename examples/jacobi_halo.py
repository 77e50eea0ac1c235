#!/usr/bin/env python3
"""Multi-GPU Jacobi solver with partitioned halo exchange (paper Fig 8/9).

Solves the Laplace problem on four simulated GH200s (2x2 decomposition)
with both halo-exchange variants, verifies the distributed solution
against a serial solve, and reports GFLOP/s.

    python examples/jacobi_halo.py
"""

import numpy as np

from repro.apps.jacobi import JacobiConfig, process_grid, run_jacobi, serial_jacobi
from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.world import World


def run(config, nprocs, variant, copy_mode="pe", multiplier=2):
    cfg = JacobiConfig(
        multiplier=multiplier, base_tile=32, iters=60,
        variant=variant, copy_mode=copy_mode,
    )

    def main(ctx):
        return (yield from run_jacobi(ctx, cfg))

    results = World(config).run(main, nprocs=nprocs, args=())
    # ^ args are baked into cfg via closure

    # Verify against the serial reference.
    py, px = process_grid(nprocs)
    tile = cfg.tile
    glob = np.zeros((py * tile + 2, px * tile + 2))
    for res in results:
        ry, rx = res.coords
        glob[1 + ry * tile:1 + (ry + 1) * tile,
             1 + rx * tile:1 + (rx + 1) * tile] = res.local[1:-1, 1:-1]
    ref = serial_jacobi(py * tile, px * tile, cfg.iters)
    assert np.allclose(glob[1:-1, 1:-1], ref[1:-1, 1:-1]), "solution mismatch!"
    return min(r.gflops for r in results)


def main() -> None:
    for config, nprocs, label in ((ONE_NODE, 4, "4 GPUs / 1 node (2x2)"),
                                  (PAPER_TESTBED, 8, "8 GPUs / 2 nodes (4x2)")):
        trad = run(config, nprocs, "traditional")
        pe = run(config, nprocs, "partitioned", "pe")
        kc = run(config, nprocs, "partitioned", "kc_auto")
        print(f"{label}:")
        print(f"  traditional            : {trad:8.2f} GFLOP/s")
        print(f"  partitioned (PE)       : {pe:8.2f} GFLOP/s ({pe / trad:.2f}x)")
        print(f"  partitioned (KernelCpy): {kc:8.2f} GFLOP/s ({kc / trad:.2f}x)")
        print("  (all variants verified against the serial solver)")


if __name__ == "__main__":
    main()
