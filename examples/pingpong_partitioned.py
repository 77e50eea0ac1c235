#!/usr/bin/env python3
"""Compare the three communication models on a GPU ping workload.

Sweeps kernel grid sizes and prints intra-node goodput for:

* traditional MPI_Send/Recv after cudaStreamSynchronize (Listing 1),
* GPU-initiated partitioned, Progression-Engine copies,
* GPU-initiated partitioned, Kernel-Copy (direct NVLink stores),

i.e. a compact regeneration of the paper's Fig 4 plus the inter-node
Fig 5 columns.

    python examples/pingpong_partitioned.py
"""

from repro.bench.p2p import TWO_NODE_PAIR, measure_p2p_goodput
from repro.hw.spec import ONE_NODE
from repro.units import GBps

GRIDS = (1, 16, 256, 2048, 32768)


def main() -> None:
    print("intra-node (two GH200, one node)  [GB/s]")
    print(f"{'grid':>7} {'send/recv':>10} {'PE':>8} {'kernel copy':>12} "
          f"{'PE x':>6} {'KC x':>6}")
    for grid in GRIDS:
        tr = measure_p2p_goodput(grid, "sendrecv", ONE_NODE)
        pe = measure_p2p_goodput(grid, "progression", ONE_NODE)
        kc = measure_p2p_goodput(grid, "kernel_copy", ONE_NODE)
        print(f"{grid:>7} {tr / GBps:>10.2f} {pe / GBps:>8.2f} {kc / GBps:>12.2f} "
              f"{pe / tr:>6.2f} {kc / tr:>6.2f}")

    print("\ninter-node (two GH200, two nodes)  [GB/s]")
    print(f"{'grid':>7} {'send/recv':>10} {'PE':>8} {'PE x':>6}")
    for grid in GRIDS:
        tr = measure_p2p_goodput(grid, "sendrecv", TWO_NODE_PAIR)
        pe = measure_p2p_goodput(grid, "progression", TWO_NODE_PAIR)
        print(f"{grid:>7} {tr / GBps:>10.2f} {pe / GBps:>8.2f} {pe / tr:>6.2f}")

    print("\npaper's claims: intra PE<=1.28x shrinking to ~1.0x; "
          "KC 2.34x -> 1.06x; inter 2.80x -> 1.17x")


if __name__ == "__main__":
    main()
