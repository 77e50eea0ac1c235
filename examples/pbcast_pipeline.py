#!/usr/bin/env python3
"""Partitioned broadcast: the generic schedule on an all-NOP collective.

Demonstrates the schedule generality the paper argues for (Section IV-B):
the same machinery that runs the ring allreduce executes a binomial-tree
broadcast — with *partition pipelining*: the root releases its user
partitions one at a time, and each flows down the tree independently,
long before the last partition is even ready.

    python examples/pbcast_pipeline.py
"""

import numpy as np

from repro.hw.spec import PAPER_TESTBED
from repro.mpi.world import World
from repro.units import us

PARTITIONS = 8
N = PARTITIONS * 512


def main(ctx):
    comm = ctx.comm
    buf = ctx.gpu.alloc(N)
    if ctx.rank == 0:
        buf.data[:] = np.arange(N)

    req = yield from comm.pbcast_init(buf, partitions=PARTITIONS, root=0, device=ctx.gpu)
    yield from req.start()
    yield from req.pbuf_prepare()

    first_arrival = None
    if ctx.rank == 0:
        # Stagger releases: partition u becomes ready 10 us after u-1,
        # as if a producing kernel finished them incrementally.
        for u in range(PARTITIONS):
            yield ctx.engine.timeout(10 * us)
            yield from req.pready(u)
    else:
        # Watch MPI_Parrived flip per user partition (receivers poll).
        while not req.parrived(0):
            yield ctx.engine.timeout(2 * us)
        first_arrival = ctx.now

    yield from req.wait()
    done = ctx.now
    assert np.array_equal(buf.data, np.arange(N)), "broadcast payload corrupted"
    return (first_arrival, done)


if __name__ == "__main__":
    world = World(PAPER_TESTBED)
    results = world.run(main, nprocs=8)
    print("rank | first partition arrived | all partitions done")
    for rank, (first, done) in enumerate(results):
        first_s = f"{first / us:8.1f} us" if first else "   (root)   "
        print(f"  {rank}  |      {first_s}      | {done / us:8.1f} us")
    print("\npipelining: every rank sees its first partition long before the")
    print("root has even released the last one (8 x 10 us stagger).")
