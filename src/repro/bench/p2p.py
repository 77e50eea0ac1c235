"""Workload runners for the point-to-point exhibits (Figs 2-5).

Measurement methodology follows Section VI's preamble:

* every CUDA thread contributes 8 bytes (``block=1024`` => 8 KiB/block);
* *traditional* rows time compute + ``cudaStreamSynchronize`` +
  ``MPI_Send``/``Recv`` (Listing 1);
* *partitioned* rows time the equivalent of ``Kernel_B`` + ``MPI_Wait``
  (Listing 2) — ``MPI_Start``/``MPIX_Pbuf_prepare`` happen before the
  timed window;
* Goodput = processed bytes / (compute + communication time), using the
  slower endpoint's window.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.cuda.kernel import BlockKernel, UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.spec import ONE_NODE, MachineSpec, named_spec
from repro.partitioned import device as pdev
from repro.workload.runner import run_ranks
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.prequest import CopyMode

BLOCK = 1024
BYTES_PER_THREAD = 8

#: Two nodes with one GH200 each: ranks 0/1 are forced inter-node.
TWO_NODE_PAIR = named_spec("gh200-2x1")


def auto_transport_partitions(grid: int, model: str, inter_node: bool) -> int:
    """Per-mechanism optimum from the paper's Section VI-A:

    * Progression Engine intra-node: a single transport partition wins
      (each host-mediated put pays the cuda_ipc engine setup);
    * inter-node, large kernels: two transport partitions win (the first
      half's RMA put overlaps the second half's compute);
    * Kernel Copy: two partitions (SM stores pay no per-put setup, so the
      overlap is free).
    """
    if grid < 2:
        return 1
    if model == "kernel_copy":
        return 2
    if inter_node:
        return 1 if grid < 2048 else 2
    return 1


# --------------------------------------------------------------------------
# Fig 2: cudaStreamSynchronize motivation
# --------------------------------------------------------------------------

def measure_launch_sync(grid: int, block: int = BLOCK, config: MachineSpec = ONE_NODE) -> dict:
    """One launch+sync measurement on a fresh single-GPU world."""

    def main(ctx):
        work = WorkSpec.vector_add(BYTES_PER_THREAD)
        t0 = ctx.now
        yield from ctx.gpu.launch_h(UniformKernel(grid, block, work, name="vadd"))
        t_launched = ctx.now
        yield from ctx.gpu.sync_h()
        t_done = ctx.now
        # Sync cost alone, on the now-empty stream.
        t1 = ctx.now
        yield from ctx.gpu.sync_h()
        sync_only = ctx.now - t1
        return {"total": t_done - t0, "launch_api": t_launched - t0, "sync_only": sync_only}

    return run_ranks(config, main, nprocs=1).results[0]


# --------------------------------------------------------------------------
# Fig 3: thread/warp/block MPIX_Pready aggregation cost
# --------------------------------------------------------------------------

def measure_pready_cost(
    n_threads: int, mode: SignalMode, config: MachineSpec = ONE_NODE
) -> float:
    """Device-side cost of the MPIX_Pready call for one block of
    ``n_threads`` under a signal mode (intra-node channel, 1 partition)."""
    cost_out: List[float] = []

    def main(ctx):
        comm = ctx.comm
        n = n_threads  # 8 B per thread
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n, fill=1.0)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            agg = AggregationSpec(1, n_threads, 1, mode)
            preq = yield from sreq.prequest_create(ctx.gpu, agg=agg)

            def body(blk):
                yield blk.compute(WorkSpec.vector_add(BYTES_PER_THREAD))
                t0 = blk.now
                yield pdev.pready(blk, preq)
                cost_out.append(blk.now - t0)

            yield from ctx.gpu.launch_h(BlockKernel(1, n_threads, body, name="fig3"))
            yield from sreq.wait()
        else:
            rbuf = ctx.gpu.alloc(n)
            rreq = yield from comm.precv_init(rbuf, 1, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()

    run_ranks(config, main, nprocs=2)
    assert len(cost_out) == 1
    return cost_out[0]


# --------------------------------------------------------------------------
# Figs 4/5: goodput of the three communication models
# --------------------------------------------------------------------------

def _p2p_goodput_main(ctx, grid: int, model: str, iters: int, tps: int) -> Generator:
    """2-rank loop; returns this rank's per-iteration window durations.

    Payloads are *virtual* (``alloc_virtual``): nothing in Figs 4/5 checks
    the received bytes, only the timing window — so the sweep's GiB-scale
    buffers cost O(1) memory and no memcpy wall time while every protocol
    size, registration, and link charge stays identical.
    """
    comm = ctx.comm
    n = grid * BLOCK  # float64 elements -> 8 B per thread
    work = WorkSpec.vector_add(BYTES_PER_THREAD)
    times: List[float] = []

    if model == "sendrecv":
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc_virtual(n)
            for _ in range(iters):
                yield from comm.barrier()
                t0 = ctx.now
                kernel = UniformKernel(grid, BLOCK, work, name="vadd")
                yield from ctx.gpu.launch_h(kernel)
                yield from ctx.gpu.sync_h()
                yield from comm.send(sbuf, dest=1, tag=9)
                times.append(ctx.now - t0)
        else:
            rbuf = ctx.gpu.alloc_virtual(n)
            for _ in range(iters):
                yield from comm.barrier()
                t0 = ctx.now
                yield from comm.recv(rbuf, source=0, tag=9)
                times.append(ctx.now - t0)
        return times

    mode = CopyMode.KERNEL_COPY if model == "kernel_copy" else CopyMode.PROGRESSION_ENGINE
    if ctx.rank == 0:
        sbuf = ctx.gpu.alloc_virtual(n)
        sreq = yield from comm.psend_init(sbuf, tps, dest=1, tag=9)
        preq = None
        hook = None
        for _ in range(iters):
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            if preq is None:
                preq = yield from sreq.prequest_create(
                    ctx.gpu, grid=grid, block=BLOCK, mode=mode,
                    blocks_per_partition=grid // tps,
                )
                hook = pdev.PreadyWaveHook(preq)
            yield from comm.barrier()
            t0 = ctx.now
            kernel = UniformKernel(grid, BLOCK, work, name="vadd_p", wave_hook=hook)
            yield from ctx.gpu.launch_h(kernel)
            yield from sreq.wait()
            times.append(ctx.now - t0)
    else:
        rbuf = ctx.gpu.alloc_virtual(n)
        rreq = yield from comm.precv_init(rbuf, tps, source=0, tag=9)
        for _ in range(iters):
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from comm.barrier()
            t0 = ctx.now
            yield from rreq.wait()
            times.append(ctx.now - t0)
    return times


def measure_p2p_goodput(
    grid: int,
    model: str,
    config: MachineSpec = ONE_NODE,
    iters: int = 3,
    tps: Optional[int] = None,
) -> float:
    """Goodput (bytes/s) for one (grid, model) point on any machine
    description (legacy config or :class:`MachineSpec`); warmup discarded."""
    if tps is None:
        tps = auto_transport_partitions(grid, model, inter_node=config.n_nodes > 1)
    per_rank = run_ranks(
        config, _p2p_goodput_main, nprocs=2, args=(grid, model, iters, tps)
    ).results
    # Window per iteration = slower endpoint; drop the warmup iteration.
    windows = [max(a, b) for a, b in zip(*per_rank)][1:]
    mean = sum(windows) / len(windows)
    return (grid * BLOCK * BYTES_PER_THREAD) / mean
