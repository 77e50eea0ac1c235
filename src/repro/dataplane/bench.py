"""Striping exhibit: single-path vs multi-path goodput on raw transfers.

Isolates the dataplane from the MPI stack: one fresh engine + fabric per
measurement, one device-to-device payload descriptor, goodput = bytes /
simulated completion time.  On the GH200 4-GPU NVLink mesh a large D2D
transfer has four link-disjoint routes (the direct NVLink, two two-hop
NVLink detours through the other mesh GPUs, and the C2C host path), so
striping multiplies the aggregate bottleneck bandwidth; small transfers
are overhead-dominated and striping cannot pay for the extra route
latency — the crossover the sweep exhibits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bench.series import Series
from repro.dataplane.policy import policy_named
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec import ONE_NODE, MachineSpec
from repro.hw.topology import Fabric
from repro.sim.context import using
from repro.sim.engine import Engine
from repro.units import KiB, MiB, fmt_bytes


def measure_stripe_goodput(
    nbytes: int,
    policy="single",
    config: MachineSpec = ONE_NODE,
    src_gpu: int = 0,
    dst_gpu: int = 1,
) -> dict:
    """One D2D transfer of ``nbytes`` under a path policy.

    Returns goodput plus the stripe/route count the policy actually used
    and the dataplane ledger snapshot — everything the bench suite and
    the property tests assert on.  Payload buffers are virtual (zero
    stride), so GiB-scale points cost O(1) host memory.
    """
    engine = Engine()
    fabric = Fabric(engine, config)
    fabric.dataplane.policy = policy_named(policy)
    topo = fabric.topo
    n = max(nbytes // 8, 1)  # float64 elements
    src = Buffer.alloc_virtual(
        n, space=MemSpace.DEVICE, node=topo.node_of(src_gpu), gpu=src_gpu
    )
    dst = Buffer.alloc_virtual(
        n, space=MemSpace.DEVICE, node=topo.node_of(dst_gpu), gpu=dst_gpu
    )
    out = {}

    def proc():
        t0 = engine.now
        yield fabric.dataplane.put(src, dst, traffic_class="bench", name="stripe")
        out["elapsed"] = engine.now - t0

    done = engine.process(proc(), name="stripe_bench")
    engine.run()
    if not done.ok:  # pragma: no cover - surfacing simulation bugs
        raise RuntimeError(f"stripe bench failed: {done.value!r}")
    usage = fabric.dataplane.ledger["bench"]
    return {
        "nbytes": src.nbytes,
        "elapsed_s": out["elapsed"],
        "goodput_Bps": src.nbytes / out["elapsed"],
        "stripes": usage.stripes,
        "ledger": fabric.dataplane.ledger.as_dict(),
    }


#: Sweep sizes: overhead-dominated KiBs through bandwidth-bound GiB-scale.
SWEEP_SIZES = (
    64 * KiB,
    512 * KiB,
    2 * MiB,
    8 * MiB,
    64 * MiB,
    512 * MiB,
)


def stripe_sweep(
    sizes: Sequence[int] = SWEEP_SIZES,
    config: MachineSpec = ONE_NODE,
    src_gpu: int = 0,
    dst_gpu: int = 1,
) -> Series:
    """Single-path vs multi-path goodput over a size sweep (one D2D pair)."""
    series = Series(
        exhibit="Striping",
        title="single-path vs link-disjoint striped goodput, D2D "
              f"gpu{src_gpu}->gpu{dst_gpu}",
        columns=("size", "single_GBps", "multi_GBps", "stripes", "speedup"),
    )
    for nbytes in sizes:
        single = measure_stripe_goodput(nbytes, "single", config, src_gpu, dst_gpu)
        multi = measure_stripe_goodput(nbytes, "multi", config, src_gpu, dst_gpu)
        series.add(
            size=fmt_bytes(nbytes),
            single_GBps=round(single["goodput_Bps"] / 1e9, 2),
            multi_GBps=round(multi["goodput_Bps"] / 1e9, 2),
            stripes=multi["stripes"],
            speedup=round(multi["goodput_Bps"] / single["goodput_Bps"], 3),
        )
    series.note(
        "multi stripes across link-disjoint routes (MultiPathPolicy); "
        "below min_stripe_bytes the plans coincide"
    )
    return series


# --------------------------------------------------------------------------
# dynamic-fabric exhibits (DESIGN.md §17)
# --------------------------------------------------------------------------

def _pipelined_chunks(
    policy,
    config: MachineSpec,
    chunks: int,
    chunk_bytes: int,
    depth: int,
    faults=None,
) -> dict:
    """Run ``chunks`` plan-cached D2D puts with ``depth`` in flight.

    One buffer pair is reused for every chunk, so after the first submit
    the plan cache replays the stripe plan; a mid-run fault exercises
    both recovery tiers (queued-stripe re-route and plan re-bind).
    """
    from repro.dataplane.graph import GRAPHS
    from repro.dataplane.plane import FabricFault

    with using(faults=faults):
        engine = Engine()
    fabric = Fabric(engine, config)
    dp = fabric.dataplane.enable_plan_cache()
    dp.policy = policy_named(policy)
    topo = fabric.topo
    n = max(chunk_bytes // 8, 1)
    src = Buffer.alloc_virtual(n, space=MemSpace.DEVICE, node=topo.node_of(0), gpu=0)
    dst = Buffer.alloc_virtual(n, space=MemSpace.DEVICE, node=topo.node_of(1), gpu=1)
    replanned0 = GRAPHS.replanned
    out = {"faulted_chunks": 0}

    def proc():
        t0 = engine.now
        in_flight = []
        for _ in range(chunks):
            in_flight.append(
                dp.put(src, dst, traffic_class="bench", name="chunk")
            )
            if len(in_flight) >= depth:
                if isinstance((yield in_flight.pop(0)), FabricFault):
                    out["faulted_chunks"] += 1
        for ev in in_flight:
            if isinstance((yield ev), FabricFault):
                out["faulted_chunks"] += 1
        out["elapsed"] = engine.now - t0

    done = engine.process(proc(), name="chunk_bench")
    engine.run()
    if not done.ok:  # pragma: no cover - surfacing simulation bugs
        raise RuntimeError(f"chunked bench failed: {done.value!r}")
    return {
        "elapsed_s": out["elapsed"],
        "faulted_chunks": out["faulted_chunks"],
        "reroutes": dp.reroutes,
        "faults": dp.faults,
        "replanned": GRAPHS.replanned - replanned0,
        "plan_hits": dp.plan_cache.hits,
    }


def measure_fault_reroute(
    total_bytes: int = 512 * MiB,
    chunks: int = 32,
    depth: int = 4,
    config: MachineSpec = ONE_NODE,
) -> dict:
    """Down the primary NVLink mid-run under a plan-cached chunk pipeline.

    Three timings of the same 512 MiB chunked D2D stream on the GH200
    mesh: healthy multipath (lower bound), multipath losing ``nvl0->1``
    halfway through (the exhibit), and healthy single-path (the
    no-multipath upper bound).  The faulted run recovers on both tiers —
    queued stripes re-route around the dead link and the epoch-stale
    cached plan re-binds — and every chunk still completes.
    """
    from repro.hw.faults import FaultEvent, FaultSchedule

    chunk_bytes = total_bytes // chunks
    healthy = _pipelined_chunks("multi", config, chunks, chunk_bytes, depth)
    sched = FaultSchedule(
        [FaultEvent(healthy["elapsed_s"] / 2, "nvl0->1", "down")]
    )
    faulted = _pipelined_chunks(
        "multi", config, chunks, chunk_bytes, depth, faults=sched
    )
    single = _pipelined_chunks("single", config, chunks, chunk_bytes, depth)
    return {
        "nbytes": chunk_bytes * chunks,
        "chunks": chunks,
        "depth": depth,
        "healthy_s": healthy["elapsed_s"],
        "faulted_s": faulted["elapsed_s"],
        "single_s": single["elapsed_s"],
        "reroutes": faulted["reroutes"],
        "faults": faulted["faults"],
        "replanned": faulted["replanned"],
        "faulted_chunks": faulted["faulted_chunks"],
        "plan_hits": faulted["plan_hits"],
    }


def measure_congestion_goodput(
    policy="congestion",
    n_transfers: int = 8,
    nbytes: int = 16 * MiB,
    config: MachineSpec = ONE_NODE,
) -> dict:
    """``n_transfers`` concurrent same-pair D2D puts under one policy.

    Under ``SinglePathPolicy`` they all serialize on the direct NVLink
    port; ``CongestionAwarePolicy`` reads the outstanding-bytes signal at
    submit and spreads them over the link-disjoint candidates.
    """
    engine = Engine()
    fabric = Fabric(engine, config)
    fabric.dataplane.policy = policy_named(policy)
    topo = fabric.topo
    n = max(nbytes // 8, 1)
    pairs = [
        (
            Buffer.alloc_virtual(n, space=MemSpace.DEVICE, node=topo.node_of(0), gpu=0),
            Buffer.alloc_virtual(n, space=MemSpace.DEVICE, node=topo.node_of(1), gpu=1),
        )
        for _ in range(n_transfers)
    ]
    out = {}

    def proc():
        t0 = engine.now
        events = [
            fabric.dataplane.put(s, d, traffic_class="bench", name=f"x{i}")
            for i, (s, d) in enumerate(pairs)
        ]
        for ev in events:
            yield ev
        out["elapsed"] = engine.now - t0

    done = engine.process(proc(), name="congestion_bench")
    engine.run()
    if not done.ok:  # pragma: no cover - surfacing simulation bugs
        raise RuntimeError(f"congestion bench failed: {done.value!r}")
    total = n_transfers * pairs[0][0].nbytes
    return {
        "nbytes": total,
        "n_transfers": n_transfers,
        "elapsed_s": out["elapsed"],
        "goodput_Bps": total / out["elapsed"],
    }
