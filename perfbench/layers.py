"""Which layer entry points the traced run wraps, and the per-layer
metrics derived from one traced run.

Layer -> end-to-end metric -> workload (see README.md for the table):
each entry below names the public entry point of one ``repro.<package>``
layer.  Timed entries give the layer's self time; counted entries (the
generator APIs and the per-transfer route lookup) give call counts only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from perfbench.spans import Entry, Span, Tracer, self_times


class Observed:
    """Objects a traced run built that keep counters of their own."""

    def __init__(self) -> None:
        self.fabrics: List[Any] = []
        self.clusters: List[Any] = []

    def clear(self) -> None:
        self.fabrics.clear()
        self.clusters.clear()


def make_entries(seen: Observed) -> List[Entry]:
    def fabric(args, result):
        seen.fabrics.append(args[0])

    def cluster(args, result):
        seen.clusters.append(result)

    E = Entry
    return [
        E("repro.sim.engine:Engine.run", "sim.Engine.run", "sim"),
        E("repro.hw.spec.schema:MachineSpec.node_of", "hw.spec.MachineSpec.node_of", "hw.spec"),
        E("repro.hw.topology:Topology.node_of", "hw.spec.Topology.node_of", "hw.spec"),
        E("repro.hw.topology:Fabric.__init__", "hw.Fabric.__init__", "hw.fabric",
          observe=fabric),
        E("repro.hw.topology:Fabric.route", "hw.Fabric.route", "hw.route", timed=False),
        E("repro.hw.links:LinkState.down_link", "hw.LinkState.down_link", "hw.links",
          timed=False),
        E("repro.hw.links:LinkState.restore_link", "hw.LinkState.restore_link", "hw.links",
          timed=False),
        E("repro.hw.links:LinkState.degrade_bandwidth", "hw.LinkState.degrade_bandwidth",
          "hw.links", timed=False),
        E("repro.dataplane.plane:Dataplane.submit", "dataplane.Dataplane.submit", "dataplane"),
        E("repro.dataplane.graph:PlanCache.lookup", "dataplane.PlanCache.lookup",
          "dataplane.plan"),
        E("repro.dataplane.graph:PlanCache.store", "dataplane.PlanCache.store",
          "dataplane.plan"),
        E("repro.shard.shard:Shard.step_window", "shard.Shard.step_window", "shard"),
        E("repro.shard.cluster:ClusterJob.run", "shard.ClusterJob.run", "shard.job",
          timed=False, observe=cluster),
        E("repro.workload.replay:load_schedule", "workload.load_schedule", "workload.parse"),
        E("repro.workload.replay:lower", "workload.lower", "workload.lower"),
        E("repro.mpi.progress:ProgressEngine.dispatch", "mpi.ProgressEngine.dispatch", "mpi",
          timed=False),
        E("repro.ucx.endpoint:UcpEndpoint.put_nbx", "ucx.UcpEndpoint.put_nbx", "ucx"),
        E("repro.cuda.device:Device.launch", "cuda.Device.launch", "cuda"),
        E("repro.partitioned.device:pready_wave", "partitioned.pready_wave", "partitioned"),
        E("repro.partitioned.p2p:PsendRequest.issue_pready", "partitioned.issue_pready",
          "partitioned"),
    ]


def layer_self(tracer: Tracer, spans: List[Span]) -> Dict[str, float]:
    """Self time per layer (sum over that layer's entry points)."""
    by_name = self_times(spans)
    out: Dict[str, float] = {}
    for entry in tracer.entries:
        out[entry.layer] = out.get(entry.layer, 0.0) + by_name.get(entry.name, 0.0)
    return out


def run_metrics(
    tracer: Tracer, spans: List[Span], seen: Observed, result: Any,
    stats: dict, graphs: dict, traced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``stats``/``graphs`` are the engine and graph counter snapshots taken
    right after the run (both reset just before it).
    """
    c = tracer.counts.get
    own = layer_self(tracer, spans)
    popped = result.events_popped
    graphed = result.extra.get("graphs", {}).get("events_graphed", 0)
    route_calls = c("hw.Fabric.route", 0)
    route_comp = sum(f.route_computations for f in seen.fabrics)
    lookups = c("dataplane.PlanCache.lookup", 0)

    windows = sum(r.windows for r in seen.clusters)
    messages = sum(r.messages for r in seen.clusters)
    per_shard = [p for r in seen.clusters for p in (r.per_shard_popped or [])]
    cluster_popped = sum(r.events_popped for r in seen.clusters)
    cluster_graphed = sum(r.events_graphed for r in seen.clusters)
    return {
        "sim.events": popped + graphed,
        "sim.events_popped": popped,
        "sim.events_graphed": graphed,
        "sim.self_s": own["sim"],
        "sim.peak_heap": stats["peak_heap"],
        "hw.spec.node_of_calls": c("hw.spec.MachineSpec.node_of", 0),
        "hw.spec.self_s": own["hw.spec"],
        "hw.spec.wall_share": own["hw.spec"] / traced_wall_s,
        "hw.fabric_build_s": sum(s[3] - s[2] for s in spans if s[1] == "hw.Fabric.__init__"),
        "hw.fabric_builds": c("hw.Fabric.__init__", 0),
        "hw.route.calls": route_calls,
        "hw.route.computations": route_comp,
        "hw.route.hit_ratio": 1.0 - route_comp / route_calls if route_calls else 0.0,
        "hw.links.mutations": sum(
            c(n, 0) for n in ("hw.LinkState.down_link", "hw.LinkState.restore_link",
                              "hw.LinkState.degrade_bandwidth")
        ),
        "hw.links.epoch": max((f.link_state.epoch for f in seen.fabrics), default=0),
        "dataplane.submits": c("dataplane.Dataplane.submit", 0),
        "dataplane.submit_self_s": own["dataplane"],
        "dataplane.reroutes": sum(f.dataplane.reroutes for f in seen.fabrics),
        "dataplane.faults": sum(f.dataplane.faults for f in seen.fabrics),
        "dataplane.plan.lookups": lookups,
        "dataplane.plan.hit_ratio": (
            graphs["replayed_descriptors"] / lookups if lookups else 0.0
        ),
        "dataplane.plan.replanned": graphs["replanned"],
        "dataplane.plan.self_s": own["dataplane.plan"],
        "shard.windows": windows,
        "shard.step_window_calls": c("shard.Shard.step_window", 0),
        "shard.step_window_self_s": own["shard"],
        "shard.msgs_per_window": messages / windows if windows else 0.0,
        "shard.imbalance": (
            max(per_shard) * len(per_shard) / sum(per_shard) if sum(per_shard) else 0.0
        ),
        "shard.pop_batching_factor": (
            (cluster_popped + cluster_graphed) / cluster_popped if cluster_popped else 0.0
        ),
        "workload.lower_s": own["workload.lower"],
        "mpi.progress_dispatches": c("mpi.ProgressEngine.dispatch", 0),
        "ucx.put_nbx_calls": c("ucx.UcpEndpoint.put_nbx", 0),
        "ucx.self_s": own["ucx"],
        "cuda.launches": c("cuda.Device.launch", 0),
        "cuda.self_s": own["cuda"],
        "partitioned.pready_wave_calls": c("partitioned.pready_wave", 0),
        "partitioned.issue_pready_calls": c("partitioned.issue_pready", 0),
        "partitioned.self_s": own["partitioned"],
    }


#: Workloads that replay a schedule through the plan cache.
PLAN_CACHE_WORKLOADS = ("llm64-replay", "llm64-replay-faults")
FAULT_WORKLOADS = ("llm64-replay-faults",)


def coverage_errors(workload: str, m: Dict[str, float]) -> List[str]:
    """Per-workload layer-coverage self-check; returns violated claims.

    A workload that stops exercising the layer it was chosen for (or
    starts exercising one it should bypass) fails here, so the change
    that caused it cannot land silently.
    """
    errors = []
    faulted = workload in FAULT_WORKLOADS
    if faulted != (m["hw.links.mutations"] > 0):
        errors.append(f"hw.links.mutations={m['hw.links.mutations']} "
                      f"(want {'> 0' if faulted else '0'})")
    if faulted != (m["dataplane.plan.replanned"] > 0):
        errors.append(f"dataplane.plan.replanned={m['dataplane.plan.replanned']} "
                      f"(want {'> 0' if faulted else '0'})")
    cached = workload in PLAN_CACHE_WORKLOADS
    if cached != (m["dataplane.plan.lookups"] > 0):
        errors.append(f"dataplane.plan.hit_ratio is "
                      f"{'undefined' if cached else 'defined'} "
                      f"(lookups={m['dataplane.plan.lookups']})")
    if m["dataplane.faults"]:
        errors.append(f"dataplane.faults={m['dataplane.faults']}: a transfer lost "
                      "its last route")
    return errors


def spec_share_errors(shares: Dict[str, float], heaviest: str = "halo-fattree512") -> List[str]:
    """Cross-workload check: ``hw.spec`` self time has its largest share
    of wall time on ``heaviest``."""
    top: Optional[str] = max(shares, key=shares.get) if shares else None
    if top != heaviest:
        return [f"hw.spec.wall_share is largest on {top}, not {heaviest}: {shares}"]
    return []
