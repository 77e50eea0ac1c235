"""Machine topology and the Fabric route facade.

:class:`Topology` answers shape queries (which node owns a GPU, who is a
peer) over a :class:`~repro.hw.spec.schema.MachineSpec` — for the paper's
testbed (Section V) that is ``n_nodes`` nodes of NVLink-meshed GH200
superchips with one ConnectX-7 NIC each.

:class:`Fabric` compiles the spec into a typed link graph
(:class:`~repro.hw.spec.graph.LinkGraph`), resolves a route for any
(source buffer, destination buffer) pair by graph search — memoized per
(src-port, dst-port) in a route cache, so the hot transfer path never
re-searches — and owns the :class:`~repro.dataplane.plane.Dataplane`
every transfer is submitted to.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dataplane.plane import Dataplane
from repro.hw import faults as hw_faults
from repro.hw.links import Link, LinkState
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.graph import LinkGraph, Port, RouteSearchError
from repro.hw.spec.schema import MachineSpec
from repro.sim.engine import Engine
from repro.sim.events import Event

#: Global GPU index (0 .. n_gpus-1); node-local index is position on the node.
GpuId = int


class Topology:
    """Pure shape and capability queries over a machine description."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    @property
    def gpus_per_node(self) -> int:
        uniform = self.spec.uniform_gpus_per_node
        if uniform is None:
            raise ValueError(
                f"machine {self.spec.name!r} has heterogeneous nodes; "
                "use gpus_on_node(node) instead"
            )
        return uniform

    @property
    def n_gpus(self) -> int:
        return self.spec.n_gpus

    def node_of(self, gpu: GpuId) -> int:
        return self.spec.node_of(gpu)

    def local_index(self, gpu: GpuId) -> int:
        return self.spec.local_index(gpu)

    def same_node(self, a: GpuId, b: GpuId) -> bool:
        return self.spec.node_of(a) == self.spec.node_of(b)

    def can_peer_map(self, a: GpuId, b: GpuId) -> bool:
        """May GPU ``a`` map GPU ``b``'s memory (cudaIpcOpenMemHandle)?

        Derived from the spec's interconnect, not from node distance: a
        host-staged (no-P2P PCIe) node refuses even same-node mappings.
        """
        return self.spec.can_peer_map(a, b)

    def gpus_on_node(self, node: int) -> List[GpuId]:
        base = self.spec.gpu_base(node)
        return list(range(base, self.spec.gpu_bases[node + 1]))


class RouteError(Exception):
    """No path exists between the requested buffer locations."""


class Fabric:
    """All links of one machine plus route resolution and transfers."""

    #: Optional cross-run route persistence hook (see
    #: :class:`repro.workload.sweep.RouteCacheStore`): an object with
    #: ``preload(fabric)`` called at construction and
    #: ``record(fabric, key, links)`` called on every route-cache miss.
    #: Class-level so sweeps can install it once for every fabric a
    #: workload builds internally; None = no persistence.
    route_store = None

    def __init__(
        self,
        engine: Engine,
        spec: MachineSpec,
        fault_scope: "int | None" = None,
    ) -> None:
        self.engine = engine
        #: Node id this fabric simulates when it is a shard-local cut
        #: (scopes node-targeted fault events); None = whole machine.
        #: Falls back to ``engine.shard_id`` so multiprocess shards are
        #: scoped even through legacy construction paths.
        self.fault_scope = (
            fault_scope if fault_scope is not None
            else getattr(engine, "shard_id", None)
        )
        self.spec = spec
        self.topo = Topology(spec)
        self.graph = LinkGraph(engine, self.spec)
        #: The one mutation surface for link health (DESIGN.md §17);
        #: every mutation bumps its epoch and invalidates route caches.
        self.link_state = LinkState(engine, self.graph.links)
        #: (src-port, dst-port) -> resolved link tuple; hit on every
        #: transfer after the first between a location pair.
        self._route_cache: Dict[Tuple[Port, Port], Tuple[Link, ...]] = {}
        #: Fabric epoch the route cache was filled under.
        self._route_epoch = 0
        #: Number of cache-miss route computations (asserted by tests).
        self.route_computations = 0
        #: Pending fault-schedule heap events (cancelled on rebuild).
        self.fault_events: List[Event] = []

        # Structured link registries (views into the graph's registries;
        # keyed and named exactly like the original hard-coded testbed).
        self.hbm: Dict[GpuId, Link] = self.graph.hbm
        self.nvlink: Dict[Tuple[GpuId, GpuId], Link] = self.graph.d2d
        self.switch_up: Dict[GpuId, Link] = self.graph.switch_up
        self.switch_down: Dict[GpuId, Link] = self.graph.switch_down
        self.d2h: Dict[GpuId, Link] = self.graph.d2h
        self.h2d: Dict[GpuId, Link] = self.graph.h2d
        self.nic_out: Dict[int, Link] = self.graph.nic_out
        self.nic_in: Dict[int, Link] = self.graph.nic_in
        self.hostmem_tx: Dict[int, Link] = self.graph.hostmem_tx
        self.hostmem_rx: Dict[int, Link] = self.graph.hostmem_rx

        # Copy engine per GPU: host-initiated peer copies (UCX cuda_ipc
        # puts = cuMemcpyDtoDAsync) serialize through it with a per-op
        # setup cost, which caps their aggregate NVLink efficiency below
        # what SM-driven stores (Kernel-Copy, NCCL) achieve.
        from repro.sim.resources import Resource

        self.copy_engine: Dict[GpuId, Resource] = {
            g: Resource(engine, capacity=1, name=f"gpu{g}.ce")
            for g in range(self.topo.n_gpus)
        }

        #: The single submission point for every simulated byte.  Path selection
        #: (single route vs link-disjoint striping) is the dataplane
        #: policy's call — see repro.dataplane and DESIGN.md §12.
        self.dataplane = Dataplane(self)

        sched = hw_faults.active()
        if sched is not None:
            self.fault_events = hw_faults.install_on_fabric(self, sched)

        if Fabric.route_store is not None:
            Fabric.route_store.preload(self)

    # -- link registry ---------------------------------------------------------
    def iter_links(self):
        """Every link of the machine, in registration order."""
        return iter(self.graph.links)

    def link_kinds(self) -> List[str]:
        """Distinct link kinds, in first-registration order."""
        seen: Dict[str, None] = {}
        for link in self.graph.links:
            seen.setdefault(link.kind, None)
        return list(seen)

    def d2h_link(self, gpu: GpuId) -> Link:
        """The device->host egress link of ``gpu`` (C2C down / PCIe d2h).

        Device-thread flag stores into pinned host memory serialize here.
        """
        return self.graph.d2h[gpu]

    # -- route resolution ------------------------------------------------------
    @staticmethod
    def _endpoint(buf: Buffer) -> Port:
        space, node, gpu = buf.location()
        if space in (MemSpace.DEVICE, MemSpace.UNIFIED) and gpu is not None:
            return ("gpu", gpu)
        if space is MemSpace.HOST:
            return ("pag", node)
        return ("pin", node)

    def route(self, src: Buffer, dst: Buffer) -> Tuple[Link, ...]:
        """Resolve (or fetch the cached) link path from ``src`` to ``dst``.

        The NIC used for an inter-node hop is the one the spec attaches to
        the source/destination location (GPUDirect-RDMA-style per-GPU NICs
        move device memory without host staging; a shared node NIC funnels
        everything through the host bridge).

        Routes are valid for one fabric epoch: a link mutation bumps
        :attr:`LinkState.epoch` and the next resolution drops the whole
        cache, so downed links never leak out of a stale entry.  On a
        healthy fabric the epoch never moves and this is one int compare.
        """
        epoch = self.link_state.epoch
        if epoch != self._route_epoch:
            self._route_cache.clear()
            self._route_epoch = epoch
        key = (self._endpoint(src), self._endpoint(dst))
        cached = self._route_cache.get(key)
        if cached is None:
            self.route_computations += 1
            try:
                cached = self.graph.search(*key)
            except RouteSearchError as exc:
                raise RouteError(str(exc)) from exc
            self._route_cache[key] = cached
            if Fabric.route_store is not None and not self.link_state.armed:
                # Routes found under mutated fabric state are epoch-local;
                # only healthy-fabric routes are worth persisting.
                Fabric.route_store.record(self, key, cached)
        return cached

    # -- route-cache persistence ------------------------------------------------
    @staticmethod
    def route_key_str(key: Tuple[Port, Port]) -> str:
        """Serialize a route-cache key: ``('gpu', 0), ('pag', 1)`` -> ``gpu:0|pag:1``."""
        (skind, sid), (dkind, did) = key
        return f"{skind}:{sid}|{dkind}:{did}"

    def export_routes(self) -> Dict[str, List[str]]:
        """JSON-serializable snapshot of the resolved route cache."""
        return {
            self.route_key_str(key): [link.name for link in links]
            for key, links in self._route_cache.items()
        }

    def preload_routes(self, doc: Dict[str, List[str]]) -> int:
        """Seed the route cache from an :meth:`export_routes` snapshot.

        The snapshot must come from a fabric with the *same machine
        spec* (callers key stores by spec hash); entries naming unknown
        links or malformed keys are skipped — they simply recompute on
        first use.  Returns the number of entries loaded.
        """
        by_name: Dict[str, Link] = {}
        for link in self.graph.links:
            if link.name in by_name:  # ambiguous registry: refuse to guess
                return 0
            by_name[link.name] = link
        loaded = 0
        for key_str, names in doc.items():
            try:
                s, d = key_str.split("|")
                skind, sid = s.split(":")
                dkind, did = d.split(":")
                links = tuple(by_name[n] for n in names)
            except (ValueError, KeyError):
                continue
            key = ((skind, int(sid)), (dkind, int(did)))
            if key not in self._route_cache:
                self._route_cache[key] = links
                loaded += 1
        return loaded

    def gpu_distance(self, a: GpuId, b: GpuId) -> str:
        """'local' | 'nvlink' | 'ib' — used by protocol selection."""
        if a == b:
            return "local"
        return "nvlink" if self.topo.same_node(a, b) else "ib"
