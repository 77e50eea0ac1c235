"""The Dataplane: every simulated byte's single submission point.

Producers hand a validated :class:`TransferDescriptor` to :meth:`submit`
(or the :meth:`put` / :meth:`rma_put` / :meth:`control` conveniences).
The dataplane resolves the primary route through the owning
:class:`~repro.hw.topology.Fabric`'s memoized route cache, asks the
active :class:`~repro.dataplane.policy.PathPolicy` for a stripe plan,
accounts the submission in the per-class ledger, and spawns one
cut-through transfer process per stripe.  A one-stripe plan executes
exactly like the pre-dataplane ``start_transfer`` call; a multi-stripe
plan completes at the max of the stripe arrivals (an ``AllOf``).

Host-mediated RMA descriptors (``rma_put``) between IPC-mappable device
peers stage through the source GPU's copy engine with the cuda_ipc
per-op setup cost — the mechanism the paper's Kernel-Copy design
bypasses (Section IV-A4) — before their wire stripes are planned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.dataplane.descriptor import TransferDescriptor
from repro.dataplane.ledger import Ledger
from repro.dataplane.policy import PathPolicy, policy_named
from repro.hw.links import LinkDownError, start_transfer
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.graph import Port, RouteSearchError
from repro.sim.events import AllOf, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.topology import Fabric


class FabricFault:
    """Typed completion value of a transfer that lost every route.

    The guarded executor never *fails* the submission event (a failure
    would tear down every waiter of an ``AllOf``); instead the event
    succeeds with a FabricFault so callers can inspect what died.  It is
    falsy, so ``if not result`` reads naturally at wait sites.
    """

    __slots__ = ("name", "link", "t", "reason")

    def __init__(self, name: str, link: str, t: float, reason: str) -> None:
        self.name = name      # descriptor / stripe name
        self.link = link      # the downed link that severed the last route
        self.t = t            # simulated time the fault was declared
        self.reason = reason

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"<FabricFault {self.name} @{self.t:.6g}s: {self.reason}>"


class Dataplane:
    """Route resolution + policy execution + accounting for one machine."""

    def __init__(self, fabric: "Fabric", policy: Optional[PathPolicy] = None) -> None:
        self.fabric = fabric
        self.engine = fabric.engine
        self.ledger = Ledger()
        self.policy: PathPolicy = (
            policy if policy is not None
            else policy_named(self.engine.ctx.policy)
        )
        #: (src-port, dst-port, max_paths) -> link-disjoint route tuple.
        self._multi_route_cache: Dict[Tuple[Port, Port, int], Tuple] = {}
        #: Fabric epoch the multi-route cache was filled under.
        self._multi_route_epoch = 0
        #: Descriptors submitted (asserted by tests; stripes live in the ledger).
        self.submissions = 0
        #: Stripes re-routed around a downed link by the guarded executor.
        self.reroutes = 0
        #: Stripes that lost every route (completed as FabricFault).
        self.faults = 0
        #: Optional :class:`repro.dataplane.graph.PlanCache`: when set,
        #: repeated submissions of an identical descriptor shape replay a
        #: pre-priced stripe plan instead of re-validating, re-routing,
        #: and re-planning.  Ledger accounting stays per-submission, so
        #: byte totals and simulated times are unchanged (DESIGN.md §16).
        self.plan_cache = None
        #: Cross-shard egress hook (see :mod:`repro.shard`): when set, a
        #: descriptor the bridge claims (its destination lives on another
        #: engine shard) is priced and mailed instead of routed locally —
        #: the *only* way bytes leave a shard.  None = unsharded fabric.
        self.bridge = None

    # -- producer surface --------------------------------------------------------
    def put(
        self,
        src: Buffer,
        dst: Buffer,
        traffic_class: str = "payload",
        name: str = "xfer",
        initiator: str = "host",
    ) -> Event:
        """Move ``src``'s payload into ``dst``; event fires when data landed.

        The payload copy happens exactly at arrival time, so a reader that
        waits for the event observes the new data and a reader that races
        observes the old data — matching RMA visibility semantics.
        """
        return self.submit(TransferDescriptor(
            src, dst, traffic_class=traffic_class, name=name, initiator=initiator,
        ))

    def rma_put(
        self,
        src: Buffer,
        dst: Buffer,
        traffic_class: str = "rma",
        name: str = "put",
    ) -> Event:
        """A put issued by *host* software (UCX put_nbx, MPI rendezvous).

        Device-to-device payloads between peers that can IPC-map each
        other ride the cuda_ipc path: a host-mediated async copy through
        the source GPU's copy engine, paying the per-op setup cost.
        Everything else (host buffers, same-GPU, inter-node GPUDirect,
        no-P2P staging) is a plain transfer.
        """
        desc = TransferDescriptor(
            src, dst, traffic_class=traffic_class, name=name, initiator="host",
        )
        bridge = self.bridge
        if bridge is not None and bridge.claims(desc):
            self.submissions += 1
            return bridge.submit(desc)
        desc.validate()
        self.submissions += 1
        if self._rides_copy_engine(desc):
            return self._staged_execute(desc)
        return self._execute(desc)

    def enable_plan_cache(self) -> "Dataplane":
        """Attach a fresh capture plan cache; idempotent, returns self."""
        if self.plan_cache is None:
            from repro.dataplane.graph import PlanCache

            self.plan_cache = PlanCache()
        return self

    def control(
        self,
        src: Buffer,
        dst: Buffer,
        nbytes: int,
        traffic_class: str = "control",
        name: str = "ctrl",
        initiator: str = "host",
    ) -> Event:
        """Timed transfer of ``nbytes`` along the src->dst route, no payload.

        Used for control messages (flags, setup packets) whose logical
        content is applied by the caller on completion.
        """
        return self.submit(TransferDescriptor(
            src, dst, nbytes=nbytes, payload=False,
            traffic_class=traffic_class, name=name, initiator=initiator,
        ))

    def submit(self, desc: TransferDescriptor) -> Event:
        """Validate, plan, account, and launch one descriptor.

        When a cross-shard bridge is attached and claims the descriptor,
        it is handed off whole: the bridge prices the wire segment
        analytically and schedules delivery on the destination shard via
        the mailbox, returning the local completion event.
        """
        bridge = self.bridge
        if bridge is not None and bridge.claims(desc):
            self.submissions += 1
            return bridge.submit(desc)
        cache = self.plan_cache
        stripes = cache.lookup(desc, self.fabric) if cache is not None else None
        if stripes is None:
            desc.validate()
        self.submissions += 1
        return self._execute(desc, stripes)

    # -- execution ---------------------------------------------------------------
    def _execute(self, desc: TransferDescriptor, stripes: Optional[tuple] = None) -> Event:
        if stripes is None:
            cache = self.plan_cache
            stripes = cache.lookup(desc, self.fabric) if cache is not None else None
        if stripes is None:
            from repro.hw.topology import RouteError

            try:
                primary = self.fabric.route(desc.src, desc.dst)
            except RouteError:
                if not self.fabric.link_state.armed:
                    raise
                # Faults severed every path before this submit: declare
                # the same typed completion the guarded executor uses.
                # With one fault injected the scan names the culprit; with
                # several it names the first in deterministic link order.
                state = self.fabric.link_state
                downed = next(
                    (l.name for l in state._by_name.values() if not l.up), "",
                )
                self.faults += 1
                obs = self.engine.obs
                if obs is not None:
                    obs.instant(
                        "fabric", "fault", t=self.engine.now,
                        xfer=desc.name, link=downed, nbytes=desc.wire_bytes,
                    )
                fault = FabricFault(desc.name, downed, self.engine.now,
                                    "no route at submit")
                return Event(self.engine).succeed(fault)
            stripes = self.policy.plan(self, desc, primary)
            if self.plan_cache is not None:
                self.plan_cache.store(desc, stripes, self.fabric)
        self.ledger.account(desc, stripes)
        obs = self.engine.obs
        if obs is not None:
            # One instant per accounted descriptor: the trace-replay
            # ingester (repro.workload.replay.from_chrome) rebuilds a
            # byte-exact schedule from exactly these events.
            obs.instant(
                "dataplane", desc.name,
                cls=desc.traffic_class, nbytes=desc.wire_bytes,
                src_gpu=desc.src.gpu, src_node=desc.src.node,
                dst_gpu=desc.dst.gpu, dst_node=desc.dst.node,
            )
        if self.fabric.link_state.armed:
            # A mutable-fabric run: every stripe gets the guarded,
            # re-route-capable executor.  Armed only by a fault schedule
            # or an explicit LinkState mutation, so the default path
            # below stays byte-identical to the pre-LinkState dataplane.
            if len(stripes) == 1:
                return self._guarded(desc, stripes[0], desc.name)
            parts = [
                self._guarded(desc, stripe, f"{desc.name}.s{i}")
                for i, stripe in enumerate(stripes)
            ]
            return AllOf(self.engine, parts)
        # Congestion signal: charge synchronously at submit — so every
        # submission planned later in the same event cascade sees this
        # load — and let the transfer process discharge in its finally
        # (completion, abort, and kill all balance the counter).
        ledger = self.ledger
        if len(stripes) == 1:
            stripe = stripes[0]
            ledger.charge_links(stripe.route, stripe.nbytes)
            return start_transfer(
                self.engine, stripe.route, stripe.nbytes,
                on_wire_done=stripe.on_wire_done, name=desc.name,
                ledger=ledger,
            )
        parts = []
        for i, stripe in enumerate(stripes):
            ledger.charge_links(stripe.route, stripe.nbytes)
            parts.append(start_transfer(
                self.engine, stripe.route, stripe.nbytes,
                on_wire_done=stripe.on_wire_done, name=f"{desc.name}.s{i}",
                ledger=ledger,
            ))
        return AllOf(self.engine, parts)

    def _guarded(self, desc: TransferDescriptor, stripe, name: str) -> Event:
        """Spawn one stripe with down-link retry (armed fabrics only).

        The wrapper catches :class:`LinkDownError` from the transfer
        process (a fault landed before the stripe fully acquired its
        route), resolves a surviving route through the epoch-fresh route
        cache, and retries.  When no route survives, the wrapper
        *succeeds* with a :class:`FabricFault` — a typed completion the
        caller can test — so sibling stripes and ``AllOf`` waiters are
        not torn down.
        """
        from repro.hw.topology import RouteError

        engine = self.engine
        ledger = self.ledger

        def run():
            route, nbytes, cb = stripe.route, stripe.nbytes, stripe.on_wire_done
            while True:
                blocked = next((ln for ln in route if not ln.up), None)
                if blocked is None:
                    # Charged per attempt; the transfer process discharges
                    # on completion *and* on a LinkDownError abort.
                    ledger.charge_links(route, nbytes)
                    try:
                        return (yield start_transfer(
                            engine, route, nbytes, cb, name=name,
                            ledger=ledger,
                        ))
                    except LinkDownError as exc:
                        blocked = exc.link
                try:
                    route = self.fabric.route(desc.src, desc.dst)
                except RouteError:
                    self.faults += 1
                    obs = engine.obs
                    if obs is not None:
                        obs.instant(
                            "fabric", "fault", t=engine.now, xfer=name,
                            link=blocked.name, nbytes=nbytes,
                        )
                    return FabricFault(
                        name, blocked.name, engine.now,
                        f"no surviving route after {blocked.name} went down",
                    )
                self.reroutes += 1

        return engine.process(run(), name=f"{name}.guard")

    def _rides_copy_engine(self, desc: TransferDescriptor) -> bool:
        src, dst = desc.src, desc.dst
        return (
            src.space is MemSpace.DEVICE
            and dst.space is MemSpace.DEVICE
            and src.gpu != dst.gpu
            and src.gpu is not None
            and dst.gpu is not None
            and self.fabric.topo.can_peer_map(src.gpu, dst.gpu)
        )

    def _staged_execute(self, desc: TransferDescriptor) -> Event:
        overhead = self.fabric.spec.params.cuda_ipc_put_overhead
        engine_res = self.fabric.copy_engine[desc.src.gpu]
        engine = self.engine

        def staged():
            yield engine_res.acquire()
            obs = engine.obs
            t0 = engine.now
            try:
                yield engine.timeout(overhead)
                yield self._execute(desc)
            finally:
                if obs is not None:
                    obs.span(
                        "copy_engine", engine_res.name, None,
                        t0, engine.now, nbytes=desc.wire_bytes,
                    )
                engine_res.release()

        return engine.process(staged(), name=desc.name)

    # -- multi-route discovery ----------------------------------------------------
    def disjoint_routes(self, src: Buffer, dst: Buffer, max_paths: int) -> Tuple:
        """Up to ``max_paths`` pairwise link-disjoint routes, primary first.

        Greedy peeling over the link graph: resolve the fewest-links
        route, exclude every link it claims, search again — until the
        graph runs out of paths or ``max_paths`` is reached.  Memoized
        per (src-port, dst-port, max_paths); fully deterministic (the
        underlying search breaks ties by adjacency insertion order).
        """
        epoch = self.fabric.link_state.epoch
        if epoch != self._multi_route_epoch:
            self._multi_route_cache.clear()
            self._multi_route_epoch = epoch
        sport = self.fabric._endpoint(src)
        dport = self.fabric._endpoint(dst)
        cache_key = (sport, dport, max_paths)
        cached = self._multi_route_cache.get(cache_key)
        if cached is not None:
            return cached
        routes = [self.fabric.route(src, dst)]
        if sport != dport:
            used = set(routes[0])
            while len(routes) < max_paths:
                try:
                    alt = self.fabric.graph.search(sport, dport, exclude=used)
                except RouteSearchError:
                    break
                routes.append(alt)
                used.update(alt)
        result = tuple(routes)
        self._multi_route_cache[cache_key] = result
        return result
