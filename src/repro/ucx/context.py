"""UCP contexts, workers, and worker addresses.

One :class:`UcpContext` exists per process (MPI rank); it owns one or more
:class:`UcpWorker` objects.  A worker encapsulates communication resources
and receives active messages; its :class:`WorkerAddress` is what remote
endpoints connect to (in real UCX an opaque blob exchanged out-of-band; our
MPI layer exchanges it through the launcher's bootstrap, like PMIx would).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Channel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ucx.endpoint import UcpEndpoint

_worker_ids = itertools.count()


@dataclass(frozen=True)
class WorkerAddress:
    """Opaque address of a worker (exchangeable between ranks)."""

    worker_id: int
    node: int
    gpu: Optional[int]
    _worker: "UcpWorker" = field(repr=False, compare=False)

    def resolve(self) -> "UcpWorker":
        return self._worker


class AmMessage:
    """A received active message."""

    __slots__ = ("am_id", "payload", "nbytes", "sender")

    def __init__(self, am_id: int, payload: Any, nbytes: int, sender: WorkerAddress) -> None:
        self.am_id = am_id
        self.payload = payload
        self.nbytes = nbytes
        self.sender = sender


class UcpWorker:
    """A progress context: AM reception + endpoint factory."""

    def __init__(self, context: "UcpContext", name: str = "") -> None:
        self.context = context
        self.engine: Engine = context.engine
        self.fabric: Fabric = context.fabric
        self.worker_id = next(_worker_ids)
        self.name = name or f"worker{self.worker_id}"
        # Per-AM-id FIFO channels of received messages.
        self._am_channels: Dict[int, Channel] = {}
        self._endpoints: Dict[int, "UcpEndpoint"] = {}  # keyed by remote worker_id

    @property
    def address(self) -> WorkerAddress:
        return WorkerAddress(self.worker_id, self.context.node, self.context.gpu, self)

    # -- endpoints ----------------------------------------------------------
    def ep_create(self, remote: WorkerAddress):
        """Create (or reuse) an endpoint to ``remote``.

        Host generator: charges endpoint creation cost on first use — call
        as ``ep = yield from worker.ep_create(addr)``.
        """
        from repro.ucx.endpoint import UcpEndpoint

        existing = self._endpoints.get(remote.worker_id)
        if existing is not None:
            return existing
            yield  # pragma: no cover - keeps this a generator
        yield self.engine.timeout(self.fabric.spec.params.ucp_ep_create)
        ep = UcpEndpoint(self, remote)
        self._endpoints[remote.worker_id] = ep
        return ep

    # -- active messages -------------------------------------------------------
    def _am_channel(self, am_id: int) -> Channel:
        chan = self._am_channels.get(am_id)
        if chan is None:
            chan = Channel(self.engine, name=f"{self.name}.am{am_id}")
            self._am_channels[am_id] = chan
        return chan

    def am_recv(self, am_id: int) -> Event:
        """Event yielding the next AmMessage with ``am_id``."""
        return self._am_channel(am_id).get()

    def am_try_recv(self, am_id: int) -> Optional[AmMessage]:
        """Non-blocking AM poll (used by progression engines)."""
        return self._am_channel(am_id).try_get()

    def _deliver_am(self, msg: AmMessage) -> None:
        self._am_channel(msg.am_id).put(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcpWorker {self.name} node={self.context.node}>"


class UcpContext:
    """Per-process UCP context (created lazily by the MPI layer)."""

    def __init__(self, engine: Engine, fabric: Fabric, node: int, gpu: Optional[int]) -> None:
        self.engine = engine
        self.fabric = fabric
        self.node = node
        self.gpu = gpu
        self.workers: List[UcpWorker] = []

    @classmethod
    def create(cls, engine: Engine, fabric: Fabric, node: int, gpu: Optional[int]):
        """Host generator: charge ``ucp_context_create`` and build."""
        yield engine.timeout(fabric.spec.params.ucp_context_create)
        return cls(engine, fabric, node, gpu)

    def worker_create(self, name: str = ""):
        """Host generator: charge ``ucp_worker_create`` and build."""
        yield self.engine.timeout(self.fabric.spec.params.ucp_worker_create)
        worker = UcpWorker(self, name)
        self.workers.append(worker)
        return worker
