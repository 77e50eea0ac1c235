"""Per-rank MPI runtime state.

Holds the rank's UCP resources, matching structures, endpoint cache, and
progression engine.  Created by :class:`~repro.mpi.world.World` before the
rank process starts; the *costs* of initialization are charged when the
rank process runs :meth:`MpiRuntime.init` (our MPI_Init).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from repro.mpi.matching import KeyedMatcher, TagMatcher
from repro.ucx.context import UcpContext, UcpWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.mpi.comm import Communicator
    from repro.mpi.progress import ProgressEngine
    from repro.mpi.world import World


class MpiRuntime:
    """Everything rank-local that the MPI layer needs."""

    def __init__(self, world: "World", world_rank: int, device: "Device") -> None:
        self.world = world
        self.world_rank = world_rank
        self.device = device
        self.engine = world.engine
        self.fabric = world.fabric
        self.params = world.fabric.spec.params
        self.node = device.node

        # Populated during init().
        self.context: Optional[UcpContext] = None
        self.worker: Optional[UcpWorker] = None
        self.progress: Optional["ProgressEngine"] = None
        self.initialized = False
        self.finalized = False

        # Matching / in-flight state.
        self.matcher = TagMatcher()
        self.part_matcher = KeyedMatcher(self.engine)
        self.pending_sends: Dict[int, Tuple] = {}
        self.recv_by_seq: Dict[int, object] = {}
        self.comms: Dict[int, "Communicator"] = {}

        # MCA partitioned component lazily initialized on first use
        # (its cost lands in the first MPIX_Pbuf_prepare — Table I).
        self.mca_partitioned_ready = False

    # -- init / finalize ------------------------------------------------------
    def init(self) -> Generator:
        """MPI_Init: create UCP resources, start progression, bootstrap-sync."""
        if self.initialized:
            return
        self.context = yield from UcpContext.create(
            self.engine, self.fabric, self.node, self.device.gpu_id
        )
        self.worker = yield from self.context.worker_create(name=f"r{self.world_rank}")
        from repro.mpi.progress import ProgressEngine

        self.progress = ProgressEngine(self)
        self.world._register_address(self.world_rank, self.worker.address)
        # Out-of-band bootstrap barrier (PMIx-style): everyone's address is
        # published before any rank leaves init.
        yield from self.world._bootstrap_barrier()
        self.initialized = True

    def finalize(self) -> Generator:
        if self.finalized:
            return
        yield self.engine.timeout(self.params.mpi_call_overhead)
        self.finalized = True

    # -- endpoints --------------------------------------------------------------
    def ep_to(self, comm: "Communicator", comm_rank: int) -> Generator:
        """Endpoint to ``comm_rank`` of ``comm`` (cached after first use)."""
        world_rank = comm.world_rank_of(comm_rank)
        addr = self.world.address_of(world_rank)
        ep = yield from self.worker.ep_create(addr)
        return ep

    def mca_partitioned_init(self) -> Generator:
        """First touch of the partitioned MCA component (Table I)."""
        if not self.mca_partitioned_ready:
            yield self.engine.timeout(self.params.mca_module_init)
            self.mca_partitioned_ready = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiRuntime rank={self.world_rank}>"
