"""UCP endpoints: RMA puts and active messages to a remote worker.

``put_nbx`` is the workhorse under ``MPI_Pready`` (paper Section IV-A4):
the sender puts a data partition into the registered remote region, and —
because UCX lacks a put-with-remote-completion (cf. the paper's
IBV_WR_RDMA_WRITE_WITH_IMM remark) — chains a *second* tiny put that raises
the partition-arrived flag on the receiver.  :meth:`UcpEndpoint.put_nbx`
implements one put; the chaining lives in the MPI Partitioned layer.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hw.memory import Buffer
from repro.sim.events import Event
from repro.ucx.context import AmMessage, UcpWorker, WorkerAddress
from repro.ucx.memreg import RemoteKey, UcxMemError


class UcpEndpoint:
    """Connection from a local worker to a remote worker."""

    def __init__(self, worker: UcpWorker, remote: WorkerAddress) -> None:
        self.worker = worker
        self.remote = remote
        self.engine = worker.engine
        self.fabric = worker.fabric
        self.puts_issued = 0
        self.puts_completed = 0

    # -- RMA ---------------------------------------------------------------
    def put_nbx(
        self,
        src: Buffer,
        rkey: RemoteKey,
        offset_elems: int = 0,
        callback: Optional[Callable[[], None]] = None,
    ) -> Event:
        """Non-blocking RMA put of ``src`` into the remote region.

        ``offset_elems`` positions the write inside the registered region
        (element-granular, matching how partitions index one buffer).  The
        returned event fires — and ``callback`` runs — when the data has
        landed in the target memory.  Puts from one endpoint to regions on
        one route complete in issue order (FIFO links).
        """
        target = rkey.target
        if offset_elems < 0 or offset_elems + len(src.data) > len(target.data):
            raise UcxMemError(
                f"put_nbx out of bounds: offset {offset_elems} + {len(src.data)} "
                f"> region {len(target.data)}"
            )
        dst_view = target.view(offset_elems, len(src.data))
        self.puts_issued += 1
        # Transport selection happens in the dataplane: D2D puts between
        # peers that can IPC-map each other ride the host-mediated
        # cuda_ipc copy engine, everything else goes direct (shm /
        # rc_verbs GPUDirect / host-staged bounce on no-P2P machines).
        done = self.fabric.dataplane.rma_put(
            src, dst_view, traffic_class="rma", name=f"put[{self.worker.name}]"
        )
        obs = self.engine.obs
        t_issue = self.engine.now
        nbytes = src.nbytes

        def _on_done(ev: Event) -> None:
            self.puts_completed += 1
            if obs is not None:
                obs.span(
                    "ucx", "put", None, t_issue, self.engine.now,
                    nbytes=nbytes, worker=self.worker.name,
                )
            if callback is not None and ev.ok:
                callback()

        done.add_callback(_on_done)
        return done

    # -- active messages -----------------------------------------------------
    def am_send(self, am_id: int, payload: Any, nbytes: int = 128) -> Event:
        """Send an active message; event fires at *local* completion.

        The payload object is delivered to the remote worker's AM channel
        when the wire transfer arrives.  ``nbytes`` sizes the wire cost
        (setup_t packets are small control messages).
        """
        def send_proc():
            obs = self.engine.obs
            if obs is not None:
                obs.instant(
                    "ucx", "am_send", None,
                    am_id=am_id, nbytes=nbytes, worker=self.worker.name,
                )
            p = self.fabric.spec.params
            yield self.engine.timeout(p.am_send_overhead)
            src_probe = Buffer.alloc(
                max(nbytes // 8, 1), space=_host_space(), node=self.worker.context.node
            )
            dst_probe = Buffer.alloc(
                max(nbytes // 8, 1), space=_host_space(), node=self.remote.node
            )
            wire = self.fabric.dataplane.control(
                src_probe, dst_probe, nbytes, traffic_class="am", name="am"
            )

            def deliver(ev: Event) -> None:
                if ev.ok:
                    self.remote.resolve()._deliver_am(
                        AmMessage(am_id, payload, nbytes, self.worker.address)
                    )

            wire.add_callback(deliver)
            # Local completion: once injected (eager AM), not when delivered.
            return None

        return self.engine.process(send_proc(), name=f"am{am_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcpEndpoint {self.worker.name} -> worker{self.remote.worker_id}>"


def _host_space():
    from repro.hw.memory import MemSpace

    return MemSpace.HOST
