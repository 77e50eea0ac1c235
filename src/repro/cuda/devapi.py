"""Device-side action APIs available to kernel bodies and wave hooks.

A :class:`BlockCtx` is handed to each block of a
:class:`~repro.cuda.kernel.BlockKernel`; every method returns an
:class:`~repro.sim.events.Event` so the body chooses to wait (``yield``)
or post fire-and-forget — mirroring how device stores are posted while
``__threadfence_system`` + spin loops wait.

A :class:`KernelCtx` is handed to :class:`~repro.cuda.kernel.UniformKernel`
wave hooks and exposes *bulk* equivalents that aggregate many blocks'
effects into O(1) simulation events.

Host-visible signalling cost model (paper Fig 3): ``n`` device-thread
writes into pinned host memory serialize on the superchip's C2C link at
``flag_write_host`` each, plus a fixed ``flag_write_base`` until the value
is observable by the host — producing the paper's 271.5x (1024 vs 1 write)
and 9.4x (32 vs 1) aggregation ratios.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.cuda.timing import WorkSpec
from repro.hw.memory import Buffer, MemSpace
from repro.san import record
from repro.sim.events import Event
from repro.sim.resources import Counter, Flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device

#: Things a device flag-write can fire: a Flag (set) or Counter (add).
HostSignal = Union[Flag, Counter, Callable[[], None]]


def _fire(signal: HostSignal, amount: int = 1) -> None:
    if isinstance(signal, Flag):
        signal.set()
    elif isinstance(signal, Counter):
        signal.add(amount)
    else:
        signal()


def host_flag_write_proc(
    device: "Device", n_writes: int, signal: HostSignal, amount: int = 1, actor=None
):
    """Process: ``n_writes`` serialized device->host flag stores, then fire.

    The C2C down-link port serializes the stores (against other blocks'
    stores too); the fixed base covers the fence + host visibility delay.
    ``actor``, when given, release-publishes everything it did so far to
    whoever observes ``signal`` (the progression engine's watcher).
    """
    if n_writes < 1:
        raise ValueError("n_writes must be >= 1")
    hw = device.fabric.spec.params
    link = device.fabric.d2h_link(device.gpu_id)
    yield link.port.acquire()
    t0 = device.engine.now
    yield device.engine.timeout(n_writes * hw.flag_write_host)
    link.account(8 * n_writes, t0, transfers=n_writes)
    link.port.release()
    yield device.engine.timeout(hw.flag_write_base)
    if actor is not None:
        record.release(actor, ("sig", id(signal)))
    _fire(signal, amount)
    return n_writes


def multi_flag_write_proc(device: "Device", signals, actor=None):
    """Aggregate of several same-instant crossing signals, one store each.

    Replays exactly what ``len(signals)`` concurrent single-write
    ``host_flag_write_proc`` processes would do — the C2C port serializes
    them back-to-back (FIFO hands the slot over at the same instant), so
    store ``k`` occupies ``[T + (k-1)*w, T + k*w]`` and fires
    ``flag_write_base`` after its own store — but in one process instead
    of one per signal.  Only the coalescing fast path uses this (the
    engine is unobserved there, hence no per-signal ``record`` calls);
    the exact path keeps per-signal processes.
    """
    hw = device.fabric.spec.params
    link = device.fabric.d2h_link(device.gpu_id)
    engine = device.engine
    yield link.port.acquire()
    for signal in signals:
        t0 = engine.now
        yield engine.timeout(hw.flag_write_host)
        link.account(8, t0, transfers=1)
        engine.timeout(hw.flag_write_base).add_callback(
            lambda _ev, s=signal: _fire(s, 1)
        )
    link.port.release()
    return len(signals)


def _fenced_copy(device: "Device", src: Buffer, dst: Buffer, name: str, actor=None) -> Event:
    """Intra-kernel store sequence: wire transfer + system fence."""

    def proc():
        record.access(actor, src, write=False, note=name)
        record.access(actor, dst, write=True, note=name)
        yield device.fabric.dataplane.put(
            src, dst, traffic_class="cuda", initiator="device", name=name
        )
        yield device.engine.timeout(device.fabric.spec.params.kc_fence_overhead)

    ev = device.engine.process(proc(), name=name)
    if actor is not None:
        # Release at fence-visible time, keyed by the completion event, so
        # a waiter (e.g. the PE holding this kernel-copy event) acquires it.
        ev.add_callback(lambda _ev: record.release(actor, ("copydone", id(ev))))
    return ev


class BlockCtx:
    """Per-block device context (exact simulation path)."""

    __slots__ = ("device", "kernel", "block_id", "block_threads")

    def __init__(self, device: "Device", kernel, block_id: int) -> None:
        self.device = device
        self.kernel = kernel
        self.block_id = block_id
        self.block_threads = kernel.block

    # -- engine plumbing ------------------------------------------------------
    @property
    def engine(self):
        return self.device.engine

    @property
    def now(self) -> float:
        return self.device.engine.now

    @property
    def actor(self) -> tuple:
        """Sanitizer trace identity of this block."""
        return self.kernel.block_actor(self.device, self.block_id)

    def _spawn(self, gen, name: str) -> Event:
        return self.device.engine.process(gen, name=name)

    # -- compute ----------------------------------------------------------------
    def compute(self, work: WorkSpec) -> Event:
        """This block's compute phase (isolated-block cost model)."""
        dt = self.device.cost.block_compute_time(self.block_threads, work)
        return self.engine.timeout(dt)

    def syncthreads(self) -> Event:
        """``__syncthreads()`` — intra-block barrier cost."""
        record.mark("syncthreads", actor=self.actor)
        return self.engine.timeout(self.device.cost.syncthreads_cost)

    # -- sanitizer annotations ----------------------------------------------------
    def note_read(self, buf: Buffer) -> None:
        """Annotate that this block's threads read ``buf`` (zero sim cost)."""
        record.access(self.actor, buf, write=False, note="note_read")

    def note_write(self, buf: Buffer) -> None:
        """Annotate that this block's threads wrote ``buf`` (zero sim cost)."""
        record.access(self.actor, buf, write=True, note="note_write")

    # -- host signalling (MPIX_Pready progression-engine path) ---------------------
    def write_host_flags(self, n_writes: int, signal: HostSignal, amount: int = 1) -> Event:
        """``n_writes`` serialized stores into pinned host memory, then fire."""
        return self._spawn(
            host_flag_write_proc(self.device, n_writes, signal, amount, actor=self.actor),
            name=f"hflag[{self.kernel.name}:{self.block_id}]",
        )

    def write_host_flag(self, signal: HostSignal, amount: int = 1) -> Event:
        return self.write_host_flags(1, signal, amount)

    # -- global memory atomics (block aggregation counters) -----------------------
    def atomic_add(self, counter: Counter, amount: int = 1) -> Event:
        """Atomic add in this GPU's global memory; event value = new count."""
        def proc():
            yield self.engine.timeout(self.device.fabric.spec.params.gmem_atomic)
            # An atomic RMW is both an acquire and a release on the counter:
            # every pair of atomics on it is happens-before ordered.
            record.acquire(self.actor, ("ctr", id(counter)))
            record.release(self.actor, ("ctr", id(counter)))
            return counter.add(amount)

        return self._spawn(proc(), name=f"atomic[{self.kernel.name}:{self.block_id}]")

    # -- intra-kernel copies (Kernel-Copy MPIX_Pready path) --------------------------
    def copy(self, src: Buffer, dst: Buffer) -> Event:
        """Load/store copy from this kernel, e.g. over NVLink to a peer GPU.

        ``dst`` is typically an IPC-mapped view of remote device memory
        obtained through ``ucp_rkey_ptr`` (see repro.ucx.memreg).  The
        event fires once the stores are peer-visible: wire time plus the
        ``__threadfence_system`` fence cost.
        """
        if not src.space.device_accessible or not dst.space.device_accessible:
            raise ValueError("kernel copy requires device-accessible buffers")
        return _fenced_copy(
            self.device, src, dst, f"kcopy[{self.kernel.name}:{self.block_id}]",
            actor=self.actor,
        )

    # -- polling ------------------------------------------------------------------
    def wait_flag(self, flag: Flag) -> Event:
        """Spin on a flag in device-visible memory (MPIX_Parrived device path)."""
        ev = flag.wait()
        actor = self.actor
        ev.add_callback(lambda _ev: record.acquire(actor, ("sig", id(flag))))
        return ev


class KernelCtx:
    """Aggregate device context passed to UniformKernel wave hooks."""

    __slots__ = ("device", "kernel")

    def __init__(self, device: "Device", kernel) -> None:
        self.device = device
        self.kernel = kernel

    @property
    def engine(self):
        return self.device.engine

    @property
    def now(self) -> float:
        return self.device.engine.now

    @property
    def actor(self) -> tuple:
        """Sanitizer trace identity of this kernel's wave context."""
        return self.kernel.actor(self.device)

    def note_read(self, buf: Buffer) -> None:
        """Annotate an aggregate read by this kernel's blocks (zero cost)."""
        record.access(self.actor, buf, write=False, note="note_read")

    def note_write(self, buf: Buffer) -> None:
        """Annotate an aggregate write by this kernel's blocks (zero cost)."""
        record.access(self.actor, buf, write=True, note="note_write")

    def bulk_host_flag_writes(self, n_writes: int, signal: HostSignal, amount: int = 1) -> Event:
        """Aggregate of ``n_writes`` serialized flag stores starting now."""
        return self.device.engine.process(
            host_flag_write_proc(self.device, n_writes, signal, amount, actor=self.actor),
            name=f"hflag[{self.kernel.name}]",
        )

    def bulk_crossing_signals(self, signals) -> Event:
        """Aggregate of several same-wave crossing signals (fast path only).

        See :func:`multi_flag_write_proc`; used by the coalesced-
        signalling layer when one wave crosses the threshold of multiple
        contiguous transport partitions at once.
        """
        return self.device.engine.process(
            multi_flag_write_proc(self.device, signals, actor=self.actor),
            name=f"hflags[{self.kernel.name}]",
        )

    def bulk_atomic_adds(self, counter: Counter, amount: int) -> Event:
        """Aggregate global-memory atomics: ``amount`` increments at once."""
        def proc():
            yield self.engine.timeout(self.device.fabric.spec.params.gmem_atomic)
            record.acquire(self.actor, ("ctr", id(counter)))
            record.release(self.actor, ("ctr", id(counter)))
            return counter.add(amount)

        return self.device.engine.process(proc(), name=f"atomic[{self.kernel.name}]")

    def copy(self, src: Buffer, dst: Buffer) -> Event:
        """Intra-kernel bulk copy (Kernel-Copy transport partition)."""
        if not src.space.device_accessible or not dst.space.device_accessible:
            raise ValueError("kernel copy requires device-accessible buffers")
        return _fenced_copy(
            self.device, src, dst, f"kcopy[{self.kernel.name}]", actor=self.actor
        )
