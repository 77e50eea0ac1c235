"""Memory registration and remote keys (``ucp_mem_map`` family).

The receiver of a partitioned channel registers its receive buffer and its
partition-status flag array, packs remote keys, and ships them to the
sender inside the ``setup_t`` response (paper Section IV-A2).  The sender
unpacks them into :class:`RemoteKey` objects usable with ``put_nbx``; for
the Kernel-Copy path it additionally resolves ``rkey_ptr`` — the
cuda_ipc-transport mapped device pointer (Section IV-A4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.cuda.ipc import IpcError, IpcMemHandle
from repro.hw.memory import Buffer, MemSpace

_reg_ids = itertools.count()


class UcxMemError(Exception):
    """Invalid registration / rkey usage."""


@dataclass(frozen=True)
class MemHandle:
    """Result of ``ucp_mem_map``: a registered memory region."""

    buffer: Buffer
    reg_id: int

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes


@dataclass(frozen=True)
class PackedRkey:
    """The wire form of a remote key (travels inside setup_t)."""

    reg_id: int
    buffer: Buffer = field(repr=False)  # resolved target region
    owner_node: int = 0
    owner_gpu: Optional[int] = None


@dataclass
class RemoteKey:
    """An unpacked rkey: lets an endpoint address the remote region."""

    packed: PackedRkey
    # Device-mapped view (cuda_ipc rkey_ptr); populated lazily.
    _mapped_ptr: Optional[Buffer] = None

    @property
    def target(self) -> Buffer:
        return self.packed.buffer


def mem_map(worker, buffer: Buffer):
    """``ucp_mem_map``: register ``buffer`` with the worker's context.

    Host generator: charges the registration (pinning + MR creation) cost.
    """
    engine = worker.engine
    obs = engine.obs
    t0 = engine.now
    cached = buffer._registered
    if cached:
        # Re-registering the same region is cheap (registration cache hit).
        yield engine.timeout(worker.fabric.spec.params.ucp_rkey_pack)
    else:
        yield engine.timeout(worker.fabric.spec.params.ucp_mem_map_per_call)
        buffer._registered = True
    if obs is not None:
        obs.span(
            "ucx", "mem_map", None, t0, engine.now,
            nbytes=buffer.nbytes, cached=cached, worker=worker.name,
        )
    return MemHandle(buffer, next(_reg_ids))


def rkey_pack(worker, memh: MemHandle):
    """``ucp_rkey_pack``: produce the wire rkey for a registered region."""
    yield worker.engine.timeout(worker.fabric.spec.params.ucp_rkey_pack)
    return PackedRkey(
        memh.reg_id, memh.buffer, memh.buffer.node, memh.buffer.gpu
    )


def rkey_unpack(worker, packed: PackedRkey):
    """``ucp_ep_rkey_unpack``: make a packed rkey usable locally."""
    yield worker.engine.timeout(worker.fabric.spec.params.ucp_rkey_unpack)
    return RemoteKey(packed)


def rkey_ptr(worker, rkey: RemoteKey, opener_gpu: int):
    """``ucp_rkey_ptr`` via the (modified) cuda_ipc transport.

    Returns a device-visible Buffer mapped to the remote GPU allocation so
    a kernel can store into it directly (the paper's UCX modification of
    ``uct_cuda_ipc_rkey_ptr`` using ``cuIpcOpenMemHandle``).  Only valid
    when the target is device memory the opener can peer-map (same node,
    P2P-capable interconnect).
    """
    target = rkey.target
    if target.space is not MemSpace.DEVICE:
        raise UcxMemError(
            f"rkey_ptr: remote region is {target.space}, cuda_ipc needs device memory"
        )
    yield worker.engine.timeout(worker.fabric.spec.params.ucp_rkey_ptr)
    obs = worker.engine.obs
    if obs is not None:
        obs.instant(
            "ucx", "rkey_ptr", None,
            opener_gpu=opener_gpu, nbytes=target.nbytes, worker=worker.name,
        )
    if rkey._mapped_ptr is None:
        try:
            handle = IpcMemHandle(target)
            rkey._mapped_ptr = handle.open(worker.fabric.topo, opener_gpu)
        except IpcError as exc:
            raise UcxMemError(f"rkey_ptr unavailable: {exc}") from exc
    return rkey._mapped_ptr
