"""Dynamic partitioned-semantics checks over a recorded trace.

Each check is a pure function ``(events, allocs) -> [Finding]`` consuming
the trace a :class:`~repro.san.record.Recorder` collected.  The MPI 4.0
rules enforced (paper §II-B / §IV-A; MPI 4.0 §4.2):

``double-pready``
    Every partition of an active epoch may be marked ready **once**.  The
    device bindings aggregate a block's worth of user partitions, so the
    device-level rule is: one ``pready_*`` call per block (or wave range)
    per prequest per epoch.  Doubled calls are silently absorbed by the
    global-memory counters in the seed — this check makes them fatal.
``pready-inactive`` / ``pready-freed`` / ``pready-wrong-device``
    ``MPIX_Pready`` outside an active epoch, on a freed ``MPIX_Prequest``,
    or from a different device than the request was created for.  The
    runtime guards raise; the sanitizer preserves them as findings with
    provenance even when the exception is swallowed upstream.
``read-before-parrived``
    A recorded read of a receive-side partition before its arrived flag
    was raised in the current epoch.
``send-overwrite``
    A recorded write to a send-side transport partition between its
    ``Pready`` and the transport's completion (data + flag puts landed).
``uninit-read``
    A device-actor read of a DEVICE-space allocation that was created in
    the sanitized window and never written — by a recorded write, a
    transport landing, or a kernel ``apply`` on that GPU (``cudaMalloc``
    does not zero memory; the simulator's NumPy backing does, so this is
    the only way the model can surface such bugs).  Conservative: any
    kernel ``apply`` on the owning GPU counts as initializing it.
``ipc-misuse``
    Cross-node ``cudaIpcOpenMemHandle`` / Kernel-Copy mapping attempts
    (NVLink unreachable), or IPC export of non-device memory.
``data-race``
    The generic happens-before detector (:mod:`repro.san.hb`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.san import hb
from repro.san.record import ACCESS, MARK, AllocInfo, TraceEvent, fmt_actor
from repro.san.report import Finding
from repro.units import fmt_time


@dataclass(frozen=True)
class CheckInfo:
    """Catalogue entry, surfaced by ``python -m repro san --list-checks``."""

    id: str
    summary: str


CheckFn = Callable[[Sequence[TraceEvent], Dict[int, AllocInfo]], List[Finding]]


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _marks(events: Sequence[TraceEvent], note: str) -> List[TraceEvent]:
    return [ev for ev in events if ev.kind == MARK and ev.note == note]


def _blocks_range(ev: TraceEvent) -> Tuple[int, int]:
    """Half-open block range a pready mark covers (single block or wave)."""
    blocks = ev.get("blocks")
    if blocks is not None:
        return int(blocks[0]), int(blocks[1])
    b = int(ev.get("block"))
    return b, b + 1


# --------------------------------------------------------------------------
# the checks
# --------------------------------------------------------------------------

def check_double_pready(events, allocs) -> List[Finding]:
    findings: List[Finding] = []
    # (preq id, epoch) -> list of (lo, hi, event)
    seen: Dict[Tuple[int, int], List[Tuple[int, int, TraceEvent]]] = {}
    for ev in _marks(events, "pready"):
        key = (ev.get("preq"), ev.get("epoch"))
        lo, hi = _blocks_range(ev)
        for plo, phi, prev in seen.setdefault(key, []):
            if lo < phi and plo < hi:
                overlap = (max(lo, plo), min(hi, phi))
                which = (
                    f"block {overlap[0]}"
                    if overlap[1] - overlap[0] == 1
                    else f"blocks [{overlap[0]}:{overlap[1]})"
                )
                findings.append(
                    Finding(
                        check="double-pready",
                        message=(
                            f"MPIX_Pready issued twice for {which} of transport "
                            f"partition {ev.get('tp')} in epoch {ev.get('epoch')} "
                            "(one ready call per partition per epoch)"
                        ),
                        time=ev.time,
                        actor=ev.actor,
                        related=(
                            (prev.time, prev.actor, "first MPIX_Pready for this range"),
                        ),
                    )
                )
                break
        seen[key].append((lo, hi, ev))
    return findings


_GUARD_CHECKS = (
    "pready-inactive",
    "pready-freed",
    "pready-wrong-device",
    "ipc-misuse",
)


def check_guards(events, allocs) -> List[Finding]:
    """Surface runtime-guard trips (which also raise) as findings."""
    return [
        Finding(
            check=ev.get("check"),
            message=ev.get("msg", ""),
            time=ev.time,
            actor=ev.actor,
        )
        for ev in _marks(events, "guard")
        if ev.get("check") in _GUARD_CHECKS
    ]


def _channel_geometry(events, note: str):
    """req id -> (alloc, elem bytes per partition, partitions) from marks."""
    out = {}
    for ev in _marks(events, note):
        out[ev.get("req")] = (
            ev.get("alloc"),
            ev.get("partition_bytes"),
            ev.get("partitions"),
        )
    return out


def check_read_before_parrived(events, allocs) -> List[Finding]:
    findings: List[Finding] = []
    chans = _channel_geometry(events, "channel-recv")
    # recv alloc -> (req id, partition bytes, partitions)
    by_alloc = {alloc: (req, pb, n) for req, (alloc, pb, n) in chans.items()}
    arrived: Dict[Tuple[int, int], float] = {}   # (req, partition) -> time
    active: Dict[int, bool] = {}
    for ev in events:
        if ev.kind == MARK and ev.note == "epoch-start" and ev.get("side") == "recv":
            req = ev.get("req")
            active[req] = True
            arrived = {k: t for k, t in arrived.items() if k[0] != req}
        elif ev.kind == MARK and ev.note == "arrived":
            arrived[(ev.get("req"), ev.get("partition"))] = ev.time
        elif ev.kind == MARK and ev.note == "epoch-complete" and ev.get("side") == "recv":
            active[ev.get("req")] = False
        elif ev.kind == ACCESS and not ev.write and ev.actor is not None:
            entry = by_alloc.get(ev.alloc)
            if entry is None or entry[1] is None:
                continue
            req, pbytes, nparts = entry
            if not active.get(req):
                continue  # outside an epoch: the buffer belongs to the app
            for p in range(ev.lo // pbytes, min((ev.hi - 1) // pbytes + 1, nparts)):
                if (req, p) not in arrived:
                    findings.append(
                        Finding(
                            check="read-before-parrived",
                            message=(
                                f"read of receive partition {p} "
                                f"({fmt_actor(ev.actor)}, bytes [{ev.lo}:{ev.hi})) "
                                "before MPIX_Parrived reported it complete"
                            ),
                            time=ev.time,
                            actor=ev.actor,
                        )
                    )
                    break
    return findings


def check_send_overwrite(events, allocs) -> List[Finding]:
    findings: List[Finding] = []
    chans = _channel_geometry(events, "channel-send")
    by_alloc = {alloc: (req, pb, n) for req, (alloc, pb, n) in chans.items()}
    # (req, partition) -> pready mark still in flight
    in_flight: Dict[Tuple[int, int], TraceEvent] = {}
    for ev in events:
        if ev.kind == MARK and ev.note == "wire-pready":
            in_flight[(ev.get("req"), ev.get("partition"))] = ev
        elif ev.kind == MARK and ev.note == "tp-complete":
            in_flight.pop((ev.get("req"), ev.get("partition")), None)
        elif ev.kind == ACCESS and ev.write and ev.actor is not None:
            entry = by_alloc.get(ev.alloc)
            if entry is None or entry[1] is None:
                continue
            req, pbytes, nparts = entry
            for p in range(ev.lo // pbytes, min((ev.hi - 1) // pbytes + 1, nparts)):
                pready_ev = in_flight.get((req, p))
                if pready_ev is not None:
                    findings.append(
                        Finding(
                            check="send-overwrite",
                            message=(
                                f"send partition {p} overwritten while its "
                                "transfer is in flight (MPI_Pready issued, "
                                "transport not complete)"
                            ),
                            time=ev.time,
                            actor=ev.actor,
                            related=(
                                (
                                    pready_ev.time,
                                    pready_ev.actor,
                                    f"MPI_Pready for partition {p}",
                                ),
                            ),
                        )
                    )
                    break
    return findings


def check_uninit_read(events, allocs) -> List[Finding]:
    findings: List[Finding] = []
    written: Dict[int, bool] = {}
    reported: set = set()
    for ev in events:
        if ev.kind == MARK and ev.note == "apply":
            gpu = ev.get("gpu")
            for idx, info in allocs.items():
                if info.gpu == gpu:
                    written[idx] = True
        elif ev.kind == ACCESS and ev.write:
            written[ev.alloc] = True
        elif ev.kind == ACCESS and not ev.write:
            info = allocs.get(ev.alloc)
            if (
                ev.actor is not None
                and info is not None
                and info.space == "device"
                and not info.preexisting
                and not written.get(ev.alloc)
                and ev.alloc not in reported
            ):
                reported.add(ev.alloc)
                label = f" {info.label!r}" if info.label else ""
                findings.append(
                    Finding(
                        check="uninit-read",
                        message=(
                            f"read of device allocation{label} (alloc{ev.alloc}, "
                            f"bytes [{ev.lo}:{ev.hi})) that was never written — "
                            "cudaMalloc memory is uninitialized"
                        ),
                        time=ev.time,
                        actor=ev.actor,
                    )
                )
    return findings


def check_data_race(events, allocs) -> List[Finding]:
    findings: List[Finding] = []
    for race in hb.detect_races(events, allocs):
        info = allocs.get(race.alloc)
        label = f" {info.label!r}" if info is not None and info.label else ""
        a, b = race.first, race.second
        kind = "write/write" if a.write and b.write else "read/write"
        findings.append(
            Finding(
                check="data-race",
                message=(
                    f"{kind} race on allocation{label} (alloc{race.alloc}): "
                    f"{'write' if b.write else 'read'} of bytes [{b.lo}:{b.hi}) "
                    f"is unordered with {fmt_actor(a.actor)}'s "
                    f"{'write' if a.write else 'read'} of [{a.lo}:{a.hi}) "
                    f"at t={fmt_time(a.time)}"
                ),
                time=b.time,
                actor=b.actor,
                related=((a.time, a.actor, "conflicting access"),),
            )
        )
    return findings


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

DYNAMIC_CHECKS: Dict[str, Tuple[CheckInfo, Optional[CheckFn]]] = {
    "double-pready": (
        CheckInfo("double-pready",
                  "one MPIX_Pready per partition per epoch (device + wave paths)"),
        check_double_pready,
    ),
    "pready-inactive": (
        CheckInfo("pready-inactive",
                  "MPIX_Pready outside an active epoch (missing MPI_Start)"),
        None,  # via check_guards
    ),
    "pready-freed": (
        CheckInfo("pready-freed",
                  "MPIX_Pready on a freed MPIX_Prequest"),
        None,  # via check_guards
    ),
    "pready-wrong-device": (
        CheckInfo("pready-wrong-device",
                  "MPIX_Pready from a device the prequest was not created for"),
        None,  # via check_guards
    ),
    "ipc-misuse": (
        CheckInfo("ipc-misuse",
                  "cross-node cudaIpc / Kernel-Copy mapping, non-device IPC export"),
        None,  # via check_guards
    ),
    "read-before-parrived": (
        CheckInfo("read-before-parrived",
                  "receive partition read before its MPIX_Parrived flag"),
        check_read_before_parrived,
    ),
    "send-overwrite": (
        CheckInfo("send-overwrite",
                  "send partition written between MPI_Pready and transport completion"),
        check_send_overwrite,
    ),
    "uninit-read": (
        CheckInfo("uninit-read",
                  "device-side read of never-written cudaMalloc memory"),
        check_uninit_read,
    ),
    "data-race": (
        CheckInfo("data-race",
                  "happens-before (vector clock) race on overlapping byte ranges"),
        check_data_race,
    ),
}


def run_checks(
    events: Sequence[TraceEvent],
    allocs: Dict[int, AllocInfo],
    only: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the selected (default: all) dynamic checks over one trace."""
    wanted = set(only) if only is not None else set(DYNAMIC_CHECKS)
    unknown = wanted - set(DYNAMIC_CHECKS)
    if unknown:
        raise ValueError(f"unknown sanitizer checks: {sorted(unknown)}")
    findings: List[Finding] = []
    ran: set = set()
    for check_id in DYNAMIC_CHECKS:
        if check_id not in wanted:
            continue
        _info, fn = DYNAMIC_CHECKS[check_id]
        if fn is None:
            if "guards" not in ran:
                ran.add("guards")
                findings += [
                    f for f in check_guards(events, allocs) if f.check in wanted
                ]
        else:
            findings += fn(events, allocs)
    findings.sort(key=lambda f: f.time)
    return findings
