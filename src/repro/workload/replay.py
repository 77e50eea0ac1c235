"""Trace-replay ingestion: versioned JSONL schedules replayed anywhere.

A replay schedule is a JSONL file — one header line plus one step per
line — describing per-rank communication the way production trace tools
dump it (NCCL per-step logs, LLM training patterns, Chrome traces
exported by :mod:`repro.obs`):

.. code-block:: text

    {"schema": "repro.workload.replay/1", "ranks": 4, "name": "demo"}
    {"rank": 0, "op": "compute", "us": 120.0}
    {"rank": 0, "op": "send", "peer": 1, "bytes": 65536, "class": "pp-activation", "tag": "act"}
    {"rank": 1, "op": "recv", "peer": 0, "bytes": 65536, "tag": "act"}
    {"rank": 0, "op": "allreduce", "bytes": 1048576, "group": [0, 1, 2, 3]}

Step vocabulary (all sizes in bytes, times in microseconds):

``compute``
    Pure busy time on the rank: ``us``.
``send`` / ``recv``
    Two-sided message, matched per ``(sender, receiver, tag)`` channel in
    occurrence order.  ``class`` tags the traffic for the per-class
    ledger; a ``recv`` that states ``bytes`` must agree with its matched
    send.  A ``recv`` may give the wildcard tag ``"*"`` — it matches the
    sender's next unmatched send *regardless of tag*, in schedule order,
    the way lossy NCCL-style logs record arrivals without tags.  A
    (sender, receiver) pair must be all-wildcard or all-tagged: mixing
    the two would make matching ambiguous and is rejected.
``put``
    One-sided write: times the wire like a send, no matching recv.
``partitioned``
    A partitioned send: ``partitions`` chunks of ``bytes`` total; the
    matched ``recv`` completes when every chunk has landed.
``allreduce`` / ``barrier``
    Collective over ``group`` (default: all ranks); every member must
    list the same collective sequence.  Lowered to the ring
    reduce-scatter + allgather schedule (2·(n−1) rounds of
    ``ceil(bytes/n)`` chunks).  ``barrier`` is an 8-byte allreduce under
    traffic class ``replay-barrier``.
``xfer``
    A raw endpoint-addressed transfer (``src_gpu``/``src_node`` →
    ``dst_gpu``/``dst_node``) — the form :func:`from_chrome` emits when
    ingesting an exported Chrome trace; world-mode only.

Steps may carry an ``id`` and ``deps`` (ids of earlier steps on the same
rank).  Execution is strictly in-order per rank, so deps are validated
documentation: a dep referencing a later or unknown id is an error.

Validation failures raise :class:`ReplayError` with ``file:line:``
prefixes.  Replay is deterministic: the same schedule on the same
machine under the same policy reproduces every byte, timestamp, and
digest — the schedule's SHA-256 is folded into the sweep cache key.

Execution picks the engine by machine shape: multi-node specs replay
under the sharded cluster engine (``shards=N`` fans out workers;
results stay bit-identical), single-node machines — or schedules with
``xfer`` steps — replay on one engine against the full fabric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.series import Series
from repro.hw.spec.schema import MachineSpec
from repro.sim.context import current
from repro.units import us
from repro.workload.base import (
    ExecOutcome,
    Workload,
    WorkloadError,
    canonical_json,
    sha256_hex,
)

SCHEMA = "repro.workload.replay/1"

#: Default traffic class for steps that do not tag one.
DEFAULT_CLASS = "replay"
BARRIER_CLASS = "replay-barrier"
BARRIER_BYTES = 8

#: recv-side wildcard tag: match the peer's sends in schedule order.
WILDCARD_TAG = "*"

_P2P_SEND_OPS = ("send", "put", "partitioned")
_COLLECTIVE_OPS = ("allreduce", "barrier")
_OPS = ("compute", "recv", "xfer") + _P2P_SEND_OPS + _COLLECTIVE_OPS


class ReplayError(WorkloadError):
    """A schedule failed validation; message carries ``file:line:``."""


# --------------------------------------------------------------------------
# schedule model + parsing
# --------------------------------------------------------------------------

@dataclass
class Step:
    rank: int
    op: str
    line: int                           # 1-based source line (diagnostics)
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


@dataclass
class Schedule:
    """A validated replay schedule: header + per-line steps."""

    ranks: int
    steps: List[Step]
    name: str = ""
    source: str = "<schedule>"

    @property
    def digest(self) -> str:
        """Content identity: SHA-256 over the canonical step stream."""
        doc = {
            "schema": SCHEMA,
            "ranks": self.ranks,
            "name": self.name,
            "steps": [
                {"rank": s.rank, "op": s.op, **s.fields} for s in self.steps
            ],
        }
        return sha256_hex(canonical_json(doc))

    def has_op(self, op: str) -> bool:
        return any(s.op == op for s in self.steps)

    def to_jsonl(self) -> str:
        lines = [json.dumps(
            {"schema": SCHEMA, "ranks": self.ranks, "name": self.name},
            sort_keys=True,
        )]
        for s in self.steps:
            lines.append(json.dumps(
                {"rank": s.rank, "op": s.op, **s.fields}, sort_keys=True
            ))
        return "\n".join(lines) + "\n"


def _err(source: str, line: int, msg: str) -> ReplayError:
    return ReplayError(f"{source}:{line}: {msg}")


def _want_int(source: str, line: int, doc: dict, key: str, what: str,
              lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _err(source, line, f"{what}: field {key!r} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise _err(source, line, f"{what}: field {key!r} must be >= {lo}, got {value}")
    if hi is not None and value >= hi:
        raise _err(source, line, f"{what}: field {key!r} must be < {hi}, got {value}")
    return value


def _endpoint(source: str, line: int, doc: dict, side: str) -> Tuple[str, int]:
    gpu = doc.get(f"{side}_gpu")
    node = doc.get(f"{side}_node")
    if gpu is not None:
        if not isinstance(gpu, int) or isinstance(gpu, bool) or gpu < 0:
            raise _err(source, line, f"xfer: {side}_gpu must be a non-negative integer, got {gpu!r}")
        return ("g", gpu)
    if node is not None:
        if not isinstance(node, int) or isinstance(node, bool) or node < 0:
            raise _err(source, line, f"xfer: {side}_node must be a non-negative integer, got {node!r}")
        return ("h", node)
    raise _err(source, line, f"xfer: needs {side}_gpu or {side}_node")


def parse_jsonl(text: str, source: str = "<schedule>") -> Schedule:
    """Parse + validate one JSONL schedule; raises :class:`ReplayError`."""
    header: Optional[dict] = None
    header_line = 0
    steps: List[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise _err(source, lineno, f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _err(source, lineno, f"expected a JSON object, got {type(doc).__name__}")
        if header is None:
            if "schema" not in doc:
                raise _err(source, lineno, "first line must be the header "
                           f'{{"schema": "{SCHEMA}", "ranks": N}}')
            if doc["schema"] != SCHEMA:
                raise _err(source, lineno,
                           f"unsupported schema {doc['schema']!r} (want {SCHEMA!r})")
            header = doc
            header_line = lineno
            continue
        if "schema" in doc:
            raise _err(source, lineno, "duplicate header line")
        op = doc.get("op")
        if op not in _OPS:
            raise _err(source, lineno,
                       f"unknown op {op!r}; known: {', '.join(_OPS)}")
        rank = doc.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise _err(source, lineno, f"step needs an integer 'rank', got {rank!r}")
        fields = {k: v for k, v in doc.items() if k not in ("rank", "op")}
        steps.append(Step(rank=rank, op=op, line=lineno, fields=fields))
    if header is None:
        raise _err(source, 1, "empty schedule: missing header line")
    ranks = _want_int(source, header_line, header, "ranks", "header", lo=1)
    sched = Schedule(
        ranks=ranks, steps=steps,
        name=str(header.get("name", "")), source=source,
    )
    _validate(sched)
    return sched


def load_schedule(path: str) -> Schedule:
    with open(path) as fh:
        return parse_jsonl(fh.read(), source=path)


def _validate(sched: Schedule) -> None:
    src_name, ranks = sched.source, sched.ranks
    ids_seen: Dict[int, set] = {r: set() for r in range(ranks)}
    # (sender, receiver, tag) -> [send steps] / [recv steps], occurrence order
    sends: Dict[Tuple[int, int, Any], List[Step]] = {}
    recvs: Dict[Tuple[int, int, Any], List[Step]] = {}
    # (sender, receiver) -> [wildcard recv steps], occurrence order
    wilds: Dict[Tuple[int, int], List[Step]] = {}
    # group tuple -> rank -> [(op, bytes, class), ...]
    colls: Dict[Tuple[int, ...], Dict[int, List[Tuple]]] = {}

    for s in sched.steps:
        what = f"op {s.op!r}"
        if not 0 <= s.rank < ranks:
            raise _err(src_name, s.line, f"rank {s.rank} out of range (header ranks={ranks})")
        if s.op == "compute":
            dt = s.get("us")
            if not isinstance(dt, (int, float)) or isinstance(dt, bool) or dt < 0:
                raise _err(src_name, s.line, f"{what}: field 'us' must be a non-negative number, got {dt!r}")
        elif s.op in ("send", "put", "partitioned", "recv"):
            peer = _want_int(src_name, s.line, s.fields, "peer", what, lo=0, hi=ranks)
            if peer == s.rank:
                raise _err(src_name, s.line, f"{what}: peer {peer} is the step's own rank")
            if s.op != "recv":
                _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            elif "bytes" in s.fields:
                _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            if s.op == "partitioned":
                _want_int(src_name, s.line, s.fields, "partitions", what, lo=1)
            tag = s.get("tag", 0)
            if not isinstance(tag, (str, int)) or isinstance(tag, bool):
                raise _err(src_name, s.line, f"{what}: field 'tag' must be a string or integer, got {tag!r}")
            if tag == WILDCARD_TAG and s.op != "recv":
                raise _err(src_name, s.line,
                           f"{what}: the wildcard tag {WILDCARD_TAG!r} is recv-only")
            if s.op == "recv":
                if tag == WILDCARD_TAG:
                    wilds.setdefault((peer, s.rank), []).append(s)
                else:
                    recvs.setdefault((peer, s.rank, tag), []).append(s)
            elif s.op != "put":
                sends.setdefault((s.rank, peer, tag), []).append(s)
        elif s.op in _COLLECTIVE_OPS:
            if s.op == "allreduce":
                _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            group = s.get("group")
            if group is None:
                members = tuple(range(ranks))
            else:
                if not isinstance(group, list) or not group:
                    raise _err(src_name, s.line, f"{what}: field 'group' must be a non-empty list of ranks")
                for g in group:
                    if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < ranks:
                        raise _err(src_name, s.line, f"{what}: group member {g!r} out of range (ranks={ranks})")
                if len(set(group)) != len(group):
                    raise _err(src_name, s.line, f"{what}: group has duplicate members: {group}")
                members = tuple(sorted(group))
            if s.rank not in members:
                raise _err(src_name, s.line, f"{what}: rank {s.rank} is not in its own group {list(members)}")
            if len(members) > 1:
                sig = (s.op, s.get("bytes", BARRIER_BYTES), s.get("class"))
                colls.setdefault(members, {}).setdefault(s.rank, []).append((sig, s))
        elif s.op == "xfer":
            _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            _endpoint(src_name, s.line, s.fields, "src")
            _endpoint(src_name, s.line, s.fields, "dst")
        cls = s.get("class")
        if cls is not None and not isinstance(cls, str):
            raise _err(src_name, s.line, f"{what}: field 'class' must be a string, got {cls!r}")
        sid = s.get("id")
        if sid is not None:
            if not isinstance(sid, str) or not sid:
                raise _err(src_name, s.line, f"{what}: field 'id' must be a non-empty string")
            if sid in ids_seen[s.rank]:
                raise _err(src_name, s.line, f"{what}: duplicate id {sid!r} on rank {s.rank}")
        deps = s.get("deps")
        if deps is not None:
            if not isinstance(deps, list):
                raise _err(src_name, s.line, f"{what}: field 'deps' must be a list of step ids")
            for dep in deps:
                if dep not in ids_seen[s.rank]:
                    raise _err(
                        src_name, s.line,
                        f"{what}: dep {dep!r} does not name an earlier step of "
                        f"rank {s.rank} (execution is in-order per rank)",
                    )
        if sid is not None:
            ids_seen[s.rank].add(sid)

    # Wildcard matching: pair-wide, in schedule order across all tags.
    for pair in sorted(wilds):
        src_rank, dst_rank = pair
        tagged = [
            chan for chan in recvs
            if (chan[0], chan[1]) == pair and recvs[chan]
        ]
        if tagged:
            ref = wilds[pair][0]
            raise _err(
                src_name, ref.line,
                f"channel {src_rank}->{dst_rank}: wildcard and tagged recvs "
                "mix on the same pair — matching would be ambiguous",
            )
        pair_sends = sorted(
            (snd for chan, ss in sends.items()
             if (chan[0], chan[1]) == pair for snd in ss),
            key=lambda s: s.line,
        )
        if len(pair_sends) != len(wilds[pair]):
            ref = wilds[pair][0]
            raise _err(
                src_name, ref.line,
                f"channel {src_rank}->{dst_rank}: {len(pair_sends)} send(s) "
                f"but {len(wilds[pair])} wildcard recv(s) — counts must match "
                "pair-wide",
            )
        for occ, (snd, rcv) in enumerate(zip(pair_sends, wilds[pair])):
            if "bytes" in rcv.fields and rcv["bytes"] != snd["bytes"]:
                raise _err(
                    src_name, rcv.line,
                    f"channel {src_rank}->{dst_rank} wildcard occurrence "
                    f"{occ}: recv states {rcv['bytes']} bytes but the matched "
                    f"send (line {snd.line}) sends {snd['bytes']}",
                )

    # Two-sided matching: same channel, same count, agreeing sizes.
    wild_pairs = set(wilds)
    for chan in sorted(set(sends) | set(recvs), key=repr):
        src_rank, dst_rank, tag = chan
        if (src_rank, dst_rank) in wild_pairs:
            continue  # consumed by pair-wide wildcard matching above
        ns, nr = len(sends.get(chan, ())), len(recvs.get(chan, ()))
        if ns != nr:
            ref = (sends.get(chan) or recvs.get(chan))[0]
            raise _err(
                src_name, ref.line,
                f"channel {src_rank}->{dst_rank} tag {tag!r}: {ns} send(s) but "
                f"{nr} recv(s) — two-sided steps must match per channel",
            )
        for occ, (snd, rcv) in enumerate(zip(sends[chan], recvs[chan])):
            if "bytes" in rcv.fields and rcv["bytes"] != snd["bytes"]:
                raise _err(
                    src_name, rcv.line,
                    f"channel {src_rank}->{dst_rank} tag {tag!r} occurrence "
                    f"{occ}: recv states {rcv['bytes']} bytes but the matched "
                    f"send (line {snd.line}) sends {snd['bytes']}",
                )

    # Collective agreement: every member lists the same sequence.
    for members, by_rank in colls.items():
        missing = [r for r in members if r not in by_rank]
        if missing:
            ref = next(iter(by_rank.values()))[0][1]
            raise _err(
                src_name, ref.line,
                f"collective group {list(members)}: rank(s) {missing} never "
                "join — every member must list the same collective sequence",
            )
        counts = {r: len(v) for r, v in by_rank.items()}
        first = by_rank[members[0]]
        for r in members[1:]:
            if counts[r] != counts[members[0]]:
                raise _err(
                    src_name, by_rank[r][0][1].line,
                    f"collective group {list(members)}: rank {members[0]} has "
                    f"{counts[members[0]]} collective step(s) but rank {r} has {counts[r]}",
                )
            for occ, ((sig_a, step_a), (sig_b, step_b)) in enumerate(zip(first, by_rank[r])):
                if sig_a != sig_b:
                    raise _err(
                        src_name, step_b.line,
                        f"collective group {list(members)} occurrence {occ}: "
                        f"rank {r} lists {sig_b} but rank {members[0]} lists "
                        f"{sig_a} (line {step_a.line})",
                    )


# --------------------------------------------------------------------------
# lowering to per-rank micro-ops
# --------------------------------------------------------------------------
# Micro-ops are plain picklable tuples (the cluster build ships them to
# worker processes):
#   ("compute", dt_seconds)
#   ("send", dst_rank, nbytes, traffic_class, key_or_None)  # key signals recv
#   ("wait", src_rank, key)
#   ("xfer", src_ep, dst_ep, nbytes, traffic_class)         # ep = ("g",i)|("h",i)

def lower(sched: Schedule) -> Dict[int, List[tuple]]:
    """Lower the schedule to per-rank micro-op lists (rank r -> GPU r)."""
    ops: Dict[int, List[tuple]] = {r: [] for r in range(sched.ranks)}
    send_occ: Dict[Tuple[int, int, Any], int] = {}
    recv_occ: Dict[Tuple[int, int, Any], int] = {}
    wild_occ: Dict[Tuple[int, int], int] = {}
    send_info: Dict[Tuple[int, int, Any], List[Step]] = {}
    # (sender, receiver) -> [(chan, chan-occurrence, step)], schedule order
    # — wildcard recvs match pair-wide but wait on the matched send's own
    # channel keys, so send lowering never needs to know about wildcards.
    pair_sends: Dict[Tuple[int, int], List[Tuple[Tuple, int, Step]]] = {}
    coll_occ: Dict[Tuple[int, ...], Dict[int, int]] = {}
    groups: List[Tuple[int, ...]] = []

    for s in sched.steps:
        if s.op in ("send", "partitioned"):
            chan = (s.rank, s["peer"], s.get("tag", 0))
            pre = send_info.setdefault(chan, [])
            pair_sends.setdefault((s.rank, s["peer"]), []).append(
                (chan, len(pre), s)
            )
            pre.append(s)

    def chunk_sizes(total: int, parts: int) -> List[int]:
        base, rem = divmod(total, parts)
        return [base + (1 if i < rem else 0) for i in range(parts)]

    for s in sched.steps:
        out = ops[s.rank]
        cls = s.get("class") or DEFAULT_CLASS
        if s.op == "compute":
            out.append(("compute", float(s["us"]) * us))
        elif s.op == "put":
            out.append(("send", s["peer"], s["bytes"], cls, None))
        elif s.op in ("send", "partitioned"):
            chan = (s.rank, s["peer"], s.get("tag", 0))
            occ = send_occ.get(chan, 0)
            send_occ[chan] = occ + 1
            parts = s.get("partitions", 1) if s.op == "partitioned" else 1
            for i, nbytes in enumerate(chunk_sizes(s["bytes"], parts)):
                if nbytes:
                    out.append(("send", s["peer"], nbytes, cls,
                                ("p",) + chan + (occ, i)))
        elif s.op == "recv":
            tag = s.get("tag", 0)
            if tag == WILDCARD_TAG:
                pair = (s["peer"], s.rank)
                j = wild_occ.get(pair, 0)
                wild_occ[pair] = j + 1
                chan, occ, snd = pair_sends[pair][j]
            else:
                chan = (s["peer"], s.rank, tag)
                occ = recv_occ.get(chan, 0)
                recv_occ[chan] = occ + 1
                snd = send_info[chan][occ]
            parts = snd.get("partitions", 1) if snd.op == "partitioned" else 1
            for i, nbytes in enumerate(chunk_sizes(snd["bytes"], parts)):
                if nbytes:
                    out.append(("wait", s["peer"], ("p",) + chan + (occ, i)))
        elif s.op in _COLLECTIVE_OPS:
            group = s.get("group")
            members = tuple(sorted(group)) if group is not None else tuple(range(sched.ranks))
            if len(members) == 1:
                continue
            if members not in coll_occ:
                coll_occ[members] = {}
                groups.append(members)
            gid = groups.index(members)
            occ = coll_occ[members].get(s.rank, 0)
            coll_occ[members][s.rank] = occ + 1
            if s.op == "barrier":
                nbytes, cls = BARRIER_BYTES, s.get("class") or BARRIER_CLASS
            else:
                nbytes = s["bytes"]
            n = len(members)
            me = members.index(s.rank)
            right = members[(me + 1) % n]
            left = members[(me - 1) % n]
            chunk = max((nbytes + n - 1) // n, 1)
            for rnd in range(2 * (n - 1)):
                out.append(("send", right, chunk, cls, ("c", gid, occ, rnd, s.rank)))
                out.append(("wait", left, ("c", gid, occ, rnd, left)))
        elif s.op == "xfer":
            src_ep = _endpoint(sched.source, s.line, s.fields, "src")
            dst_ep = _endpoint(sched.source, s.line, s.fields, "dst")
            out.append(("xfer", src_ep, dst_ep, s["bytes"], cls))
    return ops


# --------------------------------------------------------------------------
# rendezvous board
# --------------------------------------------------------------------------

class _Board:
    """Key -> one-shot Event rendezvous between same-engine processes.

    Either side may arrive first: the event is created on first touch,
    succeeded once by the signaller, and yielding an already-processed
    event resumes the waiter immediately (see ``Process._wait_on``).
    """

    def __init__(self, engine):
        self.engine = engine
        self._events: Dict[Any, Any] = {}

    def _ev(self, key):
        ev = self._events.get(key)
        if ev is None:
            ev = self._events[key] = self.engine.event()
        return ev

    def signal(self, key) -> None:
        self._ev(key).succeed()

    def wait(self, key):
        return self._ev(key)


# --------------------------------------------------------------------------
# world-mode interpreter (single engine, full fabric)
# --------------------------------------------------------------------------

def _replay_on_fabric(
    machine: MachineSpec, ops: Dict[int, List[tuple]], graphs: bool = False,
) -> dict:
    """Replay lowered ops on one engine + fabric; returns run facts.

    With ``graphs=True`` the rank programs run on a private
    :class:`~repro.dataplane.graph.GraphEngine` behind a *single* host
    graph-launch event (stream-triggered issue: the host heap sees one
    pop, not one per descriptor), with descriptor plans cached across
    repeated submissions.  Timestamps and the per-class ledger are
    bit-identical to the eager path; only where the pops are counted
    changes (``events_graphed`` vs ``events_popped``).
    """
    from repro.hw.memory import Buffer, MemSpace
    from repro.hw.topology import Fabric
    from repro.sim.engine import Engine

    import numpy as np

    if graphs:
        from repro.dataplane.graph import GRAPHS, GraphEngine

        host = Engine()
        engine: Engine = GraphEngine()
    else:
        host = None
        engine = Engine()
    fabric = Fabric(engine, machine)
    topo = fabric.topo
    dataplane = fabric.dataplane
    board = _Board(engine)

    anchors: Dict[Tuple[str, int, str], Any] = {}

    def anchor(ep: Tuple[str, int], side: str):
        """1-byte virtual endpoint buffer; distinct src/dst per endpoint."""
        key = (ep[0], ep[1], side)
        buf = anchors.get(key)
        if buf is None:
            if ep[0] == "g":
                buf = Buffer.alloc_virtual(
                    1, np.uint8, MemSpace.DEVICE,
                    node=topo.node_of(ep[1]), gpu=ep[1],
                    label=f"replay.g{ep[1]}.{side}",
                )
            else:
                buf = Buffer.alloc_virtual(
                    1, np.uint8, MemSpace.HOST, node=ep[1],
                    label=f"replay.h{ep[1]}.{side}",
                )
            anchors[key] = buf
        return buf

    def rank_proc(rank: int, my_ops: List[tuple]):
        for i, op in enumerate(my_ops):
            kind = op[0]
            if kind == "compute":
                yield engine.timeout(op[1])
            elif kind == "send":
                _, dst, nbytes, cls, key = op
                yield dataplane.control(
                    anchor(("g", rank), "src"), anchor(("g", dst), "dst"),
                    nbytes, traffic_class=cls, name=f"replay.r{rank}.{i}",
                )
                if key is not None:
                    board.signal(key)
            elif kind == "wait":
                yield board.wait(op[2])
            elif kind == "xfer":
                _, src_ep, dst_ep, nbytes, cls = op
                yield dataplane.control(
                    anchor(src_ep, "src"), anchor(dst_ep, "dst"),
                    nbytes, traffic_class=cls, name=f"replay.r{rank}.{i}",
                )

    if graphs:
        dataplane.enable_plan_cache()

    procs = [
        engine.process(rank_proc(rank, rank_ops), name=f"replay.r{rank}")
        for rank, rank_ops in sorted(ops.items())
        if rank_ops
    ]
    if host is not None:
        def launcher():
            # One host event replays the whole captured program: the
            # graph engine drains synchronously, then the host clock
            # advances to the graph's completion time.
            engine.run()
            GRAPHS.launches += 1
            yield host.timeout_at(engine.now)

        host.process(launcher(), name="replay.graph-launch")
        host.run()
    else:
        engine.run()
    for p in procs:
        if not p.ok:  # pragma: no cover - surfacing simulation bugs
            raise RuntimeError(f"replay rank failed: {p.value!r}")
    facts = {
        "t_end": engine.now,
        "class_bytes": dataplane.ledger.as_dict(),
    }
    if graphs:
        cache = dataplane.plan_cache
        facts["graphs"] = {
            "graph_launches": 1,
            "events_graphed": engine.events_popped,
            "captured_plans": cache.misses,
            "replayed_descriptors": cache.hits,
        }
    return facts


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

class ReplayWorkload(Workload):
    """Replay one validated schedule on any machine."""

    supports_shards = True
    default_machine = "gh200-2x4"

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.name = f"replay:{schedule.name}" if schedule.name else "replay"
        self.defaults = {}

    @classmethod
    def from_file(cls, path: str) -> "ReplayWorkload":
        return cls(load_schedule(path))

    def fingerprint(self, **params: Any) -> dict:
        return {
            "workload": "replay",
            "schedule": self.schedule.digest,
            "params": {**self.defaults, **params},
        }

    def _mode(self, spec) -> str:
        if spec.n_nodes >= 2 and not self.schedule.has_op("xfer"):
            return "cluster"
        return "world"

    def _execute(self, spec: MachineSpec, shards, **params) -> ExecOutcome:
        sched = self.schedule
        n_gpus = spec.n_gpus
        if sched.ranks > n_gpus:
            raise ReplayError(
                f"{sched.source}: schedule needs {sched.ranks} rank(s) but "
                f"{spec.name} has {n_gpus} GPU(s)"
            )
        ops = lower(sched)
        mode = self._mode(spec)
        if shards is not None and mode != "cluster":
            raise ReplayError(
                f"{sched.source}: shards={shards} needs a multi-node machine "
                "and an xfer-free schedule (single-engine replay is unsharded)"
            )
        if mode == "cluster":
            return self._execute_cluster(spec, ops, shards)
        from repro.dataplane.graph import graphs_enabled

        facts = _replay_on_fabric(spec, ops, graphs=graphs_enabled(current()))
        series = self._series(facts["class_bytes"], facts["t_end"])
        extra = {"t_end": facts["t_end"], "ranks": sched.ranks,
                 "steps": len(sched.steps)}
        if "graphs" in facts:
            extra["graphs"] = facts["graphs"]
        return ExecOutcome(
            series=series,
            mode="world",
            class_bytes=facts["class_bytes"],
            digests={"schedule": sched.digest},
            extra=extra,
        )

    def _execute_cluster(self, spec, ops, shards) -> ExecOutcome:
        from repro.shard import ClusterJob

        job = ClusterJob(
            spec, "replay",
            cfg={"ops": ops},
            collect_steps=True,
        )
        result = job.run(workers=shards)
        sig = result.signature()
        series = self._series(
            {cls: {"bytes": b, "transfers": None}
             for cls, b in sig.get("bytes_by_class", {}).items()},
            sig["t_end"],
        )
        digests = {"schedule": self.schedule.digest, "msg": sig["msg_digest"]}
        for shard_id, step_digest in sorted(sig.get("step_digests", {}).items()):
            digests[f"steps_shard{shard_id}"] = step_digest
        return ExecOutcome(
            series=series,
            mode=result.mode,
            class_bytes=sig.get("bytes_by_class", {}),
            digests=digests,
            extra={"signature": sig, "ranks": self.schedule.ranks,
                   "steps": len(self.schedule.steps),
                   "graphs": {"graph_launches": result.graph_launches,
                              "events_graphed": result.events_graphed}},
            events_popped=sig["events_popped"],
        )

    def _series(self, class_bytes: dict, t_end: float) -> Series:
        s = Series(
            self.name,
            f"trace replay, {self.schedule.ranks} rank(s), "
            f"{len(self.schedule.steps)} step(s)",
            ["traffic_class", "bytes", "transfers"],
        )
        for cls in sorted(class_bytes):
            row = class_bytes[cls]
            if isinstance(row, dict):
                s.add(traffic_class=cls, bytes=row["bytes"],
                      transfers=row.get("transfers"))
            else:
                s.add(traffic_class=cls, bytes=row, transfers=None)
        s.note(f"t_end={t_end!r}")
        return s


# --------------------------------------------------------------------------
# Chrome-trace ingestion
# --------------------------------------------------------------------------

def from_chrome(trace: dict, name: str = "chrome-ingest") -> Schedule:
    """Build a replay schedule from an exported Chrome trace.

    Reads the ``dataplane`` instants the dataplane emits per accounted
    descriptor (src/dst endpoint, traffic class, wire bytes) and turns
    each into an ``xfer`` step, in timestamp order.  Replaying the result
    reproduces the original run's per-class ledger byte and transfer
    counts on the same machine.  Only unsharded runs round-trip this way:
    bridge-claimed cross-shard descriptors never reach the dataplane
    accounting point.
    """
    events = [
        ev for ev in trace.get("traceEvents", [])
        if ev.get("ph") == "i" and ev.get("cat") == "dataplane"
    ]
    events.sort(key=lambda ev: ev.get("ts", 0))
    steps: List[Step] = []
    max_gpu = -1
    for i, ev in enumerate(events):
        args = ev.get("args", {})
        fields: Dict[str, Any] = {
            "bytes": args["nbytes"], "class": args.get("cls", DEFAULT_CLASS),
        }
        for side in ("src", "dst"):
            gpu, node = args.get(f"{side}_gpu"), args.get(f"{side}_node")
            if gpu is not None:
                fields[f"{side}_gpu"] = gpu
                max_gpu = max(max_gpu, gpu)
            else:
                fields[f"{side}_node"] = node if node is not None else 0
        rank = fields.get("src_gpu", 0)
        steps.append(Step(rank=rank, op="xfer", line=i + 2, fields=fields))
    ranks = max(max_gpu + 1, 1)
    sched = Schedule(ranks=ranks, steps=steps, name=name, source=f"<{name}>")
    _validate(sched)
    return sched
