"""The "replay" resident shard workload: lowered trace micro-ops per node.

:mod:`repro.workload.replay` validates a JSONL schedule and lowers it to
per-rank micro-op lists (picklable tuples); this build executes one
shard's slice of that plan.  It lives in the shard package — like the
halo and allreduce-node builds — because resident builds are the one
place allowed to drive ``shard.engine`` / ``shard.fabric`` directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


def build_replay(shard, cfg: dict) -> list:
    """Shard build: replay lowered ops on one node shard.

    ``cfg["ops"]`` maps *global* GPU id -> micro-op list.  Local sends
    use the shard dataplane + rendezvous board; cross-shard sends become
    bridge-priced ``Shard.put`` messages keyed by the send key, which the
    receiving rank drains from its mailbox.

    The shard replays as a captured transfer graph: the identical rank
    generators run on a private :class:`~repro.dataplane.graph.GraphEngine`
    behind one host graph-launch event per window, with descriptor plans
    cached after the first iteration.  Shards that cannot graph (shared
    reference engine, observers, graphs off in the run context) fall back
    to eager replay — timestamps and digests are identical either way.
    """
    from repro.hw.memory import Buffer, MemSpace
    from repro.workload.replay import _Board

    import numpy as np

    shard.enter_graph_mode()
    engine = shard.run_engine
    board = _Board(engine)
    dataplane = shard.fabric.dataplane
    srcs: Dict[Tuple[int, int], Any] = {}

    def src_buf(local: int, nbytes: int):
        buf = srcs.get((local, nbytes))
        if buf is None:
            buf = Buffer.alloc_virtual(
                nbytes, np.uint8, MemSpace.DEVICE, 0, local,
                label=f"replay.g{local}",
            )
            srcs[(local, nbytes)] = buf
        return buf

    def anchor(local: int, side: str):
        if side == "src":
            return src_buf(local, 1)
        buf = srcs.get(("dst", local))
        if buf is None:
            buf = Buffer.alloc_virtual(
                1, np.uint8, MemSpace.DEVICE, 0, local, label=f"replay.g{local}d"
            )
            srcs[("dst", local)] = buf
        return buf

    def rank_proc(local: int, g: int, my_ops: List[tuple]):
        for i, op in enumerate(my_ops):
            kind = op[0]
            if kind == "compute":
                yield engine.timeout(op[1])
            elif kind == "send":
                _, dst, nbytes, cls, key = op
                if shard.owns_gpu(dst):
                    yield dataplane.control(
                        anchor(local, "src"), anchor(dst - shard.gpu_base, "dst"),
                        nbytes, traffic_class=cls, name=f"replay.g{g}.{i}",
                    )
                    if key is not None:
                        board.signal(key)
                else:
                    yield shard.put(
                        src_buf(local, nbytes),
                        shard.remote(dst, nbytes, key if key is not None else ("put", g, i)),
                        traffic_class=cls, name=f"replay.g{g}.{i}",
                    )
            elif kind == "wait":
                _, src, key = op
                if shard.owns_gpu(src):
                    yield board.wait(key)
                else:
                    yield shard.recv(g, key)
        return (g, engine.now)

    procs = []
    for g, my_ops in sorted(cfg["ops"].items()):
        if shard.owns_gpu(g) and my_ops:
            local = g - shard.gpu_base
            procs.append(engine.process(
                rank_proc(local, g, my_ops), name=f"replay.n{shard.id}.g{local}"
            ))
    return procs


REPLAY_CLUSTER_DEFAULTS: Dict[str, Any] = {"ops": {}}
