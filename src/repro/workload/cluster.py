"""Shard-capable cluster workloads (halo, allreduce-node) as Workloads.

Thin adapters over :class:`repro.shard.ClusterJob`: the builders and the
execution engines are untouched, so every signature field — message
digest, per-window counts, ``events_popped``, per-shard pops — stays
pinned whether the job runs sequentially or under ``shards=N``
(DESIGN.md §14 guarantees the two are bit-identical).
"""

from __future__ import annotations

from repro.bench.series import Series
from repro.hw.spec.schema import MachineSpec
from repro.workload.base import ExecOutcome, Workload
from repro.workload.registry import register


class ClusterWorkload(Workload):
    """One named :mod:`repro.shard.workloads` entry on any MachineSpec."""

    supports_shards = True
    default_machine = "fat-tree-32-r2-l2"

    def __init__(self, name: str):
        from repro.shard.workloads import resolve_workload

        resolved, _build, defaults = resolve_workload(name)
        self.name = resolved
        self.defaults = dict(defaults)

    def _execute(self, spec: MachineSpec, shards, **params) -> ExecOutcome:
        from repro.shard import ClusterJob

        job = ClusterJob(spec, self.name, cfg=params, collect_steps=True)
        result = job.run(workers=shards)
        sig = result.signature()
        s = Series(
            self.name,
            f"cluster workload {self.name} on {spec.name}",
            ["shard", "events_popped"],
        )
        for shard_id, popped in enumerate(sig.get("per_shard_popped", [])):
            s.add(shard=shard_id, events_popped=popped)
        s.note(f"messages={sig['messages']} t_end={sig['t_end']}")
        digests = {"msg": sig["msg_digest"]}
        for shard_id, step_digest in sorted(sig.get("step_digests", {}).items()):
            digests[f"steps_shard{shard_id}"] = step_digest
        return ExecOutcome(
            series=s,
            mode=result.mode,
            class_bytes=sig.get("bytes_by_class", {}),
            digests=digests,
            extra={
                "signature": sig,
                "workers": result.workers,
                "windows": result.windows,
            },
            events_popped=sig["events_popped"],
        )


register(ClusterWorkload("halo"))
register(ClusterWorkload("allreduce-node"))
