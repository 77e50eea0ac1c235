"""The four benchmark workloads: seeded input generation, set-up, one run.

Each workload is split the way the benchmark times it:

* :func:`generate` runs in the launcher.  From the seed alone it writes
  the workload's inputs (a parameter file, and for the replay workloads a
  ``repro.workload.replay/1`` JSONL schedule and a fault JSONL) into a
  directory under ``perfbench/``.  The program never sees the seed.
* :func:`prepare` runs in the measured process and is what ``setup_s``
  covers: it imports the simulator, resolves the machine and loads the
  generated files through the program's public loaders
  (``load_schedule``, ``FaultSchedule.load``).
* :meth:`Prepared.run` is one timed ``Workload.run`` on the sequential
  driver (``shards=None``).

This module imports ``repro`` only inside functions, so importing it
costs nothing that ``setup_s`` should have counted.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

DEFAULT_SEED = 0

#: Machine names (the generator grammar of ``repro.hw.spec.generators``).
HALO_MACHINE = "fat-tree-512"
LLM_MACHINE = "fat-tree-64-n8-l2"
LLM_SHAPE = {"dp": 4, "tp": 4, "pp": 4, "microbatches": 4}
JACOBI_ITERS = 20
GPUS_PER_NODE = 8


# --------------------------------------------------------------------------
# seeded input generation (launcher side)
# --------------------------------------------------------------------------

def _rng(stream: str, seed: int) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _gen_jacobi(seed: int, out_dir: str) -> Dict[str, Any]:
    # Pops do not depend on the multiplier; numpy tile work grows with
    # its square, so multipliers stay small to keep host cost the same
    # for every seed.
    rng = _rng("jacobi", seed)
    return {"multipliers": sorted(rng.sample(range(1, 5), 2)), "iters": JACOBI_ITERS}


def _gen_halo(seed: int, out_dir: str) -> Dict[str, Any]:
    rng = _rng("halo", seed)
    return {
        "machine": HALO_MACHINE,
        "iters": 4,
        "chunks": 2,
        "chunk_bytes": 1 << rng.randint(19, 21),
        "face_bytes": 1 << rng.randint(21, 23),
    }


def llm_compute_us(seed: int) -> float:
    return 40.0 + 0.5 * _rng("llm64", seed).randint(0, 40)


def _write_llm_schedule(seed: int, out_dir: str) -> str:
    from repro.workload.generators import llm_schedule

    sched = llm_schedule(
        compute_us_per_layer=llm_compute_us(seed), name="llm64", **LLM_SHAPE
    )
    path = os.path.join(out_dir, "schedule.jsonl")
    with open(path, "w") as fh:
        fh.write(sched.to_jsonl())
    return path


def _gen_llm(seed: int, out_dir: str) -> Dict[str, Any]:
    return {"machine": LLM_MACHINE,
            "schedule": _write_llm_schedule(seed, out_dir)}


def tp_ring_links(gpus_per_node: int = GPUS_PER_NODE, tp: int = LLM_SHAPE["tp"]) -> List[str]:
    """Node-local NVLinks the tensor-parallel allreduce rings ride.

    Ranks ``tp_i + tp * k`` are consecutive GPUs, so each tp group is a
    block of ``tp`` GPUs on one node and its ring uses ``g -> g+1 (mod
    block)``.  A fault on any other intra-node link would never touch a
    captured plan.
    """
    links = []
    for base in range(0, gpus_per_node, tp):
        for i in range(tp):
            links.append(f"nvl{base + i}->{base + (i + 1) % tp}")
    return links


def fault_events(seed: int, horizon_s: float, n_nodes: int) -> List[dict]:
    """Degrade, down and restore three distinct tp-ring NVLinks.

    Every event lies inside ``(0.1, 0.9) * horizon_s``; every link that
    goes down comes back, and at most two links of the full 8-GPU mesh
    are impaired at once, so a detour always survives (no FabricFault).
    """
    rng = _rng("faults", seed)
    targets = rng.sample(
        [(node, link) for node in range(n_nodes) for link in tp_ring_links()], 3
    )
    times = sorted(rng.uniform(0.1, 0.9) * horizon_s for _ in range(6))
    (n0, l0), (n1, l1), (n2, l2) = targets
    factor = round(rng.uniform(0.25, 0.75), 3)
    plan = [
        (n0, l0, "degrade"), (n1, l1, "down"), (n0, l0, "restore"),
        (n2, l2, "down"), (n1, l1, "restore"), (n2, l2, "restore"),
    ]
    events = []
    for t, (node, link, action) in zip(times, plan):
        ev = {"t": t, "link": link, "action": action, "node": node}
        if action == "degrade":
            ev["factor"] = factor
        events.append(ev)
    return events


def healthy_lower_bound_s(schedule_path: str) -> float:
    """A lower bound on the healthy ``t_end``: the least compute any
    rank's program serialises (compute steps of one rank never overlap).
    """
    per_rank: Dict[int, float] = {}
    with open(schedule_path) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("op") == "compute":
                per_rank[doc["rank"]] = per_rank.get(doc["rank"], 0.0) + doc["us"] * 1e-6
    return min(per_rank.values())


def _gen_llm_faults(seed: int, out_dir: str) -> Dict[str, Any]:
    inputs = _gen_llm(seed, out_dir)
    n_nodes = 64 // GPUS_PER_NODE
    events = fault_events(seed, healthy_lower_bound_s(inputs["schedule"]), n_nodes)
    path = os.path.join(out_dir, "faults.jsonl")
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")
    inputs["faults"] = path
    return inputs


#: Workload name -> input generator ``(seed, out_dir) -> inputs``.  Why
#: each workload exists, and which layers it stresses and bypasses, is
#: recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[int, str], Dict[str, Any]]] = {
    "jacobi-2node": _gen_jacobi,
    "halo-fattree512": _gen_halo,
    "llm64-replay": _gen_llm,
    "llm64-replay-faults": _gen_llm_faults,
}


def generate(name: str, seed: int, out_dir: str) -> str:
    """Write workload ``name``'s inputs for ``seed``; returns the
    parameter file the measured process reads."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = WORKLOADS[name](seed, out_dir)
    path = os.path.join(out_dir, "inputs.json")
    with open(path, "w") as fh:
        json.dump(inputs, fh, sort_keys=True)
    return path


# --------------------------------------------------------------------------
# set-up and one run (measured process side)
# --------------------------------------------------------------------------

@dataclass
class Prepared:
    """Everything one timed run needs, built by :func:`prepare`."""

    workload: Any
    machine: Any
    params: Dict[str, Any]
    faults: Any = None
    schedule: Any = None

    def run(self):
        return self.workload.run(
            machine=self.machine, shards=None, faults=self.faults, **self.params
        )


def prepare(name: str, inputs_path: str) -> Prepared:
    """Import the simulator and load the generated inputs (``setup_s``)."""
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    from repro.hw.faults import FaultSchedule
    from repro.hw.spec.generators import resolve_machine
    from repro.workload import registry, replay

    if name == "jacobi-2node":
        return Prepared(
            registry.get("fig9"), None,
            {"multipliers": tuple(inputs["multipliers"]), "iters": inputs["iters"]},
        )
    machine = resolve_machine(inputs["machine"])
    if name == "halo-fattree512":
        params = {k: inputs[k] for k in ("iters", "chunks", "chunk_bytes", "face_bytes")}
        return Prepared(registry.get("halo"), machine, params)
    schedule = replay.load_schedule(inputs["schedule"])
    faults = FaultSchedule.load(inputs["faults"]) if "faults" in inputs else None
    return Prepared(replay.ReplayWorkload(schedule), machine, {}, faults, schedule)


def outputs(result) -> Dict[str, Any]:
    """The simulated outputs a run is checked on (pinned for the default
    seed): every digest, the end time, and the per-class byte ledger."""
    extra = result.extra
    sig = extra.get("signature", {})
    return {
        "digests": dict(sorted(result.digests.items())),
        "t_end": sig.get("t_end", extra.get("t_end")),
        "class_bytes": result.class_bytes,
    }


def counts(result) -> Dict[str, int]:
    """Run counters recorded per layer but never checked."""
    graphs = result.extra.get("graphs", {})
    return {
        "events_popped": result.events_popped,
        "events_graphed": graphs.get("events_graphed", 0),
    }
