"""Seeded input generation and the pinned-output check, end to end."""

import json
import os
import subprocess
import sys
import time

import pytest

from perfbench import workloads

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _contents(inputs_path):
    doc = json.loads(_read(inputs_path))
    return {k: _read(v) if k in ("schedule", "faults") else v for k, v in doc.items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.generate(name, 7, str(tmp_path / "a"))
    b = workloads.generate(name, 7, str(tmp_path / "b"))
    assert _contents(a) == _contents(b)


def test_seeds_change_the_inputs(tmp_path):
    seen = {
        _contents(workloads.generate("llm64-replay-faults", seed, str(tmp_path / str(seed))))
        ["faults"]
        for seed in range(4)
    }
    assert len(seen) == 4


@pytest.mark.parametrize("seed", range(20))
def test_fault_schedule_stays_inside_healthy_run_and_restores(seed):
    horizon = 6.7e-4
    events = workloads.fault_events(seed, horizon, n_nodes=8)
    ring = set(workloads.tp_ring_links())
    assert all(0 < ev["t"] < horizon for ev in events)
    assert [ev["t"] for ev in events] == sorted(ev["t"] for ev in events)
    assert all(ev["link"] in ring for ev in events)
    down = set()
    for ev in events:
        key = (ev["node"], ev["link"])
        if ev["action"] == "down":
            down.add(key)
        elif ev["action"] == "restore":
            down.discard(key)
        assert len(down) <= 2
    assert not down                        # every downed link comes back


def test_pinned_file_covers_every_workload():
    with open(os.path.join(HERE, "pinned.json")) as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(workloads.WORKLOADS)
    for outputs in pinned.values():
        assert set(outputs) == {"digests", "t_end", "class_bytes"}
        assert "series" in outputs["digests"]


def _worker(tmp_path, pinned):
    inputs = workloads.generate("llm64-replay", workloads.DEFAULT_SEED, str(tmp_path / "in"))
    pinned_path = tmp_path / "pinned.json"
    pinned_path.write_text(json.dumps(pinned))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", "llm64-replay",
         "--inputs", inputs, "--seconds", "0", "--pinned", str(pinned_path),
         "--spawn-t", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_worker_matches_pins_and_flags_a_perturbed_digest(tmp_path):
    with open(os.path.join(HERE, "pinned.json")) as fh:
        pinned = json.load(fh)
    good = _worker(tmp_path, pinned)
    assert good["failed"] == 0 and good["attempted"] >= 4
    assert good["outputs"] == pinned["llm64-replay"]

    pinned["llm64-replay"]["digests"]["msg"] = "0" * 64
    bad = _worker(tmp_path, pinned)
    assert bad["failed"] == bad["attempted"] >= 4
    assert any(m.startswith("digests") for m in bad["mismatches"])
