"""Graph-captured replay: A/B equivalence with eager, wildcard recv tags."""

import pytest

from repro.sim.context import using
from repro.workload.generators import jacobi_schedule, llm_schedule
from repro.workload.replay import ReplayError, ReplayWorkload, parse_jsonl

HEADER = '{"schema": "repro.workload.replay/1", "ranks": %d, "name": "t"}\n'


def _sched(ranks, *lines):
    return parse_jsonl(HEADER % ranks + "\n".join(lines) + "\n", source="t.jsonl")


# -- wildcard recv tags -------------------------------------------------------

def test_wildcard_tag_send_side_rejected():
    with pytest.raises(ReplayError, match="recv-only"):
        _sched(2, '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "*"}')


def test_wildcard_and_tagged_recvs_cannot_mix():
    with pytest.raises(ReplayError, match="ambiguous"):
        _sched(
            2,
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}',
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "b"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
        )


def test_wildcard_count_mismatch_rejected():
    with pytest.raises(ReplayError, match="counts must match"):
        _sched(
            2,
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
        )


def test_wildcard_bytes_disagreement_rejected():
    with pytest.raises(ReplayError, match="matched\nsend|matched send"):
        _sched(
            2,
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*", "bytes": 16}',
        )


def test_wildcard_matches_sends_in_schedule_order():
    """Wildcard recvs replay bit-identically to the tagged schedule."""
    tagged = _sched(
        2,
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a", "class": "w"}',
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 8192, "tag": "b", "class": "w"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "b"}',
    )
    wild = _sched(
        2,
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a", "class": "w"}',
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 8192, "tag": "b", "class": "w"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
    )
    a = ReplayWorkload(tagged).run(machine="gh200-1x4")
    b = ReplayWorkload(wild).run(machine="gh200-1x4")
    assert a.extra["t_end"] == b.extra["t_end"]
    assert a.class_bytes == b.class_bytes
    assert a.events_popped == b.events_popped


def test_wildcard_works_in_cluster_mode():
    wild = _sched(
        8,
        *[f'{{"rank": {r}, "op": "send", "peer": {(r + 1) % 8}, '
          f'"bytes": 65536, "tag": "ring", "class": "ring"}}' for r in range(8)],
        *[f'{{"rank": {r}, "op": "recv", "peer": {(r - 1) % 8}, "tag": "*"}}'
          for r in range(8)],
    )
    tagged = _sched(
        8,
        *[f'{{"rank": {r}, "op": "send", "peer": {(r + 1) % 8}, '
          f'"bytes": 65536, "tag": "ring", "class": "ring"}}' for r in range(8)],
        *[f'{{"rank": {r}, "op": "recv", "peer": {(r - 1) % 8}, "tag": "ring"}}'
          for r in range(8)],
    )
    a = ReplayWorkload(tagged).run(machine="gh200-2x4")
    b = ReplayWorkload(wild).run(machine="gh200-2x4")
    assert a.digests["msg"] == b.digests["msg"]
    assert a.events_popped == b.events_popped


# -- jacobi_schedule generator ------------------------------------------------

def test_jacobi_schedule_validates_and_shapes():
    sched = jacobi_schedule(py=2, px=2, iters=3)
    assert sched.ranks == 4
    assert sched.name == "jacobi-2x2"
    # interior exchanges: each rank has 2 neighbours on a 2x2 torus-free grid
    sends = [s for s in sched.steps if s.op == "send"]
    recvs = [s for s in sched.steps if s.op == "recv"]
    assert len(sends) == len(recvs) == 3 * 8


def test_jacobi_schedule_deterministic_digest():
    assert (jacobi_schedule(py=4, px=2, iters=10).digest
            == jacobi_schedule(py=4, px=2, iters=10).digest)
    assert (jacobi_schedule(py=4, px=2, iters=10).digest
            != jacobi_schedule(py=4, px=2, iters=9).digest)


# -- A/B equivalence: world mode ----------------------------------------------

def _world_run(graphs):
    wl = ReplayWorkload(llm_schedule(dp=1, tp=2, pp=2, microbatches=2))
    with using(graphs=graphs):
        return wl.run(machine="gh200-1x4")


def test_world_graph_replay_bit_identical():
    on = _world_run(graphs=True)
    off = _world_run(graphs=False)
    assert on.mode == off.mode == "world"
    assert on.extra["t_end"] == off.extra["t_end"]
    assert on.class_bytes == off.class_bytes
    assert on.digests == off.digests
    g = on.extra["graphs"]
    assert "graphs" not in off.extra
    assert g["graph_launches"] == 1
    # every simulated pop moved off the host heap, none were lost
    assert g["events_graphed"] == off.events_popped
    assert g["captured_plans"] > 0 and g["replayed_descriptors"] > 0
    # ISSUE acceptance: >= 3x fewer host pops per replayed iteration
    assert on.events_popped * 3 <= off.events_popped


# -- A/B equivalence: cluster mode --------------------------------------------

def _cluster_run(graphs, shards=None):
    wl = ReplayWorkload(jacobi_schedule(py=4, px=2, iters=10))
    with using(graphs=graphs):
        return wl.run(machine="gh200-2x4", shards=shards)


def test_cluster_graph_replay_bit_identical():
    on = _cluster_run(graphs=True)
    off = _cluster_run(graphs=False)
    assert on.digests == off.digests               # msg + per-shard step hashes
    assert on.class_bytes == off.class_bytes
    assert (on.extra["signature"]["t_end"]
            == off.extra["signature"]["t_end"])    # bit-identical clock
    g = on.extra["graphs"]
    assert g["events_graphed"] == off.events_popped
    assert g["graph_launches"] > 0
    assert on.events_popped * 3 <= off.events_popped


def test_cluster_graph_replay_shards_bit_identical():
    seq = _cluster_run(graphs=True)
    par = _cluster_run(graphs=True, shards=2)
    assert seq.mode == "sequential" and par.mode == "mp"
    assert seq.digests == par.digests
    assert seq.events_popped == par.events_popped
    assert seq.extra["graphs"] == par.extra["graphs"]


def test_cluster_shards_no_graphs_still_identical():
    seq = _cluster_run(graphs=False)
    par = _cluster_run(graphs=False, shards=2)
    assert seq.digests == par.digests
    assert seq.events_popped == par.events_popped


def test_cluster_replay_digest_invariant_across_all_knobs():
    """One digest set across {graphs on/off} x {coalescing on/off} under
    the multi-path policy: the perf knobs and the striping policy must
    never change what the simulation computes (DESIGN.md §11, §16)."""
    results = []
    for graphs in (True, False):
        for coalesce in (True, False):
            wl = ReplayWorkload(jacobi_schedule(py=4, px=2, iters=10))
            with using(graphs=graphs, coalesce=coalesce):
                results.append(wl.run(machine="gh200-2x4", policy="multi"))
    base = results[0]
    for res in results[1:]:
        assert res.digests == base.digests
        assert res.class_bytes == base.class_bytes
        assert (res.extra["signature"]["t_end"]
                == base.extra["signature"]["t_end"])
