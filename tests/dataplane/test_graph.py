"""Captured transfer graphs: plan cache, graph engine, A/B gating."""

import numpy as np
import pytest

from repro.dataplane.graph import (
    GRAPHS,
    GraphEngine,
    GraphError,
    graphs_enabled,
)
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec import ONE_NODE
from repro.hw.topology import Fabric
from repro.sim.context import current, using
from repro.sim.engine import STATS, Engine
from repro.units import us


def _mk(engine_cls=Engine, config=ONE_NODE):
    engine = engine_cls()
    return engine, Fabric(engine, config)


def dev(fab, gpu, n=8, fill=None):
    return Buffer.alloc(
        n, space=MemSpace.DEVICE, node=fab.topo.node_of(gpu), gpu=gpu, fill=fill
    )


def _run(engine, gen):
    done = engine.process(gen, name="t")
    engine.run()
    assert done.ok, done.value
    return done.value


# -- gating -------------------------------------------------------------------

def test_graphs_enabled_by_default():
    assert graphs_enabled(current())
    assert graphs_enabled(Engine().ctx)


def test_no_graphs_env_disables():
    from repro.__main__ import context_from_environ

    with using(context_from_environ({"REPRO_NO_GRAPHS": "1"})) as ctx:
        assert not graphs_enabled(ctx)
        assert not graphs_enabled(Engine().ctx)
    assert graphs_enabled(current())


def test_ambient_obs_bus_disables():
    from repro.obs.bus import Bus

    with using(bus=Bus()) as ctx:
        assert not graphs_enabled(ctx)
    assert graphs_enabled(current())


# -- GraphEngine --------------------------------------------------------------

def test_graph_engine_pops_count_as_graphed():
    STATS.reset()
    engine = GraphEngine()

    def body():
        for _ in range(5):
            yield engine.timeout(1 * us)

    engine.process(body())
    engine.run()
    snap = STATS.snapshot()
    assert snap["events_popped"] == 0
    assert snap["events_graphed"] == engine.events_popped > 0


def test_graph_engine_schedules_identically():
    """Same program on Engine and GraphEngine: same pops, same clock."""
    def program(engine):
        def body():
            for i in range(4):
                yield engine.timeout((i + 1) * us)
            return engine.now

        done = engine.process(body())
        engine.run()
        return done.value, engine.events_popped

    assert program(Engine()) == program(GraphEngine())


# -- PlanCache ----------------------------------------------------------------

def test_plan_cache_replays_identical_submissions():
    eager_e, eager_fab = _mk()
    graph_e, graph_fab = _mk()
    graph_fab.dataplane.enable_plan_cache()

    def body(engine, fab, src, dst):
        times = []
        for i in range(4):
            t0 = engine.now
            yield fab.dataplane.put(src, dst, traffic_class="g", name=f"x{i}")
            times.append(engine.now - t0)
        return times

    ea, eb = dev(eager_fab, 0, fill=3.0), dev(eager_fab, 1)
    ga, gb = dev(graph_fab, 0, fill=3.0), dev(graph_fab, 1)
    eager_times = _run(eager_e, body(eager_e, eager_fab, ea, eb))
    graph_times = _run(graph_e, body(graph_e, graph_fab, ga, gb))

    assert graph_times == eager_times                      # bit-identical
    assert np.all(gb.data == 3.0)                          # payload landed
    cache = graph_fab.dataplane.plan_cache
    assert cache.misses == 1 and cache.hits == 3
    assert graph_fab.route_computations == eager_fab.route_computations
    assert (graph_fab.dataplane.ledger.as_dict()
            == eager_fab.dataplane.ledger.as_dict())       # per-sub accounting


def test_plan_cache_payload_reread_each_replay():
    """Replayed stripes copy the buffer's *current* contents."""
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="g")
        src.data[:] = 9.0
        yield fab.dataplane.put(src, dst, traffic_class="g")

    _run(engine, body())
    assert np.all(dst.data == 9.0)


def test_plan_cache_distinguishes_shapes():
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    a, b = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.control(a, b, 1024, traffic_class="g")
        yield fab.dataplane.control(a, b, 2048, traffic_class="g")   # new bytes
        yield fab.dataplane.control(a, b, 1024, traffic_class="h")   # new class

    _run(engine, body())
    cache = fab.dataplane.plan_cache
    assert cache.misses == 3 and cache.hits == 0


def test_freed_buffer_raises_on_replay():
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="g")
        dst.free()
        with pytest.raises(GraphError, match="freed buffer"):
            fab.dataplane.put(src, dst, traffic_class="g")
        return True

    assert _run(engine, body())


def test_counters_track_capture_and_replay():
    GRAPHS.reset()
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        for _ in range(3):
            yield fab.dataplane.put(src, dst, traffic_class="g")

    _run(engine, body())
    snap = GRAPHS.snapshot()
    assert snap["captured_plans"] == 1
    assert snap["replayed_descriptors"] == 2
