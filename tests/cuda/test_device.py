"""Device: allocation, launch/sync semantics, memcpy, stream FIFO."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cuda.kernel import BlockKernel, UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.memory import MemSpace
from repro.units import us

WORK = WorkSpec.vector_add()


def test_alloc_spaces(gpu):
    assert gpu.alloc(4).space is MemSpace.DEVICE
    assert gpu.alloc(4).gpu == 0
    assert gpu.alloc_pinned(4).space is MemSpace.PINNED
    assert gpu.alloc_unified(4).space is MemSpace.UNIFIED


def test_launch_validates_block_size(gpu):
    with pytest.raises(ValueError):
        gpu.launch(UniformKernel(1, 2048, WORK))


def test_launch_is_async(engine, gpu):
    def host():
        t0 = engine.now
        yield from gpu.launch_h(UniformKernel(256, 1024, WORK))
        return engine.now - t0

    api_time = engine.run(engine.process(host()))
    assert api_time == pytest.approx(gpu.cost.launch_api_cost)


def test_sync_cost_on_empty_stream(engine, gpu):
    def host():
        t0 = engine.now
        yield from gpu.sync_h()
        return engine.now - t0

    assert engine.run(engine.process(host())) == pytest.approx(7.8 * us)


def test_launch_then_sync_total(engine, gpu):
    def host():
        yield from gpu.launch_h(UniformKernel(1, 1024, WORK))
        yield from gpu.sync_h()
        return engine.now

    total = engine.run(engine.process(host()))
    expected = (
        gpu.cost.launch_api_cost
        + gpu.cost.kernel_exec_time(1, 1024, WORK)
        + gpu.cost.stream_sync_cost
    )
    assert total == pytest.approx(expected)


def test_apply_materializes_numerics(engine, gpu):
    a = gpu.alloc(64, fill=1.0)
    b = gpu.alloc(64, fill=2.0)
    c = gpu.alloc(64)
    k = UniformKernel(1, 64, WORK, apply=lambda: np.add(a.data, b.data, out=c.data))

    def host():
        done = yield from gpu.launch_h(k)
        yield done

    engine.run(engine.process(host()))
    assert np.all(c.data == 3.0)


def test_stream_fifo_ordering(engine, gpu):
    order = []

    def host():
        k1 = UniformKernel(1, 64, WORK, name="k1", apply=lambda: order.append("k1"))
        k2 = UniformKernel(1, 64, WORK, name="k2", apply=lambda: order.append("k2"))
        d1 = yield from gpu.launch_h(k1)
        d2 = yield from gpu.launch_h(k2)
        yield d2
        assert d1.triggered

    engine.run(engine.process(host()))
    assert order == ["k1", "k2"]


def test_two_streams_run_concurrently(engine, gpu):
    s2 = gpu.new_stream()
    big = UniformKernel(2048, 1024, WORK, name="big")

    def host():
        d1 = gpu.launch(big, gpu.default_stream)
        d2 = gpu.launch(big, s2)
        yield d1
        yield d2
        return engine.now

    total = engine.run(engine.process(host()))
    one = gpu.cost.kernel_exec_time(2048, 1024, WORK)
    # Streams are independent queues; our model runs them concurrently.
    assert total < 2 * one


def test_memcpy_h2d_timing_and_data(engine, gpu):
    n = 1 << 18
    hsrc = gpu.alloc_pinned(n, fill=5.0)
    ddst = gpu.alloc(n)

    def host():
        t0 = engine.now
        yield from gpu.memcpy_h(ddst, hsrc)
        return engine.now - t0

    dt = engine.run(engine.process(host()))
    assert np.all(ddst.data == 5.0)
    wire = n * 8 / gpu.fabric.spec.params.c2c_bw
    assert dt >= wire


def test_block_kernel_runs_every_block(engine, gpu):
    seen = []

    def body(blk):
        yield blk.compute(WORK)
        seen.append(blk.block_id)

    def host():
        done = yield from gpu.launch_h(BlockKernel(10, 64, body))
        yield done

    engine.run(engine.process(host()))
    assert sorted(seen) == list(range(10))


def test_block_kernel_wave_scheduling(engine, gpu):
    """More blocks than resident slots -> at least two waves."""
    small = gpu.cost.with_overrides(sm_count=2, max_blocks_per_sm=1)
    from repro.cuda.device import Device

    gpu2 = Device(gpu.fabric, 1, cost=small)
    starts = []

    def body(blk):
        starts.append((blk.block_id, blk.now))
        yield blk.compute(WORK)

    def host():
        done = yield from gpu2.launch_h(BlockKernel(4, 1024, body))
        yield done

    engine.run(engine.process(host()))
    t_first = min(t for _b, t in starts)
    t_last = max(t for _b, t in starts)
    assert t_last > t_first  # second wave started strictly later


def test_uniform_wave_hook_sees_all_blocks(engine, gpu):
    covered = []

    def hook(kctx, wave):
        covered.extend(wave.blocks)
        assert wave.end_time == engine.now

    k = UniformKernel(1000, 1024, WORK, wave_hook=hook)

    def host():
        done = yield from gpu.launch_h(k)
        yield done

    engine.run(engine.process(host()))
    assert covered == list(range(1000))


def test_exec_time_closed_form_matches_simulation(engine, gpu):
    k = UniformKernel(5000, 1024, WORK)

    def host():
        t0 = engine.now
        done = gpu.launch(k)
        yield done
        return engine.now - t0

    assert engine.run(engine.process(host())) == pytest.approx(gpu.exec_time(k))
