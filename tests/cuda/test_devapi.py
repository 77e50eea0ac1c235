"""Device-side actions: flag writes, atomics, copies, fences."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cuda.kernel import BlockKernel
from repro.cuda.timing import WorkSpec
from repro.sim.resources import Counter, Flag
from repro.units import us

WORK = WorkSpec.vector_add()


def _run_body(engine, gpu, body, grid=1, block=64):
    def host():
        done = yield from gpu.launch_h(BlockKernel(grid, block, body))
        yield done

    engine.run(engine.process(host()))


def test_single_flag_write_cost(engine, gpu):
    p = gpu.fabric.spec.params
    f = Flag(engine)
    stamps = {}

    def body(blk):
        t0 = blk.now
        yield blk.write_host_flag(f)
        stamps["dt"] = blk.now - t0

    _run_body(engine, gpu, body)
    assert f.is_set
    assert stamps["dt"] == pytest.approx(p.flag_write_host + p.flag_write_base)


def test_n_flag_writes_serialize(engine, gpu):
    p = gpu.fabric.spec.params
    c = Counter(engine)
    stamps = {}

    def body(blk):
        t0 = blk.now
        yield blk.write_host_flags(32, c, amount=32)
        stamps["dt"] = blk.now - t0

    _run_body(engine, gpu, body)
    assert c.value == 32
    assert stamps["dt"] == pytest.approx(32 * p.flag_write_host + p.flag_write_base)


def test_flag_writes_from_blocks_contend_on_c2c(engine, gpu):
    """Two blocks' flag stores serialize on the C2C port."""
    p = gpu.fabric.spec.params
    c = Counter(engine)
    ends = []

    def body(blk):
        yield blk.write_host_flag(c)
        ends.append(blk.now)

    _run_body(engine, gpu, body, grid=2)
    assert c.value == 2
    assert abs(ends[1] - ends[0]) == pytest.approx(p.flag_write_host)


def test_zero_writes_rejected(engine, gpu):
    def body(blk):
        yield blk.write_host_flags(0, Flag(engine))

    with pytest.raises(Exception):
        _run_body(engine, gpu, body)


def test_atomic_add_returns_new_value(engine, gpu):
    c = Counter(engine)
    values = []

    def body(blk):
        v = yield blk.atomic_add(c)
        values.append(v)

    _run_body(engine, gpu, body, grid=4)
    assert sorted(values) == [1, 2, 3, 4]


def test_kernel_copy_moves_data_and_fences(engine, fabric):
    gpu0, gpu1 = Device(fabric, 0), Device(fabric, 1)
    src = gpu0.alloc(64, fill=3.0)
    dst = gpu1.alloc(64)
    p = fabric.spec.params
    stamps = {}

    def body(blk):
        t0 = blk.now
        yield blk.copy(src, dst)
        stamps["dt"] = blk.now - t0

    def host():
        done = yield from gpu0.launch_h(BlockKernel(1, 64, body))
        yield done

    engine = fabric.engine
    engine.run(engine.process(host()))
    assert np.all(dst.data == 3.0)
    wire = 64 * 8 / p.nvlink_bw + p.nvlink_latency
    assert stamps["dt"] == pytest.approx(wire + p.kc_fence_overhead)


def test_kernel_copy_requires_device_accessible(engine, gpu):
    from repro.hw.memory import Buffer, MemSpace

    hbuf = Buffer.alloc(8, space=MemSpace.HOST, node=0)

    def body(blk):
        yield blk.copy(gpu.alloc(8), hbuf)

    with pytest.raises(Exception):
        _run_body(engine, gpu, body)


def test_copy_posted_without_yield_overlaps(engine, fabric):
    """A body may post a copy and continue (stores are posted)."""
    gpu0, gpu1 = Device(fabric, 0), Device(fabric, 1)
    src, dst = gpu0.alloc(1 << 16, fill=1.0), gpu1.alloc(1 << 16)
    marks = {}

    def body(blk):
        ev = blk.copy(src, dst)  # posted, not yielded
        marks["posted_at"] = blk.now
        yield blk.syncthreads()
        marks["continued_at"] = blk.now
        yield ev
        marks["copy_done"] = blk.now

    def host():
        done = yield from gpu0.launch_h(BlockKernel(1, 64, body))
        yield done

    fabric.engine.run(fabric.engine.process(host()))
    assert marks["continued_at"] - marks["posted_at"] < 0.1 * us
    assert marks["copy_done"] > marks["continued_at"]


def test_wait_flag_device_binding(engine, gpu):
    f = Flag(engine)
    got = {}

    def body(blk):
        yield blk.wait_flag(f)
        got["t"] = blk.now

    def setter():
        yield engine.timeout(5 * us)
        f.set()

    engine.process(setter())
    _run_body(engine, gpu, body)
    assert got["t"] == pytest.approx(5 * us)
