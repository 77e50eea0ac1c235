"""UCX substrate: contexts, workers, AMs, RMA puts, memory registration."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec import PAPER_TESTBED
from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.ucx.context import UcpContext
from repro.ucx.memreg import UcxMemError, mem_map, rkey_pack, rkey_ptr, rkey_unpack
from repro.units import us


@pytest.fixture
def stack():
    eng = Engine()
    fab = Fabric(eng, PAPER_TESTBED)
    return eng, fab


def _bring_up(eng, fab, node_a=0, node_b=0, gpu_a=0, gpu_b=1):
    """Create two contexts/workers and an endpoint a->b."""
    out = {}

    def boot():
        ctx_a = yield from UcpContext.create(eng, fab, node_a, gpu_a)
        ctx_b = yield from UcpContext.create(eng, fab, node_b, gpu_b)
        wa = yield from ctx_a.worker_create("a")
        wb = yield from ctx_b.worker_create("b")
        ep = yield from wa.ep_create(wb.address)
        out.update(wa=wa, wb=wb, ep=ep)

    eng.run(eng.process(boot()))
    return out["wa"], out["wb"], out["ep"]


def test_context_and_worker_creation_costs(stack):
    eng, fab = stack
    p = fab.spec.params

    def boot():
        t0 = eng.now
        ctx = yield from UcpContext.create(eng, fab, 0, 0)
        t1 = eng.now
        yield from ctx.worker_create()
        t2 = eng.now
        return (t1 - t0, t2 - t1)

    ctx_cost, worker_cost = eng.run(eng.process(boot()))
    assert ctx_cost == pytest.approx(p.ucp_context_create)
    assert worker_cost == pytest.approx(p.ucp_worker_create)


def test_ep_create_cached(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)

    def again():
        t0 = eng.now
        ep2 = yield from wa.ep_create(wb.address)
        return ep2, eng.now - t0

    ep2, dt = eng.run(eng.process(again()))
    assert ep2 is ep
    assert dt == 0.0


def test_am_roundtrip_intra_node(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    got = {}

    def receiver():
        msg = yield wb.am_recv(7)
        got["payload"] = msg.payload
        got["sender"] = msg.sender.worker_id
        got["t"] = eng.now

    eng.process(receiver())

    def sender():
        yield ep.am_send(7, {"hello": 1}, nbytes=64)

    eng.process(sender())
    eng.run()
    assert got["payload"] == {"hello": 1}
    assert got["sender"] == wa.worker_id
    assert got["t"] > 0


def test_am_fifo_per_id(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    seen = []

    def receiver():
        for _ in range(3):
            msg = yield wb.am_recv(1)
            seen.append(msg.payload)

    eng.process(receiver())

    def sender():
        for k in range(3):
            yield ep.am_send(1, k)

    eng.process(sender())
    eng.run()
    assert seen == [0, 1, 2]


def test_am_try_recv(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    assert wb.am_try_recv(5) is None

    def sender():
        yield ep.am_send(5, "x")

    eng.process(sender())
    eng.run()
    assert wb.am_try_recv(5).payload == "x"


def test_mem_map_registration_cache(stack):
    eng, fab = stack
    wa, _wb, _ep = _bring_up(eng, fab)
    buf = Buffer.alloc(128, space=MemSpace.PINNED, node=0)

    def reg():
        t0 = eng.now
        yield from mem_map(wa, buf)
        first = eng.now - t0
        t0 = eng.now
        yield from mem_map(wa, buf)
        second = eng.now - t0
        return first, second

    first, second = eng.run(eng.process(reg()))
    assert first == pytest.approx(fab.spec.params.ucp_mem_map_per_call)
    assert second < first  # registration cache hit


def test_put_nbx_moves_data_and_calls_back(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    src = Buffer.alloc(16, space=MemSpace.DEVICE, node=0, gpu=0, fill=2.0)
    target = Buffer.alloc(64, space=MemSpace.DEVICE, node=0, gpu=1)
    fired = []

    def flow():
        memh = yield from mem_map(wb, target)
        packed = yield from rkey_pack(wb, memh)
        rkey = yield from rkey_unpack(wa, packed)
        done = ep.put_nbx(src, rkey, offset_elems=16, callback=lambda: fired.append(eng.now))
        yield done

    eng.run(eng.process(flow()))
    assert np.all(target.data[16:32] == 2.0)
    assert np.all(target.data[:16] == 0.0)
    assert len(fired) == 1
    assert ep.puts_completed == 1


def test_put_nbx_bounds_checked(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    src = Buffer.alloc(16, space=MemSpace.DEVICE, node=0, gpu=0)
    target = Buffer.alloc(16, space=MemSpace.DEVICE, node=0, gpu=1)

    def flow():
        memh = yield from mem_map(wb, target)
        packed = yield from rkey_pack(wb, memh)
        rkey = yield from rkey_unpack(wa, packed)
        with pytest.raises(UcxMemError):
            ep.put_nbx(src, rkey, offset_elems=8)
        yield eng.timeout(0)

    eng.run(eng.process(flow()))


def test_rkey_ptr_intra_node_maps_device_memory(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    target = Buffer.alloc(32, space=MemSpace.DEVICE, node=0, gpu=1)

    def flow():
        memh = yield from mem_map(wb, target)
        packed = yield from rkey_pack(wb, memh)
        rkey = yield from rkey_unpack(wa, packed)
        mapped = yield from rkey_ptr(wa, rkey, opener_gpu=0)
        return mapped

    mapped = eng.run(eng.process(flow()))
    assert mapped.same_allocation(target)
    assert mapped.gpu == 1


def test_rkey_ptr_rejects_host_region(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    target = Buffer.alloc(32, space=MemSpace.PINNED, node=0)

    def flow():
        memh = yield from mem_map(wb, target)
        packed = yield from rkey_pack(wb, memh)
        rkey = yield from rkey_unpack(wa, packed)
        with pytest.raises(UcxMemError):
            yield from rkey_ptr(wa, rkey, opener_gpu=0)

    eng.run(eng.process(flow()))


def test_rkey_ptr_rejects_cross_node(stack):
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab, node_b=1, gpu_b=4)
    target = Buffer.alloc(32, space=MemSpace.DEVICE, node=1, gpu=4)

    def flow():
        memh = yield from mem_map(wb, target)
        packed = yield from rkey_pack(wb, memh)
        rkey = yield from rkey_unpack(wa, packed)
        with pytest.raises(UcxMemError):
            yield from rkey_ptr(wa, rkey, opener_gpu=0)

    eng.run(eng.process(flow()))


def test_cuda_ipc_put_pays_engine_overhead(stack):
    """Intra-node D2D puts cost more than the raw wire (host-mediated)."""
    eng, fab = stack
    wa, wb, ep = _bring_up(eng, fab)
    src = Buffer.alloc(16, space=MemSpace.DEVICE, node=0, gpu=0)
    target = Buffer.alloc(16, space=MemSpace.DEVICE, node=0, gpu=1)

    def flow():
        memh = yield from mem_map(wb, target)
        packed = yield from rkey_pack(wb, memh)
        rkey = yield from rkey_unpack(wa, packed)
        t0 = eng.now
        yield ep.put_nbx(src, rkey)
        return eng.now - t0

    dt = eng.run(eng.process(flow()))
    p = fab.spec.params
    wire = 16 * 8 / p.nvlink_bw + p.nvlink_latency
    assert dt == pytest.approx(wire + p.cuda_ipc_put_overhead)
