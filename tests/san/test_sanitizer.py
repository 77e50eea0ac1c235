"""End-to-end Sanitizer runs: clean device-initiated sends report nothing,
seeded misuse is caught with actor/time provenance."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cuda.kernel import BlockKernel
from repro.cuda.timing import WorkSpec
from repro.hw.spec import ONE_NODE
from repro.hw.topology import Fabric
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.prequest import CopyMode
from repro.san import Sanitizer, record
from repro.sim.engine import Engine

WORK = WorkSpec.vector_add()


def _pair(body_factory, mode=CopyMode.PROGRESSION_ENGINE, grid=4, block=256,
          recv_body_factory=None):
    """Device-initiated send (one epoch, one block per transport partition)."""
    tps = grid
    n = grid * block
    snaps = []

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n, fill=1.0)
            sreq = yield from comm.psend_init(sbuf, tps, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            agg = AggregationSpec(grid, block, grid // tps, SignalMode.BLOCK)
            preq = yield from sreq.prequest_create(ctx.gpu, agg=agg, mode=mode)
            yield from ctx.gpu.launch_h(BlockKernel(grid, block, body_factory(sbuf, preq)))
            yield from sreq.wait()
        else:
            rbuf = ctx.gpu.alloc(n)
            rreq = yield from comm.precv_init(rbuf, tps, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            if recv_body_factory is not None:
                yield from ctx.gpu.launch_h(
                    BlockKernel(grid, block, recv_body_factory(rbuf, rreq))
                )
            yield from rreq.wait()
            snaps.append(rbuf.data.copy())

    World(ONE_NODE).run(main, nprocs=2)
    return snaps


def _clean_body(sbuf, preq):
    def body(blk):
        yield blk.compute(WORK)
        yield pdev.pready(blk, preq)
    return body


@pytest.mark.parametrize("mode", [CopyMode.PROGRESSION_ENGINE, CopyMode.KERNEL_COPY])
def test_clean_run_reports_nothing(mode):
    with Sanitizer() as san:
        snaps = _pair(_clean_body, mode=mode)
    assert np.all(snaps[0] == 1.0)
    assert san.report.ok
    assert san.findings == []
    assert len(san.recorder.events) > 0


def test_seeded_double_pready_detected():
    """Doubled pready_block completes cleanly but the sanitizer flags it."""
    grid = 4

    def seeded(sbuf, preq):
        def body(blk):
            yield blk.compute(WORK)
            yield pdev.pready_block(blk, preq)
            yield pdev.pready_block(blk, preq)  # the seeded bug
        return body

    with Sanitizer() as san:
        snaps = _pair(seeded, grid=grid)

    # The runtime absorbs the duplicate silently: data still lands.
    assert np.all(snaps[0] == 1.0)
    findings = san.findings
    assert {f.check for f in findings} == {"double-pready"}
    assert len(findings) == grid  # one per doubled block
    for f in findings:
        assert f.actor is not None and f.actor[0] == "block"
        assert f.time > 0.0
        assert f.related and "first MPIX_Pready" in f.related[0][2]
    assert "double-pready" in san.report.render()


def test_read_before_parrived_detected():
    def reader(rbuf, rreq):
        def body(blk):
            if blk.block_id == 0:
                blk.note_read(rbuf.partition(0, 4))  # before arrival
            yield blk.compute(WORK)
            yield pdev.parrived_device(blk, rreq, blk.block_id)
            if blk.block_id == 0:
                blk.note_read(rbuf.partition(0, 4))  # licensed now
        return body

    with Sanitizer(checks=["read-before-parrived"]) as san:
        _pair(_clean_body, recv_body_factory=reader)

    findings = san.findings
    assert len(findings) == 1
    assert findings[0].check == "read-before-parrived"
    assert findings[0].actor[0] == "block"


def test_send_overwrite_detected():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(1024, fill=1.0)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            yield from sreq.pready(0)
            # Host scribbles on the partition while the put is in flight.
            record.access(("host", 0), sbuf.partition(0, 1), write=True, note="scribble")
            yield from sreq.wait()
        else:
            rbuf = ctx.gpu.alloc(1024)
            rreq = yield from comm.precv_init(rbuf, 1, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()

    with Sanitizer(checks=["send-overwrite"]) as san:
        World(ONE_NODE).run(main, nprocs=2)

    findings = san.findings
    assert len(findings) == 1
    assert findings[0].check == "send-overwrite"
    assert findings[0].related and "MPI_Pready" in findings[0].related[0][2]


def test_uninit_read_detected():
    with Sanitizer(checks=["uninit-read"]) as san:
        engine = Engine()
        gpu = Device(Fabric(engine, ONE_NODE), 0)
        buf = gpu.alloc(256)

        def body(blk):
            blk.note_read(buf)  # nothing ever wrote this allocation
            yield blk.compute(WORK)

        def host():
            yield from gpu.launch_h(BlockKernel(1, 256, body))
            yield from gpu.sync_h()

        engine.run(engine.process(host()))

    assert [f.check for f in san.findings] == ["uninit-read"]


def test_written_alloc_is_not_uninit():
    with Sanitizer(checks=["uninit-read"]) as san:
        engine = Engine()
        gpu = Device(Fabric(engine, ONE_NODE), 0)
        buf = gpu.alloc(256)

        def body(blk):
            blk.note_write(buf)
            blk.note_read(buf)
            yield blk.compute(WORK)

        def host():
            yield from gpu.launch_h(BlockKernel(1, 256, body))
            yield from gpu.sync_h()

        engine.run(engine.process(host()))

    assert san.findings == []


def test_sanitizers_do_not_nest():
    with Sanitizer():
        with pytest.raises(RuntimeError, match="already active"):
            with Sanitizer():
                pass  # pragma: no cover


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError, match="unknown sanitizer checks"):
        with Sanitizer(checks=["no-such-check"]):
            pass
