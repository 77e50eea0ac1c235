"""Extension bench: ring vs recursive-doubling partitioned allreduce.

The paper fixes the Ring algorithm ("used to maximize bandwidth for large
messages", Section VI-B).  Expressing recursive doubling in the same
generic schedule quantifies that choice: RD's log2(P) steps win while the
collective is latency/overhead-bound, the Ring's pipelined 2(P-1)/P
traffic wins once it is bandwidth-bound — the classic crossover.
"""

import numpy as np
from conftest import within

from repro.bench.series import Series, render
from repro.hw.spec import ONE_NODE
from repro.mpi.world import World
from repro.units import us

SIZES = (1 << 13, 1 << 21, 1 << 23)  # 64 KiB, 16 MiB, 64 MiB


def _measure(algorithm: str, n: int, iters: int = 2) -> float:
    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n)
        req = yield from comm.pallreduce_init(
            w, w, partitions=8, algorithm=algorithm, device=ctx.gpu
        )
        times = []
        for _ in range(iters + 1):
            w.data[:] = float(ctx.rank + 1)
            yield from req.start()
            yield from req.pbuf_prepare()
            yield from comm.barrier()
            t0 = ctx.now
            for u in range(8):
                yield from req.pready(u)
            yield from req.wait()
            times.append(ctx.now - t0)
            assert np.allclose(w.data, 10.0)
        return times

    per_rank = World(ONE_NODE).run(main, nprocs=4)
    windows = [max(col) for col in zip(*per_rank)][1:]
    return sum(windows) / len(windows)


def test_ablation_allreduce_algorithm(benchmark):
    def run():
        s = Series(
            "Ablation A6",
            "Partitioned allreduce: ring vs recursive doubling (4 GH200)",
            ["bytes", "ring_us", "rd_us", "winner"],
        )
        for n in SIZES:
            ring = _measure("ring", n)
            rd = _measure("recursive_doubling", n)
            s.add(
                bytes=n * 8, ring_us=ring / us, rd_us=rd / us,
                winner="rd" if rd < ring else "ring",
            )
        s.note("RD wins while overhead-bound; ring wins once bandwidth-bound")
        return s

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(series))

    assert series.rows[0]["winner"] == "rd", "RD must win small messages"
    assert series.rows[-1]["winner"] == "ring", "ring must win at 512 MiB payloads"
    # RD's small-message advantage is substantial (fewer serialized steps).
    within(series.rows[0]["ring_us"] / series.rows[0]["rd_us"], 1.5, 4.0,
           "ring/RD ratio at 64 KiB")
