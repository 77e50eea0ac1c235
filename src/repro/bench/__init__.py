"""Benchmark harness: measurement layers for every table and figure.

:mod:`repro.bench.p2p`, :mod:`repro.bench.coll` and
:mod:`repro.bench.apps` own the per-exhibit methodology; the exhibits
themselves are registered Workloads (:mod:`repro.workload.exhibits`), so
``get("fig4").run(...).series`` returns a
:class:`~repro.bench.series.Series` whose rows mirror what the paper
plots, and :func:`~repro.bench.series.render` prints it.  The
``benchmarks/`` directory wraps these in pytest-benchmark targets, and
EXPERIMENTS.md records paper-vs-measured values.
"""

from repro.bench.series import Series, render

__all__ = ["Series", "render"]
