"""Fast benchmark smoke tier: one small-grid point per paper exhibit.

Run with ``pytest -m smoke`` (the ``scripts/ci.sh`` smoke tier).  Each
test exercises one exhibit generator end-to-end on its smallest sweep
point — catching wiring regressions (route resolution, world construction,
series plumbing) in seconds without the full decimated sweeps.
"""

import pytest

from repro.workload.registry import get

pytestmark = pytest.mark.smoke


def _one_point(name, **params):
    series = get(name).run(**params).series
    assert series.rows, f"{series.exhibit}: empty series"
    return series


def test_fig2_smoke():
    _one_point("fig2", grids=(4,))


def test_fig3_smoke():
    _one_point("fig3", threads=(32,))


def test_fig4_smoke():
    _one_point("fig4", grids=(16,))


def test_fig5_smoke():
    _one_point("fig5", grids=(16,))


def test_fig6_smoke():
    _one_point("fig6", grids=(1024,))


def test_fig7_smoke():
    _one_point("fig7", grids=(1024,))


def test_table1_smoke():
    _one_point("table1")


def test_fig8_smoke():
    _one_point("fig8", multipliers=(1,), iters=3)


def test_fig9_smoke():
    _one_point("fig9", multipliers=(1,), iters=3)


def test_fig10_smoke():
    _one_point("fig10", grids=(256,))


def test_fig11_smoke():
    _one_point("fig11", grids=(256,))
