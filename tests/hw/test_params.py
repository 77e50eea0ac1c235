"""Parameter plumbing: defaults, overrides, immutability."""

import dataclasses

import pytest

from repro.hw.params import GH200Params
from repro.hw.spec import ONE_NODE, PAPER_TESTBED, gh200_spec, named_spec
from repro.units import GBps, us


def test_paper_testbed_shape():
    assert PAPER_TESTBED.n_nodes == 2
    assert PAPER_TESTBED.uniform_gpus_per_node == 4
    assert PAPER_TESTBED.n_gpus == 8
    assert ONE_NODE.n_gpus == 4


def test_link_constants_match_section_v():
    p = GH200Params()
    assert p.nvlink_bw == pytest.approx(150 * GBps)
    assert p.c2c_bw == pytest.approx(450 * GBps)   # 900 GB/s total, per direction
    assert p.ib_bw == pytest.approx(50e9)          # 400 Gbit
    assert p.hbm_bw > p.c2c_bw > p.nvlink_bw > p.ib_bw


def test_params_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        GH200Params().nvlink_bw = 1.0


def test_with_overrides_returns_copy():
    base = GH200Params()
    fast = base.with_overrides(progress_poll_latency=0.1 * us)
    assert fast.progress_poll_latency == pytest.approx(0.1 * us)
    assert base.progress_poll_latency != fast.progress_poll_latency
    assert fast.nvlink_bw == base.nvlink_bw


def test_config_overrides_compose():
    cfg = PAPER_TESTBED.with_params(ib_latency=10 * us)
    assert cfg.params.ib_latency == pytest.approx(10 * us)
    assert cfg.n_nodes == 2
    assert PAPER_TESTBED.params.ib_latency != cfg.params.ib_latency


def test_fig3_ratio_constants():
    """flag_write_base/flag_write_host encode the paper's Fig 3 ratios."""
    p = GH200Params()
    block = p.flag_write_host + p.flag_write_base
    thread = 1024 * p.flag_write_host + p.flag_write_base
    warp = 32 * p.flag_write_host + p.flag_write_base
    assert 240 < thread / block < 300       # paper: 271.5x
    assert 8 < warp / block < 11            # paper: 9.4x


def test_config_spec_roundtrip():
    """The paper's testbed is the catalog GH200 spec with default
    constants; with_params swaps constants but keeps the machine."""
    assert PAPER_TESTBED is named_spec("gh200-2x4")
    assert PAPER_TESTBED == gh200_spec(2, 4)
    assert PAPER_TESTBED.params == GH200Params()
    tuned = PAPER_TESTBED.with_params(ib_latency=10 * us)
    assert tuned.params.ib_latency == pytest.approx(10 * us)
    assert (tuned.name, tuned.nodes) == (PAPER_TESTBED.name, PAPER_TESTBED.nodes)
