"""Metric-name grammar, statistics helpers and the output check."""

import copy
import json
import os

import pytest

from perfbench import metrics

PINNED = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pinned.json")


@pytest.mark.parametrize("name", ["wall_s", "sim.events", "hw.spec.self_s", "9lives",
                                  "a-b_c.d", "x" * 64])
def test_good_names(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "é", "x" * 65])
def test_bad_names(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


@pytest.mark.parametrize("unit,ok", [("s", True), ("ms", True), ("1/s", True), ("%", True),
                                     ("count", True), ("x" * 17, False), ("", False),
                                     ("m s", False)])
def test_unit_grammar(unit, ok):
    if ok:
        assert metrics.check_unit(unit) == unit
    else:
        with pytest.raises(ValueError):
            metrics.check_unit(unit)


def test_every_declared_metric_obeys_the_grammar():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, (unit, better) in table.items():
            metrics.check_name(name)
            metrics.check_unit(unit)
            assert better in ("lower", "higher")
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)


def test_report_needs_every_metric_and_finite_values():
    table = {"a": ("s", "lower"), "b": ("count", "lower")}
    assert metrics.report({"a": 1.5, "b": 2, "extra": 9}, table) == {
        "a": {"value": 1.5, "unit": "s"}, "b": {"value": 2, "unit": "count"}}
    with pytest.raises(KeyError):
        metrics.report({"a": 1.0}, table)
    with pytest.raises(ValueError):
        metrics.report({"a": float("nan"), "b": 1}, table)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail(list(range(10))) is None
    samples = list(range(100))
    pct, value = metrics.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == 90
    pct, value = metrics.tail(list(range(24)))
    assert value == 13 and pct == 58


def _pinned(workload="llm64-replay-faults"):
    with open(PINNED) as fh:
        return json.load(fh)[workload]


def test_checker_passes_the_pinned_outputs():
    ref = _pinned()
    checker = metrics.Checker(ref)
    assert checker.check(copy.deepcopy(ref))
    assert checker.fail_frac == 0.0


@pytest.mark.parametrize("field", ["digest", "t_end", "class_bytes"])
def test_perturbed_output_raises_fail_frac(field):
    ref = _pinned()
    bad = copy.deepcopy(ref)
    if field == "digest":
        key = sorted(bad["digests"])[0]
        bad["digests"][key] = "0" * 64
    elif field == "t_end":
        bad["t_end"] = bad["t_end"] * (1 + 1e-12)
    else:
        cls = sorted(bad["class_bytes"])[0]
        bad["class_bytes"][cls] += 1
    checker = metrics.Checker(ref)
    assert checker.check(copy.deepcopy(ref))
    assert not checker.check(bad)
    assert checker.attempted == 2 and checker.failed == 1
    assert checker.fail_frac == 0.5
    assert checker.mismatches


def test_without_reference_repeats_must_match_the_first_run():
    checker = metrics.Checker()
    first = {"digests": {"series": "a"}, "t_end": 1.0, "class_bytes": {}}
    assert checker.check(first)
    assert checker.check(copy.deepcopy(first))
    assert not checker.check({**first, "t_end": 2.0})
    assert checker.fail_frac == pytest.approx(1 / 3)


def test_reference_speed_scaling():
    samples = [1.0, 2.0, 3.0]
    assert metrics.at_reference_speed(samples, [0.02] * 3, 0.5, 0.02) == pytest.approx(2.0)
    # A run whose loop took 4x the reference time ran on a slower host;
    # the exponent says how much of that slowdown the workload shared.
    assert metrics.at_reference_speed(samples, [0.08] * 3, 0.5, 0.02) == pytest.approx(1.0)
    assert metrics.at_reference_speed(samples, [0.08] * 3, 0.0, 0.02) == pytest.approx(2.0)


def test_fit_exponent_recovers_the_slope_and_clips():
    points = [(2.0 * c ** 0.6, c) for c in (0.01, 0.015, 0.02, 0.03)]
    exponent, corr = metrics.fit_exponent(points)
    assert exponent == pytest.approx(0.6) and corr == pytest.approx(1.0)
    assert metrics.fit_exponent([(1 / c, c) for c in (0.01, 0.02)])[0] == 0.0
    assert metrics.fit_exponent([(c * c, c) for c in (0.01, 0.02)])[0] == 1.0


def test_pooled_fit_ignores_the_level_of_each_group():
    a = [(1.0 * c ** 0.5, c) for c in (0.01, 0.02, 0.04)]
    b = [(9.0 * c ** 0.5, 3 * c) for c in (0.01, 0.02, 0.04)]
    assert metrics.fit_pooled_exponent([a, b])[0] == pytest.approx(0.5)
    assert metrics.fit_exponent(a + b)[0] != pytest.approx(0.5)


def test_speed_fit_covers_every_workload():
    from perfbench.workloads import WORKLOADS

    fit = metrics.load_speed_fit()
    assert fit["ref_calib_s"] > 0
    assert sorted(fit["workloads"]) == sorted(WORKLOADS)
    for entry in fit["workloads"].values():
        assert 0.0 <= entry["exponent"] <= 1.0
        assert (entry["exponent"], entry["corr"]) == pytest.approx(
            metrics.fit_exponent(entry["segments"]), abs=1e-3)
    assert sorted(fit["setups"]) == sorted(WORKLOADS)
    assert (fit["setup_exponent"], fit["setup_corr"]) == pytest.approx(
        metrics.fit_pooled_exponent(fit["setups"].values()), abs=1e-3)


def test_calibration_loop_is_timed():
    assert 0 < metrics.calibration_loop(1000) < 1.0
