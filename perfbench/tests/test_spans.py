"""Span self-time arithmetic and wrapper install/remove."""

import sys
import types

import pytest

from perfbench.spans import Entry, Tracer, self_times


def span(sid, name, start, end, parent=-1, run=1):
    return (sid, name, start, end, parent, run)


def test_self_time_subtracts_children():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "mid", 1.0, 4.0, parent=0),
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(3, "mid", 5.0, 6.5, parent=0),
    ]
    st = self_times(spans)
    assert st["outer"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert st["mid"] == pytest.approx((3.0 - 1.0) + 1.5)
    assert st["leaf"] == pytest.approx(1.0)
    # Self times partition the root's interval.
    assert sum(st.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once_and_clipped():
    spans = [
        span(0, "p", 0.0, 10.0),
        span(1, "c", 2.0, 6.0, parent=0),
        span(2, "c", 4.0, 8.0, parent=0),     # overlaps the first child
        span(3, "c", 9.0, 12.0, parent=0),    # runs past the parent's end
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("repro_fake_layer")

    class Thing:
        def work(self, n):
            return self.helper(n) + 1

        def helper(self, n):
            return n * 2

    def gen(n):
        yield n

    mod.Thing, mod.gen = Thing, gen
    monkeypatch.setitem(sys.modules, "repro_fake_layer", mod)
    return mod


def test_tracer_nests_counts_and_restores(fake_module):
    mod = fake_module
    seen = []
    tracer = Tracer([
        Entry("repro_fake_layer:Thing.work", "work", "a"),
        Entry("repro_fake_layer:Thing.helper", "helper", "b",
              observe=lambda args, result: seen.append(result)),
        Entry("repro_fake_layer:gen", "gen", "c", timed=False),
    ])
    original_work, original_gen = mod.Thing.work, mod.gen
    tracer.install(run_id=1)
    try:
        assert mod.Thing().work(3) == 7
        assert list(mod.gen(5)) == [5]
    finally:
        tracer.remove()
    assert mod.Thing.work is original_work and mod.gen is original_gen
    assert tracer.counts == {"work": 1, "helper": 1, "gen": 1}
    assert seen == [6]
    (w, h) = tracer.run_spans(1)
    assert w[1] == "work" and w[4] == -1
    assert h[1] == "helper" and h[4] == w[0]
    assert w[2] <= h[2] <= h[3] <= w[3]


def test_truncate_keeps_setup_spans(fake_module):
    mod = fake_module
    tracer = Tracer([Entry("repro_fake_layer:Thing.helper", "helper", "b")])
    for run_id in (0, 1, 2):
        if run_id:
            tracer.truncate(1)
        tracer.install(run_id)
        try:
            mod.Thing().helper(1)
        finally:
            tracer.remove()
    assert [s[5] for s in tracer.spans] == [0, 2]
    assert [s[0] for s in tracer.spans] == [0, 1]
