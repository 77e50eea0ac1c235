"""The layer-coverage self-check, on synthetic per-layer metrics."""

from perfbench import layers


def metrics(mutations=0, replanned=0, lookups=0, faults=0):
    return {"hw.links.mutations": mutations, "dataplane.plan.replanned": replanned,
            "dataplane.plan.lookups": lookups, "dataplane.faults": faults}


def test_each_workload_passes_with_its_expected_layers():
    assert layers.coverage_errors("jacobi-2node", metrics()) == []
    assert layers.coverage_errors("halo-fattree512", metrics()) == []
    assert layers.coverage_errors("llm64-replay", metrics(lookups=10)) == []
    assert layers.coverage_errors(
        "llm64-replay-faults", metrics(mutations=6, replanned=40, lookups=10)) == []


def test_a_workload_that_stops_exercising_its_layer_fails():
    assert len(layers.coverage_errors("llm64-replay-faults", metrics(lookups=10))) == 2
    assert len(layers.coverage_errors("llm64-replay", metrics())) == 1


def test_a_workload_that_reaches_a_bypassed_layer_fails():
    assert len(layers.coverage_errors("jacobi-2node", metrics(lookups=3))) == 1
    assert len(layers.coverage_errors("llm64-replay", metrics(lookups=1, mutations=2))) == 1


def test_a_lost_route_fails_everywhere():
    assert layers.coverage_errors("halo-fattree512", metrics(faults=1))


def test_spec_share_must_peak_on_halo():
    shares = {"jacobi-2node": 0.006, "halo-fattree512": 0.43, "llm64-replay": 0.04}
    assert layers.spec_share_errors(shares) == []
    assert layers.spec_share_errors({**shares, "llm64-replay": 0.5})
