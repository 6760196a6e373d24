"""Smoke test of the benchmark's own code on tiny corpora (about 15 seconds).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import time
from pathlib import Path

import pytest

import run

CATALOGUE = json.loads((Path(run.__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
TINY = 300


@pytest.fixture(scope="module", autouse=True)
def library():
    run.load_library()


def printed(lines, name):
    """The value printed for ``name`` in the report, or None."""
    for line in lines:
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1]), fields[2]
    return None


@pytest.fixture(scope="module")
def runs():
    return {(name, trace): run.bench(name, 101, 0, trace, n_communities=TINY, setups=1)
            for name in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = runs[name, trace]
        assert result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in CATALOGUE[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    _, lines = runs[name, False]
    assert printed(lines, "error_rate") == (0.0, "ratio")
    assert printed(lines, "overall_csi") is not None, lines


def test_bypass_predictions(runs):
    def layer(name, metric):
        return runs[name, True][0]["metrics"][metric]["value"]

    pipeline, sweep = "pipeline-1k", "forecast-sweep-1k"
    assert layer(sweep, "layer.assign.calls") == 0
    assert layer(sweep, "cluster.leiden.calls") == 0
    assert layer(sweep, "citegraph.build_graph.calls") == 0
    assert layer(sweep, "cli.run.self_s") > 0
    assert layer(pipeline, "assign.assign_new_papers.calls") == 5
    assert layer(pipeline, "cluster.leiden.calls") == 1
    assert layer(pipeline, "layer.cli.calls") == 0


def test_failed_check_counts_in_error_rate():
    result, lines = run.bench("pipeline-1k", 101, 0, False, n_communities=TINY, setups=1,
                              extra_check=lambda out: ["deliberate failure"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert printed(lines, "error_rate") == (1.0, "ratio")
    assert any("deliberate failure" in line for line in lines)


def test_absent_wrapper_is_reported_not_fatal(monkeypatch):
    import spans
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("indicators.Gone", "indicators", "Gone.rows"),
        ("nosuchmodule.f", "nosuchmodule", "f")])
    monkeypatch.setattr(spans.Tracer, "_after_cluster_leiden",
                        lambda self, partition, *args: partition.no_such_field)

    def install():      # in a child, so the wrappers do not outlive the test
        from rcforecast import cluster
        from rcforecast.citegraph import CitationGraph
        tracer = spans.Tracer()
        tracer.install()
        graph = CitationGraph.from_edges([(1, 2), (2, 3)])
        cluster.leiden(graph, cluster.ClusterConfig(rng_seed=0))
        return tracer.absent, len(tracer.spans)

    value, error, _ = run.in_child(install, time.monotonic() + 60)
    assert error is None, error
    absent, n_spans = value
    assert absent == ["indicators.Gone", "nosuchmodule.f", "cluster.leiden counters"]
    assert n_spans == 1
