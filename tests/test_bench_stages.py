"""``bench/stages.py`` reads the stages the library marks with ``trace.stage``:
its ``run`` must record each of them in ``run_pipeline``'s order, and a
recording hook must change no artifact of the run."""

import importlib.util
from functools import partial
from pathlib import Path

import rcforecast
from rcforecast.pipeline import run_pipeline
from rcforecast.synth import SynthConfig, generate

STAGES = Path(__file__).resolve().parent.parent / "bench" / "stages.py"


def _harness(inputs: Path):
    """The harness module, after writing a 200-community corpus to ``inputs``."""
    generate(SynthConfig(rng_seed=7, n_communities=200), inputs)
    spec = importlib.util.spec_from_file_location("bench_stages", STAGES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_records_every_stage_in_order(tmp_path):
    stages = _harness(tmp_path / "inputs")
    library_stage = rcforecast.trace.stage
    record, _ = stages.run(rcforecast, 200, tmp_path / "inputs", tmp_path / "run")
    assert list(record) == [
        "generate", "load_corpus", "build_graph", "leiden", "term_matrix", "extend_model",
        "Panel", "indicator_table", "fit_composite", "forecast_year", "evaluate_slices",
        "rest"]
    assert record["term_matrix"]["within"] == "extend_model"
    assert rcforecast.trace.stage is library_stage


def test_recording_hook_keeps_the_pipeline_artifacts(tmp_path, monkeypatch):
    stages = _harness(tmp_path / "inputs")

    def data(name):
        run_pipeline(stages.config(rcforecast, tmp_path / "inputs", tmp_path / name))
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                if not p.name.endswith(".manifest.json")}

    default, record = data("default"), {}
    monkeypatch.setattr(rcforecast.trace, "stage", partial(stages.reading, record, []))
    assert data("recorded") == default
    assert "forecast_year" in record
    assert {"partition.tsv", "forecast_2011.tsv", "evaluation.json"} <= set(default)
