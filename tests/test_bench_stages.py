"""``bench/stages.py``'s stage chain against ``run_pipeline``: the chain is
the only copy of the run's stage sequence outside the library, so it must
make the same artifacts."""

import importlib.util
from functools import partial
from pathlib import Path

from rcforecast.pipeline import run_pipeline
from rcforecast.synth import SynthConfig, generate

STAGES = Path(__file__).resolve().parent.parent / "bench" / "stages.py"


def _load_stages():
    spec = importlib.util.spec_from_file_location("bench_stages", STAGES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chain_makes_the_pipeline_artifacts(tmp_path):
    stages = _load_stages()
    inputs = tmp_path / "inputs"
    generate(SynthConfig(rng_seed=7, n_communities=200), inputs)
    rcf = stages.modules("rcforecast")
    record: dict = {}
    stages.chain(rcf, 200, stages.config(rcf, inputs, tmp_path / "chain"),
                 partial(stages.reading, record))
    assert list(record) == [
        "generate", "load_corpus", "build_graph", "leiden", "term_matrix", "extend_model",
        "Panel", "indicator_table", "fit_composite", "forecast_year", "evaluate_slices",
        "writes"]
    run_pipeline(stages.config(rcf, inputs, tmp_path / "pipeline"))
    written = sorted(p.name for p in (tmp_path / "chain").iterdir())
    assert {"partition.tsv", "indicators_2010.tsv", "indicators_2011.tsv", "forecast_2010.tsv",
            "forecast_2011.tsv", "evaluation.json"} <= set(written)
    for name in written:
        assert (tmp_path / "chain" / name).read_bytes() == \
            (tmp_path / "pipeline" / name).read_bytes(), name
