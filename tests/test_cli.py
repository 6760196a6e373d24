import contextlib
import errno
import io
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.cli import build_parser, run
from rcforecast.cluster import ClusterError, Partition, load_partition, save_partition
from rcforecast.config import has_type
from rcforecast.forecast import CompositeModel
from rcforecast.manifest import file_digest
from rcforecast.pipeline import PipelineConfig, run_pipeline
from rcforecast.corpus import load_corpus, normalize_terms
from rcforecast.synth import SynthConfig, generate

from conftest import assert_loads_like_oracle, paper, write_papers

# numbers JSON input must not hold: json.dumps writes NaN, Infinity and -Infinity,
# which json.load reads back, and a 400-digit integer that float() cannot convert
NAN, INF, BIG = float("nan"), float("inf"), 10**400


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth")
    generate(SynthConfig(rng_seed=13, n_communities=300), out)
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("cli_model")
    code = run(["model", "build", "--corpus", str(synth_dir / "papers.jsonl"),
                "--journals", str(synth_dir / "ranks.csv"),
                "--through-year", "2009", "--resolution", "0.02", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    code = run(["model", "extend", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(out), "--through-year", "2014"])
    assert code == 0
    return out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "rcf 0.1.0" in capsys.readouterr().out


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["forecast", "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_corpus_validate_ok(tmp_path, capsys):
    papers = write_papers(tmp_path / "p.jsonl", [paper(1, 2010), paper(2, 2011)])
    assert run(["corpus", "validate", str(papers)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["papers"] == 2


def test_corpus_validate_error_report(tmp_path, capsys):
    papers = write_papers(tmp_path / "p.jsonl", [paper(7, 2010), paper(7, 2011)])
    assert run(["corpus", "validate", str(papers)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["paper_id"] == 7
    assert "line" in err


def test_missing_input_reported(capsys):
    assert run(["corpus", "validate", "/nonexistent/papers.jsonl"]) == 2


def test_model_build_artifacts(model_dir):
    assert (model_dir / "partition.tsv").exists()
    assert (model_dir / "partition.json").exists()
    assert (model_dir / "partition.manifest.json").exists()
    meta = json.loads((model_dir / "partition.json").read_text())
    assert meta["model_year"] == 2009
    assert meta["extended_through"] == 2014


def test_indicators_and_forecast_cli(synth_dir, model_dir, tmp_path, capsys):
    ind = tmp_path / "ind_2010.tsv"
    assert run(["indicators", "--corpus", str(synth_dir / "papers.jsonl"),
                "--journals", str(synth_dir / "ranks.csv"),
                "--model", str(model_dir), "--fy", "2010",
                "--out", str(ind)]) == 0
    header = ind.read_text().splitlines()[0]
    assert header.startswith("rc_id\tfy\tpk\t")

    fc = tmp_path / "fc_2010.tsv"
    assert run(["forecast", "--corpus", str(synth_dir / "papers.jsonl"),
                "--journals", str(synth_dir / "ranks.csv"),
                "--model", str(model_dir), "--fy", "2010",
                "--min-papers", "5", "--oracle-n", "--out", str(fc)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["records"] > 0 and out["selected"] > 0


def test_forecast_default_composite_is_published(synth_dir, model_dir, tmp_path):
    fc = tmp_path / "fc.tsv"
    assert run(["forecast", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy", "2011",
                "--min-papers", "5", "--out", str(fc)]) == 0
    assert fc.exists()


def test_evaluate_requires_outcomes(synth_dir, model_dir, tmp_path, capsys):
    # fy=2014 -> ty=2017 beyond the corpus: must fail naming the target year
    code = run(["evaluate", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy-range", "2014:2014",
                "--out-json", str(tmp_path / "e.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "2017" in err["error"]


def test_evaluate_cli(synth_dir, model_dir, tmp_path, capsys):
    ejson = tmp_path / "eval.json"
    etsv = tmp_path / "eval.tsv"
    assert run(["evaluate", "--corpus", str(synth_dir / "papers.jsonl"),
                "--journals", str(synth_dir / "ranks.csv"),
                "--model", str(model_dir), "--fy-range", "2010:2011",
                "--min-papers", "5",
                "--out-json", str(ejson), "--out-tsv", str(etsv)]) == 0
    payload = json.loads(ejson.read_text())
    slices = {s["slice"] for s in payload["slices"]}
    assert {"overall", "fy=2010", "fy=2011", "actionable ry>0",
            "circumstantial ry<=0"} <= slices


def test_evaluate_inherit_keeps_each_years_oracle_flags(synth_dir, model_dir, tmp_path):
    ejson = tmp_path / "eval.json"
    assert run(["evaluate", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy-range", "2009:2011", "--by", "fy",
                "--min-papers", "5", "--mode", "inherit", "--out-json", str(ejson)]) == 0
    reports = json.loads(ejson.read_text())["slices"]
    overall, years = reports[0], reports[1:]
    assert overall["slice"] == "overall" and overall["n_selected"] > 0
    assert [r["slice"] for r in years] == ["fy=2009", "fy=2010", "fy=2011"]
    for cell in ("tp", "fp", "fn", "tn", "n_selected"):
        assert overall[cell] == sum(r[cell] for r in years)


def test_evaluate_observed_years_without_records_exit_2(synth_dir, model_dir, tmp_path,
                                                         capsys):
    assert run(["evaluate", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy-range", "2010:2011",
                "--min-papers", "100000", "--out-json", str(tmp_path / "e.json")]) == 2
    assert _one_line_error(capsys)["error"] == (
        "no records of at least 100000 papers in the observed forecast years [2010, 2011]")


def _manifest_inputs(path) -> list[str]:
    return sorted(json.loads(Path(path).read_text())["inputs"])


def test_manifests_record_every_input(synth_dir, model_dir, tmp_path):
    corpus = ["--corpus", str(synth_dir / "papers.jsonl"),
              "--journals", str(synth_dir / "ranks.csv"), "--model", str(model_dir)]
    composite = tmp_path / "composite.json"
    CompositeModel.default().to_json(composite)
    taxonomy = tmp_path / "tax.tsv"
    taxonomy.write_text("rc_id\tdiscipline_id\tfield_id\n0\t1\t1\n")
    fc = tmp_path / "fc.tsv"
    assert run(["forecast", *corpus, "--composite", str(composite), "--fy", "2010",
                "--out", str(fc)]) == 0
    read = ["composite", "journals", "papers", "partition.json", "partition.tsv"]
    assert _manifest_inputs(f"{fc}.manifest.json") == read
    etsv = tmp_path / "eval.tsv"     # --out-tsv alone gets a manifest too
    assert run(["evaluate", *corpus, "--composite", str(composite), "--fy-range", "2010",
                "--taxonomy", str(taxonomy), "--out-tsv", str(etsv)]) == 0
    assert _manifest_inputs(f"{etsv}.manifest.json") == [*read, "taxonomy"]
    recorded = json.loads(Path(f"{etsv}.manifest.json").read_text())["inputs"]
    assert recorded["partition.tsv"] == file_digest(model_dir / "partition.tsv")


def test_model_extend_manifest_digests_the_partition_it_read(synth_dir, model_dir, tmp_path):
    model = _broken_model(model_dir, tmp_path, meta=lambda m: dict(m, extended_through=2013))
    before = file_digest(model / "partition.json")
    assert run(["model", "extend", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model), "--through-year", "2014"]) == 0
    recorded = json.loads((model / "extension_2014.manifest.json").read_text())["inputs"]
    assert recorded["partition.json"] == before != file_digest(model / "partition.json")


def test_lifecycle_cli(synth_dir, model_dir, tmp_path):
    out = tmp_path / "lc.tsv"
    assert run(["lifecycle", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy", "2010", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("gap\t")
    assert len(lines) == 8  # header + gaps 0..5 and >5


def test_fit_cli(synth_dir, model_dir, tmp_path, capsys):
    out = tmp_path / "composite.json"
    assert run(["fit", "--corpus", str(synth_dir / "papers.jsonl"),
                "--journals", str(synth_dir / "ranks.csv"),
                "--model", str(model_dir), "--fy-range", "2010:2011",
                "--out", str(out)]) == 0
    model = json.loads(out.read_text())
    assert model["variables"], "planted signals should select something"


def test_synth_cli(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"rng_seed": 4, "n_communities": 50}))
    out_dir = tmp_path / "synth_out"
    assert run(["synth", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "papers.jsonl").exists()
    assert (out_dir / "ranks.csv").exists()
    assert (out_dir / "truth.tsv").exists()
    assert (out_dir / "synth.manifest.json").exists()


@pytest.mark.parametrize("config,problem", [
    ({"n_communities": 5}, "at least 10 communities"),
    ({"bogus": 1}, "unknown config keys: bogus"),
    ([1], "JSON object"),
    ({"n_communities": "50"}, "n_communities must be an int"),
    ({"n_communities": 50.0}, "n_communities must be an int"),
    ({"n_communities": True}, "n_communities must be an int"),
    ({"intra_p": "0.7"}, "intra_p must be a number"),
    ({"intra_p": False}, "intra_p must be a number"),
    ({"lifecycle_mix": [0.5, 0.5]}, "lifecycle_mix must be an object"),
    ({"signal_strengths": {"rvit": "2"}}, "signal_strengths must be an object"),
    pytest.param({"intra_p": NAN}, "intra_p must be a number", id="nan"),
    pytest.param({"size_median": INF}, "size_median must be a number", id="inf"),
    pytest.param({"noise_sigma": -INF}, "noise_sigma must be a number", id="-inf"),
    pytest.param({"refs_mean": BIG}, "refs_mean must be a number", id="400-digit"),
    pytest.param({"lifecycle_mix": {"emerging": NAN, "mature": 0.5}},
                 "lifecycle_mix must be an object of numbers", id="mix-nan"),
    pytest.param({"signal_strengths": {"rvit": INF}}, "signal_strengths must be an object",
                 id="signal-inf"),
    pytest.param({"signal_strengths": {"ntopj": BIG}}, "signal_strengths must be an object",
                 id="signal-400-digit"),
    pytest.param({"top_journal_count": 0}, "top_journal_count must be at least 1",
                 id="no-top-journals"),
    pytest.param({"external_pool_size": -1}, "external_pool_size must be at least 0",
                 id="negative-external-pool"),
])
def test_synth_bad_config_exits_2(tmp_path, capsys, config, problem):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert problem in _one_line_report(capsys)["error"]
    assert not (tmp_path / "out").exists()


def test_pipeline_cli_small_fixture(synth_dir, tmp_path, capsys):
    out_dir = tmp_path / "pipe_out"
    cfg = {
        "papers": str(synth_dir / "papers.jsonl"),
        "journals": str(synth_dir / "ranks.csv"),
        "out_dir": str(out_dir),
        "model_year": 2009,
        "extend_through": 2014,
        "resolution": 0.02,
        "seed": 0,
        "fit_fys": [2010, 2011],
        "forecast_fys": [2010, 2011],
        "min_papers": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["pipeline", "--config", str(cfg_path)]) == 0
    for name in ("partition.tsv", "partition.json", "composite.json",
                 "indicators_2010.tsv", "forecast_2010.tsv", "forecast_2011.tsv",
                 "evaluation.json", "evaluation.tsv", "summary.json",
                 "extension.json"):
        assert (out_dir / name).exists(), name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["extended_through"] == 2014


def test_pipeline_manifest_records_the_config(synth_dir, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"papers": str(synth_dir / "papers.jsonl"),
                                    "out_dir": str(tmp_path / "o"), "model_year": 2009,
                                    "extend_through": 2010, "resolution": 0.02}))
    assert run(["pipeline", "--config", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "o" / "pipeline.manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert manifest["inputs"] == {"config": file_digest(cfg_path)}


def test_run_pipeline_hashes_each_input_once(synth_dir, tmp_path):
    papers, journals = synth_dir / "papers.jsonl", synth_dir / "ranks.csv"
    out = tmp_path / "o"
    with mock.patch("rcforecast.manifest.file_digest", wraps=file_digest) as digest:
        run_pipeline(PipelineConfig(papers=str(papers), journals=str(journals),
                                    out_dir=str(out), model_year=2009, extend_through=2014,
                                    resolution=0.02, fit_fys=[2010], forecast_fys=[2010, 2011],
                                    min_papers=5))
    assert sorted(str(call.args[0]) for call in digest.call_args_list) == sorted(
        [str(papers), str(journals)])
    manifests = sorted(out.glob("*.manifest.json"))
    assert len(manifests) == 5
    for path in manifests:
        assert json.loads(path.read_text())["inputs"] == {
            "journals": file_digest(journals), "papers": file_digest(papers)}, path.name


def test_pipeline_config_unknown_key_exits_2(tmp_path, capsys):
    # ``threads`` was accepted and ignored once; old configs now name it
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"papers": "p.jsonl", "out_dir": str(tmp_path / "o"),
                                    "model_year": 2009, "threads": 4}))
    assert run(["pipeline", "--config", str(cfg_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "threads" in err["error"]


def test_pipeline_config_malformed_json_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"papers": "p.jsonl",')
    assert run(["pipeline", "--config", str(cfg_path)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_pipeline_config_nested_too_deeply_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["pipeline", "--config", str(cfg_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"config {cfg_path} holds JSON nested too deeply"}


def test_indicators_fy_without_rows_exits_2(synth_dir, model_dir, tmp_path, capsys):
    assert run(["indicators", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy", "1900",
                "--out", str(tmp_path / "ind.tsv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "fewer than 2 RC rows" in err["error"]


def _one_line_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1      # one JSON report, no traceback
    return json.loads(lines[0])


def test_evaluate_refuses_an_empty_target_year(tmp_path, capsys):
    # no paper in 2013, the target year of fy 2010, inside the 2008-2014 span
    papers = [paper(pid, year) for pid, year in enumerate([2008, 2009, 2010, 2011, 2012, 2014],
                                                          start=1)]
    papers += [paper(pid, year) for pid, year in enumerate([2010, 2011, 2011, 2011], start=50)]
    write_papers(tmp_path / "papers.jsonl", papers)
    (tmp_path / "model").mkdir()
    save_partition(Partition.from_assignment({p["paper_id"]: int(p["paper_id"] >= 50)
                                              for p in papers},
                                             model_year=2010, rc_count=2, extended_through=2014),
                   tmp_path / "model" / "partition.tsv", tmp_path / "model" / "partition.json")
    assert run(["evaluate", "--corpus", str(tmp_path / "papers.jsonl"), "--model",
                str(tmp_path / "model"), "--fy-range", "2010", "--min-papers", "0",
                "--out-json", str(tmp_path / "ev.json")]) == 2
    assert "no share for target year 2013" in _one_line_error(capsys)["error"]
    assert not (tmp_path / "ev.json").exists()


@pytest.mark.parametrize("composite,problem", [
    ({"coefficients": [0.5]}, "variables"),
    ([], "JSON object"),
    ({"variables": ["stage", "bogus"], "coefficients": [0.5, 0.1]}, "variables"),
    ({"variables": "stage", "coefficients": [0.5]}, "variables"),
    ({"variables": ["stage", "cvit"], "coefficients": [0.5]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": ["0.5"]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": [True]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": 0.5}, "coefficients"),
    ({"variables": ["stage"], "coefficients": [0.5], "intercept": "1"}, "intercept"),
    ({"variables": ["stage"], "coefficients": [NAN]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": [INF]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": [-INF]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": [BIG]}, "coefficients"),
    ({"variables": ["stage"], "coefficients": [0.5], "intercept": NAN}, "intercept"),
    ({"variables": ["stage"], "coefficients": [0.5], "intercept": BIG}, "intercept"),
])
@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_bad_composite_file_exits_2(synth_dir, model_dir, tmp_path, capsys, composite,
                                    problem, command):
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(composite))
    argv = [command, "--corpus", str(synth_dir / "papers.jsonl"), "--model", str(model_dir),
            "--composite", str(path), "--out-json" if command == "evaluate" else "--out",
            str(tmp_path / "out"), "--fy-range" if command == "evaluate" else "--fy", "2010"]
    assert run(argv) == 2
    assert problem in _one_line_error(capsys)["error"]


@pytest.mark.parametrize("value,number", [
    (0, True), (-2.5, True), (1e308, True), (-1e308, True),
    pytest.param(2**1024 - 2**970 - 1, True, id="float-max-int"),    # float() rounds to max
    pytest.param(-2**1024 + 2**970 + 1, True, id="-float-max-int"),
    pytest.param(2**1024 - 2**970, False, id="float-overflow-int"),  # float() overflows
    pytest.param(-2**1024 + 2**970, False, id="-float-overflow-int"),
    (NAN, False), (INF, False), (-INF, False),
    pytest.param(BIG, False, id="400-digit"), pytest.param(-BIG, False, id="-400-digit"),
    (True, False), ("1", False), (None, False),
])
def test_a_number_has_a_finite_float_value(value, number):
    assert has_type("float", value) is number
    assert has_type("list[float]", [1.0, value]) is number
    assert has_type("dict[str, float]", {"a": value}) is number


def test_composite_file_with_int_coefficient_and_null_intercept_loads(tmp_path):
    path = tmp_path / "composite.json"
    path.write_text(json.dumps({"variables": ["stage", "nref"], "coefficients": [1, -0.5],
                                "intercept": None}))
    model = CompositeModel.from_json(path)
    assert model.variables == ("stage", "nref") and model.coefficients == (1.0, -0.5)


def _with_line(text, index, line):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:index] + [line + "\n"] + lines[index:])


def _broken_model(model_dir, tmp_path, tsv=None, meta=None):
    out = tmp_path / "model"
    shutil.copytree(model_dir, out)
    if tsv is not None:
        (out / "partition.tsv").write_text(tsv((model_dir / "partition.tsv").read_text()))
    if meta is not None:
        (out / "partition.json").write_text(json.dumps(
            meta(json.loads((model_dir / "partition.json").read_text()))))
    return out


@pytest.mark.parametrize("tsv,meta,problem", [
    (None, lambda m: [], "JSON object"),
    (None, lambda m: dict(m, model_year="2009"), "model_year"),
    (None, lambda m: dict(m, extended_through=True), "extended_through"),
    (None, lambda m: dict(m, rc_count=3.0), "rc_count"),
    (None, lambda m: dict(m, external_assignment={"x": 1}), "external_assignment"),
    (lambda t: _with_line(t, 2, "5"), None,
     "partition line 3: expected paper_id and rc_id, got '5'"),
    (lambda t: _with_line(t, 2, "7\t1.5"), None, "partition line 3: expected paper_id"),
    (lambda t: _with_line(t, 3, t.splitlines()[1]), None, "partition line 4: duplicate"),
    pytest.param(lambda t: _with_line(t, 2, "99999999999999999999\t1"), None,
                 "partition line 3: paper_id and rc_id must fit int64", id="tsv-id-int64"),
    pytest.param(lambda t: _with_line(t, 2, "7\t-9999999999999999999"), None,
                 "partition line 3: paper_id and rc_id must fit int64", id="tsv-rc-int64"),
    pytest.param(None, lambda m: dict(m, external_assignment={"99999999999999999999": 1}),
                 "external_assignment", id="external-key-int64"),
    pytest.param(None, lambda m: dict(m, external_assignment={"5": 99999999999999999999}),
                 "external_assignment", id="external-value-int64"),
    pytest.param(None, lambda m: dict(m, quality=NAN), "quality", id="quality-nan"),
    pytest.param(None, lambda m: dict(m, quality=INF), "quality", id="quality-inf"),
    pytest.param(None, lambda m: dict(m, quality=-INF), "quality", id="quality--inf"),
    pytest.param(None, lambda m: dict(m, quality=BIG), "quality", id="quality-400-digit"),
    pytest.param(lambda t: _with_line(t, 2, "1_000\t1"), None,
                 "partition line 3: expected paper_id and rc_id", id="tsv-underscore"),
    pytest.param(lambda t: _with_line(t, 2, "7\t+5"), None,
                 "partition line 3: expected paper_id and rc_id", id="tsv-plus"),
    pytest.param(lambda t: _with_line(t, 2, "\u0663\t1"), None,
                 "partition line 3: expected paper_id and rc_id", id="tsv-arabic-indic-digit"),
])
def test_bad_partition_file_exits_2(synth_dir, model_dir, tmp_path, capsys, tsv, meta,
                                    problem):
    model = _broken_model(model_dir, tmp_path, tsv, meta)
    assert run(["lifecycle", "--corpus", str(synth_dir / "papers.jsonl"), "--model",
                str(model), "--fy", "2010", "--out", str(tmp_path / "lc.tsv")]) == 2
    assert problem in _one_line_error(capsys)["error"]


@pytest.mark.parametrize("key,value,problem", [
    ("resolution", "0.02", "resolution must be a number"),
    ("max_iterations", "10", "max_iterations must be an int"),
    ("rng_seed", 1.5, "rng_seed must be an int"),
    ("quality", None, "quality must be a string"),
    pytest.param("resolution", NAN, "resolution must be a number", id="resolution-nan"),
    pytest.param("resolution", INF, "resolution must be a number", id="resolution-inf"),
    pytest.param("resolution", -INF, "resolution must be a number", id="resolution--inf"),
    pytest.param("resolution", BIG, "resolution must be a number", id="resolution-400-digit"),
])
def test_seeded_extend_checks_the_stored_config_types(synth_dir, model_dir, tmp_path, capsys,
                                                      key, value, problem):
    model = _broken_model(model_dir, tmp_path, meta=lambda m: dict(
        m, extended_through=2013, config=dict(m["config"], **{key: value})))
    assert run(["model", "extend", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model), "--through-year", "2014", "--seeded"]) == 2
    assert problem in _one_line_error(capsys)["error"]


def _strict_json(line: str) -> dict:
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("command,flag,value", [
    ("model build", "--resolution", "nan"),
    ("model build", "--resolution", "inf"),
    ("model build", "--resolution", "1e400"),
    ("fit", "--z-threshold", "inf"),
    ("fit", "--z-threshold", "-inf"),
    ("fit", "--z-threshold", "nan"),
])
def test_float_flag_that_is_not_a_number_exits_2(synth_dir, model_dir, tmp_path, capsys,
                                                 command, flag, value):
    out = tmp_path / "out"
    argv = (["model", "build", "--through-year", "2009"] if command == "model build" else
            ["fit", "--model", str(model_dir), "--fy-range", "2005:2011"])
    assert run([*argv, "--corpus", str(synth_dir / "papers.jsonl"), f"{flag}={value}",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "must be a number" in _strict_json(lines[0])["error"]
    assert captured.out == "" and not out.exists()


def test_seeded_extend_rejects_resolution_0(synth_dir, model_dir, tmp_path, capsys):
    # 0 is a value given, not an absent one: it must not fall back to the stored resolution
    model = _broken_model(model_dir, tmp_path, meta=lambda m: dict(m, extended_through=2013))
    assert run(["model", "extend", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model), "--through-year", "2014", "--seeded",
                "--resolution", "0"]) == 2
    assert "resolution must be positive" in _one_line_error(capsys)["error"]
    assert json.loads((model / "partition.json").read_text())["extended_through"] == 2013


def test_evaluate_unknown_slice_name_exits_2(synth_dir, model_dir, tmp_path, capsys):
    assert run(["evaluate", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy-range", "2010:2011", "--by", "fy,bogus",
                "--out-json", str(tmp_path / "e.json")]) == 2
    assert "'bogus'" in _one_line_error(capsys)["error"]
    assert not (tmp_path / "e.json").exists()


def test_evaluate_checks_slice_names_before_reading_input(tmp_path, capsys):
    assert run(["evaluate", "--corpus", str(tmp_path / "absent.jsonl"),
                "--model", str(tmp_path), "--fy-range", "2010:2011", "--by", "fy,bogus"]) == 2
    error = _one_line_error(capsys)["error"]
    assert "'bogus'" in error and "missing input" not in error


def test_model_extend_needs_through_year_before_reading_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["model", "extend", "--corpus", str(tmp_path / "absent.jsonl"),
             "--model", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--through-year" in err and "missing input" not in err


_NOT_INT_TEXT = ["2_011", "+20", "\u0663"]      # \u0663 is ARABIC-INDIC DIGIT THREE


@pytest.mark.parametrize("value", _NOT_INT_TEXT)
@pytest.mark.parametrize("argv,flag", [
    (["lifecycle", "--fy", "{}"], "--fy"),
    (["lifecycle", "--fy", "2011", "--min-papers", "{}"], "--min-papers"),
    (["lifecycle", "--fy", "2011", "--window", "{}"], "--window"),
    (["forecast", "--fy", "2011", "--top", "{}"], "--top"),
    (["model", "build", "--through-year", "{}"], "--through-year"),
    (["model", "build", "--through-year", "2009", "--seed", "{}"], "--seed"),
    (["model", "build", "--through-year", "2009", "--max-iterations", "{}"],
     "--max-iterations"),
    (["model", "build", "--through-year", "2009", "--target-rcs", "{}"], "--target-rcs"),
])
def test_integer_flag_takes_only_int_text(tmp_path, capsys, argv, flag, value):
    inputs = ["--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "out")]
    if argv[0] != "model":
        inputs += ["--model", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run([arg.format(value) for arg in argv] + inputs)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid integer value" in err and "missing input" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", _NOT_INT_TEXT)
@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("fy_range", ["{}", "2005:{}", "{}:2011"])
def test_fy_range_takes_only_int_text(tmp_path, capsys, command, fy_range, value):
    assert run([command, "--corpus", str(tmp_path / "absent.jsonl"), "--model", str(tmp_path),
                "--fy-range", fy_range.format(value), "--out", str(tmp_path / "out")]
               [:-2 if command == "evaluate" else None]) == 2
    assert _one_line_error(capsys)["error"] == f"not an integer: {value!r}"


@pytest.mark.parametrize("argv,dest,field", [
    ("model build --through-year 2009 --out o", "resolution", "resolution"),
    ("model build --through-year 2009 --out o", "max_iterations", "max_iterations"),
    ("lifecycle --model m --fy 2011 --out o", "window", "window"),
    ("fit --model m --fy-range 2010 --out o", "min_papers", "fit_min_papers"),
    ("fit --model m --fy-range 2010 --out o", "z_threshold", "z_threshold"),
    ("forecast --model m --fy 2011 --out o", "min_papers", "min_papers"),
    ("evaluate --model m --fy-range 2010", "min_papers", "min_papers"),
], ids=lambda v: v.split(" --")[0])
def test_flag_default_is_the_pipeline_config_default(argv, dest, field):
    args = build_parser().parse_args(argv.split() + ["--corpus", "c"])
    assert getattr(args, dest) == getattr(PipelineConfig, field)


@pytest.mark.parametrize("flags,named", [
    (["--seed", "3"], "--seed"),
    (["--resolution", "0.1"], "--resolution"),
    (["--quality", "cpm", "--seed", "0"], "--seed, --quality"),
])
def test_model_extend_clustering_flags_need_seeded(tmp_path, capsys, flags, named):
    assert run(["model", "extend", "--corpus", str(tmp_path / "absent.jsonl"),
                "--model", str(tmp_path), "--through-year", "2014", *flags]) == 2
    assert _one_line_error(capsys)["error"] == f"clustering flags need --seeded: {named}"


def test_duplicate_partition_row_names_its_line(tmp_path):
    (tmp_path / "p.tsv").write_text("paper_id\trc_id\n1\t0\n2\t0\n1\t3\n")
    with pytest.raises(ClusterError, match="partition line 4: duplicate paper_id 1"):
        load_partition(tmp_path / "p.tsv")
    # cells are separated by one tab and nothing else
    (tmp_path / "p.tsv").write_text("paper_id\trc_id\n1\t0\r\n 2 0\n-3\t7")
    with pytest.raises(ClusterError, match="partition line 3: expected paper_id and rc_id, "
                                           "got '2 0'"):
        load_partition(tmp_path / "p.tsv")
    (tmp_path / "p.tsv").write_text("paper_id\trc_id\n1\t0\r\n2\t0\n-3\t7")
    part = load_partition(tmp_path / "p.tsv")
    assert part.assignment == {1: 0, 2: 0, -3: 7}
    assert part.paper_ids.tolist() == [-3, 1, 2] and part.rc.tolist() == [7, 0, 0]
    assert part.paper_ids.dtype == part.rc.dtype == np.int64 and part.rc_count == 2


def _validate_error(tmp_path, capsys, records, journal_rows=None):
    papers = write_papers(tmp_path / "p.jsonl", records)
    argv = ["corpus", "validate", str(papers)]
    if journal_rows is not None:
        journals = tmp_path / "ranks.csv"
        journals.write_text("journal_id,citescore_rank,eigenfactor_rank\n"
                            + "".join(row + "\n" for row in journal_rows))
        argv += ["--journals", str(journals)]
    assert run(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1      # one JSON report, no traceback
    return json.loads(lines[0])


@pytest.mark.parametrize("field,value", [
    ("terms", 5),
    ("year", True),
    ("references", [1, "x"]),
    ("references", [1.0]),
    ("journal_id", 3.5),
])
def test_validate_rejects_wrong_field_type(tmp_path, capsys, field, value):
    bad = paper(9, 2011)
    bad[field] = value
    err = _validate_error(tmp_path, capsys, [paper(1, 2010), bad])
    assert err["line"] == 2
    assert err["paper_id"] == 9
    assert field in err["error"]


@pytest.mark.parametrize("refs,problem", [([5, 200], "cites itself"),
                                           ([5, 7, 5], "duplicate references")])
def test_validate_names_a_bad_reference_beyond_the_first_block(tmp_path, capsys, refs, problem):
    papers = [paper(i, 2000, refs=[i - 1] if i > 1 else []) for i in range(1, 251)]
    papers[199] = paper(200, 2000, refs=refs)
    err = _validate_error(tmp_path, capsys, papers)
    assert err == {"error": f"paper 200: {problem}", "line": 200, "paper_id": 200}


def test_validate_reports_invalid_utf8_as_the_first_bad_line(tmp_path, capsys):
    # no line before the bytes that do not decode is bad, so the report is the
    # error that iterating the file raises
    text = "".join(json.dumps(paper(i, 2000, terms=["x" * 200])) + "\n" for i in range(1, 100))
    papers = tmp_path / "p.jsonl"
    papers.write_bytes(text.encode() + b'{"paper_id": 100, "terms": "\xff"}\n')
    with open(papers) as fh, pytest.raises(UnicodeDecodeError) as exc:
        list(fh)
    assert run(["corpus", "validate", str(papers)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": str(exc.value)}


def test_validate_reports_json_nested_too_deeply(tmp_path, capsys):
    papers = tmp_path / "p.jsonl"
    papers.write_text(json.dumps(paper(1, 2010)) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    assert run(["corpus", "validate", str(papers)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "malformed JSON: maximum recursion depth "
                                             "exceeded while decoding a JSON array from a "
                                             "unicode string", "line": 2}


def test_validate_rejects_float_paper_id(tmp_path, capsys):
    err = _validate_error(tmp_path, capsys, [paper(1, 2010), paper(2.7, 2011)])
    assert err == {"error": "missing or non-integer paper_id", "line": 2}


@pytest.mark.parametrize("row,what", [
    ("x7,1,2", "journal_id"),
    ("7,1.5,2", "journal rank"),
    ("7,1,two", "journal rank"),
])
def test_validate_rejects_non_integer_journal_fields(tmp_path, capsys, row, what):
    err = _validate_error(tmp_path, capsys, [paper(1, 2010)], ["5,1,1", row])
    assert err["line"] == 3
    assert f"non-integer {what}" in err["error"]


@pytest.mark.parametrize("command", [["corpus", "validate"], ["model", "build"]])
def test_oversized_paper_id_exits_2(tmp_path, capsys, command):
    # a paper id beyond int64 used to pass validation and crash graph building
    papers = write_papers(tmp_path / "p.jsonl", [paper(1, 2010), paper(2**64, 2010, refs=[1])])
    argv = command + [str(papers)] if command[0] == "corpus" else command + [
        "--corpus", str(papers), "--through-year", "2010", "--out", str(tmp_path / "m")]
    assert run(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["line"] == 2 and err["paper_id"] == 2**64
    assert "64-bit" in err["error"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_FIELDS = ["paper_id", "year", "doc_type", "journal_id", "references", "terms", "extra"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIELDS), st.booleans(), _JSON_VALUES)
def test_one_field_mutation_loads_unchanged_or_exits_2(field, delete, value):
    record = paper(9, 2011, refs=[1, 10**9], journal_id=5, terms=["Alpha beta", "gamma"])
    if delete:
        record.pop(field, None)
    else:
        record[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = write_papers(Path(tmp) / "p.jsonl", [paper(1, 2010), record])
        assert_loads_like_oracle(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["corpus", "validate", str(path)])
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0])
            return
        assert code == 0 and err.getvalue() == ""
        loaded = load_corpus(path).papers
    # accepted: every field reads back as written, with no coercion
    pid = record.get("paper_id")
    rec = loaded[pid]
    assert type(rec.paper_id) is int and type(rec.year) is int
    assert (rec.paper_id, rec.year) == (pid, record["year"])
    assert rec.doc_type == record.get("doc_type", "article")
    jid = record.get("journal_id")
    assert rec.journal_id == jid and type(rec.journal_id) is type(jid)
    refs = record.get("references", [])
    assert rec.references == tuple(refs) and all(type(r) is int for r in rec.references)
    assert rec.terms == normalize_terms(record.get("terms", []))


def _one_line_report(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1      # one JSON report, no traceback
    return json.loads(lines[0])


@pytest.mark.parametrize("directory_as", ["papers", "journals"])
def test_directory_input_exits_2_naming_it(tmp_path, capsys, directory_as):
    papers = write_papers(tmp_path / "p.jsonl", [paper(1, 2010)])
    argv = ["corpus", "validate", str(tmp_path if directory_as == "papers" else papers)]
    if directory_as == "journals":
        argv += ["--journals", str(tmp_path)]
    assert run(argv) == 2
    assert str(tmp_path) in _one_line_report(capsys)["error"]


def test_unreadable_input_exits_2_naming_it(tmp_path, capsys):
    papers = write_papers(tmp_path / "p.jsonl", [paper(1, 2010)])
    denied = PermissionError(errno.EACCES, "Permission denied", str(papers))
    with mock.patch("rcforecast.corpus.open", side_effect=denied, create=True):
        assert run(["corpus", "validate", str(papers)]) == 2
    report = _one_line_report(capsys)
    assert str(papers) in report["error"] and "Permission denied" in report["error"]


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["synth", "model build"])
def test_out_naming_a_file_exits_2(synth_dir, tmp_path, capsys, command, under_file):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under_file else blocker
    argv = ["synth", "--seed", "1"] if command == "synth" else [
        "model", "build", "--corpus", str(synth_dir / "papers.jsonl"),
        "--through-year", "2009", "--resolution", "0.02"]
    assert run([*argv, "--out", str(out)]) == 2
    report = _one_line_report(capsys)
    assert report["error"].startswith(f"cannot open {out}: ")
    assert blocker.read_text() == "not a directory\n"


def test_other_os_errors_are_not_reported_as_bad_input(tmp_path):
    papers = write_papers(tmp_path / "p.jsonl", [paper(1, 2010)])
    full = OSError(errno.ENOSPC, "No space left on device")
    with mock.patch("rcforecast.corpus.open", side_effect=full, create=True):
        with pytest.raises(OSError) as raised:
            run(["corpus", "validate", str(papers)])
    assert raised.value.errno == errno.ENOSPC and raised.value.filename is None


@pytest.mark.parametrize("key,value,problem", [
    ("model_year", "2009", "model_year must be an int"),
    ("model_year", True, "model_year must be an int"),
    ("resolution", "0.05", "resolution must be a number"),
    ("forecast_fys", 2010, "forecast_fys must be a list of ints"),
    ("fit_fys", [2010, "2011"], "fit_fys must be a list of ints"),
    ("seed", 1.5, "seed must be an int"),
    ("window", "10", "window must be an int"),
    ("journals", 3, "journals must be a string or null"),
    ("target_rcs", False, "target_rcs must be an int or null"),
    ("lifecycle", 1, "lifecycle must be a bool"),
    pytest.param("resolution", NAN, "resolution must be a number", id="resolution-nan"),
    pytest.param("resolution", INF, "resolution must be a number", id="resolution-inf"),
    pytest.param("z_threshold", -INF, "z_threshold must be a number", id="z_threshold--inf"),
    pytest.param("resolution", BIG, "resolution must be a number", id="resolution-400-digit"),
])
def test_pipeline_config_wrong_type_exits_2(synth_dir, tmp_path, capsys, key, value,
                                            problem):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"papers": str(synth_dir / "papers.jsonl"),
                                    "out_dir": str(tmp_path / "o"), "model_year": 2009,
                                    key: value}))
    assert run(["pipeline", "--config", str(cfg_path)]) == 2
    assert problem in _one_line_report(capsys)["error"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rows,problem", [
    (["7\t1"], "taxonomy line 3: expected integer rc_id"),
    (["7\t1\tx"], "taxonomy line 3: expected integer rc_id"),
    (["7\t1.0\t2"], "taxonomy line 3: expected integer rc_id"),
    (["", "5\t2\t2"], "taxonomy line 4: duplicate rc_id 5"),
])
def test_bad_taxonomy_rows_exit_2(synth_dir, model_dir, tmp_path, capsys, rows, problem):
    tax = tmp_path / "tax.tsv"
    tax.write_text("rc_id\tdiscipline_id\tfield_id\n5\t1\t1\n" + "".join(r + "\n" for r in rows))
    assert run(["evaluate", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy-range", "2010:2011",
                "--taxonomy", str(tax)]) == 2
    assert problem in _one_line_report(capsys)["error"]


def test_model_build_checks_out_before_loading_the_corpus(synth_dir, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    loaded = AssertionError("the corpus was loaded before --out was checked")
    with mock.patch("rcforecast.cli.load_corpus", side_effect=loaded):
        assert run(["model", "build", "--corpus", str(synth_dir / "papers.jsonl"),
                    "--through-year", "2009", "--out", str(blocker)]) == 2
    assert _one_line_report(capsys)["error"].startswith(f"cannot open {blocker}: ")
