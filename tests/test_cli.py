import json

import pytest

from rcforecast.cli import run
from rcforecast.synth import SynthConfig, generate

from conftest import paper, write_papers


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


def test_indicators_fy_without_rows_exits_2(synth_dir, model_dir, tmp_path, capsys):
    assert run(["indicators", "--corpus", str(synth_dir / "papers.jsonl"),
                "--model", str(model_dir), "--fy", "1900",
                "--out", str(tmp_path / "ind.tsv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "fewer than 2 RC rows" in err["error"]


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
