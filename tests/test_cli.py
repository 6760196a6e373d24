import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.cli import run
from rcforecast.cluster import ClusterError, load_partition
from rcforecast.forecast import CompositeModel
from rcforecast.corpus import load_corpus, normalize_terms
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


def _one_line_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1      # one JSON report, no traceback
    return json.loads(lines[0])


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
])
def test_bad_partition_file_exits_2(synth_dir, model_dir, tmp_path, capsys, tsv, meta,
                                    problem):
    model = _broken_model(model_dir, tmp_path, tsv, meta)
    assert run(["lifecycle", "--corpus", str(synth_dir / "papers.jsonl"), "--model",
                str(model), "--fy", "2010", "--out", str(tmp_path / "lc.tsv")]) == 2
    assert problem in _one_line_error(capsys)["error"]


def test_duplicate_partition_row_names_its_line(tmp_path):
    (tmp_path / "p.tsv").write_text("paper_id\trc_id\n1\t0\n2\t0\n1\t3\n")
    with pytest.raises(ClusterError, match="partition line 4: duplicate paper_id 1"):
        load_partition(tmp_path / "p.tsv")
    (tmp_path / "p.tsv").write_text("paper_id\trc_id\n1\t0\r\n 2 0\n-3\t7")
    assert load_partition(tmp_path / "p.tsv").assignment == {1: 0, 2: 0, -3: 7}


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
