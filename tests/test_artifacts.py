"""The exact text of every artifact writer, on small hand-built inputs, and
the column rule of ``write_tsv`` against the per-cell rule it replaced.

JSON artifacts have 2-space indents, sorted keys and a final newline. A TSV
cell is empty for None, 0 or 1 for a bool, the repr of a float and the str of
anything else.
"""

import hashlib
import math
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.artifacts import read_tsv, write_tsv
from rcforecast.cluster import Partition, load_partition, save_partition
from rcforecast.corpus import load_corpus
from rcforecast.evaluate import (
    LifecycleRow,
    TaxonomyMap,
    contingency,
    evaluate_slices,
    write_evaluation,
    write_lifecycle_tsv,
)
from rcforecast.forecast import (
    CompositeModel,
    ForecastRecord,
    build_forecasts,
    read_forecast_tsv,
    select_top_n,
    write_forecast_tsv,
)
from rcforecast.indicators import INDICATOR_NAMES, IndicatorTable, Panel, write_indicator_tsv
from rcforecast.manifest import write_manifest
from rcforecast.pipeline import indicator_table
from rcforecast.synth import SynthConfig, generate, load_truth

from conftest import assert_same_partition
from oracles import write_tsv_rows

THIRD = 0.1 + 0.2       # 0.30000000000000004: only its repr round-trips


def test_save_partition_text(tmp_path):
    part = Partition.from_assignment(
        {7: 1, -2: 0, 5: 1}, {100: 0, -9: 2}, model_year=2009, rc_count=2,
        quality=THIRD, extended_through=2011,
        config_used={"quality": "cpm", "resolution": 0.05, "rng_seed": 3,
                     "max_iterations": 10, "seeded": False})
    save_partition(part, tmp_path / "p.tsv", tmp_path / "p.json")
    assert (tmp_path / "p.tsv").read_text() == "paper_id\trc_id\n-2\t0\n5\t1\n7\t1\n"
    assert (tmp_path / "p.json").read_text() == """\
{
  "config": {
    "max_iterations": 10,
    "quality": "cpm",
    "resolution": 0.05,
    "rng_seed": 3,
    "seeded": false
  },
  "extended_through": 2011,
  "external_assignment": {
    "-9": 2,
    "100": 0
  },
  "model_year": 2009,
  "quality": 0.30000000000000004,
  "rc_count": 2
}
"""


def test_save_partition_without_rows_or_externals(tmp_path):
    save_partition(Partition.from_assignment({}, model_year=None), tmp_path / "p.tsv",
                   tmp_path / "p.json")
    assert (tmp_path / "p.tsv").read_text() == "paper_id\trc_id\n"
    assert (tmp_path / "p.json").read_text() == """\
{
  "config": {},
  "extended_through": null,
  "external_assignment": {},
  "model_year": null,
  "quality": 0.0,
  "rc_count": 0
}
"""


def test_taxonomy_save_text(tmp_path):
    TaxonomyMap({3: (1, 2), -1: (0, 5), 10: (4, 4)}).save(tmp_path / "t.tsv")
    assert (tmp_path / "t.tsv").read_text() == (
        "rc_id\tdiscipline_id\tfield_id\n-1\t0\t5\n3\t1\t2\n10\t4\t4\n")


def test_forecast_tsv_text(tmp_path):
    records = [
        ForecastRecord(rc_id=4, fy=2011, ty=2014, ry=2, score=-0.5, predicted=0,
                       papers_in_fy=25),
        ForecastRecord(rc_id=9, fy=2011, ty=2014, ry=2, score=THIRD, predicted=1,
                       papers_in_fy=40, outcome=1, growth_rate=1.2),
        ForecastRecord(rc_id=2, fy=2011, ty=2014, ry=2, score=THIRD, predicted=0,
                       papers_in_fy=31, outcome=0, growth_rate=1 / 3),
    ]
    write_forecast_tsv(tmp_path / "f.tsv", records)
    assert (tmp_path / "f.tsv").read_text() == (
        "rc_id\tfy\tty\try\tpapers_in_fy\tscore\tpredicted\toutcome\tgrowth_rate\n"
        "2\t2011\t2014\t2\t31\t0.30000000000000004\t0\t0\t0.3333333333333333\n"
        "9\t2011\t2014\t2\t40\t0.30000000000000004\t1\t1\t1.2\n"
        "4\t2011\t2014\t2\t25\t-0.5\t0\t\t\n")


def test_lifecycle_tsv_text(tmp_path):
    write_lifecycle_tsv(tmp_path / "lc.tsv", [
        LifecycleRow(gap="2", stage=1 / 3, n_rc=3, pct_rc=100 / 3, n_xg=1,
                     pct_xg=100 / 3, n_new_peak=0, pct_new_peak=0.0),
        LifecycleRow(gap=">5", stage=None, n_rc=0, pct_rc=0.0),
    ])
    assert (tmp_path / "lc.tsv").read_text() == (
        "gap\tstage\tn_rc\tpct_rc\tn_xg\tpct_xg\tn_new_peak\tpct_new_peak\n"
        "2\t0.3333333333333333\t3\t33.333333333333336\t1\t33.333333333333336\t0\t0.0\n"
        ">5\t\t0\t0.0\t\t\t\t\n")


def _record(rc, predicted, outcome, ry):
    return ForecastRecord(rc_id=rc, fy=2011, ty=2014, ry=ry, score=0.0,
                          predicted=predicted, papers_in_fy=30, outcome=outcome)


def test_evaluation_text(tmp_path):
    records = [_record(1, 1, 1, 0), _record(2, 1, 0, 0), _record(3, 0, 1, -1),
               _record(4, 0, 0, -1)]
    reports = evaluate_slices(records, min_papers=0, mode="inherit", by=("actionable",))
    reports.append(contingency([_record(5, 0, 0, 1)], "none"))
    assert [r.slice for r in reports] == ["overall", "actionable ry>0",
                                          "circumstantial ry<=0", "none"]
    write_evaluation(reports[1:3], tmp_path / "e.json")
    write_evaluation(reports, tsv_path=tmp_path / "e.tsv")
    assert (tmp_path / "e.tsv").read_text() == (
        "slice\tmode\tmin_papers\tn_records\tn_xg\tn_selected\ttp\tfp\tfn\ttn"
        "\tprecision\trecall\tcsi\tmeets_csi_threshold\tdegenerate\n"
        "overall\tinherit\t0\t4\t2\t2\t1\t1\t1\t1\t0.5\t0.5\t0.3333333333333333\t1\t\n"
        "actionable ry>0\tinherit\t0\t0\t0\t0\t0\t0\t0\t0\t0.0\t0.0\t0.0\t0\tempty\n"
        "circumstantial ry<=0\tinherit\t0\t4\t2\t2\t1\t1\t1\t1\t0.5\t0.5"
        "\t0.3333333333333333\t1\t\n"
        "none\tas-is\t0\t1\t0\t0\t0\t0\t0\t1\t0.0\t0.0\t0.0\t0\tprecision,recall,csi\n")
    assert (tmp_path / "e.json").read_text() == """\
{
  "csi_threshold": 0.25,
  "slices": [
    {
      "csi": 0.0,
      "degenerate": [
        "empty"
      ],
      "fn": 0,
      "fp": 0,
      "meets_csi_threshold": false,
      "min_papers": 0,
      "mode": "inherit",
      "n_records": 0,
      "n_selected": 0,
      "n_xg": 0,
      "precision": 0.0,
      "recall": 0.0,
      "slice": "actionable ry>0",
      "tn": 0,
      "tp": 0
    },
    {
      "csi": 0.3333333333333333,
      "degenerate": [],
      "fn": 1,
      "fp": 1,
      "meets_csi_threshold": true,
      "min_papers": 0,
      "mode": "inherit",
      "n_records": 4,
      "n_selected": 2,
      "n_xg": 2,
      "precision": 0.5,
      "recall": 0.5,
      "slice": "circumstantial ry<=0",
      "tn": 1,
      "tp": 1
    }
  ]
}
"""


def test_indicator_tsv_text(tmp_path):
    raw = {"rc_id": np.array([3, 8]), "pk": np.array([2009, 2011]),
           "papers_in_fy": np.array([12, 0]), "stage": np.array([1 / 3, 1.0]),
           "cvit": np.array([0.5, THIRD]), "rvit": np.array([math.nan, 0.25]),
           "delta_rvit": np.array([0.0, -5.0])}
    raw.update((name, np.array([i, 0])) for i, name in enumerate(INDICATOR_NAMES[4:], 1))
    std = {name: np.array([-1.0, 1.0]) for name in INDICATOR_NAMES}
    std["cvit"] = np.array([THIRD, -THIRD])
    write_indicator_tsv(tmp_path / "i.tsv", IndicatorTable(2011, raw, std))
    assert (tmp_path / "i.tsv").read_text() == (
        "rc_id\tfy\tpk\tpapers_in_fy\tstage\tcvit\trvit\tdelta_rvit\tntopj\tctopj\teigen"
        "\tnart\tnrev\tnref\tstage_s\tcvit_s\trvit_s\tdelta_rvit_s\tntopj_s\tctopj_s"
        "\teigen_s\tnart_s\tnrev_s\tnref_s\n"
        "3\t2011\t2009\t12\t0.3333333333333333\t0.5\tnan\t0.0\t1\t2\t3\t4\t5\t6"
        "\t-1.0\t0.30000000000000004" + "\t-1.0" * 8 + "\n"
        "8\t2011\t2011\t0\t1.0\t0.30000000000000004\t0.25\t-5.0\t0\t0\t0\t0\t0\t0"
        "\t1.0\t-0.30000000000000004" + "\t1.0" * 8 + "\n")


def test_composite_json_text(tmp_path):
    CompositeModel(("stage", "nref"), (THIRD, -1), intercept=None,
                   meta={"source": "hand", "fit_fys": [2010, 2011]}).to_json(tmp_path / "c.json")
    assert (tmp_path / "c.json").read_text() == """\
{
  "coefficients": [
    0.30000000000000004,
    -1.0
  ],
  "intercept": null,
  "meta": {
    "fit_fys": [
      2010,
      2011
    ],
    "source": "hand"
  },
  "variables": [
    "stage",
    "nref"
  ]
}
"""


def test_manifest_text(tmp_path):
    (tmp_path / "in.txt").write_text("abc\n")
    fixed = mock.Mock(now=lambda tz: datetime(2020, 1, 2, 3, 4, 5, tzinfo=timezone.utc))
    with mock.patch("rcforecast.manifest.datetime", fixed):
        write_manifest(tmp_path / "m.json", "fit", {"z": 1.5, "out": tmp_path / "x",
                                                    "func": print, "fys": (2010,),
                                                    "corpus": tmp_path / "in.txt",
                                                    "journals": tmp_path / "no"}, {"cluster": 3})
    digest = hashlib.sha256(b"abc\n").hexdigest()
    assert (tmp_path / "m.json").read_text() == f"""\
{{
  "arguments": {{
    "corpus": "{tmp_path / 'in.txt'}",
    "fys": [
      2010
    ],
    "journals": "{tmp_path / 'no'}",
    "out": "{tmp_path / 'x'}",
    "z": 1.5
  }},
  "command": "fit",
  "inputs": {{
    "papers": "{digest}"
  }},
  "rng_seeds": {{
    "cluster": 3
  }},
  "timestamp_utc": "2020-01-02T03:04:05+00:00",
  "tool_version": "0.1.0"
}}
"""


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                        2.2250738585072014e-308, THIRD])
#: per column kind, the cells it holds and how they become a column
COLUMN_KINDS = {
    "int64": (st.integers(-2**63, 2**63 - 1), lambda cells: np.array(cells, dtype=np.int64)),
    "float64": (FLOATS, lambda cells: np.array(cells, dtype=np.float64)),
    "bool": (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    "object": (st.none() | st.booleans() | st.integers() | st.text(
        st.characters(min_codepoint=32, max_codepoint=126)), list),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=6))
    columns = {}
    for i, kind in enumerate(kinds):
        cells, column = COLUMN_KINDS[kind]
        columns[f"{kind}_{i}"] = column(draw(st.lists(cells, min_size=n, max_size=n)))
    return n, columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_column_rule_matches_the_cell_rule(table):
    n, columns = table
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "columns.tsv", Path(tmp) / "rows.tsv"
        write_tsv(got, columns)
        write_tsv_rows(want, list(columns), rows)
        text = got.read_text()
        assert text == want.read_text()
    assert text.count("\n") == n + 1 and text.startswith("\t".join(columns) + "\n")


def test_tables_read_back_as_written_on_a_1k_corpus(tmp_path):
    """``truth.tsv``, ``partition.tsv`` and a forecast table of a 1k corpus read
    back to the values they were written from."""
    res = generate(SynthConfig(rng_seed=1, n_communities=1000), tmp_path)
    assert load_truth(res.truth_path) == (res.paper_community, res.community_class,
                                          res.xg_truth)
    corpus = load_corpus(res.papers_path, res.ranks_path)
    external = dict(zip(corpus.external_ids.tolist(), range(-3, len(corpus.external_ids))))
    part = Partition.from_assignment(res.paper_community, external, model_year=2009,
                                     extended_through=2014, rc_count=1000, quality=THIRD)
    save_partition(part, tmp_path / "p.tsv", tmp_path / "p.json")
    assert_same_partition(load_partition(tmp_path / "p.tsv", tmp_path / "p.json"), part)
    panel = Panel(corpus, part)
    records = select_top_n(build_forecasts(panel, indicator_table(panel, 2011),
                                           CompositeModel.default()), None)
    assert {r.outcome for r in records} == {0, 1} and len(records) > 900
    write_forecast_tsv(tmp_path / "f.tsv", records)
    assert read_forecast_tsv(tmp_path / "f.tsv") == records


_KINDS = {"int": st.integers(-2**63, 2**63 - 1), "float": st.floats(allow_nan=False),
          "str": st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\t\n\r"))}


@st.composite
def _table(draw):
    kinds = draw(st.lists(st.sampled_from(["int", "int | None", "float", "float | None", "str"]),
                          min_size=1, max_size=4))
    n = draw(st.integers(0, 5))
    columns = {}
    for j, kind in enumerate(kinds):
        cell = _KINDS[kind.removesuffix(" | None")]
        cells = st.one_of(st.none(), cell) if kind.endswith("None") else cell
        columns[f"c{j}"] = draw(st.lists(cells, min_size=n, max_size=n))
    return dict(zip(columns, kinds)), columns


@settings(max_examples=300, deadline=None)
@given(table=_table())
def test_read_tsv_reads_what_write_tsv_writes(table):
    kinds, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        write_tsv(Path(tmp) / "t.tsv", columns)
        got = read_tsv(Path(tmp) / "t.tsv", "t", kinds)
    assert list(got) == list(columns)
    for name, kind in kinds.items():
        values = got[name].tolist() if kind in ("int", "float") else got[name]
        assert values == columns[name]
        assert list(map(type, values)) == list(map(type, columns[name]))
