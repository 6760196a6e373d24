import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast import forecast
from rcforecast.cluster import Partition
from rcforecast.forecast import (
    CompositeModel,
    ForecastRecord,
    build_forecasts,
    composite_score,
    growth_rate,
    label_exceptional,
    oracle_n,
    read_forecast_tsv,
    select_top_n,
    write_forecast_tsv,
)
from rcforecast.indicators import Panel
from rcforecast.pipeline import indicator_table

from conftest import paper

# the ten published top-forecast rows: (cvit_s, delta_rvit_s, ntopj_s, score);
# stage_s is 3.47 throughout
TOP10_ROWS = [
    (5.03, 0.54, 3.12, 3.80),
    (4.95, 0.50, 1.76, 3.60),
    (4.32, -0.05, 2.76, 3.36),
    (4.45, -0.24, 2.32, 3.36),
    (4.50, 0.77, 0.97, 3.33),
    (3.98, 1.65, 2.32, 3.32),
    (3.55, 0.73, 4.62, 3.29),
    (4.13, 0.24, 2.32, 3.25),
    (3.31, 1.47, 4.62, 3.25),
    (4.43, -0.06, 0.97, 3.21),
]


def test_growth_rate_identity():
    assert growth_rate({2010: 0.01, 2013: 0.01}, 2010, 2013) == 1.0


def test_growth_rate_hand_arithmetic():
    gr = growth_rate({2011: 0.010, 2014: 0.014}, 2011, 2014)
    assert gr == pytest.approx(1.4 ** (1.0 / 3.0), abs=1e-15)
    # independent check: cubing recovers the share ratio
    assert gr ** 3 == pytest.approx(1.4, abs=1e-12)
    assert label_exceptional(gr) == 1


def test_growth_rate_below_threshold_case():
    # measuring from the peak delays the signal: 25.9% over three years
    # annualizes to about 7.98%, under the 8% bar
    gr = growth_rate({2011: 0.001, 2014: 0.001259}, 2011, 2014)
    assert gr == pytest.approx(1.0798, abs=5e-5)
    assert label_exceptional(gr) == 0


def test_growth_rate_errors():
    with pytest.raises(ValueError):
        growth_rate({2010: 0.0, 2013: 0.01}, 2010, 2013)
    with pytest.raises(ValueError):
        growth_rate({2010: 0.01}, 2010, 2009)
    with pytest.raises(ValueError):
        growth_rate({2010: 0.01}, 2010, 2013)


def test_label_threshold_is_strict():
    assert label_exceptional(1.0798) == 0
    assert label_exceptional(1.08) == 0
    assert label_exceptional(1.081) == 1
    assert label_exceptional(0.0) == 0
    with pytest.raises(ValueError):
        label_exceptional(-0.1)


@pytest.mark.parametrize("cvit,drvit,ntopj,expected", TOP10_ROWS)
def test_composite_score_reproduces_published_rows(cvit, drvit, ntopj, expected):
    model = CompositeModel.default()
    score = composite_score(
        {"stage": 3.47, "cvit": cvit, "delta_rvit": drvit, "ntopj": ntopj}, model)
    assert score == pytest.approx(expected, abs=0.005)


def test_composite_score_zero_inputs():
    assert composite_score({"stage": 0.0, "cvit": 0.0, "delta_rvit": 0.0, "ntopj": 0.0},
                           CompositeModel.default()) == 0.0


def test_composite_score_missing_variable():
    with pytest.raises(KeyError, match="ntopj"):
        composite_score({"stage": 1.0, "cvit": 1.0, "delta_rvit": 0.0},
                        CompositeModel.default())


def _record(rc, score, outcome=None, fy=2011, papers=30, predicted=0):
    return ForecastRecord(rc_id=rc, fy=fy, ty=fy + 3, ry=1, score=score,
                          predicted=predicted, papers_in_fy=papers, outcome=outcome)


def test_oracle_n_ceiling_rule():
    records = [_record(i, float(i), outcome=1 if i < 43 else 0) for i in range(200)]
    assert oracle_n(records) == 65          # ceil(1.5 * 43)
    records = [_record(i, 0.0, outcome=1 if i < 27 else 0) for i in range(100)]
    assert oracle_n(records) == 41          # ceil(1.5 * 27)
    records = [_record(i, 0.0, outcome=1 if i < 12 else 0) for i in range(50)]
    assert oracle_n(records) == 18          # ceil(1.5 * 12)


def test_select_top_n_flags_and_ties():
    records = [_record(3, 1.0), _record(1, 2.0), _record(2, 1.0)]
    out = select_top_n(records, 2)
    assert [r.rc_id for r in out] == [1, 2, 3]   # tie at 1.0 -> smaller rc first
    assert [r.predicted for r in out] == [1, 1, 0]
    assert sum(r.predicted for r in out) == 2
    all_selected = select_top_n(records, 3)
    assert all(r.predicted for r in all_selected)
    with pytest.raises(ValueError):
        select_top_n(records, 4)


def test_select_top_n_oracle_sizing():
    # two events of four: n = ceil(1.5 * 2) = 3, flagged in rank order
    records = [_record(1, 0.5, outcome=1), _record(2, 2.0, outcome=0),
               _record(3, 1.0, outcome=1), _record(4, 1.0, outcome=0)]
    out = select_top_n(records, None)
    assert [(r.rc_id, r.predicted) for r in out] == [(2, 1), (3, 1), (4, 1), (1, 0)]
    # every record an event: ceil(1.5 * 2) = 3 is capped at the two records
    assert [r.predicted for r in select_top_n(records[:1] + records[2:3], None)] == [1, 1]
    assert select_top_n([], None) == []
    assert [r.predicted for r in select_top_n(records, 0)] == [0, 0, 0, 0]
    with pytest.raises(ValueError, match=r"oracle-n needs outcomes; missing target years \[2014\]"):
        select_top_n(records + [_record(5, 0.0)], None)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5000, 5000), min_size=1, max_size=30, unique=True),
       st.integers(-10_000, 10_000))
def test_selection_invariant_under_constant_shift(milli_scores, milli_shift):
    # score gaps stay far above float epsilon so ties cannot appear under shift
    scores = [s / 1000.0 for s in milli_scores]
    shift = milli_shift / 1000.0
    records = [_record(i, s) for i, s in enumerate(scores)]
    shifted = [_record(i, s + shift) for i, s in enumerate(scores)]
    n = max(1, len(scores) // 2)
    sel_a = {r.rc_id for r in select_top_n(records, n) if r.predicted}
    sel_b = {r.rc_id for r in select_top_n(shifted, n) if r.predicted}
    assert sel_a == sel_b


def test_monotonicity_in_positive_coefficient_input():
    model = CompositeModel.default()
    base = {"stage": 1.0, "cvit": 0.5, "delta_rvit": 0.0, "ntopj": 0.2}
    bumped = dict(base, cvit=0.9)
    assert composite_score(bumped, model) > composite_score(base, model)


def _pipeline_rows(corpus_factory):
    papers = []
    # rc 0: steady old community; rc 1: fresh riser
    for pid, year in enumerate([2008, 2009, 2010, 2011, 2012, 2013, 2014], start=1):
        papers.append(paper(pid, year, refs=[pid - 1] if pid > 1 else []))
    for pid, year in enumerate([2010, 2011, 2011, 2011], start=50):
        papers.append(paper(pid, year, refs=[50] if pid > 50 else []))
    corpus = corpus_factory(papers)
    assignment = {pid: 0 for pid in range(1, 8)} | {pid: 1 for pid in range(50, 54)}
    partition = Partition.from_assignment(assignment, model_year=2010, rc_count=2,
                                          extended_through=2014)
    return corpus, partition


def test_build_forecasts_attaches_outcomes_and_ry(corpus_factory):
    corpus, partition = _pipeline_rows(corpus_factory)
    panel = Panel(corpus, partition)
    records = build_forecasts(panel, indicator_table(panel, 2011), CompositeModel.default())
    assert {r.rc_id for r in records} == {0, 1}
    for r in records:
        assert r.ty == 2014
        assert r.ry == 1
        assert r.outcome in (0, 1)
        assert r.growth_rate is not None


def test_build_forecasts_no_outcome_when_target_year_missing(corpus_factory):
    corpus, partition = _pipeline_rows(corpus_factory)
    panel = Panel(corpus, partition)
    records = build_forecasts(panel, indicator_table(panel, 2014), CompositeModel.default())
    assert all(r.outcome is None and r.growth_rate is None for r in records)
    assert all(r.ry == 4 for r in records)


def test_empty_target_year_is_refused(corpus_factory):
    """A target year inside the corpus span without papers has no shares, so
    its outcomes are refused, not labelled."""
    papers = [paper(pid, year) for pid, year in enumerate([2008, 2009, 2010, 2011, 2012, 2014],
                                                          start=1)]
    papers += [paper(pid, year) for pid, year in enumerate([2010, 2011, 2011, 2011], start=50)]
    assignment = {p["paper_id"]: int(p["paper_id"] >= 50) for p in papers}
    panel = Panel(corpus_factory(papers), Partition.from_assignment(
        assignment, model_year=2010, rc_count=2, extended_through=2014))
    with pytest.raises(ValueError, match="no share for target year 2013"):
        build_forecasts(panel, indicator_table(panel, 2010), CompositeModel.default())


def test_min_papers_filter(corpus_factory):
    corpus, partition = _pipeline_rows(corpus_factory)
    panel = Panel(corpus, partition)
    records = build_forecasts(panel, indicator_table(panel, 2011), CompositeModel.default(),
                              min_papers=2)
    assert {r.rc_id for r in records} == {1}  # rc 0 has one paper in 2011


def test_forecast_tsv_round_trip(tmp_path):
    records = [_record(2, 1.5, outcome=1), _record(1, 2.5), _record(3, 0.5, outcome=0)]
    path = tmp_path / "f.tsv"
    write_forecast_tsv(path, records)
    loaded = read_forecast_tsv(path)
    assert [r.rc_id for r in loaded] == [1, 2, 3]  # sorted by score desc
    assert loaded[1].outcome == 1 and loaded[0].outcome is None


def test_forecast_tsv_reads_fields_by_header_name(tmp_path, monkeypatch):
    # the reader must follow the one header list, whatever its order
    monkeypatch.setattr(forecast, "_TSV_HEADER", list(reversed(forecast._TSV_HEADER)))
    records = [ForecastRecord(rc_id=4, fy=2010, ty=2013, ry=1, score=2.5, predicted=1,
                              papers_in_fy=30, outcome=1, growth_rate=1.25),
               ForecastRecord(rc_id=9, fy=2010, ty=2013, ry=1, score=-0.5, predicted=0,
                              papers_in_fy=21)]
    path = tmp_path / "f.tsv"
    write_forecast_tsv(path, records)
    assert path.read_text().startswith("growth_rate\toutcome\tpredicted\t")
    assert read_forecast_tsv(path) == records


_FORECAST_COLUMNS = ("rc_id, fy, ty, ry, papers_in_fy, score, predicted, outcome "
                     "and growth_rate")


@pytest.mark.parametrize("row", [
    pytest.param("1_000\t2011\t2014\t2\t30\t0.5\t0\t\t", id="rc-underscore"),
    pytest.param("7\t+2011\t2014\t2\t30\t0.5\t0\t\t", id="fy-plus"),
    pytest.param("7\t2011\t\u0662\u0660\u0661\u0664\t2\t30\t0.5\t0\t\t",
                 id="ty-arabic-indic-digits"),
    pytest.param("7\t2011\t2014\t2\t30\t1_0.5\t0\t\t", id="score-underscore"),
    pytest.param("7\t2011\t2014\t2\t30\t 0.5\t0\t\t", id="score-space"),
    pytest.param("7\t2011\t2014\t2\t30\t0.5\t0\t1\t+1.5", id="growth-plus"),
    pytest.param("7\t2011", id="two-cells"),
])
def test_bad_forecast_row_names_its_line(tmp_path, row):
    path = tmp_path / "f.tsv"
    write_forecast_tsv(path, [_record(1, 2.5, outcome=1)])
    path.write_text(path.read_text() + row + "\n" + path.read_text().splitlines()[1] + "\n")
    with pytest.raises(ValueError) as raised:
        read_forecast_tsv(path)
    expected = f"forecast line 3: expected {_FORECAST_COLUMNS}, got {row.strip()!r}"
    assert str(raised.value) == expected


def test_forecast_ints_must_fit_int64(tmp_path):
    path = tmp_path / "f.tsv"
    write_forecast_tsv(path, [_record(2 ** 63, 2.5)])
    with pytest.raises(ValueError, match="forecast line 2: rc_id, fy, ty, ry, papers_in_fy, "
                                         "predicted and outcome must fit int64, got '9223"):
        read_forecast_tsv(path)


def test_composite_model_json_round_trip(tmp_path):
    model = CompositeModel(("stage", "cvit"), (0.3, 0.5), intercept=-2.0,
                           meta={"n_obs": 10})
    path = tmp_path / "m.json"
    model.to_json(path)
    loaded = CompositeModel.from_json(path)
    assert loaded == model
