import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    partition = Partition(assignment, model_year=2010, rc_count=2, extended_through=2014)
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


def test_composite_model_json_round_trip(tmp_path):
    model = CompositeModel(("stage", "cvit"), (0.3, 0.5), intercept=-2.0,
                           meta={"n_obs": 10})
    path = tmp_path / "m.json"
    model.to_json(path)
    loaded = CompositeModel.from_json(path)
    assert loaded == model
