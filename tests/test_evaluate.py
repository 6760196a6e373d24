import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rcforecast.cluster import Partition
from rcforecast.evaluate import (
    TaxonomyMap,
    contingency,
    evaluate_slices,
    lifecycle_report,
    write_evaluation,
    write_lifecycle_tsv,
)
from rcforecast.forecast import ForecastRecord
from rcforecast.indicators import Panel

from conftest import paper


def _rec(rc, predicted, outcome, fy=2011, ry=1, papers=30, score=0.0):
    return ForecastRecord(rc_id=rc, fy=fy, ty=fy + 3, ry=ry, score=score,
                          predicted=predicted, papers_in_fy=papers, outcome=outcome)


def _bulk(tp, fp, fn, tn, **kw):
    rc = iter(range(10_000))
    records = []
    records += [_rec(next(rc), 1, 1, **kw) for _ in range(tp)]
    records += [_rec(next(rc), 1, 0, **kw) for _ in range(fp)]
    records += [_rec(next(rc), 0, 1, **kw) for _ in range(fn)]
    records += [_rec(next(rc), 0, 0, **kw) for _ in range(tn)]
    return records


def test_benchmark_contingency_example():
    # false positive rate 67% and false negative rate 50% -> CSI 25%
    report = contingency(_bulk(1, 2, 1, 0))
    assert report.precision == pytest.approx(1 / 3)
    assert report.recall == pytest.approx(1 / 2)
    assert report.csi == 0.25
    assert report.meets_csi_threshold


def test_published_discipline_rows_reconstruct():
    # top Computer Vision/Language row: 43 events, N = 65, 33 hits
    report = contingency(_bulk(33, 32, 10, 400))
    assert round(100 * report.precision, 1) == 50.8
    assert round(100 * report.recall, 1) == 76.7
    # Networks row: 27 events, N = 41, 21 hits
    report = contingency(_bulk(21, 20, 6, 300))
    assert round(100 * report.precision, 1) == 51.2
    assert round(100 * report.recall, 1) == 77.8
    # Cryptography row: 12 events, N = 18, 8 hits
    report = contingency(_bulk(8, 10, 4, 130))
    assert round(100 * report.precision, 1) == 44.4
    assert round(100 * report.recall, 1) == 66.7


def test_perfect_forecast_csi_one():
    report = contingency(_bulk(5, 0, 0, 10))
    assert report.csi == 1.0


def test_missing_outcome_errors_with_rc_ids():
    records = [_rec(1, 1, 1), _rec(7, 0, None), _rec(9, 0, None)]
    with pytest.raises(ValueError) as exc:
        contingency(records)
    assert "7" in str(exc.value) and "9" in str(exc.value)


def test_degenerate_denominators_flagged():
    report = contingency(_bulk(0, 0, 0, 4))
    assert report.precision == report.recall == report.csi == 0.0
    assert set(report.degenerate) == {"precision", "recall", "csi"}
    assert not report.meets_csi_threshold


def test_consistency_between_counts_and_selection():
    records = _bulk(3, 2, 1, 10)
    report = contingency(records)
    assert report.n_selected == sum(r.predicted for r in records)
    assert report.n_xg == sum(r.outcome for r in records)
    assert report.tp + report.fp == report.n_selected
    assert report.tp + report.fn == report.n_xg


def test_recall_precision_identity_under_oracle_selection():
    # recall == precision * (tp+fp) / (tp+fn) identically; holds for every
    # oracle-sized slice as a consistency check
    records = [
        _rec(i, 0, 1 if i % 7 == 0 else 0, score=float((i * 13) % 29))
        for i in range(84)
    ]
    reports = evaluate_slices(records, min_papers=0, mode="reselect", by=("fy",))
    for rep in reports:
        if rep.n_xg and rep.n_selected:
            assert rep.recall == pytest.approx(
                rep.precision * rep.n_selected / rep.n_xg, abs=1e-12)


def test_single_slice_equals_overall():
    records = _bulk(4, 3, 2, 20)
    reports = evaluate_slices(records, min_papers=0, mode="inherit", by=())
    assert len(reports) == 1
    overall = reports[0]
    direct = contingency(records, "overall", mode="inherit")
    assert (overall.tp, overall.fp, overall.fn, overall.tn) == \
        (direct.tp, direct.fp, direct.fn, direct.tn)


def test_min_papers_excludes_small_rcs():
    records = _bulk(2, 1, 1, 5) + [_rec(999, 1, 1, papers=19)]
    reports = evaluate_slices(records, min_papers=20, mode="inherit", by=())
    assert reports[0].n_records == 9  # the 19-paper record is gone everywhere


def test_reselect_mode_uses_oracle_n():
    # scores rank the two true events on top; oracle n = ceil(1.5*2) = 3
    records = [
        _rec(1, 0, 1, score=5.0), _rec(2, 0, 1, score=4.0), _rec(3, 0, 0, score=3.0),
        _rec(4, 0, 0, score=2.0), _rec(5, 0, 0, score=1.0),
    ]
    reports = evaluate_slices(records, min_papers=0, mode="reselect", by=())
    overall = reports[0]
    assert overall.n_selected == 3
    assert overall.tp == 2 and overall.fp == 1 and overall.fn == 0
    assert overall.csi == pytest.approx(2 / 3)


def test_actionable_vs_circumstantial_split():
    records = (_bulk(1, 1, 0, 3, ry=2) + _bulk(0, 2, 1, 3, ry=-1)
               + _bulk(1, 0, 0, 2, ry=0))
    reports = {r.slice: r for r in
               evaluate_slices(records, min_papers=0, mode="inherit",
                               by=("actionable",))}
    act = reports["actionable ry>0"]
    circ = reports["circumstantial ry<=0"]
    assert act.n_records == 5
    assert circ.n_records == 9
    assert act.n_records + circ.n_records == reports["overall"].n_records


def test_inherit_mode_discipline_slices_sum_to_field():
    taxonomy = TaxonomyMap({i: (i % 3, 0) for i in range(60)})
    records = [_rec(i, 1 if i % 4 == 0 else 0, 1 if i % 5 == 0 else 0)
               for i in range(60)]
    reports = evaluate_slices(records, taxonomy=taxonomy, min_papers=0,
                              mode="inherit", by=("field", "discipline"))
    by_slice = {r.slice: r for r in reports}
    field = by_slice["field=0"]
    discs = [by_slice[f"discipline={d}"] for d in (0, 1, 2)]
    for cell in ("tp", "fp", "fn", "tn"):
        assert getattr(field, cell) == sum(getattr(d, cell) for d in discs)


def test_empty_slice_marked_degenerate():
    records = _bulk(1, 1, 1, 1, papers=5)
    reports = evaluate_slices(records, min_papers=20, mode="inherit", by=())
    assert reports[0].degenerate == ("empty",)


def test_unknown_slice_names_are_rejected():
    with pytest.raises(ValueError, match="unknown slices 'bogus', 'FY'; choose from fy, ry"):
        evaluate_slices(_bulk(1, 1, 1, 1), by=("fy", "bogus", "FY"))


def test_taxonomy_round_trip_and_common_papers(tmp_path):
    tax = TaxonomyMap({1: (9, 1), 2: (27, 1), 3: (5, 2)})
    path = tmp_path / "tax.tsv"
    tax.save(path)
    loaded = TaxonomyMap.load(path)
    assert loaded.mapping == tax.mapping
    assert loaded.method == "direct"

    reference = Partition.from_assignment({10: 1, 11: 1, 12: 2, 13: 3}, model_year=2010,
                                          rc_count=3)
    newer = Partition.from_assignment({10: 7, 11: 7, 12: 7, 13: 8}, model_year=2012,
                                      rc_count=2)
    derived = TaxonomyMap.from_common_papers(newer, reference, tax)
    assert derived.method == "common-paper matching"
    assert derived.mapping[7] == (9, 1)   # two common papers with reference rc 1
    assert derived.mapping[8] == (5, 2)


def test_common_paper_tie_goes_to_the_smaller_reference_rc():
    reference = Partition.from_assignment({1: 3, 2: 3, 3: 1, 4: 1, 5: 2, 6: 4})
    newer = Partition.from_assignment({1: 7, 2: 7, 3: 7, 4: 7, 5: 8, 6: 8, 9: 9})
    tax = TaxonomyMap({1: (5, 5), 3: (9, 9), 4: (6, 6)})
    derived = TaxonomyMap.from_common_papers(newer, reference, tax)
    # rc 7 ties reference rcs 1 and 3; rc 8 ties 2 (unmapped) and 4; rc 9 shares none
    assert derived.mapping == {7: (5, 5)}
    assert derived.mapping == oracles.taxonomy_from_common_papers(newer, reference,
                                                                  tax).mapping


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_common_paper_mapping_matches_dict_oracle(data):
    ids, rcs = st.integers(-5, 30), st.integers(-3, 6)
    newer = Partition.from_assignment(data.draw(st.dictionaries(ids, rcs)))
    reference = Partition.from_assignment(data.draw(st.dictionaries(ids, rcs)))
    tax = TaxonomyMap(data.draw(st.dictionaries(rcs, st.tuples(rcs, rcs))))
    got = TaxonomyMap.from_common_papers(newer, reference, tax)
    want = oracles.taxonomy_from_common_papers(newer, reference, tax)
    assert (got.mapping, got.method) == (want.mapping, want.method)


def _lifecycle_corpus(corpus_factory):
    papers = []
    pid = 0
    # against a flat background (rc 2), rc 0 peaks in share in 2010 then
    # declines while rc 1 keeps rising through 2012
    counts = {0: {2008: 2, 2009: 3, 2010: 6, 2011: 2, 2012: 2},
              1: {2010: 1, 2011: 3, 2012: 5},
              2: {y: 10 for y in range(2008, 2013)}}
    assignment = {}
    for rc, per_year in counts.items():
        for year, k in per_year.items():
            for _ in range(k):
                papers.append(paper(pid, year))
                assignment[pid] = rc
                pid += 1
    corpus = corpus_factory(papers)
    partition = Partition.from_assignment(assignment, model_year=2012, rc_count=3)
    return corpus, partition


def test_lifecycle_report_columns(corpus_factory):
    corpus, partition = _lifecycle_corpus(corpus_factory)
    rows = lifecycle_report(Panel(corpus, partition), fy=2011, min_papers=0)
    by_gap = {r.gap: r for r in rows}
    assert by_gap["0"].n_rc == 1          # rc 1 peaked in 2011
    assert by_gap["1"].n_rc == 1          # rc 0 peaked in 2010
    assert by_gap["3"].n_rc == 1          # background peaked in 2008
    assert by_gap["0"].stage == 1.0
    assert by_gap["5"].n_rc == 0 and by_gap["5"].pct_xg is None
    # fy+1 exists: new-peak column present
    assert by_gap["0"].n_new_peak == 1    # rc 1 rises again in 2012
    assert by_gap["1"].n_new_peak == 0
    # fy+3 outside the corpus: xg column omitted
    assert by_gap["0"].n_xg is None


def test_lifecycle_report_gap_zero_new_peak(corpus_factory):
    corpus, partition = _lifecycle_corpus(corpus_factory)
    rows = lifecycle_report(Panel(corpus, partition), fy=2010, min_papers=0)
    by_gap = {r.gap: r for r in rows}
    # rc 0 and rc 1 both peak at 2010 from the 2010 perspective
    assert by_gap["0"].n_rc == 2
    assert by_gap["0"].n_new_peak == 1  # rc 1 sets a new peak in 2011, rc 0 declines


def test_report_writers(tmp_path):
    from rcforecast.evaluate import LifecycleRow

    reports = [contingency(_bulk(1, 2, 1, 0))]
    write_evaluation(reports, tmp_path / "eval.json", tmp_path / "eval.tsv")
    text = (tmp_path / "eval.tsv").read_text()
    assert text.splitlines()[0].startswith("slice\t")
    assert "0.25" in text
    write_lifecycle_tsv(tmp_path / "lc.tsv", [
        LifecycleRow(gap="0", stage=1.0, n_rc=3, pct_rc=100.0, n_xg=1, pct_xg=33.3,
                     n_new_peak=None, pct_new_peak=None)])
    assert (tmp_path / "lc.tsv").read_text().splitlines()[0].startswith("gap\t")
