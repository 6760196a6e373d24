import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.cluster import Partition
from rcforecast.corpus import Corpus, PaperRecord
from rcforecast.indicators import INDICATOR_NAMES, Panel, write_indicator_tsv

import oracles
from conftest import paper
from oracles import RawIndicators, read_indicator_tsv


def _standardize_rows(rows):
    """Standardized rows of hand-built raw rows, through the library's table."""
    return oracles.std_rows(oracles.table_of(rows))


def _shares_panel(shares, total=2000):
    """A panel in which rc 0 holds ``shares`` (year -> share) of ``total``
    papers a year and rc 1 the rest; years not listed are empty."""
    papers, assignment = {}, {}
    for year, share in shares.items():
        k = round(share * total)
        for i in range(total):
            pid = len(papers)
            papers[pid] = PaperRecord(pid, year, "article", None, (), ())
            assignment[pid] = 0 if i < k else 1
    return Panel(Corpus.from_records(papers.values(), {}),
                 Partition.from_assignment(assignment))


def peak_year(shares, fy):
    """Peak year of rc 0 (row 0) in a panel holding ``shares``."""
    return int(_shares_panel(shares).peak_years(fy)[0])


def test_peak_year_unique_maximum():
    assert peak_year({2010: 0.001, 2011: 0.002, 2012: 0.0015}, 2012) == 2011


def test_peak_year_tie_takes_latest():
    # derived by enumerating both candidates: equal shares, rule picks 2012
    assert peak_year({2010: 0.002, 2012: 0.002}, 2012) == 2012


def test_peak_year_rising_series_ends_at_fy():
    shares = {y: 0.001 * (y - 2007) for y in range(2008, 2013)}
    assert peak_year(shares, 2012) == 2012
    assert peak_year(shares, 2010) == 2010  # perspective of an earlier fy


def test_peak_year_empty_rc_raises():
    with pytest.raises(ValueError):
        peak_year({2013: 0.1}, 2012)
    with pytest.raises(ValueError):
        peak_year({2010: 0.0, 2013: 0.1}, 2012)


class _Rows:
    """One RC's raw indicators at a time, read off a panel's rows."""

    def __init__(self, corpus, partition):
        self.corpus = corpus
        self.panel = Panel(corpus, partition)

    def raw(self, rc_id, fy):
        return next((r for r in oracles.raw_rows(self.panel.columns(fy), fy)
                     if r.rc_id == rc_id), None)


def _engine(corpus_factory, papers, assignment, journals=None):
    corpus = corpus_factory(papers, journals=journals)
    part = Partition.from_assignment(assignment, model_year=corpus.meta.last_year,
                                     rc_count=len(set(assignment.values())))
    return _Rows(corpus, part)


def test_cvit_endpoints(corpus_factory):
    # all RC papers in fy -> 1.0
    papers = [paper(i, 2015) for i in range(1, 6)] + [paper(99, 2005)]
    eng = _engine(corpus_factory, papers, {i: 0 for i in range(1, 6)} | {99: 1})
    row = eng.raw(0, 2015)
    assert row.cvit == pytest.approx(1.0, abs=0)
    # all RC papers at fy-10 -> 1/11
    papers = [paper(i, 2005) for i in range(1, 6)] + [paper(99, 2015)]
    eng = _engine(corpus_factory, papers, {i: 0 for i in range(1, 6)} | {99: 1})
    row = eng.raw(0, 2015)
    assert row.cvit == pytest.approx(1.0 / 11.0, abs=0)


def test_stage_gap_five(corpus_factory):
    # peak five years before fy -> stage 1/6 = 0.166...
    papers = [paper(i, 2010) for i in (1, 2, 3)] + [paper(4, 2015), paper(5, 2015)]
    assignment = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
    eng = _engine(corpus_factory, papers, assignment)
    row = eng.raw(0, 2015)
    assert row.pk == 2010
    assert row.stage == pytest.approx(1.0 / 6.0)
    assert f"{row.stage:.3f}" == "0.167"  # printed as 0.166.. truncated in tables


def test_rvit_and_reference_handling(corpus_factory):
    papers = [
        paper(1, 2010),
        paper(2, 2014),
        paper(3, 2015, refs=[1, 2, 999]),   # ages 5, 1; 999 unknown -> excluded
        paper(4, 2015, refs=[5]),           # ref "from the future": age clamps to 0
        paper(5, 2016),
    ]
    assignment = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1}
    eng = _engine(corpus_factory, papers, assignment)
    row = eng.raw(0, 2015)
    expected = (1.0 / 6 + 1.0 / 2 + 1.0) / 3
    assert row.rvit == pytest.approx(expected, abs=1e-15)
    assert row.nref == 4


def test_rvit_none_when_no_datable_references(corpus_factory):
    papers = [paper(1, 2015, refs=[999]), paper(2, 2015)]
    eng = _engine(corpus_factory, papers, {1: 0, 2: 1})
    assert eng.raw(0, 2015).rvit is None
    assert eng.raw(0, 2015).delta_rvit == 0.0


def test_delta_rvit_requires_three_history_years(corpus_factory):
    papers = [
        paper(1, 2013, refs=[0]), paper(0, 2012),
        paper(2, 2014, refs=[1]),
        paper(3, 2015, refs=[2]),
    ]
    eng = _engine(corpus_factory, papers, {0: 0, 1: 0, 2: 0, 3: 0})
    row = eng.raw(0, 2015)
    # history years 2013, 2014 have rvit (2 < 3) -> delta is 0
    assert row.delta_rvit == 0.0


def test_delta_rvit_z_score_and_bounds(corpus_factory):
    papers = [paper(0, 2009)]
    refs_by_year = {}
    # 2010..2014: each year one paper citing the 2009 paper (rvit varies by age)
    for i, y in enumerate(range(2010, 2015)):
        papers.append(paper(10 + i, y, refs=[0]))
    # fy 2015: paper citing itself-year neighbour -> very young references
    papers.append(paper(50, 2015))
    papers.append(paper(51, 2015, refs=[50]))
    corpus_assignment = {p["paper_id"]: 0 for p in papers}
    eng = _engine(corpus_factory, papers, corpus_assignment)
    row = eng.raw(0, 2015)
    history = [1.0 / (y - 2009 + 1) for y in range(2010, 2015)]
    expected = (1.0 - np.mean(history)) / np.std(history)
    assert row.delta_rvit == pytest.approx(min(expected, 5.0))
    assert -5.0 <= row.delta_rvit <= 5.0


def test_journal_counts(corpus_factory):
    journals = [(1, 10, 400), (2, 400, 10), (3, None, None)]
    papers = [
        paper(1, 2015, journal_id=1),                    # top citescore
        paper(2, 2015, journal_id=2),                    # top eigenfactor
        paper(3, 2015, journal_id=3, refs=[1, 2]),       # cites one top-citescore paper
        paper(4, 2015, doc_type="review", journal_id=1),
        paper(5, 2015, doc_type="other"),
    ]
    eng = _engine(corpus_factory, papers, {i: 0 for i in range(1, 6)}, journals=journals)
    row = eng.raw(0, 2015)
    assert row.ntopj == 2      # papers 1 and 4
    assert row.eigen == 1      # paper 2
    assert row.ctopj == 1      # reference to paper 1
    assert row.nart == 3       # papers 1, 2, 3 ("other" counts toward neither)
    assert row.nrev == 1
    assert row.papers_in_fy == 5
    assert row.nart + row.nrev <= row.papers_in_fy


def test_skip_record_when_rc_outside_window(corpus_factory):
    papers = [paper(1, 2000), paper(2, 2015)]
    eng = _engine(corpus_factory, papers, {1: 0, 2: 1})
    assert eng.raw(0, 2015) is None
    part = Partition.from_assignment({1: 0, 2: 1})
    assert _Rows(eng.corpus, part).raw(0, 2015) is None


def _raw(rc, fy=2015, **kw):
    base = dict(rc_id=rc, fy=fy, pk=fy, stage=1.0, cvit=0.5, rvit=0.5,
                delta_rvit=0.0, ntopj=0, ctopj=0, eigen=0, nart=1, nrev=0,
                nref=1, papers_in_fy=1)
    base.update(kw)
    return RawIndicators(**base)


def test_standardize_two_rows_hand_arithmetic():
    # raw stage {1.0, 0.5}: population mean 0.75, stdev 0.25 -> {+1, -1}
    rows = [_raw(1, stage=1.0), _raw(2, stage=0.5)]
    std = _standardize_rows(rows)
    assert std[0].stage_s == pytest.approx(1.0)
    assert std[1].stage_s == pytest.approx(-1.0)


def test_standardized_moments_zero_one():
    rng = np.random.default_rng(0)
    rows = [
        _raw(i, stage=1.0 / rng.integers(1, 6), cvit=rng.uniform(1 / 11, 1),
             rvit=rng.uniform(0.05, 1.0), delta_rvit=rng.uniform(-5, 5),
             ntopj=int(rng.integers(0, 40)), ctopj=int(rng.integers(0, 40)),
             eigen=int(rng.integers(0, 40)), nart=int(rng.integers(0, 40)),
             nrev=int(rng.integers(0, 10)), nref=int(rng.integers(0, 300)))
        for i in range(200)
    ]
    std = _standardize_rows(rows)
    for name in INDICATOR_NAMES:
        vals = np.array([s.value(name) for s in std])
        if name == "rvit":
            assert np.all(np.abs(vals) <= 3.0)
            continue  # clipping may perturb the moments
        assert abs(vals.mean()) < 1e-9
        assert abs(vals.std() - 1.0) < 1e-9


def test_constant_column_standardizes_to_zero_with_warning():
    rows = [_raw(1, ntopj=3), _raw(2, ntopj=3)]
    with pytest.warns(UserWarning, match="ntopj"):
        std = _standardize_rows(rows)
    assert all(s.ntopj_s == 0.0 for s in std)


def test_scale_invariance_of_log_count_columns():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 50, size=30)
    rows_a = [_raw(i, ntopj=int(c)) for i, c in enumerate(counts)]
    # multiply every (value+1) by 7: log turns scale into shift, which
    # standardization removes
    rows_b = [_raw(i, ntopj=int(7 * (c + 1) - 1)) for i, c in enumerate(counts)]
    std_a = _standardize_rows(rows_a)
    std_b = _standardize_rows(rows_b)
    for a, b in zip(std_a, std_b):
        assert a.ntopj_s == pytest.approx(b.ntopj_s, abs=1e-9)


def test_stage_standardized_monotone_in_gap():
    rows = [_raw(i, stage=1.0 / (gap + 1)) for i, gap in enumerate([0, 1, 2, 3, 5, 9])]
    std = _standardize_rows(rows)
    vals = [s.stage_s for s in std]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rvit_undefined_imputes_zero():
    rows = [_raw(1, rvit=0.3), _raw(2, rvit=0.7), _raw(3, rvit=None)]
    std = _standardize_rows(rows)
    assert std[2].rvit_s == 0.0
    assert std[0].rvit_s < 0 < std[1].rvit_s


def test_standardize_validations():
    with pytest.raises(ValueError):
        _standardize_rows([_raw(1)])
    with pytest.raises(ValueError):
        _standardize_rows([_raw(1, fy=2015), _raw(2, fy=2016)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(-20, 20)),
                min_size=3, max_size=40))
def test_bounds_hold_on_fuzzed_rows(vals):
    rows = [_raw(i, rvit=v, delta_rvit=max(-5.0, min(5.0, d)))
            for i, (v, d) in enumerate(vals)]
    std = _standardize_rows(rows)
    for s in std:
        assert -3.0 <= s.rvit_s <= 3.0
    for r in rows:
        assert -5.0 <= r.delta_rvit <= 5.0


def test_recompute_after_reload_is_bit_exact(tmp_path, corpus_factory):
    from rcforecast.corpus import load_corpus, save_corpus
    from rcforecast.cluster import load_partition, save_partition

    rng = np.random.default_rng(4)
    papers = []
    for pid in range(60):
        year = 2005 + int(rng.integers(0, 11))
        refs = sorted(set(int(r) for r in rng.integers(0, pid, size=min(pid, 3))))
        papers.append(paper(pid, year, refs=refs, journal_id=int(rng.integers(1, 4))))
    corpus = corpus_factory(papers, journals=[(1, 5, 5), (2, 300, 300), (3, None, 9)])
    assignment = {pid: pid % 4 for pid in range(60)}
    part = Partition.from_assignment(dict(assignment), model_year=2015, rc_count=4)

    rows1 = oracles.raw_rows(Panel(corpus, part).columns(2015), 2015)

    save_corpus(corpus, tmp_path / "c.jsonl", tmp_path / "r.csv")
    save_partition(part, tmp_path / "p.tsv", tmp_path / "p.json")
    corpus2 = load_corpus(tmp_path / "c.jsonl", tmp_path / "r.csv")
    part2 = load_partition(tmp_path / "p.tsv", tmp_path / "p.json")
    rows2 = oracles.raw_rows(Panel(corpus2, part2).columns(2015), 2015)
    assert rows1 == rows2


def test_indicator_tsv_round_trip(tmp_path):
    rows = [_raw(1, rvit=None), _raw(2, stage=0.5, ntopj=4)]
    table = oracles.table_of(rows)
    std = oracles.std_rows(table)
    path = tmp_path / "ind.tsv"
    write_indicator_tsv(path, table)
    raw2, std2 = read_indicator_tsv(path)
    assert raw2 == rows
    assert std2 == std
