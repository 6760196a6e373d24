"""The RC x year panel against the per-paper engine it replaced.

The engine, its share table, the growth labels it fed and the lifecycle
table live on in ``oracles.py``. Integer fields, peak years and the pattern of
undefined rvit must match exactly; floats within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast import pipeline
from rcforecast.cluster import Partition
from rcforecast.corpus import DOC_TYPES, Corpus, CorpusError, JournalRank, PaperRecord, \
    load_corpus
from rcforecast.evaluate import lifecycle_report
from rcforecast.forecast import CompositeModel, build_forecasts
from rcforecast.indicators import INDICATOR_NAMES, IndicatorTable, Panel
from rcforecast.pipeline import PipelineConfig
from rcforecast.synth import SynthConfig, generate

import oracles
from conftest import paper

EXACT = ("rc_id", "fy", "pk", "papers_in_fy", "ntopj", "ctopj", "eigen", "nart", "nrev", "nref")
CLOSE = ("stage", "cvit", "rvit", "delta_rvit")


def _outcome(fn):
    """What ``fn()`` returns, or the type of the error it raises."""
    try:
        return fn()
    except (ValueError, CorpusError) as e:
        return type(e)


def assert_matches_engine(corpus, partition, fy, window=10, min_papers=0):
    panel = Panel(corpus, partition, window=window)
    columns = panel.columns(fy)
    raw = oracles.raw_rows(columns, fy)
    want = oracles.IndicatorEngine(corpus, partition, window=window).rows(fy)
    assert len(raw) == len(want)
    for got, ref in zip(raw, want):
        assert [getattr(got, f) for f in EXACT] == [getattr(ref, f) for f in EXACT]
        assert (got.rvit is None) == (ref.rvit is None)
        for f in CLOSE:
            if getattr(ref, f) is not None:
                assert getattr(got, f) == pytest.approx(getattr(ref, f), rel=0, abs=1e-12), f

    zeros = IndicatorTable(fy, columns, {n: np.zeros(len(raw)) for n in INDICATOR_NAMES})
    labels = _outcome(lambda: [(r.rc_id, r.growth_rate, r.outcome) for r in build_forecasts(
        panel, zeros, CompositeModel.default())])
    assert labels == _outcome(lambda: oracles.growth_labels(corpus, partition, raw))

    assert _outcome(lambda: lifecycle_report(panel, fy, min_papers)) == _outcome(
        lambda: oracles.lifecycle_report(partition, corpus, fy, min_papers, window))


@pytest.mark.parametrize("seed", [201, 202])
def test_panel_matches_engine_on_synthetic_corpora(tmp_path, seed):
    res = generate(SynthConfig(rng_seed=seed, n_communities=150, noise_sigma=0.25),
                   tmp_path / "synth")
    corpus = load_corpus(res.papers_path, res.ranks_path)
    # every seventh paper unassigned, as after an extension that leaves some out
    assignment = {pid: rc for pid, rc in res.paper_community.items() if pid % 7}
    partition = Partition(assignment, model_year=2009, rc_count=150, extended_through=2013)
    for fy in (corpus.meta.first_year - 1, 2006, 2008, 2010, 2011, corpus.meta.last_year + 1):
        assert_matches_engine(corpus, partition, fy, min_papers=3)


RANKS = st.sampled_from([None, 1, 250, 251, 400])


@st.composite
def small_corpora(draw):
    """Up to 25 papers over 2000-2008 (so some years are empty), citing each
    other in any year order and citing external items (ids 100-104)."""
    n = draw(st.integers(1, 25))
    papers = {}
    for pid in range(n):
        refs = draw(st.lists(st.integers(0, n - 1) | st.integers(100, 104),
                             unique=True, max_size=6))
        papers[pid] = PaperRecord(
            pid, draw(st.integers(2000, 2008)), draw(st.sampled_from(DOC_TYPES)),
            draw(st.sampled_from([None, 1, 2, 3])), tuple(r for r in refs if r != pid), ())
    ranks = {j: JournalRank(j, draw(RANKS), draw(RANKS)) for j in (1, 2, 3)}
    rcs = draw(st.lists(st.sampled_from([None, 0, 1, 2, 5]), min_size=n, max_size=n))
    assignment = {pid: rc for pid, rc in zip(papers, rcs) if rc is not None}
    model_year = draw(st.integers(2000, 2008))
    partition = Partition(assignment, model_year=model_year,
                          extended_through=draw(st.integers(model_year, 2010)))
    return Corpus(papers, ranks), partition


@settings(max_examples=300, deadline=None)
@given(small_corpora(), st.integers(1998, 2010), st.sampled_from([1, 3, 10]),
       st.integers(0, 2))
def test_panel_matches_engine_on_small_corpora(case, fy, window, min_papers):
    corpus, partition = case
    assert_matches_engine(corpus, partition, fy, window, min_papers)


def test_unknown_paper_in_partition_rejected(corpus_factory):
    corpus = corpus_factory([paper(1, 2010)])
    with pytest.raises(CorpusError, match="unknown paper 2"):
        Panel(corpus, {1: 0, 2: 0})


def test_run_pipeline_builds_one_panel_and_one_table_per_fy(tmp_path, monkeypatch):
    res = generate(SynthConfig(rng_seed=13, n_communities=300), tmp_path / "synth")
    tables, panels = [], []
    table, init = pipeline.indicator_table, Panel.__init__

    def counted_table(panel, fy):
        tables.append(fy)
        return table(panel, fy)

    def counted_init(self, *args, **kwargs):
        panels.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "indicator_table", counted_table)
    monkeypatch.setattr(Panel, "__init__", counted_init)
    pipeline.run_pipeline(PipelineConfig(
        papers=str(res.papers_path), journals=str(res.ranks_path),
        out_dir=str(tmp_path / "out"), model_year=2009, extend_through=2014,
        resolution=0.02, seed=0, fit_fys=[2010, 2011], forecast_fys=[2010, 2011],
        min_papers=5, lifecycle=True))
    assert sorted(tables) == [2010, 2011]
    assert len(panels) == 1
