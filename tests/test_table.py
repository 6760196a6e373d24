"""The array-backed indicator table, forecasts and composite fit against the
row-based code they replaced.

The oracles in ``oracles.py`` build one dataclass per (RC, fy), a share dict
per RC for each outcome and a scalar score per row. Standardized values,
forecast records and fitted composites must equal theirs exactly, and so must
the warnings they give and the errors they raise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.cluster import Partition
from rcforecast.corpus import load_corpus
from rcforecast.forecast import CompositeModel, build_forecasts
from rcforecast.indicators import INDICATOR_NAMES, Panel
from rcforecast.pipeline import fit_composite, indicator_table
from rcforecast.synth import SynthConfig, generate

import oracles
from conftest import paper
from test_panel import small_corpora

MODELS = [
    CompositeModel.default(),
    CompositeModel(INDICATOR_NAMES, tuple(np.random.default_rng(7).normal(size=10).tolist())),
    CompositeModel(("nref", "rvit", "stage"), (1e-3, 0.7, -2.5)),
    CompositeModel((), ()),
]


def _run(fn):
    """(what fn() returns or the type of the error it raises, its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except (ValueError, KeyError, RuntimeError) as e:
            result = type(e)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_matches_oracle(panel, fys, min_papers=0, z_threshold=4.0):
    tables, row_tables = {}, {}
    for fy in fys:
        rows = oracles.raw_rows(panel.columns(fy), fy)
        table, table_warnings = _run(lambda: indicator_table(panel, fy))
        std, std_warnings = _run(lambda: oracles.transform_and_standardize(rows))
        assert table_warnings == std_warnings
        if table is ValueError:
            assert std is ValueError and len(rows) < 2
            continue
        assert oracles.raw_rows(table.raw, fy) == rows
        assert oracles.std_rows(table) == std
        for model in MODELS:
            assert _run(lambda: build_forecasts(panel, table, model, min_papers)) == _run(
                lambda: oracles.build_forecasts(panel, rows, std, model, min_papers))
        tables[fy], row_tables[fy] = table, (rows, std)
    assert _run(lambda: fit_composite(panel, tables, min_papers, z_threshold)) == _run(
        lambda: oracles.fit_composite(panel, row_tables, min_papers, z_threshold))


def test_table_matches_oracle_on_synthetic_corpora(tmp_path):
    for seed in (201, 202):
        res = generate(SynthConfig(rng_seed=seed, n_communities=150, noise_sigma=0.25),
                       tmp_path / f"synth{seed}")
        corpus = load_corpus(res.papers_path, res.ranks_path)
        assignment = {pid: rc for pid, rc in res.paper_community.items() if pid % 7}
        # fys 2011 and later have no outcome: the model ends at 2013
        partition = Partition(assignment, model_year=2009, rc_count=150, extended_through=2013)
        panel = Panel(corpus, partition)
        for min_papers in (0, 3):
            assert_matches_oracle(panel, range(2005, 2012), min_papers)


def test_table_matches_oracle_with_constant_columns_and_no_rvit(corpus_factory):
    # no journals and no references: ntopj, ctopj, eigen and nref are constant
    # (with a warning each), rvit is undefined for every RC, and the fit
    # stops at the all-zero rvit column on both sides
    sizes = np.random.default_rng(0).integers(0, 9, size=(16, 8)).tolist()
    papers, assignment = [], {}
    for rc, row in enumerate(sizes):
        for year, size in zip(range(2004, 2012), row):
            for _ in range(size):
                pid = len(papers)
                papers.append(paper(pid, year, doc_type="review" if pid % 5 == 0 else "article"))
                assignment[pid] = rc
    corpus = corpus_factory(papers)
    # fys 2009 and later have no outcome: the model ends at 2011
    panel = Panel(corpus, Partition(assignment, model_year=2007, extended_through=2011))
    with pytest.warns(UserWarning, match="ntopj is constant"):
        table = indicator_table(panel, 2008)
    assert np.isnan(table.raw["rvit"]).all()
    for min_papers in (0, 2, 5):
        assert_matches_oracle(panel, range(2005, 2012), min_papers)


@settings(max_examples=150, deadline=None)
@given(small_corpora(), st.integers(1998, 2010), st.sampled_from([1, 3, 10]),
       st.integers(0, 2))
def test_table_matches_oracle_on_small_corpora(case, fy, window, min_papers):
    corpus, partition = case
    panel = Panel(corpus, partition, window=window)
    assert_matches_oracle(panel, [fy, fy + 1, fy + 2], min_papers, z_threshold=0.5)
