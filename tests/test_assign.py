import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from rcforecast import assign
from rcforecast.assign import (
    assign_new_papers,
    best_columns,
    bm25_score_blocks,
    rc_documents,
)
from rcforecast.cluster import ClusterConfig, ClusterError, Partition, leiden
from rcforecast.citegraph import build_graph
from rcforecast.corpus import Corpus, PaperRecord, load_corpus, normalize_terms
from rcforecast.synth import SynthConfig, generate

import oracles
from conftest import paper


def _partition(assignment, model_year):
    return Partition(dict(assignment), model_year=model_year,
                     rc_count=len(set(assignment.values())))


class _Docs:
    """RC term bags scored through the sparse scorer: ``relatedness`` and
    ``best_rc`` answer what the per-query scorer answered for the same bags."""

    def __init__(self, doc_tf):
        self.rc_ids = sorted(doc_tf)
        self.vocab = {}
        rows = [{self._col(t): n for t, n in doc_tf[rc].items()} for rc in self.rc_ids]
        self.docs = self._matrix(rows)

    def _col(self, term):
        return self.vocab.setdefault(term, len(self.vocab))

    def _matrix(self, rows):
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = [c for r in rows for c in r]
        data = [n for r in rows for n in r.values()]
        return sparse.csr_array((np.array(data, np.int32), np.array(indices, np.int32),
                                 indptr), shape=(len(rows), 1000))    # room for every term

    def scores(self, query):
        q = self._matrix([{self._col(t): n for t, n in Counter(query).items()}])
        return np.vstack(list(bm25_score_blocks(self.docs, q)))

    def relatedness(self, query, rc_id):
        return float(self.scores(query)[0, self.rc_ids.index(rc_id)])

    def best_rc(self, query):
        i = best_columns(self.scores(query))[0]
        return None if i < 0 else self.rc_ids[i]


def test_bm25_closed_form_oracle():
    # N=2, query term with df=1, tf=1, doc length == average length:
    # idf = ln(1 + (2 - 1 + 0.5) / (1 + 0.5)) = ln 2, tf part = 1 -> score = ln 2
    stats = _Docs({1: {"alpha": 1}, 2: {"beta": 1}})
    score = stats.relatedness(["alpha"], 1)
    assert score == pytest.approx(math.log(2.0), abs=1e-12)
    assert stats.relatedness(["alpha"], 2) == 0.0


def test_bm25_disjoint_query_scores_zero():
    stats = _Docs({1: {"alpha": 3, "beta": 1}, 2: {"gamma": 2}})
    assert stats.relatedness(["delta", "epsilon"], 1) == 0.0
    assert stats.best_rc(["delta"]) is None


def test_bm25_identical_documents_score_equally():
    doc = {"alpha": 2, "beta": 1}
    stats = _Docs({1: dict(doc), 2: dict(doc)})
    for query in (["alpha"], ["alpha", "beta"], ["beta", "beta"]):
        assert stats.relatedness(query, 1) == pytest.approx(
            stats.relatedness(query, 2))
    # equal scores tie toward the smaller rc id
    assert stats.best_rc(["alpha"]) == 1


def test_assign_by_reference_plurality(corpus_factory):
    papers = [paper(i, 2010) for i in range(1, 5)] + [paper(5, 2010)]
    papers.append(paper(10, 2011, refs=[1, 2, 3, 5]))
    corpus = corpus_factory(papers)
    part = _partition({1: 5, 2: 5, 3: 5, 5: 9}, model_year=2010)
    updated, report = assign_new_papers(part, corpus, 2011)
    assert updated.assignment[10] == 5
    assert report.by_references == 1
    assert part.assignment == {1: 5, 2: 5, 3: 5, 5: 9}  # input untouched


def test_assign_tie_breaks_to_smaller_rc(corpus_factory):
    papers = [paper(i, 2010) for i in (1, 2, 3, 4)]
    papers.append(paper(10, 2011, refs=[1, 2, 3, 4]))
    corpus = corpus_factory(papers)
    part = _partition({1: 2, 2: 2, 3: 1, 4: 1}, model_year=2010)
    updated, _ = assign_new_papers(part, corpus, 2011)
    assert updated.assignment[10] == 1


def test_assign_by_bm25_when_no_references(corpus_factory):
    papers = [
        paper(1, 2010, terms=["quantum", "dots"]),
        paper(2, 2010, terms=["quantum", "wells"]),
        paper(3, 2010, terms=["protein", "folding"]),
        paper(10, 2011, terms=["protein", "folding"]),
    ]
    corpus = corpus_factory(papers)
    part = _partition({1: 0, 2: 0, 3: 12}, model_year=2010)
    updated, report = assign_new_papers(part, corpus, 2011)
    assert updated.assignment[10] == 12
    assert report.by_bm25 == 1


def test_unassignable_papers_reported(corpus_factory):
    papers = [
        paper(1, 2010, terms=["known"]),
        paper(10, 2011),                            # no refs, no terms
        paper(11, 2011, terms=["unrelated"]),       # zero BM25 everywhere
    ]
    corpus = corpus_factory(papers)
    part = _partition({1: 0}, model_year=2010)
    updated, report = assign_new_papers(part, corpus, 2011)
    assert sorted(report.unassigned) == [10, 11]
    assert 10 not in updated.assignment and 11 not in updated.assignment


def test_order_independence_against_frozen_partition(corpus_factory):
    # 20 cites 21 (also new): the vote must not count because 21 is only
    # assigned this same year; 20 falls through to BM25
    papers = [
        paper(1, 2010, terms=["alpha", "beta"]),
        paper(2, 2010, terms=["gamma"]),
        paper(20, 2011, refs=[21], terms=["alpha"]),
        paper(21, 2011, refs=[1], terms=[]),
    ]
    corpus = corpus_factory(papers)
    part = _partition({1: 0, 2: 1}, model_year=2010)
    updated, report = assign_new_papers(part, corpus, 2011)
    assert updated.assignment[21] == 0        # by reference to paper 1
    assert updated.assignment[20] == 0        # by BM25, not via 21's fresh label
    assert report.by_bm25 == 1 and report.by_references == 1


def test_assignments_invariant_under_input_permutation(corpus_factory):
    papers = [
        paper(1, 2010, terms=["alpha"]), paper(2, 2010, terms=["beta"]),
        paper(30, 2011, refs=[1]), paper(31, 2011, refs=[2]),
        paper(32, 2011, terms=["alpha"]), paper(33, 2011, refs=[1, 2]),
    ]
    part = _partition({1: 0, 2: 1}, model_year=2010)
    corpus_a = corpus_factory(papers)
    corpus_b = corpus_factory(list(reversed(papers)))
    updated_a, _ = assign_new_papers(part, corpus_a, 2011)
    updated_b, _ = assign_new_papers(part, corpus_b, 2011)
    assert updated_a.assignment == updated_b.assignment


def test_extension_precondition(corpus_factory):
    corpus = corpus_factory([paper(1, 2010), paper(2, 2012)])
    part = _partition({1: 0}, model_year=2010)
    with pytest.raises(ClusterError, match="2011"):
        assign_new_papers(part, corpus, 2012)


def test_sequential_extension_updates_year(corpus_factory):
    papers = [paper(1, 2010, terms=["x1", "x2"]),
              paper(2, 2011, refs=[1]),
              paper(3, 2012, refs=[2])]
    corpus = corpus_factory(papers)
    part = _partition({1: 0}, model_year=2010)
    part, _ = assign_new_papers(part, corpus, 2011)
    assert part.extended_through == 2011
    part, _ = assign_new_papers(part, corpus, 2012)
    assert part.assignment == {1: 0, 2: 0, 3: 0}


# --- the sparse extension against the per-query oracle ----------------------


def _scan(row):
    """The oracle's best-RC scan over one row of scores, in column order."""
    best = None
    for c, s in enumerate(row.tolist()):
        if s > 0.0 and (best is None or s > row[best] + 1e-15):
            best = c
    return -1 if best is None else best


def test_best_columns_tie_rule():
    ulp = np.spacing(1.0)
    rows = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5],                      # exact tie: the smaller column
        [1.0, 1.0 + 4 * ulp, 0.0],            # within 1e-15: still the first
        [1.0, 1.0 + 5e-15, 0.0],              # beyond 1e-15: replaced
        [1.0, 1.0 + 6 * ulp, 1.0 + 9 * ulp],  # each step measured from the current best
    ])
    assert best_columns(rows) == [-1, 1, 0, 1, 1]
    assert [_scan(r) for r in rows] == [-1, 1, 0, 1, 1]
    assert np.argmax(rows[4]) == 2


def test_best_columns_matches_scan_on_near_ties():
    rng = np.random.default_rng(5)
    ulp = np.spacing(1.0)
    for n_cols in (1, 2, 7, 40):
        scores = rng.integers(0, 3, size=(500, n_cols)) * 0.5
        scores += rng.integers(0, 9, size=scores.shape) * ulp * (scores > 0)
        assert best_columns(scores) == [_scan(r) for r in scores]


def _check_extension(corpus, base, years):
    """Both extensions year by year; exact equality, and the scores of every
    BM25 query, as the extension used them, bit-equal to the oracle's."""
    new = old = base
    for year in years:
        stats = oracles.RcDocumentStats.from_partition(corpus, new)
        rc_ids, _ = rc_documents(corpus, new.assignment)
        assert rc_ids.tolist() == sorted(stats.doc_tf)
        queries = [pid for pid in corpus.papers_in_year(year) if corpus.papers[pid].terms
                   and not any(r in new.assignment for r in corpus.papers[pid].references)]
        used = []

        def spy(*args, **kwargs):
            for block in bm25_score_blocks(*args, **kwargs):
                used.extend(block.tolist())
                yield block

        with mock.patch.object(assign, "bm25_score_blocks", spy):
            new, report = assign_new_papers(new, corpus, year)
        assert used == [[oracles.bm25_relatedness(corpus.papers[pid].terms, stats, rc)
                         for rc in rc_ids.tolist()] for pid in queries]
        old, want_report = oracles.assign_new_papers(old, corpus, year)
        assert report == want_report
        assert list(new.assignment.items()) == list(old.assignment.items())
        assert new == old


def test_near_tie_goes_to_smaller_rc():
    # mirrored documents score the same up to rounding: (a + b) + c against
    # (c + b) + a. Take counts where the larger rc id comes out ahead by less
    # than 1e-15; the scan keeps the smaller one, where argmax would not.
    words = ("xa", "xb", "xc")
    for counts in itertools.product(range(1, 8), repeat=3):
        stats = oracles.RcDocumentStats({0: Counter(dict(zip(words, counts))),
                                         1: Counter(dict(zip(words, counts[::-1])))})
        s0, s1 = (oracles.bm25_relatedness(words, stats, rc) for rc in (0, 1))
        if 0 < s1 - s0 <= 1e-15:
            break
    else:
        pytest.fail("no near tie among the mirrored counts")
    bags = [[w for w, n in zip(words, c) for _ in range(n)] for c in (counts, counts[::-1])]
    corpus = Corpus({1: PaperRecord(1, 2010, "article", None, (), tuple(bags[0])),
                     2: PaperRecord(2, 2010, "article", None, (), tuple(bags[1])),
                     3: PaperRecord(3, 2011, "article", None, (), words)}, {})
    base = _partition({1: 0, 2: 1}, model_year=2010)
    assert assign_new_papers(base, corpus, 2011)[0].assignment[3] == 0
    _check_extension(corpus, base, [2011])


@pytest.mark.parametrize("seed", [3, 29])
def test_extension_matches_oracle_on_synth(tmp_path, seed):
    res = generate(SynthConfig(rng_seed=seed, n_communities=150), tmp_path / "synth")
    corpus = load_corpus(res.papers_path, res.ranks_path)
    graph = build_graph(corpus, extended=True, year_cutoff=2009)
    base = leiden(graph, ClusterConfig(quality="cpm", resolution=0.02, rng_seed=0))
    _check_extension(corpus, base, range(2010, 2015))


_WORDS = ["aa", "bb", "cc", "dd", "ee", "ff"]
_EXTERNAL = 10**9


@st.composite
def extension_cases(draw):
    """A base year of assigned papers and two new years, built to reach the
    scorer's edge cases: empty RC documents (all of them, for avgdl 0),
    identical documents, query terms repeated three or more times, queries
    sharing no term with any RC, references that are external or not yet
    assigned, and mirrored documents whose scores are equal up to rounding."""
    bag = st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=8)
    all_empty = draw(st.integers(0, 4)) == 0
    papers, assignment = [], {}
    rc_pool = draw(st.lists(st.integers(0, 60), min_size=1, max_size=5, unique=True))
    for pid in range(1, draw(st.integers(1, 10)) + 1):
        terms = [] if all_empty else [t for t in draw(bag) if t != "zz"]
        papers.append((pid, 2010, [], terms))
        if draw(st.integers(0, 5)):
            assignment[pid] = draw(st.sampled_from(rc_pool))
    if draw(st.booleans()) and assignment:      # an RC with a copy of another's document
        src = draw(st.sampled_from(sorted(assignment)))
        papers.append((100, 2010, [], papers[src - 1][3]))
        assignment[100] = max(rc_pool) + 1
    mirror = None
    if draw(st.booleans()) and not all_empty:   # the same tf values on permuted terms
        words = ["xa", "xb", "xc", "xd"][:draw(st.integers(2, 4))]
        counts = draw(st.lists(st.integers(1, 9), min_size=len(words), max_size=len(words)))
        perm = draw(st.permutations(counts))
        for pid, tfs in ((101, counts), (102, perm)):
            papers.append((pid, 2010, [], [w for w, n in zip(words, tfs) for _ in range(n)]))
        assignment[101], assignment[102] = max(rc_pool) + 2, max(rc_pool) + 3
        mirror = words
    pid = 200
    for year in (2011, 2012):
        for _ in range(draw(st.integers(1, 8))):
            if mirror is not None and draw(st.booleans()):
                terms = draw(st.permutations(mirror + draw(st.lists(
                    st.sampled_from(mirror), max_size=4))))
            else:
                terms = draw(bag)
                terms += [terms[0]] * draw(st.integers(0, 3)) if terms else []
            earlier = [p[0] for p in papers if p[1] < year]
            refs = draw(st.lists(st.sampled_from(
                earlier + [_EXTERNAL, _EXTERNAL + 1, pid - 3, pid + 3]), max_size=4,
                unique=True))
            papers.append((pid, year, refs, draw(st.permutations(terms))))
            pid += 3
    return papers, assignment


@settings(max_examples=200, deadline=None)
@given(extension_cases())
def test_extension_matches_oracle_on_built_corpora(case):
    papers, assignment = case
    records = {pid: PaperRecord(pid, year, "article", None, tuple(r for r in refs if r != pid),
                                normalize_terms(terms))
               for pid, year, refs, terms in papers}
    corpus = Corpus(records, {})
    base = Partition(assignment, model_year=2010, rc_count=len(set(assignment.values())))
    _check_extension(corpus, base, (2011, 2012))
