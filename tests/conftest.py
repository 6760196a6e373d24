import json

import numpy as np
import pytest

from rcforecast.corpus import CorpusError, load_corpus

import oracles

#: ``ACCEPTANCE <n>: PASS|FAIL`` lines recorded by the acceptance suite
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def paper(pid, year, refs=(), doc_type="article", journal_id=None, terms=()):
    return {
        "paper_id": pid,
        "year": year,
        "doc_type": doc_type,
        "journal_id": journal_id,
        "references": list(refs),
        "terms": list(terms),
    }


def write_papers(path, papers):
    with open(path, "w") as fh:
        for p in papers:
            fh.write(json.dumps(p) + "\n")
    return path


def write_journals(path, rows):
    """rows: (journal_id, citescore_rank, eigenfactor_rank) with None for blanks."""
    with open(path, "w") as fh:
        fh.write("journal_id,citescore_rank,eigenfactor_rank\n")
        for jid, cs, eig in rows:
            fh.write(f"{jid},{'' if cs is None else cs},{'' if eig is None else eig}\n")
    return path


@pytest.fixture
def corpus_factory(tmp_path):
    counter = [0]

    def make(papers, journals=None):
        counter[0] += 1
        ppath = write_papers(tmp_path / f"papers{counter[0]}.jsonl", papers)
        jpath = None
        if journals is not None:
            jpath = write_journals(tmp_path / f"ranks{counter[0]}.csv", journals)
        return load_corpus(ppath, jpath)

    return make


def assert_loads_like_oracle(papers_path, journals_path=None):
    """The loader raises the dict-of-records loader's error report, or loads
    the same papers, meta, ranks, external items and term matrix."""
    try:
        want = oracles.load_corpus(papers_path, journals_path)
    except CorpusError as e:
        with pytest.raises(CorpusError) as got:
            load_corpus(papers_path, journals_path)
        assert got.value.report() == e.report()
        return
    got = load_corpus(papers_path, journals_path)
    assert got.papers == want.papers
    assert (got.meta, got.ranks) == (want.meta, want.ranks)
    assert set(got.external_ids.tolist()) == want.external_ids
    assert got.term_matrix.shape == want.term_matrix.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.term_matrix, name), getattr(want.term_matrix, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert got.term_matrix.has_sorted_indices is False


def ascending(ids) -> bool:
    """Strictly ascending, compared pairwise (a difference could overflow int64)."""
    return bool((ids[1:] > ids[:-1]).all())


def assert_same_partition(got, want):
    """Field by field: the paper and external item columns (int64, strictly
    ascending ids) through their views, and every meta field."""
    for p in (got, want):
        for name in ("paper_ids", "rc", "external_ids", "external_rc"):
            assert getattr(p, name).dtype == np.int64, name
        assert ascending(p.paper_ids) and ascending(p.external_ids)
    assert got.assignment == want.assignment
    assert got.external_assignment == want.external_assignment
    assert got.rc_count == want.rc_count
    assert got.quality == want.quality
    assert (got.model_year, got.extended_through) == (want.model_year, want.extended_through)
    assert got.config_used == want.config_used
