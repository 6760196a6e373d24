import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.corpus import CorpusError, load_corpus, normalize_terms, save_corpus
from rcforecast.indicators import Panel

import oracles
from conftest import paper, write_papers


def test_single_valid_paper(corpus_factory):
    corpus = corpus_factory([paper(1, 2010)])
    assert corpus.meta.paper_count == 1
    assert corpus.meta.first_year == corpus.meta.last_year == 2010
    assert corpus.meta.yearly_totals == {2010: 1}


def test_duplicate_paper_id_names_offender(corpus_factory):
    with pytest.raises(CorpusError) as exc:
        corpus_factory([paper(7, 2010), paper(7, 2011)])
    assert "7" in str(exc.value)
    assert exc.value.paper_id == 7


def test_external_reference_kept_and_flagged(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[999])])
    assert corpus.papers[1].references == (999,)
    assert 999 in corpus.external_ids
    assert corpus.is_external(999)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(paper(1, 2010)) + "\n")
        fh.write("{not json\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 2


def test_missing_year_rejected(corpus_factory):
    with pytest.raises(CorpusError):
        corpus_factory([{"paper_id": 1, "references": []}])


@pytest.mark.parametrize("bad", [
    paper(1, 2010, refs=[2, 2]),          # duplicate references
    paper(1, 2010, refs=[1]),             # self citation
    dict(paper(1, 2010), doc_type="editorial"),
])
def test_invariant_violations_fatal(corpus_factory, bad):
    with pytest.raises(CorpusError):
        corpus_factory([bad])


def test_missing_journals_file_gives_empty_ranks(tmp_path):
    ppath = write_papers(tmp_path / "p.jsonl", [paper(1, 2010)])
    corpus = load_corpus(ppath, tmp_path / "nope.csv")
    assert corpus.ranks == {}


def test_journal_ranks_parsed(corpus_factory):
    corpus = corpus_factory([paper(1, 2010)], journals=[(5, 10, None), (6, None, 3)])
    assert corpus.ranks[5].citescore_rank == 10
    assert corpus.ranks[5].eigenfactor_rank is None
    assert corpus.ranks[6].eigenfactor_rank == 3


def test_normalize_terms():
    assert normalize_terms("Deep-Learning, for NLP!") == ("deep", "learning", "for", "nlp")
    assert normalize_terms(["Graph", "x", "AB"]) == ("graph", "ab")
    assert normalize_terms("") == ()


# characters whose lowercase is ASCII or longer than one character, or depends
# on context (final sigma), next to ASCII letters, digits and separators
_CASE_EDGES = "\u0130\u212a\u017f\u00df\u03a3\u03c3\u03c2\u0391\u0307aZk09 -'"
_TEXT = st.text(st.characters() | st.sampled_from(_CASE_EDGES), max_size=30)


@settings(max_examples=500, deadline=None)
@given(_TEXT | st.lists(_TEXT, max_size=6))
def test_normalize_terms_matches_split_then_filter(raw):
    assert normalize_terms(raw) == oracles.normalize_terms(raw)


def test_normalize_terms_case_edges():
    for text in ["\u0130STANBUL", "\u212aelvin", "\u017ftra\u00dfe", "AB\u03a3", "\u03a3 ab"]:
        assert normalize_terms(text) == oracles.normalize_terms(text)
    assert normalize_terms(["\u0130x", "K\u212a"]) == ("kk",)   # "i\u0307x" splits at U+0307


def test_publication_share_basic(corpus_factory):
    papers = [paper(i, 2010) for i in range(1, 101)]
    corpus = corpus_factory(papers)
    assignment = {i: (0 if i <= 5 else 1) for i in range(1, 101)}
    panel = Panel(corpus, assignment)
    assert panel.share(0, 2010) == pytest.approx(0.05)
    assert panel.share(99, 2010) == 0.0  # rc with no papers


def test_share_errors(corpus_factory):
    corpus = corpus_factory([paper(1, 2010), paper(2, 2012)])
    panel = Panel(corpus, {1: 0, 2: 0})
    with pytest.raises(CorpusError, match="empty year"):
        panel.share(0, 2011)
    with pytest.raises(CorpusError):
        panel.share(0, 1990)


def test_shares_sum_to_one_over_complete_partition(corpus_factory):
    papers = [paper(i, 2010 + i % 3) for i in range(60)]
    corpus = corpus_factory(papers)
    assignment = {i: i % 7 for i in range(60)}
    table = Panel(corpus, assignment)
    for year in (2010, 2011, 2012):
        total = sum(table.share(rc, year) for rc in table.rc_ids)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_round_trip(tmp_path, corpus_factory):
    corpus = corpus_factory(
        [paper(1, 2010, refs=[2, 99], terms=["Graph", "BM25!"]),
         paper(2, 2009, doc_type="review", journal_id=4)],
        journals=[(4, 1, 2)],
    )
    p2 = tmp_path / "out.jsonl"
    j2 = tmp_path / "out.csv"
    save_corpus(corpus, p2, j2)
    reloaded = load_corpus(p2, j2)
    assert reloaded.papers == corpus.papers
    assert reloaded.ranks == corpus.ranks
    assert reloaded.meta == corpus.meta


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(2000, 2015), st.sampled_from(["article", "review", "other"]),
              st.lists(st.integers(0, 30), max_size=4, unique=True)),
    min_size=1, max_size=25))
def test_round_trip_property(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    papers = []
    for i, (year, doc_type, refs) in enumerate(rows):
        pid = 100 + i
        papers.append(paper(pid, year, refs=[r for r in refs if r != pid],
                            doc_type=doc_type, terms=[f"t{r}" for r in refs]))
    path = write_papers(tmp / "p.jsonl", papers)
    corpus = load_corpus(path)
    out = tmp / "q.jsonl"
    save_corpus(corpus, out)
    assert load_corpus(out).papers == corpus.papers
