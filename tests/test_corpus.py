import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.assign import _plurality
from rcforecast import corpus as corpus_module
from rcforecast.citegraph import build_graph
from rcforecast.cluster import Partition
from rcforecast.corpus import DOC_TYPES, CorpusError, load_corpus, normalize_terms, save_corpus
from rcforecast.indicators import Panel
from rcforecast.synth import SynthConfig, generate

import oracles
from conftest import assert_loads_like_oracle, paper, write_papers


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
    assert 999 not in corpus.paper_ids and corpus.ref_row.tolist() == [-1]


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
    corpus = corpus_factory([paper(1, 2010)], journals=[(5, 10, None), (6, None, 3),
                                                         (" 7", "\t2 ", "4 ")])
    assert corpus.ranks[5].citescore_rank == 10
    assert corpus.ranks[5].eigenfactor_rank is None
    assert corpus.ranks[6].eigenfactor_rank == 3
    # integer cells may carry surrounding whitespace
    assert (corpus.ranks[7].citescore_rank, corpus.ranks[7].eigenfactor_rank) == (2, 4)


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
    panel = Panel(corpus, Partition.from_assignment(assignment))
    assert panel.share_column(2010)[np.searchsorted(panel.rc_ids, 0)] == pytest.approx(0.05)
    assert 99 not in panel.rc_ids  # an rc with no papers has no row


def test_share_errors(corpus_factory):
    corpus = corpus_factory([paper(1, 2010), paper(2, 2012)])
    panel = Panel(corpus, Partition.from_assignment({1: 0, 2: 0}))
    with pytest.raises(CorpusError, match="empty year"):
        panel.share_column(2011)
    with pytest.raises(CorpusError):
        panel.share_column(1990)


def test_shares_sum_to_one_over_complete_partition(corpus_factory):
    papers = [paper(i, 2010 + i % 3) for i in range(60)]
    corpus = corpus_factory(papers)
    assignment = {i: i % 7 for i in range(60)}
    table = Panel(corpus, Partition.from_assignment(assignment))
    for year in (2010, 2011, 2012):
        total = table.share_column(year).sum()
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


# --- the columnar corpus against the dict-of-records corpus it replaced ------

@pytest.mark.parametrize("field,value,problem", [
    ("paper_id", [1], "missing or non-integer paper_id"),
    ("year", {"y": 2011}, "missing or non-integer year"),
    ("doc_type", ["article"], "unknown doc_type"),
    ("journal_id", [5], "journal_id"),
    ("references", [[1]], "references must be"),
    ("terms", [["graph"]], "terms must be"),
])
def test_unhashable_values_rejected_like_oracle(tmp_path, field, value, problem):
    bad = paper(9, 2011)
    bad[field] = value
    path = write_papers(tmp_path / "p.jsonl", [paper(1, 2010), bad])
    with pytest.raises(CorpusError, match=problem):
        load_corpus(path)
    assert_loads_like_oracle(path)


_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers(-3, 14)
    | st.sampled_from([2**63 - 1, 2**63, -2**63 - 1]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)
_TERMS = st.lists(st.sampled_from(["Graph", "x", "ab CD", "\u0130x", "graph"]), max_size=4)


@st.composite
def papers_files(draw):
    """Up to eight lines: papers citing each other and external items (ids up
    to 15), some with one field replaced or removed, blank lines and broken
    JSON; ids repeat, so duplicates and self-citations occur."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["paper"] * 4 + ["mutated", "blank", "broken"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "broken":
            lines.append(draw(st.sampled_from(["{", "[1,", "nul", '{"paper_id": 1} x'])))
            continue
        terms = draw(_TERMS | st.sampled_from(["Deep-Learning, NLP!", ""]))
        record = paper(draw(st.integers(0, 12)), draw(st.integers(1998, 2003)),
                       refs=draw(st.lists(st.integers(0, 15), max_size=4, unique=True)),
                       doc_type=draw(st.sampled_from(DOC_TYPES)),
                       journal_id=draw(st.sampled_from([None, -1, 0, 5])), terms=terms)
        if kind == "mutated":
            field = draw(st.sampled_from(sorted(record) + ["extra"]))
            if draw(st.booleans()):
                record.pop(field, None)
            else:
                record[field] = draw(_VALUES)
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(papers_files())
def test_loader_matches_dict_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("load") / "p.jsonl"
    path.write_text(text)
    assert_loads_like_oracle(path)


@settings(max_examples=400, deadline=None)
@given(papers_files())
def test_loader_matches_dict_loader_in_blocks_of_2(tmp_path_factory, text):
    # the same files read two lines a block, so a bad line or a repeated id
    # lands in another block than its first line
    path = tmp_path_factory.mktemp("load") / "p.jsonl"
    path.write_text(text)
    with mock.patch.object(corpus_module, "_BLOCK", 2):
        assert_loads_like_oracle(path)


def _error_of(path) -> dict:
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert_loads_like_oracle(path)
    return exc.value.report()


def test_lines_that_parse_only_when_joined_are_rejected(tmp_path):
    # joined as "[" + ",".join(lines) + "]" these are three valid papers
    path = tmp_path / "p.jsonl"
    path.write_text('{"paper_id":1,"year":2000,"x":[{}\n'
                    '{}]}\n'
                    '{"paper_id":2,"year":2000},{"paper_id":3,"year":2000}\n')
    assert _error_of(path) == {"error": "malformed JSON: Expecting ',' delimiter", "line": 1}


def test_two_objects_on_one_line_are_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(paper(1, 2000)) + "\n"
                    '{"paper_id":2,"year":2000},{"paper_id":3,"year":2000}\n')
    assert _error_of(path) == {"error": "malformed JSON: Extra data", "line": 2}


@pytest.mark.parametrize("line", [1, 3])
def test_line_starting_with_a_bom_is_rejected(tmp_path, line):
    lines = [json.dumps(paper(i, 2000)) for i in (1, 2, 3)]
    lines[line - 1] = "\ufeff" + lines[line - 1]
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _error_of(path) == {"error": "malformed JSON: Unexpected UTF-8 BOM "
                                        "(decode using utf-8-sig)", "line": line}


def test_crlf_and_blank_lines_load(tmp_path):
    lines = [json.dumps(paper(1, 2000, refs=[2])), "", "  \t", json.dumps(paper(2, 2001)), ""]
    path = tmp_path / "p.jsonl"
    path.write_bytes("\r\n".join(lines).encode())
    assert_loads_like_oracle(path)
    assert load_corpus(path).paper_ids.tolist() == [1, 2]


def test_invalid_utf8_after_a_malformed_line_names_that_line(tmp_path):
    # the bytes that do not decode lie past the first 8 KiB the file decodes,
    # but in the loader's first block of lines
    filler = [json.dumps(paper(i, 2000, terms=["x" * 200])) for i in range(3, 43)]
    text = "\n".join([json.dumps(paper(1, 2000)), "{not json", *filler]) + "\n"
    path = tmp_path / "p.jsonl"
    path.write_bytes(text.encode() + b'{"paper_id": 9, "terms": "\xff\xfe"}\n')
    assert len(text.encode()) > 8192 and len(filler) + 3 < corpus_module._BLOCK
    assert _error_of(path) == {"error": "malformed JSON: Expecting property name enclosed "
                                        "in double quotes", "line": 2}


def test_duplicate_paper_id_in_a_later_block_names_its_line(tmp_path):
    papers = [paper(i, 2000 + i % 3) for i in range(1, 11)] + [paper(3, 2005)]
    path = write_papers(tmp_path / "p.jsonl", papers)
    with mock.patch.object(corpus_module, "_BLOCK", 4):
        assert _error_of(path) == {"error": "duplicate paper_id 3", "line": 11,
                                   "paper_id": 3}


@pytest.mark.parametrize("order,report", [
    (["dup", "bad"], {"error": "duplicate paper_id 3", "line": 6, "paper_id": 3}),
    (["bad", "dup"], {"error": "malformed JSON: Expecting property name enclosed in double "
                               "quotes", "line": 6}),
])
def test_duplicate_paper_id_counts_only_before_the_first_bad_line(tmp_path, order, report):
    # the first 3 is in the first block of 4 lines; its repeat and a malformed
    # line share the second block, and whichever comes first is reported
    lines = {"dup": json.dumps(paper(3, 2005)), "bad": "{not json"}
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join([json.dumps(paper(i, 2000)) for i in range(1, 6)]
                              + [lines[name] for name in order]) + "\n")
    with mock.patch.object(corpus_module, "_BLOCK", 4):
        assert _error_of(path) == report


@pytest.mark.parametrize("refs,problem", [([5, 200], "cites itself"),
                                           ([5, 7, 5], "duplicate references")])
def test_bad_reference_beyond_the_first_block_names_its_line(tmp_path, refs, problem):
    # references are checked over the whole file once the last block is read
    papers = [paper(i, 2000, refs=[i - 1] if i > 1 else []) for i in range(1, 251)]
    papers[199] = paper(200, 2000, refs=refs)
    path = write_papers(tmp_path / "p.jsonl", papers)
    assert 200 > corpus_module._BLOCK
    assert _error_of(path) == {"error": f"paper 200: {problem}", "line": 200,
                               "paper_id": 200}


def test_corpus_citing_nothing_loads_without_the_line_reader(tmp_path):
    path = write_papers(tmp_path / "p.jsonl", [paper(i, 2000 + i % 3) for i in range(1, 100)])
    corpus = load_corpus(path)
    assert corpus.refs.size == corpus.ref_row.size == corpus.external_ids.size == 0
    assert corpus.ref_row.dtype == corpus.external_ids.dtype == np.int64
    assert corpus.ref_ptr.tolist() == [0] * 100
    assert corpus.papers == oracles.load_corpus(path).papers


@pytest.mark.parametrize("field,value", [
    ("paper_id", True), ("year", False), ("journal_id", True), ("references", [2, True]),
])
def test_bool_where_an_integer_goes_is_rejected(tmp_path, field, value):
    # array("q") would store a bool as 0 or 1: the column type checks must refuse it
    bad = paper(9, 2011)
    bad[field] = value
    path = write_papers(tmp_path / "p.jsonl", [paper(1, 2010), bad])
    assert _error_of(path)["line"] == 2


def test_valid_file_loads_without_the_line_reader(tmp_path):
    papers = [paper(i, 2000, refs=[i + 1, 1000], journal_id=i % 2 or None, terms=["a b"])
              for i in range(1, 600)]
    path = write_papers(tmp_path / "p.jsonl", papers)
    corpus = load_corpus(path)
    assert corpus.papers == oracles.load_corpus(path).papers


def test_references_whose_keys_coincide_load(tmp_path):
    # the reference check keys (row, reference) as row * 2**40 + reference:
    # row 0 citing 2**40 + 5 and row 1 citing 5 share a key, but are no repeat
    path = write_papers(tmp_path / "p.jsonl", [paper(1, 2000, refs=[2**40 + 5]),
                                               paper(2, 2000, refs=[5, 1])])
    assert_loads_like_oracle(path)
    assert load_corpus(path).refs.tolist() == [2**40 + 5, 5, 1]


@pytest.mark.parametrize("bad_line", [None, 200, 2])
def test_papers_file_is_opened_once(tmp_path, bad_line):
    # a valid file, a repeated reference on line 200 and a malformed line 2
    lines = [json.dumps(paper(i, 2000, refs=[i - 1] if i > 1 else [])) for i in range(1, 251)]
    if bad_line == 200:
        lines[199] = json.dumps(paper(200, 2000, refs=[5, 7, 5]))
    elif bad_line == 2:
        lines[1] = "{not json"
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(corpus_module, "open", wraps=open, create=True) as opened:
        if bad_line is None:
            load_corpus(path)
        else:
            with pytest.raises(CorpusError) as exc:
                load_corpus(path)
            assert exc.value.line == bad_line
    assert opened.call_count == 1


@pytest.fixture(scope="module", params=[201, 202])
def synth_corpora(request, tmp_path_factory):
    """A synthetic corpus of about 300 communities, loaded both ways, and its
    planted paper -> community map."""
    res = generate(SynthConfig(rng_seed=request.param, n_communities=300),
                   tmp_path_factory.mktemp("columns"))
    return (load_corpus(res.papers_path, res.ranks_path),
            oracles.load_corpus(res.papers_path, res.ranks_path), res.paper_community)


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


def test_build_graph_matches_dict_oracle(synth_corpora):
    corpus, dict_corpus, _ = synth_corpora
    for extended in (True, False):
        for cutoff in (2000, 2005, 2009, 2014):
            got = build_graph(corpus, extended, cutoff)
            want = oracles.build_graph(dict_corpus, extended, cutoff)
            for name in ("node_ids", "internal", "indptr", "indices", "weights"):
                _assert_same_arrays(getattr(got, name), getattr(want, name))


def test_panel_matches_dict_oracle(synth_corpora):
    corpus, dict_corpus, truth = synth_corpora
    assignment = {pid: rc for pid, rc in truth.items() if pid % 7}
    got = Panel(corpus, Partition.from_assignment(assignment))
    want = oracles.DictPanel(dict_corpus, assignment)
    for name in ("rc_ids", "counts", "totals", "shares", "_rvit", "_paper_rc", "_paper_year"):
        _assert_same_arrays(getattr(got, name), getattr(want, name))
    assert got._cubes.keys() == want._cubes.keys()
    for name in got._cubes:
        _assert_same_arrays(got._cubes[name], want._cubes[name])


def test_plurality_vote_matches_dict_oracle(synth_corpora):
    corpus, dict_corpus, truth = synth_corpora
    # external items in the partition collect votes too, as the oracle's lookup does
    externals = {e: e % 300 for e in corpus.external_ids.tolist()[::3]}
    for year in range(2001, 2015):
        base = {pid: rc for pid, rc in truth.items()
                if dict_corpus.papers[pid].year < year and pid % 5}
        base.update(externals)
        part = Partition.from_assignment(base, model_year=year - 1)
        voters, rcs = _plurality(corpus, year, part)
        got = dict(zip(corpus.paper_ids[voters].tolist(), rcs.tolist()))
        want = oracles.plurality_vote(dict_corpus, part, year)
        assert got == want
        assert len(want) > 0


def test_corpus_arrays_are_read_only(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[99], journal_id=5), paper(2, 2011, refs=[1])],
                            journals=[(5, 1, 2)])
    for name in ("paper_ids", "year", "doc_type", "journal_ids", "journal", "refs", "ref_ptr",
                 "ref_row", "external_ids"):
        column = getattr(corpus, name)
        assert len(column), name
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
