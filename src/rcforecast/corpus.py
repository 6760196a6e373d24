"""Bibliographic corpus: paper records, journal ranks and yearly totals.

Input formats: papers as JSON-lines (one object per paper), journal ranks as CSV
with header ``journal_id,citescore_rank,eigenfactor_rank``.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path

import numpy as np
from scipy import sparse

from . import trace
from .artifacts import INT_TEXT, is_int64

DOC_TYPES = ("article", "review", "other")

_TOKEN = re.compile(r"[0-9a-z]{2,}")


class CorpusError(Exception):
    """A corpus file failed validation.

    Carries enough structure for a machine-readable error report.
    """

    def __init__(self, message, line=None, paper_id=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.paper_id = paper_id

    def report(self) -> dict:
        out = {"error": self.message}
        if self.line is not None:
            out["line"] = self.line
        if self.paper_id is not None:
            out["paper_id"] = self.paper_id
        return out


def normalize_terms(raw) -> tuple[str, ...]:
    """Tokenize: lowercase, split on non-alphanumerics, drop tokens shorter than 2 chars.

    Accepts a single string or an iterable of strings.
    """
    # a space separates like any other non-alphanumeric, and lowercasing is
    # context-free wherever it yields [0-9a-z], so the pieces lower as one text
    text = raw if isinstance(raw, str) else " ".join(map(str, raw))
    return tuple(_TOKEN.findall(text.lower()))


@dataclass(frozen=True)
class PaperRecord:
    """One document. ``references`` may point at corpus papers or external items."""

    paper_id: int
    year: int
    doc_type: str
    journal_id: int | None
    references: tuple[int, ...]
    terms: tuple[str, ...]


@dataclass(frozen=True)
class JournalRank:
    journal_id: int
    citescore_rank: int | None = None
    eigenfactor_rank: int | None = None


@dataclass(frozen=True)
class CorpusMeta:
    first_year: int
    last_year: int
    paper_count: int
    yearly_totals: dict[int, int]


class Corpus:
    """Papers as columns, one row per paper in ascending ``paper_ids`` order,
    built from per-paper sequences in any order (``refs`` holds ``n_refs[i]``
    references of paper i, paper after paper, and ``journals`` the journal of
    each paper i with ``has_journal[i]``). ``doc_type`` indexes ``DOC_TYPES``
    and ``journal`` the sorted ``journal_ids`` (-1 for none). Row r cites
    ``refs[ref_ptr[r]:ref_ptr[r+1]]`` in stored order; ``ref_row`` is each
    cited paper's row, -1 for an external item. Terms are tokenized on first
    use of ``term_matrix``. Immutable after load, its arrays read-only; safe for
    concurrent reads."""

    def __init__(self, ids, years, doc_types, has_journal, journals, n_refs, refs, terms,
                 ranks):
        self.ranks = ranks
        ids = np.array(ids, np.int64)
        order = np.argsort(ids, kind="stable")
        self.paper_ids = ids[order]
        self.year = np.array(years, np.int64)[order]
        self.doc_type = np.array(doc_types, np.int8)[order]
        journals = np.array(journals, np.int64)
        self.journal_ids = np.unique(journals)
        journal = np.full(len(ids), -1)
        journal[np.array(has_journal, bool)] = np.searchsorted(self.journal_ids, journals)
        self.journal = journal[order]

        # each reference moves with its paper, keeping its place in the paper's list
        n_refs = np.array(n_refs, np.int64)
        moved = np.repeat(np.argsort(order), n_refs)
        self.refs = np.asarray(refs, np.int64)[np.argsort(moved, kind="stable")]
        del moved   # freed before the sort below, which would otherwise peak on top of it
        self.ref_ptr = np.concatenate([[0], np.cumsum(n_refs[order])])
        # each distinct reference is looked up once, in sorted order
        cited, each = np.unique(self.refs, return_inverse=True)
        row, internal = lookup(self.paper_ids, cited)
        self.ref_row = np.where(internal, row, -1).take(each)
        self.external_ids = cited[~internal]
        self._terms = [terms[i] for i in order.tolist()]
        for column in (self.paper_ids, self.year, self.doc_type, self.journal_ids,
                       self.journal, self.refs, self.ref_ptr, self.ref_row, self.external_ids):
            column.flags.writeable = False

        self.meta = CorpusMeta(first_year=int(self.year.min()), last_year=int(self.year.max()),
                               paper_count=len(ids), yearly_totals=dict(Counter(years)))

    @classmethod
    def from_records(cls, records, ranks: dict[int, JournalRank]) -> "Corpus":
        """A corpus of a non-empty collection of ``PaperRecord``s, unvalidated."""
        ids, years, docs, has_journal, n_refs = zip(*[
            (p.paper_id, p.year, DOC_TYPES.index(p.doc_type), p.journal_id is not None,
             len(p.references)) for p in records])
        return cls(ids, years, docs, has_journal,
                   [p.journal_id for p in records if p.journal_id is not None], n_refs,
                   [r for p in records for r in p.references], [p.terms for p in records],
                   ranks)

    @cached_property
    def papers(self) -> dict[int, PaperRecord]:
        """The papers as records by id, built on first use (no hot path does)."""
        journals = [None] + self.journal_ids.tolist()
        refs, bounds = self.refs.tolist(), self.ref_ptr.tolist()
        return {pid: PaperRecord(pid, year, DOC_TYPES[doc], journals[j + 1],
                                 tuple(refs[lo:hi]), normalize_terms(raw))
                for pid, year, doc, j, lo, hi, raw in zip(
                    self.paper_ids.tolist(), self.year.tolist(), self.doc_type.tolist(),
                    self.journal.tolist(), bounds, bounds[1:], self._terms)}

    @cached_property
    def term_matrix(self) -> sparse.csr_array:
        """Paper x term counts, built on first use. Each row stores its terms in
        first-occurrence order, not sorted: BM25 sums a query's terms in it."""
        with trace.stage("term_matrix"):
            vocab: dict[str, int] = {}
            terms, lengths = array("i"), []
            for raw in self._terms:
                tokens = normalize_terms(raw)
                terms.extend([vocab.setdefault(t, len(vocab)) for t in tokens])
                lengths.append(len(tokens))
            terms = np.frombuffer(terms, np.int32)
            row = np.repeat(np.arange(len(lengths)), lengths)
            # one entry per (row, term), in the order of its first token
            _, first, counts = np.unique(row * len(vocab) + terms, return_index=True,
                                         return_counts=True)
            order = np.argsort(first)
            first, counts = first[order], counts[order]
            indptr = np.searchsorted(row[first], np.arange(len(lengths) + 1))
            matrix = sparse.csr_array((counts.astype(np.int32), terms[first], indptr),
                                      shape=(len(self.paper_ids), len(vocab)))
            matrix.has_sorted_indices = False
            return matrix

    def partition_rows(self, partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of a ``Partition``'s papers, its sorted RC ids and each paper's
        index into them; CorpusError names a paper not in the corpus."""
        rows, known = lookup(self.paper_ids, partition.paper_ids)
        unknown = partition.paper_ids[~known].tolist()
        if unknown:
            raise CorpusError(f"partition references unknown paper {unknown[0]}",
                              paper_id=unknown[0])
        rc_ids, rc_index = np.unique(partition.rc, return_inverse=True)
        return rows, rc_ids, rc_index


def lookup(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``ids`` is, or would be, in ``sorted_ids``, and whether it
    is there."""
    pos = np.searchsorted(sorted_ids, ids)
    if not len(sorted_ids):
        return pos, np.zeros(len(pos), bool)
    return pos, sorted_ids.take(pos, mode="clip") == ids


def _parse_csv_int(val, what: str, line: int) -> int:
    if val is None or not INT_TEXT.fullmatch(val.strip()):
        raise CorpusError(f"non-integer {what} {val!r}", line=line)
    return int(val)


def _parse_rank(val: str, line: int) -> int | None:
    if val is None or val.strip() == "":
        return None
    rank = _parse_csv_int(val, "journal rank", line)
    if rank < 1:
        raise CorpusError(f"journal rank must be >= 1, got {rank}", line=line)
    return rank


def load_journal_ranks(path) -> dict[int, JournalRank]:
    """The ranks of the journal file ``path``: none for no path or a missing file."""
    ranks: dict[int, JournalRank] = {}
    if path is None or not Path(path).exists():
        return ranks
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"journal_id", "citescore_rank", "eigenfactor_rank"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise CorpusError(f"journal file must have header {sorted(expected)}")
        for i, row in enumerate(reader, start=2):
            jid = _parse_csv_int(row["journal_id"], "journal_id", i)
            if jid in ranks:
                raise CorpusError(f"duplicate journal_id {jid}", line=i)
            ranks[jid] = JournalRank(
                journal_id=jid,
                citescore_rank=_parse_rank(row["citescore_rank"], i),
                eigenfactor_rank=_parse_rank(row["eigenfactor_rank"], i),
            )
    return ranks


#: lines per block of the loader: blocks of 256 lines ran ~7% faster at
#: 1k communities, but left a pymalloc arena in use after the corpus was freed
_BLOCK = 64
_scan = json.JSONDecoder().scan_once
#: what decoding a block raises on a line or field it cannot take
_UNREAD = (StopIteration, ValueError, TypeError, OverflowError, RecursionError)
#: Each field of a paper line, in the order a bad line reports the first that
#: fails: its name, its value when absent, the types it may take and those of a
#: list's items, and its problem. Ints fit int64, a missing year is refused, not
#: guessed, a doc_type is in DOC_TYPES, and references are distinct, not the paper.
_FIELDS = (("paper_id", None, {int}, set(), "paper_id outside the signed 64-bit range"),
           ("year", None, {int}, set(), "missing or non-integer year"),
           ("doc_type", "article", {str}, set(), "unknown doc_type {!r}"),
           ("journal_id", None, {int, type(None)}, set(),
            "non-integer or out-of-range journal_id {!r}"),
           ("references", [], {list}, {int}, "references must be a list of 64-bit integers"),
           ("terms", [], {str, list}, {str}, "terms must be a string or a list of strings"))


def _types(values) -> set:
    return set(map(type, values))


def _loads(text: str, line: int):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:   # nested too deep is malformed too
        raise CorpusError(f"malformed JSON: {getattr(e, 'msg', e)}", line=line) from e


def _check_paper(obj, line: int, seen: set) -> None:
    """Raise the report of the first check the decoded line ``obj`` fails;
    ``seen`` holds the ids of the lines before it, and then its own."""
    pid = obj.get("paper_id") if type(obj) is dict else None
    if type(pid) is not int:
        raise CorpusError("missing or non-integer paper_id", line=line)
    for name, default, types, items, problem in _FIELDS:
        value = obj.get(name, default)
        values = value if type(value) is list else [value]
        if (type(value) not in types or type(value) is list and _types(value) - items
                or not all(is_int64(v) for v in values if type(v) is int)
                or name == "doc_type" and value not in DOC_TYPES):
            raise CorpusError(f"paper {pid}: {problem.format(value)}", line=line, paper_id=pid)
        if name == "references" and (len(set(value)) < len(value) or pid in value):
            problem = "duplicate references" if len(set(value)) < len(value) else "cites itself"
            raise CorpusError(f"paper {pid}: {problem}", line=line, paper_id=pid)
    if pid in seen:
        raise CorpusError(f"duplicate paper_id {pid}", line=line, paper_id=pid)
    seen.add(pid)


def _decode(lines: list) -> tuple:
    """The columns for ``Corpus`` of the papers on ``lines``, checked by column
    but for references: one of ``_UNREAD`` where a line fails. A line is one
    JSON value: the scan must end where the line ends."""
    scanned = [_scan(line, 0) for line in lines]
    objs = [obj for obj, _ in scanned]
    if [end for _, end in scanned] != list(map(len, lines)) or _types(objs) - {dict}:
        raise ValueError("not one JSON object per line")
    values = pid, year, doc, jid, cited, text = [
        [o.get(name, default) for o in objs] for name, default, *_ in _FIELDS]
    if (any(_types(column) - types for column, (_, _, types, *_) in zip(values, _FIELDS))
            or _types(flat := list(chain.from_iterable(cited))) - {int}):
        raise TypeError("a value of another type")
    # an int outside int64 overflows its array; a terms list holding a
    # non-string fails the join, which joins as normalize_terms would
    return (array("q", pid), array("q", year), array("b", map(DOC_TYPES.index, doc)),
            array("b", [j is not None for j in jid]),
            array("q", [j for j in jid if j is not None]), array("q", map(len, cited)),
            array("q", flat), [t if type(t) is str else " ".join(t) for t in text])


def _check_references(columns, blanks: list) -> None:
    """Check the rows read so far at once: no paper cites itself, none cites an
    item twice and no id repeats. If one does, each row is checked in order."""
    ids, years, _, _, _, n_refs, refs, _ = columns
    paper = np.frombuffer(ids, np.int64)
    sorted_ids = np.sort(paper)
    # a key per (row, reference), distinct for references within 2**40 of each
    # other and under 2**23 rows; past that a shared key sends the rows below
    row = np.repeat(np.arange(len(paper)), np.frombuffer(n_refs, np.int64))
    ref = np.frombuffer(refs, np.int64)
    keys = np.sort(row * 2**40 + ref)
    if not ((sorted_ids[1:] == sorted_ids[:-1]).any() or (ref == paper[row]).any()
            or (keys[1:] == keys[:-1]).any()):
        return
    seen, end = set(), 0
    lines = np.setdiff1d(np.arange(1, len(paper) + len(blanks) + 1), blanks)    # not blank
    for pid, year, n, line in zip(ids, years, n_refs, lines.tolist()):
        start, end = end, end + n
        # the fields left out passed their checks as the row was read
        obj = {"paper_id": pid, "year": year, "references": refs[start:end].tolist()}
        _check_paper(obj, line, seen)


def _read_blocks(fh) -> tuple:
    """The columns of a papers file for ``Corpus``, checked a block of lines
    at a time (``_decode``); a block that fails is checked line by line."""
    columns = ids, *_ = _decode([])  # empty
    blanks, first = [], 1       # the blank lines' numbers and the block's first
    while True:
        block, undecodable = [], None
        try:
            block.extend(islice(fh, _BLOCK))    # keeps the lines read before an error
        except UnicodeDecodeError as e:         # raised once the lines read ahead pass
            undecodable = e
        stripped = list(map(str.strip, block))
        lines = list(filter(None, stripped))
        try:
            decoded = _decode(lines)
        except _UNREAD:
            _check_references(columns, blanks)      # a bad line before the block comes first
            seen = set(ids)
            for line, text in enumerate(stripped, first):
                if text:
                    _check_paper(_loads(text, line), line, seen)
            raise           # the line checks refuse whatever the column checks do
        for column, part in zip(columns, decoded):
            column += part
        if len(lines) < len(block):
            blanks.extend(line for line, text in enumerate(stripped, first) if not text)
        first += len(block)
        if undecodable or len(block) < _BLOCK:
            break
    _check_references(columns, blanks)
    if undecodable:
        raise undecodable
    if not ids:
        raise CorpusError("corpus is empty")
    return columns


def load_corpus(papers_path, journals_path=None) -> Corpus:
    """Load and validate a corpus.

    Duplicate paper ids and malformed lines are fatal: the first bad line is
    named. References to ids absent from the corpus are kept and flagged
    external. A missing journals file yields an empty rank table.
    """
    with open(papers_path) as fh:
        columns = _read_blocks(fh)
    return Corpus(*columns, load_journal_ranks(journals_path))


def save_corpus(corpus: Corpus, papers_path, journals_path=None) -> None:
    """Persist a corpus in the load formats; reload is content-identical."""
    with open(papers_path, "w") as fh:
        for p in corpus.papers.values():        # in ascending paper_id order
            fh.write(json.dumps(asdict(p), separators=(",", ":")) + "\n")
    if journals_path is not None:
        with open(journals_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["journal_id", "citescore_rank", "eigenfactor_rank"])
            # csv writes None, a missing rank, as an empty cell
            writer.writerows([jid, r.citescore_rank, r.eigenfactor_rank]
                             for jid, r in sorted(corpus.ranks.items()))
