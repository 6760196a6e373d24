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
    use of ``term_matrix``. Immutable after load; safe for concurrent reads."""

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
        self.refs = np.array(refs, np.int64)[np.argsort(moved, kind="stable")]
        self.ref_ptr = np.concatenate([[0], np.cumsum(n_refs[order])])
        row, internal = lookup(self.paper_ids, self.refs)
        self.ref_row = np.where(internal, row, -1)
        self.external_ids = np.unique(self.refs[~internal])
        self._terms = [terms[i] for i in order.tolist()]

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


def _parse_paper(obj: dict, line: int) -> tuple:
    """The validated fields of one paper; terms are type-checked, not tokenized."""
    pid = obj.get("paper_id") if type(obj) is dict else None
    if type(pid) is not int:
        raise CorpusError("missing or non-integer paper_id", line=line)
    year = obj.get("year")
    doc_type = obj.get("doc_type", "article")
    jid = obj.get("journal_id")
    refs = obj.get("references", [])
    terms = obj.get("terms", [])
    if not is_int64(pid):
        problem = "paper_id outside the signed 64-bit range"
    elif not is_int64(year):
        # papers with missing publication year are rejected rather than guessed
        problem = "missing or non-integer year"
    elif doc_type not in DOC_TYPES:
        problem = f"unknown doc_type {doc_type!r}"
    elif jid is not None and not is_int64(jid):
        problem = f"non-integer or out-of-range journal_id {jid!r}"
    elif type(refs) is not list or not all(map(is_int64, refs)):
        problem = "references must be a list of 64-bit integers"
    elif len(set(refs)) != len(refs):
        problem = "duplicate references"
    elif pid in refs:
        problem = "cites itself"
    elif type(terms) is not str and (type(terms) is not list
                                     or not set(map(type, terms)) <= {str}):
        problem = "terms must be a string or a list of strings"
    else:
        return pid, year, doc_type, jid, refs, terms
    raise CorpusError(f"paper {pid}: {problem}", line=line, paper_id=pid)


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
    ranks: dict[int, JournalRank] = {}
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


#: lines per block of the batch loader: blocks of 256 lines ran ~7% faster at
#: 1k communities, but left a pymalloc arena in use after the corpus was freed
_BLOCK = 64
_scan = json.JSONDecoder().scan_once
#: what the batch loader raises on a line or field it cannot take
_UNREAD = (StopIteration, ValueError, TypeError, KeyError, OverflowError, RecursionError)


def _types(values) -> set:
    return set(map(type, values))


def _columns():
    """Empty columns for ``Corpus``: ids, years, doc types, has-journal flags,
    journals, reference counts, references and joined terms."""
    return (array("q"), array("q"), array("b"), array("b"), array("q"), array("q"),
            array("q"), [])


def _read_blocks(fh) -> tuple | None:
    """The columns of a papers file, decoded a block of lines at a time and
    checked by column; None where ``_read_lines`` would raise. A line is one
    JSON value: the scan must end where the line ends."""
    columns = ids, years, doc_types, has_journal, journals, n_refs, refs, terms = _columns()
    for block in iter(lambda: list(islice(fh, _BLOCK)), []):
        lines = [line for line in map(str.strip, block) if line]
        scanned = [_scan(line, 0) for line in lines]
        objs = [obj for obj, _ in scanned]
        if [end for _, end in scanned] != list(map(len, lines)) or _types(objs) - {dict}:
            return None
        pid = [o["paper_id"] for o in objs]
        year = [o["year"] for o in objs]
        jid = [o.get("journal_id") for o in objs]
        cited = [o.get("references", []) for o in objs]
        text = [o.get("terms", []) for o in objs]
        if _types(cited) - {list}:
            return None
        flat = list(chain.from_iterable(cited))
        if (_types(pid) | _types(year) | _types(flat)) - {int} \
                or _types(jid) - {int, type(None)} or _types(text) - {str, list}:
            return None
        # one row per (paper, reference), sorted: no paper cites itself or an item twice
        cites, n_cited = array("q", flat), list(map(len, cited))
        row = np.repeat(np.arange(len(objs)), n_cited)
        ref = np.frombuffer(cites, np.int64)
        ordered = ref[np.lexsort((ref, row))]
        if (ref == np.array(pid, np.int64)[row]).any() \
                or ((ordered[1:] == ordered[:-1]) & (row[1:] == row[:-1])).any():
            return None
        ids.extend(pid)
        years.extend(year)
        doc_types.extend(map(DOC_TYPES.index, [o.get("doc_type", "article") for o in objs]))
        has_journal.extend([j is not None for j in jid])
        journals.extend([j for j in jid if j is not None])
        n_refs.extend(n_cited)
        refs.extend(cites)
        # joined as normalize_terms would; a list holding a non-string is a TypeError
        terms.extend([t if type(t) is str else " ".join(t) for t in text])
    if not ids:
        return None
    sorted_ids = np.sort(np.frombuffer(ids, np.int64))
    return None if (sorted_ids[1:] == sorted_ids[:-1]).any() else columns


def _read_lines(fh) -> tuple:
    """The columns of a papers file, read and checked line by line: the one
    place a bad line is named, by the first ``CorpusError`` it raises."""
    columns = ids, years, doc_types, has_journal, journals, n_refs, refs, terms = _columns()
    seen = set()
    for i, raw in enumerate(fh, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise CorpusError(f"malformed JSON: {e.msg}", line=i) from e
        pid, year, doc_type, jid, cited, text = _parse_paper(obj, i)
        if pid in seen:
            raise CorpusError(f"duplicate paper_id {pid}", line=i, paper_id=pid)
        seen.add(pid)
        ids.append(pid)
        years.append(year)
        doc_types.append(DOC_TYPES.index(doc_type))
        has_journal.append(jid is not None)
        if jid is not None:
            journals.append(jid)
        n_refs.append(len(cited))
        refs.extend(cited)
        terms.append(text if type(text) is str else " ".join(text))
    if not ids:
        raise CorpusError("corpus is empty")
    return columns


def load_corpus(papers_path, journals_path=None) -> Corpus:
    """Load and validate a corpus.

    Duplicate paper ids and malformed lines are fatal. References to ids absent
    from the corpus are kept and flagged external. A missing journals file
    yields an empty rank table. The file is read in blocks of lines; if any
    line would fail, it is read again line by line to name the first bad one.
    """
    with open(papers_path) as fh:
        try:
            columns = _read_blocks(fh)
        except _UNREAD:
            columns = None
    if columns is None:
        with open(papers_path) as fh:
            columns = _read_lines(fh)

    ranks: dict[int, JournalRank] = {}
    if journals_path is not None and Path(journals_path).exists():
        ranks = load_journal_ranks(journals_path)
    return Corpus(*columns, ranks)


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
