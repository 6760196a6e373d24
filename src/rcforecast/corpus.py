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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

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
    """Immutable after load; safe for concurrent reads."""

    def __init__(self, papers: dict[int, PaperRecord], ranks: dict[int, JournalRank]):
        self.papers = papers
        self.ranks = ranks
        years = [p.year for p in papers.values()]
        totals: dict[int, int] = {}
        for y in years:
            totals[y] = totals.get(y, 0) + 1
        self.meta = CorpusMeta(
            first_year=min(years) if years else 0,
            last_year=max(years) if years else 0,
            paper_count=len(papers),
            yearly_totals=totals,
        )
        # ids cited but absent from the corpus (external items)
        ext = set()
        for p in papers.values():
            for r in p.references:
                if r not in papers:
                    ext.add(r)
        self.external_ids = frozenset(ext)
        # sorted; row i of ``term_matrix`` is paper ``paper_ids[i]``
        self.paper_ids = np.array(sorted(papers), dtype=np.int64)
        self.by_year: dict[int, list[int]] = {}
        for pid in self.paper_ids.tolist():
            self.by_year.setdefault(papers[pid].year, []).append(pid)

    @cached_property
    def term_matrix(self) -> sparse.csr_array:
        """Paper x term counts, built on first use. Each row stores its terms in
        first-occurrence order, not sorted: BM25 sums a query's terms in it."""
        vocab: dict[str, int] = {}
        indices, counts, indptr = array("i"), array("i"), array("q", [0])
        for pid in self.paper_ids.tolist():
            bag = Counter(self.papers[pid].terms)
            indices.extend([vocab.setdefault(t, len(vocab)) for t in bag])
            counts.extend(bag.values())
            indptr.append(len(indices))
        matrix = sparse.csr_array((np.frombuffer(counts, np.int32),
                                   np.frombuffer(indices, np.int32),
                                   np.frombuffer(indptr, np.int64)),
                                  shape=(len(self.papers), len(vocab)))
        matrix.has_sorted_indices = False
        return matrix

    def papers_in_year(self, year: int) -> list[int]:
        return self.by_year.get(year, [])

    def is_external(self, ref_id: int) -> bool:
        return ref_id not in self.papers


def _is_int64(x) -> bool:
    # exact type check: JSON true/false and floats are not integers here;
    # ids and years go into numpy int64 arrays downstream, so they must fit one
    return type(x) is int and -2**63 <= x < 2**63


def _all_int64(xs: list) -> bool:
    return not xs or set(map(type, xs)) == {int} and -2**63 <= min(xs) and max(xs) < 2**63


def _parse_paper(obj: dict, line: int) -> PaperRecord:
    pid = obj.get("paper_id") if type(obj) is dict else None
    if type(pid) is not int:
        raise CorpusError("missing or non-integer paper_id", line=line)
    year = obj.get("year")
    doc_type = obj.get("doc_type", "article")
    jid = obj.get("journal_id")
    refs = obj.get("references", [])
    terms = obj.get("terms", [])
    if not _is_int64(pid):
        problem = "paper_id outside the signed 64-bit range"
    elif not _is_int64(year):
        # papers with missing publication year are rejected rather than guessed
        problem = "missing or non-integer year"
    elif doc_type not in DOC_TYPES:
        problem = f"unknown doc_type {doc_type!r}"
    elif jid is not None and not _is_int64(jid):
        problem = f"non-integer or out-of-range journal_id {jid!r}"
    elif type(refs) is not list or not _all_int64(refs):
        problem = "references must be a list of 64-bit integers"
    elif len(set(refs)) != len(refs):
        problem = "duplicate references"
    elif pid in refs:
        problem = "cites itself"
    elif type(terms) is not str and (type(terms) is not list
                                     or not set(map(type, terms)) <= {str}):
        problem = "terms must be a string or a list of strings"
    else:
        return PaperRecord(pid, year, doc_type, jid, tuple(refs), normalize_terms(terms))
    raise CorpusError(f"paper {pid}: {problem}", line=line, paper_id=pid)


_CSV_INT = re.compile(r"\s*-?[0-9]+\s*")


def _parse_csv_int(val, what: str, line: int) -> int:
    if val is None or not _CSV_INT.fullmatch(val):
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


def load_corpus(papers_path, journals_path=None) -> Corpus:
    """Load and validate a corpus.

    Duplicate paper ids and malformed lines are fatal. References to ids absent
    from the corpus are kept and flagged external. A missing journals file
    yields an empty rank table.
    """
    papers: dict[int, PaperRecord] = {}
    with open(papers_path) as fh:
        for i, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                raise CorpusError(f"malformed JSON: {e.msg}", line=i) from e
            rec = _parse_paper(obj, i)
            if rec.paper_id in papers:
                raise CorpusError(
                    f"duplicate paper_id {rec.paper_id}", line=i, paper_id=rec.paper_id
                )
            papers[rec.paper_id] = rec
    if not papers:
        raise CorpusError("corpus is empty")

    ranks: dict[int, JournalRank] = {}
    if journals_path is not None and Path(journals_path).exists():
        ranks = load_journal_ranks(journals_path)
    return Corpus(papers, ranks)


def save_corpus(corpus: Corpus, papers_path, journals_path=None) -> None:
    """Persist a corpus in the load formats; reload is content-identical."""
    with open(papers_path, "w") as fh:
        for pid in sorted(corpus.papers):
            p = corpus.papers[pid]
            obj = {
                "paper_id": p.paper_id,
                "year": p.year,
                "doc_type": p.doc_type,
                "journal_id": p.journal_id,
                "references": list(p.references),
                "terms": list(p.terms),
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    if journals_path is not None:
        with open(journals_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["journal_id", "citescore_rank", "eigenfactor_rank"])
            for jid in sorted(corpus.ranks):
                r = corpus.ranks[jid]
                writer.writerow(
                    [
                        jid,
                        "" if r.citescore_rank is None else r.citescore_rank,
                        "" if r.eigenfactor_rank is None else r.eigenfactor_rank,
                    ]
                )
