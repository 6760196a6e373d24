"""Year-by-year model extension without re-clustering.

New papers join existing research communities in two passes mirroring how the
global models grow: papers with references into already-assigned papers take
the RC holding the plurality of those references; papers without usable
references but with terms take the RC whose aggregate document is most related
under BM25. Assignments are computed against the partition frozen at the
previous year, so same-year papers never see each other and the result is
independent of processing order. A year's BM25 queries are scored together,
as sparse products over the corpus's paper x term matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .cluster import ClusterError, Partition
from .corpus import Corpus, CorpusError

K1 = 1.2
B = 0.75
_TIE_EPS = 1e-15
_BLOCK_CELLS = 1 << 20      # scores held densely per block of queries


def rc_documents(corpus: Corpus, assignment: dict[int, int]
                 ) -> tuple[np.ndarray, sparse.csr_array]:
    """Sorted RC ids and the RC x term counts of their aggregate documents
    (the concatenated terms of their member papers), one row per RC."""
    n, ids = len(assignment), corpus.paper_ids
    pids = np.fromiter(assignment, np.int64, n)
    rc_ids, rc_row = np.unique(np.fromiter(assignment.values(), np.int64, n),
                               return_inverse=True)
    row = np.searchsorted(ids, pids)
    unknown = pids[ids.take(row, mode="clip") != pids].tolist()
    if unknown:
        raise CorpusError(f"partition references unknown paper {unknown[0]}",
                          paper_id=unknown[0])
    members = sparse.csr_array((np.ones(n, np.int32), (rc_row, row)),
                               shape=(len(rc_ids), len(ids)))
    return rc_ids, members @ corpus.term_matrix


def bm25_score_blocks(docs: sparse.csr_array, queries: sparse.csr_array):
    """Yield dense (query block x document) arrays of Okapi BM25 scores.

    ``docs`` and ``queries`` count terms over the same columns. A score sums
    qtf*idf*tf*(K1+1)/(tf+norm), idf = ln(1 + (N - df + 0.5)/(df + 0.5)), over
    the query row's terms in stored order: each distinct (term, qtf) gets one
    weight row, qtf*idf first, and scipy adds a row's terms in stored order.
    """
    n_docs = docs.shape[0]
    doc_len = docs.sum(axis=1)
    avgdl = int(doc_len.sum()) / n_docs if n_docs else 0.0
    norm = K1 * (1.0 - B + B * doc_len / avgdl) if avgdl > 0 else np.full(n_docs, K1)
    base = int(queries.data.max(initial=0)) + 1
    pairs, col = np.unique(queries.indices.astype(np.int64) * base + queries.data,
                           return_inverse=True)
    term, qtf = np.divmod(pairs, base)
    post = docs[:, term].T.tocsr()          # one row per pair: its term's (doc, tf)
    df = np.diff(post.indptr)
    idf = np.array([math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5)) for d in df.tolist()])
    qidf = np.repeat(qtf * idf, df)
    weights = sparse.csr_array(
        (qidf * post.data * (K1 + 1.0) / (post.data + norm[post.indices]),
         post.indices, post.indptr), shape=(len(pairs), n_docs))
    ones = sparse.csr_array((np.ones(len(col)), col, queries.indptr),
                            shape=(queries.shape[0], len(pairs)))
    step = max(1, _BLOCK_CELLS // max(n_docs, 1))
    for lo in range(0, queries.shape[0], step):
        yield (ones[lo:lo + step] @ weights).toarray()


def best_columns(scores: np.ndarray) -> list[int]:
    """Per row of a score block, the column a scan in column order picks, or
    -1: the first positive score becomes best, and a later score replaces it
    only if it exceeds the best by more than 1e-15. A replacement beats every
    score before it, so only the row's strict running-max records are scanned.
    """
    record = scores > 0
    record[:, 1:] &= scores[:, 1:] > np.maximum.accumulate(scores, axis=1)[:, :-1]
    rows, cols = np.nonzero(record)
    best, top = [-1] * len(scores), [-math.inf] * len(scores)
    for r, c, s in zip(rows.tolist(), cols.tolist(), scores[rows, cols].tolist()):
        if s > top[r] + _TIE_EPS:
            best[r], top[r] = c, s
    return best


@dataclass
class AssignmentReport:
    year: int
    n_papers: int = 0
    by_references: int = 0
    by_bm25: int = 0
    unassigned: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "year": self.year,
            "n_papers": self.n_papers,
            "by_references": self.by_references,
            "by_bm25": self.by_bm25,
            "unassigned": sorted(self.unassigned),
        }


def assign_new_papers(partition: Partition, corpus: Corpus, new_year: int
                      ) -> tuple[Partition, AssignmentReport]:
    """Extend a partition by one year. Existing assignments never change.

    References are counted against the frozen prior partition; the plurality RC
    wins, ties toward the smaller rc_id. Papers with no usable references but
    nonempty terms take the best-BM25 RC, ties toward the smaller rc_id; a zero
    best score leaves the paper unassigned (no relatedness signal), as do
    papers with neither references nor terms.
    """
    if partition.extended_through is None:
        raise ClusterError("partition has no extended_through year")
    if new_year != partition.extended_through + 1:
        raise ClusterError(
            f"new_year must be {partition.extended_through + 1}, got {new_year}"
        )
    base = partition.assignment
    pids = corpus.papers_in_year(new_year)
    chosen: dict[int, int] = {}
    queries: list[int] = []
    for pid in pids:
        paper = corpus.papers[pid]
        votes: Counter = Counter()
        for ref in paper.references:
            rc = base.get(ref)
            if rc is not None:
                votes[rc] += 1
        if votes:
            top = max(votes.values())
            chosen[pid] = min(rc for rc, v in votes.items() if v == top)
        elif paper.terms:
            queries.append(pid)
    report = AssignmentReport(year=new_year, n_papers=len(pids), by_references=len(chosen))
    if queries:
        rc_ids, docs = rc_documents(corpus, base)
        rows = corpus.term_matrix[np.searchsorted(corpus.paper_ids, queries)]
        best = [i for block in bm25_score_blocks(docs, rows) for i in best_columns(block)]
        hits = {pid: int(rc_ids[i]) for pid, i in zip(queries, best) if i >= 0}
        chosen.update(hits)
        report.by_bm25 = len(hits)
    report.unassigned = [pid for pid in pids if pid not in chosen]
    new_assignment = dict(base)
    new_assignment.update((pid, chosen[pid]) for pid in pids if pid in chosen)
    updated = replace(partition, assignment=new_assignment, extended_through=new_year)
    return updated, report
