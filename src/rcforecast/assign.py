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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .cluster import ClusterError, Partition
from .corpus import Corpus, lookup

K1 = 1.2
B = 0.75
_TIE_EPS = 1e-15
_BLOCK_CELLS = 1 << 20      # scores held densely per block of queries


def rc_documents(corpus: Corpus, partition: Partition
                 ) -> tuple[np.ndarray, sparse.csr_array]:
    """Sorted RC ids and the RC x term counts of their aggregate documents
    (the concatenated terms of their member papers), one row per RC."""
    row, rc_ids, rc_row = corpus.partition_rows(partition)
    members = sparse.csr_array((np.ones(len(row), np.int32), (rc_row, row)),
                               shape=(len(rc_ids), len(corpus.paper_ids)))
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
    only if it exceeds the best by more than 1e-15. That is the row's first
    maximum unless another score comes within 1e-15 of it. Only such rows are
    scanned, and only over their strict running-max records, since a
    replacement beats every score before it.
    """
    top = scores.max(axis=1, initial=0.0)
    best = np.where(top > 0, scores.argmax(axis=1) if scores.size else -1, -1)
    near = np.flatnonzero((top > 0) & ((scores + _TIE_EPS >= top[:, None]).sum(axis=1) > 1))
    block = scores[near]
    record = block > 0
    record[:, 1:] &= block[:, 1:] > np.maximum.accumulate(block, axis=1)[:, :-1]
    rows, cols = np.nonzero(record)
    high = [-math.inf] * len(scores)
    for r, c, s in zip(near[rows].tolist(), cols.tolist(), block[rows, cols].tolist()):
        if s > high[r] + _TIE_EPS:
            best[r], high[r] = c, s
    return best.tolist()


def _plurality(corpus: Corpus, new_year: int, base: Partition
               ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the ``new_year`` papers citing papers of ``base``, and for
    each the RC most of those are in, ties toward the smaller rc_id."""
    citing = np.repeat(np.arange(len(corpus.year)), np.diff(corpus.ref_ptr))
    in_year = corpus.year[citing] == new_year
    pos, voted = lookup(base.paper_ids, corpus.refs[in_year])
    rc_ids, rc_code = np.unique(base.rc[pos[voted]], return_inverse=True)
    pairs, votes = np.unique(citing[in_year][voted] * len(rc_ids) + rc_code,
                             return_counts=True)
    row, code = np.divmod(pairs, max(len(rc_ids), 1))
    ranked = np.lexsort((code, -votes, row))     # by row, most votes, smaller rc
    _, first = np.unique(row[ranked], return_index=True)
    return row[ranked[first]], rc_ids[code[ranked[first]]]


@dataclass
class AssignmentReport:
    year: int
    n_papers: int = 0
    by_references: int = 0
    by_bm25: int = 0
    unassigned: list[int] = field(default_factory=list)     # ascending


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
    in_year = corpus.year == new_year
    chosen, assigned = np.zeros(len(in_year), np.int64), np.zeros(len(in_year), bool)
    voters, voted_rc = _plurality(corpus, new_year, partition)
    chosen[voters], assigned[voters] = voted_rc, True
    report = AssignmentReport(year=new_year, n_papers=int(in_year.sum()),
                              by_references=len(voters))
    if (in_year & ~assigned).any():
        terms = corpus.term_matrix
        queries = np.flatnonzero(in_year & ~assigned & (np.diff(terms.indptr) > 0))
        if len(queries):
            rc_ids, docs = rc_documents(corpus, partition)
            best = np.array([i for block in bm25_score_blocks(docs, terms[queries])
                             for i in best_columns(block)])
            hits = queries[best >= 0]
            chosen[hits], assigned[hits] = rc_ids[best[best >= 0]], True
            report.by_bm25 = len(hits)
    report.unassigned = corpus.paper_ids[in_year & ~assigned].tolist()
    new = in_year & assigned
    # np.unique keeps the first of a repeated id: a paper of new_year already in
    # the partition takes its new rc
    ids, first = np.unique(np.concatenate([corpus.paper_ids[new], partition.paper_ids]),
                           return_index=True)
    rc = np.concatenate([chosen[new], partition.rc])[first]
    return replace(partition, paper_ids=ids, rc=rc, extended_through=new_year), report
