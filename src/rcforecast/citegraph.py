"""Undirected (extended) direct-citation graph used for clustering.

Nodes are paper ids; in extended mode, cited items absent from the corpus join
as external nodes so that papers citing common outside literature become
connected. Multiple citations between the same pair collapse to one edge of
weight 1.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .corpus import Corpus


class CitationGraph:
    """CSR adjacency over a fixed, sorted node-id set. Immutable once built."""

    def __init__(self, node_ids, internal, indptr, indices, weights, year_cutoff=None):
        self.node_ids = node_ids            # original ids, sorted ascending
        self.internal = internal            # bool per node
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.year_cutoff = year_cutoff

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_internal(self) -> int:
        return int(self.internal.sum())

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def dump_edgelist(self, path) -> None:
        """Write ``src\\tdst\\tweight`` with original ids, one line per edge."""
        src = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        upper, ids = src < self.indices, self.node_ids
        with open(path, "w") as fh:
            fh.writelines(f"{u}\t{v}\t{w:g}\n" for u, v, w in zip(
                ids[src[upper]].tolist(), ids[self.indices[upper]].tolist(),
                self.weights[upper].tolist()))

    @classmethod
    def from_edges(cls, edges, nodes=None, internal_ids=None,
                   year_cutoff=None) -> "CitationGraph":
        """Build from an iterable of (u, v) id pairs; isolated nodes via ``nodes``."""
        edges = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        node_ids = np.unique(np.concatenate([edges.ravel(), np.array(
            [] if nodes is None else list(nodes), dtype=np.int64)]))
        if internal_ids is None:
            internal = np.ones(len(node_ids), dtype=bool)
        else:
            internal = np.isin(node_ids, np.fromiter(internal_ids, dtype=np.int64,
                                                     count=len(internal_ids)))
        pairs = _canonical_pairs(edges, node_ids)
        indptr, indices, weights = _csr_from_pairs(pairs, len(node_ids))
        return cls(node_ids, internal, indptr, indices, weights, year_cutoff)


def _canonical_pairs(edges: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """Sorted index pairs of an (m, 2) array of id pairs, without self-loops or repeats."""
    u = np.searchsorted(node_ids, edges[:, 0])
    v = np.searchsorted(node_ids, edges[:, 1])
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    # a sort, not np.unique: numpy 2.3 and later hash there, many times slower
    key = np.sort(lo * len(node_ids) + hi)
    key = key[np.diff(key, prepend=key[:1] - 1) != 0]
    return np.column_stack([key // len(node_ids), key % len(node_ids)])


def _csr_from_pairs(pairs: np.ndarray, n: int):
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    dst = dst[np.argsort(src * n + dst)]
    return indptr, dst.astype(np.int64), np.ones(len(dst), dtype=np.float64)


def build_graph(corpus: Corpus, extended: bool = True, year_cutoff: int | None = None
                ) -> CitationGraph:
    """Build the citation graph from papers published through ``year_cutoff``.

    Extended mode adds cited external items as nodes (they participate in
    clustering but are dropped from RC membership downstream); external items
    cited by only one included paper are pruned. References to corpus papers
    published after the cutoff are ignored.
    """
    if year_cutoff is None:
        year_cutoff = corpus.meta.last_year
    if not (corpus.meta.first_year <= year_cutoff <= corpus.meta.last_year):
        raise ValueError(f"year_cutoff {year_cutoff} outside corpus span")

    included = corpus.year <= year_cutoff
    citing = np.repeat(np.arange(len(included)), np.diff(corpus.ref_ptr))
    kept = included[citing]
    citing, cited, cited_row = citing[kept], corpus.refs[kept], corpus.ref_row[kept]
    to_paper = cited_row >= 0
    # references to corpus papers published after the cutoff are dropped; papers
    # never cite an item twice, so occurrences count distinct citers, and
    # external items with one citer cannot bridge anything
    external_ids, inverse, citers = np.unique(cited[~to_paper], return_inverse=True,
                                              return_counts=True)
    kept = to_paper & included[cited_row]
    kept[~to_paper] = extended & (citers[inverse] >= 2)
    external_ids = external_ids[extended & (citers >= 2)]

    included_ids = corpus.paper_ids[included]
    node_ids = np.sort(np.concatenate([included_ids, external_ids]))
    internal = np.isin(node_ids, included_ids)
    edges = np.column_stack([corpus.paper_ids[citing[kept]], cited[kept]])
    pairs = _canonical_pairs(edges, node_ids)
    indptr, indices, weights = _csr_from_pairs(pairs, len(node_ids))
    return CitationGraph(node_ids, internal, indptr, indices, weights, year_cutoff)


def connected_components(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Component label per node (labels are the smallest node index in each component)."""
    adjacency = sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    _, first = np.unique(labels, return_index=True)
    return first[labels]
