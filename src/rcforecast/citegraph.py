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

    def __init__(self, node_ids, internal, indptr, indices, weights, year_cutoff=None,
                 extended=False):
        self.node_ids = node_ids            # original ids, sorted ascending
        self.internal = internal            # bool per node
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.year_cutoff = year_cutoff
        self.extended = extended

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_internal(self) -> int:
        return int(self.internal.sum())

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def index_of(self, node_id: int) -> int:
        i = int(np.searchsorted(self.node_ids, node_id))
        if i >= len(self.node_ids) or self.node_ids[i] != node_id:
            raise KeyError(f"node {node_id} not in graph")
        return i

    def neighbors(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def strengths(self) -> np.ndarray:
        src = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        return np.bincount(src, weights=self.weights, minlength=self.n_nodes)

    def dump_edgelist(self, path) -> None:
        """Write ``src\\tdst\\tweight`` with original ids, one line per edge."""
        with open(path, "w") as fh:
            for i in range(self.n_nodes):
                nbr, wts = self.neighbors(i)
                for j, w in zip(nbr.tolist(), wts.tolist()):
                    if i < j:
                        fh.write(f"{self.node_ids[i]}\t{self.node_ids[j]}\t{w:g}\n")

    @classmethod
    def from_edges(cls, edges, nodes=None, internal_ids=None, year_cutoff=None,
                   extended=False) -> "CitationGraph":
        """Build from an iterable of (u, v) id pairs; isolated nodes via ``nodes``."""
        ids = set()
        for u, v in edges:
            ids.add(u)
            ids.add(v)
        if nodes is not None:
            ids.update(nodes)
        node_ids = np.array(sorted(ids), dtype=np.int64)
        if internal_ids is None:
            internal = np.ones(len(node_ids), dtype=bool)
        else:
            internal = np.isin(node_ids, np.fromiter(internal_ids, dtype=np.int64,
                                                     count=len(internal_ids)))
        pairs = _canonical_pairs(edges, node_ids)
        indptr, indices, weights = _csr_from_pairs(pairs, len(node_ids))
        return cls(node_ids, internal, indptr, indices, weights, year_cutoff, extended)


def _canonical_pairs(edges, node_ids: np.ndarray) -> np.ndarray:
    """Map id pairs to sorted-index pairs, drop self-loops, deduplicate."""
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(edges, dtype=np.int64)
    u = np.searchsorted(node_ids, arr[:, 0])
    v = np.searchsorted(node_ids, arr[:, 1])
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = lo * len(node_ids) + hi
    key = np.unique(key)
    return np.column_stack([key // len(node_ids), key % len(node_ids)])


def _csr_from_pairs(pairs: np.ndarray, n: int):
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
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

    included = [pid for pid in sorted(corpus.papers) if corpus.papers[pid].year <= year_cutoff]
    included_set = set(included)
    raw_edges: list[tuple[int, int]] = []
    for pid in included:
        for ref in corpus.papers[pid].references:
            if ref in corpus.papers:
                if ref in included_set:
                    raw_edges.append((pid, ref))
            elif extended:
                raw_edges.append((pid, ref))

    external_ids: set[int] = set()
    if extended:
        cited_by: dict[int, int] = {}
        seen: set[tuple[int, int]] = set()
        for pid, ref in raw_edges:
            if ref not in included_set and (pid, ref) not in seen:
                seen.add((pid, ref))
                cited_by[ref] = cited_by.get(ref, 0) + 1
        # degree-1 external nodes cannot bridge anything
        external_ids = {e for e, k in cited_by.items() if k >= 2}
        raw_edges = [(p, r) for p, r in raw_edges if r in included_set or r in external_ids]

    node_ids = np.array(sorted(included_set | external_ids), dtype=np.int64)
    internal = np.isin(node_ids, np.array(included, dtype=np.int64))
    pairs = _canonical_pairs(raw_edges, node_ids)
    indptr, indices, weights = _csr_from_pairs(pairs, len(node_ids))
    return CitationGraph(node_ids, internal, indptr, indices, weights, year_cutoff, extended)


def connected_components(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Component label per node (labels are the smallest node index in each component)."""
    adjacency = sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    _, first = np.unique(labels, return_index=True)
    return first[labels]
