"""Independent brute-force oracles used by the unit and acceptance suites.

These deliberately avoid the library's data structures: partition quality is
recomputed from edge lists with dictionaries, and optima come from exhaustive
enumeration over all set partitions (Bell(8) = 4140, so n <= 8 stays fast).
Indicators, growth labels and the lifecycle table are recomputed by loops over
papers and references; only the result types and the scalar growth rule come
from the library. The sequential dict-based Leiden cores (node-by-node local
moving and refinement, the reference for the library's numpy rounds) and the
stack-walk connected components that the library replaced are kept here as
references too, and so is the per-query BM25 scorer of the model extension,
the row-based standardization, forecasts and composite fit that the indicator
table replaced, the split-then-filter term tokenizer, the refinement's
exp-weighted draw, the dict-of-records corpus with the loader, graph build,
panel and reference vote that walked it, the indicator row types with their TSV reader, the
synthetic generator with one-element numpy draws and a linear year scan, and
the dict loops over a partition: node labels, a seed's initial communities,
Leiden's canonical rc ids and the common-paper taxonomy mapping, the
line-by-line dict reader of ``partition.tsv``, the TSV writer that
formatted every cell by one rule, row by row, and the probit fit that took
separate likelihood and residual passes per Newton step, with the stepwise
selection that refitted its first variable.
"""

import json
import math
import re
import warnings
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import log_ndtr, ndtr, ndtri

from rcforecast.assign import B, K1, AssignmentReport
from rcforecast.citegraph import CitationGraph, _canonical_pairs, _csr_from_pairs
from rcforecast.cluster import _EPS, _THETA, ClusterError, Partition, _Level
from rcforecast.corpus import DOC_TYPES, CorpusError, CorpusMeta, PaperRecord, load_journal_ranks
from rcforecast.evaluate import LifecycleRow, TaxonomyMap
from rcforecast.forecast import (
    HORIZON,
    CompositeModel,
    ForecastRecord,
    growth_rate,
    label_exceptional,
)
from rcforecast.indicators import (
    _TSV_COLUMNS,
    DEFAULT_WINDOW,
    INDICATOR_NAMES,
    TOP_RANK,
    IndicatorTable,
    Panel,
    _transform,
    standardize,
)
from rcforecast.regression import (
    _LOG_SQRT_2PI,
    DEFAULT_Z_THRESHOLD,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SEPARATION_BOUND,
    CollinearityError,
    ProbitFit,
    SeparationError,
    _collinear_columns,
    _design,
    pseudo_r2,
)
from rcforecast.synth import (
    _AGE_P,
    _DEFAULT_SIGNALS,
    EXTERNAL_ID_BASE,
    SynthConfig,
    SynthResult,
    _apportion,
    _community_specs,
    _in_rise,
    _trajectory,
)


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield [[first]] + smaller


def modularity_of_blocks(edges, nodes, blocks, gamma=1.0):
    m = len(edges)
    deg = {v: 0 for v in nodes}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    q = 0.0
    for block in blocks:
        bs = set(block)
        e_in = sum(1 for u, v in edges if u in bs and v in bs)
        k = sum(deg[v] for v in block)
        q += e_in / m - gamma * (k / (2 * m)) ** 2
    return q


def cpm_of_blocks(edges, blocks, gamma=1.0):
    q = 0.0
    for block in blocks:
        bs = set(block)
        e_in = sum(1 for u, v in edges if u in bs and v in bs)
        q += e_in - gamma * len(block) * (len(block) - 1) / 2.0
    return q


def exhaustive_best_modularity(edges, nodes, gamma=1.0):
    best_q, best_blocks = -np.inf, None
    for blocks in set_partitions(nodes):
        q = modularity_of_blocks(edges, nodes, blocks, gamma)
        if q > best_q:
            best_q, best_blocks = q, blocks
    return best_q, best_blocks


def _clique(n, off=0):
    return [(i + off, j + off) for i in range(n) for j in range(i + 1, n)]


def _is_connected(edges, n):
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def small_graph_fixtures(min_count=50, seed=2024):
    """Connected graphs on <= 8 nodes: structured families with community
    structure, planted two-block graphs, and sparse random graphs."""
    graphs = []

    def add(name, edges):
        n = max(max(e) for e in edges) + 1
        if _is_connected(edges, n):
            graphs.append((name, edges, n))

    add("barbell_4_4", _clique(4) + _clique(4, 4) + [(0, 4)])
    add("two_triangles_bridge", _clique(3) + _clique(3, 3) + [(2, 3)])
    add("two_triangles_double_bridge", _clique(3) + _clique(3, 3) + [(0, 3), (1, 4)])
    add("clique_5", _clique(5))
    add("clique_8", _clique(8))
    add("cycle_6", [(i, (i + 1) % 6) for i in range(6)])
    add("cycle_8", [(i, (i + 1) % 8) for i in range(8)])
    add("path_8", [(i, i + 1) for i in range(7)])
    add("path_5", [(i, i + 1) for i in range(4)])
    add("star_8", [(0, i) for i in range(1, 8)])
    add("star_6", [(0, i) for i in range(1, 6)])
    add("triangle_tail", _clique(3) + [(2, 3), (3, 4)])
    add("square_pair", [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
    add("wheel_6", [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)])
    add("k33", [(i, j) for i in range(3) for j in range(3, 6)])

    rng = np.random.default_rng(seed)
    attempts = 0
    while len(graphs) < min_count and attempts < 4000:
        attempts += 1
        kind = attempts % 2
        n = int(rng.integers(5, 9))
        if kind == 0:  # sparse random
            p = rng.uniform(1.5 / n, 3.5 / n)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            name = f"sparse_{attempts}"
        else:          # planted two-block
            half = n // 2
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < (0.85 if (i < half) == (j < half) else 0.12)]
            name = f"planted_{attempts}"
        if edges and len({x for e in edges for x in e}) == n:
            add(name, edges)
    return graphs


# --- the dict-based Leiden cores and the stack-walk components, replaced -----
#
# Same signatures as ``rcforecast.cluster._local_move``, ``_refine``,
# ``_aggregate`` and ``connected_components``, so a test can swap them in. The
# cores visit one node at a time, read only the level's CSR arrays and draw
# with ``Generator.choice``; they take and mutate the library's array ``comm``.


def local_move(level, comm, attr, gamma, scale, div, rng):
    n = level.n
    indptr, indices, weights = level.indptr, level.indices, level.weights
    n_comm = max(comm) + 1
    cagg = [0.0] * n_comm
    members = [0] * n_comm
    for v in range(n):
        cagg[comm[v]] += attr[v]
        members[comm[v]] += 1
    free = [c for c in range(n_comm) if members[c] == 0]

    order = rng.permutation(n)
    queue = deque(order.tolist())
    queued = bytearray([1]) * n
    ind_list = indices.tolist()
    wt_list = weights.tolist()
    ptr = indptr.tolist()
    moves = 0

    while queue:
        v = queue.popleft()
        queued[v] = 0
        cv = comm[v]
        av = attr[v]
        acc = {}
        lo, hi = ptr[v], ptr[v + 1]
        for k in range(lo, hi):
            c = comm[ind_list[k]]
            acc[c] = acc.get(c, 0.0) + wt_list[k]
        cur = acc.get(cv, 0.0) - gamma * av * (cagg[cv] - av) / div
        best_c, best = cv, cur
        for c, w in acc.items():
            if c == cv:
                continue
            score = w - gamma * av * cagg[c] * scale
            if score > best + _EPS:
                best_c, best = c, score
        if 0.0 > best + _EPS:
            best_c = free.pop() if free else len(cagg)
            if best_c == len(cagg):
                cagg.append(0.0)
                members.append(0)
        if best_c == cv:
            continue
        cagg[cv] -= av
        members[cv] -= 1
        if members[cv] == 0:
            free.append(cv)
        comm[v] = best_c
        cagg[best_c] += av
        members[best_c] += 1
        moves += 1
        for k in range(lo, hi):
            u = ind_list[k]
            if comm[u] != best_c and not queued[u]:
                queued[u] = 1
                queue.append(u)
    return moves


def refine(level, comm, attr, gamma, scale, rng):
    n = level.n
    indptr, indices, weights = level.indptr, level.indices, level.weights
    rcomm = list(range(n))
    ragg = [float(a) for a in attr]
    rmembers = [1] * n
    ind_list = indices.tolist()
    wt_list = weights.tolist()
    ptr = indptr.tolist()

    for v in rng.permutation(n).tolist():
        if rmembers[rcomm[v]] != 1:
            continue
        cv = comm[v]
        av = attr[v]
        acc = {}
        for k in range(ptr[v], ptr[v + 1]):
            u = ind_list[k]
            if comm[u] == cv and rcomm[u] != rcomm[v]:
                r = rcomm[u]
                acc[r] = acc.get(r, 0.0) + wt_list[k]
        cands = []
        gains = []
        for r, w in acc.items():
            score = w - gamma * av * ragg[r] * scale
            if score > _EPS:
                cands.append(r)
                gains.append(score)
        if not cands:
            continue
        if len(cands) == 1:
            target = cands[0]
        else:
            g = np.asarray(gains)
            p = np.exp((g - g.max()) / _THETA)
            target = cands[int(rng.choice(len(cands), p=p / p.sum()))]
        old = rcomm[v]
        rmembers[old] -= 1
        rcomm[v] = target
        ragg[target] += av
        rmembers[target] += 1
    return rcomm


def aggregate(level, comm, rcomm):
    rc = np.asarray(rcomm, dtype=np.int64)
    uniq, inv = np.unique(rc, return_inverse=True)
    r = len(uniq)
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    a = inv[src]
    b = inv[level.indices]
    cross = a != b
    self_w = np.bincount(inv, weights=level.self_w, minlength=r)
    self_w += np.bincount(a[~cross], weights=level.weights[~cross], minlength=r) / 2.0
    key = a[cross] * r + b[cross]
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    w_s = level.weights[cross][order]
    if len(key_s):
        starts = np.flatnonzero(np.concatenate(([True], key_s[1:] != key_s[:-1])))
        uk = key_s[starts]
        wsum = np.add.reduceat(w_s, starts)
    else:
        uk = np.empty(0, dtype=np.int64)
        wsum = np.empty(0)
    na = (uk // r).astype(np.int64)
    nb = (uk % r).astype(np.int64)
    indptr = np.zeros(r + 1, dtype=np.int64)
    np.add.at(indptr, na + 1, 1)
    indptr = np.cumsum(indptr)
    sizes = np.bincount(inv, weights=level.sizes, minlength=r).astype(np.int64)
    strengths = np.bincount(inv, weights=level.strengths, minlength=r)
    new_level = _Level(indptr, nb, wsum, self_w, sizes, strengths)
    comm_next_arr = np.zeros(r, dtype=np.int64)
    comm_next_arr[inv] = np.asarray(comm, dtype=np.int64)
    return new_level, inv, comm_next_arr


def connected_components_bfs(indptr, indices, n):
    """Component label per node: the smallest node index in its component."""
    label = np.full(n, -1, dtype=np.int64)
    for seed in range(n):
        if label[seed] >= 0:
            continue
        label[seed] = seed
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in indices[indptr[x]:indptr[x + 1]].tolist():
                if label[y] < 0:
                    label[y] = seed
                    stack.append(y)
    return label


# --- the dict-walking partition code the columnar Partition replaced --------
#
# Node labels of a partition, a seed's initial communities, Leiden's canonical
# rc ids and the common-paper taxonomy mapping, each as a loop over the
# partition's dicts (read here through its ``assignment`` and
# ``external_assignment`` views).


def labels_from(graph, partition):
    if isinstance(partition, np.ndarray):
        return partition
    assignment = partition.assignment if isinstance(partition, Partition) else dict(partition)
    external = getattr(partition, "external_assignment", {})
    labels = np.empty(graph.n_nodes, dtype=np.int64)
    fresh = -1
    for i, nid in enumerate(graph.node_ids.tolist()):
        rc = assignment.get(nid)
        if rc is None:
            rc = external.get(nid)
        if rc is None:
            labels[i] = fresh
            fresh -= 1
        else:
            labels[i] = rc
    return labels


def initial_communities(graph, seed):
    if seed is None:
        return list(range(graph.n_nodes))
    rc_ids = sorted(set(seed.assignment.values()) | set(seed.external_assignment.values()))
    relabel = {rc: i for i, rc in enumerate(rc_ids)}
    nxt = len(rc_ids)
    comm = []
    for nid in graph.node_ids.tolist():
        rc = seed.assignment.get(nid)
        if rc is None:
            rc = seed.external_assignment.get(nid)
        if rc is None:
            comm.append(nxt)
            nxt += 1
        else:
            comm.append(relabel[rc])
    return comm


def canonical_ids(graph, flat):
    """Leiden's closing loop: (assignment, external_assignment, rc_count) of
    one label per node."""
    # canonical rc ids: communities ordered by their smallest internal paper id
    node_ids = graph.node_ids.tolist()
    internal = graph.internal
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(flat.tolist()):
        groups.setdefault(lab, []).append(i)
    keyed = []
    for lab, members in groups.items():
        pids = [node_ids[i] for i in members if internal[i]]
        if pids:
            keyed.append((min(pids), lab, members))
    keyed.sort()
    assignment: dict[int, int] = {}
    external_assignment: dict[int, int] = {}
    for rc, (_, _, members) in enumerate(keyed):
        for i in members:
            if internal[i]:
                assignment[node_ids[i]] = rc
            else:
                external_assignment[node_ids[i]] = rc
    return assignment, external_assignment, len(keyed)


def int_cell(text: str) -> int:
    """The integer a partition cell holds: an optional minus and ASCII digits,
    so not ``+5``, ``1_000`` or a non-ASCII digit, which ``int`` would take."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer cell: {text!r}")
    return int(text)


def read_partition_rows(tsv_path) -> dict[int, int]:
    """The rows of ``partition.tsv`` by the dict loop ``load_partition`` once
    ran, each cell read by ``int_cell``: ClusterError for the first bad line,
    ids of any size."""
    with open(tsv_path) as fh:
        header = fh.readline()
        if header.strip() != "paper_id\trc_id":
            raise ClusterError(f"bad partition header: {header.strip()!r}")
        assignment: dict[int, int] = {}
        try:
            for i, line in enumerate(fh, start=2):
                pid, rc = line.split()
                assignment[int_cell(pid)] = int_cell(rc)
                if len(assignment) < i - 1:     # lines 2..i hold i - 1 rows
                    raise ClusterError(f"partition line {i}: duplicate paper_id {pid}")
        except ValueError:
            raise ClusterError(f"partition line {i}: expected paper_id and rc_id, "
                               f"got {line.strip()!r}") from None
    return assignment


def _tsv_cell(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "1" if value else "0"
    return str(value)           # a float's str is its repr


def write_tsv_rows(path, header, rows) -> None:
    """``header`` and then each of ``rows``, a sequence of cells, as a line,
    every cell by the one cell rule."""
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(map(_tsv_cell, row)) + "\n" for row in rows)


def taxonomy_from_common_papers(partition, reference, reference_taxonomy):
    """Map each RC onto the reference taxonomy via the reference RC sharing
    the most papers with it."""
    overlap: dict[int, dict[int, int]] = {}
    for pid, rc in partition.assignment.items():
        ref_rc = reference.assignment.get(pid)
        if ref_rc is None:
            continue
        overlap.setdefault(rc, {}).setdefault(ref_rc, 0)
        overlap[rc][ref_rc] += 1
    mapping = {}
    for rc, counts in overlap.items():
        top = max(counts.values())
        ref_rc = min(r for r, c in counts.items() if c == top)
        pair = reference_taxonomy.mapping.get(ref_rc)
        if pair is not None:
            mapping[rc] = pair
    return TaxonomyMap(mapping, method="common-paper matching")


# --- indicator rows and the TSV reader that builds them ----------------------
#
# The library keeps a forecast year's indicators as an IndicatorTable; these
# row types, one per (rc_id, fy), are what the row-based oracles below and the
# TSV round-trip tests compare against.


@dataclass(frozen=True)
class RawIndicators:
    rc_id: int
    fy: int
    pk: int
    stage: float
    cvit: float
    rvit: float | None          # None when the RC has no datable references in FY
    delta_rvit: float
    ntopj: int
    ctopj: int
    eigen: int
    nart: int
    nrev: int
    nref: int
    papers_in_fy: int

    def value(self, name: str):
        return getattr(self, name)


@dataclass(frozen=True)
class StandardizedIndicators:
    rc_id: int
    fy: int
    stage_s: float
    cvit_s: float
    rvit_s: float
    delta_rvit_s: float
    ntopj_s: float
    ctopj_s: float
    eigen_s: float
    nart_s: float
    nrev_s: float
    nref_s: float

    def value(self, name: str) -> float:
        return getattr(self, name + "_s")


def read_indicator_tsv(path) -> tuple[list[RawIndicators], list[StandardizedIndicators]]:
    raw_rows: list[RawIndicators] = []
    std_rows: list[StandardizedIndicators] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != _TSV_COLUMNS:
            raise ValueError(f"unexpected indicator header: {header}")
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            rc_id, fy, pk, papers_in_fy = (int(c) for c in cells[:4])
            raw_vals = cells[4:4 + len(INDICATOR_NAMES)]
            std_vals = cells[4 + len(INDICATOR_NAMES):]
            kwargs = {}
            for name, cell in zip(INDICATOR_NAMES, raw_vals):
                if name in ("ntopj", "ctopj", "eigen", "nart", "nrev", "nref"):
                    kwargs[name] = int(cell)
                elif name == "rvit" and cell == "nan":
                    kwargs[name] = None
                else:
                    kwargs[name] = float(cell)
            raw_rows.append(RawIndicators(rc_id=rc_id, fy=fy, pk=pk,
                                          papers_in_fy=papers_in_fy, **kwargs))
            std_rows.append(StandardizedIndicators(
                rc_id=rc_id, fy=fy,
                **{n + "_s": float(c) for n, c in zip(INDICATOR_NAMES, std_vals)},
            ))
    return raw_rows, std_rows


# --- the per-paper indicator engine the RC x year panel replaced -------------
#
# Kept verbatim in behaviour: dict-of-lists membership, Python loops over
# papers and references, and a share table rebuilt per caller. The panel is
# tested against it.


def _assignment_of(partition):
    return partition.assignment if hasattr(partition, "assignment") else partition


class ShareTable:
    """Per-RC yearly paper counts and shares (corpus-wide yearly totals)."""

    def __init__(self, corpus, partition):
        assignment = _assignment_of(partition)
        y0, y1 = corpus.meta.first_year, corpus.meta.last_year
        self.first_year, self.last_year = y0, y1
        self.totals = np.array(
            [corpus.meta.yearly_totals.get(y, 0) for y in range(y0, y1 + 1)], dtype=np.int64)
        self.rc_ids = sorted(set(assignment.values()))
        self._row = {rc: i for i, rc in enumerate(self.rc_ids)}
        counts = np.zeros((len(self.rc_ids), y1 - y0 + 1), dtype=np.int64)
        for pid, rc in assignment.items():
            try:
                year = corpus.papers[pid].year
            except KeyError:
                raise CorpusError(f"partition references unknown paper {pid}", paper_id=pid)
            counts[self._row[rc], year - y0] += 1
        self.counts = counts

    def papers_in(self, rc_id, year):
        row = self._row.get(rc_id)
        if row is None or not (self.first_year <= year <= self.last_year):
            return 0
        return int(self.counts[row, year - self.first_year])

    def share(self, rc_id, year):
        if not (self.first_year <= year <= self.last_year):
            raise CorpusError(f"year {year} outside corpus span")
        total = int(self.totals[year - self.first_year])
        if total == 0:
            raise CorpusError(f"empty year {year}")
        return self.papers_in(rc_id, year) / total

    def shares(self, rc_id):
        out = {}
        for y in range(self.first_year, self.last_year + 1):
            total = int(self.totals[y - self.first_year])
            if total > 0:
                out[y] = self.papers_in(rc_id, y) / total
        return out


def peak_year(shares, fy):
    """Latest year through ``fy`` at which the share attains its maximum."""
    candidates = {y: s for y, s in shares.items() if y <= fy}
    if not candidates or max(candidates.values()) <= 0.0:
        raise ValueError(f"RC has no papers through {fy}")
    peak = max(candidates.values())
    return max(y for y, s in candidates.items() if s == peak)


class IndicatorEngine:
    """Raw indicators per (RC, forecast year) by loops over papers and references."""

    def __init__(self, corpus, partition, window=DEFAULT_WINDOW, top_rank=TOP_RANK):
        self.corpus = corpus
        self.partition = partition
        self.ranks = corpus.ranks
        self.window = window
        self.top_rank = top_rank
        self.shares = ShareTable(corpus, partition)
        assignment = _assignment_of(partition)
        members = {}
        for pid in sorted(assignment):
            rc = assignment[pid]
            year = corpus.papers[pid].year
            members.setdefault(rc, {}).setdefault(year, []).append(pid)
        self._members = members
        self._rvit_cache = {}

    def rc_ids(self):
        return sorted(self._members)

    def _papers(self, rc_id, year):
        return self._members.get(rc_id, {}).get(year, [])

    def _in_top(self, journal_id, which):
        if journal_id is None:
            return False
        rank = self.ranks.get(journal_id)
        if rank is None:
            return False
        value = rank.citescore_rank if which == "citescore" else rank.eigenfactor_rank
        return value is not None and value <= self.top_rank

    def _rvit(self, rc_id, year):
        key = (rc_id, year)
        if key in self._rvit_cache:
            return self._rvit_cache[key]
        total = 0.0
        n = 0
        for pid in self._papers(rc_id, year):
            for ref in self.corpus.papers[pid].references:
                target = self.corpus.papers.get(ref)
                if target is None:
                    continue
                age = max(year - target.year, 0)
                total += 1.0 / (age + 1)
                n += 1
        out = (total / n) if n else None
        self._rvit_cache[key] = out
        return out

    def raw(self, rc_id, fy):
        window_papers = []
        for y in range(fy - self.window, fy + 1):
            window_papers.extend(self._papers(rc_id, y))
        if not window_papers:
            return None

        pk = peak_year(self.shares.shares(rc_id), fy)
        stage = 1.0 / (fy - pk + 1)

        cvit = sum(
            1.0 / (fy - self.corpus.papers[pid].year + 1) for pid in window_papers
        ) / len(window_papers)

        rvit = self._rvit(rc_id, fy)
        history = [self._rvit(rc_id, y) for y in range(fy - self.window, fy)]
        history = [h for h in history if h is not None]
        if rvit is None or len(history) < 3:
            delta_rvit = 0.0
        else:
            mean = float(np.mean(history))
            std = float(np.std(history))
            delta_rvit = 0.0 if std < 1e-12 else (rvit - mean) / std
            delta_rvit = min(max(delta_rvit, -5.0), 5.0)

        fy_papers = self._papers(rc_id, fy)
        ntopj = eigen = ctopj = nart = nrev = nref = 0
        for pid in fy_papers:
            paper = self.corpus.papers[pid]
            if self._in_top(paper.journal_id, "citescore"):
                ntopj += 1
            if self._in_top(paper.journal_id, "eigenfactor"):
                eigen += 1
            if paper.doc_type == "article":
                nart += 1
            elif paper.doc_type == "review":
                nrev += 1
            nref += len(paper.references)
            for ref in paper.references:
                target = self.corpus.papers.get(ref)
                if target is not None and self._in_top(target.journal_id, "citescore"):
                    ctopj += 1

        return RawIndicators(
            rc_id=rc_id, fy=fy, pk=pk, stage=stage, cvit=cvit, rvit=rvit,
            delta_rvit=delta_rvit, ntopj=ntopj, ctopj=ctopj, eigen=eigen,
            nart=nart, nrev=nrev, nref=nref, papers_in_fy=len(fy_papers),
        )

    def rows(self, fy):
        out = []
        for rc in self.rc_ids():
            row = self.raw(rc, fy)
            if row is not None:
                out.append(row)
        return out


def growth_labels(corpus, partition, raw_rows):
    """(rc_id, growth rate, outcome) per row, as forecasts attach them."""
    model_year = partition.model_year
    extended = getattr(partition, "extended_through", model_year)
    shares = ShareTable(corpus, partition)
    out = []
    for raw in raw_rows:
        ty = raw.fy + HORIZON
        gr = outcome = None
        if ty <= corpus.meta.last_year and ty <= extended:
            gr = growth_rate(shares.shares(raw.rc_id), raw.pk, ty)
            outcome = label_exceptional(gr)
        out.append((raw.rc_id, gr, outcome))
    return out


def lifecycle_report(partition, corpus, fy, min_papers=0, window=DEFAULT_WINDOW):
    """Time-since-peak table by a loop over RCs."""
    shares = ShareTable(corpus, partition)
    extended = getattr(partition, "extended_through", None)
    if extended is None:
        extended = corpus.meta.last_year
    can_xg = fy + HORIZON <= min(corpus.meta.last_year, extended)
    can_peak = fy + 1 <= min(corpus.meta.last_year, extended)

    buckets = {str(g): [] for g in range(6)}
    buckets[">5"] = []
    for rc in shares.rc_ids:
        if shares.papers_in(rc, fy) < min_papers:
            continue
        if sum(shares.papers_in(rc, y) for y in range(fy - window, fy + 1)) == 0:
            continue
        pk = peak_year(shares.shares(rc), fy)
        gap = fy - pk
        buckets["%d" % gap if gap <= 5 else ">5"].append((rc, pk))

    total = sum(len(v) for v in buckets.values())
    rows = []
    for gap_label in [str(g) for g in range(6)] + [">5"]:
        members = buckets[gap_label]
        n_rc = len(members)
        stage = 1.0 / (int(gap_label) + 1) if gap_label != ">5" else None
        n_xg = pct_xg = n_new = pct_new = None
        if n_rc and can_xg:
            n_xg = sum(label_exceptional(growth_rate(shares.shares(rc), pk, fy + HORIZON))
                       for rc, pk in members)
            pct_xg = 100.0 * n_xg / n_rc
        if n_rc and can_peak:
            n_new = sum(1 for rc, pk in members
                        if shares.share(rc, fy + 1) > shares.share(rc, pk))
            pct_new = 100.0 * n_new / n_rc
        rows.append(LifecycleRow(
            gap=gap_label, stage=stage, n_rc=n_rc,
            pct_rc=(100.0 * n_rc / total) if total else 0.0,
            n_xg=n_xg, pct_xg=pct_xg, n_new_peak=n_new, pct_new_peak=pct_new,
        ))
    return rows


# --- the row-based standardization, forecasts and fit the table replaced -----
#
# One RawIndicators / StandardizedIndicators dataclass per (RC, fy), a share
# dict per RC for each outcome, and a scalar composite score per row. The
# array-backed table, records and composite are tested against these.


def raw_rows(raw, fy):
    """The RawIndicators rows of ``Panel.columns(fy)``, undefined rvit as None."""
    columns = {name: raw[name].tolist() for name in raw}
    columns["rvit"] = [None if math.isnan(v) else v for v in columns["rvit"]]
    return [RawIndicators(fy=fy, **dict(zip(columns, values)))
            for values in zip(*columns.values())]


def table_of(rows):
    """The IndicatorTable of hand-built RawIndicators rows of one forecast
    year, standardized by the library; ValueError for rows of several fys."""
    fys = {r.fy for r in rows}
    if len(fys) > 1:
        raise ValueError(f"rows span multiple forecast years: {sorted(fys)}")
    raw = {name: np.array([math.nan if getattr(r, name) is None else getattr(r, name)
                           for r in rows],
                          dtype=float if name in ("stage", "cvit", "rvit", "delta_rvit")
                          else np.int64)
           for name in ("rc_id", "pk", "papers_in_fy", *INDICATOR_NAMES)}
    fy = rows[0].fy if rows else 0
    return IndicatorTable(fy, raw, standardize(raw, fy))


def std_rows(table):
    """The StandardizedIndicators rows of an IndicatorTable."""
    columns = {name + "_s": table.std[name].tolist() for name in INDICATOR_NAMES}
    return [StandardizedIndicators(rc_id=rc, fy=table.fy, **dict(zip(columns, values)))
            for rc, *values in zip(table.raw["rc_id"].tolist(), *columns.values())]


def transform_and_standardize(rows):
    if len(rows) < 2:
        raise ValueError("standardization needs at least 2 rows")
    fys = {r.fy for r in rows}
    if len(fys) != 1:
        raise ValueError(f"rows span multiple forecast years: {sorted(fys)}")
    columns = {}
    for name in INDICATOR_NAMES:
        vals = np.array(
            [math.nan if r.value(name) is None else float(r.value(name)) for r in rows]
        )
        defined = ~np.isnan(vals)
        t = np.full(len(rows), math.nan)
        t[defined] = _transform(name, vals[defined])
        mean = float(np.mean(t[defined]))
        std = float(np.std(t[defined]))
        if std < 1e-12:
            warnings.warn(f"indicator {name} is constant in fy={rows[0].fy}; "
                          "standardized values set to 0")
            z = np.zeros(len(rows))
        else:
            z = (t - mean) / std
            z[~defined] = 0.0
        if name == "rvit":
            z = np.clip(z, -3.0, 3.0)
        columns[name] = z
    return [StandardizedIndicators(
        rc_id=r.rc_id, fy=r.fy,
        **{name + "_s": float(columns[name][i]) for name in INDICATOR_NAMES})
        for i, r in enumerate(rows)]


def composite_score(std, model):
    values = {name: std.value(name) for name in INDICATOR_NAMES}
    score = 0.0
    for name, coef in zip(model.variables, model.coefficients):
        if name not in values:
            raise KeyError(f"standardized indicator {name!r} missing")
        score += coef * values[name]
    return score


def _shares_of(panel, rc_id):
    years = range(panel.first_year, panel.last_year + 1)
    values = panel.shares[int(np.searchsorted(panel.rc_ids, rc_id))].tolist()
    return {y: s for y, s, t in zip(years, values, panel.totals) if t > 0}


def build_forecasts(panel, raw_rows, std_rows, model, min_papers=0):
    if len(raw_rows) != len(std_rows):
        raise ValueError("raw and standardized rows misaligned")
    model_year = getattr(panel.partition, "model_year", None)
    if model_year is None:
        raise ValueError("partition has no model_year; cannot compute relative year")
    extended = getattr(panel.partition, "extended_through", model_year)
    out = []
    for raw, std in zip(raw_rows, std_rows):
        if (raw.rc_id, raw.fy) != (std.rc_id, std.fy):
            raise ValueError("raw and standardized rows misaligned")
        if raw.papers_in_fy < min_papers:
            continue
        ty = raw.fy + HORIZON
        outcome = None
        gr = None
        if ty <= panel.last_year and ty <= extended:
            gr = growth_rate(_shares_of(panel, raw.rc_id), raw.pk, ty)
            outcome = label_exceptional(gr)
        out.append(ForecastRecord(
            rc_id=raw.rc_id, fy=raw.fy, ty=ty, ry=raw.fy - model_year,
            score=composite_score(std, model), predicted=0,
            papers_in_fy=raw.papers_in_fy, outcome=outcome, growth_rate=gr,
        ))
    return out


def fit_composite(panel, tables, min_papers=20, z_threshold=4.0):
    """``tables`` maps each fit year to its (raw_rows, std_rows)."""
    default = CompositeModel.default()
    fys = sorted(tables)
    xs, ys = [], []
    for fy in fys:
        raw, std = tables[fy]
        records = build_forecasts(panel, raw, std, default, min_papers=min_papers)
        by_rc = {r.rc_id: r for r in records}
        for raw_row, std_row in zip(raw, std):
            rec = by_rc.get(raw_row.rc_id)
            if rec is None or rec.outcome is None:
                continue
            xs.append([std_row.value(name) for name in INDICATOR_NAMES])
            ys.append(rec.outcome)
    if not xs:
        raise ValueError(f"no outcome-bearing rows for fys {fys}; "
                         "corpus or model does not extend 3 years past them")
    X = np.asarray(xs)
    y = np.asarray(ys, dtype=float)
    model = stepwise_select(X, y, INDICATOR_NAMES, z_threshold=z_threshold)
    model.meta.update({"fit_fys": fys, "min_papers": min_papers,
                       "n_rows": len(ys), "positives": int(y.sum())})
    return model


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def normalize_terms(raw):
    pieces = [raw] if isinstance(raw, str) else [str(t) for t in raw]
    out = []
    for piece in pieces:
        for tok in _TOKEN_SPLIT.split(piece.lower()):
            if len(tok) >= 2:
                out.append(tok)
    return tuple(out)


# --- the per-query BM25 extension the sparse scorer replaced -----------------
#
# Dict-of-Counter RC documents rebuilt per year, a posting walk per query, and
# a Python scan for the best RC. The sparse scorer is tested against it.


class RcDocumentStats:
    """Per-RC aggregate documents (concatenated member-paper terms) for BM25.

    ``n_docs`` is the number of RC documents, ``df`` counts RCs containing each
    term, and postings map term -> [(rc_id, tf), ...] for sparse scoring.
    """

    def __init__(self, doc_tf):
        self.doc_tf = doc_tf
        self.doc_len = {rc: sum(tf.values()) for rc, tf in doc_tf.items()}
        self.n_docs = len(doc_tf)
        self.avgdl = (sum(self.doc_len.values()) / self.n_docs) if self.n_docs else 0.0
        df = Counter()
        postings = {}
        for rc in sorted(doc_tf):
            for term, tf in doc_tf[rc].items():
                df[term] += 1
                postings.setdefault(term, []).append((rc, tf))
        self.df = dict(df)
        self.postings = postings

    @classmethod
    def from_partition(cls, corpus, partition):
        assignment = _assignment_of(partition)
        doc_tf = {}
        for pid in sorted(assignment):
            rc = assignment[pid]
            if rc not in doc_tf:
                doc_tf[rc] = Counter()
            doc_tf[rc].update(corpus.papers[pid].terms)
        return cls(doc_tf)

    def idf(self, term):
        # non-negative IDF variant
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def bm25_relatedness(query_terms, stats, rc_id, k1=K1, b=B):
    """Okapi BM25 score of one RC aggregate document against a query term bag."""
    tf_doc = stats.doc_tf.get(rc_id)
    if tf_doc is None:
        raise KeyError(f"rc {rc_id} has no aggregate document")
    dl = stats.doc_len[rc_id]
    norm = k1 * (1.0 - b + b * dl / stats.avgdl) if stats.avgdl > 0 else k1
    score = 0.0
    for term, qtf in Counter(query_terms).items():
        tf = tf_doc.get(term, 0)
        if tf == 0:
            continue
        score += qtf * stats.idf(term) * tf * (k1 + 1.0) / (tf + norm)
    return score


def bm25_best_rc(query_terms, stats, k1=K1, b=B):
    """(rc_id, score) with the highest positive BM25 score, or None.

    Ties break toward the smaller rc_id.
    """
    scores = {}
    for term, qtf in Counter(query_terms).items():
        posting = stats.postings.get(term)
        if not posting:
            continue
        idf = stats.idf(term)
        for rc, tf in posting:
            dl = stats.doc_len[rc]
            norm = k1 * (1.0 - b + b * dl / stats.avgdl) if stats.avgdl > 0 else k1
            scores[rc] = scores.get(rc, 0.0) + qtf * idf * tf * (k1 + 1.0) / (tf + norm)
    best = None
    for rc in sorted(scores):
        if scores[rc] > 0.0 and (best is None or scores[rc] > scores[best] + 1e-15):
            best = rc
    if best is None:
        return None
    return best, scores[best]


def assign_new_papers(partition, corpus, new_year, k1=K1, b=B):
    """The extension step paper by paper: plurality vote, then BM25."""
    if partition.extended_through is None:
        raise ClusterError("partition has no extended_through year")
    if new_year != partition.extended_through + 1:
        raise ClusterError(
            f"new_year must be {partition.extended_through + 1}, got {new_year}"
        )
    base = partition.assignment
    stats = None  # built lazily; most corpora assign nearly everything by references
    report = AssignmentReport(year=new_year)
    added = {}
    for pid in sorted(p.paper_id for p in corpus.papers.values() if p.year == new_year):
        report.n_papers += 1
        paper = corpus.papers[pid]
        votes = Counter()
        for ref in paper.references:
            rc = base.get(ref)
            if rc is not None:
                votes[rc] += 1
        if votes:
            top = max(votes.values())
            added[pid] = min(rc for rc, v in votes.items() if v == top)
            report.by_references += 1
            continue
        if paper.terms:
            if stats is None:
                stats = RcDocumentStats.from_partition(corpus, partition)
            hit = bm25_best_rc(paper.terms, stats, k1=k1, b=b)
            if hit is not None:
                added[pid] = hit[0]
                report.by_bm25 += 1
                continue
        report.unassigned.append(pid)

    new_assignment = dict(partition.assignment)
    new_assignment.update(added)
    updated = Partition.from_assignment(
        new_assignment, partition.external_assignment, model_year=partition.model_year,
        rc_count=partition.rc_count, quality=partition.quality, extended_through=new_year,
        config_used=partition.config_used)
    return updated, report


# --- the dict-of-records corpus the columnar corpus replaced -----------------
#
# The loader that built one frozen PaperRecord per line, the corpus over the
# record dict, and the graph build, panel and reference vote that walked it.
# The columnar corpus and its consumers are tested against them. Terms go
# through the split-then-filter tokenizer above.


def _is_int64(x):
    return type(x) is int and -2**63 <= x < 2**63


def _all_int64(xs):
    return not xs or set(map(type, xs)) == {int} and -2**63 <= min(xs) and max(xs) < 2**63


def _parse_paper(obj, line):
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


def load_corpus(papers_path, journals_path=None):
    papers = {}
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
    ranks = {}
    if journals_path is not None and Path(journals_path).exists():
        ranks = load_journal_ranks(journals_path)
    return DictCorpus(papers, ranks)


class DictCorpus:
    """Papers as a dict of records by id."""

    def __init__(self, papers, ranks):
        self.papers = papers
        self.ranks = ranks
        years = [p.year for p in papers.values()]
        totals = {}
        for y in years:
            totals[y] = totals.get(y, 0) + 1
        self.meta = CorpusMeta(
            first_year=min(years) if years else 0,
            last_year=max(years) if years else 0,
            paper_count=len(papers),
            yearly_totals=totals,
        )
        ext = set()
        for p in papers.values():
            for r in p.references:
                if r not in papers:
                    ext.add(r)
        self.external_ids = frozenset(ext)
        self.paper_ids = np.array(sorted(papers), dtype=np.int64)
        self.by_year = {}
        for pid in self.paper_ids.tolist():
            self.by_year.setdefault(papers[pid].year, []).append(pid)

    @cached_property
    def term_matrix(self):
        vocab = {}
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

    def papers_in_year(self, year):
        return self.by_year.get(year, [])


def build_graph(corpus, extended=True, year_cutoff=None):
    """The graph build over a ``DictCorpus``, reference by reference."""
    if year_cutoff is None:
        year_cutoff = corpus.meta.last_year
    if not (corpus.meta.first_year <= year_cutoff <= corpus.meta.last_year):
        raise ValueError(f"year_cutoff {year_cutoff} outside corpus span")
    included = [pid for pid in sorted(corpus.papers) if corpus.papers[pid].year <= year_cutoff]
    included_set = set(included)
    raw_edges = []
    for pid in included:
        for ref in corpus.papers[pid].references:
            if ref in corpus.papers:
                if ref in included_set:
                    raw_edges.append((pid, ref))
            elif extended:
                raw_edges.append((pid, ref))
    external_ids = set()
    if extended:
        cited_by = {}
        seen = set()
        for pid, ref in raw_edges:
            if ref not in included_set and (pid, ref) not in seen:
                seen.add((pid, ref))
                cited_by[ref] = cited_by.get(ref, 0) + 1
        external_ids = {e for e, k in cited_by.items() if k >= 2}
        raw_edges = [(p, r) for p, r in raw_edges if r in included_set or r in external_ids]
    node_ids = np.array(sorted(included_set | external_ids), dtype=np.int64)
    internal = np.isin(node_ids, np.array(included, dtype=np.int64))
    edges = np.array(raw_edges, dtype=np.int64).reshape(-1, 2)
    pairs = _canonical_pairs(edges, node_ids)
    indptr, indices, weights = _csr_from_pairs(pairs, len(node_ids))
    return CitationGraph(node_ids, internal, indptr, indices, weights, year_cutoff)


def _top(rank, which):
    value = None if rank is None else getattr(rank, which)
    return value is not None and value <= TOP_RANK


class DictPanel(Panel):
    """The panel's per-paper and per-reference arrays built from a
    ``DictCorpus`` by walking its records."""

    def __init__(self, corpus, partition, window=DEFAULT_WINDOW):
        assignment = partition.assignment if hasattr(partition, "assignment") else partition
        unknown = next((pid for pid in assignment if pid not in corpus.papers), None)
        if unknown is not None:
            raise CorpusError(f"partition references unknown paper {unknown}",
                              paper_id=unknown)
        self.partition = partition
        self.window = window
        y0, y1 = corpus.meta.first_year, corpus.meta.last_year
        self.first_year, self.last_year = y0, y1
        self.rc_ids = np.array(sorted(set(assignment.values())), dtype=np.int64)
        self._row = {rc: i for i, rc in enumerate(self.rc_ids.tolist())}
        n_rc, n_years = len(self.rc_ids), y1 - y0 + 1

        papers = corpus.papers
        order = [pid for y in range(y0, y1 + 1) for pid in corpus.papers_in_year(y)]
        index = {pid: i for i, pid in enumerate(order)}
        n = len(order)
        year = np.fromiter((papers[p].year for p in order), np.int64, n)
        journal = [papers[p].journal_id for p in order]
        top_cs = np.fromiter((_top(corpus.ranks.get(j), "citescore_rank") for j in journal),
                             bool, n)
        top_eigen = np.fromiter((_top(corpus.ranks.get(j), "eigenfactor_rank")
                                 for j in journal), bool, n)
        doc = [papers[p].doc_type for p in order]
        article = np.fromiter((d == "article" for d in doc), bool, n)
        review = np.fromiter((d == "review" for d in doc), bool, n)
        n_refs = np.fromiter((len(papers[p].references) for p in order), np.int64, n)
        rc = np.fromiter((self._row.get(assignment.get(p), -1) for p in order), np.int64, n)
        cell = np.where(rc >= 0, rc * n_years + (year - y0), -1)

        citing = np.repeat(np.arange(n), n_refs)
        cited = np.fromiter((index.get(r, -1) for p in order for r in papers[p].references),
                            np.int64, len(citing))
        datable = (cited >= 0) & (cell[citing] >= 0)
        citing, cited = citing[datable], cited[datable]
        ref_cell = cell[citing]
        reciprocal_age = 1.0 / (np.maximum(year[citing] - year[cited], 0) + 1)

        member = rc >= 0
        size = n_rc * n_years

        def cube(cells, weights=None):
            out = np.bincount(cells, weights=weights, minlength=size)
            return out.reshape(n_rc, n_years)

        self.counts = cube(cell[member])
        self._cubes = {
            "nart": cube(cell[member & article]),
            "nrev": cube(cell[member & review]),
            "ntopj": cube(cell[member & top_cs]),
            "eigen": cube(cell[member & top_eigen]),
            "nref": cube(cell[member], n_refs[member]).astype(np.int64),
            "ctopj": cube(ref_cell[top_cs[cited]]),
        }
        rvit_n = cube(ref_cell)
        rvit_sum = cube(ref_cell, reciprocal_age)
        self._rvit = np.divide(rvit_sum, rvit_n, out=np.full(rvit_sum.shape, np.nan),
                               where=rvit_n > 0)
        self.totals = np.array([corpus.meta.yearly_totals.get(y, 0) for y in range(y0, y1 + 1)],
                               dtype=np.int64)
        self.shares = np.divide(self.counts, self.totals, out=np.zeros(self.counts.shape),
                                where=self.totals > 0)
        self._paper_rc, self._paper_year = rc[member], year[member]


def plurality_vote(corpus, partition, new_year):
    """paper -> RC for the papers of ``new_year`` with references assigned in
    the partition: the plurality RC, ties toward the smaller rc_id."""
    base = partition.assignment
    chosen = {}
    for pid in corpus.papers_in_year(new_year):
        votes = Counter()
        for ref in corpus.papers[pid].references:
            rc = base.get(ref)
            if rc is not None:
                votes[rc] += 1
        if votes:
            top = max(votes.values())
            chosen[pid] = min(rc for rc, v in votes.items() if v == top)
    return chosen


def draw(rng, gains):
    """The refinement's exp-weighted merge draw over one node's gains, with
    one ``rng.random()``: the arithmetic of ``rng.choice(len(gains), p=p)``."""
    g = np.array(gains)
    p = np.exp((g - g.max()) / _THETA)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


# --- the synthetic generator with per-draw numpy calls -----------------------
#
# ``synth.generate`` as it was before its draws became scalars and block
# lists: one-element ``rng.random(1)`` age draws, a linear nearest-year scan
# and one ``json.dumps`` per paper. Same draws in the same order, so the
# library's files and result must equal these byte for byte. The unchanged
# helpers (specs, trajectories, apportionment) come from the library.


def _geometric_ages(u: np.ndarray, p: float) -> np.ndarray:
    # inverse-transform geometric on {1, 2, ...}
    return 1 + np.floor(np.log(np.maximum(u, 1e-12)) / math.log(1.0 - p)).astype(np.int64)


def _nearest_year_with_papers(wanted: int, years_with: list[int]) -> int | None:
    """Closest year (preferring the older side) from a sorted list."""
    if not years_with:
        return None
    best = None
    best_d = None
    for yy in years_with:
        d = abs(yy - wanted) + (0.25 if yy > wanted else 0.0)
        if best_d is None or d < best_d:
            best, best_d = yy, d
    return best


def _sample_intra(k: int, pool: list[int], by_year: list[list[int]],
                  years_with: list[int], yi: int, p_age: float, rng) -> list[int]:
    """k distinct earlier papers of one community, reference ages geometric.

    Small pools fall back to a uniform draw without replacement; the age
    structure is negligible there anyway.
    """
    if k == 0:
        return []
    if len(pool) <= 3 * k:
        idx = rng.permutation(len(pool))[:k]
        return [pool[int(j)] for j in idx]
    out: list[int] = []
    seen: set[int] = set()
    guard = 0
    while len(out) < k and guard < 8 * k:
        guard += 1
        age = int(_geometric_ages(rng.random(1), p_age)[0])
        ty = _nearest_year_with_papers(yi - age, years_with)
        group = by_year[ty]
        cand = group[int(rng.random() * len(group))]
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    while len(out) < k and guard < 16 * k:
        guard += 1
        cand = pool[int(rng.random() * len(pool))]
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def _sample_inter(global_by_year: list[list[int]], yi: int, own: int,
                  paper_community: dict[int, int], taken: set[int], rng
                  ) -> int | None:
    """One earlier paper outside the citing community, or None."""
    for _ in range(4):
        age = int(_geometric_ages(rng.random(1), 0.20)[0])
        ty = max(0, min(yi - age, yi - 1))
        cand = None
        for back in range(ty + 1):
            pool = global_by_year[ty - back]
            if pool:
                cand = pool[int(rng.random() * len(pool))]
                break
        if cand is not None and paper_community[cand] != own and cand not in taken:
            return cand
    return None


def generate(config: SynthConfig, out_dir) -> SynthResult:
    """Write papers.jsonl, ranks.csv and truth.tsv under ``out_dir``.

    Deterministic per rng_seed: same seed, byte-identical outputs.
    """
    rng = np.random.default_rng(config.rng_seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    y0, y1 = config.first_year, config.last_year
    n_years = y1 - y0 + 1
    p_ext = 1.0 - config.intra_p - config.inter_p

    specs = _community_specs(config, rng)
    counts = np.zeros((config.n_communities, n_years), dtype=np.int64)
    for spec in specs:
        counts[spec.cid] = _apportion(spec.total, _trajectory(spec, n_years, config, rng))

    # journals: the top slice ranks 1..top_count, everything else lands above
    # the fixed 250 cutoff; the eigenfactor ordering is an independent shuffle
    eigen_positions = rng.permutation(config.n_journals) + 1
    strengths = {**_DEFAULT_SIGNALS, **config.signal_strengths}
    p_young_rise = min(0.8, max(0.2, 0.45 + 0.12 * strengths.get("rvit", 1.0)))
    p_top_rise = min(0.85, config.base_top_journal_p * config.top_journal_propensity
                     * strengths.get("ntopj", 1.0))

    papers_path = out_dir / "papers.jsonl"
    ranks_path = out_dir / "ranks.csv"
    truth_path = out_dir / "truth.tsv"

    members: list[list[list[int]]] = [[[] for _ in range(n_years)]
                                      for _ in range(config.n_communities)]
    years_with: list[list[int]] = [[] for _ in range(config.n_communities)]
    earlier: list[list[int]] = [[] for _ in range(config.n_communities)]
    global_by_year: list[list[int]] = [[] for _ in range(n_years)]
    paper_community: dict[int, int] = {}
    ref_events = {"intra": 0, "inter": 0, "external": 0}

    next_id = 1
    with open(papers_path, "w") as fh:
        for yi in range(n_years):
            year = y0 + yi
            for spec in specs:
                k = int(counts[spec.cid, yi])
                if k == 0:
                    continue
                c = spec.cid
                rise = _in_rise(spec, yi)
                p_top = p_top_rise if rise else config.base_top_journal_p
                p_age = p_young_rise if rise else _AGE_P[spec.lifecycle]

                u_doc = rng.random(k)
                u_top = rng.random(k)
                j_top = rng.integers(1, config.top_journal_count + 1, size=k)
                j_rest = rng.integers(config.top_journal_count + 1,
                                      config.n_journals + 1, size=k)
                u_refs = rng.random(k)
                n_refs = 1 + rng.poisson(max(config.refs_mean - 1.0, 0.0), size=k)
                u_terms = rng.random(k)

                for i in range(k):
                    pid = next_id
                    next_id += 1
                    doc_type = ("article" if u_doc[i] < 0.85
                                else "review" if u_doc[i] < 0.92 else "other")
                    journal = int(j_top[i] if u_top[i] < p_top else j_rest[i])

                    refs: list[int] = []
                    if u_refs[i] >= config.p_no_refs:
                        nr = int(n_refs[i])
                        kinds = rng.random(nr)
                        n_ext = int((kinds < p_ext).sum())
                        n_intra = int((kinds < p_ext + config.intra_p).sum()) - n_ext
                        n_inter = nr - n_ext - n_intra
                        if yi == 0:  # nothing to cite yet; route all backward
                            n_ext, n_intra, n_inter = nr, 0, 0
                        pool_c = earlier[c]
                        k_intra = min(n_intra, len(pool_c))
                        if k_intra < n_intra:
                            # thin history: the community is young, so both its
                            # in-community and cross-community citations give
                            # way to outside literature in equal proportion,
                            # keeping the configured intra/inter ratio intact
                            keep = k_intra / n_intra
                            k_inter = int(round(n_inter * keep))
                            n_ext += (n_intra - k_intra) + (n_inter - k_inter)
                            n_inter = k_inter

                        targets = _sample_intra(k_intra, pool_c, members[c],
                                                years_with[c], yi, p_age, rng)
                        ref_events["intra"] += len(targets)
                        refs.extend(targets)
                        taken = set(targets)

                        for _ in range(n_inter):
                            ref = _sample_inter(global_by_year, yi, c,
                                                paper_community, taken, rng)
                            if ref is None:
                                n_ext += 1
                            else:
                                taken.add(ref)
                                refs.append(ref)
                                ref_events["inter"] += 1

                        if n_ext:
                            k_e = min(n_ext, config.external_pool_size)
                            base = EXTERNAL_ID_BASE + c * config.external_pool_size
                            idx = rng.permutation(config.external_pool_size)[:k_e]
                            refs.extend(base + int(j) for j in idx)
                            ref_events["external"] += k_e

                    if u_terms[i] < config.p_no_terms:
                        terms: list[str] = []
                    else:
                        own = rng.choice(12, size=4, replace=False)
                        shared = np.floor(200 * rng.random(3) ** 2).astype(int)
                        terms = sorted([f"c{c}k{j}" for j in own.tolist()]
                                       + [f"w{j}" for j in shared.tolist()])

                    obj = {
                        "paper_id": pid,
                        "year": year,
                        "doc_type": doc_type,
                        "journal_id": journal,
                        "references": sorted(refs),
                        "terms": terms,
                    }
                    fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
                    paper_community[pid] = c
                    members[c][yi].append(pid)
                    global_by_year[yi].append(pid)
                if k:
                    years_with[c].append(yi)
                    earlier[c].extend(members[c][yi])

    with open(ranks_path, "w") as fh:
        fh.write("journal_id,citescore_rank,eigenfactor_rank\n")
        for j in range(1, config.n_journals + 1):
            cs = j if j <= config.top_journal_count else 250 + j
            ep = int(eigen_positions[j - 1])
            eig = ep if ep <= config.top_journal_count else 250 + ep
            fh.write(f"{j},{cs},{eig}\n")

    # ground-truth labels from realized shares, peak-to-target arithmetic
    totals = counts.sum(axis=0)
    xg_truth: dict[tuple[int, int], int] = {}
    xg_per_fy: dict[int, int] = {}
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
    for spec in specs:
        row = shares[spec.cid]
        for fy_idx in range(0, n_years - 3):
            upto = row[:fy_idx + 1]
            top = upto.max()
            if top <= 0.0:
                continue
            pk_idx = int(np.flatnonzero(upto == top)[-1])
            ty_idx = fy_idx + 3
            gr = (row[ty_idx] / top) ** (1.0 / (ty_idx - pk_idx))
            label = 1 if gr > 1.08 else 0
            fy = y0 + fy_idx
            xg_truth[(spec.cid, fy)] = label
            if label:
                xg_per_fy[fy] = xg_per_fy.get(fy, 0) + 1

    # the "+xg" suffix marks communities carrying a planted growth episode
    community_class = {spec.cid: spec.lifecycle + ("+xg" if spec.planted else "")
                       for spec in specs}
    with open(truth_path, "w") as fh:
        fh.write("kind\tid\tfy\tvalue\n")
        for pid in sorted(paper_community):
            fh.write(f"paper\t{pid}\t\t{paper_community[pid]}\n")
        for spec in specs:
            fh.write(f"class\t{spec.cid}\t\t{community_class[spec.cid]}\n")
        for (cid, fy) in sorted(xg_truth):
            fh.write(f"xg\t{cid}\t{fy}\t{xg_truth[(cid, fy)]}\n")

    summary = {
        "n_papers": next_id - 1,
        "n_planted": sum(1 for s in specs if s.planted),
        "ref_events": ref_events,
        "xg_per_fy": xg_per_fy,
        "yearly_totals": {y0 + i: int(totals[i]) for i in range(n_years)},
    }
    return SynthResult(
        papers_path=papers_path, ranks_path=ranks_path, truth_path=truth_path,
        n_papers=next_id - 1, n_communities=config.n_communities,
        paper_community=paper_community, community_class=community_class,
        xg_truth=xg_truth, summary=summary,
    )


# --- the probit fit that evaluated the likelihood and the residual in separate
# passes, and the stepwise selection that refitted its first variable ----------

def probit_loglik(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    q = 2.0 * y - 1.0
    return float(log_ndtr(q * (X @ beta)).sum())


def probit_gradient(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return X.T @ _gen_residual(X @ beta, y)


def _gen_residual(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # lambda_i = phi(z)/Phi(z) for y=1, -phi(z)/Phi(-z) for y=0; computed in
    # log space so extreme linear predictors stay finite
    logphi = -0.5 * z * z - _LOG_SQRT_2PI
    lam = np.where(y > 0.5,
                   np.exp(logphi - log_ndtr(z)),
                   -np.exp(logphi - log_ndtr(-z)))
    return lam


def fit_probit(X, y, names=None) -> ProbitFit:
    """Probit MLE, with an intercept, via Newton iterations with step halving.

    Converges when the largest coefficient update falls below NEWTON_TOL.
    Standard errors come from the inverse observed information. Raises
    SeparationError when coefficients diverge and CollinearityError (naming
    the offending columns) when the information matrix is singular.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        X = np.empty((len(y), 0))
    elif X.ndim == 1:
        X = X.reshape(-1, 1)
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
    names = tuple(names)
    if len(names) != X.shape[1]:
        raise ValueError("names must match X columns")
    if X.shape[0] != len(y):
        raise ValueError("X rows must match len(y)")
    Xm = _design(X)
    all_names = ("intercept",) + names
    n, k = Xm.shape
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} rows for {k} columns, got {n}")
    ybar = float(y.mean())
    if ybar <= 0.0 or ybar >= 1.0:
        raise ValueError("y must contain both classes")

    beta = np.zeros(k)
    beta[0] = ndtri(min(max(ybar, 1.0 / n), 1.0 - 1.0 / n))
    ll = probit_loglik(beta, Xm, y)
    ll_path = [ll]
    n_iter = 0
    for n_iter in range(1, NEWTON_MAX_ITER + 1):
        z = Xm @ beta
        lam = _gen_residual(z, y)
        grad = Xm.T @ lam
        w = lam * (lam + z)  # always positive: observed information is PD
        info = (Xm * w[:, None]).T @ Xm
        try:
            delta = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise CollinearityError(_collinear_columns(Xm, all_names))
        step = 1.0
        for _ in range(40):
            cand = beta + step * delta
            ll_new = probit_loglik(cand, Xm, y)
            if ll_new >= ll - 1e-12:
                break
            step *= 0.5
        beta = beta + step * delta
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            raise SeparationError("separation detected: coefficients diverging")
        ll = probit_loglik(beta, Xm, y)
        ll_path.append(ll)
        if np.max(np.abs(step * delta)) < NEWTON_TOL:
            break

    z = Xm @ beta
    lam = _gen_residual(z, y)
    w = lam * (lam + z)
    info = (Xm * w[:, None]).T @ Xm
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise CollinearityError(_collinear_columns(Xm, all_names))
    se = np.sqrt(np.diag(cov))
    ll_null = float(len(y)) * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    return ProbitFit(
        names=all_names,
        coefficients=beta,
        standard_errors=se,
        z_stats=beta / se,
        log_likelihood=ll,
        null_log_likelihood=ll_null,
        pseudo_r2=pseudo_r2(ll, ll_null),
        n_obs=n,
        n_iter=n_iter,
        ll_path=tuple(ll_path),
    )


def stepwise_select(X, y, names, z_threshold: float = DEFAULT_Z_THRESHOLD) -> CompositeModel:
    """Forward stepwise probit selection.

    Variables enter one at a time: the first by the largest univariate |Z|, the
    rest by the largest |Pearson correlation| between the candidate and the
    current response residual y - Phi(X beta). All coefficients are refit at
    each stage; a newly added variable with |Z| below the threshold is dropped
    and selection stops. An empty model is returned when no variable ever
    clears the threshold.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    names = list(names)
    if len(names) < 2:
        raise ValueError("stepwise selection needs at least 2 candidates")
    if X.shape != (len(y), len(names)):
        raise ValueError("X must be len(y) x len(names)")

    history: list[dict] = []
    best_j, best_z = None, 0.0
    for j, name in enumerate(names):
        fit = fit_probit(X[:, [j]], y, names=(name,))
        zj = abs(fit.z(name))
        history.append({"step": 0, "candidate": name, "abs_z": zj})
        if zj > best_z:
            best_j, best_z = j, zj
    if best_z < z_threshold:
        return CompositeModel((), (), meta={
            "selected": [], "history": history, "z_threshold": z_threshold,
            "note": "no variable reached the Z threshold",
        })

    selected = [best_j]
    fit = fit_probit(X[:, selected], y, names=(names[best_j],))
    history.append({"step": 1, "added": names[best_j], "z": fit.z(names[best_j])})

    while len(selected) < len(names):
        resid = y - ndtr(fit.linear_predictor(X[:, selected]))
        best_j, best_corr = None, 0.0
        for j, name in enumerate(names):
            if j in selected:
                continue
            col = X[:, j]
            if np.std(col) < 1e-12:
                continue
            corr = abs(float(np.corrcoef(resid, col)[0, 1]))
            if corr > best_corr:
                best_j, best_corr = j, corr
        if best_j is None:
            break
        trial = selected + [best_j]
        trial_fit = fit_probit(X[:, trial], y, names=tuple(names[j] for j in trial))
        z_new = abs(trial_fit.z(names[best_j]))
        if z_new < z_threshold:
            history.append({"step": len(selected) + 1, "rejected": names[best_j],
                            "abs_z": z_new, "corr": best_corr})
            break
        selected = trial
        fit = trial_fit
        history.append({"step": len(selected), "added": names[best_j],
                        "z": trial_fit.z(names[best_j]), "corr": best_corr})

    chosen = tuple(names[j] for j in selected)
    return CompositeModel(
        variables=chosen,
        coefficients=tuple(fit.coef(name) for name in chosen),
        intercept=fit.coef("intercept"),
        meta={
            "selected": list(chosen),
            "z_stats": {name: fit.z(name) for name in chosen},
            "standard_errors": {name: float(fit.standard_errors[fit.names.index(name)])
                                for name in chosen},
            "pseudo_r2": fit.pseudo_r2,
            "log_likelihood": fit.log_likelihood,
            "null_log_likelihood": fit.null_log_likelihood,
            "n_obs": fit.n_obs,
            "z_threshold": z_threshold,
            "history": history,
        },
    )
