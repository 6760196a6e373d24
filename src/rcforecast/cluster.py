"""Partition the citation graph into research communities.

Leiden-style clustering: greedy local moving, a refinement phase that keeps
communities internally connected, and graph aggregation, iterated until the
partition stops improving. Supports CPM and modularity quality functions,
deterministic seeding, and warm starts from a prior partition so a model can
be extended year by year.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .artifacts import INT_TEXT, is_int64, write_json, write_tsv
from .citegraph import CitationGraph, connected_components
from .config import check_types, has_type, load_object
from .corpus import lookup

_EPS = 1e-12
TUNE_TOLERANCE = 0.10   # tune_resolution stops within 10% of the target count
TUNE_MAX_PROBES = 20


class ClusterError(Exception):
    pass


@dataclass
class ClusterConfig:
    quality: str = "cpm"                # "cpm" or "modularity"
    resolution: float = 1.0
    rng_seed: int = 0
    max_iterations: int = 10

    def __post_init__(self):
        check_types(self, ClusterError)
        if self.quality not in ("cpm", "modularity"):
            raise ClusterError(f"unknown quality function {self.quality!r}")
        if self.resolution <= 0:
            raise ClusterError("resolution must be positive")
        if self.max_iterations < 1:
            raise ClusterError("max_iterations must be >= 1")


@dataclass(eq=False)
class Partition:
    """Internal papers (``paper_ids``, int64 ascending) and each one's
    community (``rc``). External nodes take part in clustering but are no RC's
    members; ``external_ids`` and ``external_rc`` keep their communities so
    seeded re-runs can restart from the full clustering state."""

    paper_ids: np.ndarray
    rc: np.ndarray
    model_year: int | None = None
    rc_count: int = 0
    quality: float = 0.0
    extended_through: int | None = None
    external_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    external_rc: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    config_used: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.extended_through is None:
            self.extended_through = self.model_year

    @classmethod
    def from_assignment(cls, assignment, external_assignment=None, **meta) -> "Partition":
        """A partition of paper -> rc and external item -> rc mappings."""
        external = external_assignment or {}
        external_ids, external_rc = _columns(external, external.values())
        return cls(*_columns(assignment, assignment.values()), external_ids=external_ids,
                   external_rc=external_rc, **meta)

    @cached_property
    def assignment(self) -> Mapping[int, int]:
        """Read-only paper -> rc view, built on first use (no hot path does)."""
        return MappingProxyType(dict(zip(self.paper_ids.tolist(), self.rc.tolist())))

    @cached_property
    def external_assignment(self) -> Mapping[int, int]:
        """Read-only external item -> rc view, built on first use."""
        return MappingProxyType(dict(zip(self.external_ids.tolist(),
                                         self.external_rc.tolist())))

    def rc_members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for pid, rc in zip(self.paper_ids.tolist(), self.rc.tolist()):
            out.setdefault(rc, []).append(pid)
        return out


def _columns(keys, values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct int ``keys`` in ascending order, and for each the value
    paired with its last occurrence."""
    keys, values = np.fromiter(keys, np.int64), np.fromiter(values, np.int64)
    ids, last = np.unique(keys[::-1], return_index=True)
    return ids, values[::-1][last]


# --- quality functions -----------------------------------------------------
#
# CPM:        Q = sum_c [ e_c - gamma * S_c (S_c - 1) / 2 ]   (S_c = node count)
# modularity: Q = sum_c [ e_c / m - gamma * (K_c / 2m)^2 ]    (K_c = total strength)
#
# e_c counts each intra-community edge once; m is the total edge weight.


def _node_labels(graph: CitationGraph, partition: Partition) -> np.ndarray:
    """Each graph node's community in ``partition``, as the rank of its rc id
    among all of the partition's rc ids; nodes it does not place get fresh ids
    after those, in node order. A paper id found among both the papers and the
    external items takes its paper's community."""
    ids = np.concatenate([partition.paper_ids, partition.external_ids])
    order = np.argsort(ids, kind="stable")
    rc_ids, rank = np.unique(np.concatenate([partition.rc, partition.external_rc]),
                             return_inverse=True)
    pos, placed = lookup(ids[order], graph.node_ids)
    labels = np.empty(graph.n_nodes, np.int64)
    labels[placed] = rank[order[pos[placed]]]
    labels[~placed] = len(rc_ids) + np.arange(graph.n_nodes - np.count_nonzero(placed))
    return labels


def partition_quality(graph: CitationGraph, partition, quality: str = "cpm",
                      resolution: float = 1.0) -> float:
    """Quality of a ``Partition``, or of one label per node, on ``graph`` under
    the chosen function."""
    labels = partition if isinstance(partition, np.ndarray) else _node_labels(graph, partition)
    _, inv = np.unique(labels, return_inverse=True)
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    intra = inv[src] == inv[graph.indices]
    e_int = float(graph.weights[intra].sum()) / 2.0
    if quality == "cpm":
        sizes = np.bincount(inv)
        return e_int - resolution * float((sizes * (sizes - 1)).sum()) / 2.0
    strengths = graph.strengths()
    m = float(strengths.sum()) / 2.0
    if m == 0:
        return 0.0
    k = np.bincount(inv, weights=strengths)
    return e_int / m - resolution * float((k ** 2).sum()) / (4.0 * m * m)


# --- Leiden core -------------------------------------------------------------


class _Level:
    """One aggregation level: CSR adjacency plus per-node self weight and size.

    ``ptr``, ``ind`` and ``wt`` are the CSR arrays as Python lists, built once
    and shared by local moving and refinement. Edge weights are integer counts
    (every graph edge weighs 1 and aggregation sums them), so ``wt`` holds ints
    and needs no float object per edge.
    """

    def __init__(self, indptr, indices, weights, self_w, sizes, strengths):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.self_w = self_w
        self.sizes = sizes
        self.strengths = strengths
        self.n = len(self_w)
        self.ptr, self.ind = indptr.tolist(), indices.tolist()
        self.wt = weights.astype(np.int64).tolist()


# Both cores sum neighbour weights per community in a buffer, list each community
# on first touch (weights are positive, so zero means untouched) and zero it after
# the scan: the same scan order and float sums as a dict, hence the same ties.


def _local_move(level: _Level, comm: list[int], use_cpm: bool, gamma: float,
                two_m: float, rng) -> int:
    """Greedy node moves to the best neighboring (or empty) community.

    Strictly improving moves only; queue-based so only nodes whose neighborhood
    changed are revisited. Mutates ``comm``; returns the number of moves.
    """
    n = level.n
    ptr, ind, wt = level.ptr, level.ind, level.wt
    attr = (level.sizes if use_cpm else level.strengths).tolist()
    # stay score / 2m but move scores * (1/2m), as the gains were always rounded
    scale = 1.0 if use_cpm else 1.0 / two_m
    div = 1.0 if use_cpm else two_m
    n_comm = max(comm) + 1
    cagg = [0.0] * n_comm
    members = [0] * n_comm
    for v in range(n):
        cagg[comm[v]] += attr[v]
        members[comm[v]] += 1
    free: list[int] = [c for c in range(n_comm) if members[c] == 0]
    buf = [0.0] * n_comm
    touched: list[int] = []

    queue = deque(rng.permutation(n).tolist())
    queued = bytearray([1]) * n
    moves = 0

    while queue:
        v = queue.popleft()
        queued[v] = 0
        cv = comm[v]
        av = attr[v]
        ga = gamma * av
        lo, hi = ptr[v], ptr[v + 1]
        nb = ind[lo:hi]
        for u, w in zip(nb, wt[lo:hi]):
            c = comm[u]
            b = buf[c]
            if not b:
                touched.append(c)
            buf[c] = b + w
        best_c = cv
        best = buf[cv] - ga * (cagg[cv] - av) / div
        for c in touched:
            if c != cv:
                score = buf[c] - ga * cagg[c] * scale
                if score > best + _EPS:
                    best_c, best = c, score
            buf[c] = 0.0
        touched.clear()
        if 0.0 > best + _EPS:  # an empty community beats every occupied one
            best_c = free.pop() if free else len(cagg)
            if best_c == len(cagg):
                cagg.append(0.0)
                members.append(0)
                buf.append(0.0)
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
        for u in nb:
            if comm[u] != best_c and not queued[u]:
                queued[u] = 1
                queue.append(u)
    return moves


_THETA = 0.01  # randomness scale for refinement merge selection


def _draw(rng, gains: list[float]) -> int:
    """Index drawn with probability proportional to exp(gain / theta): the
    arithmetic and the one ``rng.random()`` of ``rng.choice(len(gains), p=p)``."""
    p = np.exp((np.array(gains) - max(gains)) / _THETA)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _refine(level: _Level, comm: list[int], use_cpm: bool, gamma: float,
            two_m: float, rng) -> list[int]:
    """Split each community into well-connected pieces for aggregation.

    Starts from singletons inside every community; nodes that are still alone
    merge into a positively-gaining sub-community of the same community, chosen
    randomly with probability proportional to exp(gain / theta). Only edges
    inside a community are considered, so every refined community is internally
    connected.
    """
    n = level.n
    ptr, ind, wt = level.ptr, level.ind, level.wt
    attr = (level.sizes if use_cpm else level.strengths).tolist()
    scale = 1.0 if use_cpm else 1.0 / two_m
    rcomm = list(range(n))
    ragg = [float(a) for a in attr]
    rmembers = [1] * n
    buf = [0.0] * n
    touched: list[int] = []

    for v in rng.permutation(n).tolist():
        rv = rcomm[v]
        if rmembers[rv] != 1:
            continue
        cv = comm[v]
        av = attr[v]
        ga = gamma * av
        lo, hi = ptr[v], ptr[v + 1]
        for u, w in zip(ind[lo:hi], wt[lo:hi]):
            if comm[u] == cv:
                r = rcomm[u]
                if r != rv:
                    b = buf[r]
                    if not b:
                        touched.append(r)
                    buf[r] = b + w
        cands: list[int] = []
        gains: list[float] = []
        for r in touched:
            score = buf[r] - ga * ragg[r] * scale
            buf[r] = 0.0
            if score > _EPS:
                cands.append(r)
                gains.append(score)
        touched.clear()
        if not cands:
            continue
        target = cands[0] if len(cands) == 1 else cands[_draw(rng, gains)]
        rmembers[rv] -= 1
        rcomm[v] = target
        ragg[target] += av
        rmembers[target] += 1
    return rcomm


def _aggregate(level: _Level, comm: list[int], rcomm: list[int]):
    """Collapse refined communities into super-nodes; carry sizes and self weight."""
    uniq, inv = np.unique(rcomm, return_inverse=True)
    r = len(uniq)
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    a = inv[src]
    b = inv[level.indices]
    cross = a != b
    self_w = np.bincount(inv, weights=level.self_w, minlength=r)
    self_w += np.bincount(a[~cross], weights=level.weights[~cross], minlength=r) / 2.0
    # weights are integer counts (see _Level), so the order in which duplicates
    # are summed cannot change them; rows come out with sorted column indices
    adj = sparse.csr_array((level.weights[cross], (a[cross], b[cross])), shape=(r, r))
    adj.sum_duplicates()
    sizes = np.bincount(inv, weights=level.sizes, minlength=r).astype(np.int64)
    strengths = np.bincount(inv, weights=level.strengths, minlength=r)
    new_level = _Level(adj.indptr, adj.indices, adj.data, self_w, sizes, strengths)
    comm_next_arr = np.zeros(r, dtype=np.int64)
    comm_next_arr[inv] = np.asarray(comm, dtype=np.int64)
    return new_level, inv, comm_next_arr.tolist()


def _split_disconnected(graph: CitationGraph, labels: np.ndarray) -> np.ndarray:
    """Split any community that is not internally connected into its components.

    Never decreases CPM or modularity: a disconnected community has no edges
    between its components, so splitting only removes penalty terms. Components
    of the intra-community subgraph never span two communities, so the
    component labels are exactly the split partition.
    """
    _, inv = np.unique(labels, return_inverse=True)
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    intra = inv[src] == inv[graph.indices]
    indptr = np.searchsorted(src[intra], np.arange(graph.n_nodes + 1))  # src is sorted
    return connected_components(indptr, graph.indices[intra], graph.n_nodes)


def leiden(graph: CitationGraph, config: ClusterConfig,
           seed_partition: Partition | None = None) -> Partition:
    """Cluster ``graph`` into research communities, starting from
    ``seed_partition`` if given (a warm start) and from singletons if not.

    Deterministic for a fixed ``config.rng_seed``. The returned assignment
    covers internal nodes only; every community is internally connected on the
    graph restricted to its members (external nodes included). Quality is
    non-decreasing across iterations, so a seeded run can never end below its
    starting partition.
    """
    config_used = dict(asdict(config), seeded=seed_partition is not None)
    if graph.n_nodes == 0:
        return Partition.from_assignment({}, model_year=graph.year_cutoff,
                                         config_used=config_used)
    use_cpm = config.quality == "cpm"
    gamma = config.resolution
    rng = np.random.default_rng(config.rng_seed)

    n0 = graph.n_nodes
    strengths0 = graph.strengths()
    two_m = float(strengths0.sum())
    if two_m == 0.0:
        two_m = 1.0  # edgeless graph; modularity degenerate, every node stays put
    level = _Level(graph.indptr, graph.indices, graph.weights,
                   np.zeros(n0), np.ones(n0, dtype=np.int64), strengths0)
    membership = np.arange(n0)
    comm = (list(range(n0)) if seed_partition is None
            else _node_labels(graph, seed_partition).tolist())

    prev_q = partition_quality(graph, np.asarray(comm)[membership],
                               config.quality, config.resolution)
    for _ in range(config.max_iterations):
        moved = _local_move(level, comm, use_cpm, gamma, two_m, rng)
        flat = np.asarray(comm, dtype=np.int64)[membership]
        q = partition_quality(graph, flat, config.quality, config.resolution)
        if q < prev_q - 1e-9:
            raise AssertionError(f"quality decreased across iteration: {prev_q} -> {q}")
        prev_q = q
        n_comm = len(set(comm))
        if n_comm == level.n:
            break  # every node is its own community; aggregation cannot help
        rcomm = _refine(level, comm, use_cpm, gamma, two_m, rng)
        if len(set(rcomm)) == level.n and moved == 0:
            break
        level, inv, comm = _aggregate(level, comm, rcomm)
        membership = inv[membership]

    flat = np.asarray(comm, dtype=np.int64)[membership]
    flat = _split_disconnected(graph, flat)
    quality = partition_quality(graph, flat, config.quality, config.resolution)

    rc, rc_count = _canonical_ids(graph, flat)
    internal, kept = graph.internal, rc >= 0
    return Partition(graph.node_ids[internal], rc[internal], model_year=graph.year_cutoff,
                     rc_count=rc_count, quality=quality,
                     external_ids=graph.node_ids[~internal & kept],
                     external_rc=rc[~internal & kept], config_used=config_used)


def _canonical_ids(graph: CitationGraph, labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Each node's rc id, numbering communities by their smallest internal paper
    id (node ids ascend, so by their first internal node), and the number of
    rc ids; a community without internal papers gets -1."""
    uniq, inv = np.unique(labels, return_inverse=True)
    present, first = np.unique(inv[graph.internal], return_index=True)
    rank = np.full(len(uniq), -1, np.int64)
    rank[present[np.argsort(first)]] = np.arange(len(present))
    return rank[inv], len(present)


def leiden_best_of(graph: CitationGraph, config: ClusterConfig, restarts: int) -> Partition:
    """Best-quality partition over ``restarts`` runs with consecutive seeds."""
    best = None
    for i in range(restarts):
        part = leiden(graph, replace(config, rng_seed=config.rng_seed + i))
        if best is None or part.quality > best.quality + _EPS:
            best = part
    return best


def tune_resolution(graph: CitationGraph, target_rc_count: int,
                    config: ClusterConfig) -> float:
    """Bisect log-resolution until the community count lands within
    TUNE_TOLERANCE of the target, or TUNE_MAX_PROBES Leiden runs are spent;
    returns the best resolution found."""
    if target_rc_count < 1:
        raise ClusterError("target_rc_count must be >= 1")
    comp = connected_components(graph.indptr, graph.indices, graph.n_nodes)
    internal_comps = len(set(comp[graph.internal].tolist()))
    n_int = graph.n_internal
    if not (internal_comps <= target_rc_count <= n_int):
        raise ClusterError(
            f"target {target_rc_count} unreachable; achievable rc_count range "
            f"[{internal_comps}, {n_int}]"
        )

    probes = 0
    best_res, best_err = None, math.inf

    def count_at(res: float) -> int:
        nonlocal probes, best_res, best_err
        probes += 1
        part = leiden(graph, replace(config, resolution=res))
        err = abs(math.log(max(part.rc_count, 1) / target_rc_count))
        if err < best_err:
            best_res, best_err = res, err
        return part.rc_count

    def within(c: int) -> bool:
        return abs(c - target_rc_count) <= TUNE_TOLERANCE * target_rc_count

    res = config.resolution
    c = count_at(res)
    if within(c):
        return res
    # bracket the target: lo yields too few communities, hi too many
    if c < target_rc_count:
        lo, hi = res, res
        while probes < TUNE_MAX_PROBES:
            hi *= 8.0
            c_hi = count_at(hi)
            if within(c_hi):
                return hi
            if c_hi >= target_rc_count:
                break
            lo = hi
    else:
        lo, hi = res, res
        while probes < TUNE_MAX_PROBES:
            lo /= 8.0
            c_lo = count_at(lo)
            if within(c_lo):
                return lo
            if c_lo <= target_rc_count:
                break
            hi = lo
    while probes < TUNE_MAX_PROBES:
        mid = math.sqrt(lo * hi)
        c_mid = count_at(mid)
        if within(c_mid):
            return mid
        if c_mid < target_rc_count:
            lo = mid
        else:
            hi = mid
    return best_res


# --- persistence -------------------------------------------------------------


def save_partition(partition: Partition, tsv_path, meta_path=None) -> None:
    write_tsv(tsv_path, {"paper_id": partition.paper_ids, "rc_id": partition.rc})
    if meta_path is not None:
        write_json(meta_path, {
            "model_year": partition.model_year,
            "extended_through": partition.extended_through,
            "rc_count": partition.rc_count,
            "quality": partition.quality,
            "config": partition.config_used,
            "external_assignment": dict(zip(map(str, partition.external_ids.tolist()),
                                            partition.external_rc.tolist())),
        })


def load_partition(tsv_path, meta_path=None) -> Partition:
    """Read a partition written by ``save_partition``. ClusterError for a bad
    row (naming its line), a repeated paper id, or a meta field of the wrong
    type (checked exactly: JSON true/false and strings are not integers)."""
    with open(tsv_path) as fh:
        header = fh.readline()
        if header.strip() != "paper_id\trc_id":
            raise ClusterError(f"bad partition header: {header.strip()!r}")
        paper_ids, rc = _read_rows(fh.read())
    meta = {} if meta_path is None else load_object(meta_path, "partition meta", ClusterError)
    kinds = {"model_year": "int | None", "extended_through": "int | None", "rc_count": "int",
             "quality": "float", "config": "dict", "external_assignment": "dict"}
    wrong = [key for key, kind in kinds.items() if key in meta and not has_type(kind, meta[key])]
    external = meta.get("external_assignment", {})
    if wrong or not all(INT_TEXT.fullmatch(k) and is_int64(int(k)) and is_int64(v)
                        for k, v in external.items()):
        raise ClusterError(f"partition meta {meta_path}: "
                           f"{(wrong or ['external_assignment'])[0]} has the wrong type")
    external_ids, external_rc = _columns(map(int, external), external.values())
    return Partition(paper_ids, rc, model_year=meta.get("model_year"),
                     rc_count=meta.get("rc_count", len(np.unique(rc))),
                     quality=meta.get("quality", 0.0),
                     extended_through=meta.get("extended_through"),
                     external_ids=external_ids, external_rc=external_rc,
                     config_used=meta.get("config", {}))


def _row_problem(cells: list[str]) -> str | None:
    """Why the cells of a partition row are not a paper id and an rc id."""
    if len(cells) != 2 or not all(map(INT_TEXT.fullmatch, cells)):
        return "expected paper_id and rc_id"
    return None if all(is_int64(int(c)) for c in cells) else "paper_id and rc_id must fit int64"


def _read_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The paper ids (ascending) and rc ids of the partition rows ``text``,
    which follow the header line; ClusterError naming the first line that is
    not two int64 integers or that repeats a paper id. Cells are split at
    whitespace, and each must be an ``INT_TEXT``."""
    if text and not text.endswith("\n"):
        text += "\n"
    n = text.count("\n")
    try:
        # as written: per row, digits and minus signs around one tab, then a newline
        if text.translate(str.maketrans("", "", "0123456789-")) != "\t\n" * n:
            raise ValueError
        values = np.fromiter(map(int, text.split()), np.int64, 2 * n)
        bad = n
    except (ValueError, OverflowError):
        rows = list(map(str.split, text.split("\n")[:n]))
        bad = next((i for i, cells in enumerate(rows) if _row_problem(cells)), n)
        values = np.array([int(c) for cells in rows[:bad] for c in cells], np.int64)
    values = values.reshape(-1, 2)
    order = np.argsort(values[:, 0], kind="stable")
    paper_ids = values[order, 0]
    repeats = order[1:][paper_ids[1:] == paper_ids[:-1]]
    lines = text.split("\n") if len(repeats) or bad < n else []
    if len(repeats):
        i = int(repeats.min())
        raise ClusterError(f"partition line {i + 2}: duplicate paper_id {lines[i].split()[0]}")
    if bad < n:
        raise ClusterError(f"partition line {bad + 2}: {_row_problem(lines[bad].split())}, "
                           f"got {lines[bad].strip()!r}")
    return paper_ids, values[order, 1]
