"""Partition the citation graph into research communities.

Leiden clustering (Traag, Waltman & van Eck 2019, Sci. Rep. 9:5233): local
moving, a refinement phase that splits each community into connected pieces,
and aggregation of the pieces, iterated until the partition stops improving.
Local moving and refinement run in numpy rounds over each level's CSR arrays,
after Lu, Halappanavar & Kalyanaraman (2015, Parallel Computing 47:19): each
round scores the moves of all queued nodes at once, and a conflict rule with
random priorities picks the moves made together, so that quality rises by at
least the sum of their gains. Supports CPM and modularity quality functions,
deterministic seeding, and warm starts from a prior partition so a model can
be extended year by year.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .artifacts import parse_column, read_tsv, write_json, write_tsv
from .citegraph import CitationGraph, connected_components
from .config import check_types, has_type, load_object
from .corpus import lookup

_EPS = 1e-12
TUNE_TOLERANCE = 0.10   # tune_resolution stops within 10% of the target count
TUNE_MAX_PROBES = 20
DEFAULT_MAX_ITERATIONS = 10   # leiden iterations when a config names none


class ClusterError(Exception):
    pass


@dataclass
class ClusterConfig:
    quality: str = "cpm"                # "cpm" or "modularity"
    resolution: float = 1.0
    rng_seed: int = 0
    max_iterations: int = DEFAULT_MAX_ITERATIONS

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
        external_ids, external_rc = _columns(list(external), list(external.values()))
        return cls(*_columns(list(assignment), list(assignment.values())),
                   external_ids=external_ids, external_rc=external_rc, **meta)

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
    keys, values = np.asarray(keys, np.int64), np.asarray(values, np.int64)
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
    return _level_quality(_Level.of(graph), labels, quality, resolution)


# --- Leiden core -------------------------------------------------------------


class _Level:
    """One aggregation level: CSR adjacency plus per-node self weight and size.

    Edge weights are integer counts (every graph edge weighs 1 and aggregation
    sums them), so float sums of them are exact in any order.
    """

    def __init__(self, indptr, indices, weights, self_w, sizes, strengths):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.self_w = self_w
        self.sizes = sizes
        self.strengths = strengths
        self.n = len(self_w)

    @classmethod
    def of(cls, graph: CitationGraph) -> "_Level":
        """Level 0: the graph's own nodes, each of size 1 without self weight."""
        n, src = graph.n_nodes, np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
        return cls(graph.indptr, graph.indices, graph.weights, np.zeros(n), np.ones(n, np.int64),
                   np.bincount(src, weights=graph.weights, minlength=n))


def _level_quality(level: _Level, labels: np.ndarray, quality: str, resolution: float) -> float:
    """Quality of one label per node of ``level``: exactly that of the graph
    partition its nodes stand for, as every term is a sum of integer counts."""
    _, inv = np.unique(labels, return_inverse=True)
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    intra = inv[src] == inv[level.indices]
    e_int = float(level.self_w.sum()) + float(level.weights[intra].sum()) / 2.0
    k = np.bincount(inv, weights=level.sizes if quality == "cpm" else level.strengths)
    if quality == "cpm":
        return e_int - resolution * float((k * (k - 1)).sum()) / 2.0
    m = float(level.strengths.sum()) / 2.0
    if m == 0:
        return 0.0
    return e_int / m - resolution * float((k ** 2).sum()) / (4.0 * m * m)


def _rows(indptr, nodes):
    """The edge positions of the CSR rows ``nodes``, row by row, and for each
    edge the index of its row in ``nodes``."""
    lens = indptr[nodes + 1] - indptr[nodes]
    row = np.repeat(np.arange(len(nodes)), lens)
    edge = np.repeat(indptr[nodes] - np.cumsum(lens) + lens, lens)
    edge += np.arange(len(row))
    return row, edge


def _firsts(keys):
    """Whether each entry of the sorted ``keys`` starts a run of equal keys."""
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def _label_weights(row, labels, weights, n_rows, n_labels):
    """The summed ``weights`` of each distinct (row, label) pair of the
    ascending ``row``: the pairs' rows, labels and sums, in ascending (row,
    label) order. One key reduction: the CSR matrix of the pairs sorts each
    row's labels and sums the repeats."""
    ptr = np.zeros(n_rows + 1, np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=ptr[1:])
    pairs = sparse.csr_array((weights, labels, ptr), shape=(n_rows, n_labels))
    pairs.sum_duplicates()
    return np.repeat(np.arange(n_rows), np.diff(pairs.indptr)), pairs.indices, pairs.data


def _earlier_sums(keys, values):
    """For each entry, the sum of ``values`` over the earlier entries with the
    same key (exact: the values are integers)."""
    order = np.argsort(keys, kind="stable")
    before = np.cumsum(values[order]) - values[order]
    start = np.flatnonzero(_firsts(keys[order]))
    out = np.empty(len(keys))
    out[order] = before - np.repeat(before[start], np.diff(start, append=len(keys)))
    return out


def _local_move(level: _Level, comm: np.ndarray, attr: np.ndarray, gamma: float,
                scale: float, div: float, rng) -> int:
    """Move nodes (weighed by ``attr``: size for CPM, strength for modularity) to
    their best neighbouring (or an empty) community, in rounds over a queue that
    starts with every node, until no move gains. Mutates ``comm``; returns the
    number of moves."""
    queue, moves = np.arange(level.n), 0
    while len(queue):
        gains, queue = _move_round(level, comm, queue, attr, gamma, scale, div, rng)
        moves += len(gains)
    return moves


def _move_round(level, comm, queue, attr, gamma, scale, div, rng):
    """One local-move round over the ascending ``queue``. Mutates ``comm``;
    returns the gains of the moves made and the next round's queue.

    A node's candidate move goes to its best-scoring neighbouring community
    (ties to the smaller id) if that beats staying by ``_EPS``, else to an
    empty community if staying scores below ``-_EPS``. Candidates draw random
    priorities, and each is charged the cross penalty of every candidate of
    higher priority that leaves its community or enters its target. A
    candidate moves if its charged gain exceeds ``_EPS`` and no adjacent
    candidate of higher priority enters its community or leaves its target.
    The interactions left between the moves made, an edge between two movers
    of which neither enters the other's community and a node leaving a
    community that another enters, only add to quality, so quality rises by
    at least the sum of the charged gains. The next queue holds the
    candidates that did not move and the neighbours of movers outside the
    mover's new community.
    """
    agg = np.bincount(comm, weights=attr)
    row, edge = _rows(level.indptr, queue)
    nbr = level.indices[edge]
    k = len(queue)
    r, lab, w = _label_weights(row, comm[nbr], level.weights[edge], k, len(agg))
    cv, av = comm[queue], attr[queue]
    ga = gamma * av
    own = lab == cv[r]
    stay = np.zeros(k)
    stay[r[own]] = w[own]
    stay -= ga * (agg[cv] - av) / div
    score = w - ga[r] * agg[lab] * scale
    score[own] = -np.inf
    best = np.full(k, -np.inf)
    np.maximum.at(best, r, score)
    hit = np.flatnonzero(score == best[r])         # labels ascend within a row
    hit = hit[_firsts(r[hit])]
    target = cv.copy()
    target[r[hit]] = lab[hit]
    move = best > stay + _EPS
    target[~move] = cv[~move]
    top = np.where(move, best, stay)
    empty = 0.0 > top + _EPS                        # an empty community beats every other
    gain = np.where(empty, 0.0, top) - stay
    if empty.any():
        n_empty = np.count_nonzero(empty)
        free = np.flatnonzero(np.bincount(comm) == 0)
        target[empty] = np.concatenate([free, len(agg) + np.arange(n_empty)])[:n_empty]
    cand = np.flatnonzero(move | empty)
    order = cand[rng.permutation(len(cand))]        # highest priority first
    gain[order] -= ga[order] * scale * (_earlier_sums(cv[order], av[order])
                                        + _earlier_sums(target[order], av[order]))
    wins = np.zeros(k, bool)
    wins[order] = gain[order] > _EPS
    rank = np.full(level.n, len(cand))
    rank[queue[order]] = np.arange(len(cand))
    enters = np.full(level.n, -1)
    enters[queue[cand]] = target[cand]
    blocked = rank[nbr] < rank[queue][row]
    blocked &= (enters[nbr] == cv[row]) | (comm[nbr] == target[row])
    wins[row[blocked]] = False
    moved = np.flatnonzero(wins)
    comm[queue[moved]] = target[moved]
    nxt = np.zeros(level.n, bool)
    nxt[queue[cand]] = True
    nxt[queue[moved]] = False
    e = wins[row]
    nxt[nbr[e][comm[nbr[e]] != target[row[e]]]] = True
    return gain[moved], np.flatnonzero(nxt)


_THETA = 0.01  # randomness scale for refinement merge selection


def _draw_in_segments(gains: np.ndarray, starts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each segment of ``gains`` (they begin at ``starts``), an index into
    it drawn with probability proportional to exp(gain / theta) by the
    segment's uniform in ``u``: the arithmetic of ``rng.choice(size, p=p)``,
    row by row over the segments of one size."""
    sizes = np.diff(starts, append=len(gains))
    pick = np.empty(len(starts), np.int64)
    for size in np.unique(sizes).tolist():
        seg = np.flatnonzero(sizes == size)
        g = gains[starts[seg, None] + np.arange(size)]
        p = np.exp((g - g.max(axis=1, keepdims=True)) / _THETA)
        cdf = (p / p.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        pick[seg] = (cdf <= u[seg, None]).sum(axis=1)
    return pick


def _refine(level: _Level, comm: np.ndarray, attr: np.ndarray, gamma: float,
            scale: float, rng) -> np.ndarray:
    """Split each community into well-connected pieces for aggregation.

    Starts from singletons. In rounds, each node that is still alone draws a
    positively-gaining sub-community of its own community to merge into, with
    probability proportional to exp(gain / theta); a merge is made only if its
    target is not moving itself in that round. Only edges inside a community
    are considered, so every refined community is internally connected.
    """
    rcomm = np.arange(level.n)
    queue = rcomm.copy()
    while len(queue):
        queue = _merge_round(level, comm, rcomm, queue, attr, gamma, scale, rng)
    return rcomm


def _merge_round(level, comm, rcomm, queue, attr, gamma, scale, rng):
    """One refinement round over the singletons ``queue`` (ascending); returns
    the singletons that drew a merge but did not make it.

    A refined community always holds the node whose id labels it, and only
    singletons move, so a singleton's label is its node. A mover merges only
    if its priority beats that of the mover owning its target and of every
    mover targeting it: no node merges into a community that is moving away.
    """
    ragg = np.bincount(rcomm, weights=attr, minlength=level.n)
    row, edge = _rows(level.indptr, queue)
    nbr = level.indices[edge]
    inside = comm[nbr] == comm[queue][row]
    row, nbr = row[inside], nbr[inside]
    r, lab, w = _label_weights(row, rcomm[nbr], level.weights[edge[inside]], len(queue),
                               level.n)
    score = w - (gamma * attr[queue])[r] * ragg[lab] * scale
    keep = score > _EPS
    r, lab, score = r[keep], lab[keep], score[keep]
    starts = np.flatnonzero(_firsts(r))
    mover = queue[r[starts]]
    target = lab[starts + _draw_in_segments(score, starts, rng.random(len(starts)))]
    rank = np.full(level.n, len(mover))
    rank[mover[rng.permutation(len(mover))]] = np.arange(len(mover))
    targeted = np.full(level.n, len(mover))
    np.minimum.at(targeted, target, rank[mover])
    merge = (rank[mover] < rank[target]) & (rank[mover] < targeted[mover])
    rcomm[mover[merge]] = target[merge]
    rest = mover[~merge]
    return rest[np.bincount(rcomm, minlength=level.n)[rest] == 1]


def _aggregate(level: _Level, comm: np.ndarray, rcomm: np.ndarray):
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
    comm_next = np.zeros(r, dtype=np.int64)
    comm_next[inv] = comm
    return new_level, inv, comm_next


def _split_disconnected(graph: CitationGraph, labels: np.ndarray) -> np.ndarray:
    """Split any community that is not internally connected into its components.

    Never decreases CPM or modularity: a disconnected community has no edges
    between its components, so splitting only removes penalty terms. Components
    of the intra-community subgraph never span two communities, so the
    component labels are exactly the split partition.
    """
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    intra = labels[src] == labels[graph.indices]
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
    use_cpm = config.quality == "cpm"
    gamma = config.resolution
    rng = np.random.default_rng(config.rng_seed)

    base = level = _Level.of(graph)
    two_m = float(base.strengths.sum())
    if two_m == 0.0:
        two_m = 1.0  # edgeless graph; modularity degenerate, every node stays put
    # stay score / 2m but move scores * (1/2m), as the gains were always rounded
    scale, div = (1.0, 1.0) if use_cpm else (1.0 / two_m, two_m)
    membership = np.arange(level.n)
    comm = np.arange(level.n) if seed_partition is None else _node_labels(graph, seed_partition)

    prev_q = _level_quality(level, comm, config.quality, gamma)
    for _ in range(config.max_iterations):
        attr = (level.sizes if use_cpm else level.strengths).astype(np.float64)
        moved = _local_move(level, comm, attr, gamma, scale, div, rng)
        q = _level_quality(level, comm, config.quality, gamma)
        if q < prev_q - 1e-9:
            raise AssertionError(f"quality decreased across iteration: {prev_q} -> {q}")
        prev_q = q
        if len(np.unique(comm)) == level.n:
            break  # every node is its own community; aggregation cannot help
        rcomm = _refine(level, comm, attr, gamma, scale, rng)
        if len(np.unique(rcomm)) == level.n and moved == 0:
            break
        level, inv, comm = _aggregate(level, comm, rcomm)
        membership = inv[membership]

    flat = _split_disconnected(graph, comm[membership])
    quality = _level_quality(base, flat, config.quality, gamma)

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
    internal_comps = len(np.unique(comp[graph.internal]))
    n_int = graph.n_internal
    if not (internal_comps <= target_rc_count <= n_int):
        raise ClusterError(
            f"target {target_rc_count} unreachable; achievable rc_count range "
            f"[{internal_comps}, {n_int}]"
        )

    best_res, best_err = None, math.inf
    # lo yields too few communities, hi too many; while one side is open the
    # next probe steps from the other by a factor of 8, then it bisects
    lo, hi, probe = 0.0, math.inf, config.resolution
    for _ in range(TUNE_MAX_PROBES):
        c = leiden(graph, replace(config, resolution=probe)).rc_count
        err = abs(math.log(max(c, 1) / target_rc_count))
        if err < best_err:
            best_res, best_err = probe, err
        if abs(c - target_rc_count) <= TUNE_TOLERANCE * target_rc_count:
            return probe
        if c < target_rc_count:
            lo = probe
        else:
            hi = probe
        if hi == math.inf:
            probe = lo * 8.0
        elif lo == 0.0:
            probe = hi / 8.0
        else:
            probe = math.sqrt(lo * hi)
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
    rows = read_tsv(tsv_path, "partition", {"paper_id": "int", "rc_id": "int"}, ClusterError,
                    _in_paper_order)
    meta = {} if meta_path is None else load_object(meta_path, "partition meta", ClusterError)
    kinds = {"model_year": "int | None", "extended_through": "int | None", "rc_count": "int",
             "quality": "float", "config": "dict", "external_assignment": "dict"}
    wrong = [key for key, kind in kinds.items() if key in meta and not has_type(kind, meta[key])]
    external = meta.get("external_assignment", {})
    try:        # keys by the rule of integer cells, values ints, both within int64
        if wrong or set(map(type, external.values())) - {int}:
            raise ValueError
        external_ids, external_rc = _columns(
            parse_column(list(external), "int"),
            np.fromiter(external.values(), np.int64, len(external)))
    except (ValueError, OverflowError):
        raise ClusterError(f"partition meta {meta_path}: "
                           f"{(wrong or ['external_assignment'])[0]} has the wrong type") from None
    return Partition(rows["paper_id"], rows["rc_id"], model_year=meta.get("model_year"),
                     rc_count=meta["rc_count"] if "rc_count" in meta
                     else len(np.unique(rows["rc_id"])),
                     quality=meta.get("quality", 0.0),
                     extended_through=meta.get("extended_through"),
                     external_ids=external_ids, external_rc=external_rc,
                     config_used=meta.get("config", {}))


def _in_paper_order(rows: dict):
    """Put the partition rows in paper id order; the first row that repeats a
    paper id, if one does."""
    order = np.argsort(rows["paper_id"], kind="stable")
    paper_ids = rows["paper_id"] = rows["paper_id"][order]
    rows["rc_id"] = rows["rc_id"][order]
    repeats = order[1:][paper_ids[1:] == paper_ids[:-1]]
    return (int(repeats.min()), "duplicate paper_id {0}") if len(repeats) else None
