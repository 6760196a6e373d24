"""Partition the citation graph into research communities.

Leiden-style clustering: greedy local moving, a refinement phase that keeps
communities internally connected, and graph aggregation, iterated until the
partition stops improving. Supports CPM and modularity quality functions,
deterministic seeding, and warm starts from a prior partition so a model can
be extended year by year.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .citegraph import CitationGraph, connected_components

_EPS = 1e-12


class ClusterError(Exception):
    pass


@dataclass
class ClusterConfig:
    quality: str = "cpm"                # "cpm" or "modularity"
    resolution: float = 1.0
    rng_seed: int = 0
    max_iterations: int = 10
    seed_assignment: "Partition | None" = None

    def __post_init__(self):
        if self.quality not in ("cpm", "modularity"):
            raise ClusterError(f"unknown quality function {self.quality!r}")
        if self.resolution <= 0:
            raise ClusterError("resolution must be positive")
        if self.max_iterations < 1:
            raise ClusterError("max_iterations must be >= 1")


@dataclass
class Partition:
    """Assignment of internal papers to research communities.

    External nodes participate in clustering but are excluded from
    ``assignment``; their communities are kept separately so seeded re-runs can
    restart from the full clustering state.
    """

    assignment: dict[int, int]
    model_year: int | None = None
    rc_count: int = 0
    quality: float = 0.0
    extended_through: int | None = None
    external_assignment: dict[int, int] = field(default_factory=dict)
    config_used: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.extended_through is None:
            self.extended_through = self.model_year

    def rc_members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for pid in sorted(self.assignment):
            out.setdefault(self.assignment[pid], []).append(pid)
        return out


# --- quality functions -----------------------------------------------------
#
# CPM:        Q = sum_c [ e_c - gamma * S_c (S_c - 1) / 2 ]   (S_c = node count)
# modularity: Q = sum_c [ e_c / m - gamma * (K_c / 2m)^2 ]    (K_c = total strength)
#
# e_c counts each intra-community edge once; m is the total edge weight.


def _labels_from(graph: CitationGraph, partition) -> np.ndarray:
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


def partition_quality(graph: CitationGraph, partition, quality: str = "cpm",
                      resolution: float = 1.0) -> float:
    """Quality of a partition on ``graph`` under the chosen function."""
    labels = _labels_from(graph, partition)
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
    """One aggregation level: CSR adjacency plus per-node self weight and size."""

    def __init__(self, indptr, indices, weights, self_w, sizes, strengths):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.self_w = self_w
        self.sizes = sizes
        self.strengths = strengths
        self.n = len(self_w)


def _local_move(level: _Level, comm: list[int], use_cpm: bool, gamma: float,
                two_m: float, rng) -> int:
    """Greedy node moves to the best neighboring (or empty) community.

    Strictly improving moves only; queue-based so only nodes whose neighborhood
    changed are revisited. Mutates ``comm``; returns the number of moves.
    """
    n = level.n
    indptr, indices, weights = level.indptr, level.indices, level.weights
    attr = level.sizes if use_cpm else level.strengths
    n_comm = max(comm) + 1
    cagg = [0.0] * n_comm
    members = [0] * n_comm
    for v in range(n):
        cagg[comm[v]] += attr[v]
        members[comm[v]] += 1
    free: list[int] = [c for c in range(n_comm) if members[c] == 0]

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
        acc: dict[int, float] = {}
        lo, hi = ptr[v], ptr[v + 1]
        for k in range(lo, hi):
            c = comm[ind_list[k]]
            acc[c] = acc.get(c, 0.0) + wt_list[k]
        if use_cpm:
            cur = acc.get(cv, 0.0) - gamma * av * (cagg[cv] - av)
        else:
            cur = acc.get(cv, 0.0) - gamma * av * (cagg[cv] - av) / two_m
        best_c, best = cv, cur
        for c, w in acc.items():
            if c == cv:
                continue
            score = w - gamma * av * cagg[c] * (1.0 if use_cpm else 1.0 / two_m)
            if score > best + _EPS:
                best_c, best = c, score
        if 0.0 > best + _EPS:  # an empty community beats every occupied one
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


_THETA = 0.01  # randomness scale for refinement merge selection


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
    indptr, indices, weights = level.indptr, level.indices, level.weights
    attr = level.sizes if use_cpm else level.strengths
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
        acc: dict[int, float] = {}
        for k in range(ptr[v], ptr[v + 1]):
            u = ind_list[k]
            if comm[u] == cv and rcomm[u] != rcomm[v]:
                r = rcomm[u]
                acc[r] = acc.get(r, 0.0) + wt_list[k]
        cands: list[int] = []
        gains: list[float] = []
        for r, w in acc.items():
            score = w - gamma * av * ragg[r] * (1.0 if use_cpm else 1.0 / two_m)
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


def _aggregate(level: _Level, comm: list[int], rcomm: list[int]):
    """Collapse refined communities into super-nodes; carry sizes and self weight."""
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
    return _component_labels_subgraph(graph, intra, src)


def _component_labels_subgraph(graph: CitationGraph, edge_mask: np.ndarray,
                               src: np.ndarray) -> np.ndarray:
    n = graph.n_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(src[edge_mask].tolist(), graph.indices[edge_mask].tolist()):
        adj[s].append(d)
    label = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for seed in range(n):
        if label[seed] >= 0:
            continue
        label[seed] = nxt
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if label[y] < 0:
                    label[y] = nxt
                    stack.append(y)
        nxt += 1
    return label


def _initial_communities(graph: CitationGraph, seed: Partition | None) -> list[int]:
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


def leiden(graph: CitationGraph, config: ClusterConfig) -> Partition:
    """Cluster ``graph`` into research communities.

    Deterministic for a fixed ``config.rng_seed``. The returned assignment
    covers internal nodes only; every community is internally connected on the
    graph restricted to its members (external nodes included). Quality is
    non-decreasing across iterations, so a seeded run can never end below its
    starting partition.
    """
    if graph.n_nodes == 0:
        return Partition({}, model_year=graph.year_cutoff, rc_count=0, quality=0.0,
                         config_used=_config_dict(config))
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
    comm = _initial_communities(graph, config.seed_assignment)

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
    return Partition(assignment, model_year=graph.year_cutoff, rc_count=len(keyed),
                     quality=quality, external_assignment=external_assignment,
                     config_used=_config_dict(config))


def leiden_best_of(graph: CitationGraph, config: ClusterConfig, restarts: int) -> Partition:
    """Best-quality partition over ``restarts`` runs with consecutive seeds."""
    best = None
    for i in range(restarts):
        part = leiden(graph, replace(config, rng_seed=config.rng_seed + i))
        if best is None or part.quality > best.quality + _EPS:
            best = part
    return best


def tune_resolution(graph: CitationGraph, target_rc_count: int, config: ClusterConfig,
                    tolerance: float = 0.10, max_probes: int = 20) -> float:
    """Bisect log-resolution until the community count lands within ``tolerance``
    of the target, or the probe budget runs out; returns the best resolution found."""
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
        return abs(c - target_rc_count) <= tolerance * target_rc_count

    res = config.resolution
    c = count_at(res)
    if within(c):
        return res
    # bracket the target: lo yields too few communities, hi too many
    if c < target_rc_count:
        lo, hi = res, res
        while probes < max_probes:
            hi *= 8.0
            c_hi = count_at(hi)
            if within(c_hi):
                return hi
            if c_hi >= target_rc_count:
                break
            lo = hi
    else:
        lo, hi = res, res
        while probes < max_probes:
            lo /= 8.0
            c_lo = count_at(lo)
            if within(c_lo):
                return lo
            if c_lo <= target_rc_count:
                break
            hi = lo
    while probes < max_probes:
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


def _config_dict(config: ClusterConfig) -> dict:
    return {
        "quality": config.quality,
        "resolution": config.resolution,
        "rng_seed": config.rng_seed,
        "max_iterations": config.max_iterations,
        "seeded": config.seed_assignment is not None,
    }


def save_partition(partition: Partition, tsv_path, meta_path=None) -> None:
    with open(tsv_path, "w") as fh:
        fh.write("paper_id\trc_id\n")
        for pid in sorted(partition.assignment):
            fh.write(f"{pid}\t{partition.assignment[pid]}\n")
    if meta_path is not None:
        meta = {
            "model_year": partition.model_year,
            "extended_through": partition.extended_through,
            "rc_count": partition.rc_count,
            "quality": partition.quality,
            "config": partition.config_used,
            "external_assignment": {str(k): v for k, v in
                                    sorted(partition.external_assignment.items())},
        }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_partition(tsv_path, meta_path=None) -> Partition:
    assignment: dict[int, int] = {}
    with open(tsv_path) as fh:
        header = fh.readline()
        if header.strip() != "paper_id\trc_id":
            raise ClusterError(f"bad partition header: {header.strip()!r}")
        for line in fh:
            pid, rc = line.split()
            assignment[int(pid)] = int(rc)
    model_year = None
    extended_through = None
    quality = 0.0
    external: dict[int, int] = {}
    config_used: dict = {}
    rc_count = len(set(assignment.values()))
    if meta_path is not None:
        with open(meta_path) as fh:
            meta = json.load(fh)
        model_year = meta.get("model_year")
        extended_through = meta.get("extended_through")
        quality = meta.get("quality", 0.0)
        rc_count = meta.get("rc_count", rc_count)
        config_used = meta.get("config", {})
        external = {int(k): v for k, v in meta.get("external_assignment", {}).items()}
    return Partition(assignment, model_year=model_year, rc_count=rc_count, quality=quality,
                     extended_through=extended_through, external_assignment=external,
                     config_used=config_used)
