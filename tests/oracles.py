"""Independent brute-force oracles used by the unit and acceptance suites.

These deliberately avoid the library's data structures: partition quality is
recomputed from edge lists with dictionaries, and optima come from exhaustive
enumeration over all set partitions (Bell(8) = 4140, so n <= 8 stays fast).
Indicators, growth labels and the lifecycle table are recomputed by loops over
papers and references; only the result types and the scalar growth rule come
from the library.
"""

import numpy as np

from rcforecast.corpus import CorpusError
from rcforecast.evaluate import LifecycleRow
from rcforecast.forecast import HORIZON, growth_rate, label_exceptional
from rcforecast.indicators import DEFAULT_WINDOW, TOP_RANK, RawIndicators


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
