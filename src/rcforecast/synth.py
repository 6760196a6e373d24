"""Synthetic corpora with planted research-community lifecycles.

Every paper belongs to a known community; every community follows a lifecycle
trajectory (emerging, growing, mature, declining, with optional dip-and-recover
segments). A configured fraction of communities receives a growth episode: a
multi-year rise in publication share steep enough to register as exceptional
growth for the forecast years the rise covers. Ground-truth exceptional-growth
labels are the pipeline's own outcome rule applied to the realized
publication shares, so the generator's bookkeeping is an oracle for every
downstream stage.

Signals are planted structurally, not painted onto indicator values:

* rising communities concentrate their papers near the forecast year (stage,
  cvit),
* papers in a rise cite younger work (rvit, delta_rvit), with strength set by
  ``signal_strengths["rvit"]``,
* papers in a rise land in top-ranked journals more often (ntopj, and through
  the shared journal choice also eigen/ctopj), scaled by
  ``signal_strengths["ntopj"]``.

Communities experiencing a growth episode draw their sizes from a boosted
distribution so that growth events remain observable above the usual
20-papers-in-FY size filter; a small "large mature" slice anchors the filtered
population. This is not a model of science, it is a test oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .artifacts import INT_TEXT, is_int64, read_tsv, write_tsv
from .config import check_types
from .forecast import HORIZON, growth_outcomes
from .indicators import last_peaks

EXTERNAL_ID_BASE = 10 ** 8

LIFECYCLE_CLASSES = ("emerging", "growing", "mature", "declining")

_DEFAULT_MIX = {"emerging": 0.15, "growing": 0.15, "mature": 0.45, "declining": 0.25}
_DEFAULT_SIGNALS = {"rvit": 1.0, "ntopj": 1.0}

# geometric youth parameter for reference ages, by lifecycle class
_AGE_P = {"emerging": 0.40, "growing": 0.30, "mature": 0.18, "declining": 0.15}

# community size tiers beside the base one (log-normal; medians in papers): a
# thin slice of persistently large mature communities, and growth-episode
# communities, whose small tier carries the per-fy label base rate while a
# heavy tier is large enough to stay above the 20-papers-in-FY filter while
# still rising, so filtered slices keep observable events
LARGE_MATURE_FRACTION = 0.015
LARGE_SIZE_MEDIAN, LARGE_SIZE_SIGMA = 320.0, 0.4
XG_SIZE_MEDIAN, XG_SIZE_SIGMA = 25.0, 1.0
XG_LARGE_FRACTION = 0.18
XG_LARGE_MEDIAN, XG_LARGE_SIGMA = 350.0, 0.5


class SynthError(ValueError):
    pass


@dataclass
class SynthConfig:
    rng_seed: int = 0
    n_communities: int = 1000
    first_year: int = 2000
    last_year: int = 2014
    # the base tier of community total sizes (log-normal; median in papers)
    size_median: float = 3.0
    size_sigma: float = 1.2
    lifecycle_mix: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_MIX))
    planted_xg_fraction: float = 0.015
    signal_strengths: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_SIGNALS))
    # per-reference routing probabilities; the remainder goes to external items
    intra_p: float = 0.75
    inter_p: float = 0.10
    top_journal_count: int = 20
    top_journal_propensity: float = 3.0
    n_journals: int = 80
    base_top_journal_p: float = 0.10
    refs_mean: float = 6.0
    p_no_refs: float = 0.04
    p_no_terms: float = 0.02
    dip_fraction: float = 0.10
    noise_sigma: float = 0.05
    external_pool_size: int = 5

    def __post_init__(self):
        check_types(self, SynthError)
        if self.n_communities < 10:
            raise SynthError("need at least 10 communities")
        if self.last_year - self.first_year + 1 < 10:
            raise SynthError("need a span of at least 10 years")
        if abs(sum(self.lifecycle_mix.values()) - 1.0) > 1e-9:
            raise SynthError("lifecycle mix fractions must sum to 1")
        if set(self.lifecycle_mix) - set(LIFECYCLE_CLASSES):
            raise SynthError(f"unknown lifecycle classes: "
                             f"{set(self.lifecycle_mix) - set(LIFECYCLE_CLASSES)}")
        if not (0.0 <= self.inter_p < self.intra_p):
            raise SynthError("need intra_p > inter_p >= 0 (communities must be detectable)")
        if self.intra_p + self.inter_p > 1.0:
            raise SynthError("intra_p + inter_p cannot exceed 1")
        if not (0.0 <= self.planted_xg_fraction <= 0.2):
            raise SynthError("planted_xg_fraction must be in [0, 0.2]")
        if not (1 <= self.top_journal_count < self.n_journals):
            raise SynthError("top_journal_count must be at least 1 and below n_journals")
        if self.external_pool_size < 0:
            raise SynthError("external_pool_size must be at least 0")


@dataclass
class CommunitySpec:
    cid: int
    lifecycle: str
    total: int
    planted: bool
    rise_start: int | None = None     # year index
    rise_len: int = 0
    growth: float = 0.0


@dataclass
class SynthResult:
    papers_path: Path
    ranks_path: Path
    truth_path: Path
    n_papers: int
    n_communities: int
    paper_community: dict[int, int]
    community_class: dict[int, str]
    xg_truth: dict[tuple[int, int], int]   # (community, fy) -> label
    summary: dict


def _apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` across weights (zeros stay zero)."""
    w = np.maximum(weights, 0.0)
    s = w.sum()
    if s <= 0 or total <= 0:
        return np.zeros(len(w), dtype=np.int64)
    quota = total * w / s
    counts = np.floor(quota).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        rema = quota - counts
        order = np.lexsort((np.arange(len(w)), -rema))
        counts[order[:short]] += 1
    return counts


def _community_specs(config: SynthConfig, rng) -> list[CommunitySpec]:
    n = config.n_communities
    y0, y1 = config.first_year, config.last_year
    classes = list(config.lifecycle_mix)
    probs = np.array([config.lifecycle_mix[c] for c in classes])
    drawn = rng.choice(len(classes), size=n, p=probs)

    n_large = round(LARGE_MATURE_FRACTION * n)
    large_ids = set(rng.choice(n, size=n_large, replace=False).tolist())

    # growth episodes: a rise of R years at rate g registers as exceptional
    # growth for about R forecast years (one pre-rise, the rise itself, one
    # post-peak); sized so the mean per-fy rate hits the configured fraction
    coverable = (y1 - HORIZON) - (y0 + 2) + 1
    mean_cover = 3.2  # empirical per-episode label coverage, edge taper included
    n_xg = round(config.planted_xg_fraction * n * coverable / mean_cover)
    candidates = np.array(sorted(set(range(n)) - large_ids))
    planted_ids = set(rng.choice(candidates, size=min(n_xg, len(candidates)),
                                 replace=False).tolist()) if n_xg else set()

    specs = []
    for cid in range(n):
        planted = cid in planted_ids
        if cid in large_ids:
            lifecycle = "mature"
            total = LARGE_SIZE_MEDIAN * math.exp(rng.normal(0.0, LARGE_SIZE_SIGMA))
        elif planted:
            lifecycle = "growing"
            if rng.random() < XG_LARGE_FRACTION:
                total = XG_LARGE_MEDIAN * math.exp(rng.normal(0.0, XG_LARGE_SIGMA))
            else:
                total = XG_SIZE_MEDIAN * math.exp(rng.normal(0.0, XG_SIZE_SIGMA))
        else:
            lifecycle = classes[drawn[cid]]
            total = config.size_median * math.exp(rng.normal(0.0, config.size_sigma))
        spec = CommunitySpec(cid=cid, lifecycle=lifecycle, total=max(3, round(total)),
                             planted=planted)
        if planted:
            spec.rise_len = int(rng.integers(4, 7))                 # 4..6 rise years
            lo = 1
            hi = (y1 - y0) - spec.rise_len
            spec.rise_start = int(rng.integers(lo, hi + 1))
            spec.growth = float(rng.uniform(1.28, 1.45))
        specs.append(spec)
    return specs


def _trajectory(spec: CommunitySpec, n_years: int, config: SynthConfig, rng) -> np.ndarray:
    y = np.arange(n_years)
    if spec.planted:
        base = 0.3
        w = np.full(n_years, base)
        t0, r = spec.rise_start, spec.rise_len
        w[t0:t0 + r + 1] = base * spec.growth ** np.arange(0, min(r + 1, n_years - t0))
        peak = w[min(t0 + r, n_years - 1)]
        tail = np.arange(1, n_years - (t0 + r))
        if len(tail):
            w[t0 + r + 1:] = peak * 0.92 ** tail
    elif spec.lifecycle == "emerging":
        onset = int(rng.integers(3, n_years - 1))
        g = rng.uniform(1.00, 1.05)
        w = np.zeros(n_years)
        w[onset:] = g ** np.arange(n_years - onset)
    elif spec.lifecycle == "growing":
        g = rng.uniform(1.01, 1.05)
        w = g ** y.astype(float)
    elif spec.lifecycle == "declining":
        d = rng.uniform(0.85, 0.95)
        w = d ** y.astype(float)
    else:  # mature
        w = np.ones(n_years)

    if not spec.planted and spec.lifecycle in ("mature", "declining") \
            and rng.random() < config.dip_fraction:
        # dip and recover, the volatile pattern
        ds = int(rng.integers(2, n_years - 2))
        w[ds:ds + 2] *= 0.55
    w = w * np.exp(rng.normal(0.0, config.noise_sigma, size=n_years))
    return w


def _in_rise(spec: CommunitySpec, year_idx: int) -> bool:
    return (spec.planted and spec.rise_start is not None
            and spec.rise_start <= year_idx <= spec.rise_start + spec.rise_len)


def _geometric_age(u: float, p: float) -> int:
    # inverse-transform geometric on {1, 2, ...}; np.log, not math.log, since
    # the two may round differently and ages must match numpy's array log
    return 1 + math.floor(float(np.log(max(u, 1e-12))) / math.log(1.0 - p))


def _nearest_year_with_papers(wanted: int, years_with: list[int]) -> int | None:
    """Closest year from a sorted list; a tie goes to the older year."""
    i = bisect_right(years_with, wanted)
    if i == len(years_with):
        return years_with[-1] if years_with else None
    if i == 0 or years_with[i] - wanted < wanted - years_with[i - 1]:
        return years_with[i]
    return years_with[i - 1]


def _sample_intra(k: int, pool: list[int], by_year: list[list[int]],
                  years_with: list[int], yi: int, p_age: float, draws) -> list[int]:
    """k distinct earlier papers of one community, reference ages geometric.

    Small pools fall back to a uniform draw without replacement; the age
    structure is negligible there anyway.
    """
    if k == 0:
        return []
    if len(pool) <= 3 * k:
        return [pool[j] for j in draws.permutation(len(pool))[:k]]
    out: list[int] = []
    seen: set[int] = set()
    guard = 0
    while len(out) < k and guard < 8 * k:
        guard += 1
        ty = _nearest_year_with_papers(yi - _geometric_age(draws.random(), p_age), years_with)
        group = by_year[ty]
        cand = group[int(draws.random() * len(group))]
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    while len(out) < k and guard < 16 * k:
        guard += 1
        cand = pool[int(draws.random() * len(pool))]
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def _sample_inter(global_by_year: list[list[int]], yi: int, own: int,
                  paper_community: dict[int, int], taken: set[int], draws
                  ) -> int | None:
    """One earlier paper outside the citing community, or None."""
    for _ in range(4):
        ty = max(0, min(yi - _geometric_age(draws.random(), 0.20), yi - 1))
        cand = None
        for back in range(ty + 1):
            pool = global_by_year[ty - back]
            if pool:
                cand = pool[int(draws.random() * len(pool))]
                break
        if cand is not None and paper_community[cand] != own and cand not in taken:
            return cand
    return None


def _halves(words, has_uint32: int, uinteger: int):
    """PCG64's 32-bit draws: the buffered half-word, if any, then each word's
    low half and its high half. Paused between the two halves, this generator
    holds exactly the half-word that numpy buffers."""
    if has_uint32:
        yield uinteger
    for w in words:
        yield w & 0xFFFFFFFF
        yield w >> 32


# numpy's random_loggam: Stirling's series for log Γ(x), shifted up to x >= 7
_LOGGAM = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
           -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
           6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
           -1.39243221690590e+00)


def _loggam(x: float) -> float:
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for a in _LOGGAM[8::-1]:
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class _Draws:
    """The ``Generator`` calls of ``generate``'s per-paper loop, re-done over
    the raw words of its PCG64 (O'Neill 2014) by numpy's own rules, without
    numpy's per-call overhead. A double is a word's top 53 bits; a bounded
    integer is Lemire's multiply-and-reject (Lemire 2019, ACM TOMACS 29:3)
    over 32-bit draws, which share PCG64's buffered half-word as numpy's do.
    Each method returns a list where numpy returns an array, and leaves the
    words where numpy would leave its bit generator. Bounds are at most 2**32.

    The stream starts at ``bit_generator``'s state but does not advance it.
    """

    def __init__(self, bit_generator):
        state = bit_generator.state
        clone = np.random.PCG64()
        clone.state = state
        self.words = chain.from_iterable(iter(lambda: clone.random_raw(1 << 12).tolist(), None))
        self.word = self.words.__next__
        self.next32 = _halves(self.words, state["has_uint32"], state["uinteger"]).__next__

    def random(self, size=None):
        if size is None:
            return (self.word() >> 11) * 2.0 ** -53
        return [(w >> 11) * 2.0 ** -53 for w in islice(self.words, size)]

    def below(self, n: int) -> int:
        """Uniform on [0, n); n == 1 draws nothing."""
        if n == 1:
            return 0
        m = self.next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self.next32() * n
        return m >> 32

    def integers(self, low: int, high: int, size: int) -> list[int]:
        return [low + self.below(high - low) for _ in range(size)]

    def poisson(self, lam: float, size: int) -> list[int]:
        """The multiplication method below 10, numpy's PTRS from 10 on, and
        numpy's error above its largest ``lam``."""
        if lam > 9.223372006484771e18:
            raise ValueError("lam value too large")
        if lam >= 10:
            return [self._ptrs(lam) for _ in range(size)]
        if lam == 0:
            return [0] * size
        limit, words, out = math.exp(-lam), self.words, []
        for _ in range(size):
            x, prod = 0, (next(words) >> 11) * 2.0 ** -53
            while prod > limit:
                x += 1
                prod *= (next(words) >> 11) * 2.0 ** -53
            out.append(x)
        return out

    def _ptrs(self, lam: float) -> int:
        """Hörmann's transformed rejection with squeeze, as numpy's
        random_poisson_ptrs; ``us == 0`` and ``v == 0`` take the branches
        that C's infinities take."""
        b = 0.931 + 2.53 * math.sqrt(lam)
        a = -0.059 + 0.02483 * b
        invalpha, vr = 1.1239 + 1.1328 / (b - 3.4), 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if v == 0.0 or (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                            <= -lam + k * math.log(lam) - _loggam(k + 1)):
                return k

    def choice(self, n: int, size: int) -> list[int]:
        """``choice(n, size, replace=False)`` for n <= 10,000: Floyd's sample,
        then a shuffle of it."""
        below, out = self.below, []
        for j in range(n - size, n):
            v = below(j + 1)
            out.append(j if v in out else v)
        for i in range(size - 1, 0, -1):
            j = below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def permutation(self, n: int) -> list[int]:
        """Fisher–Yates from the top, each index drawn by masked rejection
        (numpy's random_interval)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            out[i], out[j] = out[j], out[i]
        return out


def _paper_line(pid: int, year: int, doc_type: str, journal: int,
                refs: list[int], terms: list[str]) -> str:
    """The ``json.dumps(..., separators=(",", ":"))`` line of one paper; ids are
    ints and terms are ``[0-9a-z]`` strings, so nothing needs escaping."""
    quoted = '"' + '","'.join(terms) + '"' if terms else ""
    return (f'{{"paper_id":{pid},"year":{year},"doc_type":"{doc_type}",'
            f'"journal_id":{journal},"references":[{",".join(map(str, refs))}],'
            f'"terms":[{quoted}]}}\n')


def _growth_labels(shares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (community, fy index): whether the community has a share yet, and
    its exceptional-growth label by the pipeline's rule."""
    has_top = np.logical_or.accumulate(shares[:, :-HORIZON] > 0.0, axis=1)
    labels = np.zeros_like(has_top)
    for f in range(has_top.shape[1]):
        rows = np.flatnonzero(has_top[:, f])
        pk = last_peaks(shares[rows, :f + 1])
        labels[rows, f] = growth_outcomes(shares[rows, f + HORIZON] / shares[rows, pk],
                                          f + HORIZON - pk)[1]
    return has_top, labels


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
    p_ext_intra = p_ext + config.intra_p

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
    n_refs_mean = max(config.refs_mean - 1.0, 0.0)
    pool_size = config.external_pool_size
    count_rows = counts.tolist()
    # every draw from here on comes from ``draws``, which starts where ``rng``
    # stands after the eigenfactor shuffle; ``rng`` is not drawn from again
    draws = _Draws(rng.bit_generator)
    random, integers, poisson = draws.random, draws.integers, draws.poisson

    next_id = 1
    with open(papers_path, "w") as fh:
        for yi in range(n_years):
            year = y0 + yi
            lines: list[str] = []
            for spec in specs:
                c = spec.cid
                k = count_rows[c][yi]
                if k == 0:
                    continue
                rise = _in_rise(spec, yi)
                p_top = p_top_rise if rise else config.base_top_journal_p
                p_age = p_young_rise if rise else _AGE_P[spec.lifecycle]

                # one block of draws per (community, year), in the stream's order
                block = zip(
                    random(k), random(k), integers(1, config.top_journal_count + 1, k),
                    integers(config.top_journal_count + 1, config.n_journals + 1, k),
                    random(k), poisson(n_refs_mean, k), random(k))
                for u_doc, u_top, j_top, j_rest, u_refs, nr_extra, u_terms in block:
                    pid = next_id
                    next_id += 1
                    doc_type = ("article" if u_doc < 0.85
                                else "review" if u_doc < 0.92 else "other")
                    journal = j_top if u_top < p_top else j_rest

                    refs: list[int] = []
                    if u_refs >= config.p_no_refs:
                        nr = 1 + nr_extra
                        kinds = sorted(random(nr))
                        n_ext = bisect_left(kinds, p_ext)
                        n_intra = bisect_left(kinds, p_ext_intra) - n_ext
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

                        refs = _sample_intra(k_intra, pool_c, members[c],
                                             years_with[c], yi, p_age, draws)
                        ref_events["intra"] += len(refs)
                        taken = set(refs)

                        for _ in range(n_inter):
                            ref = _sample_inter(global_by_year, yi, c,
                                                paper_community, taken, draws)
                            if ref is None:
                                n_ext += 1
                            else:
                                taken.add(ref)
                                refs.append(ref)
                                ref_events["inter"] += 1

                        if n_ext:
                            k_e = min(n_ext, pool_size)
                            base = EXTERNAL_ID_BASE + c * pool_size
                            refs.extend(base + j for j in
                                        draws.permutation(pool_size)[:k_e])
                            ref_events["external"] += k_e
                        refs.sort()

                    if u_terms < config.p_no_terms:
                        terms: list[str] = []
                    else:
                        own = draws.choice(12, 4)
                        # numpy's ``u ** 2`` is ``u * u``, then times 200
                        shared = [math.floor(200 * (u * u)) for u in random(3)]
                        terms = sorted([f"c{c}k{j}" for j in own]
                                       + [f"w{j}" for j in shared])

                    lines.append(_paper_line(pid, year, doc_type, journal, refs, terms))
                    paper_community[pid] = c
                    members[c][yi].append(pid)
                    global_by_year[yi].append(pid)
                years_with[c].append(yi)
                earlier[c].extend(members[c][yi])
            fh.writelines(lines)

    with open(ranks_path, "w") as fh:
        fh.write("journal_id,citescore_rank,eigenfactor_rank\n")
        for j in range(1, config.n_journals + 1):
            cs = j if j <= config.top_journal_count else 250 + j
            ep = int(eigen_positions[j - 1])
            eig = ep if ep <= config.top_journal_count else 250 + ep
            fh.write(f"{j},{cs},{eig}\n")

    # ground-truth labels from realized shares
    totals = counts.sum(axis=0)
    shares = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
    has_top, labels = _growth_labels(shares)
    cids, fys = np.nonzero(has_top)
    xg_truth: dict[tuple[int, int], int] = dict(zip(
        zip(cids.tolist(), (fys + y0).tolist()), labels[has_top].astype(int).tolist()))
    xg_per_fy = {y0 + f: n for f, n in enumerate(labels.sum(axis=0).tolist()) if n}

    # the "+xg" suffix marks communities carrying a planted growth episode
    community_class = {spec.cid: spec.lifecycle + ("+xg" if spec.planted else "")
                       for spec in specs}
    papers, classes, xg_keys = sorted(paper_community), list(community_class), sorted(xg_truth)
    write_tsv(truth_path, {
        "kind": ["paper"] * len(papers) + ["class"] * len(classes) + ["xg"] * len(xg_keys),
        "id": papers + classes + [cid for cid, _ in xg_keys],
        "fy": [None] * (len(papers) + len(classes)) + [fy for _, fy in xg_keys],
        "value": [*map(paper_community.get, papers), *community_class.values(),
                  *map(xg_truth.get, xg_keys)]})

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


def load_truth(path):
    """Parse truth.tsv back into (paper_community, community_class, xg_truth);
    SynthError naming its first bad line."""
    truth = {"paper": {}, "class": {}, "xg": {}}

    def file_rows(t: dict):
        """File each row under its kind; the first row that is not a paper,
        class or xg row (an fy on xg rows alone, an integer value on all but
        class rows) or that repeats an earlier key."""
        for i, (kind, key, fy, value) in enumerate(zip(t["kind"], t["id"].tolist(), t["fy"],
                                                       t["value"])):
            if kind not in truth or (fy is None) == (kind == "xg") or not (
                    kind == "class" or INT_TEXT.fullmatch(value) and is_int64(int(value))):
                return i, "expected a paper, class or xg row"
            if (key := key if fy is None else (key, fy)) in truth[kind]:
                return i, "repeats the key of an earlier {0} row"
            truth[kind][key] = value if kind == "class" else int(value)
        return None

    read_tsv(path, "truth", {"kind": "str", "id": "int", "fy": "int | None", "value": "str"},
             SynthError, file_rows)
    return truth["paper"], truth["class"], truth["xg"]
