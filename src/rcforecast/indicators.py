"""The RC x year panel of a partition and the per-(RC, forecast-year) indicators
read off it: raw values, transforms, yearly standardization.

Ten indicators per row. Life cycle: stage (reciprocal time since the peak
publication-share year), cvit (mean reciprocal paper age over a ten-year
window), rvit (mean reciprocal reference age of the forecast-year papers,
fourth-root transformed and clipped at three standard deviations) and
delta_rvit (Z-score of rvit against its own ten-year history, bounded at five).
Academic importance: ntopj / ctopj / eigen count forecast-year papers in, or
references to, top-250 journals. Size: nart, nrev, nref.

Reciprocal age is 1/(age+1) throughout, which gives cvit its 1/11..1 range and
keeps same-year references finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .artifacts import write_tsv
from .cluster import Partition
from .corpus import DOC_TYPES, Corpus, CorpusError

INDICATOR_NAMES = ("stage", "cvit", "rvit", "delta_rvit",
                   "ntopj", "ctopj", "eigen", "nart", "nrev", "nref")

TOP_RANK = 250
DEFAULT_WINDOW = 10

#: transform applied before yearly standardization (None: none), keyed by indicator
_TRANSFORMS = {
    "stage": None,
    "cvit": np.log,
    "rvit": lambda values: values ** 0.25,
    "delta_rvit": None,
    "ntopj": np.log1p,
    "ctopj": np.log1p,
    "eigen": np.log1p,
    "nart": np.log1p,
    "nrev": np.log1p,
    "nref": np.log1p,
}


class Panel:
    """The per-RC, per-year record of one partition of a corpus.

    Built once per (corpus, partition), and the only place that aggregates
    papers into (rc, year) cells. The corpus columns fold into (rc, year)
    cubes with ``np.bincount``; counts, shares, peak years and the raw
    indicators of every forecast year are read off them. ``bincount`` adds
    weights in input order, so every float sum accumulates paper by paper in
    (year, paper_id) order, and reference by reference, as a plain loop would.

    Shares use the corpus-wide yearly totals as denominator; an empty year
    has share 0.
    """

    def __init__(self, corpus: Corpus, partition: Partition, window: int = DEFAULT_WINDOW):
        rows, self.rc_ids, rc_row = corpus.partition_rows(partition)
        self.partition = partition
        self.window = window
        y0, y1 = corpus.meta.first_year, corpus.meta.last_year
        self.first_year, self.last_year = y0, y1
        n_rc, n_years = len(self.rc_ids), y1 - y0 + 1

        # per-paper arrays in paper_id order: a cell holds papers of one year,
        # so each cell's sums still run in (year, paper_id) order
        year, n = corpus.year, len(corpus.year)
        top_cs = _top_journals(corpus, "citescore_rank")[corpus.journal]
        top_eigen = _top_journals(corpus, "eigenfactor_rank")[corpus.journal]
        article = corpus.doc_type == DOC_TYPES.index("article")
        review = corpus.doc_type == DOC_TYPES.index("review")
        n_refs = np.diff(corpus.ref_ptr)
        rc = np.full(n, -1, np.int64)
        rc[rows] = rc_row
        cell = np.where(rc >= 0, rc * n_years + (year - y0), -1)

        # per-reference arrays: citing paper, and cited paper (-1 outside the corpus)
        citing, cited = np.repeat(np.arange(n), n_refs), corpus.ref_row
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
        self.totals = np.bincount(year - y0, minlength=n_years)
        self.shares = np.divide(self.counts, self.totals, out=np.zeros(self.counts.shape),
                                where=self.totals > 0)
        # cvit sums an RC's papers over several years, in (year, paper_id) order
        order = np.argsort(year, kind="stable")
        self._paper_rc, self._paper_year = rc[order][member[order]], year[order][member[order]]

    # --- shares -----------------------------------------------------------------

    def share_column(self, year: int) -> np.ndarray:
        """Every RC's share in ``year``."""
        if not (self.first_year <= year <= self.last_year):
            raise CorpusError(f"year {year} outside corpus span")
        if self.totals[year - self.first_year] == 0:
            raise CorpusError(f"empty year {year}")
        return self.shares[:, year - self.first_year]

    # --- per forecast year ------------------------------------------------------

    def _years(self, lo: int, hi: int) -> slice:
        """Columns of the years lo..hi that fall inside the corpus span."""
        return slice(max(lo, self.first_year) - self.first_year,
                     max(min(hi, self.last_year) + 1 - self.first_year, 0))

    def _at(self, cube: np.ndarray, year: int, fill=0) -> np.ndarray:
        if self.first_year <= year <= self.last_year:
            return cube[:, year - self.first_year]
        return np.full(len(self.rc_ids), fill, dtype=cube.dtype)

    def in_window(self, fy: int) -> np.ndarray:
        """Rows of the RCs with papers in [fy - window, fy]."""
        return np.flatnonzero(self.counts[:, self._years(fy - self.window, fy)].sum(axis=1))

    def papers_in(self, fy: int) -> np.ndarray:
        """Every RC's paper count in ``fy``."""
        return self._at(self.counts, fy)

    def peak_years(self, fy: int, rows=None) -> np.ndarray:
        """Latest year through ``fy`` at which each RC's share attains its maximum."""
        shares = self.shares[:, self._years(self.first_year, fy)]
        if rows is not None:
            shares = shares[rows]
        if len(shares) == 0:
            return np.zeros(0, dtype=np.int64)
        if shares.shape[1] == 0 or np.any(shares.max(axis=1) <= 0.0):
            raise ValueError(f"RC has no papers through {fy}")
        return self.first_year + last_peaks(shares)

    def _delta_rvit(self, fy: int, rvit: np.ndarray) -> np.ndarray:
        """Z-score of rvit against each RC's own defined history in
        [fy - window, fy), bounded at 5; 0 with fewer than 3 history years.

        Histories of equal length are reduced together, row by row, as
        np.mean and np.std reduce one RC's history.
        """
        history = self._rvit[:, self._years(fy - self.window, fy - 1)]
        defined = ~np.isnan(history)
        length = defined.sum(axis=1)
        out = np.zeros(len(rvit))
        for k in np.unique(length[(length >= 3) & ~np.isnan(rvit)]):
            rows = np.flatnonzero((length == k) & ~np.isnan(rvit))
            values = history[rows][defined[rows]].reshape(len(rows), k)
            mean, std = values.mean(axis=1), values.std(axis=1)
            z = np.divide(rvit[rows] - mean, std, out=np.zeros(len(rows)), where=std >= 1e-12)
            out[rows] = np.clip(z, -5.0, 5.0)
        return out

    def columns(self, fy: int) -> dict[str, np.ndarray]:
        """Raw indicators of every RC with papers in [fy - window, fy], by rc_id:
        ``rc_id``, ``pk``, ``papers_in_fy`` and the ten indicator columns, with
        undefined rvit as NaN."""
        rows = self.in_window(fy)
        pk = self.peak_years(fy, rows)
        in_window = (self._paper_year >= fy - self.window) & (self._paper_year <= fy)
        paper_rc = self._paper_rc[in_window]
        reciprocal_age = 1.0 / (fy - self._paper_year[in_window] + 1)
        n_rc = len(self.rc_ids)
        cvit = (np.bincount(paper_rc, weights=reciprocal_age, minlength=n_rc)[rows]
                / np.bincount(paper_rc, minlength=n_rc)[rows])
        rvit = self._at(self._rvit, fy, fill=np.nan)
        columns = {"rc_id": self.rc_ids[rows], "pk": pk,
                   "papers_in_fy": self.papers_in(fy)[rows],
                   "stage": 1.0 / (fy - pk + 1), "cvit": cvit, "rvit": rvit[rows],
                   "delta_rvit": self._delta_rvit(fy, rvit)[rows]}
        columns.update((name, self._at(cube, fy)[rows]) for name, cube in self._cubes.items())
        return columns


def last_peaks(shares: np.ndarray) -> np.ndarray:
    """Per row of ``shares``, the last column at which the row reaches its maximum."""
    return shares.shape[1] - 1 - np.argmax(shares[:, ::-1], axis=1)


@dataclass(frozen=True, eq=False)
class IndicatorTable:
    """One forecast year's indicators as columns, one entry per RC, by rc_id.

    ``raw`` holds ``rc_id``, ``pk``, ``papers_in_fy`` and the ten raw
    indicators (undefined rvit is NaN), as ``Panel.columns`` returns them;
    ``std`` holds the ten standardized indicators.
    """

    fy: int
    raw: dict[str, np.ndarray]
    std: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.raw["rc_id"])


def _top_journals(corpus: Corpus, which: str) -> np.ndarray:
    """Top-``TOP_RANK`` flags of ``corpus.journal_ids`` by ``which``, then False."""
    ranks = [getattr(corpus.ranks.get(j), which, None) for j in corpus.journal_ids.tolist()]
    return np.array([r is not None and r <= TOP_RANK for r in ranks] + [False])


def _transform(name: str, values: np.ndarray) -> np.ndarray:
    transform = _TRANSFORMS[name]
    return values if transform is None else transform(values)


def standardize(raw: dict[str, np.ndarray], fy: int) -> dict[str, np.ndarray]:
    """Transform each indicator column and standardize it by the forecast-year
    population.

    Uses population mean/stdev; a constant column standardizes to all zeros
    with a warning. Undefined (NaN) rvit values standardize to 0 (the
    population mean) and rvit is clipped to +/- 3 after standardization.
    """
    n = len(raw["rc_id"])
    if n < 2:
        raise ValueError(f"fewer than 2 RC rows at fy={fy}; cannot standardize")
    columns: dict[str, np.ndarray] = {}
    for name in INDICATOR_NAMES:
        vals = np.asarray(raw[name], dtype=float)
        defined = ~np.isnan(vals)
        t = np.full(n, math.nan)
        t[defined] = _transform(name, vals[defined])
        mean = float(np.mean(t[defined]))
        std = float(np.std(t[defined]))
        if std < 1e-12:
            warnings.warn(f"indicator {name} is constant in fy={fy}; "
                          "standardized values set to 0")
            z = np.zeros(n)
        else:
            z = (t - mean) / std
            z[~defined] = 0.0
        if name == "rvit":
            z = np.clip(z, -3.0, 3.0)
        columns[name] = z
    return columns


# --- persistence -------------------------------------------------------------

_TSV_COLUMNS = (["rc_id", "fy", "pk", "papers_in_fy"]
                + list(INDICATOR_NAMES)
                + [name + "_s" for name in INDICATOR_NAMES])


def write_indicator_tsv(path, table: IndicatorTable) -> None:
    """Raw and standardized columns side by side, one row per (rc_id, fy);
    undefined rvit prints as nan."""
    columns = {"fy": np.full(len(table), table.fy), **table.raw,
               **{name + "_s": table.std[name] for name in INDICATOR_NAMES}}
    write_tsv(path, {name: columns[name] for name in _TSV_COLUMNS})
