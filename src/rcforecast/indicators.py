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

from .corpus import Corpus, CorpusError, JournalRank

INDICATOR_NAMES = ("stage", "cvit", "rvit", "delta_rvit",
                   "ntopj", "ctopj", "eigen", "nart", "nrev", "nref")

TOP_RANK = 250
DEFAULT_WINDOW = 10

#: transform applied before yearly standardization, keyed by indicator
_TRANSFORMS = {
    "stage": "identity",
    "cvit": "log",
    "rvit": "fourth_root",
    "delta_rvit": "identity",
    "ntopj": "log1p",
    "ctopj": "log1p",
    "eigen": "log1p",
    "nart": "log1p",
    "nrev": "log1p",
    "nref": "log1p",
}


# One row of an indicator TSV each, as ``read_indicator_tsv`` returns them; the
# library itself keeps a forecast year's indicators as an ``IndicatorTable``.
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


class Panel:
    """The per-RC, per-year record of one partition of a corpus.

    Built once per (corpus, partition), and the only place that aggregates
    papers into (rc, year) cells. Per-paper arrays in (year, paper_id) order
    fold into (rc, year) cubes with ``np.bincount``; counts, shares, peak
    years and the raw indicators of every forecast year are read off them.
    ``bincount`` adds weights in input order, so every float sum accumulates
    paper by paper, and reference by reference, as a plain loop would.

    ``partition`` is a Partition or a plain paper -> rc mapping. Shares use
    the corpus-wide yearly totals as denominator; an empty year has share 0.
    """

    def __init__(self, corpus: Corpus, partition, window: int = DEFAULT_WINDOW):
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

        # per-paper arrays over the whole corpus, in (year, paper_id) order
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

        # per-reference arrays: citing paper, and cited paper (-1 outside the corpus)
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

    # --- shares -----------------------------------------------------------------

    def share_column(self, year: int) -> np.ndarray:
        """Every RC's share in ``year``."""
        if not (self.first_year <= year <= self.last_year):
            raise CorpusError(f"year {year} outside corpus span")
        if self.totals[year - self.first_year] == 0:
            raise CorpusError(f"empty year {year}")
        return self.shares[:, year - self.first_year]

    def share(self, rc_id: int, year: int) -> float:
        """Share of ``rc_id`` in ``year``: its papers over all papers that year."""
        column = self.share_column(year)
        row = self._row.get(rc_id)
        return 0.0 if row is None else float(column[row])

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
        return self.first_year + shares.shape[1] - 1 - np.argmax(shares[:, ::-1], axis=1)

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


def _top(rank: JournalRank | None, which: str) -> bool:
    value = None if rank is None else getattr(rank, which)
    return value is not None and value <= TOP_RANK


def _transform(name: str, values: np.ndarray) -> np.ndarray:
    kind = _TRANSFORMS[name]
    if kind == "identity":
        return values
    if kind == "log":
        return np.log(values)
    if kind == "log1p":
        return np.log1p(values)
    if kind == "fourth_root":
        return values ** 0.25
    raise ValueError(kind)


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
    """Raw and standardized columns side by side, one row per (rc_id, fy).

    Counts print as integers and every float by its repr, undefined rvit as nan.
    """
    columns = ([table.raw["rc_id"], np.full(len(table), table.fy), table.raw["pk"],
                table.raw["papers_in_fy"]] + [table.raw[name] for name in INDICATOR_NAMES]
               + [table.std[name] for name in INDICATOR_NAMES])
    with open(path, "w") as fh:
        fh.write("\t".join(_TSV_COLUMNS) + "\n")
        for row in zip(*(column.tolist() for column in columns)):
            fh.write("\t".join(map(repr, row)) + "\n")


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
