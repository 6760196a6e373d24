"""Exceptional-growth labels, composite scoring, ranking and top-N selection.

The outcome label is 1 when the annualized publication-share growth rate from
the peak year to the target year (three years past the forecast year) strictly
exceeds 1.08. The composite score is a linear combination of standardized
indicators used only to rank communities; it carries no intercept.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .indicators import INDICATOR_NAMES, IndicatorTable, Panel

GROWTH_THRESHOLD = 1.08
HORIZON = 3
OVERSELECT = 1.5  # forecasts issued per observed exceptional-growth event

#: composite coefficients fitted on the actionable forecast years; the
#: delta_rvit coefficient is the published third term
DEFAULT_VARIABLES = ("stage", "cvit", "delta_rvit", "ntopj")
DEFAULT_COEFFICIENTS = (0.292, 0.473, 0.100, 0.113)


@dataclass
class CompositeModel:
    variables: tuple[str, ...]
    coefficients: tuple[float, ...]
    intercept: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.coefficients = tuple(float(c) for c in self.coefficients)
        if len(self.variables) != len(self.coefficients):
            raise ValueError("variables and coefficients must align")

    @classmethod
    def default(cls) -> "CompositeModel":
        return cls(DEFAULT_VARIABLES, DEFAULT_COEFFICIENTS,
                   meta={"source": "published composite"})

    def to_json(self, path) -> None:
        obj = {
            "variables": list(self.variables),
            "coefficients": list(self.coefficients),
            "intercept": self.intercept,
            "meta": self.meta,
        }
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "CompositeModel":
        """Load a composite; ValueError unless the file holds an object whose
        ``variables`` are indicator names, ``coefficients`` as many finite
        numbers, and ``intercept`` null or a finite number."""
        with open(path) as fh:
            obj = json.load(fh)
        if type(obj) is not dict:
            raise ValueError(f"composite {path} must hold a JSON object")
        variables, coefficients = obj.get("variables"), obj.get("coefficients")
        intercept = obj.get("intercept")
        if type(variables) is not list or not all(v in INDICATOR_NAMES for v in variables):
            raise ValueError(f"composite {path}: variables must be a list of indicator "
                             f"names from {', '.join(INDICATOR_NAMES)}")
        if type(coefficients) is not list or len(coefficients) != len(variables) \
                or not all(map(_is_number, coefficients)):
            raise ValueError(f"composite {path}: coefficients must be a list of "
                             f"{len(variables)} numbers, one per variable")
        if intercept is not None and not _is_number(intercept):
            raise ValueError(f"composite {path}: intercept must be null or a number")
        return cls(tuple(variables), tuple(coefficients), intercept=intercept,
                   meta=obj.get("meta", {}))


def _is_number(x) -> bool:
    # exact types: JSON true/false are not numbers, nor are NaN and infinities
    return type(x) in (int, float) and math.isfinite(x)


@dataclass(frozen=True)
class ForecastRecord:
    rc_id: int
    fy: int
    ty: int
    ry: int
    score: float
    predicted: int
    papers_in_fy: int
    outcome: int | None = None
    growth_rate: float | None = None


def growth_rate(shares: dict[int, float], pk: int, ty: int) -> float:
    """Annualized share growth from the peak year to the target year:
    (S_ty / S_pk) ** (1 / (ty - pk))."""
    if ty <= pk:
        raise ValueError(f"target year {ty} must follow peak year {pk}")
    s_pk = shares.get(pk)
    if not s_pk:
        raise ValueError(f"peak-year share is zero or missing for year {pk}")
    if ty not in shares:
        raise ValueError(f"no share for target year {ty}")
    s_ty = shares[ty]
    return float((s_ty / s_pk) ** (1.0 / (ty - pk)))


def label_exceptional(gr: float, threshold: float = GROWTH_THRESHOLD) -> int:
    """1 iff the growth rate strictly exceeds the threshold."""
    if gr < 0:
        raise ValueError("growth rate cannot be negative")
    return 1 if gr > threshold else 0


def growth_labels(panel: Panel, rows: np.ndarray, pk: np.ndarray,
                  ty: int) -> tuple[list[float], list[int]]:
    """Growth rates from each peak year ``pk`` to ``ty`` of the panel's RC
    ``rows``, and their labels, by the scalar rule on the panel's shares."""
    if len(rows) == 0:    # ty may then lie before the corpus span
        return [], []
    s_pk = panel.shares[rows, pk - panel.first_year].tolist()
    s_ty = panel.shares[rows, ty - panel.first_year].tolist()
    observed = panel.totals[ty - panel.first_year] > 0   # an empty year has no share
    rates = [growth_rate({p: a, ty: b} if observed else {p: a}, p, ty)
             for p, a, b in zip(pk.tolist(), s_pk, s_ty)]
    return rates, [label_exceptional(gr) for gr in rates]


def table_outcomes(panel: Panel, table: IndicatorTable, min_papers: int = 0
                   ) -> tuple[np.ndarray, list[float] | None, list[int] | None]:
    """The rows of ``table`` with at least ``min_papers`` papers in its fy, and
    their growth rates and labels; both None when the corpus or the partition
    ends before the target year fy + HORIZON."""
    model_year = getattr(panel.partition, "model_year", None)
    if model_year is None:
        raise ValueError("partition has no model_year; cannot compute relative year")
    extended = getattr(panel.partition, "extended_through", model_year)
    kept = np.flatnonzero(table.raw["papers_in_fy"] >= min_papers)
    ty = table.fy + HORIZON
    if ty > panel.last_year or ty > extended:
        return kept, None, None
    rows = np.searchsorted(panel.rc_ids, table.raw["rc_id"][kept])
    return kept, *growth_labels(panel, rows, table.raw["pk"][kept], ty)


def composite_score(values, model: CompositeModel):
    """Sum of model coefficients times the named standardized values, in model
    order from 0.0. ``values`` maps names to numbers, or to arrays to score a
    whole table; elementwise, each term rounds as the scalar sum does."""
    score = 0.0
    for name, coef in zip(model.variables, model.coefficients):
        if name not in values:
            raise KeyError(f"standardized indicator {name!r} missing")
        score = score + coef * values[name]
    return score


def oracle_n(records: list[ForecastRecord]) -> int:
    """Evaluation-mode selection size: ceil(1.5 x observed exceptional events)."""
    xg = sum(1 for r in records if r.outcome == 1)
    return math.ceil(OVERSELECT * xg)


def select_top_n(records: list[ForecastRecord], n: int) -> list[ForecastRecord]:
    """Flag the top-n records by (score desc, rc_id asc); returns records in
    that rank order with ``predicted`` set."""
    if n > len(records):
        raise ValueError(f"n={n} exceeds record count {len(records)}")
    ranked = sorted(records, key=lambda r: (-r.score, r.rc_id))
    return [replace(r, predicted=1 if i < n else 0) for i, r in enumerate(ranked)]


def build_forecasts(panel: Panel, table: IndicatorTable, model: CompositeModel,
                    min_papers: int = 0) -> list[ForecastRecord]:
    """Score one forecast year's table and attach outcomes where the corpus and
    partition extend through the target year.

    ``predicted`` is left 0; run select_top_n (production n or oracle_n) after.
    """
    kept, rates, labels = table_outcomes(panel, table, min_papers)
    if rates is None:
        rates = labels = [None] * len(kept)
    # np.full broadcasts the scores; a model without variables scores 0.0
    scores = np.full(len(table), composite_score(table.std, model))[kept]
    fy, ty, ry = table.fy, table.fy + HORIZON, table.fy - panel.partition.model_year
    return [ForecastRecord(rc_id=rc, fy=fy, ty=ty, ry=ry, score=score, predicted=0,
                           papers_in_fy=n, outcome=label, growth_rate=gr)
            for rc, score, n, label, gr in zip(
                table.raw["rc_id"][kept].tolist(), scores.tolist(),
                table.raw["papers_in_fy"][kept].tolist(), labels, rates)]


# --- persistence -------------------------------------------------------------

_TSV_HEADER = ["rc_id", "fy", "ty", "ry", "papers_in_fy", "score", "predicted",
               "outcome", "growth_rate"]


def write_forecast_tsv(path, records: list[ForecastRecord]) -> None:
    """Machine twin of the published forecast listings, sorted by score descending."""
    ranked = sorted(records, key=lambda r: (-r.score, r.rc_id))
    with open(path, "w") as fh:
        fh.write("\t".join(_TSV_HEADER) + "\n")
        for r in ranked:
            fh.write("\t".join([
                str(r.rc_id), str(r.fy), str(r.ty), str(r.ry), str(r.papers_in_fy),
                repr(float(r.score)), str(r.predicted),
                "" if r.outcome is None else str(r.outcome),
                "" if r.growth_rate is None else repr(float(r.growth_rate)),
            ]) + "\n")


def read_forecast_tsv(path) -> list[ForecastRecord]:
    out = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != _TSV_HEADER:
            raise ValueError(f"unexpected forecast header: {header}")
        for line in fh:
            c = line.rstrip("\n").split("\t")
            out.append(ForecastRecord(
                rc_id=int(c[0]), fy=int(c[1]), ty=int(c[2]), ry=int(c[3]),
                papers_in_fy=int(c[4]), score=float(c[5]), predicted=int(c[6]),
                outcome=None if c[7] == "" else int(c[7]),
                growth_rate=None if c[8] == "" else float(c[8]),
            ))
    return out
