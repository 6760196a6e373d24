"""Exceptional-growth labels, composite scoring, ranking and top-N selection.

The outcome label is 1 when the annualized publication-share growth rate from
the peak year to the target year (three years past the forecast year) strictly
exceeds 1.08. The composite score is a linear combination of standardized
indicators used only to rank communities; it carries no intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .artifacts import read_tsv, write_json, write_tsv
from .config import has_type, load_object
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
        write_json(path, {"variables": list(self.variables),
                          "coefficients": list(self.coefficients),
                          "intercept": self.intercept, "meta": self.meta})

    @classmethod
    def from_json(cls, path) -> "CompositeModel":
        """Load a composite; ValueError unless the file holds an object whose
        ``variables`` are indicator names, ``coefficients`` as many finite
        numbers, and ``intercept`` null or a finite number."""
        obj = load_object(path, "composite")
        variables, coefficients = obj.get("variables"), obj.get("coefficients")
        intercept = obj.get("intercept")
        if not has_type("list[str]", variables) or not set(variables) <= set(INDICATOR_NAMES):
            raise ValueError(f"composite {path}: variables must be a list of indicator "
                             f"names from {', '.join(INDICATOR_NAMES)}")
        if not has_type("list[float]", coefficients) or len(coefficients) != len(variables):
            raise ValueError(f"composite {path}: coefficients must be a list of "
                             f"{len(variables)} numbers, one per variable")
        if intercept is not None and not has_type("float", intercept):
            raise ValueError(f"composite {path}: intercept must be null or a number")
        return cls(tuple(variables), tuple(coefficients), intercept=intercept,
                   meta=obj.get("meta", {}))


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


def growth_outcomes(ratios, years) -> tuple[list[float], list[int]]:
    """Per element, the annualized share growth ``ratio ** (1 / years)`` by
    Python's ``**`` (numpy's division rounds as Python's does, its array power
    not) and its label."""
    exponents = (1.0 / np.asarray(years)).tolist()
    rates = [r ** e for r, e in zip(np.asarray(ratios, dtype=float).tolist(), exponents)]
    return rates, [label_exceptional(gr) for gr in rates]


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
    return growth_outcomes([shares[ty] / s_pk], [ty - pk])[0][0]


def label_exceptional(gr: float) -> int:
    """1 iff the growth rate strictly exceeds GROWTH_THRESHOLD."""
    if gr < 0:
        raise ValueError("growth rate cannot be negative")
    return 1 if gr > GROWTH_THRESHOLD else 0


def growth_labels(panel: Panel, rows: np.ndarray, pk: np.ndarray,
                  ty: int) -> tuple[list[float], list[int]]:
    """Growth rates from each peak year ``pk`` to ``ty`` of the panel's RC
    ``rows``, and their labels, by the scalar rule on the panel's shares."""
    if len(rows) == 0:    # ty may then lie before the corpus span
        return [], []
    if panel.totals[ty - panel.first_year] == 0:   # an empty year has no share
        raise ValueError(f"no share for target year {ty}")
    return growth_outcomes(panel.shares[rows, ty - panel.first_year]
                           / panel.shares[rows, pk - panel.first_year], ty - pk)


def last_observed_year(panel: Panel) -> int:
    """The last year within both the corpus and the partition's extension."""
    extended = panel.partition.extended_through
    return panel.last_year if extended is None else min(panel.last_year, extended)


def outcome_observed(panel: Panel, fy: int) -> bool:
    """Whether the target year fy + HORIZON of forecast year ``fy`` is observed."""
    return fy + HORIZON <= last_observed_year(panel)


def table_outcomes(panel: Panel, table: IndicatorTable, min_papers: int = 0
                   ) -> tuple[np.ndarray, list[float] | None, list[int] | None]:
    """The rows of ``table`` with at least ``min_papers`` papers in its fy, and
    their growth rates and labels; both None when the target year is not
    observed."""
    if panel.partition.model_year is None:
        raise ValueError("partition has no model_year; cannot compute relative year")
    kept = np.flatnonzero(table.raw["papers_in_fy"] >= min_papers)
    if not outcome_observed(panel, table.fy):
        return kept, None, None
    rows = np.searchsorted(panel.rc_ids, table.raw["rc_id"][kept])
    return kept, *growth_labels(panel, rows, table.raw["pk"][kept], table.fy + HORIZON)


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


def rank_key(record: ForecastRecord) -> tuple[float, int]:
    """Forecast rank order: score descending, then rc_id ascending."""
    return (-record.score, record.rc_id)


def select_top_n(records: list[ForecastRecord], n: int | None) -> list[ForecastRecord]:
    """Flag the top ``n`` records in rank order; returns them in that order
    with ``predicted`` set. ``n`` None takes the oracle n of the records'
    outcomes, at most all of them; ``n`` 0 flags none."""
    if n is None:
        missing = sorted({r.ty for r in records if r.outcome is None})
        if missing:
            raise ValueError(f"oracle-n needs outcomes; missing target years {missing}")
        n = min(oracle_n(records), len(records))
    elif n > len(records):
        raise ValueError(f"n={n} exceeds record count {len(records)}")
    ranked = sorted(records, key=rank_key)
    return [replace(r, predicted=1 if i < n else 0) for i, r in enumerate(ranked)]


def build_forecasts(panel: Panel, table: IndicatorTable, model: CompositeModel,
                    min_papers: int = 0) -> list[ForecastRecord]:
    """Score one forecast year's table and attach outcomes where the corpus and
    partition extend through the target year.

    ``predicted`` is left 0; select_top_n sets it.
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
    ranked = sorted(records, key=rank_key)
    write_tsv(path, {name: [getattr(r, name) for r in ranked] for name in _TSV_HEADER})


def read_forecast_tsv(path) -> list[ForecastRecord]:
    """The records of a forecast table; ValueError naming its first bad line.
    Each column is read by the annotation of its ``ForecastRecord`` field."""
    kinds = {f.name: f.type for f in fields(ForecastRecord)}
    columns = read_tsv(path, "forecast", {name: kinds[name] for name in _TSV_HEADER})
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
    return [ForecastRecord(**dict(zip(columns, row))) for row in rows]
