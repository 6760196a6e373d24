"""Forecast verification: contingency tables, precision/recall/CSI, slices.

CSI (critical success index) is TP / (TP + FP + FN); the accuracy benchmark it
is compared against is 0.25. Slices can either re-select their own top-N
(matching how the per-field tables are sized) or inherit the records' predicted
flags, each forecast year's oracle N in ``rcf evaluate`` (which makes disjoint
sub-slices additive).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from .artifacts import INT_TEXT, write_json, write_tsv
from .cluster import Partition
from .corpus import lookup
from .forecast import (
    HORIZON,
    ForecastRecord,
    growth_labels,
    last_observed_year,
    outcome_observed,
    select_top_n,
)
from .indicators import Panel

CSI_THRESHOLD = 0.25
SLICES = ("fy", "ry", "actionable", "field", "discipline")


@dataclass(frozen=True)
class ContingencyReport:
    slice: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    csi: float
    degenerate: tuple[str, ...]
    meets_csi_threshold: bool
    n_records: int
    n_xg: int
    n_selected: int
    min_papers: int = 0
    mode: str = "as-is"


def contingency(records: list[ForecastRecord], slice_desc: str = "overall",
                min_papers: int = 0, mode: str = "as-is") -> ContingencyReport:
    """2x2 contingency over (predicted, outcome) with derived metrics.

    Denominator-free cells report 0 and are flagged degenerate; no records at
    all are flagged "empty" instead.
    """
    missing = [r.rc_id for r in records if r.outcome is None]
    if missing:
        raise ValueError(f"records missing outcomes for rc_ids: {sorted(missing)}")
    cells = Counter((r.predicted, r.outcome) for r in records)
    tp, fp, fn, tn = cells[1, 1], cells[1, 0], cells[0, 1], cells[0, 0]
    denominators = {"precision": tp + fp, "recall": tp + fn, "csi": tp + fp + fn}
    precision, recall, csi = (tp / d if d else 0.0 for d in denominators.values())
    degenerate = [name for name, d in denominators.items() if not d] if records else ["empty"]
    return ContingencyReport(
        slice=slice_desc, tp=tp, fp=fp, fn=fn, tn=tn, precision=precision, recall=recall,
        csi=csi, degenerate=tuple(degenerate), meets_csi_threshold=csi >= CSI_THRESHOLD,
        n_records=len(records), n_xg=tp + fn, n_selected=tp + fp, min_papers=min_papers,
        mode=mode)


@dataclass
class TaxonomyMap:
    """rc_id -> (discipline_id, field_id)."""

    mapping: dict[int, tuple[int, int]]
    method: str = "direct"

    @classmethod
    def load(cls, path) -> "TaxonomyMap":
        """Read ``rc_id<TAB>discipline_id<TAB>field_id`` rows; ValueError naming
        the line for a short row, a non-integer cell or a repeated rc_id."""
        mapping = {}
        with open(path) as fh:
            for i, line in enumerate(fh, start=1):
                cells = line.strip().split("\t")
                if cells == [""] or cells[0] == "rc_id":    # blank line or header
                    continue
                if len(cells) < 3 or not all(INT_TEXT.fullmatch(c) for c in cells[:3]):
                    raise ValueError(f"taxonomy line {i}: expected integer rc_id, "
                                     f"discipline_id and field_id, got {line.strip()!r}")
                rc, discipline, field_id = map(int, cells[:3])
                if rc in mapping:
                    raise ValueError(f"taxonomy line {i}: duplicate rc_id {rc}")
                mapping[rc] = (discipline, field_id)
        return cls(mapping, method="direct")

    def save(self, path) -> None:
        rcs = sorted(self.mapping)
        write_tsv(path, {"rc_id": rcs, "discipline_id": [self.mapping[rc][0] for rc in rcs],
                         "field_id": [self.mapping[rc][1] for rc in rcs]})

    @classmethod
    def from_common_papers(cls, partition: Partition, reference: Partition,
                           reference_taxonomy: "TaxonomyMap") -> "TaxonomyMap":
        """Map each RC onto the reference taxonomy via the reference RC sharing
        the most papers with it."""
        pos, common = lookup(reference.paper_ids, partition.paper_ids)
        pairs, counts = np.unique(np.column_stack([partition.rc[common],
                                                   reference.rc[pos[common]]]),
                                  axis=0, return_counts=True)
        # pairs ascend by (rc, reference rc): the first of an rc's largest counts wins
        top = np.lexsort((-counts, pairs[:, 0]))
        _, first = np.unique(pairs[top, 0], return_index=True)
        mapping = {}
        for rc, ref_rc in pairs[top[first]].tolist():
            pair = reference_taxonomy.mapping.get(ref_rc)
            if pair is not None:
                mapping[rc] = pair
        return cls(mapping, method="common-paper matching")


def check_slices(by: tuple[str, ...]) -> None:
    """ValueError for a slice name outside ``SLICES``."""
    unknown = [name for name in by if name not in SLICES]
    if unknown:
        raise ValueError(f"unknown slices {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(SLICES)}")


def _slice_keys(taxonomy: TaxonomyMap | None) -> dict:
    """Slice name -> (group key of a record, label of a key, keys reported even
    when empty). Records whose key is None fall in no group of that slice."""
    keys = {"fy": (lambda r: r.fy, "fy={}".format, ()),
            "ry": (lambda r: r.ry, "ry={:+d}".format, ()),
            "actionable": (lambda r: r.ry <= 0,
                           {False: "actionable ry>0", True: "circumstantial ry<=0"}.get,
                           (False, True))}
    if taxonomy is not None:
        pair_of = taxonomy.mapping.get
        keys["field"] = (lambda r: pair_of(r.rc_id, (None, None))[1], "field={}".format, ())
        keys["discipline"] = (lambda r: pair_of(r.rc_id, (None, None))[0],
                              "discipline={}".format, ())
    return keys


def evaluate_slices(records: list[ForecastRecord], taxonomy: TaxonomyMap | None = None,
                    min_papers: int = 20, mode: str = "reselect",
                    by: tuple[str, ...] = SLICES) -> list[ContingencyReport]:
    """One contingency report per slice, after the size filter: overall, then
    the groups of each ``by`` name in ``SLICES`` order, each in key order.

    mode "reselect": each slice is independently sized with its own oracle-n
    and re-ranked. mode "inherit": the records' predicted flags are kept, which
    makes disjoint sub-slices additive. The actionable slices separate relative
    year > 0 (no future information in the assignments) from RY <= 0; field
    and discipline need a taxonomy. ValueError for a ``by`` name outside
    ``SLICES``.
    """
    if mode not in ("reselect", "inherit"):
        raise ValueError(f"unknown mode {mode!r}")
    check_slices(by)
    kept = [r for r in records if r.papers_in_fy >= min_papers]

    slices: list[tuple[str, list[ForecastRecord]]] = [("overall", kept)]
    for name, (key, label, always) in _slice_keys(taxonomy).items():
        if name not in by:
            continue
        groups: dict = {k: [] for k in always}
        for r in kept:
            groups.setdefault(key(r), []).append(r)
        groups.pop(None, None)
        slices.extend((label(k), groups[k]) for k in sorted(groups))

    return [contingency(select_top_n(subset, None) if mode == "reselect" else subset,
                        desc, min_papers=min_papers, mode=mode)
            for desc, subset in slices]


@dataclass(frozen=True)
class LifecycleRow:
    gap: str                    # "0".."5" or ">5"
    stage: float | None
    n_rc: int
    pct_rc: float
    n_xg: int | None = None
    pct_xg: float | None = None
    n_new_peak: int | None = None
    pct_new_peak: float | None = None


def lifecycle_report(panel: Panel, fy: int, min_papers: int = 0) -> list[LifecycleRow]:
    """Distribution of (fy - peak year) gaps with, where the corpus allows,
    the share of RCs achieving exceptional growth by fy+3 and the share
    reaching a new peak in fy+1."""
    rows = panel.in_window(fy)
    rows = rows[panel.papers_in(fy)[rows] >= min_papers]
    pk = panel.peak_years(fy, rows)
    gap = fy - pk
    # per row, where observed: exceptional growth by fy + 3, a new peak share in fy + 1
    xg = (np.array(growth_labels(panel, rows, pk, fy + HORIZON)[1], dtype=bool)
          if outcome_observed(panel, fy) else None)
    new_peak = (panel.share_column(fy + 1)[rows] > panel.shares[rows, pk - panel.first_year]
                if len(rows) and fy + 1 <= last_observed_year(panel) else None)

    out = []
    for g in list(range(6)) + [None]:
        members = gap > 5 if g is None else gap == g
        n_rc = int(np.count_nonzero(members))
        n_xg, n_new = (None if flags is None or not n_rc else int(flags[members].sum())
                       for flags in (xg, new_peak))
        out.append(LifecycleRow(
            gap=">5" if g is None else str(g), stage=None if g is None else 1.0 / (g + 1),
            n_rc=n_rc, pct_rc=(100.0 * n_rc / len(rows)) if len(rows) else 0.0,
            n_xg=n_xg, pct_xg=None if n_xg is None else 100.0 * n_xg / n_rc,
            n_new_peak=n_new, pct_new_peak=None if n_new is None else 100.0 * n_new / n_rc,
        ))
    return out


def write_lifecycle_tsv(path, rows: list[LifecycleRow]) -> None:
    write_tsv(path, {f.name: [getattr(r, f.name) for r in rows] for f in fields(LifecycleRow)})


_EVALUATION_COLUMNS = ["slice", "mode", "min_papers", "n_records", "n_xg", "n_selected",
                       "tp", "fp", "fn", "tn", "precision", "recall", "csi",
                       "meets_csi_threshold", "degenerate"]


def write_evaluation(reports: list[ContingencyReport], json_path=None, tsv_path=None) -> None:
    if json_path is not None:
        write_json(json_path, {"csi_threshold": CSI_THRESHOLD,
                               "slices": [asdict(r) for r in reports]})
    if tsv_path is not None:
        columns = {name: [getattr(r, name) for r in reports] for name in _EVALUATION_COLUMNS}
        columns["degenerate"] = list(map(",".join, columns["degenerate"]))
        write_tsv(tsv_path, columns)
