"""Forecast verification: contingency tables, precision/recall/CSI, slices.

CSI (critical success index) is TP / (TP + FP + FN); the accuracy benchmark it
is compared against is 0.25. Slices can either re-select their own top-N
(matching how the per-field tables are sized) or inherit the global predicted
flags (which makes disjoint sub-slices additive).
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .artifacts import INT_TEXT, write_json, write_tsv
from .cluster import Partition
from .corpus import lookup
from .forecast import HORIZON, ForecastRecord, growth_labels, oracle_n, select_top_n
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

    Denominator-free cells report 0 and are flagged degenerate.
    """
    missing = [r.rc_id for r in records if r.outcome is None]
    if missing:
        raise ValueError(f"records missing outcomes for rc_ids: {sorted(missing)}")
    tp = sum(1 for r in records if r.predicted == 1 and r.outcome == 1)
    fp = sum(1 for r in records if r.predicted == 1 and r.outcome == 0)
    fn = sum(1 for r in records if r.predicted == 0 and r.outcome == 1)
    tn = sum(1 for r in records if r.predicted == 0 and r.outcome == 0)
    degenerate = []
    if tp + fp == 0:
        precision = 0.0
        degenerate.append("precision")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        degenerate.append("recall")
    else:
        recall = tp / (tp + fn)
    if tp + fp + fn == 0:
        csi = 0.0
        degenerate.append("csi")
    else:
        csi = tp / (tp + fp + fn)
    return ContingencyReport(
        slice=slice_desc, tp=tp, fp=fp, fn=fn, tn=tn,
        precision=precision, recall=recall, csi=csi,
        degenerate=tuple(degenerate),
        meets_csi_threshold=csi >= CSI_THRESHOLD,
        n_records=len(records),
        n_xg=tp + fn,
        n_selected=tp + fp,
        min_papers=min_papers,
        mode=mode,
    )


@dataclass
class TaxonomyMap:
    """rc_id -> (discipline_id, field_id)."""

    mapping: dict[int, tuple[int, int]]
    method: str = "direct"

    def discipline(self, rc_id: int) -> int | None:
        pair = self.mapping.get(rc_id)
        return pair[0] if pair else None

    def field(self, rc_id: int) -> int | None:
        pair = self.mapping.get(rc_id)
        return pair[1] if pair else None

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
        write_tsv(path, ["rc_id", "discipline_id", "field_id"],
                  ((rc, *self.mapping[rc]) for rc in sorted(self.mapping)))

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


def _reselect(subset: list[ForecastRecord]) -> list[ForecastRecord]:
    n = min(oracle_n(subset), len(subset))
    return select_top_n(subset, n)


def evaluate_slices(records: list[ForecastRecord], taxonomy: TaxonomyMap | None = None,
                    min_papers: int = 20, mode: str = "reselect",
                    by: tuple[str, ...] = SLICES) -> list[ContingencyReport]:
    """One contingency report per slice, after the size filter.

    mode "reselect": each slice is independently sized with its own oracle-n
    and re-ranked. mode "inherit": the records' predicted flags are kept, which
    makes disjoint sub-slices additive. The actionable slices separate relative
    year > 0 (no future information in the assignments) from RY <= 0.
    ValueError for a ``by`` name outside ``SLICES``.
    """
    if mode not in ("reselect", "inherit"):
        raise ValueError(f"unknown mode {mode!r}")
    unknown = [name for name in by if name not in SLICES]
    if unknown:
        raise ValueError(f"unknown slices {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(SLICES)}")
    kept = [r for r in records if r.papers_in_fy >= min_papers]

    slices: list[tuple[str, list[ForecastRecord]]] = [("overall", kept)]
    if "fy" in by:
        for fy in sorted({r.fy for r in kept}):
            slices.append((f"fy={fy}", [r for r in kept if r.fy == fy]))
    if "ry" in by:
        for ry in sorted({r.ry for r in kept}):
            slices.append((f"ry={ry:+d}", [r for r in kept if r.ry == ry]))
    if "actionable" in by:
        slices.append(("actionable ry>0", [r for r in kept if r.ry > 0]))
        slices.append(("circumstantial ry<=0", [r for r in kept if r.ry <= 0]))
    if taxonomy is not None:
        if "field" in by:
            for f in sorted({taxonomy.field(r.rc_id) for r in kept}
                            - {None}):
                slices.append((f"field={f}",
                               [r for r in kept if taxonomy.field(r.rc_id) == f]))
        if "discipline" in by:
            for d in sorted({taxonomy.discipline(r.rc_id) for r in kept}
                            - {None}):
                slices.append((f"discipline={d}",
                               [r for r in kept if taxonomy.discipline(r.rc_id) == d]))

    reports = []
    for desc, subset in slices:
        if not subset:
            reports.append(ContingencyReport(
                slice=desc, tp=0, fp=0, fn=0, tn=0, precision=0.0, recall=0.0,
                csi=0.0, degenerate=("empty",), meets_csi_threshold=False,
                n_records=0, n_xg=0, n_selected=0, min_papers=min_papers, mode=mode))
            continue
        flagged = _reselect(subset) if mode == "reselect" else subset
        reports.append(contingency(flagged, desc, min_papers=min_papers, mode=mode))
    return reports


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
    extended = panel.partition.extended_through
    if extended is None:
        extended = panel.last_year
    can_xg = fy + HORIZON <= min(panel.last_year, extended)
    can_peak = fy + 1 <= min(panel.last_year, extended)

    rows = panel.in_window(fy)
    rows = rows[panel.papers_in(fy)[rows] >= min_papers]
    pk = panel.peak_years(fy, rows)
    gap = fy - pk

    out = []
    for g in list(range(6)) + [None]:
        members = gap > 5 if g is None else gap == g
        member_rows, member_pk = rows[members], pk[members]
        n_rc = len(member_rows)
        n_xg = pct_xg = n_new = pct_new = None
        if n_rc and can_xg:
            n_xg = sum(growth_labels(panel, member_rows, member_pk, fy + HORIZON)[1])
            pct_xg = 100.0 * n_xg / n_rc
        if n_rc and can_peak:
            at_peak = panel.shares[member_rows, member_pk - panel.first_year]
            n_new = int(np.sum(panel.share_column(fy + 1)[member_rows] > at_peak))
            pct_new = 100.0 * n_new / n_rc
        out.append(LifecycleRow(
            gap=">5" if g is None else str(g), stage=None if g is None else 1.0 / (g + 1),
            n_rc=n_rc, pct_rc=(100.0 * n_rc / len(rows)) if len(rows) else 0.0,
            n_xg=n_xg, pct_xg=pct_xg, n_new_peak=n_new, pct_new_peak=pct_new,
        ))
    return out


def write_lifecycle_tsv(path, rows: list[LifecycleRow]) -> None:
    write_tsv(path, [f.name for f in fields(LifecycleRow)], map(astuple, rows))


_EVALUATION_COLUMNS = ["slice", "mode", "min_papers", "n_records", "n_xg", "n_selected",
                       "tp", "fp", "fn", "tn", "precision", "recall", "csi",
                       "meets_csi_threshold", "degenerate"]


def write_evaluation(reports: list[ContingencyReport], json_path=None, tsv_path=None) -> None:
    if json_path is not None:
        write_json(json_path, {"csi_threshold": CSI_THRESHOLD,
                               "slices": [asdict(r) for r in reports]})
    if tsv_path is not None:
        write_tsv(tsv_path, _EVALUATION_COLUMNS,
                  ([getattr(r, c) for c in _EVALUATION_COLUMNS[:-1]] + [",".join(r.degenerate)]
                   for r in reports))
