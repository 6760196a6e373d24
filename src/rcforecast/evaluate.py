"""Forecast verification: contingency tables, precision/recall/CSI, slices.

CSI (critical success index) is TP / (TP + FP + FN); the accuracy benchmark it
is compared against is 0.25. Slices can either re-select their own top-N
(matching how the per-field tables are sized) or inherit the global predicted
flags (which makes disjoint sub-slices additive).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cluster import Partition
from .forecast import HORIZON, ForecastRecord, growth_labels, oracle_n, select_top_n
from .indicators import Panel

CSI_THRESHOLD = 0.25


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

    def as_dict(self) -> dict:
        return {
            "slice": self.slice, "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "tn": self.tn, "precision": self.precision, "recall": self.recall,
            "csi": self.csi, "degenerate": list(self.degenerate),
            "meets_csi_threshold": self.meets_csi_threshold,
            "n_records": self.n_records, "n_xg": self.n_xg,
            "n_selected": self.n_selected, "min_papers": self.min_papers,
            "mode": self.mode,
        }


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
        mapping = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                cells = line.split("\t")
                if cells[0] == "rc_id":  # header
                    continue
                mapping[int(cells[0])] = (int(cells[1]), int(cells[2]))
        return cls(mapping, method="direct")

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("rc_id\tdiscipline_id\tfield_id\n")
            for rc in sorted(self.mapping):
                d, f = self.mapping[rc]
                fh.write(f"{rc}\t{d}\t{f}\n")

    @classmethod
    def from_common_papers(cls, partition: Partition, reference: Partition,
                           reference_taxonomy: "TaxonomyMap") -> "TaxonomyMap":
        """Map each RC onto the reference taxonomy via the reference RC sharing
        the most papers with it."""
        overlap: dict[int, dict[int, int]] = {}
        for pid, rc in partition.assignment.items():
            ref_rc = reference.assignment.get(pid)
            if ref_rc is None:
                continue
            overlap.setdefault(rc, {}).setdefault(ref_rc, 0)
            overlap[rc][ref_rc] += 1
        mapping = {}
        for rc, counts in overlap.items():
            top = max(counts.values())
            ref_rc = min(r for r, c in counts.items() if c == top)
            pair = reference_taxonomy.mapping.get(ref_rc)
            if pair is not None:
                mapping[rc] = pair
        return cls(mapping, method="common-paper matching")


def _reselect(subset: list[ForecastRecord]) -> list[ForecastRecord]:
    n = min(oracle_n(subset), len(subset))
    return select_top_n(subset, n)


def evaluate_slices(records: list[ForecastRecord], taxonomy: TaxonomyMap | None = None,
                    min_papers: int = 20, mode: str = "reselect",
                    by: tuple[str, ...] = ("fy", "ry", "actionable", "field", "discipline"),
                    ) -> list[ContingencyReport]:
    """One contingency report per slice, after the size filter.

    mode "reselect": each slice is independently sized with its own oracle-n
    and re-ranked. mode "inherit": the records' predicted flags are kept, which
    makes disjoint sub-slices additive. The actionable slices separate relative
    year > 0 (no future information in the assignments) from RY <= 0.
    """
    if mode not in ("reselect", "inherit"):
        raise ValueError(f"unknown mode {mode!r}")
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
    extended = getattr(panel.partition, "extended_through", None)
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
    with open(path, "w") as fh:
        fh.write("gap\tstage\tn_rc\tpct_rc\tn_xg\tpct_xg\tn_new_peak\tpct_new_peak\n")
        for r in rows:
            cells = [r.gap,
                     "" if r.stage is None else repr(r.stage),
                     str(r.n_rc), repr(r.pct_rc)]
            for v in (r.n_xg, r.pct_xg, r.n_new_peak, r.pct_new_peak):
                cells.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
            fh.write("\t".join(cells) + "\n")


def write_evaluation(reports: list[ContingencyReport], json_path=None, tsv_path=None) -> None:
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump({"csi_threshold": CSI_THRESHOLD,
                       "slices": [r.as_dict() for r in reports]},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    if tsv_path is not None:
        cols = ["slice", "mode", "min_papers", "n_records", "n_xg", "n_selected",
                "tp", "fp", "fn", "tn", "precision", "recall", "csi",
                "meets_csi_threshold", "degenerate"]
        with open(tsv_path, "w") as fh:
            fh.write("\t".join(cols) + "\n")
            for r in reports:
                fh.write("\t".join([
                    r.slice, r.mode, str(r.min_papers), str(r.n_records),
                    str(r.n_xg), str(r.n_selected), str(r.tp), str(r.fp),
                    str(r.fn), str(r.tn), repr(r.precision), repr(r.recall),
                    repr(r.csi), str(int(r.meets_csi_threshold)),
                    ",".join(r.degenerate),
                ]) + "\n")
