"""End-to-end orchestration of the forecasting pipeline.

Build the clustering model through the model year, extend it year by year
(reference/BM25 assignment, or seeded re-clustering), compute indicators, fit
or load a composite model, score and rank forecasts, and evaluate them. Every
step is deterministic for fixed seeds.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .assign import AssignmentReport, assign_new_papers
from .citegraph import CitationGraph, build_graph
from .cluster import ClusterConfig, Partition, leiden, save_partition, tune_resolution
from .corpus import Corpus, load_corpus
from .evaluate import evaluate_slices, lifecycle_report, write_evaluation, write_lifecycle_tsv
from .forecast import (
    CompositeModel,
    ForecastRecord,
    build_forecasts,
    oracle_n,
    select_top_n,
    table_outcomes,
    write_forecast_tsv,
)
from .indicators import INDICATOR_NAMES, IndicatorTable, Panel, standardize, write_indicator_tsv
from .manifest import write_manifest
from .regression import stepwise_select


def build_model(corpus: Corpus, model_year: int, cluster_config: ClusterConfig,
                extended: bool = True, target_rcs: int | None = None
                ) -> tuple[Partition, CitationGraph]:
    """Cluster the citation graph through ``model_year``; optionally tune the
    resolution toward a target community count first."""
    graph = build_graph(corpus, extended=extended, year_cutoff=model_year)
    config = cluster_config
    if target_rcs is not None:
        resolution = tune_resolution(graph, target_rcs, config)
        config = replace(config, resolution=resolution)
    return leiden(graph, config), graph


def extend_model(corpus: Corpus, partition: Partition, through_year: int,
                 seeded: bool = False, cluster_config: ClusterConfig | None = None,
                 extended_graph: bool = True
                 ) -> tuple[Partition, list[AssignmentReport]]:
    """Extend assignments one year at a time up to ``through_year``.

    Unseeded: reference-plurality then BM25 against the frozen prior partition.
    Seeded: re-cluster the graph through each year, initialized from the prior
    partition, so existing papers keep their communities as a starting point;
    the root model year is preserved for relative-year bookkeeping.
    """
    reports: list[AssignmentReport] = []
    root_my = partition.model_year
    while partition.extended_through < through_year:
        year = partition.extended_through + 1
        if seeded:
            if cluster_config is None:
                raise ValueError("seeded extension needs a ClusterConfig")
            graph = build_graph(corpus, extended=extended_graph, year_cutoff=year)
            partition = leiden(graph, replace(cluster_config, seed_assignment=partition))
            partition.model_year = root_my
            partition.extended_through = year
            n_new = sum(1 for pid in partition.assignment
                        if corpus.papers[pid].year == year)
            reports.append(AssignmentReport(year=year, n_papers=n_new))
        else:
            partition, report = assign_new_papers(partition, corpus, year)
            reports.append(report)
    return partition, reports


def indicator_table(panel: Panel, fy: int) -> IndicatorTable:
    """Raw and standardized indicator columns of one forecast year."""
    raw = panel.columns(fy)
    return IndicatorTable(fy, raw, standardize(raw, fy))


def fit_composite(panel: Panel, tables: dict, min_papers: int = 20,
                  z_threshold: float = 4.0) -> CompositeModel:
    """Stepwise probit on standardized indicators pooled over forecast years.

    ``tables`` maps each fit year to its ``indicator_table``. Only (RC, fy)
    rows whose outcome is observable (corpus and partition extend through
    fy+3) enter the fit.
    """
    fys = sorted(tables)
    xs: list[np.ndarray] = []
    ys: list[int] = []
    for fy in fys:
        kept, _, labels = table_outcomes(panel, tables[fy], min_papers)
        if labels is not None:
            xs.append(np.column_stack([tables[fy].std[name][kept] for name in INDICATOR_NAMES]))
            ys.extend(labels)
    if not ys:
        raise ValueError(f"no outcome-bearing rows for fys {fys}; "
                         "corpus or model does not extend 3 years past them")
    X = np.vstack(xs)
    y = np.asarray(ys, dtype=float)
    model = stepwise_select(X, y, INDICATOR_NAMES, z_threshold=z_threshold)
    model.meta.update({"fit_fys": fys, "min_papers": min_papers,
                       "n_rows": len(ys), "positives": int(y.sum())})
    return model


def forecast_year(panel: Panel, table: IndicatorTable, model: CompositeModel,
                  min_papers: int = 20, top_n: int | None = None,
                  oracle: bool = False) -> list[ForecastRecord]:
    """Scored records for one forecast year's ``indicator_table``, ranked, with
    predicted flags set when a selection rule (explicit top_n, or oracle
    sizing) applies."""
    records = build_forecasts(panel, table, model, min_papers=min_papers)
    if top_n is not None:
        if top_n > len(records):
            raise ValueError(f"top_n={top_n} exceeds {len(records)} records")
        return select_top_n(records, top_n)
    if oracle:
        if any(r.outcome is None for r in records):
            missing = sorted({r.ty for r in records if r.outcome is None})
            raise ValueError(f"oracle-n needs outcomes; missing target years {missing}")
        return select_top_n(records, min(oracle_n(records), len(records)))
    return sorted(records, key=lambda r: (-r.score, r.rc_id))


@dataclass
class PipelineConfig:
    papers: str
    out_dir: str
    model_year: int
    journals: str | None = None
    extend_through: int | None = None     # default: corpus last year
    seeded_extension: bool = False
    quality: str = "cpm"
    resolution: float = 0.05
    target_rcs: int | None = None
    seed: int = 0
    max_iterations: int = 10
    extended_graph: bool = True
    window: int = 10
    fit_fys: list[int] = field(default_factory=list)   # empty: published composite
    forecast_fys: list[int] = field(default_factory=list)
    min_papers: int = 20      # forecast/evaluate size filter
    fit_min_papers: int = 0   # the published composite was fitted on all RCs
    z_threshold: float = 4.0
    oracle_n: bool = True
    top_n: int | None = None
    lifecycle: bool = False

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """Load a config; ValueError for malformed JSON or unknown or missing keys."""
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(obj) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(name for name, f in known.items() if name not in obj
                         and f.default is MISSING and f.default_factory is MISSING)
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**obj)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run validate -> build -> extend -> indicators -> fit -> forecast ->
    evaluate, writing all artifacts (and a manifest per artifact) to
    ``cfg.out_dir``. Returns a summary dict (also written as summary.json)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inputs = {"papers": cfg.papers}
    if cfg.journals:
        inputs["journals"] = cfg.journals
    seeds = {"cluster": cfg.seed}

    corpus = load_corpus(cfg.papers, cfg.journals)

    cluster_config = ClusterConfig(quality=cfg.quality, resolution=cfg.resolution,
                                   rng_seed=cfg.seed, max_iterations=cfg.max_iterations)
    partition, _ = build_model(corpus, cfg.model_year, cluster_config,
                               extended=cfg.extended_graph, target_rcs=cfg.target_rcs)
    through = cfg.extend_through if cfg.extend_through is not None \
        else corpus.meta.last_year
    partition, reports = extend_model(corpus, partition, through,
                                      seeded=cfg.seeded_extension,
                                      cluster_config=cluster_config,
                                      extended_graph=cfg.extended_graph)
    save_partition(partition, out / "partition.tsv", out / "partition.json")
    with open(out / "extension.json", "w") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out / "partition.manifest.json", "pipeline:model", vars(cfg).copy(),
                   inputs, seeds)

    panel = Panel(corpus, partition, window=cfg.window)
    tables = {fy: indicator_table(panel, fy)
              for fy in sorted(set(cfg.fit_fys) | set(cfg.forecast_fys))}
    if cfg.fit_fys:
        model = fit_composite(panel, {fy: tables[fy] for fy in cfg.fit_fys},
                              min_papers=cfg.fit_min_papers, z_threshold=cfg.z_threshold)
    else:
        model = CompositeModel.default()
    model.to_json(out / "composite.json")
    write_manifest(out / "composite.manifest.json", "pipeline:fit", vars(cfg).copy(),
                   inputs, seeds)

    all_records: list[ForecastRecord] = []
    for fy in sorted(cfg.forecast_fys):
        write_indicator_tsv(out / f"indicators_{fy}.tsv", tables[fy])
        records = forecast_year(panel, tables[fy], model, min_papers=cfg.min_papers,
                                top_n=cfg.top_n, oracle=cfg.oracle_n and cfg.top_n is None)
        write_forecast_tsv(out / f"forecast_{fy}.tsv", records)
        write_manifest(out / f"forecast_{fy}.manifest.json", "pipeline:forecast",
                       vars(cfg).copy(), inputs, seeds)
        all_records.extend(records)
        if cfg.lifecycle:
            write_lifecycle_tsv(out / f"lifecycle_{fy}.tsv",
                                lifecycle_report(panel, fy, min_papers=cfg.min_papers))

    summary = {
        "papers": corpus.meta.paper_count,
        "model_year": cfg.model_year,
        "extended_through": partition.extended_through,
        "rc_count": partition.rc_count,
        "composite_variables": list(model.variables),
        "forecast_fys": sorted(cfg.forecast_fys),
    }
    scored = [r for r in all_records if r.outcome is not None]
    if scored:
        slice_reports = evaluate_slices(scored, min_papers=cfg.min_papers,
                                        mode="reselect", by=("fy", "ry", "actionable"))
        write_evaluation(slice_reports, out / "evaluation.json", out / "evaluation.tsv")
        write_manifest(out / "evaluation.manifest.json", "pipeline:evaluate",
                       vars(cfg).copy(), inputs, seeds)
        overall = next(r for r in slice_reports if r.slice == "overall")
        summary["overall_csi"] = overall.csi
        summary["meets_csi_threshold"] = overall.meets_csi_threshold
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
