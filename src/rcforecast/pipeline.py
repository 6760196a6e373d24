"""End-to-end orchestration of the forecasting pipeline.

Build the clustering model through the model year, extend it year by year
(reference/BM25 assignment, or seeded re-clustering), compute indicators, fit
or load a composite model, score and rank forecasts, and evaluate them. Every
step is deterministic for fixed seeds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import cluster, evaluate, indicators, regression, trace
from .artifacts import write_json
from .assign import AssignmentReport, assign_new_papers
from .citegraph import CitationGraph, build_graph
from .cluster import ClusterConfig, Partition, leiden, save_partition, tune_resolution
from .config import check_types
from .corpus import Corpus, load_corpus
from .evaluate import evaluate_slices, lifecycle_report, write_evaluation, write_lifecycle_tsv
from .forecast import (
    CompositeModel,
    ForecastRecord,
    build_forecasts,
    select_top_n,
    table_outcomes,
    write_forecast_tsv,
)
from .indicators import INDICATOR_NAMES, IndicatorTable, Panel, standardize, write_indicator_tsv
from .manifest import InputFile, write_manifest
from .regression import stepwise_select

DEFAULT_RESOLUTION = 0.05   # CPM resolution of a model build


def build_model(corpus: Corpus, model_year: int, cluster_config: ClusterConfig,
                extended: bool = True, target_rcs: int | None = None
                ) -> tuple[Partition, CitationGraph]:
    """Cluster the citation graph through ``model_year``; optionally tune the
    resolution toward a target community count first."""
    with trace.stage("build_graph"):
        graph = build_graph(corpus, extended=extended, year_cutoff=model_year)
    config = cluster_config
    if target_rcs is not None:
        resolution = tune_resolution(graph, target_rcs, config)
        config = replace(config, resolution=resolution)
    with trace.stage("leiden"):
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
            partition = leiden(graph, cluster_config, partition)
            partition.model_year = root_my
            partition.extended_through = year
            rows, _, _ = corpus.partition_rows(partition)
            n_new = np.count_nonzero(corpus.year[rows] == year)
            reports.append(AssignmentReport(year=year, n_papers=int(n_new)))
        else:
            partition, report = assign_new_papers(partition, corpus, year)
            reports.append(report)
    return partition, reports


def indicator_table(panel: Panel, fy: int) -> IndicatorTable:
    """Raw and standardized indicator columns of one forecast year."""
    raw = panel.columns(fy)
    return IndicatorTable(fy, raw, standardize(raw, fy))


def fit_composite(panel: Panel, tables: dict, min_papers: int,
                  z_threshold: float) -> CompositeModel:
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
                  min_papers: int = evaluate.DEFAULT_MIN_PAPERS, top_n: int | None = None,
                  oracle: bool = False) -> list[ForecastRecord]:
    """Scored records for one forecast year's ``indicator_table`` in rank
    order: the top ``top_n`` flagged, else with ``oracle`` the top oracle n,
    else none."""
    records = build_forecasts(panel, table, model, min_papers=min_papers)
    return select_top_n(records, 0 if top_n is None and not oracle else top_n)


@dataclass
class PipelineConfig:
    papers: str
    out_dir: str
    model_year: int
    journals: str | None = None
    extend_through: int | None = None     # default: corpus last year
    seeded_extension: bool = False
    quality: str = "cpm"
    resolution: float = DEFAULT_RESOLUTION
    target_rcs: int | None = None
    seed: int = 0
    max_iterations: int = cluster.DEFAULT_MAX_ITERATIONS
    extended_graph: bool = True
    window: int = indicators.DEFAULT_WINDOW
    fit_fys: list[int] = field(default_factory=list)   # empty: published composite
    forecast_fys: list[int] = field(default_factory=list)
    min_papers: int = evaluate.DEFAULT_MIN_PAPERS   # forecast/evaluate size filter
    fit_min_papers: int = 0   # the published composite was fitted on all RCs
    z_threshold: float = regression.DEFAULT_Z_THRESHOLD
    oracle_n: bool = True
    top_n: int | None = None
    lifecycle: bool = False

    def __post_init__(self):
        check_types(self)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run validate -> build -> extend -> indicators -> fit -> forecast ->
    evaluate, writing all artifacts (and a manifest per artifact) to
    ``cfg.out_dir``. Returns a summary dict (also written as summary.json)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # each input is hashed once, for the first manifest that names it
    arguments = dict(vars(cfg), papers=InputFile(cfg.papers),
                     journals=None if cfg.journals is None else InputFile(cfg.journals))
    manifest = partial(write_manifest, arguments=arguments, seeds={"cluster": cfg.seed})

    with trace.stage("load_corpus"):
        corpus = load_corpus(cfg.papers, cfg.journals)

    cluster_config = ClusterConfig(quality=cfg.quality, resolution=cfg.resolution,
                                   rng_seed=cfg.seed, max_iterations=cfg.max_iterations)
    partition = build_model(corpus, cfg.model_year, cluster_config,  # [0]: free the graph
                            extended=cfg.extended_graph, target_rcs=cfg.target_rcs)[0]
    through = cfg.extend_through if cfg.extend_through is not None \
        else corpus.meta.last_year
    with trace.stage("extend_model"):
        partition, reports = extend_model(corpus, partition, through,
                                          seeded=cfg.seeded_extension,
                                          cluster_config=cluster_config,
                                          extended_graph=cfg.extended_graph)
    save_partition(partition, out / "partition.tsv", out / "partition.json")
    write_json(out / "extension.json", list(map(asdict, reports)))
    manifest(out / "partition.manifest.json", "pipeline:model")

    with trace.stage("Panel"):
        panel = Panel(corpus, partition, window=cfg.window)
    with trace.stage("indicator_table"):
        tables = {fy: indicator_table(panel, fy)
                  for fy in sorted(set(cfg.fit_fys) | set(cfg.forecast_fys))}
    with trace.stage("fit_composite"):
        if cfg.fit_fys:
            model = fit_composite(panel, {fy: tables[fy] for fy in cfg.fit_fys},
                                  min_papers=cfg.fit_min_papers, z_threshold=cfg.z_threshold)
        else:
            model = CompositeModel.default()
    model.to_json(out / "composite.json")
    manifest(out / "composite.manifest.json", "pipeline:fit")

    all_records: list[ForecastRecord] = []
    for fy in sorted(cfg.forecast_fys):
        write_indicator_tsv(out / f"indicators_{fy}.tsv", tables[fy])
        with trace.stage("forecast_year"):
            records = forecast_year(panel, tables[fy], model, min_papers=cfg.min_papers,
                                    top_n=cfg.top_n, oracle=cfg.oracle_n)
        write_forecast_tsv(out / f"forecast_{fy}.tsv", records)
        manifest(out / f"forecast_{fy}.manifest.json", "pipeline:forecast")
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
        with trace.stage("evaluate_slices"):
            slice_reports = evaluate_slices(scored, min_papers=cfg.min_papers,
                                            mode="reselect", by=("fy", "ry", "actionable"))
        write_evaluation(slice_reports, out / "evaluation.json", out / "evaluation.tsv")
        manifest(out / "evaluation.manifest.json", "pipeline:evaluate")
        overall = next(r for r in slice_reports if r.slice == "overall")
        summary["overall_csi"] = overall.csi
        summary["meets_csi_threshold"] = overall.meets_csi_threshold
    write_json(out / "summary.json", summary)
    return summary
