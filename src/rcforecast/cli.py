"""rcf: command-line front end for the research-community growth forecaster.

Subcommands mirror the pipeline stages: corpus validate, model build/extend,
indicators, fit, forecast, evaluate, lifecycle, synth and pipeline. Every
artifact-producing command writes a manifest next to its output. All
randomness flows from explicit --seed flags; identical commands on identical
inputs produce byte-identical data artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cluster import ClusterConfig, ClusterError, load_partition, save_partition
from .corpus import CorpusError, load_corpus
from .evaluate import (
    TaxonomyMap,
    evaluate_slices,
    lifecycle_report,
    write_evaluation,
    write_lifecycle_tsv,
)
from .forecast import CompositeModel, write_forecast_tsv
from .indicators import Panel, write_indicator_tsv
from .manifest import write_manifest
from .pipeline import (
    PipelineConfig,
    build_model,
    extend_model,
    fit_composite,
    forecast_year,
    indicator_table,
    run_pipeline,
)
from .synth import SynthConfig, config_from_json, generate


def _fail(message: str, code: int = 2) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _load_corpus_args(args):
    return load_corpus(args.corpus, getattr(args, "journals", None))


def _load_model(model_dir) -> tuple[Path, Path]:
    d = Path(model_dir)
    return d / "partition.tsv", d / "partition.json"


def _load_panel(args) -> Panel:
    partition = load_partition(*_load_model(args.model))
    return Panel(_load_corpus_args(args), partition, window=args.window)


def _fy_range(text: str) -> list[int]:
    if ":" in text:
        a, b = text.split(":", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty fy range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def cmd_corpus_validate(args) -> int:
    corpus = load_corpus(args.papers, args.journals)
    print(json.dumps({
        "papers": corpus.meta.paper_count,
        "years": [corpus.meta.first_year, corpus.meta.last_year],
        "journals_ranked": len(corpus.ranks),
        "external_items": len(corpus.external_ids),
    }, sort_keys=True))
    return 0


def cmd_model_build(args) -> int:
    corpus = _load_corpus_args(args)
    config = ClusterConfig(quality=args.quality, resolution=args.resolution,
                           rng_seed=args.seed, max_iterations=args.max_iterations)
    partition, graph = build_model(corpus, args.through_year, config,
                                   extended=not args.no_extended,
                                   target_rcs=args.target_rcs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_partition(partition, out / "partition.tsv", out / "partition.json")
    if args.dump_graph:
        graph.dump_edgelist(out / "graph.tsv")
    write_manifest(out / "partition.manifest.json", "model build", vars(args).copy(),
                   {"papers": args.corpus, "journals": args.journals},
                   {"cluster": args.seed})
    print(json.dumps({"rc_count": partition.rc_count, "quality": partition.quality,
                      "model_year": partition.model_year}, sort_keys=True))
    return 0


def cmd_model_extend(args) -> int:
    corpus = _load_corpus_args(args)
    tsv, meta = _load_model(args.model)
    partition = load_partition(tsv, meta)
    through = args.through_year if args.through_year is not None else args.year
    if through is None:
        return _fail("model extend needs --year or --through-year")
    config = None
    if args.seeded:
        base = partition.config_used or {}
        config = ClusterConfig(
            quality=args.quality or base.get("quality", "cpm"),
            resolution=args.resolution or base.get("resolution", 1.0),
            rng_seed=args.seed if args.seed is not None else base.get("rng_seed", 0),
            max_iterations=base.get("max_iterations", 10),
        )
    partition, reports = extend_model(corpus, partition, through,
                                      seeded=args.seeded, cluster_config=config)
    save_partition(partition, tsv, meta)
    report_path = Path(args.model) / f"extension_{through}.json"
    with open(report_path, "w") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(Path(args.model) / f"extension_{through}.manifest.json",
                   "model extend", vars(args).copy(),
                   {"papers": args.corpus}, {"cluster": args.seed})
    print(json.dumps({"extended_through": partition.extended_through,
                      "assigned": sum(r.n_papers - len(r.unassigned) for r in reports),
                      "unassigned": sum(len(r.unassigned) for r in reports)},
                     sort_keys=True))
    return 0


def cmd_indicators(args) -> int:
    table = indicator_table(_load_panel(args), args.fy)
    write_indicator_tsv(args.out, table)
    write_manifest(str(args.out) + ".manifest.json", "indicators", vars(args).copy(),
                   {"papers": args.corpus, "journals": args.journals})
    print(json.dumps({"rows": len(table), "fy": args.fy}, sort_keys=True))
    return 0


def cmd_fit(args) -> int:
    panel = _load_panel(args)
    tables = {fy: indicator_table(panel, fy) for fy in _fy_range(args.fy_range)}
    model = fit_composite(panel, tables, min_papers=args.min_papers,
                          z_threshold=args.z_threshold)
    model.to_json(args.out)
    write_manifest(str(args.out) + ".manifest.json", "fit", vars(args).copy(),
                   {"papers": args.corpus, "journals": args.journals})
    print(json.dumps({"variables": list(model.variables),
                      "pseudo_r2": model.meta.get("pseudo_r2")}, sort_keys=True))
    return 0


def cmd_forecast(args) -> int:
    panel = _load_panel(args)
    model = (CompositeModel.from_json(args.composite) if args.composite
             else CompositeModel.default())
    records = forecast_year(panel, indicator_table(panel, args.fy), model,
                            min_papers=args.min_papers, top_n=args.top,
                            oracle=args.oracle_n)
    write_forecast_tsv(args.out, records)
    write_manifest(str(args.out) + ".manifest.json", "forecast", vars(args).copy(),
                   {"papers": args.corpus, "journals": args.journals,
                    "composite": args.composite})
    print(json.dumps({"records": len(records),
                      "selected": sum(r.predicted for r in records)}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    panel = _load_panel(args)
    model = (CompositeModel.from_json(args.composite) if args.composite
             else CompositeModel.default())
    taxonomy = TaxonomyMap.load(args.taxonomy) if args.taxonomy else None
    records = []
    missing_ty = []
    for fy in _fy_range(args.fy_range):
        recs = forecast_year(panel, indicator_table(panel, fy), model,
                             min_papers=args.min_papers)
        with_outcome = [r for r in recs if r.outcome is not None]
        if not with_outcome:
            missing_ty.append(fy + 3)
            continue
        records.extend(with_outcome)
    if not records:
        return _fail(f"no outcomes available: corpus/model must extend through "
                     f"target years {missing_ty}")
    by = tuple(args.by.split(",")) if args.by else ("fy", "ry", "actionable",
                                                    "field", "discipline")
    reports = evaluate_slices(records, taxonomy=taxonomy, min_papers=args.min_papers,
                              mode=args.mode, by=by)
    write_evaluation(reports, args.out_json, args.out_tsv)
    if args.out_json:
        write_manifest(str(args.out_json) + ".manifest.json", "evaluate",
                       vars(args).copy(), {"papers": args.corpus})
    overall = next(r for r in reports if r.slice == "overall")
    print(json.dumps({"slices": len(reports), "overall_csi": overall.csi,
                      "meets_csi_threshold": overall.meets_csi_threshold},
                     sort_keys=True))
    return 0


def cmd_lifecycle(args) -> int:
    rows = lifecycle_report(_load_panel(args), args.fy, min_papers=args.min_papers)
    write_lifecycle_tsv(args.out, rows)
    write_manifest(str(args.out) + ".manifest.json", "lifecycle", vars(args).copy(),
                   {"papers": args.corpus})
    print(json.dumps({"rows": len(rows), "fy": args.fy}, sort_keys=True))
    return 0


def cmd_synth(args) -> int:
    if args.config:
        config = config_from_json(args.config)
    else:
        config = SynthConfig()
    if args.seed is not None:
        config.rng_seed = args.seed
    result = generate(config, args.out)
    write_manifest(Path(args.out) / "synth.manifest.json", "synth", vars(args).copy(),
                   {"config": args.config}, {"synth": config.rng_seed})
    print(json.dumps({"papers": result.n_papers,
                      "communities": result.n_communities,
                      "planted": result.summary["n_planted"]}, sort_keys=True))
    return 0


def cmd_pipeline(args) -> int:
    summary = run_pipeline(PipelineConfig.from_json(args.config))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _add_corpus_args(p, journals=True):
    p.add_argument("--corpus", required=True, help="papers JSON-lines file")
    if journals:
        p.add_argument("--journals", default=None, help="journal rank CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcf",
        description="Forecast exceptional publication-share growth in "
                    "research communities.")
    parser.add_argument("--version", action="version", version=f"rcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="corpus inspection")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p_val = corpus_sub.add_parser("validate", help="validate a papers file")
    p_val.add_argument("papers")
    p_val.add_argument("--journals", default=None)
    p_val.set_defaults(func=cmd_corpus_validate)

    p_model = sub.add_parser("model", help="build or extend the clustering model")
    model_sub = p_model.add_subparsers(dest="subcommand", required=True)
    p_build = model_sub.add_parser("build", help="cluster the citation graph")
    _add_corpus_args(p_build)
    p_build.add_argument("--through-year", type=int, required=True)
    p_build.add_argument("--resolution", type=float, default=0.05)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--quality", choices=("cpm", "modularity"), default="cpm")
    p_build.add_argument("--max-iterations", type=int, default=10)
    p_build.add_argument("--target-rcs", type=int, default=None,
                         help="tune resolution toward this community count")
    p_build.add_argument("--no-extended", action="store_true",
                         help="drop external cited items from the graph")
    p_build.add_argument("--dump-graph", action="store_true")
    p_build.add_argument("--out", required=True, help="model directory")
    p_build.set_defaults(func=cmd_model_build)

    p_ext = model_sub.add_parser("extend", help="assign one or more new years")
    _add_corpus_args(p_ext)
    p_ext.add_argument("--model", required=True, help="model directory")
    p_ext.add_argument("--year", type=int, default=None, help="single year to add")
    p_ext.add_argument("--through-year", type=int, default=None,
                       help="extend year by year through this year")
    p_ext.add_argument("--seeded", action="store_true",
                       help="re-cluster seeded by the prior partition")
    p_ext.add_argument("--seed", type=int, default=None)
    p_ext.add_argument("--resolution", type=float, default=None)
    p_ext.add_argument("--quality", choices=("cpm", "modularity"), default=None)
    p_ext.set_defaults(func=cmd_model_extend)

    p_ind = sub.add_parser("indicators", help="per-RC indicator table for one fy")
    _add_corpus_args(p_ind)
    p_ind.add_argument("--model", required=True)
    p_ind.add_argument("--fy", type=int, required=True)
    p_ind.add_argument("--window", type=int, default=10)
    p_ind.add_argument("--out", required=True)
    p_ind.set_defaults(func=cmd_indicators)

    p_fit = sub.add_parser("fit", help="stepwise probit composite")
    _add_corpus_args(p_fit)
    p_fit.add_argument("--model", required=True)
    p_fit.add_argument("--fy-range", required=True, help="A:B or single year")
    p_fit.add_argument("--min-papers", type=int, default=0,
                       help="size filter for fit rows (published fit used all RCs)")
    p_fit.add_argument("--z-threshold", type=float, default=4.0)
    p_fit.add_argument("--window", type=int, default=10)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_fc = sub.add_parser("forecast", help="score and rank one forecast year")
    _add_corpus_args(p_fc)
    p_fc.add_argument("--model", required=True)
    p_fc.add_argument("--composite", default=None, help="fitted composite JSON "
                      "(default: published coefficients)")
    p_fc.add_argument("--fy", type=int, required=True)
    p_fc.add_argument("--min-papers", type=int, default=20)
    p_fc.add_argument("--window", type=int, default=10)
    group = p_fc.add_mutually_exclusive_group()
    group.add_argument("--top", type=int, default=None, help="production-mode N")
    group.add_argument("--oracle-n", action="store_true",
                       help="evaluation-mode sizing from observed outcomes")
    p_fc.add_argument("--out", required=True)
    p_fc.set_defaults(func=cmd_forecast)

    p_ev = sub.add_parser("evaluate", help="contingency metrics over slices")
    _add_corpus_args(p_ev)
    p_ev.add_argument("--model", required=True)
    p_ev.add_argument("--composite", default=None)
    p_ev.add_argument("--fy-range", required=True)
    p_ev.add_argument("--min-papers", type=int, default=20)
    p_ev.add_argument("--window", type=int, default=10)
    p_ev.add_argument("--by", default=None,
                      help="comma list from fy,ry,actionable,field,discipline")
    p_ev.add_argument("--taxonomy", default=None,
                      help="TSV rc_id<TAB>discipline_id<TAB>field_id")
    p_ev.add_argument("--mode", choices=("reselect", "inherit"), default="reselect")
    p_ev.add_argument("--out-json", default=None)
    p_ev.add_argument("--out-tsv", default=None)
    p_ev.set_defaults(func=cmd_evaluate)

    p_lc = sub.add_parser("lifecycle", help="time-since-peak lifecycle table")
    _add_corpus_args(p_lc)
    p_lc.add_argument("--model", required=True)
    p_lc.add_argument("--fy", type=int, required=True)
    p_lc.add_argument("--min-papers", type=int, default=0)
    p_lc.add_argument("--window", type=int, default=10)
    p_lc.add_argument("--out", required=True)
    p_lc.set_defaults(func=cmd_lifecycle)

    p_sy = sub.add_parser("synth", help="generate a synthetic corpus with truth")
    p_sy.add_argument("--config", default=None, help="SynthConfig JSON")
    p_sy.add_argument("--seed", type=int, default=None, help="override rng_seed")
    p_sy.add_argument("--out", required=True)
    p_sy.set_defaults(func=cmd_synth)

    p_pl = sub.add_parser("pipeline", help="run the full pipeline from a config")
    p_pl.add_argument("--config", required=True, help="PipelineConfig JSON")
    p_pl.set_defaults(func=cmd_pipeline)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorpusError as e:
        print(json.dumps(e.report()), file=sys.stderr)
        return 2
    except ClusterError as e:
        return _fail(str(e))
    except FileNotFoundError as e:
        return _fail(f"missing input: {e.filename}")
    except ValueError as e:
        return _fail(str(e))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
