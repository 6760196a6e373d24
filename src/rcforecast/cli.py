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
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, cluster, evaluate, indicators, pipeline, regression
from .artifacts import INT_TEXT, write_json
from .cluster import ClusterConfig, ClusterError, load_partition, save_partition
from .config import has_type, load_config
from .corpus import CorpusError, load_corpus
from .evaluate import (
    SLICES,
    TaxonomyMap,
    check_slices,
    evaluate_slices,
    lifecycle_report,
    write_evaluation,
    write_lifecycle_tsv,
)
from .forecast import HORIZON, CompositeModel, outcome_observed, write_forecast_tsv
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
from .synth import SynthConfig, SynthError, generate


def _fail(message: str, code: int = 2) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _model_files(model_dir) -> tuple[Path, Path]:
    d = Path(model_dir)
    return d / "partition.tsv", d / "partition.json"


def _load_panel(args) -> Panel:
    partition = load_partition(*_model_files(args.model))
    return Panel(load_corpus(args.corpus, args.journals), partition, window=args.window)


def integer(text: str) -> int:
    """An integer flag's value, by the rule of integer cells (``INT_TEXT``)."""
    if not INT_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _fy_range(text: str) -> list[int]:
    if ":" in text:
        a, b = text.split(":", 1)
        lo, hi = integer(a), integer(b)
        if hi < lo:
            raise ValueError(f"empty fy range {text!r}")
        return list(range(lo, hi + 1))
    return [integer(text)]


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
    config = ClusterConfig(quality=args.quality, resolution=args.resolution,
                           rng_seed=args.seed, max_iterations=args.max_iterations)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)      # a bad --out fails before the clustering
    corpus = load_corpus(args.corpus, args.journals)
    partition, graph = build_model(corpus, args.through_year, config,
                                   extended=not args.no_extended,
                                   target_rcs=args.target_rcs)
    save_partition(partition, out / "partition.tsv", out / "partition.json")
    if args.dump_graph:
        graph.dump_edgelist(out / "graph.tsv")
    write_manifest(out / "partition.manifest.json", "model build", vars(args),
                   seeds={"cluster": args.seed})
    print(json.dumps({"rc_count": partition.rc_count, "quality": partition.quality,
                      "model_year": partition.model_year}, sort_keys=True))
    return 0


def cmd_model_extend(args) -> int:
    stray = [flag for flag, value in (("--seed", args.seed), ("--resolution", args.resolution),
                                      ("--quality", args.quality)) if value is not None]
    if stray and not args.seeded:
        return _fail(f"clustering flags need --seeded: {', '.join(stray)}")
    corpus = load_corpus(args.corpus, args.journals)
    tsv, meta = _model_files(args.model)
    partition = load_partition(tsv, meta)
    config = None
    if args.seeded:
        # the saved config's fields, each overridden by its flag where given
        saved = {f.name: partition.config_used[f.name] for f in fields(ClusterConfig)
                 if f.name in partition.config_used}
        flags = {"quality": args.quality, "resolution": args.resolution, "rng_seed": args.seed}
        config = ClusterConfig(**(saved | {k: v for k, v in flags.items() if v is not None}))
    partition, reports = extend_model(corpus, partition, args.through_year,
                                      seeded=args.seeded, cluster_config=config)
    # the manifest digests the partition that was read, before it is overwritten
    stem = Path(args.model) / f"extension_{args.through_year}"
    write_manifest(f"{stem}.manifest.json", "model extend", vars(args),
                   seeds={"cluster": args.seed})
    save_partition(partition, tsv, meta)
    write_json(f"{stem}.json", list(map(asdict, reports)))
    print(json.dumps({"extended_through": partition.extended_through,
                      "assigned": sum(r.n_papers - len(r.unassigned) for r in reports),
                      "unassigned": sum(len(r.unassigned) for r in reports)},
                     sort_keys=True))
    return 0


def cmd_indicators(args) -> int:
    table = indicator_table(_load_panel(args), args.fy)
    write_indicator_tsv(args.out, table)
    write_manifest(str(args.out) + ".manifest.json", "indicators", vars(args))
    print(json.dumps({"rows": len(table), "fy": args.fy}, sort_keys=True))
    return 0


def cmd_fit(args) -> int:
    if not has_type("float", args.z_threshold):
        return _fail(f"--z-threshold must be a number, not {args.z_threshold}")
    fys = _fy_range(args.fy_range)
    panel = _load_panel(args)
    tables = {fy: indicator_table(panel, fy) for fy in fys}
    model = fit_composite(panel, tables, min_papers=args.min_papers,
                          z_threshold=args.z_threshold)
    model.to_json(args.out)
    write_manifest(str(args.out) + ".manifest.json", "fit", vars(args))
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
    write_manifest(str(args.out) + ".manifest.json", "forecast", vars(args))
    print(json.dumps({"records": len(records),
                      "selected": sum(r.predicted for r in records)}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    by = tuple(args.by.split(",")) if args.by else SLICES
    check_slices(by)
    fys = _fy_range(args.fy_range)
    panel = _load_panel(args)
    model = (CompositeModel.from_json(args.composite) if args.composite
             else CompositeModel.default())
    taxonomy = TaxonomyMap.load(args.taxonomy) if args.taxonomy else None
    observed = [fy for fy in fys if outcome_observed(panel, fy)]
    if not observed:
        return _fail(f"no outcomes available: corpus/model must extend through "
                     f"target years {[fy + HORIZON for fy in fys]}")
    # each forecast year flags its own oracle n, so inherited slices add up
    records = [r for fy in observed
               for r in forecast_year(panel, indicator_table(panel, fy), model,
                                      min_papers=args.min_papers, oracle=True)]
    if not records:
        return _fail(f"no records of at least {args.min_papers} papers in the observed "
                     f"forecast years {observed}")
    reports = evaluate_slices(records, taxonomy=taxonomy, min_papers=args.min_papers,
                              mode=args.mode, by=by)
    write_evaluation(reports, args.out_json, args.out_tsv)
    out = args.out_json or args.out_tsv
    if out:
        write_manifest(str(out) + ".manifest.json", "evaluate", vars(args))
    overall = next(r for r in reports if r.slice == "overall")
    print(json.dumps({"slices": len(reports), "overall_csi": overall.csi,
                      "meets_csi_threshold": overall.meets_csi_threshold},
                     sort_keys=True))
    return 0


def cmd_lifecycle(args) -> int:
    rows = lifecycle_report(_load_panel(args), args.fy, min_papers=args.min_papers)
    write_lifecycle_tsv(args.out, rows)
    write_manifest(str(args.out) + ".manifest.json", "lifecycle", vars(args))
    print(json.dumps({"rows": len(rows), "fy": args.fy}, sort_keys=True))
    return 0


def cmd_synth(args) -> int:
    config = load_config(SynthConfig, args.config, SynthError) if args.config else SynthConfig()
    if args.seed is not None:
        config.rng_seed = args.seed
    result = generate(config, args.out)
    write_manifest(Path(args.out) / "synth.manifest.json", "synth", vars(args),
                   seeds={"synth": config.rng_seed})
    print(json.dumps({"papers": result.n_papers,
                      "communities": result.n_communities,
                      "planted": result.summary["n_planted"]}, sort_keys=True))
    return 0


def cmd_pipeline(args) -> int:
    config = load_config(PipelineConfig, args.config)
    summary = run_pipeline(config)
    write_manifest(Path(config.out_dir) / "pipeline.manifest.json", "pipeline", vars(args))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _add_corpus_args(p):
    p.add_argument("--corpus", required=True, help="papers JSON-lines file")
    p.add_argument("--journals", default=None, help="journal rank CSV")


def _add_panel_args(p):
    """The inputs of a command that reads a model into an RC x year panel."""
    _add_corpus_args(p)
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--window", type=integer, default=indicators.DEFAULT_WINDOW)


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
    p_build.add_argument("--through-year", type=integer, required=True)
    p_build.add_argument("--resolution", type=float, default=pipeline.DEFAULT_RESOLUTION)
    p_build.add_argument("--seed", type=integer, default=0)
    p_build.add_argument("--quality", choices=("cpm", "modularity"), default="cpm")
    p_build.add_argument("--max-iterations", type=integer, default=cluster.DEFAULT_MAX_ITERATIONS)
    p_build.add_argument("--target-rcs", type=integer, default=None,
                         help="tune resolution toward this community count")
    p_build.add_argument("--no-extended", action="store_true",
                         help="drop external cited items from the graph")
    p_build.add_argument("--dump-graph", action="store_true")
    p_build.add_argument("--out", required=True, help="model directory")
    p_build.set_defaults(func=cmd_model_build)

    p_ext = model_sub.add_parser("extend", help="assign one or more new years")
    _add_corpus_args(p_ext)
    p_ext.add_argument("--model", required=True, help="model directory")
    p_ext.add_argument("--through-year", type=integer, required=True,
                       help="extend year by year through this year")
    p_ext.add_argument("--seeded", action="store_true",
                       help="re-cluster seeded by the prior partition")
    p_ext.add_argument("--seed", type=integer, default=None, help="with --seeded")
    p_ext.add_argument("--resolution", type=float, default=None, help="with --seeded")
    p_ext.add_argument("--quality", choices=("cpm", "modularity"), default=None,
                       help="with --seeded")
    p_ext.set_defaults(func=cmd_model_extend)

    p_ind = sub.add_parser("indicators", help="per-RC indicator table for one fy")
    _add_panel_args(p_ind)
    p_ind.add_argument("--fy", type=integer, required=True)
    p_ind.add_argument("--out", required=True)
    p_ind.set_defaults(func=cmd_indicators)

    p_fit = sub.add_parser("fit", help="stepwise probit composite")
    _add_panel_args(p_fit)
    p_fit.add_argument("--fy-range", required=True, help="A:B or single year")
    p_fit.add_argument("--min-papers", type=integer, default=0,
                       help="size filter for fit rows (published fit used all RCs)")
    p_fit.add_argument("--z-threshold", type=float, default=regression.DEFAULT_Z_THRESHOLD)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_fc = sub.add_parser("forecast", help="score and rank one forecast year")
    _add_panel_args(p_fc)
    p_fc.add_argument("--composite", default=None, help="fitted composite JSON "
                      "(default: published coefficients)")
    p_fc.add_argument("--fy", type=integer, required=True)
    p_fc.add_argument("--min-papers", type=integer, default=evaluate.DEFAULT_MIN_PAPERS)
    group = p_fc.add_mutually_exclusive_group()
    group.add_argument("--top", type=integer, default=None, help="production-mode N")
    group.add_argument("--oracle-n", action="store_true",
                       help="evaluation-mode sizing from observed outcomes")
    p_fc.add_argument("--out", required=True)
    p_fc.set_defaults(func=cmd_forecast)

    p_ev = sub.add_parser("evaluate", help="contingency metrics over slices")
    _add_panel_args(p_ev)
    p_ev.add_argument("--composite", default=None)
    p_ev.add_argument("--fy-range", required=True)
    p_ev.add_argument("--min-papers", type=integer, default=evaluate.DEFAULT_MIN_PAPERS)
    p_ev.add_argument("--by", default=None,
                      help="comma list from fy,ry,actionable,field,discipline")
    p_ev.add_argument("--taxonomy", default=None,
                      help="TSV rc_id<TAB>discipline_id<TAB>field_id")
    p_ev.add_argument("--mode", choices=("reselect", "inherit"), default="reselect",
                      help="reselect: each slice flags its own oracle n; inherit: keep "
                           "each forecast year's oracle-n flags")
    p_ev.add_argument("--out-json", default=None)
    p_ev.add_argument("--out-tsv", default=None)
    p_ev.set_defaults(func=cmd_evaluate)

    p_lc = sub.add_parser("lifecycle", help="time-since-peak lifecycle table")
    _add_panel_args(p_lc)
    p_lc.add_argument("--fy", type=integer, required=True)
    p_lc.add_argument("--min-papers", type=integer, default=0)
    p_lc.add_argument("--out", required=True)
    p_lc.set_defaults(func=cmd_lifecycle)

    p_sy = sub.add_parser("synth", help="generate a synthetic corpus with truth")
    p_sy.add_argument("--config", default=None, help="SynthConfig JSON")
    p_sy.add_argument("--seed", type=integer, default=None, help="override rng_seed")
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
    except (IsADirectoryError, NotADirectoryError, FileExistsError, PermissionError) as e:
        # a directory where a file goes or the reverse, or a path the process
        # may not read or write
        return _fail(f"cannot open {e.filename}: {e.strerror}")
    except ValueError as e:
        return _fail(str(e))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
