"""Wall time, allocation peak and peak RSS of every stage of one run, and wall
time and peak RSS of a whole ``run_pipeline``, for one or more versions of the
package side by side.

    python bench/stages.py [--variant NAME=SRC ...] [--out BENCH_18.json]

Each ``--variant`` names an ``src`` directory holding an ``rcforecast``
package (default: this checkout's ``src`` as ``current``); naming two, such
as a parent commit's and a change's, gives two columns from one host. For
each size in ``SIZES`` the corpus is generated once, with ``synth.generate``
from the first variant and seed ``SEED``, into a temporary directory, and
every variant reads it.

``chain`` is the run: ``synth.generate`` of that size and seed into a scratch
directory (removed afterwards), then the public functions ``run_pipeline``
calls, in its order and with its config (``config``: model year 2009,
extension through 2014, CPM resolution 0.02, seed 0, fit and forecast years
2010 and 2011, ``min_papers`` 20), each its own stage: ``load_corpus``,
``build_graph``, ``leiden``, the first use of ``term_matrix``,
``extend_model``, ``Panel``, ``indicator_table`` for each year,
``fit_composite``, ``forecast_year`` for each year, ``evaluate_slices`` and,
as ``writes``, the writes of every data artifact but ``summary.json``. It is
run two ways:

* in one spawned process per size that imports every variant side by side:
  ``REPEATS[size]`` runs of each variant, alternating them (in reverse order
  on odd repeats, so that no variant always runs first), give each stage's
  median wall time (``inprocess_s``); one more run of each under
  ``tracemalloc`` gives each stage's allocation peak above what was live when
  it began (``tracemalloc_peak_mib``), and that run's ``leiden`` partition
  gives ``rc_count``, ``quality`` and ``nmi`` against ``truth.tsv``;
* in one fresh process per variant and repeat, which reports each stage's
  wall time (``fresh_s``) and the process's ``ru_maxrss`` when the stage ends
  (``fresh_maxrss_mb``, a high-water mark, so each value is the peak so far;
  ``start_maxrss_mb`` is read before the first stage).

A fresh process per variant and repeat also runs ``run_pipeline`` with the
same config, for the whole run's wall time and peak RSS. Each process is
spawned from this small one, since a child's ``ru_maxrss`` starts at the peak
of the process that spawned it. Process-level times of identical code spread
by 20-40% on a shared host; the in-process medians are the ones that resolve
a change to one stage.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES, SEED, REPEATS = (1000, 10000), 101, {1000: 10, 10000: 4}
MODULES = ("artifacts", "citegraph", "cluster", "corpus", "evaluate", "forecast",
           "indicators", "pipeline", "synth")


def config(rcf, inputs: Path, out: Path):
    """The ``PipelineConfig`` of acceptance 8 on the corpus in ``inputs``."""
    return rcf.pipeline.PipelineConfig(
        papers=str(inputs / "papers.jsonl"), journals=str(inputs / "ranks.csv"),
        out_dir=str(out), model_year=2009, extend_through=2014, resolution=0.02, seed=0,
        fit_fys=[2010, 2011], forecast_fys=[2010, 2011], min_papers=20, oracle_n=True)


def chain(rcf, size: int, cfg, stage):
    """One run of ``cfg`` as ``run_pipeline`` makes it, after ``synth.generate``
    of ``size`` communities, each stage inside ``stage(name)``; returns the
    ``leiden`` partition. ``rcf`` holds the package's ``MODULES``."""
    out = Path(cfg.out_dir)
    with stage("generate"):
        rcf.synth.generate(rcf.synth.SynthConfig(rng_seed=SEED, n_communities=size),
                           out / "generate")
    shutil.rmtree(out / "generate")
    with stage("load_corpus"):
        corpus = rcf.corpus.load_corpus(cfg.papers, cfg.journals)
    with stage("build_graph"):
        graph = rcf.citegraph.build_graph(corpus, extended=cfg.extended_graph,
                                          year_cutoff=cfg.model_year)
    with stage("leiden"):
        model_partition = rcf.cluster.leiden(graph, rcf.cluster.ClusterConfig(
            quality=cfg.quality, resolution=cfg.resolution, rng_seed=cfg.seed,
            max_iterations=cfg.max_iterations))
    del graph   # run_pipeline keeps it to the end, which raises its peak RSS
    with stage("term_matrix"):
        corpus.term_matrix
    with stage("extend_model"):
        partition, reports = rcf.pipeline.extend_model(corpus, model_partition,
                                                       cfg.extend_through)
    with stage("Panel"):
        panel = rcf.indicators.Panel(corpus, partition, window=cfg.window)
    with stage("indicator_table"):
        tables = {fy: rcf.pipeline.indicator_table(panel, fy)
                  for fy in sorted(set(cfg.fit_fys) | set(cfg.forecast_fys))}
    with stage("fit_composite"):
        model = rcf.pipeline.fit_composite(panel, {fy: tables[fy] for fy in cfg.fit_fys},
                                           min_papers=cfg.fit_min_papers,
                                           z_threshold=cfg.z_threshold)
    with stage("forecast_year"):
        records = {fy: rcf.pipeline.forecast_year(panel, tables[fy], model,
                                                  min_papers=cfg.min_papers,
                                                  top_n=cfg.top_n, oracle=cfg.oracle_n)
                   for fy in sorted(cfg.forecast_fys)}
    with stage("evaluate_slices"):
        slices = rcf.evaluate.evaluate_slices(
            [r for fy in records for r in records[fy] if r.outcome is not None],
            min_papers=cfg.min_papers, mode="reselect", by=("fy", "ry", "actionable"))
    with stage("writes"):
        rcf.cluster.save_partition(partition, out / "partition.tsv", out / "partition.json")
        rcf.artifacts.write_json(out / "extension.json", list(map(asdict, reports)))
        model.to_json(out / "composite.json")
        for fy in records:
            rcf.indicators.write_indicator_tsv(out / f"indicators_{fy}.tsv", tables[fy])
            rcf.forecast.write_forecast_tsv(out / f"forecast_{fy}.tsv", records[fy])
        rcf.evaluate.write_evaluation(slices, out / "evaluation.json", out / "evaluation.tsv")
    return model_partition


@contextmanager
def reading(record: dict, name: str):
    """Record as ``record[name]`` the block's wall time, the process's
    ``ru_maxrss`` when it ends and, under ``tracemalloc``, its allocation peak
    above what was traced when it began."""
    traced = tracemalloc.is_tracing()
    if traced:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    yield
    record[name] = {"s": time.perf_counter() - t0,
                    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced:
        record[name]["tracemalloc_peak_mib"] = (
            tracemalloc.get_traced_memory()[1] - before) / 2**20


def run(rcf, size: int, inputs: Path, out: Path) -> tuple[dict, object]:
    """The readings of each stage of one ``chain`` into ``out``, which is
    removed afterwards, and its ``leiden`` partition."""
    gc.collect()
    record: dict = {}
    partition = chain(rcf, size, config(rcf, inputs, out), partial(reading, record))
    shutil.rmtree(out)
    return record, partition


def modules(package: str) -> SimpleNamespace:
    """The ``MODULES`` of the imported package ``package``, by name."""
    return SimpleNamespace(**{part: importlib.import_module(f"{package}.{part}")
                              for part in MODULES})


def _import_variant(name: str, src: str) -> SimpleNamespace:
    """The ``MODULES`` of the ``rcforecast`` package under ``src``, imported
    as the package ``_variant_<name>`` so that variants coexist."""
    package = Path(src) / "rcforecast"
    spec = importlib.util.spec_from_file_location(
        f"_variant_{name}", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return modules(spec.name)


def _alternating(names, repeats: int):
    """(repeat, name) pairs, the names in reverse order on odd repeats so that
    no name always runs first."""
    for rep in range(repeats):
        yield from ((rep, name) for name in (list(names)[::-1] if rep % 2 else names))


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information of two labelings of the same items
    (arithmetic-mean normalization)."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    width = int(ib.max()) + 1
    pairs, count = np.unique(ia * width + ib, return_counts=True)
    pij, pa, pb = count / len(a), np.bincount(ia) / len(a), np.bincount(ib) / len(a)
    mi = np.sum(pij * np.log(pij / (pa[pairs // width] * pb[pairs % width])))
    h = -np.sum(pa * np.log(pa)) - np.sum(pb * np.log(pb))
    return 1.0 if h == 0 else float(2.0 * mi / h)


def inprocess(variants: dict, size: int, inputs: Path, scratch: Path) -> dict:
    """Per variant: each stage's wall times over the alternating runs and their
    median, its allocation peak, and the ``leiden`` partition's signals."""
    rcfs = {name: _import_variant(name, src) for name, src in variants.items()}
    runs: dict = {name: [] for name in variants}
    for rep, name in _alternating(variants, REPEATS[size]):
        runs[name].append(run(rcfs[name], size, inputs, scratch / f"{name}_{rep}")[0])
    truth = next(iter(rcfs.values())).synth.load_truth(inputs / "truth.tsv")[0]
    report = {}
    for name, rcf in rcfs.items():
        tracemalloc.start()
        traced, part = run(rcf, size, inputs, scratch / f"{name}_traced")
        tracemalloc.stop()
        runs_s = {stage: [r[stage]["s"] for r in runs[name]] for stage in traced}
        report[name] = {
            "inprocess_s": {stage: statistics.median(s) for stage, s in runs_s.items()},
            "inprocess_runs_s": runs_s,
            "tracemalloc_peak_mib": {stage: r["tracemalloc_peak_mib"]
                                     for stage, r in traced.items()},
            "leiden": {"rc_count": part.rc_count, "quality": part.quality,
                       "nmi": nmi(part.rc, np.array([truth[p] for p in part.paper_ids.tolist()]))}}
    return report


def child(kind: str, size: int, inputs: Path, out: Path) -> dict:
    """One fresh measurement; ``rcforecast`` is already importable."""
    rcf = modules("rcforecast")
    if kind == "generate":
        rcf.synth.generate(rcf.synth.SynthConfig(rng_seed=SEED, n_communities=size), out)
        return {}
    start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if kind == "chain":
        return {"start_maxrss_mb": start, "stages": run(rcf, size, inputs, out)[0]}
    t0 = time.perf_counter()
    rcf.pipeline.run_pipeline(config(rcf, inputs, out))
    record = {"run_pipeline_s": time.perf_counter() - t0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    shutil.rmtree(out)
    return record


def _spawn(src: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, __file__, "--child", *map(str, args)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _median(runs: list, key: str) -> dict:
    return {stage: statistics.median(r["stages"][stage][key] for r in runs)
            for stage in runs[0]["stages"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", action="append", default=[],
                        help="NAME=SRC; repeatable (default: current=<checkout>/src)")
    parser.add_argument("--out", default="BENCH_18.json")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    variants = dict(v.split("=", 1) for v in args.variant) or {"current": str(ROOT / "src")}
    variants = {name: str(Path(src).resolve()) for name, src in variants.items()}
    if args.child:
        kind, size, inputs, out = args.child[0], int(args.child[1]), *map(Path, args.child[2:])
        print(json.dumps(inprocess(variants, size, inputs, out) if kind == "inprocess"
                         else child(kind, size, inputs, out)))
        return

    import scipy
    report = {"seed": SEED, "repeats": REPEATS,
              "host": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "machine": platform.machine(),
                       "nproc": os.cpu_count()},
              "sizes": {}}
    for size in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp) / "inputs"
            first = next(iter(variants.values()))
            _spawn(first, "generate", size, "-", inputs)
            sides = _spawn(first, "inprocess", size, inputs, Path(tmp) / "inprocess",
                           *[a for v in args.variant for a in ("--variant", v)])
            fresh: dict = {name: {"chain": [], "pipeline": []} for name in variants}
            for rep, name in _alternating(variants, REPEATS[size]):
                for kind, runs in fresh[name].items():
                    runs.append(_spawn(variants[name], kind, size, inputs, Path(tmp) / kind))
                print(f"size {size} repeat {rep} {name}: run_pipeline "
                      f"{fresh[name]['pipeline'][-1]['run_pipeline_s']:.3f} s", file=sys.stderr)
        report["sizes"][str(size)] = {name: sides[name] | {
            "fresh_s": _median(runs["chain"], "s"),
            "fresh_maxrss_mb": _median(runs["chain"], "maxrss_mb"),
            "start_maxrss_mb": statistics.median(r["start_maxrss_mb"] for r in runs["chain"]),
            "fresh_runs": runs["chain"],
            "run_pipeline_s": statistics.median(r["run_pipeline_s"] for r in runs["pipeline"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs["pipeline"]),
            "pipeline_runs": runs["pipeline"]} for name, runs in fresh.items()}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
