"""Wall time and peak RSS of corpus generation, the corpus-facing stages and
a whole run, and wall time and allocation peak of ``load_corpus``.

    python bench/stages.py [--variant NAME=SRC ...] [--out BENCH_13.json]

Each ``--variant`` names an ``src`` directory holding an ``rcforecast``
package (default: this checkout's ``src`` as ``current``); naming two, such
as a parent commit's and a change's, gives two columns from one host. For
each size in ``SIZES`` the corpus is generated once, with ``synth.generate``
from the first variant and seed ``SEED``, into a temporary directory. Then,
for each of ``REPEATS`` repeats and each variant in turn (in reverse order on
odd repeats, so that no variant always runs first), three fresh Python
processes run:

* ``generate``: ``synth.generate`` of that size and seed into a scratch
  directory, which is removed afterwards;
* ``stages``: ``load_corpus``, ``build_graph`` through 2009, the first use of
  ``term_matrix``, ``leiden`` of the 2009 graph, ``assign_new_papers`` for
  2010..2014 (summed) on its partition, ``Panel.__init__`` (``panel_init``)
  on the extended partition, ``save_partition`` followed by
  ``load_partition`` of it (``partition_io``), and ``write_indicator_tsv``
  of the fy 2010 indicator table (``indicator_tsv``); ``corpus_stages_s``
  sums the load, graph, term matrix and panel;
* ``pipeline``: ``run_pipeline`` with the model year 2009, extension through
  2014, resolution 0.02 and forecast and fit years 2010 and 2011.

Times come from ``time.perf_counter``; ``peak_rss_mb`` is the process's own
``resource.getrusage(RUSAGE_SELF).ru_maxrss``, read when the process ends, so
a stages process reports the peak over all of its stages and set-up.

Process-level times of identical code spread by 20-40% on a shared host, too
much to resolve a change to one stage. So ``load_corpus`` is also measured in
one process that imports every variant's package side by side: ``LOAD_REPEATS``
loads of each, alternating variants (in reverse order on odd repeats), then one
more load of each under ``tracemalloc`` for its allocation peak
(``tracemalloc_peak_mib``). The report holds per-repeat values and their
medians.
"""

from __future__ import annotations

import argparse
import gc
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL_YEAR, THROUGH_YEAR, RESOLUTION, FYS = 2009, 2014, 0.02, [2010, 2011]
SIZES, SEED, REPEATS, LOAD_REPEATS = (1000, 10000), 101, 5, 10


def _timed(record: dict, name: str, fn):
    t0 = time.perf_counter()
    out = fn()
    record[name + "_s"] = time.perf_counter() - t0
    return out


def child(kind: str, size: int, inputs: Path, out: Path) -> dict:
    """One measurement in this process; ``rcforecast`` is already importable."""
    from rcforecast.assign import assign_new_papers
    from rcforecast.citegraph import build_graph
    from rcforecast.cluster import ClusterConfig, leiden, load_partition, save_partition
    from rcforecast.corpus import load_corpus
    from rcforecast.indicators import Panel, write_indicator_tsv
    from rcforecast.pipeline import PipelineConfig, indicator_table, run_pipeline
    from rcforecast.synth import SynthConfig, generate

    papers, ranks = inputs / "papers.jsonl", inputs / "ranks.csv"
    record: dict = {}
    if kind == "generate":
        _timed(record, "generate",
               lambda: generate(SynthConfig(rng_seed=SEED, n_communities=size), out))
    elif kind == "pipeline":
        _timed(record, "run_pipeline", lambda: run_pipeline(PipelineConfig(
            papers=str(papers), journals=str(ranks), out_dir=str(out),
            model_year=MODEL_YEAR, extend_through=THROUGH_YEAR, resolution=RESOLUTION,
            seed=0, fit_fys=FYS, forecast_fys=FYS, min_papers=20, oracle_n=True)))
    else:
        corpus = _timed(record, "load_corpus", lambda: load_corpus(papers, ranks))
        graph = _timed(record, "build_graph",
                       lambda: build_graph(corpus, extended=True, year_cutoff=MODEL_YEAR))
        _timed(record, "term_matrix", lambda: corpus.term_matrix)
        partition = _timed(record, "leiden", lambda: leiden(graph, ClusterConfig(
            quality="cpm", resolution=RESOLUTION, rng_seed=0)))
        record["assign_new_papers_s"] = 0.0
        for year in range(MODEL_YEAR + 1, THROUGH_YEAR + 1):
            t0 = time.perf_counter()
            partition, _ = assign_new_papers(partition, corpus, year)
            record["assign_new_papers_s"] += time.perf_counter() - t0
        panel = _timed(record, "panel_init", lambda: Panel(corpus, partition))
        out.mkdir()
        paths = out / "partition.tsv", out / "partition.json"
        _timed(record, "partition_io",
               lambda: save_partition(partition, *paths) or load_partition(*paths))
        table = indicator_table(panel, FYS[0])
        _timed(record, "indicator_tsv",
               lambda: write_indicator_tsv(out / f"indicators_{FYS[0]}.tsv", table))
        record["corpus_stages_s"] = sum(record[f"{name}_s"] for name in (
            "load_corpus", "build_graph", "term_matrix", "panel_init"))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def _import_corpus(name: str, src: str):
    """The ``corpus`` module of the ``rcforecast`` package under ``src``,
    imported as the package ``_variant_<name>`` so that variants coexist."""
    package = Path(src) / "rcforecast"
    spec = importlib.util.spec_from_file_location(
        f"_variant_{name}", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{spec.name}.corpus")


def load_pairs(corpora: dict, inputs: Path) -> dict:
    """Per variant: wall times of ``load_corpus`` alternating with the other
    variants in this process, their median, and the ``tracemalloc`` peak of
    one more load."""
    papers, ranks = inputs / "papers.jsonl", inputs / "ranks.csv"
    runs: dict = {name: [] for name in corpora}
    for rep in range(LOAD_REPEATS):
        order = list(corpora.items())
        for name, corpus in order[::-1] if rep % 2 else order:
            gc.collect()
            t0 = time.perf_counter()
            corpus.load_corpus(papers, ranks)
            runs[name].append(time.perf_counter() - t0)
    report = {}
    for name, corpus in corpora.items():
        gc.collect()
        tracemalloc.start()
        corpus.load_corpus(papers, ranks)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        report[name] = {"load_corpus_s": statistics.median(runs[name]), "runs_s": runs[name],
                        "tracemalloc_peak_mib": peak / 2**20}
    return report


def _spawn(src: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, __file__, "--child", *map(str, args)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", action="append", default=[],
                        help="NAME=SRC; repeatable (default: current=<checkout>/src)")
    parser.add_argument("--out", default="BENCH_13.json")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        kind, size, inputs, out = args.child
        print(json.dumps(child(kind, int(size), Path(inputs), Path(out))))
        return

    variants = dict(v.split("=", 1) for v in args.variant) or {"current": str(ROOT / "src")}
    variants = {name: str(Path(src).resolve()) for name, src in variants.items()}
    first = next(iter(variants.values()))
    import numpy
    import scipy
    corpora = {name: _import_corpus(name, src) for name, src in variants.items()}
    report = {"seed": SEED, "repeats": REPEATS, "load_repeats": LOAD_REPEATS,
              "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "machine": platform.machine(),
                       "nproc": os.cpu_count()},
              "sizes": {}}
    for size in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp) / "inputs"
            _spawn(first, "generate", size, "-", inputs)
            loads = load_pairs(corpora, inputs)
            for name, load in loads.items():
                print(f"size {size} {name}: load_corpus {load['load_corpus_s']:.3f} s, "
                      f"tracemalloc peak {load['tracemalloc_peak_mib']:.2f} MiB",
                      file=sys.stderr)
            runs: dict = {name: [] for name in variants}
            for rep in range(REPEATS):
                order = list(variants.items())
                for name, src in order[::-1] if rep % 2 else order:
                    scratch = Path(tmp) / f"generate_{name}_{rep}"
                    record = {"generate": _spawn(src, "generate", size, "-", scratch)}
                    shutil.rmtree(scratch)
                    record["stages"] = _spawn(src, "stages", size, inputs,
                                              Path(tmp) / f"stages_{name}_{rep}")
                    record["pipeline"] = _spawn(src, "pipeline", size, inputs,
                                                Path(tmp) / f"out_{name}_{rep}")
                    runs[name].append(record)
                    print(f"size {size} repeat {rep} {name}: "
                          f"generate {record['generate']['generate_s']:.3f} s, "
                          f"corpus stages {record['stages']['corpus_stages_s']:.3f} s, "
                          f"run_pipeline {record['pipeline']['run_pipeline_s']:.3f} s, "
                          f"{record['pipeline']['peak_rss_mb']:.0f} MB", file=sys.stderr)
        report["sizes"][str(size)] = {
            name: {part: {key: statistics.median(r[part][key] for r in recs)
                          for key in recs[0][part]}
                   for part in ("generate", "stages", "pipeline")}
            | {"load": loads[name], "runs": recs}
            for name, recs in runs.items()}
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
