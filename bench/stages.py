"""Wall time and peak RSS of corpus generation, the corpus-facing stages and
a whole run, and wall time and allocation peak of ``load_corpus``, ``leiden``
and ``synth.generate`` run side by side in one process.

    python bench/stages.py [--variant NAME=SRC ...] [--out BENCH_16.json]

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
much to resolve a change to one stage. So three stages are also measured in
one more fresh process per size that imports every variant's package side by
side, alternating variants (in reverse order on odd repeats), each followed by
one more run of each under ``tracemalloc`` for its allocation peak
(``tracemalloc_peak_mib``). These runs stay out of the main process because a
child's ``ru_maxrss`` starts at the peak of the process that spawned it:

* ``load``: ``LOAD_REPEATS`` runs of ``load_corpus``;
* ``leiden``: ``LEIDEN_REPEATS`` runs of ``leiden`` on the 2009 graph (CPM,
  resolution ``RESOLUTION``, seed 0), each variant on the graph its own
  ``build_graph`` made, with the partition's ``rc_count``, ``quality`` and
  ``nmi`` against the planted communities of ``truth.tsv``;
* ``generate``: ``GENERATE_REPEATS[size]`` runs of ``synth.generate`` of
  that size and seed into a scratch directory.

The report holds per-repeat values and their medians; each variant's
in-process runs are its ``inprocess`` entry.
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
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MODEL_YEAR, THROUGH_YEAR, RESOLUTION, FYS = 2009, 2014, 0.02, [2010, 2011]
SIZES, SEED, REPEATS, LOAD_REPEATS = (1000, 10000), 101, 5, 10
LEIDEN_REPEATS, GENERATE_REPEATS = 5, {1000: 10, 10000: 4}


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


def _import_variant(name: str, src: str) -> SimpleNamespace:
    """The modules of the ``rcforecast`` package under ``src`` that the
    in-process runs call, imported as the package ``_variant_<name>`` so that
    variants coexist."""
    package = Path(src) / "rcforecast"
    spec = importlib.util.spec_from_file_location(
        f"_variant_{name}", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{part: importlib.import_module(f"{spec.name}.{part}")
                              for part in ("corpus", "citegraph", "cluster", "synth")})


def _alternate(names, repeats: int, run) -> dict:
    """Wall times of ``run(name, repeat)`` per name, alternating the names (in
    reverse order on odd repeats)."""
    runs: dict = {name: [] for name in names}
    for rep in range(repeats):
        for name in list(names)[::-1] if rep % 2 else names:
            gc.collect()
            t0 = time.perf_counter()
            run(name, rep)
            runs[name].append(time.perf_counter() - t0)
    return runs


def _traced(run):
    """The value of ``run()`` and its ``tracemalloc`` peak in MiB."""
    gc.collect()
    tracemalloc.start()
    out = run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, peak / 2**20


def _timings(key: str, runs: list, peak: float) -> dict:
    return {key: statistics.median(runs), "runs_s": runs, "tracemalloc_peak_mib": peak}


def load_pairs(variants: dict, inputs: Path) -> dict:
    """Per variant: ``load_corpus`` times, their median and the allocation
    peak of one more load."""
    papers, ranks = inputs / "papers.jsonl", inputs / "ranks.csv"
    runs = _alternate(variants, LOAD_REPEATS,
                      lambda name, _: variants[name].corpus.load_corpus(papers, ranks))
    return {name: _timings("load_corpus_s", runs[name], _traced(
        lambda: v.corpus.load_corpus(papers, ranks))[1]) for name, v in variants.items()}


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


def leiden_pairs(variants: dict, inputs: Path) -> dict:
    """Per variant: ``leiden`` times on the 2009 graph, their median, the
    allocation peak of one more run, and that partition's ``rc_count``,
    ``quality`` and NMI against the planted communities of its papers."""
    truth = np.loadtxt(inputs / "truth.tsv", dtype=str, delimiter="\t", skiprows=1)
    truth = truth[truth[:, 0] == "paper"]
    truth_ids, truth_rc = truth[:, 1].astype(np.int64), truth[:, 3].astype(np.int64)
    graphs = {}
    for name, v in variants.items():
        corpus = v.corpus.load_corpus(inputs / "papers.jsonl", inputs / "ranks.csv")
        graphs[name] = v.citegraph.build_graph(corpus, extended=True, year_cutoff=MODEL_YEAR)
        del corpus

    def run(name, _=None):
        cluster = variants[name].cluster
        return cluster.leiden(graphs[name], cluster.ClusterConfig(
            quality="cpm", resolution=RESOLUTION, rng_seed=0))

    runs = _alternate(variants, LEIDEN_REPEATS, run)
    report = {}
    for name in variants:
        part, peak = _traced(lambda: run(name))
        common = np.isin(truth_ids, part.paper_ids)
        rc = part.rc[np.searchsorted(part.paper_ids, truth_ids[common])]
        report[name] = _timings("leiden_s", runs[name], peak) | {
            "rc_count": part.rc_count, "quality": part.quality,
            "nmi": nmi(rc, truth_rc[common])}
    return report


def generate_pairs(variants: dict, size: int, scratch: Path) -> dict:
    """Per variant: ``synth.generate`` times, their median and the allocation
    peak of one more run."""
    def run(name, rep):
        synth = variants[name].synth
        synth.generate(synth.SynthConfig(rng_seed=SEED, n_communities=size),
                       scratch / f"{name}_{rep}")
        shutil.rmtree(scratch / f"{name}_{rep}")

    runs = _alternate(variants, GENERATE_REPEATS[size], run)
    return {name: _timings("generate_s", runs[name], _traced(lambda: run(name, "traced"))[1])
            for name in variants}


def inprocess(variants: dict, size: int, inputs: Path, scratch: Path) -> dict:
    """The in-process runs of one size, by kind and variant."""
    modules = {name: _import_variant(name, src) for name, src in variants.items()}
    scratch.mkdir()
    return {"load": load_pairs(modules, inputs), "leiden": leiden_pairs(modules, inputs),
            "generate": generate_pairs(modules, size, scratch)}


def _spawn(src: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, __file__, "--child", *map(str, args)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", action="append", default=[],
                        help="NAME=SRC; repeatable (default: current=<checkout>/src)")
    parser.add_argument("--out", default="BENCH_16.json")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    variants = dict(v.split("=", 1) for v in args.variant) or {"current": str(ROOT / "src")}
    variants = {name: str(Path(src).resolve()) for name, src in variants.items()}
    if args.child:
        kind, size, inputs, out = args.child
        if kind == "inprocess":
            result = inprocess(variants, int(size), Path(inputs), Path(out))
        else:
            result = child(kind, int(size), Path(inputs), Path(out))
        print(json.dumps(result))
        return

    first = next(iter(variants.values()))
    import scipy
    report = {"seed": SEED, "repeats": REPEATS, "load_repeats": LOAD_REPEATS,
              "leiden_repeats": LEIDEN_REPEATS, "generate_repeats": GENERATE_REPEATS,
              "host": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "machine": platform.machine(),
                       "nproc": os.cpu_count()},
              "sizes": {}}
    for size in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp) / "inputs"
            _spawn(first, "generate", size, "-", inputs)
            pairs_of = _spawn(first, "inprocess", size, inputs, Path(tmp) / "generate",
                              *[a for v in args.variant for a in ("--variant", v)])
            for kind, pairs in pairs_of.items():
                for name, pair in pairs.items():
                    print(f"size {size} {name}: in-process {kind} {pair['runs_s']} s, "
                          f"tracemalloc peak {pair['tracemalloc_peak_mib']:.2f} MiB",
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
            | {"inprocess": {kind: pairs[name] for kind, pairs in pairs_of.items()},
               "runs": recs}
            for name, recs in runs.items()}
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
