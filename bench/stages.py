"""Wall time, allocation peak and peak RSS of every stage of one run, for one
or more versions of the package side by side.

    python bench/stages.py [--variant NAME=SRC ...] [--out BENCH_25.json]

Each ``--variant`` names an ``src`` directory holding an ``rcforecast``
package (default: this checkout's ``src`` as ``current``). For each size in
``SIZES`` the first variant's ``synth.generate`` writes the corpus of seed
``SEED`` once, and every variant reads it.

The stages are those the library marks with ``rcforecast.trace.stage``
(``reading``, ``staged``). One process per size imports every variant side
by side and alternates ``REPEATS[size]`` runs of each (``run``), reversing
their order on odd repeats, for each stage's median wall time and, against
the first variant, its median per-repeat ratio and the number of repeats in
which it was lower (``pairs``); one more run of each under ``tracemalloc``
gives each stage's allocation peak, and its extended partition gives
``rc_count``, ``quality`` and ``nmi`` against ``truth.tsv``. One fresh
process per variant and repeat, spawned from this small one (a child's
``ru_maxrss`` starts at its parent's peak), runs ``staged`` alone for each
stage's ``ru_maxrss`` when it ends and the whole run's wall time and peak
RSS. Process-level times of identical code spread by 20-40% on a shared
host; the in-process pairs resolve a change to one stage.
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
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES, SEED, REPEATS = (1000, 10000), 101, {1000: 10, 10000: 4}


def config(rcf, inputs: Path, out: Path):
    """The ``PipelineConfig`` of acceptance 8 on the corpus in ``inputs``."""
    return rcf.pipeline.PipelineConfig(
        papers=str(inputs / "papers.jsonl"), journals=str(inputs / "ranks.csv"),
        out_dir=str(out), model_year=2009, extend_through=2014, resolution=0.02, seed=0,
        fit_fys=[2010, 2011], forecast_fys=[2010, 2011], min_papers=20, oracle_n=True)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextmanager
def reading(record: dict, opened: list, name: str):
    """Add the block's wall time to ``record[name]``, and record the process's
    ``ru_maxrss`` when it ends, the block it is nested in (``within``) and,
    under ``tracemalloc``, its allocation peak above what was traced when it
    began (the largest over repeated blocks). ``opened`` holds the blocks open
    around it as [name, traced when it began, traced peak since]."""
    def fold_peak():   # so that no block's reset of the peak hides it from those around it
        peak = tracemalloc.get_traced_memory()[1]
        for block in opened:
            block[2] = max(block[2], peak)
        tracemalloc.reset_peak()

    fold_peak()
    begun = tracemalloc.get_traced_memory()[0]
    opened.append([name, begun, begun])
    t0 = time.perf_counter()
    yield
    s = time.perf_counter() - t0
    fold_peak()
    _, begun, peak = opened.pop()
    r = record.setdefault(name, {"s": 0.0, "within": opened[-1][0] if opened else None})
    r["s"] += s
    r["maxrss_mb"] = _maxrss_mb()
    if tracemalloc.is_tracing():
        r["tracemalloc_peak_mib"] = max(r.get("tracemalloc_peak_mib", 0.0),
                                        (peak - begun) / 2**20)


def staged(rcf, inputs: Path, out: Path, record: dict) -> float:
    """``run_pipeline`` of ``config`` into ``out`` with ``rcf.trace.stage``
    read into ``record``; returns the run's wall time. A stage run more than
    once adds up, a nested one also counts in the stage around it, and
    ``rest`` is the run's wall time less its outermost stages: the writes and
    glue."""
    before = set(record)
    library_stage, rcf.trace.stage = rcf.trace.stage, partial(reading, record, [])
    try:
        t0 = time.perf_counter()
        rcf.pipeline.run_pipeline(config(rcf, inputs, out))
        run_s = time.perf_counter() - t0
    finally:
        rcf.trace.stage = library_stage
    outer_s = sum(r["s"] for name, r in record.items() if name not in before and not r["within"])
    record["rest"] = {"s": run_s - outer_s, "within": None, "maxrss_mb": _maxrss_mb()}
    return run_s


def run(rcf, size: int, inputs: Path, out: Path) -> tuple[dict, object]:
    """The readings of ``synth.generate`` into a scratch directory and of
    ``staged`` into ``out``, both removed afterwards, and the run's partition."""
    gc.collect()
    record: dict = {}
    with reading(record, [], "generate"):
        rcf.synth.generate(rcf.synth.SynthConfig(rng_seed=SEED, n_communities=size),
                           out / "generate")
    shutil.rmtree(out / "generate")
    staged(rcf, inputs, out, record)
    partition = rcf.cluster.load_partition(out / "partition.tsv", out / "partition.json")
    shutil.rmtree(out)
    return record, partition


def _import_variant(name: str, src: str):
    """The ``rcforecast`` package under ``src``, imported as the package
    ``_variant_<name>`` so that variants coexist."""
    package = Path(src) / "rcforecast"
    spec = importlib.util.spec_from_file_location(
        f"_variant_{name}", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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
    """The corpus in ``inputs`` and, per variant, each stage's wall times over
    the alternating runs, their median and, past the first variant, their
    ratios to it; each stage's allocation peak; and the partition's signals."""
    rcfs = {name: _import_variant(name, src) for name, src in variants.items()}
    first = next(iter(rcfs.values()))
    first.synth.generate(first.synth.SynthConfig(rng_seed=SEED, n_communities=size), inputs)
    runs: dict = {name: [] for name in variants}
    for rep, name in _alternating(variants, REPEATS[size]):
        runs[name].append(run(rcfs[name], size, inputs, scratch / f"{name}_{rep}")[0])
    truth = first.synth.load_truth(inputs / "truth.tsv")[0]
    report = {}
    for name, rcf in rcfs.items():
        tracemalloc.start()
        traced, part = run(rcf, size, inputs, scratch / f"{name}_traced")
        tracemalloc.stop()
        runs_s = {stage: [r[stage]["s"] for r in runs[name]] for stage in traced}
        labels = np.array([truth[p] for p in part.paper_ids.tolist()])
        report[name] = {
            "inprocess_s": {stage: statistics.median(s) for stage, s in runs_s.items()},
            "inprocess_runs_s": runs_s,
            "tracemalloc_peak_mib": {stage: r["tracemalloc_peak_mib"]
                                     for stage, r in traced.items() if r is not traced["rest"]},
            "partition": {"rc_count": part.rc_count, "quality": part.quality,
                          "nmi": nmi(part.rc, labels)}}
    base = report[next(iter(rcfs))]["inprocess_runs_s"]
    for name in list(rcfs)[1:]:
        report[name]["pairs"] = {
            stage: {"median_ratio": statistics.median(a / b for a, b in zip(s, base[stage])),
                    "lower": sum(a < b for a, b in zip(s, base[stage])), "of": len(s)}
            for stage, s in report[name]["inprocess_runs_s"].items()}
    return report


def child(inputs: Path, out: Path) -> dict:
    """One fresh ``staged`` run; ``rcforecast`` is already importable."""
    record: dict = {}
    run_s = staged(importlib.import_module("rcforecast"), inputs, out, record)
    shutil.rmtree(out)
    return {"run_pipeline_s": run_s, "peak_rss_mb": record["rest"]["maxrss_mb"], "stages": record}


def _spawn(src: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, __file__, "--child", *map(str, args)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", action="append", default=[],
                        help="NAME=SRC; repeatable (default: current=<checkout>/src)")
    parser.add_argument("--out", default="BENCH_25.json")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    variants = dict(v.split("=", 1) for v in args.variant) or {"current": str(ROOT / "src")}
    variants = {name: str(Path(src).resolve()) for name, src in variants.items()}
    if args.child:
        kind, size, inputs, out = args.child[0], int(args.child[1]), *map(Path, args.child[2:])
        print(json.dumps(inprocess(variants, size, inputs, out) if kind == "inprocess"
                         else child(inputs, out)))
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
            sides = _spawn(next(iter(variants.values())), "inprocess", size, inputs,
                           Path(tmp) / "inprocess",
                           *[a for v in args.variant for a in ("--variant", v)])
            fresh: dict = {name: [] for name in variants}
            for rep, name in _alternating(variants, REPEATS[size]):
                fresh[name].append(_spawn(variants[name], "staged", size, inputs,
                                          Path(tmp) / "staged"))
                print(f"size {size} repeat {rep} {name}: run_pipeline "
                      f"{fresh[name][-1]['run_pipeline_s']:.3f} s", file=sys.stderr)
        report["sizes"][str(size)] = {name: sides[name] | {
            "fresh_maxrss_mb": {stage: statistics.median(r["stages"][stage]["maxrss_mb"]
                                                         for r in runs)
                                for stage in runs[0]["stages"]},
            "run_pipeline_s": statistics.median(r["run_pipeline_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "fresh_runs": runs} for name, runs in fresh.items()}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
