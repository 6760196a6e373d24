"""The benchmark's workloads: inputs, the timed operation and its output checks.

Every workload draws its corpus from ``rcforecast.synth.generate`` with the
workload seed; the library sees only the generated files. Sizes are chosen so
that one timed operation takes a few seconds on a 2-core machine and several
fit into one measured run (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from rcforecast import cli, pipeline
from rcforecast.cluster import ClusterConfig, load_partition, save_partition
from rcforecast.corpus import load_corpus
from rcforecast.pipeline import PipelineConfig, build_model, extend_model
from rcforecast.synth import SynthConfig, generate, load_truth

MODEL_YEAR = 2009
THROUGH_YEAR = 2014
RESOLUTION = 0.02
FYS = [2010, 2011]
SWEEP_FYS = "2005:2011"
# Catches broken clustering, not drift: measured values are 0.92 to 0.95.
NMI_FLOOR = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    n_communities: int
    sweep: bool     # the CLI sweep on a saved model; its set-up builds the model


# Why these two: BENCHMARK.json and README.md. The pipeline times assign and
# cold-start Leiden; the sweep times neither and works the other layers.
WORKLOADS = {w.name: w for w in (Workload("pipeline-1k", 1000, sweep=False),
                                 Workload("forecast-sweep-1k", 1000, sweep=True))}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def data_digests(out_dir: Path) -> dict[str, str]:
    """Digests of every data artifact; manifests carry timestamps by design."""
    return {p.name: digest(p) for p in sorted(out_dir.iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")}


def nmi(a, b) -> float:
    """Normalized mutual information (arithmetic-mean normalization)."""
    _, ia = np.unique(np.asarray(a), return_inverse=True)
    _, ib = np.unique(np.asarray(b), return_inverse=True)
    n = len(ia)
    table = sparse.coo_matrix((np.ones(n), (ia, ib))).tocsr()
    table.sum_duplicates()
    pij = table.data / n
    rows, cols = table.nonzero()
    pa = np.bincount(ia) / n
    pb = np.bincount(ib) / n
    mi = float(np.sum(pij * np.log(pij / (pa[rows] * pb[cols]))))
    ha = -float(np.sum(pa * np.log(pa)))
    hb = -float(np.sum(pb * np.log(pb)))
    return 1.0 if ha + hb == 0 else 2.0 * mi / (ha + hb)


def recovery_nmi(assignment: dict[int, int], truth: dict[int, int]) -> float:
    common = sorted(set(assignment) & set(truth))
    return nmi([assignment[p] for p in common], [truth[p] for p in common])


# --- set-up -------------------------------------------------------------------

def setup(w: Workload, seed: int, n_communities: int, inputs: Path) -> dict:
    """Generate the corpus (and, for the sweep, build and save the model).

    Returns the timed parts; digests and quality are taken after the clock.
    """
    t0 = time.perf_counter()
    generate(SynthConfig(rng_seed=seed, n_communities=n_communities), inputs)
    t1 = time.perf_counter()
    if w.sweep:
        corpus = load_corpus(inputs / "papers.jsonl", inputs / "ranks.csv")
        config = ClusterConfig(quality="cpm", resolution=RESOLUTION, rng_seed=0)
        partition, _ = build_model(corpus, MODEL_YEAR, config)
        partition, _ = extend_model(corpus, partition, THROUGH_YEAR)
        (inputs / "model").mkdir(exist_ok=True)
        save_partition(partition, inputs / "model" / "partition.tsv",
                       inputs / "model" / "partition.json")
    t2 = time.perf_counter()
    for path in inputs.rglob("*"):      # no write-back of the inputs during timing
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    out = {"generate_s": t1 - t0, "setup_s": t2 - t0, "digests": data_digests(inputs)}
    if w.sweep:
        out["digests"]["model"] = digest(inputs / "model" / "partition.tsv")
        truth, _, _ = load_truth(inputs / "truth.tsv")
        out["recovery_nmi"] = recovery_nmi(partition.assignment, truth)
    return out


# --- the timed operation ----------------------------------------------------------

def _pipeline_config(inputs: Path, out: Path) -> PipelineConfig:
    return PipelineConfig(papers=str(inputs / "papers.jsonl"),
                          journals=str(inputs / "ranks.csv"), out_dir=str(out),
                          model_year=MODEL_YEAR, extend_through=THROUGH_YEAR,
                          resolution=RESOLUTION, seed=0, fit_fys=FYS, forecast_fys=FYS,
                          min_papers=20, oracle_n=True)


def _sweep_commands(inputs: Path, out: Path) -> list[list[str]]:
    corpus = ["--corpus", str(inputs / "papers.jsonl"), "--model", str(inputs / "model")]
    journals = ["--journals", str(inputs / "ranks.csv")]
    return [
        ["fit", *corpus, *journals, "--fy-range", SWEEP_FYS,
         "--out", str(out / "composite.json")],
        ["evaluate", *corpus, *journals, "--composite", str(out / "composite.json"),
         "--fy-range", SWEEP_FYS, "--by", "fy,ry,actionable", "--min-papers", "20",
         "--out-json", str(out / "evaluation.json"), "--out-tsv", str(out / "evaluation.tsv")],
        ["lifecycle", *corpus, "--fy", "2011", "--min-papers", "20",
         "--out", str(out / "lifecycle_2011.tsv")],
    ]


def operate(w: Workload, inputs: Path, out: Path) -> tuple[float, dict]:
    """Run the timed operation; return its wall time and what the checks need."""
    if w.sweep:
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.run(argv) for argv in _sweep_commands(inputs, out)]
        elapsed = time.perf_counter() - t0
        lines = [json.loads(line) for line in stdout.getvalue().splitlines() if line]
        csi = next((d["overall_csi"] for d in lines if "overall_csi" in d), None)
        return elapsed, {"codes": codes, "overall_csi": csi}
    cfg = _pipeline_config(inputs, out)
    t0 = time.perf_counter()
    summary = pipeline.run_pipeline(cfg)   # looked up at call time, so tracing sees it
    return time.perf_counter() - t0, {"overall_csi": summary.get("overall_csi")}


# --- output checks ----------------------------------------------------------------

PIPELINE_ARTIFACTS = ["partition.tsv", "partition.json", "extension.json", "summary.json",
                      "partition.manifest.json", "composite.json", "composite.manifest.json",
                      "evaluation.json", "evaluation.tsv", "evaluation.manifest.json",
                      *(f"indicators_{fy}.tsv" for fy in FYS),
                      *(f"forecast_{fy}.tsv" for fy in FYS),
                      *(f"forecast_{fy}.manifest.json" for fy in FYS)]
SWEEP_ARTIFACTS = ["composite.json", "composite.json.manifest.json", "evaluation.json",
                   "evaluation.tsv", "evaluation.json.manifest.json", "lifecycle_2011.tsv",
                   "lifecycle_2011.tsv.manifest.json"]


def check(w: Workload, inputs: Path, out: Path, result: dict) -> tuple[list[str], dict]:
    """Output checks of one timed operation: (failures, quality values)."""
    failures = [f"missing artifact {name}"
                for name in (SWEEP_ARTIFACTS if w.sweep else PIPELINE_ARTIFACTS)
                if not (out / name).is_file()]
    csi = result.get("overall_csi")
    values = {"overall_csi": csi}
    if w.sweep:
        failures += [f"rcf {argv[0]} returned {code}" for argv, code in
                     zip(_sweep_commands(inputs, out), result["codes"]) if code != 0]
        return failures, values
    if failures:
        return failures, values

    truth, _, _ = load_truth(inputs / "truth.tsv")
    partition = load_partition(out / "partition.tsv", out / "partition.json")
    values["recovery_nmi"] = recovery_nmi(partition.assignment, truth)
    if values["recovery_nmi"] < NMI_FLOOR:
        failures.append(f"recovery_nmi {values['recovery_nmi']:.3f} < {NMI_FLOOR}")
    reports = json.loads((out / "extension.json").read_text())
    if [r["year"] for r in reports] != list(range(MODEL_YEAR + 1, THROUGH_YEAR + 1)):
        failures.append("extension.json does not cover every extension year")
    failures += [f"extension {r['year']}: assignment counts do not add up"
                 for r in reports if r["by_references"] + r["by_bm25"]
                 + len(r["unassigned"]) != r["n_papers"]]
    if csi is None or not 0.0 <= csi <= 1.0:
        failures.append(f"overall_csi {csi} missing or outside [0, 1]")
    return failures, values


def truth_agreement(tracer, truth: dict[int, int]) -> dict[str, float]:
    """Share of extension-assigned papers, by method, whose RC's majority true
    community (in the partition they were assigned against) is their own."""
    hits = Counter()
    totals = Counter()
    for corpus, base, extended in tracer.extensions:
        votes: dict[int, Counter] = {}
        for pid, rc in base.assignment.items():
            votes.setdefault(rc, Counter())[truth.get(pid)] += 1
        majority = {rc: c.most_common(1)[0][0] for rc, c in votes.items()}
        for pid, rc in extended.assignment.items():
            if pid in base.assignment:
                continue
            method = ("references" if any(r in base.assignment
                                          for r in corpus.papers[pid].references)
                      else "bm25")
            totals[method] += 1
            hits[method] += majority.get(rc) == truth.get(pid)
    return {f"assign.truth_agreement.{m}": (hits[m] / totals[m] if totals[m] else 0.0)
            for m in ("references", "bm25")}
