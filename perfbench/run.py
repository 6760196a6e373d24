"""Benchmark of the rcforecast batch chain, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed``, set up several times and
timed as ``setup_s``; then the timed operation repeats until ``--seconds``
have passed. Every set-up and every repetition runs in a forked child of a
lean parent, so each starts from the same heap and its own peak RSS is read
with ``os.wait4``. With ``--trace 1`` untraced and traced repetitions
alternate: the traced ones report per-layer spans and counters, and the
difference of the two medians is the tracing overhead. See README.md.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics named in BENCHMARK.json with their units. With
``--workload all`` each workload runs in turn and prints its report and
result line. The exit code is 1 if an output check failed and 2 if the
library cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0          # the whole run, so it ends within 180 s
SETUPS = 3


class NotRunnable(Exception):
    pass


def load_library():
    """Import rcforecast from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "rcforecast" / "__init__.py").is_file():
        raise NotRunnable(f"no rcforecast sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rcforecast
    if not Path(rcforecast.__file__).resolve().is_relative_to(src):
        raise NotRunnable(f"rcforecast imported from {rcforecast.__file__}, not {src}")


def catalogue() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise NotRunnable(f"missing {path}")
    return json.loads(path.read_text())


# --- child processes -------------------------------------------------------------

def in_child(fn, deadline: float):
    """Run ``fn()`` in a forked child; return (value, error, peak RSS in MB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()
    gc.freeze()     # keep the child's collector off the parent's pages
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = {"value": fn()}
            except Exception:
                payload = {"error": traceback.format_exc(limit=-4)}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(payload, fh, default=float)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks: list[bytes] = []
    timed_out = False
    try:
        while True:
            ready, _, _ = select.select([read_fd], [], [],
                                        max(deadline - time.monotonic(), 0.0))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024.0          # KiB on Linux
    if timed_out:
        return None, "timed out", peak_mb
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        return None, "child ended without a result", peak_mb
    return payload.get("value"), payload.get("error"), peak_mb


def reference_s() -> float:
    """Wall time of a fixed pure-Python dict, sort and loop task.

    The host's speed drifts between states that last seconds to minutes.
    Timed right before and after a repetition, this task slows with it, so
    ``run_s / ref_s`` (``run_ref``) drifts much less than ``run_s``.
    """
    t0 = time.perf_counter()
    for _ in range(10):
        table = {(i * 7919) % 40_009: (i, str(i)) for i in range(40_000)}
        total = 0
        for key in sorted(table, key=lambda k: table[k][1]):
            total += table[key][0]
    return time.perf_counter() - t0


def timed_rep(w, inputs: Path, out: Path, traced: bool, spans_path: Path, extra_check):
    """One repetition of the timed operation, run inside the child."""
    import workloads
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    ref_before = reference_s()
    run_s, result = workloads.operate(w, inputs, out)
    ref_s = (ref_before + reference_s()) / 2
    failures, values = workloads.check(w, inputs, out, result)
    if extra_check is not None:
        failures += extra_check(out)
    rep = {"run_s": run_s, "run_ref": run_s / ref_s, "failures": failures,
           "values": values, "digests": workloads.data_digests(out)}
    if tracer is not None:
        truth, _, _ = workloads.load_truth(inputs / "truth.tsv")
        rep["layer"] = {**tracer.aggregate(), **workloads.truth_agreement(tracer, truth)}
        rep["absent"] = tracer.absent
        tracer.write(spans_path)
    return rep


# --- statistics and environment ------------------------------------------------------

def summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


# --- one benchmark run -----------------------------------------------------------------

def bench(name: str, seed: int, seconds: float, trace: bool, n_communities: int | None = None,
          setups: int = SETUPS, extra_check=None) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; return (result line, report lines).

    ``n_communities`` shrinks the corpus and ``extra_check(out_dir)`` adds
    failures to every repetition; both exist for the smoke test.
    """
    import workloads
    deadline = time.monotonic() + DEADLINE_S
    w = workloads.WORKLOADS[name]
    n_communities = n_communities or w.n_communities
    cat = catalogue()
    env = environment(seed)
    run_dir = WORK / f"{name}-n{n_communities}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, out = run_dir / "inputs", run_dir / "out"
    inputs.mkdir(parents=True)
    errors: list[str] = []

    setup_runs = []
    for _ in range(setups):
        value, error, _ = in_child(lambda: workloads.setup(
            w, seed, n_communities, inputs), deadline)
        if error:
            errors.append(f"set-up: {error}")
            break
        if setup_runs and value["digests"] != setup_runs[0]["digests"]:
            errors.append("set-up: generated inputs differ between set-ups of one seed")
        setup_runs.append(value)

    reps: list[dict] = []
    failed = 0
    start = time.monotonic()
    while len(setup_runs) == setups:
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        value, error, peak_mb = in_child(
            lambda: timed_rep(w, inputs, out, traced, run_dir / "spans.jsonl", extra_check),
            deadline)
        rep = value or {"failures": [error or "no result"]}
        if value and reps and value["digests"] != reps[0].get("digests"):
            rep["failures"].append("data artifacts differ from the first repetition")
        rep.update(traced=traced, peak_rss_mb=peak_mb)
        reps.append(rep)
        if rep["failures"]:
            failed += 1
            errors.extend(f"repetition {len(reps)}: {f}" for f in rep["failures"])
        if error == "timed out" or time.monotonic() > deadline - 1:
            break
        if time.monotonic() - start >= seconds and (not trace or len(reps) % 2 == 0):
            break
    shutil.rmtree(out, ignore_errors=True)

    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    traced_reps = [r for r in reps if r["traced"] and "layer" in r]
    nmi_source = setup_runs[:1] if w.sweep else [r["values"] for r in plain]
    stats = {
        "run_s": summary([r["run_s"] for r in plain]),
        "run_ref": summary([r["run_ref"] for r in plain]),
        "setup_s": summary([s["setup_s"] for s in setup_runs]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
        "recovery_nmi": summary([v["recovery_nmi"] for v in nmi_source
                                 if v.get("recovery_nmi") is not None]),
        "overall_csi": summary([r["values"]["overall_csi"] for r in plain
                                if r["values"].get("overall_csi") is not None]),
        "error_rate": summary([failed / max(len(reps), 1)]),
    }
    units = {m["name"]: m["unit"] for m in cat["end_to_end"] + cat["per_layer"]}
    units.update(run_s="s", overall_csi="ratio", error_rate="ratio")

    layer: dict[str, float] = {}
    if trace:
        names = sorted({k for r in traced_reps for k in r["layer"]})
        layer = {k: statistics.median(r["layer"].get(k, 0.0) for r in traced_reps)
                 for k in names}
        layer["synth.generate.s"] = statistics.median(s["generate_s"] for s in setup_runs) \
            if setup_runs else 0.0
        # each traced repetition minus the untraced one just before it, so the
        # host's drift between the two is as small as it can be
        pairs = [b["run_s"] - a["run_s"] for a, b in zip(reps[::2], reps[1::2])
                 if "run_s" in a and "run_s" in b]
        if pairs:
            layer["trace.overhead_s"] = statistics.median(pairs)
    wanted = cat["per_layer"] if trace else cat["end_to_end"]
    metrics = {}
    for m in wanted:
        value = layer.get(m["name"], 0.0) if trace else stats[m["name"]]["median"]
        if value is not None:
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    correct = not errors and len(metrics) == len(wanted) and bool(reps)
    result = {"correct": correct, "attempted": max(len(reps), 1),
              "failed": failed if reps else 1, "metrics": metrics}

    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}"
             f"  failed {failed}  n_communities {n_communities}"]
    for key, s in stats.items():
        if s["n"]:
            lines.append(f"  {key:<14} {s['median']:.6g} {units[key]}  (q1 {s['q1']:.6g},"
                         f" q3 {s['q3']:.6g}, n {s['n']})")
    for key in sorted(layer):
        unit = units.get(key) or ("count" if key.endswith(".calls") else "s")
        lines.append(f"  {key:<44} {layer[key]:.6g} {unit}")
    if traced_reps:
        lines.append(f"  absent wrappers: {traced_reps[-1]['absent'] or 'none'}")
    lines.extend(f"  FAILED {e.strip().splitlines()[-1]}" for e in errors[:20])
    lines.append("env " + json.dumps(env, sort_keys=True))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "workload": name, "trace": int(trace), "stats": stats,
              "per_layer": layer, "errors": errors, "result": result,
              "repetitions": [{k: r.get(k) for k in ("run_s", "run_ref", "peak_rss_mb", "traced")}
                              for r in reps],
              "setups": [{k: s[k] for k in ("generate_s", "setup_s")} for s in setup_runs]}
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1, default=float))
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:       # one BLAS thread: within nproc, and safe to fork
        os.environ[var] = "1"
    try:
        load_library()
        catalogue()
    except NotRunnable as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {list(workloads.WORKLOADS)} or all")
    correct = True
    for name in names:
        result, lines = bench(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
