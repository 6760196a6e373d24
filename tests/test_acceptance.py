"""Acceptance suite: one test per criterion, tolerances pinned.

Each test records a single ``ACCEPTANCE <n>: PASS|FAIL`` line; the terminal
summary of every run lists them. The end-to-end and determinism criteria
build 10,000-community synthetic corpora and run the full pipeline; the whole
module targets a sub-ten-minute wall clock.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from rcforecast.citegraph import CitationGraph
from rcforecast.cluster import ClusterConfig, Partition, leiden_best_of
from rcforecast.corpus import load_corpus
from rcforecast.evaluate import contingency, evaluate_slices
from rcforecast.forecast import (
    CompositeModel,
    ForecastRecord,
    composite_score,
    growth_rate,
    label_exceptional,
    oracle_n,
)
from rcforecast.indicators import INDICATOR_NAMES, Panel
from rcforecast.pipeline import PipelineConfig, indicator_table, run_pipeline
from rcforecast.regression import fit_probit, probit_gradient, probit_loglik, stepwise_select
from rcforecast.synth import SynthConfig, generate

from conftest import ACCEPTANCE_LINES, paper, write_papers
from oracles import (
    RawIndicators,
    exhaustive_best_modularity,
    raw_rows,
    small_graph_fixtures,
    std_rows,
    table_of,
)


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    # printed at the end of the run by conftest.pytest_terminal_summary
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# --- 1: composite-score reproduction ----------------------------------------

PUBLISHED_TOP10 = [  # (cvit_s, delta_rvit_s, ntopj_s, printed score); stage_s = 3.47
    (5.03, 0.54, 3.12, 3.80), (4.95, 0.50, 1.76, 3.60), (4.32, -0.05, 2.76, 3.36),
    (4.45, -0.24, 2.32, 3.36), (4.50, 0.77, 0.97, 3.33), (3.98, 1.65, 2.32, 3.32),
    (3.55, 0.73, 4.62, 3.29), (4.13, 0.24, 2.32, 3.25), (3.31, 1.47, 4.62, 3.25),
    (4.43, -0.06, 0.97, 3.21),
]


def test_acceptance_1_composite_scores():
    model = CompositeModel.default()
    worst = 0.0
    for cvit, drvit, ntopj, expected in PUBLISHED_TOP10:
        got = composite_score({"stage": 3.47, "cvit": cvit,
                               "delta_rvit": drvit, "ntopj": ntopj}, model)
        worst = max(worst, abs(got - expected))
    _report(1, worst <= 0.005, f"10/10 published scores within ±0.005 (worst {worst:.4f})")


# --- 2: CSI arithmetic --------------------------------------------------------

def _records(tp, fp, fn, tn):
    rc = iter(range(10_000))
    out = []
    for pred, outc, k in ((1, 1, tp), (1, 0, fp), (0, 1, fn), (0, 0, tn)):
        for _ in range(k):
            out.append(ForecastRecord(rc_id=next(rc), fy=2011, ty=2014, ry=1,
                                      score=0.0, predicted=pred, papers_in_fy=30,
                                      outcome=outc))
    return out


def test_acceptance_2_csi_arithmetic():
    fuse = contingency(_records(1, 2, 1, 0))
    ok = fuse.csi == 0.25
    # discipline rows reconstruct exactly under n = ceil(1.5 * #xg)
    rows = [
        (43, 33, 50.8, 76.7),   # 65 selected
        (27, 21, 51.2, 77.8),   # 41 selected
        (12, 8, 44.4, 66.7),    # 18 selected
    ]
    for xg, tp, prec, rec in rows:
        n = math.ceil(1.5 * xg)
        rep = contingency(_records(tp, n - tp, xg - tp, 500))
        ok = ok and rep.n_selected == n
        ok = ok and round(100 * rep.precision, 1) == prec
        ok = ok and round(100 * rep.recall, 1) == rec
    oracle = oracle_n(_records(0, 0, 43, 100))
    ok = ok and oracle == 65
    _report(2, ok, "benchmark contingency example gives CSI 0.25 exactly; "
                   "ceil-rule rows reconstruct")


# --- 3: growth rate and threshold ---------------------------------------------

def test_acceptance_3_growth_boundaries():
    gr = growth_rate({2011: 0.010, 2014: 0.014}, 2011, 2014)
    ok = abs(gr ** 3 - 1.4) <= 1e-12           # brute-force arithmetic oracle
    ok = ok and label_exceptional(gr) == 1
    gr2 = growth_rate({2011: 0.001, 2014: 0.001259}, 2011, 2014)
    ok = ok and abs(gr2 ** 3 - 1.259) <= 1e-12
    ok = ok and label_exceptional(gr2) == 0    # 1.0798 < threshold
    ok = ok and label_exceptional(1.08) == 0   # strict inequality
    ok = ok and label_exceptional(1.081) == 1
    ok = ok and growth_rate({2010: 0.02, 2013: 0.02}, 2010, 2013) == 1.0
    _report(3, ok, "Eq-1 arithmetic matches cube-check oracle to 1e-12; "
                   "threshold strict at 1.08")


# --- 4: probit correctness ------------------------------------------------------

def test_acceptance_4_probit():
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        y = (rng.random(n) < 0.5).astype(float)
        beta = rng.normal(scale=0.5, size=k + 1)
        grad = probit_gradient(beta, X, y)
        h = 1e-5
        for j in range(k + 1):
            e = np.zeros(k + 1)
            e[j] = h
            fd = (probit_loglik(beta + e, X, y)
                  - probit_loglik(beta - e, X, y)) / (2 * h)
            worst_rel = max(worst_rel, abs(grad[j] - fd) / max(abs(fd), 1e-8))
    grad_ok = worst_rel < 1e-6

    rng = np.random.default_rng(12)
    n = 50_000
    X = rng.normal(size=(n, 2))
    beta_true = np.array([-1.5, 0.8, 0.4])
    y = (rng.random(n) < ndtr(beta_true[0] + X @ beta_true[1:])).astype(float)
    fit = fit_probit(X, y)
    recovery = np.abs(fit.coefficients - beta_true).max()
    rec_ok = recovery < 0.05

    n1 = round(0.8413447460685429 * 10_000)
    y0 = np.array([1] * n1 + [0] * (10_000 - n1), dtype=float)
    fit0 = fit_probit(np.empty((10_000, 0)), y0)
    icpt_ok = abs(fit0.coefficients[0] - ndtri(y0.mean())) < 1e-6

    _report(4, grad_ok and rec_ok and icpt_ok,
            f"gradient rel err {worst_rel:.2e} < 1e-6; planted beta recovered "
            f"within {recovery:.3f} <= 0.05; intercept-only matches probit inverse")


# --- 5: stepwise selection -------------------------------------------------------

def test_acceptance_5_stepwise():
    first_hits = 0
    clean = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(20_000, 5))
        y = (rng.random(20_000) < ndtr(-1.5 + 0.8 * X[:, 0])).astype(float)
        model = stepwise_select(X, y, ("planted", "n1", "n2", "n3", "n4"))
        if model.variables and model.variables[0] == "planted":
            first_hits += 1
        if all(v == "planted" for v in model.variables):
            clean += 1
    _report(5, first_hits >= 19 and clean >= 18,
            f"planted selected first in {first_hits}/20 seeds; "
            f"no noise survivor in {clean}/20")


# --- 6: clustering oracle ---------------------------------------------------------

def test_acceptance_6_clustering_oracle():
    graphs = small_graph_fixtures(min_count=50)
    assert len(graphs) >= 50
    misses = []
    disconnected = []
    for name, edges, n in graphs:
        g = CitationGraph.from_edges(edges, nodes=range(n))
        opt_q, _ = exhaustive_best_modularity(edges, list(range(n)))
        part = leiden_best_of(
            g, ClusterConfig(quality="modularity", resolution=1.0, rng_seed=0), 32)
        if abs(part.quality - opt_q) > 1e-9:
            misses.append((name, part.quality, opt_q))
        for members in part.rc_members().values():
            idx = np.searchsorted(g.node_ids, members)
            assert g.node_ids[idx].tolist() == list(members)
            idx = set(idx.tolist())
            seen = {next(iter(idx))}
            stack = list(seen)
            while stack:
                x = stack.pop()
                nbr, _ = g.neighbors(x)
                for u in nbr.tolist():
                    if u in idx and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen != idx:
                disconnected.append(name)
    _report(6, not misses and not disconnected,
            f"{len(graphs)} graphs: exhaustive modularity optimum attained with "
            f"32 restarts; every community internally connected"
            + (f"; misses={misses[:3]}" if misses else "")
            + (f"; disconnected={disconnected[:3]}" if disconnected else ""))


# --- 7: indicator exactness ---------------------------------------------------------

def _raw_row(i, fy=2015, **kw):
    base = dict(rc_id=i, fy=fy, pk=fy, stage=1.0, cvit=0.5, rvit=0.5,
                delta_rvit=0.0, ntopj=0, ctopj=0, eigen=0, nart=1, nrev=0,
                nref=1, papers_in_fy=1)
    base.update(kw)
    return RawIndicators(**base)


def _rc_row(corpus, part, rc_id, fy):
    return next(r for r in raw_rows(Panel(corpus, part).columns(fy), fy) if r.rc_id == rc_id)


def test_acceptance_7_indicator_exactness(tmp_path):
    # endpoint checks on real corpora
    papers = [paper(i, 2015) for i in range(1, 6)] + [paper(99, 2005)]
    path = write_papers(tmp_path / "a.jsonl", papers)
    corpus = load_corpus(path)
    part = Partition.from_assignment({i: 0 for i in range(1, 6)} | {99: 1}, model_year=2015,
                                     rc_count=2)
    row = _rc_row(corpus, part, 0, 2015)
    ok = row.cvit == 1.0

    papers = [paper(i, 2005) for i in range(1, 6)] + [paper(99, 2015)]
    path = write_papers(tmp_path / "b.jsonl", papers)
    corpus = load_corpus(path)
    part = Partition.from_assignment({i: 0 for i in range(1, 6)} | {99: 1}, model_year=2015,
                                     rc_count=2)
    row = _rc_row(corpus, part, 0, 2015)
    ok = ok and row.cvit == 1.0 / 11.0

    papers = [paper(i, 2010) for i in (1, 2, 3)] + [paper(4, 2015), paper(5, 2015)]
    path = write_papers(tmp_path / "c.jsonl", papers)
    corpus = load_corpus(path)
    part = Partition.from_assignment({1: 0, 2: 0, 3: 0, 4: 1, 5: 1}, model_year=2015,
                                     rc_count=2)
    row = _rc_row(corpus, part, 0, 2015)
    ok = ok and row.stage == 1.0 / 6.0          # gap of five years: 0.166...

    # moments and bounds on fuzzed rows
    rng = np.random.default_rng(3)
    worst_moment = 0.0
    for trial in range(20):
        rows = [
            _raw_row(i, stage=1.0 / int(rng.integers(1, 8)),
                     cvit=float(rng.uniform(1 / 11, 1)),
                     rvit=None if rng.random() < 0.05 else float(rng.uniform(0.02, 1)),
                     delta_rvit=float(np.clip(rng.normal(scale=2.5), -5, 5)),
                     ntopj=int(rng.integers(0, 50)), ctopj=int(rng.integers(0, 200)),
                     eigen=int(rng.integers(0, 50)), nart=int(rng.integers(0, 60)),
                     nrev=int(rng.integers(0, 12)), nref=int(rng.integers(0, 400)))
            for i in range(int(rng.integers(5, 60)))
        ]
        std = std_rows(table_of(rows))
        for name in INDICATOR_NAMES:
            vals = np.array([s.value(name) for s in std])
            if name == "rvit":
                ok = ok and bool(np.all(np.abs(vals) <= 3.0))
                continue
            if np.std(vals) > 0:
                worst_moment = max(worst_moment, abs(float(vals.mean())),
                                   abs(float(vals.std()) - 1.0))
        ok = ok and all(-5.0 <= r.delta_rvit <= 5.0 for r in rows)
    ok = ok and worst_moment < 1e-9

    # same bounds on rows computed from fuzzed corpora end to end
    for seed in (201, 202):
        res = generate(SynthConfig(rng_seed=seed, n_communities=150,
                                   noise_sigma=0.25), tmp_path / f"fuzz{seed}")
        corpus = load_corpus(res.papers_path, res.ranks_path)
        part = Partition.from_assignment(res.paper_community, model_year=2014, rc_count=150)
        engine = Panel(corpus, part)
        for fy in (2008, 2012):
            table = indicator_table(engine, fy)
            rows = raw_rows(table.raw, fy)
            ok = ok and all(-5.0 <= r.delta_rvit <= 5.0 for r in rows)
            std = std_rows(table)
            ok = ok and all(-3.0 <= s.rvit_s <= 3.0 for s in std)
            for name in INDICATOR_NAMES:
                vals = np.array([s.value(name) for s in std])
                if name != "rvit" and np.std(vals) > 0:
                    worst_moment = max(worst_moment, abs(float(vals.mean())),
                                       abs(float(vals.std()) - 1.0))
    ok = ok and worst_moment < 1e-9
    _report(7, ok, f"cvit endpoints 1.0 and 1/11 exact; stage(gap 5)=1/6; "
                   f"moments within {worst_moment:.1e}; clip bounds hold on "
                   f"fuzzed rows and corpora")


# --- 8 & 9 & 10: end-to-end runs --------------------------------------------------

E2E_SEEDS = (101, 102, 103, 104, 105)


def _e2e_pipeline(seed: int, tmp_root) -> dict:
    res = generate(SynthConfig(rng_seed=seed, n_communities=10_000),
                   tmp_root / f"synth_{seed}")
    cfg = PipelineConfig(
        papers=str(res.papers_path), journals=str(res.ranks_path),
        out_dir=str(tmp_root / f"out_{seed}"), model_year=2009,
        extend_through=2014, resolution=0.02, seed=0,
        fit_fys=[2010, 2011], forecast_fys=[2010, 2011],
        min_papers=20, oracle_n=True,
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    return {seed: _e2e_pipeline(seed, root) for seed in E2E_SEEDS}


def test_acceptance_8_end_to_end_csi(e2e_runs):
    csis = {seed: s.get("overall_csi", 0.0) for seed, s in e2e_runs.items()}
    passing = sum(1 for v in csis.values() if v >= 0.25)
    detail = ", ".join(f"seed {s}: {v:.3f}" for s, v in sorted(csis.items()))
    _report(8, passing >= 4,
            f"CSI >= 0.25 on {passing}/5 seeds at min_papers=20 ({detail})")


def test_acceptance_9_leakage_bookkeeping(tmp_path):
    # model built mid-span: forecasts before the model year are circumstantial
    res = generate(SynthConfig(rng_seed=41, n_communities=400), tmp_path / "synth")
    from rcforecast.pipeline import build_model, extend_model, forecast_year
    corpus = load_corpus(res.papers_path, res.ranks_path)
    config = ClusterConfig(quality="cpm", resolution=0.02, rng_seed=0)
    partition, _ = build_model(corpus, 2009, config)
    partition, _ = extend_model(corpus, partition, 2014)
    panel = Panel(corpus, partition)
    records = []
    for fy in (2008, 2009, 2010, 2011):
        records.extend(forecast_year(panel, indicator_table(panel, fy),
                                     CompositeModel.default(), min_papers=3))
    ok = all(r.ry == r.fy - 2009 for r in records)
    reports = {r.slice: r for r in evaluate_slices(
        records, min_papers=3, mode="reselect", by=("ry", "actionable"))}
    act = reports["actionable ry>0"]
    circ = reports["circumstantial ry<=0"]
    n_pos = sum(1 for r in records if r.ry > 0)
    n_neg = len(records) - n_pos
    ok = ok and act.n_records == n_pos and circ.n_records == n_neg
    ok = ok and {"ry=-1", "ry=+0", "ry=+1", "ry=+2"} <= set(reports)
    _report(9, ok, "RY = FY - MY on every record; actionable (RY>0) and "
                   "circumstantial (RY<=0) slices partition the report")


def test_acceptance_10_determinism(tmp_path):
    res1 = generate(SynthConfig(rng_seed=77, n_communities=300), tmp_path / "s1")
    res2 = generate(SynthConfig(rng_seed=77, n_communities=300), tmp_path / "s2")
    ok = res1.papers_path.read_bytes() == res2.papers_path.read_bytes()
    outs = []
    for tag in ("a", "b"):
        cfg = PipelineConfig(
            papers=str(res1.papers_path), journals=str(res1.ranks_path),
            out_dir=str(tmp_path / f"run_{tag}"), model_year=2009,
            extend_through=2014, resolution=0.02, seed=5,
            fit_fys=[2010, 2011], forecast_fys=[2010, 2011], min_papers=5,
        )
        run_pipeline(cfg)
        outs.append(tmp_path / f"run_{tag}")
    compared = 0
    for p1 in sorted(outs[0].iterdir()):
        if p1.name.endswith(".manifest.json"):
            continue  # manifests carry timestamps by design
        p2 = outs[1] / p1.name
        ok = ok and p2.exists() and p1.read_bytes() == p2.read_bytes()
        compared += 1
    _report(10, ok and compared >= 8,
            f"two identically-seeded runs: {compared} data artifacts byte-identical")
