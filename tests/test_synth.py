import hashlib
import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.citegraph import build_graph, connected_components
from rcforecast.cluster import Partition
from rcforecast.corpus import load_corpus
from rcforecast.forecast import table_outcomes
from rcforecast.indicators import IndicatorTable, Panel
from rcforecast.synth import (
    _AGE_P,
    SynthConfig,
    SynthError,
    _Draws,
    _geometric_age,
    _growth_labels,
    _loggam,
    _nearest_year_with_papers,
    generate,
    load_truth,
)

import oracles
from oracles import raw_rows


@pytest.fixture(scope="module")
def small_synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    config = SynthConfig(rng_seed=5, n_communities=400)
    return config, generate(config, out)


def test_determinism_byte_identical(tmp_path):
    cfg = SynthConfig(rng_seed=9, n_communities=120)
    r1 = generate(cfg, tmp_path / "a")
    r2 = generate(cfg, tmp_path / "b")
    for p1, p2 in ((r1.papers_path, r2.papers_path),
                   (r1.ranks_path, r2.ranks_path),
                   (r1.truth_path, r2.truth_path)):
        assert p1.read_bytes() == p2.read_bytes()


def test_generate_keeps_its_recorded_digests(tmp_path):
    # the first 16 hex digits of each file's sha256 for the 1k corpus of seed 1,
    # unchanged since the generator's draws were last rewritten (CHANGES.md)
    res = generate(SynthConfig(rng_seed=1, n_communities=1000), tmp_path)
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            for path in (res.papers_path, res.ranks_path, res.truth_path)} == {
        "papers.jsonl": "de5556e82552e496", "ranks.csv": "7c37066a2f734e72",
        "truth.tsv": "a28a013873097a5e"}


def test_generated_corpus_loads_clean(small_synth):
    _, res = small_synth
    corpus = load_corpus(res.papers_path, res.ranks_path)
    assert corpus.meta.paper_count == res.n_papers
    assert len(corpus.ranks) == 80
    # external pool ids really are external
    assert all(e >= 10 ** 8 for e in corpus.external_ids)


def test_truth_round_trip(small_synth):
    _, res = small_synth
    paper_community, community_class, xg = load_truth(res.truth_path)
    assert paper_community == res.paper_community
    assert community_class == res.community_class
    assert xg == res.xg_truth


@pytest.mark.parametrize("row,problem", [
    pytest.param("paper\t1_0\t\t+3", "expected kind, id, fy and value, got 'paper\\t1_0\\t\\t+3'",
                 id="id-underscore"),
    pytest.param("paper\t10\t\t+3", "expected a paper, class or xg row", id="value-plus"),
    pytest.param("paper\t10", "expected kind, id, fy and value, got 'paper\\t10'",
                 id="two-cells"),
    pytest.param("paper\t1\t\t4", "repeats the key of an earlier paper row", id="repeated-paper"),
    pytest.param("xg\t0\t2011\t1", "repeats the key of an earlier xg row", id="repeated-xg"),
    pytest.param("paper\t10\t2011\t3", "expected a paper, class or xg row", id="paper-fy"),
    pytest.param("xg\t0\t\t1", "expected a paper, class or xg row", id="xg-without-fy"),
    pytest.param("community\t0\t\t1", "expected a paper, class or xg row", id="unknown-kind"),
    pytest.param("paper\t10\t\t99999999999999999999", "expected a paper, class or xg row",
                 id="value-int64"),
    pytest.param("paper\t99999999999999999999\t\t3", "id and fy must fit int64, got "
                 "'paper\\t99999999999999999999\\t\\t3'", id="id-int64"),
])
def test_bad_truth_row_names_its_line(tmp_path, row, problem):
    path = tmp_path / "truth.tsv"
    path.write_text("kind\tid\tfy\tvalue\npaper\t1\t\t0\nclass\t0\t\tstable\n"
                    "xg\t0\t2011\t1\n" + row + "\npaper\t2\t\t0\n")
    with pytest.raises(SynthError) as raised:
        load_truth(path)
    assert str(raised.value) == f"truth line 5: {problem}"


def test_planted_rate_matches_config(tmp_path):
    cfg = SynthConfig(rng_seed=7, n_communities=2000)
    res = generate(cfg, tmp_path)
    planted = {c for c, k in res.community_class.items() if k.endswith("+xg")}
    per_fy: dict[int, int] = {}
    for (c, fy), lab in res.xg_truth.items():
        if lab and c in planted:
            per_fy[fy] = per_fy.get(fy, 0) + 1
    central = [per_fy.get(fy, 0) for fy in range(2004, 2011)]
    target = cfg.planted_xg_fraction * cfg.n_communities
    assert np.mean(central) == pytest.approx(target, rel=0.30)
    # and every central fy has a healthy count
    assert min(central) > 0.3 * target


def test_zero_inter_probability_disconnects_communities(tmp_path):
    cfg = SynthConfig(rng_seed=3, n_communities=40, size_median=12, size_sigma=0.6,
                      inter_p=0.0, p_no_refs=0.0, refs_mean=7)
    res = generate(cfg, tmp_path)
    corpus = load_corpus(res.papers_path)
    g = build_graph(corpus, extended=True)
    comp = connected_components(g.indptr, g.indices, g.n_nodes)
    # components (restricted to papers) coincide with planted communities
    comp_of_community = {}
    for i, nid in enumerate(g.node_ids.tolist()):
        if not g.internal[i]:
            continue
        c = res.paper_community[nid]
        comp_of_community.setdefault(c, set()).add(int(comp[i]))
    for c, comps in comp_of_community.items():
        assert len(comps) == 1, f"community {c} split"
    all_comps = [next(iter(v)) for v in comp_of_community.values()]
    assert len(set(all_comps)) == len(all_comps)  # no two communities merged


def test_intra_inter_ratio_matches_config(tmp_path):
    cfg = SynthConfig(rng_seed=3, n_communities=1200, size_median=15,
                      size_sigma=0.8, refs_mean=7)
    res = generate(cfg, tmp_path)
    intra = inter = total = 0
    with open(res.papers_path) as fh:
        for line in fh:
            obj = json.loads(line)
            c = res.paper_community[obj["paper_id"]]
            for r in obj["references"]:
                total += 1
                if r in res.paper_community:
                    if res.paper_community[r] == c:
                        intra += 1
                    else:
                        inter += 1
    assert total >= 100_000
    assert intra / inter == pytest.approx(cfg.intra_p / cfg.inter_p, rel=0.05)


def test_planted_communities_have_stronger_lifecycle_signals(small_synth):
    cfg, res = small_synth
    corpus = load_corpus(res.papers_path, res.ranks_path)
    partition = Partition.from_assignment(res.paper_community, model_year=cfg.last_year,
                                          rc_count=cfg.n_communities)
    engine = Panel(corpus, partition)
    fy = 2008
    planted = {c for c, k in res.community_class.items() if k.endswith("+xg")}
    xg_now = {c for c in planted if res.xg_truth.get((c, fy)) == 1}
    rows = raw_rows(engine.columns(fy), fy)
    xg_rows = [r for r in rows if r.rc_id in xg_now]
    other = [r for r in rows if r.rc_id not in planted]
    assert len(xg_rows) >= 5
    assert np.mean([r.cvit for r in xg_rows]) > np.mean([r.cvit for r in other])
    assert np.mean([r.stage for r in xg_rows]) > np.mean([r.stage for r in other])
    # reference-age and journal signals point the planted way too
    assert np.mean([r.rvit for r in xg_rows if r.rvit is not None]) > \
        np.mean([r.rvit for r in other if r.rvit is not None])
    xg_top = np.mean([r.ntopj / max(r.papers_in_fy, 1) for r in xg_rows])
    other_top = np.mean([r.ntopj / max(r.papers_in_fy, 1) for r in other if r.papers_in_fy])
    assert xg_top > other_top
    # delta_rvit is deliberately not asserted: freshly-emerging communities
    # cite young work throughout their life, so their within-community shift
    # can point either way


def test_infeasible_configs_rejected():
    with pytest.raises(SynthError):
        SynthConfig(lifecycle_mix={"emerging": 0.5, "mature": 0.4})
    with pytest.raises(SynthError):
        SynthConfig(intra_p=0.1, inter_p=0.2)
    with pytest.raises(SynthError):
        SynthConfig(intra_p=0.8, inter_p=0.3)
    with pytest.raises(SynthError):
        SynthConfig(first_year=2010, last_year=2014)
    with pytest.raises(SynthError):
        SynthConfig(n_communities=5)
    with pytest.raises(SynthError):
        SynthConfig(top_journal_count=90, n_journals=80)


def test_some_papers_exercise_bm25_and_unassigned_paths(small_synth):
    _, res = small_synth
    no_refs_with_terms = no_refs_no_terms = 0
    with open(res.papers_path) as fh:
        for line in fh:
            obj = json.loads(line)
            if not obj["references"]:
                if obj["terms"]:
                    no_refs_with_terms += 1
                else:
                    no_refs_no_terms += 1
    assert no_refs_with_terms > 0
    assert no_refs_no_terms > 0


# --- the generator against its per-draw numpy oracle -------------------------

# every p an age is drawn with: the lifecycle classes, the inter-community
# 0.20, and the rise parameter, clamped to [0.2, 0.8] (0.57 by default)
_AGE_PS = st.one_of(st.sampled_from(sorted({*_AGE_P.values(), 0.20, 0.57, 0.8})),
                    st.floats(min_value=0.2, max_value=0.8))
_UNIT = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-12, 1.0 - 2.0 ** -53]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(0, 2 ** 53 - 1).map(lambda i: i * 2.0 ** -53),   # random()'s grid
)


@settings(max_examples=300, deadline=None)
@given(years=st.lists(st.integers(0, 20), unique=True, max_size=12).map(sorted),
       wanted=st.integers(-25, 45))
def test_nearest_year_bisect_matches_scan(years, wanted):
    assert _nearest_year_with_papers(wanted, years) == \
        oracles._nearest_year_with_papers(wanted, years)


@settings(max_examples=500, deadline=None)
@given(u=_UNIT, p=_AGE_PS)
def test_scalar_age_matches_array_age(u, p):
    age = _geometric_age(u, p)
    assert type(age) is int
    assert age == int(oracles._geometric_ages(np.array([u]), p)[0])


@settings(max_examples=500, deadline=None)
@given(us=st.lists(_UNIT, min_size=3, max_size=3))
def test_scalar_shared_term_matches_numpy(us):
    expected = np.floor(200 * np.array(us) ** 2).astype(int).tolist()
    assert [math.floor(200 * (u * u)) for u in us] == expected


@pytest.mark.parametrize("overrides", [
    pytest.param({"rng_seed": 1, "n_communities": 150}, id="seed1"),
    pytest.param({"rng_seed": 2, "n_communities": 200}, id="seed2"),
    pytest.param({"rng_seed": 3, "n_communities": 250}, id="seed3"),
    pytest.param({"rng_seed": 101, "n_communities": 300}, id="seed101"),
    pytest.param({"rng_seed": 4, "n_communities": 150, "inter_p": 0.0}, id="no_inter"),
    pytest.param({"rng_seed": 5, "n_communities": 150, "dip_fraction": 1.0}, id="all_dip"),
    pytest.param({"rng_seed": 6, "n_communities": 150,
                  "signal_strengths": {"rvit": 3.0, "ntopj": 2.5}}, id="strong_signals"),
    pytest.param({"rng_seed": 7, "n_communities": 150, "p_no_refs": 0.6,
                  "p_no_terms": 0.3}, id="sparse_refs_terms"),
])
def test_generate_matches_per_draw_oracle(tmp_path, overrides):
    got = generate(SynthConfig(**overrides), tmp_path / "lib")
    want = oracles.generate(SynthConfig(**overrides), tmp_path / "oracle")
    for name in ("papers.jsonl", "ranks.csv", "truth.tsv"):
        assert (tmp_path / "lib" / name).read_bytes() == \
            (tmp_path / "oracle" / name).read_bytes(), name
    assert got.n_papers == want.n_papers
    assert got.paper_community == want.paper_community
    assert got.community_class == want.community_class
    assert got.xg_truth == want.xg_truth
    assert got.summary == want.summary


# --- the raw-word stream against numpy's Generator ---------------------------

# PCG64's half-word buffer: empty, or holding a 32-bit value
_BUFFER = st.one_of(st.just((0, 0)), st.tuples(st.just(1), st.integers(0, 2 ** 32 - 1)))
_SEED = st.integers(0, 2 ** 32 - 1)


def _twins(seed, buffer):
    """A Generator whose PCG64 holds ``buffer``, and a stream started there."""
    rng = np.random.default_rng(seed)
    has_uint32, uinteger = buffer
    rng.bit_generator.state = rng.bit_generator.state | {
        "has_uint32": has_uint32, "uinteger": uinteger}
    return rng, _Draws(rng.bit_generator)


def _same_draws_follow(rng, draws):
    """Both sides continue alike through 32-bit draws, doubles, and 32-bit
    draws again, so each left the words and the buffer alike."""
    assert draws.integers(0, 1000, 3) == rng.integers(0, 1000, size=3).tolist()
    assert draws.random(3) == rng.random(3).tolist()
    assert draws.permutation(6) == rng.permutation(6).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=_SEED, buffer=_BUFFER, size=st.one_of(st.none(), st.integers(0, 40)))
def test_stream_random_matches_numpy(seed, buffer, size):
    rng, draws = _twins(seed, buffer)
    want = rng.random() if size is None else rng.random(size).tolist()
    assert draws.random(size) == want
    _same_draws_follow(rng, draws)


# widths from the one-value range (no draw) to 2**32; 3 * 2**30 rejects about
# a quarter of its 32-bit draws, the workload's widths almost never
_WIDTH = st.one_of(st.sampled_from([1, 2, 3, 12, 20, 60, 3 * 2 ** 30, 2 ** 31 + 1, 2 ** 32]),
                   st.integers(1, 2 ** 32))


@settings(max_examples=300, deadline=None)
@given(seed=_SEED, buffer=_BUFFER, before=st.integers(0, 5), low=st.integers(-1000, 1000),
       width=_WIDTH, size=st.integers(1, 30))
def test_stream_integers_matches_numpy(seed, buffer, before, low, width, size):
    """``before`` 32-bit draws first: after an odd number of them, the fill
    starts on the buffered half-word."""
    rng, draws = _twins(seed, buffer)
    assert draws.integers(0, 7, before) == rng.integers(0, 7, size=before).tolist()
    assert draws.integers(low, low + width, size) == \
        rng.integers(low, low + width, size=size).tolist()
    _same_draws_follow(rng, draws)


def test_stream_integers_rejection_branch_matches_numpy():
    rng, draws = _twins(5, (1, 123))
    calls = 0
    next32 = draws.next32

    def counted():
        nonlocal calls
        calls += 1
        return next32()

    draws.next32 = counted
    assert draws.integers(0, 3 * 2 ** 30, 2000) == \
        rng.integers(0, 3 * 2 ** 30, size=2000).tolist()
    assert calls > 2300   # about a quarter of the draws were rejected
    _same_draws_follow(rng, draws)


@settings(max_examples=300, deadline=None)
@given(seed=_SEED, buffer=_BUFFER,
       lam=st.one_of(st.sampled_from([0.0, 1e-9, 5.0, 9.999999, 10.0, 12.5, 1e6]),
                     st.floats(0.0, 60.0)),
       size=st.integers(1, 20))
def test_stream_poisson_matches_numpy(seed, buffer, lam, size):
    """The multiplication method below 10 and PTRS from 10 on."""
    rng, draws = _twins(seed, buffer)
    assert draws.poisson(lam, size) == rng.poisson(lam, size=size).tolist()
    _same_draws_follow(rng, draws)


def test_stream_poisson_rejects_the_lam_numpy_rejects():
    top = 9.223372006484771e18
    with pytest.raises(ValueError, match="lam value too large"):
        np.random.default_rng(0).poisson(np.nextafter(top, np.inf), size=1)
    with pytest.raises(ValueError, match="lam value too large"):
        _Draws(np.random.default_rng(0).bit_generator).poisson(np.nextafter(top, np.inf), 1)


def test_stream_ptrs_takes_c_branches_at_zero():
    """A uniform of 0 makes ``us`` or ``v`` zero, where C divides by zero or
    takes log(0): the first pair goes on to the next pair, the second accepts
    its k (``us`` = 1/16 is below the squeeze's 0.07)."""
    want = _Draws(np.random.default_rng(9).bit_generator).poisson(40.0, 1)
    draws = _Draws(np.random.default_rng(9).bit_generator)
    draws.word = chain([0, 1 << 63], draws.words).__next__   # u = -1/2, us = 0
    assert draws.poisson(40.0, 1) == want
    draws.word = iter([1 << 60, 0]).__next__                # u = 1/16 - 1/2, v = 0
    assert draws.poisson(40.0, 1) == [27]


def test_loggam_is_log_gamma():
    """The Stirling series PTRS uses in its last test, to a few ulp of
    ``math.lgamma``: an error this small rarely flips a Poisson draw, so the
    numpy comparison above cannot see it."""
    for x in [float(k) for k in range(1, 2000)] + [k / 8 for k in range(1, 100)]:
        assert _loggam(x) == pytest.approx(math.lgamma(x), rel=4e-15, abs=4e-15)


@settings(max_examples=300, deadline=None)
@given(seed=_SEED, buffer=_BUFFER, n=st.integers(1, 40), data=st.data())
def test_stream_choice_matches_numpy(seed, buffer, n, data):
    size = data.draw(st.integers(0, n))
    rng, draws = _twins(seed, buffer)
    assert draws.choice(n, size) == rng.choice(n, size=size, replace=False).tolist()
    _same_draws_follow(rng, draws)


@settings(max_examples=300, deadline=None)
@given(seed=_SEED, buffer=_BUFFER,
       n=st.one_of(st.sampled_from([0, 1, 2, 5, 12, 33, 129, 1025]), st.integers(0, 300)))
def test_stream_permutation_matches_numpy(seed, buffer, n):
    """Non-power-of-two sizes send most indices through the masked
    rejection loop."""
    rng, draws = _twins(seed, buffer)
    assert draws.permutation(n) == rng.permutation(n).tolist()
    _same_draws_follow(rng, draws)


# --- truth labels against the scalar rule ------------------------------------

def _scalar_labels(shares):
    """The per-row peak-to-target loop, one scalar ``**`` per label."""
    has_top = np.zeros((len(shares), shares.shape[1] - 3), dtype=bool)
    labels = np.zeros_like(has_top)
    for c, row in enumerate(shares):
        for f in range(shares.shape[1] - 3):
            top = row[:f + 1].max()
            if top <= 0.0:
                continue
            pk = int(np.flatnonzero(row[:f + 1] == top)[-1])
            has_top[c, f] = True
            labels[c, f] = (row[f + 3] / top) ** (1.0 / (f + 3 - pk)) > 1.08
    return has_top, labels


def _threshold_rows():
    """Rows whose one rate, over 3..12 years, lies within a few hundred ulp
    of 1.08. Where numpy's array power has its own routine (AVX-512 on x86),
    it puts some of these rates on the other side of 1.08 from the scalar
    ``**``."""
    rows = []
    for years in range(3, 13):
        target = np.float64(1.08) ** np.float64(years)
        for step in range(-400, 401):
            row = np.zeros(15)
            row[0], row[years] = 1.0, target + step * np.spacing(target)
            rows.append(row)
    return np.array(rows)


def test_growth_labels_take_the_scalar_rule_at_the_threshold():
    shares = _threshold_rows()
    has_top, labels = _growth_labels(shares)
    want_top, want = _scalar_labels(shares)
    assert np.array_equal(has_top, want_top)
    assert np.array_equal(labels, want)


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.lists(st.integers(0, 6), min_size=12, max_size=12),
                       min_size=1, max_size=8))
def test_growth_labels_match_scalar_rule(counts):
    counts = np.array(counts, dtype=np.int64)
    totals = counts.sum(axis=0)
    shares = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
    has_top, labels = _growth_labels(shares)
    want_top, want = _scalar_labels(shares)
    assert np.array_equal(has_top, want_top)
    assert np.array_equal(labels, want)


def test_truth_labels_are_the_pipeline_outcomes(tmp_path):
    """A panel over the truth partition labels every in-window (community, fy)
    as truth.tsv does."""
    res = generate(SynthConfig(rng_seed=3, n_communities=300), tmp_path)
    panel = Panel(load_corpus(res.papers_path, res.ranks_path),
                  Partition.from_assignment(res.paper_community, model_year=2009,
                                            extended_through=2014))
    got, want = {}, {}
    for fy in range(2001, 2012):
        table = IndicatorTable(fy, panel.columns(fy), {})
        kept, _, labels = table_outcomes(panel, table)
        rcs = table.raw["rc_id"][kept].tolist()
        got.update(((rc, fy), label) for rc, label in zip(rcs, labels))
        want.update(((rc, fy), res.xg_truth[(rc, fy)]) for rc in rcs)
    assert len(got) > 2000 and any(got.values())
    assert got == want
