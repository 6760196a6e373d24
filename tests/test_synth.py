import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcforecast.citegraph import build_graph, connected_components
from rcforecast.cluster import Partition
from rcforecast.corpus import load_corpus
from rcforecast.indicators import Panel
from rcforecast.synth import (
    _AGE_P,
    SynthConfig,
    SynthError,
    _geometric_age,
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
