import json

import numpy as np
import pytest

from rcforecast.citegraph import build_graph, connected_components
from rcforecast.cluster import Partition
from rcforecast.corpus import load_corpus
from rcforecast.indicators import Panel
from rcforecast.synth import SynthConfig, SynthError, generate, load_truth

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
    partition = Partition(dict(res.paper_community), model_year=cfg.last_year,
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
