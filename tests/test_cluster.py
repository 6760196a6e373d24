import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rcforecast import cluster
from rcforecast.citegraph import CitationGraph, build_graph, connected_components
from rcforecast.cluster import (
    ClusterConfig,
    ClusterError,
    Partition,
    leiden,
    leiden_best_of,
    load_partition,
    partition_quality,
    save_partition,
    tune_resolution,
)
from rcforecast.corpus import load_corpus
from rcforecast.synth import SynthConfig, generate

from oracles import exhaustive_best_modularity


def _clique(n, off=0):
    return [(i + off, j + off) for i in range(n) for j in range(i + 1, n)]


def _members(partition):
    return sorted(sorted(v) for v in partition.rc_members().values())


def test_two_disjoint_cliques_two_communities():
    g = CitationGraph.from_edges(_clique(4) + _clique(4, 4))
    for quality, res in (("modularity", 1.0), ("cpm", 0.5)):
        part = leiden(g, ClusterConfig(quality=quality, resolution=res, rng_seed=0))
        assert part.rc_count == 2
        assert _members(part) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_two_triangles_bridge_matches_exhaustive_optimum():
    edges = _clique(3) + _clique(3, 3) + [(2, 3)]
    opt_q, opt_blocks = exhaustive_best_modularity(edges, list(range(6)))
    assert sorted(sorted(b) for b in opt_blocks) == [[0, 1, 2], [3, 4, 5]]
    g = CitationGraph.from_edges(edges)
    part = leiden(g, ClusterConfig(quality="modularity", resolution=1.0, rng_seed=0))
    assert part.quality == pytest.approx(opt_q, abs=1e-12)
    assert _members(part) == [[0, 1, 2], [3, 4, 5]]


def test_quality_at_least_singleton_partition():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(5, 20))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = CitationGraph.from_edges(edges, nodes=range(n))
        for quality in ("modularity", "cpm"):
            cfg = ClusterConfig(quality=quality, resolution=0.7, rng_seed=trial)
            part = leiden(g, cfg)
            singleton = partition_quality(g, np.arange(g.n_nodes), quality, 0.7)
            assert part.quality >= singleton - 1e-12


def test_determinism_given_seed():
    rng = np.random.default_rng(5)
    edges = [(i, j) for i in range(40) for j in range(i + 1, 40)
             if (i // 8 == j // 8 and rng.random() < 0.6) or rng.random() < 0.02]
    g = CitationGraph.from_edges(edges, nodes=range(40))
    cfg = ClusterConfig(quality="cpm", resolution=0.3, rng_seed=42)
    p1 = leiden(g, cfg)
    p2 = leiden(g, cfg)
    assert p1.assignment == p2.assignment
    assert p1.quality == p2.quality


def test_every_community_internally_connected():
    rng = np.random.default_rng(9)
    for trial in range(8):
        n = int(rng.integers(10, 40))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
        g = CitationGraph.from_edges(edges, nodes=range(n))
        part = leiden(g, ClusterConfig(quality="cpm", resolution=0.4, rng_seed=trial))
        for members in part.rc_members().values():
            idx = [g.index_of(m) for m in members]
            sub = set(idx)
            seen = {idx[0]}
            stack = [idx[0]]
            while stack:
                x = stack.pop()
                nbr, _ = g.neighbors(x)
                for y in nbr.tolist():
                    if y in sub and y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert seen == sub


def test_external_nodes_clustered_but_excluded():
    g = CitationGraph.from_edges([(1, 2), (2, 3), (1, 3), (3, 99), (4, 99)],
                                 internal_ids=[1, 2, 3, 4])
    part = leiden(g, ClusterConfig(quality="cpm", resolution=0.4, rng_seed=0))
    assert set(part.assignment) == {1, 2, 3, 4}
    assert 99 in part.external_assignment


def test_seeded_run_never_degrades_quality():
    rng = np.random.default_rng(17)
    edges = [(i, j) for i in range(30) for j in range(i + 1, 30)
             if (i // 6 == j // 6 and rng.random() < 0.7) or rng.random() < 0.03]
    g = CitationGraph.from_edges(edges, nodes=range(30))
    cfg = ClusterConfig(quality="cpm", resolution=0.4, rng_seed=1)
    seed_part = leiden(g, cfg)
    for s in range(5):
        reseeded = leiden(g, ClusterConfig(quality="cpm", resolution=0.4, rng_seed=100 + s,
                                           seed_assignment=seed_part))
        assert reseeded.quality >= seed_part.quality - 1e-12


def test_small_graphs_reach_exhaustive_optimum_with_restarts():
    # spot check here; the full >= 50-graph fixture runs in the acceptance suite
    from oracles import small_graph_fixtures
    for name, edges, n in small_graph_fixtures(min_count=50)[:12]:
        g = CitationGraph.from_edges(edges, nodes=range(n))
        opt_q, _ = exhaustive_best_modularity(edges, list(range(n)))
        part = leiden_best_of(g, ClusterConfig(quality="modularity", resolution=1.0,
                                               rng_seed=0), 32)
        assert part.quality == pytest.approx(opt_q, abs=1e-9), name


def test_config_validation():
    with pytest.raises(ClusterError):
        ClusterConfig(quality="louvain")
    with pytest.raises(ClusterError):
        ClusterConfig(resolution=0.0)
    with pytest.raises(ClusterError):
        ClusterConfig(max_iterations=0)


def _planted_graph(n_blocks=10, per_block=10, p_in=0.6, p_out=0.01, seed=0):
    rng = np.random.default_rng(seed)
    n = n_blocks * per_block
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if i // per_block == j // per_block else p_out
            if rng.random() < p:
                edges.append((i, j))
    return CitationGraph.from_edges(edges, nodes=range(n)), n


def test_tune_resolution_recovers_planted_blocks():
    g, n = _planted_graph()
    cfg = ClusterConfig(quality="cpm", resolution=1.0, rng_seed=0)
    res = tune_resolution(g, 10, cfg)
    part = leiden(g, ClusterConfig(quality="cpm", resolution=res, rng_seed=0))
    assert abs(part.rc_count - 10) <= 1


def test_tune_resolution_bounds():
    g, n = _planted_graph(n_blocks=3, per_block=5, seed=1)
    cfg = ClusterConfig(quality="cpm", resolution=1.0, rng_seed=0)
    # components lower bound is reachable with a tiny resolution
    comp = connected_components(g.indptr, g.indices, g.n_nodes)
    n_comp = len(set(comp.tolist()))
    res = tune_resolution(g, max(n_comp, 1), cfg) if n_comp >= 1 else None
    assert res > 0
    # node count upper bound: huge resolution yields singletons
    res_hi = tune_resolution(g, g.n_internal, cfg)
    part = leiden(g, ClusterConfig(quality="cpm", resolution=res_hi, rng_seed=0))
    assert part.rc_count >= 0.9 * g.n_internal


def test_tune_resolution_unreachable_target():
    g, _ = _planted_graph(n_blocks=2, per_block=4, seed=2)
    cfg = ClusterConfig(quality="cpm", resolution=1.0, rng_seed=0)
    with pytest.raises(ClusterError, match="achievable"):
        tune_resolution(g, 10_000, cfg)


def test_partition_round_trip(tmp_path):
    part = Partition({1: 0, 2: 0, 3: 1}, model_year=2010, rc_count=2, quality=1.5,
                     external_assignment={99: 0}, config_used={"quality": "cpm"})
    tsv, meta = tmp_path / "p.tsv", tmp_path / "p.json"
    save_partition(part, tsv, meta)
    loaded = load_partition(tsv, meta)
    assert loaded == part


# --- equivalence with the dict-based cores kept in tests/oracles.py ----------


def _oracle_leiden(graph, config):
    """``leiden`` with the replaced local-move, refinement, aggregation and
    components code."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_local_move", oracles.local_move)
        mp.setattr(cluster, "_refine", oracles.refine)
        mp.setattr(cluster, "_aggregate", oracles.aggregate)
        mp.setattr(cluster, "connected_components", oracles.connected_components_bfs)
        return leiden(graph, config)


def _assert_same_partition(got, want):
    assert got.assignment == want.assignment
    assert got.external_assignment == want.external_assignment
    assert got.rc_count == want.rc_count
    assert got.quality == want.quality


@pytest.fixture(scope="module")
def synth_graphs(tmp_path_factory):
    graphs = []
    for seed, n_comm in ((5, 120), (21, 200)):
        res = generate(SynthConfig(rng_seed=seed, n_communities=n_comm),
                       tmp_path_factory.mktemp(f"leiden_synth_{seed}"))
        graphs.append(build_graph(load_corpus(res.papers_path), extended=True,
                                  year_cutoff=2009))
    return graphs


@pytest.mark.parametrize("quality,resolution", [("cpm", 0.02), ("modularity", 1.0)])
def test_leiden_matches_oracle_on_synth_graphs(synth_graphs, monkeypatch, quality,
                                               resolution):
    levels = []
    aggregate = cluster._aggregate
    monkeypatch.setattr(cluster, "_aggregate",
                        lambda *a: levels.append(1) or aggregate(*a))
    for graph in synth_graphs:
        for rng_seed in (0, 7):
            cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=rng_seed)
            got = leiden(graph, cfg)
            _assert_same_partition(got, _oracle_leiden(graph, cfg))
        # warm start from a partition found with another seed
        warm = ClusterConfig(quality=quality, resolution=resolution, rng_seed=3,
                             seed_assignment=got)
        _assert_same_partition(leiden(graph, warm), _oracle_leiden(graph, warm))
    # the graphs exercise aggregation, not only the first level
    assert len(levels) >= 2 * len(synth_graphs)


@st.composite
def _small_graphs(draw):
    """Planted blocks plus random edges and isolated nodes; may be edgeless."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=0, max_size=6))
    n = sum(sizes) + draw(st.integers(0, 4))
    edges = []
    start = 0
    for size in sizes:
        block = range(start, start + size)
        edges += [(i, j) for i in block for j in block if i < j
                  and draw(st.booleans())]
        start += size
    if n >= 2:
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=12))
    return CitationGraph.from_edges(edges, nodes=range(n))


@settings(max_examples=150, deadline=None)
@given(graph=_small_graphs(),
       quality_res=st.sampled_from([("cpm", 0.1), ("cpm", 0.5), ("cpm", 1.5),
                                    ("modularity", 0.5), ("modularity", 1.0)]),
       rng_seed=st.integers(0, 2**16), warm=st.booleans())
def test_leiden_matches_oracle_on_small_graphs(graph, quality_res, rng_seed, warm):
    quality, resolution = quality_res
    cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=rng_seed)
    got = leiden(graph, cfg)
    _assert_same_partition(got, _oracle_leiden(graph, cfg))
    if warm:
        cfg = ClusterConfig(quality=quality, resolution=resolution,
                            rng_seed=rng_seed + 1, seed_assignment=got)
        _assert_same_partition(leiden(graph, cfg), _oracle_leiden(graph, cfg))


def test_refinement_draw_matches_generator_choice():
    src = np.random.default_rng(2024)
    for case in range(3000):
        n = int(src.integers(2, 13))
        gains = (src.random(n) * 10.0 ** src.integers(-5, 1) + 1e-12).tolist()
        if case % 5 == 0:
            gains[-1] = gains[0]    # exact ties
        seed = int(src.integers(2**32))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g = np.asarray(gains)
        p = np.exp((g - g.max()) / cluster._THETA)
        assert cluster._draw(ours, gains) == int(ref.choice(n, p=p / p.sum()))
        assert ours.random() == ref.random()
