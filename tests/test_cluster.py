import math
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from conftest import ascending, assert_same_partition
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
            idx = np.searchsorted(g.node_ids, members).tolist()
            assert g.node_ids[idx].tolist() == list(members)
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
        reseeded = leiden(g, ClusterConfig(quality="cpm", resolution=0.4, rng_seed=100 + s),
                          seed_part)
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


@pytest.mark.parametrize("start,target,probes", [
    pytest.param(0.01, 40, [0.01, 0.08, 0.64, 5.12, 1.8101933598375617, 3.0443702144069658,
                            3.9480597130443287], id="up"),
    pytest.param(50.0, 12, [50.0, 6.25, 0.78125, 0.09765625, 0.27621358640099514],
                 id="down"),
])
def test_tune_resolution_probe_sequence(monkeypatch, start, target, probes):
    """The resolutions leiden is asked for: steps of 8 toward the target
    until the count crosses it, then geometric bisection of the bracket, with
    counts that grow as 20 * sqrt(resolution)."""
    g, _ = _planted_graph()
    seen = []

    def counting_leiden(graph, config, *args):
        seen.append(config.resolution)
        return SimpleNamespace(rc_count=min(100, max(1, round(20 * config.resolution ** 0.5))))

    monkeypatch.setattr(cluster, "leiden", counting_leiden)
    assert tune_resolution(g, target, ClusterConfig(resolution=start)) == probes[-1]
    assert seen == probes


def test_tune_resolution_unreachable_target():
    g, _ = _planted_graph(n_blocks=2, per_block=4, seed=2)
    cfg = ClusterConfig(quality="cpm", resolution=1.0, rng_seed=0)
    with pytest.raises(ClusterError, match="achievable"):
        tune_resolution(g, 10_000, cfg)


def test_partition_round_trip(tmp_path):
    part = Partition.from_assignment({1: 0, 2: 0, 3: 1}, model_year=2010, rc_count=2,
                                     quality=1.5, external_assignment={99: 0},
                                     config_used={"quality": "cpm"})
    tsv, meta = tmp_path / "p.tsv", tmp_path / "p.json"
    save_partition(part, tsv, meta)
    loaded = load_partition(tsv, meta)
    assert_same_partition(loaded, part)


# --- equivalence with the dict-based code kept in tests/oracles.py -----------


def _oracle_leiden(graph, config, seed_partition=None):
    """``leiden`` with the replaced aggregation, components and seed-labelling
    code, and the partition the dict loop over its final node labels builds.
    The move cores stay the library's, so this pins the code around them."""
    flats = []
    canonical = cluster._canonical_ids
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_aggregate", oracles.aggregate)
        mp.setattr(cluster, "connected_components", oracles.connected_components_bfs)
        mp.setattr(cluster, "_node_labels", lambda g, seed: np.array(
            oracles.initial_communities(g, seed), np.int64))
        mp.setattr(cluster, "_canonical_ids",
                   lambda g, flat: flats.append(flat) or canonical(g, flat))
        part = leiden(graph, config, seed_partition)
    assignment, external, rc_count = oracles.canonical_ids(graph, flats[0])
    return Partition.from_assignment(assignment, external, model_year=part.model_year,
                                     rc_count=rc_count, quality=part.quality,
                                     config_used=part.config_used)


def _sequential_leiden(graph, config, seed_partition=None):
    """``_oracle_leiden`` with the sequential dict cores for local moving and
    refinement too: the partitions of the node-by-node Leiden."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_local_move", oracles.local_move)
        mp.setattr(cluster, "_refine", oracles.refine)
        return _oracle_leiden(graph, config, seed_partition)


@pytest.fixture(scope="module")
def synth_corpora(tmp_path_factory):
    return [load_corpus(generate(SynthConfig(rng_seed=seed, n_communities=n_comm),
                                 tmp_path_factory.mktemp(f"leiden_synth_{seed}")).papers_path)
            for seed, n_comm in ((5, 120), (21, 200))]


@pytest.fixture(scope="module")
def synth_graphs(synth_corpora):
    return [build_graph(corpus, extended=True, year_cutoff=2009) for corpus in synth_corpora]


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
            assert_same_partition(got, _oracle_leiden(graph, cfg))
        # warm start from a partition found with another seed
        warm = ClusterConfig(quality=quality, resolution=resolution, rng_seed=3)
        assert_same_partition(leiden(graph, warm, got), _oracle_leiden(graph, warm, got))
    # the graphs exercise aggregation, not only the first level
    assert len(levels) >= 2 * len(synth_graphs)


@pytest.mark.parametrize("quality,resolution", [("cpm", 0.02), ("modularity", 1.0)])
def test_level_quality_is_the_graph_quality(synth_graphs, monkeypatch, quality, resolution):
    """``leiden`` checks quality on its current level; on every level it must
    equal ``partition_quality`` of the graph labels the level stands for."""
    aggregate, checked = cluster._aggregate, []

    def checked_aggregate(level, comm, rcomm):
        nonlocal membership
        new_level, inv, comm_next = aggregate(level, comm, rcomm)
        for lv, labels, members in ((level, comm, membership), (level, rcomm, membership),
                                    (new_level, comm_next, inv[membership])):
            assert cluster._level_quality(lv, labels, quality, resolution) == \
                partition_quality(graph, labels[members], quality, resolution)
        membership = inv[membership]
        checked.append(new_level.n)
        return new_level, inv, comm_next

    monkeypatch.setattr(cluster, "_aggregate", checked_aggregate)
    for graph in synth_graphs:
        membership = np.arange(graph.n_nodes)
        leiden(graph, ClusterConfig(quality=quality, resolution=resolution, rng_seed=0))
    assert len(checked) >= 2 * len(synth_graphs)


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
    assert_same_partition(got, _oracle_leiden(graph, cfg))
    if warm:
        cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=rng_seed + 1)
        assert_same_partition(leiden(graph, cfg, got), _oracle_leiden(graph, cfg, got))


_GAINS = st.lists(st.floats(0.0, 1.0) | st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-3]),
                  min_size=1, max_size=12) | st.lists(st.floats(0.0, 0.05), min_size=100,
                                                      max_size=130)


def _oracle_cdf(gains):
    """The cdf ``oracles.draw`` searches, for picking uniforms on its steps."""
    g = np.array(gains)
    p = np.exp((g - g.max()) / cluster._THETA)
    cdf = (p / p.sum()).cumsum()
    return cdf / cdf[-1]


@settings(max_examples=200, deadline=None)
@given(st.lists(_GAINS, min_size=1, max_size=6), st.data())
def test_segmented_draw_matches_numpy_draw(segments, data):
    # each segment picks the index that one oracles.draw over it picks with the
    # same uniform, uniforms on the cdf's steps included
    u = np.array([data.draw(st.floats(0.0, 1.0, exclude_max=True)
                            | st.sampled_from(_oracle_cdf(g)[:-1].tolist() or [0.0]))
                  for g in segments])
    starts = np.cumsum([0] + [len(g) for g in segments[:-1]])
    got = cluster._draw_in_segments(np.concatenate(segments), starts, u)
    want = [oracles.draw(SimpleNamespace(random=lambda x=x: x), g) for g, x in zip(segments, u)]
    assert got.tolist() == want


def _level_quality(level, comm, use_cpm, gamma, two_m):
    """Quality of ``comm`` on an aggregation level in the units of the move
    gains: CPM itself, and m times modularity."""
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    e = level.self_w.sum() + level.weights[comm[src] == comm[level.indices]].sum() / 2
    agg = np.bincount(comm, weights=level.sizes if use_cpm else level.strengths)
    if use_cpm:
        return e - gamma * (agg * (agg - 1)).sum() / 2
    return e - gamma * (agg ** 2).sum() / (2 * two_m)


def _round_moves(graph, config, seed_partition=None):
    """The number of moves of each local-move round of ``leiden``, checking
    that each round raises the level's quality by at least the sum of its
    gains."""
    move_round, moves = cluster._move_round, []
    use_cpm = config.quality == "cpm"

    def checked(level, comm, queue, attr, gamma, scale, div, rng):
        before = _level_quality(level, comm, use_cpm, gamma, div)
        gains, nxt = move_round(level, comm, queue, attr, gamma, scale, div, rng)
        assert (gains > cluster._EPS).all()
        assert _level_quality(level, comm, use_cpm, gamma, div) >= before + gains.sum() - 1e-9
        moves.append(len(gains))
        return gains, nxt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_move_round", checked)
        leiden(graph, config, seed_partition)
    return moves


def _refinements(graph, config, seed_partition=None):
    """The number of refined communities of each refinement in ``leiden``,
    checking that each lies inside one community and is connected."""
    refine, counts = cluster._refine, []

    def checked(level, comm, *args):
        rcomm = refine(level, comm, *args)
        counts.append(len(np.unique(rcomm)))
        assert len(set(zip(rcomm.tolist(), comm.tolist()))) == counts[-1]
        src = np.repeat(np.arange(level.n), np.diff(level.indptr))
        inside = rcomm[src] == rcomm[level.indices]
        indptr = np.searchsorted(src[inside], np.arange(level.n + 1))
        pieces = oracles.connected_components_bfs(indptr, level.indices[inside], level.n)
        assert len(np.unique(pieces)) == counts[-1]
        return rcomm

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_refine", checked)
        leiden(graph, config, seed_partition)
    return counts


_SMALL_CONFIGS = st.sampled_from([("cpm", 0.1), ("cpm", 0.5), ("cpm", 1.5),
                                  ("modularity", 0.5), ("modularity", 1.0)])


@settings(max_examples=150, deadline=None)
@given(graph=_small_graphs(), quality_res=_SMALL_CONFIGS, rng_seed=st.integers(0, 2**16))
def test_rounds_gain_exactly_on_small_graphs(graph, quality_res, rng_seed):
    quality, resolution = quality_res
    cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=rng_seed)
    _round_moves(graph, cfg)
    _round_moves(graph, replace(cfg, rng_seed=rng_seed + 1), leiden(graph, cfg))


@pytest.mark.parametrize("quality,resolution", [("cpm", 0.02), ("modularity", 1.0)])
def test_rounds_gain_exactly_on_synth_graphs(synth_graphs, quality, resolution):
    for graph in synth_graphs:
        cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=0)
        moves = _round_moves(graph, cfg)
        # rounds that make many moves at once, and rounds that make none
        assert max(moves) > 100 and 0 in moves
        _round_moves(graph, replace(cfg, rng_seed=3), leiden(graph, cfg))


@settings(max_examples=150, deadline=None)
@given(graph=_small_graphs(), quality_res=_SMALL_CONFIGS, rng_seed=st.integers(0, 2**16))
def test_refined_communities_are_connected_pieces_on_small_graphs(graph, quality_res,
                                                                    rng_seed):
    quality, resolution = quality_res
    cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=rng_seed)
    _refinements(graph, cfg)
    _refinements(graph, replace(cfg, rng_seed=rng_seed + 1), leiden(graph, cfg))


@pytest.mark.parametrize("quality,resolution", [("cpm", 0.02), ("modularity", 1.0)])
def test_refined_communities_are_connected_pieces_on_synth_graphs(synth_graphs, quality,
                                                                  resolution):
    for graph in synth_graphs:
        cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=0)
        counts = _refinements(graph, cfg)
        # refinement merges nodes, and aggregation follows it
        assert len(counts) >= 2 and counts[0] < graph.n_nodes
        _refinements(graph, replace(cfg, rng_seed=3), leiden(graph, cfg))


@pytest.mark.parametrize("quality,resolution", [("cpm", 0.02), ("modularity", 1.0)])
def test_quality_near_sequential_on_synth_graphs(synth_graphs, quality, resolution):
    # the rounds find other partitions than the node-by-node cores, of nearly
    # the same quality (measured ratios are in CHANGES.md)
    for graph in synth_graphs:
        for rng_seed in (0, 7):
            cfg = ClusterConfig(quality=quality, resolution=resolution, rng_seed=rng_seed)
            got, want = leiden(graph, cfg), _sequential_leiden(graph, cfg)
            assert want.quality > 0 and got.quality >= 0.99 * want.quality
        warm = ClusterConfig(quality=quality, resolution=resolution, rng_seed=3)
        assert leiden(graph, warm, got).quality >= 0.99 * _sequential_leiden(
            graph, warm, got).quality


# --- the columnar Partition against the dict code it replaced ------------------


_INT64 = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(assignment=st.dictionaries(_INT64, _INT64), external=st.dictionaries(_INT64, _INT64))
@example(assignment={}, external={})
@example(assignment={-5: 2, 3: -1, -2**63: 0}, external={-7: 4, 2**63 - 1: -1})
def test_from_assignment_round_trip(assignment, external):
    part = Partition.from_assignment(assignment, external, model_year=2010,
                                     rc_count=len(set(assignment.values())), quality=-0.5)
    with tempfile.TemporaryDirectory() as tmp:
        tsv, meta = Path(tmp) / "p.tsv", Path(tmp) / "p.json"
        save_partition(part, tsv, meta)
        loaded = load_partition(tsv, meta)
    for p in (part, loaded):
        assert p.assignment == assignment and p.external_assignment == external
        for name in ("paper_ids", "rc", "external_ids", "external_rc"):
            assert getattr(p, name).dtype == np.int64, name
        assert ascending(p.paper_ids) and ascending(p.external_ids)
        assert p.rc.tolist() == [assignment[i] for i in p.paper_ids.tolist()]
        assert p.external_rc.tolist() == [external[i] for i in p.external_ids.tolist()]
    assert_same_partition(loaded, part)
    with pytest.raises(TypeError):
        part.assignment[0] = 1          # the views are read-only


_IDS = st.sampled_from(["0", "1", "-2", "7", "+1", "01", "1_0", str(2**63 - 1), str(-2**63)])
_CELLS = _IDS | st.sampled_from(["x", "1.5", str(2**63), str(-2**63 - 1)])


@st.composite
def _partition_text(draw):
    """A partition.tsv that is mostly well formed: cells separated by one
    tab, LF, CRLF or CR endings, maybe no final newline, and now and then a
    short or long row, a non-integer, an id outside int64 or a repeat."""
    pair = st.lists(_IDS, min_size=2, max_size=2)
    rows = draw(st.lists(st.one_of(pair, pair, pair, st.lists(_CELLS, max_size=3)),
                         max_size=8))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = ["paper_id\trc_id"] + ["\t".join(row) for row in rows]
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outside_int64(cells: list[str]) -> bool:
    """Whether a row is two integers, one of them outside int64."""
    try:
        values = [oracles.int_cell(c) for c in cells]
    except ValueError:
        return False
    return len(values) == 2 and not all(-2**63 <= v < 2**63 for v in values)


@settings(max_examples=400, deadline=None)
@given(text=_partition_text())
@example(text="paper_id\trc_id\n1\t0\n2\t0\n1\t3\nx\t1\n")     # the repeat comes first
@example(text="paper_id\trc_id\n1\t0\nx\t1\n2\t0\n1\t3\n")     # the bad row comes first
@example(text="paper_id\trc_id\n5\t0\n3\t1\n5\t1\n3\t2\n+1\t0\n01\t2")
@example(text="paper_id\trc_id\n1\t0\n\n2\t0\t5\n")
@example(text="paper_id\trc_id\n3\t1\n9223372036854775808\t0\n3\t2\n")
def test_partition_reader_matches_the_dict_reader(text):
    """The column reader accepts, orders and rejects rows as the dict loop did;
    a row the dict loop read but outside int64 is now the bad line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.tsv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            expected, stop = oracles.read_partition_rows(path), math.inf
        except ClusterError as e:
            expected, stop = e, int(str(e).split()[2].rstrip(":"))
        with open(path) as fh:
            too_large = [(i, line) for i, line in enumerate(fh, start=1)
                         if i > 1 and _outside_int64(line.split())]
        if too_large and too_large[0][0] <= stop:     # a row's own fault comes first
            i, line = too_large[0]
            expected = ClusterError(f"partition line {i}: paper_id and rc_id must fit "
                                    f"int64, got {line.strip()!r}")
        if isinstance(expected, ClusterError):
            with pytest.raises(ClusterError) as raised:
                load_partition(path)
            assert str(raised.value) == str(expected)
        else:
            part = load_partition(path)
            assert part.assignment == expected and ascending(part.paper_ids)
            assert part.paper_ids.dtype == part.rc.dtype == np.int64


def _same_grouping(a, b) -> bool:
    """Whether two label arrays put the same nodes together."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _assert_labels_match_oracles(graph, part):
    labels = cluster._node_labels(graph, part)
    assert labels.dtype == np.int64
    assert labels.tolist() == oracles.initial_communities(graph, part)
    if (part.rc < 0).any() or (part.external_rc < 0).any():
        return          # the dict labels' fresh ids collide with these; see below
    dict_labels = oracles.labels_from(graph, part)
    assert _same_grouping(labels, dict_labels)
    for quality in ("cpm", "modularity"):
        assert partition_quality(graph, part, quality, 0.5) == partition_quality(
            graph, dict_labels, quality, 0.5)


@settings(max_examples=200, deadline=None)
@given(graph=_small_graphs(), data=st.data())
def test_node_labels_match_dict_oracles_on_small_partitions(graph, data):
    # ids off the graph, ids in both mappings, and rc ids shared between them
    ids, rcs = st.integers(-3, graph.n_nodes + 3), st.integers(-4, 4)
    part = Partition.from_assignment(data.draw(st.dictionaries(ids, rcs)),
                                     data.draw(st.dictionaries(ids, rcs)))
    _assert_labels_match_oracles(graph, part)


def test_unplaced_nodes_stay_apart_from_negative_rc_ids():
    graph = CitationGraph.from_edges([(0, 1)])
    part = Partition.from_assignment({}, {0: -1})
    # the dict labels gave unplaced node 1 the fresh label -1, node 0's rc id
    assert oracles.labels_from(graph, part).tolist() == [-1, -1]
    assert cluster._node_labels(graph, part).tolist() == [0, 1]
    assert partition_quality(graph, part, "cpm", 0.5) == 0.0


def test_seeded_leiden_matches_dict_oracles_on_synth_graphs(synth_corpora, synth_graphs):
    for corpus, graph in zip(synth_corpora, synth_graphs):
        cfg = ClusterConfig(quality="cpm", resolution=0.02, rng_seed=0)
        base = leiden(graph, cfg)
        assert len(base.external_ids) > 0
        # through 2011 the papers of 2010-2011 and newly cited items are unplaced
        later = build_graph(corpus, extended=True, year_cutoff=2011)
        for g in (graph, later):
            _assert_labels_match_oracles(g, base)
            warm = replace(cfg, rng_seed=3)
            assert_same_partition(leiden(g, warm, base), _oracle_leiden(g, warm, base))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_ids_match_dict_oracle(data):
    nodes = data.draw(st.lists(st.integers(-50, 50), max_size=15, unique=True))
    internal = [n for n in nodes if data.draw(st.booleans())]
    graph = CitationGraph.from_edges([], nodes=nodes, internal_ids=internal)
    flat = np.array(data.draw(st.lists(st.integers(-3, 5), min_size=len(nodes),
                                       max_size=len(nodes))), np.int64)
    rc, rc_count = cluster._canonical_ids(graph, flat)
    assignment, external, want_count = oracles.canonical_ids(graph, flat)
    assert rc_count == want_count
    assert rc.tolist() == [assignment.get(n, external.get(n, -1))
                           for n in graph.node_ids.tolist()]
