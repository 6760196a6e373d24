import numpy as np
import pytest

from rcforecast.citegraph import CitationGraph, build_graph, connected_components

from conftest import paper
from oracles import connected_components_bfs


def test_minimal_citation(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[2]), paper(2, 2009)])
    g = build_graph(corpus, extended=False, year_cutoff=2010)
    assert g.n_nodes == 2
    assert g.n_edges == 1
    assert g.n_internal == 2


def test_extended_connects_through_external(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[500]), paper(2, 2010, refs=[500])])
    g = build_graph(corpus, extended=True)
    assert g.n_nodes == 3
    assert g.n_edges == 2
    comp = connected_components(g.indptr, g.indices, g.n_nodes)
    assert len(set(comp.tolist())) == 1
    assert g.n_internal == 2


def test_not_extended_drops_externals(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[500]), paper(2, 2010, refs=[500])])
    g = build_graph(corpus, extended=False)
    assert g.n_nodes == 2
    assert g.n_edges == 0


def test_degree_one_external_pruned(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[500, 600]), paper(2, 2010, refs=[600])])
    g = build_graph(corpus, extended=True)
    # 500 is cited once -> pruned; 600 bridges
    assert set(g.node_ids.tolist()) == {1, 2, 600}


def test_year_cutoff_and_node_set(corpus_factory):
    corpus = corpus_factory([
        paper(1, 2009), paper(2, 2010, refs=[1]), paper(3, 2012, refs=[1, 2]),
    ])
    g = build_graph(corpus, extended=False, year_cutoff=2010)
    assert set(g.node_ids.tolist()) == {1, 2}  # node set == papers through cutoff
    assert g.n_edges == 1
    with pytest.raises(ValueError):
        build_graph(corpus, year_cutoff=1990)


def test_future_internal_reference_is_not_external(corpus_factory):
    # a paper citing a corpus paper published after the cutoff: the link is
    # dropped rather than routed through an external node
    corpus = corpus_factory([paper(1, 2010, refs=[2]), paper(2, 2012)])
    g = build_graph(corpus, extended=True, year_cutoff=2010)
    assert set(g.node_ids.tolist()) == {1}
    assert g.n_edges == 0


def test_reciprocal_citations_collapse_to_one_edge(corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[2]), paper(2, 2010, refs=[1])])
    g = build_graph(corpus, extended=False)
    assert g.n_edges == 1
    assert g.weights.tolist() == [1.0, 1.0]  # both CSR directions, weight 1


def test_edge_count_bounded_by_reference_count(corpus_factory):
    rng = np.random.default_rng(3)
    papers = []
    total_refs = 0
    for pid in range(50):
        refs = sorted(set(rng.integers(0, pid, size=min(pid, 4)).tolist()) - {pid})
        total_refs += len(refs)
        papers.append(paper(pid, 2000 + pid % 5, refs=refs))
    corpus = corpus_factory(papers)
    g = build_graph(corpus, extended=False)
    assert g.n_edges <= total_refs


def test_order_invariance(corpus_factory):
    papers = [paper(1, 2010, refs=[3]), paper(2, 2010, refs=[3, 1]), paper(3, 2009)]
    c1 = corpus_factory(papers)
    c2 = corpus_factory(list(reversed(papers)))
    g1 = build_graph(c1, extended=False)
    g2 = build_graph(c2, extended=False)
    assert g1.node_ids.tolist() == g2.node_ids.tolist()
    assert g1.indptr.tolist() == g2.indptr.tolist()
    assert g1.indices.tolist() == g2.indices.tolist()


def test_edgelist_dump(tmp_path, corpus_factory):
    corpus = corpus_factory([paper(1, 2010, refs=[2]), paper(2, 2009)])
    g = build_graph(corpus, extended=False)
    out = tmp_path / "edges.tsv"
    g.dump_edgelist(out)
    assert out.read_text() == "1\t2\t1\n"


def test_edgelist_dump_order(tmp_path, corpus_factory):
    # each edge once, lower node first, in node order and then neighbour order;
    # the external item 900 bridges papers 2 and 3, and paper 5 is isolated
    corpus = corpus_factory([paper(3, 2010, refs=[1, 900]), paper(1, 2009),
                             paper(2, 2010, refs=[900, 3, 1]), paper(4, 2010, refs=[2]),
                             paper(5, 2010)])
    g = build_graph(corpus, extended=True)
    assert g.node_ids.tolist() == [1, 2, 3, 4, 5, 900]
    out = tmp_path / "edges.tsv"
    g.dump_edgelist(out)
    assert out.read_text() == "1\t2\t1\n1\t3\t1\n2\t3\t1\n2\t4\t1\n2\t900\t1\n3\t900\t1\n"


def test_from_edges_helper():
    g = CitationGraph.from_edges([(0, 1), (1, 2), (1, 2), (2, 2)], nodes=[5])
    assert g.n_nodes == 4          # 0,1,2,5; self-loop dropped; duplicate collapsed
    assert g.n_edges == 2
    assert np.diff(g.indptr).tolist() == [1, 2, 1, 0]


def test_connected_components_match_stack_walk():
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(0, 40))
        m = int(rng.integers(0, 2 * n + 1))
        edges = rng.integers(0, max(n, 1), size=(m, 2)).tolist() if n else []
        # nodes=range(n) keeps isolated nodes; n == 0 gives the empty graph
        g = CitationGraph.from_edges(edges, nodes=range(n))
        got = connected_components(g.indptr, g.indices, g.n_nodes)
        want = connected_components_bfs(g.indptr, g.indices, g.n_nodes)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
