import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import is_label_consistent
from oracles import connectivity_by_cut_search, isomorphic, relabel_vertices

from planecover.covers import derive, normalized_assignment
from planecover.graphs import (
    GraphError,
    LabeledGraph,
    canonical_form,
    connected_components,
    connectivity,
    find_cycles_covering,
    is_connected,
    labels_adjacent,
    make_base,
)


def test_base_k1222_shape():
    b = make_base("k1222")
    assert b.graph.n == 7
    assert b.graph.m == 18
    degs = sorted((b.graph.degree(v) for v in range(7)), reverse=True)
    assert degs == [6, 5, 5, 5, 5, 5, 5]
    zero = b.label_to_vertex[0]
    assert b.graph.degree(zero) == 6


def test_base_k4_shape():
    b = make_base("k4")
    assert b.graph.n == 4
    assert b.graph.m == 6
    assert sorted(b.graph.labels) == [-3, -2, -1, 0]


@pytest.mark.parametrize("kind, tree", [("k4", (0, 1, 2)), ("k1222", tuple(range(6)))])
def test_spanning_tree_is_the_apex_star(kind, tree):
    b = make_base(kind)
    g = b.graph
    apex = b.label_to_vertex[0]
    assert b.spanning_tree_edges == tree
    assert sorted(g.incident_edges[apex]) == list(tree)
    assert b.cotree_edges == tuple(range(len(tree), g.m))
    # the cotree avoids the apex: for k1222 it is the 12 octahedron edges
    assert all(apex not in g.edges[e] for e in b.cotree_edges)
    assert len(b.cotree_edges) == g.m - g.n + 1


def test_make_base_rejects_unknown():
    with pytest.raises(GraphError):
        make_base("k5")


def test_label_adjacency():
    assert labels_adjacent(0, 1) and labels_adjacent(0, -3)
    assert not labels_adjacent(1, -1) and not labels_adjacent(2, -2)
    assert labels_adjacent(1, 2) and labels_adjacent(-1, 3)
    assert not labels_adjacent(0, 0) and not labels_adjacent(1, 1)
    with pytest.raises(GraphError):
        labels_adjacent(0, 5)


def test_loops_and_parallels_rejected():
    with pytest.raises(GraphError):
        LabeledGraph((0, -1), ((0, 0),))
    g = LabeledGraph((0, -1), ((0, 1), (1, 0)))
    assert g.m == 2 and g.simple is False
    assert LabeledGraph((0, -1), ((1, 0),)).simple is True


def test_connectivity_examples():
    assert connectivity(make_base("k4").graph) == 2
    path3 = LabeledGraph((0, -1, -2), ((0, 1), (1, 2)))
    assert connectivity(path3) == 1
    # cube graph: the double cover of K4 with all cotree swaps
    cube, _ = derive(normalized_assignment(make_base("k4"), 2, [(1, 0)] * 3))
    assert connectivity(cube) == 2
    assert connectivity(cube) == min(2, connectivity_by_cut_search(cube))
    with pytest.raises(GraphError):
        connectivity(LabeledGraph((0,), ()))


@st.composite
def _small_multigraphs(draw):
    n = draw(st.integers(2, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return LabeledGraph((0,) * n, tuple(draw(st.lists(pairs, max_size=3 * n))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_multigraphs())
def test_component_search_agrees_with_networkx(g):
    # is_connected and connected_components share one component search and
    # the capped connectivity one cut-vertex search; disconnected and
    # parallel-edge graphs included
    G = nx.Graph(g.edges)
    G.add_nodes_from(range(g.n))
    assert is_connected(g) == nx.is_connected(G)
    assert connected_components(g) == sorted(sorted(c) for c in nx.connected_components(G))
    assert connectivity(g) == min(2, nx.node_connectivity(G))


_K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize(
    "n, edges, want",
    [
        (2, (), 0),
        (3, ((0, 1),), 0),
        (4, ((0, 1), (0, 1), (2, 3)), 0),
        (2, ((0, 1),), 1),
        (2, ((0, 1), (0, 1), (0, 1)), 1),
        (3, ((0, 1), (1, 2)), 1),
        (3, ((0, 1), (0, 1), (1, 2), (1, 2)), 1),
        (5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)), 1),  # two triangles at a vertex
        (3, ((0, 1), (1, 2), (0, 2)), 2),
        (3, ((0, 1), (0, 1), (1, 2), (0, 2), (0, 2)), 2),
        (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 2),
        (6, _K4_EDGES + ((0, 4), (0, 5), (1, 4), (1, 5), (4, 5)), 2),  # two K4s on an edge
        (4, _K4_EDGES, 2),
        (4, _K4_EDGES + _K4_EDGES[:2], 2),
        (5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)), 2),  # K5
    ],
)
def test_connectivity_cases(n, edges, want):
    g = LabeledGraph((0,) * n, edges)
    assert connectivity(g) == want == min(2, connectivity_by_cut_search(g))


def test_canonical_form_isomorphic_copies():
    g = make_base("k4").graph
    assert canonical_form(g) == canonical_form(relabel_vertices(g, [2, 0, 3, 1]))
    c4 = LabeledGraph((0, -1, -2, -3), ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert canonical_form(g) != canonical_form(c4)
    assert isomorphic(g, relabel_vertices(g, [3, 1, 0, 2]))
    assert not isomorphic(g, c4)


def test_canonical_form_label_sensitive():
    g1 = LabeledGraph((0, -1), ((0, 1),))
    g2 = LabeledGraph((0, -2), ((0, 1),))
    assert canonical_form(g1) != canonical_form(g2)


def test_canonical_form_many_relabelings():
    # 12-vertex cover: three beads in a ring
    from builders import necklace

    g = necklace(3).graph
    rng = random.Random(7)
    forms = set()
    for _ in range(100):
        perm = list(range(g.n))
        rng.shuffle(perm)
        forms.add(canonical_form(relabel_vertices(g, perm)))
    assert len(forms) == 1


def test_canonical_agrees_with_explicit_iso_search():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(4, 8)
        labels = tuple(rng.choice((0, -1, -2, -3)) for _ in range(n))
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        )
        g1 = LabeledGraph(labels, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = relabel_vertices(g1, perm)
        assert canonical_form(g1) == canonical_form(g2)
        assert isomorphic(g1, g2)
        # perturb: toggle one edge somewhere
        if edges:
            g3 = LabeledGraph(labels, edges[1:])
            same = canonical_form(g1) == canonical_form(g3)
            assert same == isomorphic(g1, g3)
    # multigraphs: parallel edges of multiplicity up to three, as in the
    # quotient universe
    for _ in range(200):
        n = rng.randint(2, 7)
        labels = tuple(rng.choice((0, -1)) for _ in range(n))
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            for _ in range(rng.choice((0, 0, 1, 2, 3)))
        )
        g1 = LabeledGraph(labels, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = relabel_vertices(g1, perm)
        assert canonical_form(g1) == canonical_form(g2)
        assert isomorphic(g1, g2)
        if edges:
            # drop one parallel copy, or move it onto another pair
            i = rng.randrange(len(edges))
            g3 = LabeledGraph(labels, edges[:i] + edges[i + 1 :])
            u, v = rng.sample(range(n), 2)
            g4 = LabeledGraph(labels, edges[:i] + edges[i + 1 :] + ((u, v),))
            for g in (g3, g4):
                same = canonical_form(g1) == canonical_form(g)
                assert same == isomorphic(g1, g)


def test_find_cycles_covering_identity():
    b = make_base("k1222")
    comps = find_cycles_covering(b.graph, (1, 2, 3), b)
    assert len(comps) == 1
    assert comps[0].kind == "cycle" and comps[0].length == 3


def test_find_cycles_covering_double_cover():
    k4 = make_base("k4")
    cube, _ = derive(normalized_assignment(k4, 2, [(1, 0)] * 3))
    comps = find_cycles_covering(cube, (-1, -2, -3), k4)
    assert [(c.kind, c.length) for c in comps] == [("cycle", 6)]


def test_find_cycles_covering_lengths_sum():
    k4 = make_base("k4")
    rng = random.Random(3)
    import itertools

    perms = list(itertools.permutations(range(3)))
    for _ in range(50):
        volt = [rng.choice(perms) for _ in range(3)]
        g, _ = derive(normalized_assignment(k4, 3, volt))
        for t in k4.triangles:
            comps = find_cycles_covering(g, t, k4)
            assert sum(c.length for c in comps) == 3 * 3
            assert all(c.kind == "cycle" for c in comps)
            assert all(c.length % 3 == 0 for c in comps)


def test_find_cycles_covering_rejects_non_triangle():
    b = make_base("k1222")
    with pytest.raises(GraphError):
        find_cycles_covering(b.graph, (1, -1, 2), b)


def test_label_consistency():
    assert is_label_consistent(make_base("k1222").graph)
    bad = LabeledGraph((1, -1), ((0, 1),))
    assert not is_label_consistent(bad)
