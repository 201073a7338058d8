"""The fragment analyzer's graph-level gate and the theorem that took the
place of its connectivity test: the local negative-lift test against the
components of the lift and against the voltage rule; every connected
cover of K4 2-connected, by exhaustive cut search; and the one
connectivity routine on simple subcubic graphs against that search."""

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    connectivity_by_cut_search,
    negative_lift_by_components,
    sheets_transitive,
    voltage_orbits,
)

from planecover import graphs, search, structure
from planecover.covers import (
    conjugacy_representatives,
    derive,
    normalized_assignment,
)
from planecover.graphs import ALPHABET, LabeledGraph, connectivity, make_base
from planecover.structure import negative_lift_triangular

K4 = make_base("k4")
FOLDS = [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]

# Orbits of K4 cotree voltage triples under simultaneous conjugation, per
# fold: (all, transitive), as test_orbit_scan.ORBIT_COUNTS pins them, and
# the transitive pair orbits (OEIS A057005).
TRIPLE_ORBITS = {1: (1, 1), 2: (8, 7), 3: (49, 41), 4: (681, 604), 5: (14721, 13753)}
TRANSITIVE_PAIR_ORBITS = {1: 1, 2: 3, 3: 7, 4: 26, 5: 97}


def _orbit_covers(n):
    """(voltage, derived graph, transitive) for each orbit of K4 voltages."""
    for volt, _, _ in voltage_orbits(n, conjugacy_representatives(n), 2):
        g, _ = derive(normalized_assignment(K4, n, volt))
        yield volt, g, sheets_transitive(volt, n)


@functools.cache
def _orbit_cut_search(n):
    """(voltage, derived graph, transitive, cut-search connectivity) for
    each orbit of K4 voltages, shared by the two tests that need it."""
    return [(volt, g, t, connectivity_by_cut_search(g)) for volt, g, t in _orbit_covers(n)]


def _is_simple_subcubic(g: LabeledGraph) -> bool:
    return len(g.edge_set) == g.m and max(map(len, g.adj)) <= 3


@pytest.mark.parametrize("n", FOLDS)
def test_negative_lift_gate_matches_components_and_voltage_rule(n):
    # the cotree edges 3, 4, 5 are (1,2), (1,3), (2,3), the (-1,-2,-3)
    # triangle: its lift is triangles exactly when going along (1,2), then
    # along (2,3), ends where (1,3) does, sheet by sheet
    assert [K4.graph.edges[e] for e in K4.cotree_edges] == [(1, 2), (1, 3), (2, 3)]
    transitive = triangular = 0
    for (c12, c13, c23), g, is_transitive in _orbit_covers(n):
        if not is_transitive:
            continue
        transitive += 1
        rule = all(c13[i] == c23[c12[i]] for i in range(n))
        assert negative_lift_triangular(g) == negative_lift_by_components(g) == rule, (c12, c13, c23)
        triangular += rule
    assert transitive == TRIPLE_ORBITS[n][1]
    # c13 follows from (c12, c23) and generates nothing new, so the
    # triangular triple orbits are the transitive pair orbits
    assert triangular == TRANSITIVE_PAIR_ORBITS[n]


@st.composite
def _labelled_multigraphs(draw):
    # disjoint (-1,-2,-3) triangles, so that both verdicts come up, then
    # further vertices and edges with any labels, parallel edges allowed
    labels = [-1, -2, -3] * draw(st.integers(0, 3))
    edges = [(v, v + d) for v in range(0, len(labels), 3) for d in (1, 2)]
    edges += [(v + 1, v + 2) for v in range(0, len(labels), 3)]
    labels += draw(st.lists(st.sampled_from(ALPHABET), max_size=6))
    n = len(labels)
    if n < 2:
        labels += [0] * (2 - n)
        n = 2
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=n))
    return LabeledGraph(tuple(labels), tuple(edges))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_labelled_multigraphs())
# a lifted 4-cycle whose opposite corners, sharing a label, are joined:
# every vertex sees two adjacent lifted neighbours, of one label
@example(LabeledGraph((-1, -2, -1, -2), ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))))
def test_negative_lift_gate_matches_components_on_random_multigraphs(g):
    assert negative_lift_triangular(g) == negative_lift_by_components(g)


@pytest.mark.parametrize("n", FOLDS)
def test_connected_k4_covers_are_two_connected(n):
    # a connected cover of K4 is simple, cubic and bridgeless (each lifted
    # edge lies on a lift of a base cycle), so it is 2-connected: the
    # fragment scan's classes need no connectivity test
    transitive = 0
    for volt, _, is_transitive, k in _orbit_cut_search(n):
        if is_transitive:
            transitive += 1
            assert k >= 2, volt
    assert transitive == TRIPLE_ORBITS[n][1]


def test_fragment_search_computes_no_connectivity(monkeypatch):
    calls = []
    real = graphs.connectivity

    def counted(g):
        calls.append(g)
        return real(g)

    for module in (graphs, search, structure):
        if hasattr(module, "connectivity"):
            monkeypatch.setattr(module, "connectivity", counted)
    search.search_k4_fragments(4)
    assert len(calls) == 0


# The one connectivity routine against exhaustive cut search on simple
# subcubic graphs: the corpus graphs, every K4 voltage orbit and random
# graphs.


def test_subcubic_connectivity_on_graph_corpus(graph_corpus):
    subcubic = [
        g for graphs in graph_corpus.values() for g in graphs if g.n >= 2 and _is_simple_subcubic(g)
    ]
    assert len(subcubic) == 252
    for g in subcubic:
        assert connectivity(g) == connectivity_by_cut_search(g), g.edges


@pytest.mark.parametrize("n", FOLDS)
def test_subcubic_connectivity_on_derived_graphs(n):
    orbits = 0
    for volt, g, _, k in _orbit_cut_search(n):
        orbits += 1
        assert _is_simple_subcubic(g)
        assert connectivity(g) == k, volt
    assert orbits == TRIPLE_ORBITS[n][0]


@st.composite
def _simple_subcubic_graphs(draw):
    # random edges wherever both ends have room, after an optional
    # Hamilton cycle and before an optional greedy completion, so that 2-
    # and 3-connected graphs come up often
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    edges = set()
    degree = [0] * n

    def add(u, v):
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and degree[u] < 3 and degree[v] < 3:
            edges.add(e)
            degree[u] += 1
            degree[v] += 1

    if n >= 3 and draw(st.booleans()):
        for i in range(n):
            add(order[i - 1], order[i])
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        add(u, v)
    if draw(st.booleans()):
        for u, v in itertools.combinations(order, 2):
            add(u, v)
    return LabeledGraph((0,) * n, tuple(edges))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_simple_subcubic_graphs())
def test_subcubic_connectivity_on_random_graphs(g):
    assert connectivity(g) == connectivity_by_cut_search(g)
