"""The package's planarity decision, ``embedding.planar_rows`` (the
triangulation pre-checks, then the boolean left-right test) and its
edge-list form ``planar_edges``, against the bare networkx LR test of
``oracles.lr_planar``; networkx stays out of the import path."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import lr_planar, sheets_transitive, voltage_orbits

from planecover import embedding, search
from planecover.covers import conjugacy_representatives, derived_edges
from planecover.embedding import (
    EmbeddingError,
    adjacency_rows,
    has_thin_edge,
    planar_edges,
    planar_rows,
    planarity,
)
from planecover.graphs import LabeledGraph, make_base

SRC = Path(__file__).resolve().parent.parent / "src"


def _agrees(nverts: int, edges) -> bool:
    """planar_edges' verdict, after checking it against the oracle."""
    got = planar_edges(nverts, edges)
    assert got == lr_planar(LabeledGraph((0,) * nverts, tuple(edges))), edges
    return got


def _scan_calls(monkeypatch, h_max: int) -> list:
    """Every planarity call of the fragment scan at folds 1..h_max, the
    row-form decision's adjacency rows read back as (vertex count, edge
    list); each call's edge count is checked against its rows."""
    calls = []

    def recorded(rows, m):
        edges = [(u, v) for u, row in enumerate(rows) for v in range(u + 1, len(rows)) if row >> v & 1]
        assert m == len(edges)
        calls.append((len(rows), edges))
        return planar_rows(rows, m)

    monkeypatch.setattr(search, "planar_rows", recorded)
    for n in range(1, h_max + 1):
        search._scan(make_base("k4"), n)
    return calls


def _transitive_leaves(h_max: int) -> list:
    """The derived graph of every transitive leaf of the K4 scan at folds
    1..h_max, as (vertex count, edge list), rebuilt apart from the scan:
    the leaves from the oracle's orbit walk, the edges from
    ``derived_edges`` with the identity on the spanning tree."""
    base = make_base("k4")
    g = base.graph
    edges = [g.edges[e] for e in (*base.spanning_tree_edges, *base.cotree_edges)]
    leaves = []
    for n in range(1, h_max + 1):
        tree = [tuple(range(n))] * len(base.spanning_tree_edges)
        for volt, _, _ in voltage_orbits(n, conjugacy_representatives(n), len(base.cotree_edges) - 1):
            if sheets_transitive(volt, n):
                leaves.append((g.n * n, derived_edges(edges, n, tree + list(volt))))
    return leaves


def test_fold_1_to_4_scan_calls_agree_with_networkx(monkeypatch):
    # the scan shares each verdict across K4's tree symmetries, so it
    # decides 161 of the 653 transitive leaves itself; the decision is
    # checked on every one of them, rebuilt without the scan
    leaves = _transitive_leaves(4)
    assert len(leaves) == 653
    assert sum(_agrees(*leaf) for leaf in leaves) == 322
    assert len(_scan_calls(monkeypatch, 4)) == 161


@pytest.mark.slow
def test_fold_1_to_5_scan_calls_agree_with_networkx(monkeypatch):
    leaves = _transitive_leaves(5)
    assert len(leaves) == 14406
    assert sum(_agrees(*leaf) for leaf in leaves) == 3322
    assert len(_scan_calls(monkeypatch, 5)) == 2728


@st.composite
def _edge_lists(draw):
    # isolated vertices, disconnected graphs and repeated edges included
    n = draw(st.integers(0, 14))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    size = draw(st.integers(0, 3 * n))
    return n, draw(st.lists(pairs, min_size=size, max_size=size))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_edge_lists())
def test_planar_edges_agrees_with_networkx_on_small_graphs(graph):
    _agrees(*graph)


def test_planar_edges_agrees_with_networkx_on_cubic_graphs():
    verdicts = [
        _agrees(n, list(nx.random_regular_graph(3, n, seed=seed).edges()))
        for n in range(4, 41, 2)
        for seed in range(8)
    ]
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


@st.composite
def _triangulation_sized(draw):
    """(vertex count, edge list) with exactly 3V - 6 distinct edges: a
    stacked triangulation (planar), one with an edge moved, or random
    edges; vertex ids and edge order shuffled."""
    n = draw(st.integers(4, 12))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["stacked", "moved", "random"]))
    if kind == "random":
        edges = draw(st.lists(st.sampled_from(pairs), min_size=3 * n - 6, max_size=3 * n - 6, unique=True))
    else:
        edges, faces = [(0, 1), (1, 2), (0, 2)], [(0, 1, 2), (0, 1, 2)]
        for v in range(3, n):
            a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
            edges += [(a, v), (b, v), (c, v)]
            faces += [(a, b, v), (b, c, v), (a, c, v)]
        if kind == "moved" and n > 4:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges.append(draw(st.sampled_from([e for e in pairs if e not in edges])))
    perm = draw(st.permutations(range(n)))
    return n, draw(st.permutations([(perm[u], perm[v]) for u, v in edges]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_triangulation_sized(), st.data())
def test_thin_edge_between_final_vertices_rules_out_planarity(graph, data):
    # once every edge at both ends of a thin edge is in, every vertex is
    # known to the rule and the edge needs two common neighbours: no
    # completion to 3V - 6 edges is planar
    n, edges = graph
    prefix = edges[: data.draw(st.integers(0, len(edges)))]
    degree = [sum(v in e for e in edges) for v in range(n)]
    final = [v for v in range(n) if sum(v in e for e in prefix) == degree[v]]
    if has_thin_edge(adjacency_rows(n, prefix), final, sum(1 << v for v in final), -1, 2):
        assert not planar_rows(adjacency_rows(n, edges), len(edges))
        assert not lr_planar(LabeledGraph((0,) * n, tuple(edges)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["k4", "k1222"]), st.integers(1, 3), st.data())
def test_prefix_triangle_bound_holds_for_every_completion(kind, n, data):
    # the scan's prefix rule, search._thin_edge_checks: at each level, each
    # listed lifted edge's bound (common neighbours in the known fibres plus
    # the open ones, 2 - need) is at least its common-neighbour count in the
    # completed derived graph; and a leaf is dead exactly when the
    # completed graph has a thin edge
    base = make_base(kind)
    g = base.graph
    perms = list(itertools.permutations(range(n)))
    edges = [g.edges[e] for e in (*base.spanning_tree_edges, *base.cotree_edges)]
    volts = [perms[0]] * len(base.spanning_tree_edges)
    volts += [data.draw(st.sampled_from(perms)) for _ in base.cotree_edges]
    nverts, tree = g.n * n, len(base.spanning_tree_edges)
    full = adjacency_rows(nverts, derived_edges(edges, n, volts))
    dead = False
    for k, level in enumerate(search._thin_edge_checks(base, n)):
        rows = adjacency_rows(nverts, derived_edges(edges[: tree + k], n, volts[: tree + k]))
        for vertices, within, known, need in level:
            for u in vertices:
                assert (rows[u] & within).bit_count() == 1  # the edge is in
                w = (rows[u] & within).bit_length() - 1
                bound = (rows[u] & rows[w] & known).bit_count() + 2 - need
                assert bound >= (full[u] & full[w]).bit_count()
            dead = dead or has_thin_edge(rows, vertices, within, known, need)
    assert dead == has_thin_edge(full, range(nverts), -1, -1, 2)


def _subdivided(rng, base_edges, nverts):
    """Each edge of the base replaced by a path with 0-3 inner vertices;
    the vertex ids are shuffled."""
    edges = []
    for u, v in base_edges:
        inner = list(range(nverts, nverts + rng.randint(0, 3)))
        nverts += len(inner)
        path = [u, *inner, v]
        edges += zip(path, path[1:])
    perm = list(range(nverts))
    rng.shuffle(perm)
    return nverts, [(perm[u], perm[v]) for u, v in edges]


#: the Kuratowski graphs, as (edge list, vertex count)
_KURATOWSKI = {
    "K5": (list(itertools.combinations(range(5), 2)), 5),
    "K33": ([(i, 3 + j) for i in range(3) for j in range(3)], 6),
}


@pytest.mark.parametrize("kind", ["K5", "K33"])
def test_subdivided_kuratowski_graphs(kind):
    base, nverts = _KURATOWSKI[kind]
    rng = random.Random(5)
    for _ in range(100):
        n, edges = _subdivided(rng, base, nverts)
        assert not _agrees(n, edges)
        edges.pop(rng.randrange(len(edges)))  # one path broken: planar
        assert _agrees(n, edges)


def _grid(side: int) -> list[tuple[int, int]]:
    return [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)] + [
        (r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)
    ]


def test_deep_graphs_need_no_recursion():
    # the DFS depth is the vertex count on a path and in the grid
    assert planar_edges(3000, [(i, i + 1) for i in range(2999)])
    side = 60
    assert _agrees(side * side, _grid(side))
    corners = [(0, side * side - 1), (side - 1, side * side - side)]
    assert not _agrees(side * side, _grid(side) + corners)


def _union(parts):
    """Disjoint union of (vertex count, edge list) parts, each part's
    vertices numbered after the previous part's."""
    edges, offset = [], 0
    for nverts, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += nverts
    return offset, edges


def _relabeled(parts, rng):
    """The parts with their vertex ids permuted within each part, so that
    the parts keep their order among the ids (and so the DFS roots)."""
    out = []
    for nverts, part in parts:
        perm = list(range(nverts))
        rng.shuffle(perm)
        out.append((nverts, [(perm[u], perm[v]) for u, v in part]))
    return out


#: planar components: isolated vertices, a triangle with a pendant path,
#: K4, a 6-cycle and the 3x3 grid
_PLANAR_PARTS = [
    (1, []),
    (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
    (4, list(itertools.combinations(range(4), 2))),
    (1, []),
    (6, [(i, (i + 1) % 6) for i in range(6)]),
    (9, _grid(3)),
]


@pytest.mark.parametrize("kind", ["K5", "K33"])
@pytest.mark.parametrize("place", [0, 3, len(_PLANAR_PARTS)])  # first, in the middle, last
def test_one_non_planar_component_decides_the_union(kind, place):
    # each DFS root starts on the state the earlier components left
    base, nverts = _KURATOWSKI[kind]
    rng = random.Random(place)
    for relabeling in range(4):
        parts = _PLANAR_PARTS if relabeling == 0 else _relabeled(_PLANAR_PARTS, rng)
        bad = _subdivided(rng, base, nverts)
        assert not _agrees(*_union(parts[:place] + [bad] + parts[place:]))
        assert _agrees(*_union(parts))


def test_planar_rows_agrees_with_networkx_on_random_k4_covers_at_folds_5_to_7():
    # 20-28-vertex covers, past the fold <= 4 scan inputs checked above
    base = make_base("k4")
    rng = random.Random(24)
    verdicts = []
    for n in (5, 6, 7):
        for _ in range(70):
            perms = [
                tuple(rng.sample(range(n), n)) if e in base.cotree_edges else tuple(range(n))
                for e in range(base.graph.m)
            ]
            edges = derived_edges(base.graph.edges, n, perms)
            got = planar_rows(adjacency_rows(4 * n, edges), len(edges))
            assert got == lr_planar(LabeledGraph((0,) * (4 * n), tuple(edges))), (n, perms)
            verdicts.append(got)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 100


def test_planarity_raises_when_networkx_disagrees(monkeypatch):
    monkeypatch.setattr(embedding, "_lr_planar", lambda adj: False)
    with pytest.raises(EmbeddingError, match="non-planar"):
        planarity(LabeledGraph((0,) * 4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    monkeypatch.setattr(embedding, "_lr_planar", lambda adj: True)
    with pytest.raises(EmbeddingError, match="no embedding"):
        planarity(LabeledGraph((0,) * 6, tuple((i, j + 3) for i in range(3) for j in range(3))))


def test_import_leaves_networkx_out(tmp_path):
    # the chain commands need no networkx: analyze and quotient on
    # semi-cover fixtures, bounds, the K1,2,2,2 fold-2 covers search and the
    # fold 1-5 fragments search all exit 0 without loading it, and neither
    # they, derive nor the import load dataclasses (with inspect) or
    # hashlib; building an embedding loads networkx
    volt = tmp_path / "volt.json"
    volt.write_text('{"base": "k4", "n": 2, "edges": [{"from": 1, "to": 2, "perm": [1, 0]}]}')
    chain = [
        ["analyze", "--fixture", "nine_face_pair"],
        ["analyze", "--fixture", "fold_six_fragment"],
        ["quotient", "--fixture", "nine_face_pair"],
        ["quotient", "--fixture", "two_faces"],
        ["bounds", "12"],
        ["search", "--fixture", "spec-k1222-n2"],
        ["search", "--fixture", "spec-k4-h-le-5"],
    ]
    code = (
        "import contextlib, io, json, os, sys\n"
        "import planecover\n"
        "from planecover.cli import main\n"
        "def loaded():\n"
        "    return sorted({'dataclasses', 'inspect', 'hashlib', 'networkx'} & set(sys.modules))\n"
        "seen = [loaded()]\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    seen.append([main([*argv, '--out', os.devnull]) for argv in {chain!r}])\n"
        "seen.append(loaded())\n"
        f"main(['derive', {str(volt)!r}, '--out', os.devnull])\n"
        "seen.append(loaded())\n"
        "planecover.planarity(planecover.make_base('k4').graph)\n"
        "seen.append('networkx' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], [0] * len(chain), [], [], True]
