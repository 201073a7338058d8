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
from oracles import lr_planar

from planecover import embedding, search
from planecover.embedding import EmbeddingError, planar_edges, planar_rows, planarity
from planecover.graphs import LabeledGraph, make_base

SRC = Path(__file__).resolve().parent.parent / "src"


def _agrees(nverts: int, edges) -> bool:
    """planar_edges' verdict, after checking it against the oracle."""
    got = planar_edges(nverts, edges)
    assert got == lr_planar(LabeledGraph((0,) * nverts, tuple(edges), simple=False)), edges
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


def test_fold_1_to_4_scan_calls_agree_with_networkx(monkeypatch):
    calls = _scan_calls(monkeypatch, 4)
    assert len(calls) == 653
    assert sum(_agrees(*call) for call in calls) == 322


@pytest.mark.slow
def test_fold_1_to_5_scan_calls_agree_with_networkx(monkeypatch):
    calls = _scan_calls(monkeypatch, 5)
    assert len(calls) == 14406
    assert sum(_agrees(*call) for call in calls) == 3322


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


@pytest.mark.parametrize("kind", ["K5", "K33"])
def test_subdivided_kuratowski_graphs(kind):
    if kind == "K5":
        base, nverts = list(itertools.combinations(range(5), 2)), 5
    else:
        base, nverts = [(i, 3 + j) for i in range(3) for j in range(3)], 6
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


def test_planarity_raises_when_networkx_disagrees(monkeypatch):
    monkeypatch.setattr(embedding, "_lr_planar", lambda adj: False)
    with pytest.raises(EmbeddingError, match="non-planar"):
        planarity(LabeledGraph((0,) * 4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    monkeypatch.setattr(embedding, "_lr_planar", lambda adj: True)
    with pytest.raises(EmbeddingError, match="no embedding"):
        planarity(LabeledGraph((0,) * 6, tuple((i, j + 3) for i in range(3) for j in range(3))))


def test_import_leaves_networkx_out(tmp_path):
    # analyze, quotient, bounds and a fold-2 search need no networkx, and
    # neither they nor the import load dataclasses (with inspect) or
    # hashlib; derive loads hashlib, and building an embedding networkx
    volt = tmp_path / "volt.json"
    volt.write_text('{"base": "k4", "n": 2, "edges": [{"from": 1, "to": 2, "perm": [1, 0]}]}')
    code = (
        "import json, os, sys\n"
        "import planecover\n"
        "from planecover.cli import main\n"
        "def loaded():\n"
        "    return sorted({'dataclasses', 'inspect', 'hashlib', 'networkx'} & set(sys.modules))\n"
        "seen = [loaded()]\n"
        "main(['analyze', '--fixture', 'nine_face_pair', '--out', os.devnull])\n"
        "main(['quotient', '--fixture', 'nine_face_pair', '--out', os.devnull])\n"
        "main(['bounds', '12', '--out', os.devnull])\n"
        "main(['search', '--fixture', 'spec-k1222-n2', '--out', os.devnull])\n"
        "seen.append(loaded())\n"
        f"main(['derive', {str(volt)!r}, '--out', os.devnull])\n"
        "seen.append(loaded())\n"
        "planecover.planarity(planecover.make_base('k4').graph)\n"
        "seen.append('networkx' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], [], ["hashlib"], True]
