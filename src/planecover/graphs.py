"""Vertex-labelled multigraphs over the K(1,2,2,2) alphabet.

Every graph handled by this package (base graphs, covers, K4-cover
fragments, quotients) carries a label per vertex drawn from the seven
symbols 0, +-1, +-2, +-3.  The apex vertex of K(1,2,2,2) is labelled 0;
the six octahedron vertices are labelled so that i and -i are the unique
non-adjacent pairs.  Covers of the K4 subgraph reuse {0, -1, -2, -3}.
Connectedness and components go through one component search,
``_component``, the capped vertex connectivity through one cut-vertex
search, ``_has_cut_vertex``, and triangles through one enumeration,
``LabeledGraph.triangles``, which each graph runs at most once; the two
base graphs are built once per process.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import NamedTuple

ALPHABET = (0, 1, -1, 2, -2, 3, -3)
K4_LABELS = (0, -1, -2, -3)

_ALPHABET_SET = frozenset(ALPHABET)


class GraphError(ValueError):
    """Malformed graph data."""


def labels_adjacent(a: int, b: int) -> bool:
    """True iff the base vertices named by the two labels are adjacent."""
    if a not in _ALPHABET_SET or b not in _ALPHABET_SET:
        raise GraphError(f"label outside alphabet: {a!r}, {b!r}")
    if a == 0 or b == 0:
        return a != b
    return a != b and a != -b


class _LabeledGraphFields(NamedTuple):
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


class LabeledGraph(_LabeledGraphFields):
    """Immutable multigraph with a label per vertex.

    ``labels[v]`` is the label of vertex ``v`` (vertices are 0..n-1) and
    ``edges`` is a sorted tuple of normalized ``(u, v)`` pairs with
    ``u < v``; repeated pairs encode parallel edges.
    """

    def __new__(cls, labels, edges):
        n = len(labels)
        norm = []
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e} out of range for {n} vertices")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        return super().__new__(cls, tuple(labels), tuple(norm))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists with multiplicity, sorted."""
        out = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return tuple(tuple(sorted(a)) for a in out)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids (indices into ``edges``) incident to each vertex."""
        out = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            out[u].append(i)
            out[v].append(i)
        return tuple(tuple(a) for a in out)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Vertex triples u < v < w that are pairwise adjacent, sorted: the
        one triangle enumeration of the package."""
        out = set()
        for u, v in self.edges:
            for w in range(v + 1, self.n):
                if self.has_edge(u, w) and self.has_edge(v, w):
                    out.add((u, v, w))
        return tuple(sorted(out))

    @cached_property
    def simple(self) -> bool:
        """No two edges join the same pair of vertices."""
        return len(self.edge_set) == self.m

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def induced_subgraph(self, vertices) -> tuple["LabeledGraph", dict[int, int]]:
        """Induced subgraph plus the old-id -> new-id map."""
        keep = sorted(set(vertices))
        new_id = {v: i for i, v in enumerate(keep)}
        edges = [(new_id[u], new_id[v]) for u, v in self.edges if u in new_id and v in new_id]
        return LabeledGraph(tuple(self.labels[v] for v in keep), tuple(edges)), new_id


def _component(g: LabeledGraph, start: int) -> list[int]:
    """Vertices reachable from ``start``, in discovery order: the one
    component search of the package."""
    seen = bytearray(g.n)
    seen[start] = 1
    comp = [start]
    stack = [start]
    adj = g.adj
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = 1
                comp.append(v)
                stack.append(v)
    return comp


def _has_cut_vertex(g: LabeledGraph, removed: int = -1) -> bool:
    """Whether g minus the vertex ``removed`` (none if -1), assumed
    connected, has a cut vertex: one iterative lowpoint DFS.

    A non-root vertex p is a cut vertex when some DFS child's subtree has
    no edge to a proper ancestor of p (low[child] >= disc[p]); the root is
    one when it has two DFS children.  Edges back to the parent, parallel
    ones included, only lower low[child] to disc[p], which leaves that
    test unchanged, so they need no special case.
    """
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    root = 1 if removed == 0 else 0
    disc[root] = low[root] = t = 1
    root_children = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w == removed:
                continue
            if disc[w] < 0:
                t += 1
                disc[w] = low[w] = t
                stack.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if p == root:
                    root_children += 1
                elif low[v] >= disc[p]:
                    return True
    return root_children > 1


def is_connected(g: LabeledGraph) -> bool:
    return g.n > 0 and len(_component(g, 0)) == g.n


def connected_components(g: LabeledGraph) -> list[list[int]]:
    """Vertex-sorted components, ordered by their least vertex."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s not in seen:
            comps.append(sorted(_component(g, s)))
            seen.update(comps[-1])
    return comps


def connectivity(g: LabeledGraph) -> int:
    """Vertex connectivity capped at 3 (and at n - 1): 0 if g is
    disconnected, 1 if it has a cut vertex, 2 if it has a separation pair.

    One component search, one lowpoint search for a cut vertex, and one
    lowpoint search per vertex v for a cut vertex of g - v.  Nothing
    downstream distinguishes connectivities above 3, so no test goes
    further.
    """
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if not is_connected(g):
        return 0
    if g.n >= 3 and _has_cut_vertex(g):
        return 1
    if g.n >= 4 and any(_has_cut_vertex(g, v) for v in range(g.n)):
        return 2
    return min(3, g.n - 1)


# ---------------------------------------------------------------------------
# Base graphs
# ---------------------------------------------------------------------------

K1222 = "k1222"
K4NEG = "k4"

# Fixed vertex order of the bases; position is the vertex id.
_BASE_LABELS = {
    K1222: (0, 1, 2, 3, -1, -2, -3),
    K4NEG: (0, -1, -2, -3),
}


class _BaseGraphFields(NamedTuple):
    kind: str
    graph: LabeledGraph


class BaseGraph(_BaseGraphFields):
    """One of the two fixed base graphs, with deterministic vertex order."""

    @cached_property
    def label_to_vertex(self) -> dict[int, int]:
        return {lab: v for v, lab in enumerate(self.graph.labels)}

    @cached_property
    def spanning_tree_edges(self) -> tuple[int, ...]:
        """Edge ids of the apex star: the apex 0 is adjacent to every other
        vertex of both bases, so its incident edges span the base."""
        return tuple(sorted(self.graph.incident_edges[self.label_to_vertex[0]]))

    @cached_property
    def cotree_edges(self) -> tuple[int, ...]:
        tree = set(self.spanning_tree_edges)
        return tuple(i for i in range(self.graph.m) if i not in tree)

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles of the base, as sorted label triples."""
        labels = self.graph.labels
        return tuple(sorted(tuple(sorted(labels[v] for v in t)) for t in self.graph.triangles))

    @cached_property
    def octahedral_triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Triangles avoiding the apex label 0 (one vertex per +-i pair)."""
        return tuple(t for t in self.triangles if 0 not in t)


@cache
def make_base(kind: str) -> BaseGraph:
    """The canonical base graph of the given kind ('k1222' or 'k4'), built
    once per process."""
    if kind not in _BASE_LABELS:
        raise GraphError(f"unknown base kind {kind!r}")
    labels = _BASE_LABELS[kind]
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(len(labels)), 2)
        if labels_adjacent(labels[u], labels[v])
    ]
    return BaseGraph(kind, LabeledGraph(labels, tuple(edges)))


def base_triangle(base: BaseGraph, labels) -> tuple[int, int, int]:
    """Validate a label triple as a triangle of the base and normalize it."""
    t = tuple(sorted(labels))
    if len(set(t)) != 3 or t not in base.triangles:
        raise GraphError(f"{labels!r} is not a triangle of base {base.kind!r}")
    return t


# ---------------------------------------------------------------------------
# Lifts of base cycles
# ---------------------------------------------------------------------------


class CycleComponent(NamedTuple):
    """One connected component of the lift of a base triangle."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    kind: str  # "cycle" or "path"

    @property
    def length(self) -> int:
        return len(self.edges)


def find_cycles_covering(g: LabeledGraph, base_cycle, base: BaseGraph) -> list[CycleComponent]:
    """Components of the subgraph lying over a base triangle.

    Keeps the edges whose endpoint label pair is an edge of the given
    triangle; each component is classified as a cycle or a path.  On a
    genuine cover all components are cycles of length divisible by 3.
    """
    t = base_triangle(base, base_cycle)
    pairs = {frozenset(p) for p in itertools.combinations(t, 2)}
    lifted = LabeledGraph(
        g.labels,
        tuple(e for e in g.edges if frozenset((g.labels[e[0]], g.labels[e[1]])) in pairs),
    )
    comps = []
    for comp in connected_components(lifted):
        if len(comp) == 1:
            continue  # no lifted edge at this vertex
        members = set(comp)
        edges = tuple(e for e in lifted.edges if e[0] in members)
        cycle = len(edges) == len(comp) and all(lifted.degree(v) == 2 for v in comp)
        comps.append(CycleComponent(tuple(comp), edges, "cycle" if cycle else "path"))
    return comps


# ---------------------------------------------------------------------------
# Canonical forms (label-preserving isomorphism)
# ---------------------------------------------------------------------------


def _multi_adj(g: LabeledGraph) -> list[dict[int, int]]:
    adj: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    return adj


def _refine(colors: list[int], adj: list[dict[int, int]]) -> list[int]:
    n = len(colors)
    while True:
        sig = [
            (colors[v], tuple(sorted((colors[u], m) for u, m in adj[v].items())))
            for v in range(n)
        ]
        order = sorted(range(n), key=lambda v: sig[v])
        new = [0] * n
        c = 0
        for i, v in enumerate(order):
            if i and sig[v] != sig[order[i - 1]]:
                c += 1
            new[v] = c
        if new == colors:
            return colors
        colors = new


def _certificate(g: LabeledGraph, colors: list[int]) -> bytes:
    order = sorted(range(g.n), key=lambda v: colors[v])
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    labels = tuple(g.labels[v] for v in order)
    edges = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)
    return repr((g.n, labels, edges)).encode()


# No module of the package calls canonical_form.  It stays here only
# because the benchmark's workloads import it from this module; its move
# to the test oracles is part of the benchmark change of ROADMAP item 1a,
# which drops that import.
def canonical_form(g: LabeledGraph) -> bytes:
    """Canonical byte string: equal iff a label-preserving isomorphism
    maps one graph onto the other.

    Iterated label/degree refinement with full backtracking on the first
    non-singleton cell.  Exponential in the worst case, which is fine at
    the sizes this package handles (a few dozen vertices).
    """
    if g.n == 0:
        return b"empty"
    adj = _multi_adj(g)
    label_rank = {lab: i for i, lab in enumerate(sorted(set(g.labels)))}
    init = _refine([label_rank[l] for l in g.labels], adj)
    best: bytes | None = None

    def search(colors: list[int]) -> None:
        nonlocal best
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            groups.setdefault(c, []).append(v)
        target = None
        for c in sorted(groups):
            if len(groups[c]) > 1:
                target = groups[c]
                break
        if target is None:
            cert = _certificate(g, colors)
            if best is None or cert < best:
                best = cert
            return
        for v in target:
            branched = [c + (0 if c < colors[v] else 1) for c in colors]
            branched[v] = colors[v]
            search(_refine(branched, adj))

    search(init)
    assert best is not None
    return best

