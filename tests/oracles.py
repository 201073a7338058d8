"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own algorithms: planarity is
decided by exhaustive subdivision search, connectivity by exhaustive cut
enumeration with union-find, and the graph corpus is built by vertex
extension with canonical dedup.  The reference voltage scan keeps the
library's per-cover predicates but visits every normalized assignment,
so it checks the orbit reduction of the library's scan on its own.
"""

from __future__ import annotations

import itertools

from planecover.covers import derive, is_connected_cover, normalized_assignment
from planecover.embedding import is_planar
from planecover.graphs import LabeledGraph, canonical_form


def _adj_sets(g: LabeledGraph):
    return [set(a) for a in g.adj]


def _route_all(adj, branch, pairs, used):
    """Assign internally-disjoint paths for every required pair."""
    if not pairs:
        return True
    (u, v), rest = pairs[0], pairs[1:]
    blocked = (branch - {u, v}) | used

    def dfs(cur, internals):
        for w in adj[cur]:
            if w == v and cur != v:
                used.update(internals)
                if _route_all(adj, branch, rest, used):
                    return True
                used.difference_update(internals)
            elif w not in blocked and w not in internals and w != u and w != v:
                internals.add(w)
                if dfs(w, internals):
                    return True
                internals.discard(w)
        return False

    return dfs(u, set())


def has_k5_subdivision(g: LabeledGraph) -> bool:
    adj = _adj_sets(g)
    cand = [v for v in range(g.n) if len(adj[v]) >= 4]
    for branch in itertools.combinations(cand, 5):
        pairs = list(itertools.combinations(branch, 2))
        if _route_all(adj, set(branch), pairs, set()):
            return True
    return False


def has_k33_subdivision(g: LabeledGraph) -> bool:
    adj = _adj_sets(g)
    cand = [v for v in range(g.n) if len(adj[v]) >= 3]
    for six in itertools.combinations(cand, 6):
        for left in itertools.combinations(six[1:], 2):
            part_a = (six[0],) + left
            part_b = tuple(v for v in six if v not in part_a)
            pairs = [(a, b) for a in part_a for b in part_b]
            if _route_all(adj, set(six), pairs, set()):
                return True
    return False


def planar_by_subdivision_search(g: LabeledGraph) -> bool:
    """Kuratowski: planar iff no K5 and no K33 subdivision."""
    return not (has_k33_subdivision(g) or has_k5_subdivision(g))


def _components_union_find(n, edges, removed):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(v) for v in range(n) if v not in removed}
    return len(roots)


def connectivity_by_cut_search(g: LabeledGraph) -> int:
    """Exhaustive vertex-cut search with union-find, capped at 3."""
    n = g.n
    if _components_union_find(n, g.edges, frozenset()) > 1:
        return 0
    for k in (1, 2):
        if n - k < 2:
            break
        for cut in itertools.combinations(range(n), k):
            if _components_union_find(n, g.edges, frozenset(cut)) > 1:
                return k
    return min(3, n - 1)


def all_graphs_up_to(max_n: int) -> dict[int, list[LabeledGraph]]:
    """Every graph with up to max_n vertices, one per isomorphism class,
    built by vertex extension and canonical dedup (labels all zero)."""
    out = {1: [LabeledGraph((0,), ())]}
    for n in range(2, max_n + 1):
        seen = {}
        for g in out[n - 1]:
            for bits in range(1 << (n - 1)):
                edges = list(g.edges) + [
                    (v, n - 1) for v in range(n - 1) if (bits >> v) & 1
                ]
                cand = LabeledGraph((0,) * n, tuple(edges))
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = cand
        out[n] = list(seen.values())
    return out


def random_graph(rng, n: int, p: float) -> LabeledGraph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return LabeledGraph((0,) * n, tuple(edges))


def reference_scan_chunk(base, n: int, firsts, want_connected: bool, want_planar: bool):
    """Brute-force normalized voltage scan: every cotree tuple whose first
    voltage is in ``firsts``, one transitivity, planarity and canonical-form
    test per tuple.

    Returns (visited, connected_count, planar_count, classes) where classes
    maps canonical form -> [least voltage, assignment count].
    """
    perms = tuple(itertools.permutations(range(n)))
    visited = connected_count = planar_count = 0
    classes: dict[bytes, list] = {}
    for first in firsts:
        for rest in itertools.product(perms, repeat=len(base.cotree_edges) - 1):
            volt = (first, *rest)
            visited += 1
            va = normalized_assignment(base, n, volt)
            if want_connected and not is_connected_cover(va):
                continue
            connected_count += 1
            g, _ = derive(va)
            if want_planar and not is_planar(g):
                continue
            planar_count += 1
            entry = classes.setdefault(canonical_form(g), [volt, 0])
            entry[1] += 1
            entry[0] = min(entry[0], volt)
    return visited, connected_count, planar_count, classes
