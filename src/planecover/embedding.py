"""Combinatorial plane embeddings: rotation systems and face tracing.

An embedding is a cyclic order of incident edges at every vertex plus a
designated outer face.  Faces are the orbits of the face-tracing rule
(leave along the rotation successor of the arrival edge); a rotation
system is spherical exactly when V - E + F = 2.  No coordinates are ever
computed: every downstream predicate reads face walks and label sequences.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .graphs import GraphError, LabeledGraph, is_connected


class EmbeddingError(ValueError):
    """Malformed rotation system or face data."""


def trace_faces(n_vertices: int, edges, rotation) -> list[tuple[int, ...]]:
    """Face orbits of a rotation system, as tuples of darts.

    Dart 2*e runs from edges[e][0] to edges[e][1]; dart 2*e+1 is its
    reverse.  The successor of a dart d is the next dart out of head(d),
    in rotation order, after the reversal of d.  Works for multigraphs.
    """
    if len(rotation) != n_vertices:
        raise EmbeddingError(f"rotation has {len(rotation)} entries for {n_vertices} vertices")
    m = len(edges)
    succ = [-1] * (2 * m)  # next out-dart in the rotation at its tail
    for v in range(n_vertices):
        rot = rotation[v]
        out = []
        for eid in rot:
            u, w = edges[eid]
            if u == v:
                out.append(2 * eid)
            elif w == v:
                out.append(2 * eid + 1)
            else:
                raise EmbeddingError(f"edge {eid} in rotation of non-incident vertex {v}")
        for i, d in enumerate(out):
            if succ[d] != -1:
                raise EmbeddingError(f"edge repeated in rotation at vertex {v}")
            succ[d] = out[(i + 1) % len(out)]
    if any(s == -1 for s in succ):
        raise EmbeddingError("rotation misses some incident edges")
    faces = []
    seen = bytearray(2 * m)
    for d0 in range(2 * m):
        if seen[d0]:
            continue
        walk = []
        d = d0
        while not seen[d]:
            seen[d] = 1
            walk.append(d)
            d = succ[d ^ 1]
        if d != d0:
            raise EmbeddingError("face tracing did not close")
        faces.append(tuple(walk))
    return faces


def _canonical_rotation(seq: tuple) -> tuple:
    best = seq
    for i in range(1, len(seq)):
        cand = seq[i:] + seq[:i]
        if cand < best:
            best = cand
    return best


class _FaceWalkFields(NamedTuple):
    darts: tuple[int, ...]
    vertices: tuple[int, ...]  # tail of each dart, in walk order
    labels: tuple[int, ...]


class FaceWalk(_FaceWalkFields):
    """One face of an embedding: a closed walk of darts."""

    @property
    def length(self) -> int:
        return len(self.darts)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def is_simple_cycle(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def sort_key(self):
        return (self.length, _canonical_rotation(self.vertices), _canonical_rotation(self.darts))


class _PlaneEmbeddingFields(NamedTuple):
    graph: LabeledGraph
    rotation: tuple[tuple[int, ...], ...]
    outer_face: int


class PlaneEmbedding(_PlaneEmbeddingFields):
    """A spherical rotation system with a designated outer face."""

    def __new__(cls, graph: LabeledGraph, rotation, outer_face: int = 0):
        # tracing the faces validates the rotation and Euler's formula
        return super().__new__(cls, graph, rotation, 0).with_outer_face(outer_face)

    def with_outer_face(self, outer_face: int) -> PlaneEmbedding:
        """This embedding with face ``outer_face`` outer.  The faces do not
        depend on the outer face, so they are carried over, not traced
        again."""
        if not (0 <= outer_face < len(self.faces)):
            raise EmbeddingError(f"outer face id {outer_face} out of range")
        emb = self._replace(outer_face=outer_face)
        vars(emb)["faces"] = self.faces  # the cached_property's slot
        return emb

    @cached_property
    def faces(self) -> tuple[FaceWalk, ...]:
        g = self.graph
        if not g.m:  # no dart to trace a face from
            raise EmbeddingError("an embedding needs at least one edge")
        raw = trace_faces(g.n, g.edges, self.rotation)
        if g.n - g.m + len(raw) != 2:
            raise EmbeddingError(
                f"rotation has genus > 0: V={g.n} E={g.m} F={len(raw)}"
            )
        walks = []
        for darts in raw:
            tails = tuple(g.edges[d // 2][0] if d % 2 == 0 else g.edges[d // 2][1] for d in darts)
            walks.append(FaceWalk(darts, tails, tuple(g.labels[v] for v in tails)))
        walks.sort(key=FaceWalk.sort_key)
        return tuple(walks)

    @property
    def outer(self) -> FaceWalk:
        return self.faces[self.outer_face]

    @cached_property
    def dart_face(self) -> dict[int, int]:
        """Face id containing each dart."""
        out = {}
        for i, f in enumerate(self.faces):
            for d in f.darts:
                out[d] = i
        return out

    def restrict(self, vertices) -> tuple["PlaneEmbedding", dict[int, int], dict[int, int]]:
        """Embedding induced on a vertex subset.

        Returns the sub-embedding plus the vertex and edge id maps
        (old -> new).  The rotation of the subgraph is the restriction of
        the host rotation, so faces of the subgraph are unions of host
        faces.  The outer face is left at face 0; callers that care remap
        it through the face correspondence.
        """
        g = self.graph
        keep = set(vertices)
        sub, vmap = g.induced_subgraph(keep)
        if not sub.simple:
            raise EmbeddingError("restrict requires a simple subgraph")
        emap = {}
        for old_id, (u, v) in enumerate(g.edges):
            if u in keep and v in keep:
                emap[old_id] = sub.edges.index((vmap[u], vmap[v]))
        rot = []
        for v in range(g.n):
            if v in keep:
                rot.append(tuple(emap[e] for e in self.rotation[v] if e in emap))
        emb = PlaneEmbedding(sub, tuple(rot), 0)
        return emb, vmap, emap


# ---------------------------------------------------------------------------
# Planarity
# ---------------------------------------------------------------------------


class KuratowskiWitness(NamedTuple):
    """A verified subdivision of K5 or K33 inside a non-planar graph."""

    kind: str  # "K5" or "K33"
    edges: tuple[tuple[int, int], ...]
    branch_vertices: tuple[int, ...]


def _lr_planar(adj: list[int]) -> bool:
    """Brandes' left-right planarity test ("The Left-Right Planarity
    Test", 2009), verdict only, on bitmask adjacency rows.

    Both DFS phases climb back through ``up`` (the tree parent), with no
    DFS stack.  The orientation takes each vertex's next neighbour from
    ``left``; orienting (v, w) clears v from ``left[w]``, so each edge
    taken is a tree edge or a back edge to an ancestor, whose lowpoints
    and nesting depth are set at once.  ``low2`` is kept per vertex, for
    its tree edge.  The testing DFS takes out-edges by nesting depth and
    stacks conflict pairs [left low, left high, right low, right high] of
    return-edge ids (-1: empty) on an empty pair that is never popped.
    ``ref`` links each interval from its high end down (a -1 writes its
    spare last slot), without Brandes' links that only orient an embedding.
    """
    n = len(adj)
    m = sum(map(int.bit_count, adj)) >> 1
    height, parent, up = [-1] * n, [-1] * n, [-1] * n  # the tree edge into a vertex, its tail
    left, low2, e = adj[:], [0] * n, -1  # e: the last edge id given out
    out: list[list[int]] = [[] for _ in range(n)]
    head, low, nest = [0] * m, [0] * (m + 1), [0] * m  # low[m]: a root's dummy parent edge
    for v in range(n):  # v: each new root, then the DFS's current vertex
        if height[v] >= 0:
            continue
        height[v], parent[v] = 0, m
        while True:
            rest = left[v]
            if rest:
                bit = rest & -rest
                left[v] = rest ^ bit
                w = bit.bit_length() - 1
                left[w] ^= 1 << v  # w never looks back along (v, w)
                e += 1
                head[e] = w
                out[v].append(e)
                hv, hw = height[v], height[w]
                if hw < 0:
                    parent[w], up[w], height[w] = e, v, hv + 1
                    low[e] = low2[w] = hv
                    v = w
                    continue
                low[e], nest[e] = hw, 2 * hw  # a back edge, folded into v's parent edge
                lp = low[parent[v]]
                if hw < lp:
                    low[parent[v]], low2[v] = hw, lp
                elif lp < hw < low2[v]:
                    low2[v] = hw
                continue
            w, v = v, up[v]
            if v < 0:
                break
            f = parent[w]  # the tree edge (v, w) is done
            lf, l2 = low[f], low2[w]
            nest[f] = 2 * lf + (l2 < height[v])
            p = parent[v]
            lp = low[p]
            if lf < lp:
                low[p], low2[v] = lf, (lp if lp < l2 else l2)
            else:  # lf, or l2 on a tie, may be the new second lowpoint
                l2 = lf if lf > lp else l2
                if l2 < low2[v]:
                    low2[v] = l2

    for edges in out:
        if len(edges) > 1:
            edges.sort(key=nest.__getitem__)
    low[m] = -1  # low[-1]: an empty interval's high end conflicts with nothing
    ref, bottom, pos = [-1] * (m + 1), [None] * n, [0] * n
    S = [[-1, -1, -1, -1]]  # never empty: its bottom pair conflicts with nothing
    for v in range(n):
        if up[v] >= 0:
            continue
        while True:
            i = pos[v]
            edges = out[v]
            if i < len(edges):
                ei = edges[i]
                w = head[ei]
                if parent[w] == ei:
                    bottom[w] = S[-1]
                    v = w  # ei is integrated once w is done
                    continue
                pos[v] = i + 1
                if i == 0:
                    S.append([-1, -1, ei, ei])
                    continue
                pl = ph = -1  # a later back edge is its own pair, merged at once
                rl = rh = ei if low[ei] > low[parent[v]] else -1
            else:
                w, v = v, up[v]
                if v < 0:
                    break
                hv = height[v]
                while True:  # drop the pairs whose lowest return edge ends at v
                    a, _, c, _ = P = S[-1]
                    if (low[c] if a < 0 else low[a] if c < 0 else min(low[a], low[c])) != hv:
                        break
                    S.pop()
                for hi in (1, 3):  # trim the next pair's intervals
                    h = P[hi]
                    while h >= 0 and head[h] == v:
                        h = ref[h]
                    P[hi] = h
                    if h < 0:
                        P[hi - 1] = -1
                i = pos[v]
                pos[v] = i + 1
                ei = parent[w]
                if i == 0 or low[ei] >= hv:
                    continue
                # merge the return edges of ei into the new pair's right (rl, rh)
                le, b = low[parent[v]], bottom[w]
                pl = ph = rl = rh = -1
                while S[-1] is not b:
                    ql, qh, sl, sh = S.pop()
                    if ql >= 0 or qh >= 0:
                        if sl >= 0 or sh >= 0:
                            return False
                        sl, sh = ql, qh
                    if low[sl] > le:  # else aligned with e's lowest return edge: dropped
                        if rl < 0 and rh < 0:
                            rh = sh
                        else:
                            ref[rl] = sh
                        rl = sl
            lei = low[ei]
            while True:  # conflicting return edges of earlier siblings: into its left
                ql, qh, sl, sh = S[-1]
                if low[sh] > lei:
                    if low[qh] > lei:
                        return False
                    ql, qh, sl, sh = sl, sh, ql, qh
                elif low[qh] <= lei:
                    break
                S.pop()
                ref[rl] = sh
                if sl >= 0:
                    rl = sl
                if pl < 0 and ph < 0:
                    ph = qh
                else:
                    ref[pl] = qh
                pl = ql
            if pl >= 0 or ph >= 0 or rl >= 0 or rh >= 0:
                S.append([pl, ph, rl, rh])
    return True


def adjacency_rows(nverts: int, edges) -> list[int]:
    """Bitmask adjacency rows of the graph on vertices 0..nverts-1 spanned
    by a loop-free edge list; repeated edges set the same bits."""
    rows = [0] * nverts
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def has_thin_edge(rows: list[int], vertices, within: int, known: int, need: int) -> bool:
    """Whether some edge from a vertex of ``vertices`` to a vertex of the
    bitmask ``within`` has fewer than ``need`` common neighbours in the
    bitmask ``known``, in the bitmask adjacency rows ``rows``.

    In a triangulation with V >= 4 every edge lies on two facial triangles
    with distinct third vertices, so an edge with fewer than two common
    neighbours (``known`` every vertex, ``need`` 2) rules one out.  A
    caller that knows only part of the graph passes the vertices whose
    adjacency to both ends is final as ``known`` and lowers ``need`` by
    the most common neighbours the rest can still add.
    """
    for u in vertices:
        row = rows[u]
        rest = row & within
        while rest:
            bit = rest & -rest
            rest ^= bit
            if (row & rows[bit.bit_length() - 1] & known).bit_count() < need:
                return True
    return False


def planar_rows(rows: list[int], m: int) -> bool:
    """Planarity of the simple graph with bitmask adjacency rows ``rows``
    and ``m`` edges: the package's one planarity decision.

    A simple planar graph with V >= 3 has at most 3V - 6 edges, and one
    with exactly 3V - 6 is a triangulation, which has no thin edge
    (:func:`has_thin_edge`).  Graphs failing either count are rejected
    before the left-right test runs.
    """
    nverts = len(rows)
    if nverts >= 3 and m > 3 * nverts - 6:
        return False
    if nverts >= 4 and m == 3 * nverts - 6 and has_thin_edge(rows, range(nverts), -1, -1, 2):
        return False
    return _lr_planar(rows)


def planar_edges(nverts: int, edges) -> bool:
    """Planarity of the graph on vertices 0..nverts-1 spanned by a
    loop-free edge list (repeated edges do not change the verdict): its
    :func:`adjacency_rows`, then the one decision, :func:`planar_rows`."""
    rows = adjacency_rows(nverts, edges)
    return planar_rows(rows, sum(r.bit_count() for r in rows) // 2)


def is_planar(g: LabeledGraph) -> bool:
    return planar_edges(g.n, g.edges)


def validate_kuratowski(g: LabeledGraph, edges) -> KuratowskiWitness:
    """Independently check that an edge set is a K5/K33 subdivision in g."""
    edge_set = set()
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if not g.has_edge(*e):
            raise EmbeddingError(f"witness edge {e} not in graph")
        edge_set.add(e)
    deg: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for u, v in edge_set:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = sorted(v for v, d in deg.items() if d > 2)
    if any(d < 2 for d in deg.values()):
        raise EmbeddingError("witness has a degree-1 vertex")
    # Contract each branch-to-branch path through degree-2 vertices.
    contracted = set()
    for b in branch:
        for start in adj[b]:
            prev, cur = b, start
            while deg[cur] == 2:
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                prev, cur = cur, nxt
            if cur == b:
                raise EmbeddingError("witness path returns to its own branch vertex")
            contracted.add(tuple(sorted((b, cur))))
    degs = sorted(deg[b] for b in branch)
    if degs == [4] * 5 and len(contracted) == 10:
        kind = "K5"
    elif degs == [3] * 6 and len(contracted) == 9:
        part = {branch[0]: 0}
        stack = [branch[0]]
        ok = True
        nbr = {b: set() for b in branch}
        for x, y in contracted:
            nbr[x].add(y)
            nbr[y].add(x)
        while stack:
            b = stack.pop()
            for c in nbr[b]:
                if c not in part:
                    part[c] = 1 - part[b]
                    stack.append(c)
                elif part[c] == part[b]:
                    ok = False
        if not ok:
            raise EmbeddingError("witness branch graph is not bipartite")
        kind = "K33"
    else:
        raise EmbeddingError(f"witness is not a K5/K33 subdivision: degrees {degs}")
    return KuratowskiWitness(kind, tuple(sorted(edge_set)), tuple(branch))


def planarity(g: LabeledGraph) -> PlaneEmbedding | KuratowskiWitness:
    """Decide planarity by :func:`planar_edges`; return an embedding or a
    verified witness, both built by networkx.  networkx's verdict must
    agree, or EmbeddingError is raised."""
    if not g.simple:
        raise GraphError("planarity operates on simple graphs")
    if g.n == 0 or not is_connected(g):
        raise GraphError("planarity requires a connected input")
    import networkx as nx  # builds the embedding or the witness only

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    if planar_edges(g.n, g.edges):
        ok, cert = nx.check_planarity(G, counterexample=False)
        if not ok:
            raise EmbeddingError("networkx finds no embedding of a graph decided planar")
        data = cert.get_data()
        edge_id = {e: i for i, e in enumerate(g.edges)}
        rotation = []
        for v in range(g.n):
            rotation.append(tuple(edge_id[(v, u) if v < u else (u, v)] for u in data[v]))
        return PlaneEmbedding(g, tuple(rotation))
    try:
        sub = nx.algorithms.planarity.get_counterexample(G)
    except nx.NetworkXException as exc:
        raise EmbeddingError("networkx embeds a graph decided non-planar") from exc
    return validate_kuratowski(g, list(sub.edges()))


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


def triangle_faces(emb: PlaneEmbedding) -> set[frozenset[int]]:
    return {f.vertex_set for f in emb.faces if f.length == 3}

