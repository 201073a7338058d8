"""Covers, semi-covers, and permutation voltage assignments.

A graph G covers a base K when some onto vertex map, a tuple of base
vertex ids, sends the neighbors of every vertex bijectively onto the
neighbors of its image.  A plane semi-cover's map is its vertex labels,
and it relaxes the condition to injectivity on the outer face alone.  All
n-fold covers of a base arise from a permutation per edge (a voltage
assignment).  Both bases are cones over the apex 0, so their spanning
tree is the apex star; setting its voltages to the identity removes the
fiber-relabeling redundancy.  On such a normalized assignment the
fundamental cycle of a cotree edge carries that edge's own voltage, so
the derived graph is connected iff the cotree voltages act transitively
on the sheets.  ``join_sheets`` merges the sheet orbits of one more
voltage; the orbit scan calls it once per cotree level, reusing each
voltage prefix's orbits, so a voltage is connected when its orbits are
one.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .embedding import PlaneEmbedding
from .graphs import (
    BaseGraph,
    LabeledGraph,
    connected_components,
    is_connected,
)


class CoverError(ValueError):
    """Structurally invalid cover/semi-cover input."""


class Violation(NamedTuple):
    """Where and how the neighbor condition failed."""

    vertex: int
    reason: str
    neighbor_images: tuple[int, ...]

    def __str__(self):
        return f"vertex {self.vertex}: {self.reason} (neighbor images {list(self.neighbor_images)})"


class CoverVerdict(NamedTuple):
    ok: bool
    fold: int | None = None
    per_component_folds: tuple[int, ...] = ()
    violation: Violation | None = None


def label_projection(source: LabeledGraph, base: BaseGraph) -> tuple[int, ...]:
    """The projection induced by vertex labels (the usual convention)."""
    try:
        return tuple(base.label_to_vertex[lab] for lab in source.labels)
    except KeyError as exc:
        raise CoverError(f"source label {exc.args[0]!r} missing from base {base.kind!r}") from exc


def _neighbor_violation(source: LabeledGraph, base: BaseGraph, vertex_map, boundary) -> Violation | None:
    """The first vertex whose neighbors do not map bijectively onto its
    image's base neighbors, or None; those in ``boundary`` need only map
    injectively into them."""
    if len(vertex_map) != source.n:
        raise CoverError("vertex_map length does not match the source graph")
    for v, b in enumerate(vertex_map):
        if not 0 <= b < base.graph.n:
            raise CoverError(f"vertex {v} maps to {b}, which is not a vertex id of base {base.kind!r}")
    missing = sorted(set(range(base.graph.n)) - set(vertex_map))
    if missing:
        raise CoverError(f"no vertex projects onto base labels {[base.graph.labels[b] for b in missing]}")
    base_adj = [set(a) for a in base.graph.adj]
    for v in range(source.n):
        images = tuple(sorted(vertex_map[u] for u in source.adj[v]))
        image_set = set(images)
        target = base_adj[vertex_map[v]]
        if len(images) != len(image_set) or not image_set <= target:
            return Violation(v, "neighbor images not injective into the base neighborhood", images)
        if v not in boundary and image_set != target:
            return Violation(v, "interior vertex not bijective onto the base neighborhood", images)
    return None


def verify_cover(source: LabeledGraph, base: BaseGraph, vertex_map) -> CoverVerdict:
    """Check the bijective neighbor condition.

    Returns the fold number on success, or reports the offending vertex.
    The condition fixes the fold: over each base edge xy the source edges
    match the fibers of x and y one to one (two vertices of one fiber with
    the same neighbor over y would repeat an image at that neighbor), so
    each component meets every fiber of the connected base equally often.
    Disconnected sources report per-component folds instead of one fold.
    """
    violation = _neighbor_violation(source, base, vertex_map, frozenset())
    if violation is not None:
        return CoverVerdict(False, violation=violation)
    if is_connected(source):
        return CoverVerdict(True, fold=source.n // base.graph.n)
    folds = tuple(len(comp) // base.graph.n for comp in connected_components(source))
    return CoverVerdict(True, fold=None, per_component_folds=folds)


# ---------------------------------------------------------------------------
# Semi-covers
# ---------------------------------------------------------------------------


class _SemiCoverFields(NamedTuple):
    embedding: PlaneEmbedding
    base: BaseGraph


class SemiCover(_SemiCoverFields):
    """A plane graph whose vertex labels project it onto a base.

    Interior vertices must satisfy the bijective neighbor condition,
    outer-face vertices only the injective one.
    """

    @cached_property
    def projection(self) -> tuple[int, ...]:
        return label_projection(self.embedding.graph, self.base)

    @property
    def graph(self) -> LabeledGraph:
        return self.embedding.graph


def verify_semicover(sc: SemiCover) -> CoverVerdict:
    """Interior-bijective, boundary-injective neighbor conditions."""
    violation = _neighbor_violation(sc.graph, sc.base, sc.projection, sc.embedding.outer.vertex_set)
    return CoverVerdict(violation is None, violation=violation)


# ---------------------------------------------------------------------------
# Voltage assignments
# ---------------------------------------------------------------------------


class _VoltageAssignmentFields(NamedTuple):
    base: BaseGraph
    n: int
    perms: tuple[tuple[int, ...], ...]  # indexed by base edge id


class VoltageAssignment(_VoltageAssignmentFields):
    """A permutation of the sheets per base edge, on the fixed orientation
    from the lower to the higher vertex id.  Traversing an edge backwards
    applies the inverse."""

    def __new__(cls, base: BaseGraph, n: int, perms):
        if n < 1:
            raise CoverError("fold must be at least 1")
        if len(perms) != base.graph.m:
            raise CoverError("one permutation per base edge required")
        ident = tuple(range(n))
        for p in perms:
            if tuple(sorted(p)) != ident:
                raise CoverError(f"{p!r} is not a permutation of 0..{n - 1}")
        return super().__new__(cls, base, n, perms)


def normalized_assignment(base: BaseGraph, n: int, cotree_perms) -> VoltageAssignment:
    """Assignment with identity on the spanning tree and the given
    permutations on the cotree edges (in cotree edge order)."""
    ident = tuple(range(n))
    perms = [ident] * base.graph.m
    cotree = base.cotree_edges
    cotree_perms = tuple(tuple(p) for p in cotree_perms)
    if len(cotree_perms) != len(cotree):
        raise CoverError("one permutation per cotree edge required")
    for eid, p in zip(cotree, cotree_perms):
        perms[eid] = p
    return VoltageAssignment(base, n, tuple(perms))


def derived_edges(base_edges, n: int, perms) -> list[tuple[int, int]]:
    """Edges of the derived graph over the given base edges, one voltage
    per edge.

    Vertex (b, i) gets id b*n + i; base edge (u, w) with u < w and
    voltage s contributes the edges (u, i) -- (w, s[i]).
    """
    return [
        (u * n + i, w * n + s[i])
        for (u, w), s in zip(base_edges, perms)
        for i in range(n)
    ]


def derive(v: VoltageAssignment) -> tuple[LabeledGraph, tuple[int, ...]]:
    """Derived graph on (base vertex, sheet) pairs plus its vertex map."""
    base_g = v.base.graph
    n = v.n
    ordered_labels = tuple(base_g.labels[b] for b in range(base_g.n) for _ in range(n))
    source = LabeledGraph(ordered_labels, tuple(derived_edges(base_g.edges, n, v.perms)))
    return source, tuple(b for b in range(base_g.n) for _ in range(n))


def join_sheets(orbits: tuple[int, ...], p) -> tuple[int, ...]:
    """The sheet orbits once the permutation ``p`` joins the group:
    ``orbits[i]`` is the bitmask of sheet i's orbit, and each pair i, p[i]
    merges two orbits.  The orbits of the trivial group on n sheets are
    ``tuple(1 << i for i in range(n))``."""
    for i, j in enumerate(p):
        if not orbits[i] >> j & 1:
            joined = orbits[i] | orbits[j]
            orbits = tuple(joined if o & joined else o for o in orbits)
    return orbits


def is_connected_cover(v: VoltageAssignment) -> bool:
    """True iff the derived graph is connected."""
    return is_connected(derive(v)[0])


def lift_subgraph(g: LabeledGraph, base: BaseGraph, vmap, sub_labels) -> tuple[LabeledGraph, dict[int, int]]:
    """Preimage under ``vmap`` of the base subgraph induced on the
    vertices that ``sub_labels`` names (by label): the source vertices
    over them and the source edges over base edges among them."""
    try:
        sub_vs = {base.label_to_vertex[lab] for lab in sub_labels}
    except KeyError as exc:
        raise CoverError(f"label {exc.args[0]!r} not in base") from exc
    allowed = {(u, w) for u, w in base.graph.edges if u in sub_vs and w in sub_vs}
    keep = [v for v in range(g.n) if vmap[v] in sub_vs]
    new_id = {v: i for i, v in enumerate(keep)}
    edges = []
    for u, w in g.edges:
        if u in new_id and w in new_id:
            bu, bw = vmap[u], vmap[w]
            be = (bu, bw) if bu < bw else (bw, bu)
            if be in allowed:
                edges.append((new_id[u], new_id[w]))
    lifted = LabeledGraph(tuple(g.labels[v] for v in keep), tuple(edges))
    return lifted, new_id


# ---------------------------------------------------------------------------
# Conjugacy class representatives of the symmetric group
# ---------------------------------------------------------------------------


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def conjugacy_representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """One permutation per conjugacy class of S_n (cycle-type reps).

    Sheet relabeling acts on voltage assignments by simultaneous
    conjugation, so restricting the first cotree edge to class
    representatives still reaches every derived graph up to isomorphism.
    The search then takes each later cotree voltage up to conjugation by
    the centralizer of the representative (and of the voltages chosen
    before it), which leaves one tuple per orbit.
    """
    reps = []
    for part in _partitions(n):
        p = list(range(n))
        pos = 0
        for size in part:
            for k in range(size):
                p[pos + k] = pos + (k + 1) % size
            pos += size
        reps.append(tuple(p))
    return tuple(sorted(reps))
