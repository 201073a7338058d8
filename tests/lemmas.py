"""Checkers of the paper's structural lemmas, used only by the tests.

No command, certificate or benchmark reads these: the certificate chain
(the fold-2 covers scan, the fragment search, the quotient shapes and the
counting bounds) never needs them.  The tests run them on the fixtures to
check the facts the paper proves along the way: every edge of a cover
joins labels adjacent in the base; a peripheral cycle is chordless and
non-separating; the face conditions of an embedded cover
(short lifts of base triangles are facial, no face is a long lift of one);
the fold m + 1 of a cover of K(1,2,2,2) whose faces are one 3m-gon and
triangles; the inner vertices of every bead lie on two distinct faces;
the trapezia of a semi-cover; and the (1,2,3) triangles supported on a
string, with the three configurations of a minimal one.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from planecover.covers import SemiCover
from planecover.embedding import FaceWalk, PlaneEmbedding, triangle_faces
from planecover.graphs import (
    K4_LABELS,
    BaseGraph,
    GraphError,
    LabeledGraph,
    find_cycles_covering,
    is_connected,
    labels_adjacent,
)
from planecover.structure import (
    _NEG_SET,
    _POS_SET,
    Bead,
    FaceRefinement,
    StringDesc,
    StructureError,
    _bead_hosts,
    find_beads,
    positive_triangles,
)

# ---------------------------------------------------------------------------
# Cycle predicates and face conditions
# ---------------------------------------------------------------------------


def is_label_consistent(g: LabeledGraph) -> bool:
    """Every edge joins vertices whose labels are adjacent in the base."""
    return all(labels_adjacent(g.labels[u], g.labels[v]) for u, v in g.edges)


def _is_cycle_of(g: LabeledGraph, cycle) -> bool:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def is_peripheral(g: LabeledGraph, cycle) -> bool:
    """Chordless cycle whose vertex deletion leaves the graph connected."""
    cycle = tuple(cycle)
    if not _is_cycle_of(g, cycle):
        raise GraphError(f"{cycle!r} is not a cycle of the graph")
    k = len(cycle)
    for i, j in itertools.combinations(range(k), 2):
        if abs(i - j) in (1, k - 1):
            continue
        if g.has_edge(cycle[i], cycle[j]):
            return False
    rest = [v for v in range(g.n) if v not in set(cycle)]
    if not rest:
        return True
    sub, _ = g.induced_subgraph(rest)
    return is_connected(sub)


class FaceConditionReport(NamedTuple):
    """Face-level conditions on an embedded cover.

    Fold number and triangular face count are raw statistics (the
    chosen-cover minimality and triangle-maximality properties are global
    claims over all covers and cannot be decided on one instance);
    short_lifts_facial demands every length-3 lift of a base triangle to
    bound a face, and no_long_triangle_face forbids faces that are long
    cycles over a single base triangle.
    """

    fold: int
    triangular_faces: int
    short_lifts_facial: bool
    short_lift_violations: tuple[tuple[int, ...], ...]
    no_long_triangle_face: bool
    long_face_violations: tuple[int, ...]


def face_edge_ids(face: FaceWalk) -> tuple[int, ...]:
    """The edge ids of a face walk, in walk order: dart d runs along edge d // 2."""
    return tuple(d // 2 for d in face.darts)


def cover_face_conditions(emb: PlaneEmbedding, base: BaseGraph, fold: int) -> FaceConditionReport:
    """Check the face conditions for an embedded cover of the base."""
    g = emb.graph
    if not is_label_consistent(g):
        raise GraphError("embedded graph is not label-consistent")
    tri_faces = triangle_faces(emb)
    short_viol = []
    long_lift_cycles = set()
    for t in base.triangles:
        for comp in find_cycles_covering(g, t, base):
            if comp.kind != "cycle":
                continue
            if comp.length > 3:
                long_lift_cycles.add(frozenset(comp.edges))
            elif comp.length == 3 and frozenset(comp.vertices) not in tri_faces:
                short_viol.append(comp.vertices)
    long_viol = [
        i
        for i, f in enumerate(emb.faces)
        if f.length > 3
        and f.is_simple_cycle()
        and frozenset(g.edges[e] for e in face_edge_ids(f)) in long_lift_cycles
    ]
    return FaceConditionReport(
        fold=fold,
        triangular_faces=sum(1 for f in emb.faces if f.length == 3),
        short_lifts_facial=not short_viol,
        short_lift_violations=tuple(short_viol),
        no_long_triangle_face=not long_viol,
        long_face_violations=tuple(long_viol),
    )


def fold_from_single_long_face(m: int) -> int:
    """Fold number forced on a cover of K(1,2,2,2) whose faces are one
    3m-gon and triangles elsewhere.

    With 7n vertices and 18n edges Euler gives 11n + 2 faces; equating
    total face length 3(11n + 1) + 3m with 36n yields n = m + 1.
    """
    if m < 2:
        raise ValueError("the long face must have length at least 6 (m >= 2)")
    return m + 1


# ---------------------------------------------------------------------------
# Beads, strings and trapezia
# ---------------------------------------------------------------------------


def detect_beads(emb: PlaneEmbedding) -> list[Bead]:
    """Beads of an embedded fragment.

    Also checks that the two inner vertices of every bead lie on two
    distinct non-triangular faces of the embedding.
    """
    beads = find_beads(emb.graph)
    for b, (fa, fb) in zip(beads, _bead_hosts(emb, beads)):
        if fa == fb:
            raise StructureError(
                f"both inner vertices of bead at zero {b.zero} lie on one face"
            )
    return beads


def string_vertices(string: StringDesc) -> frozenset[int]:
    """Every vertex of a string's beads plus its two terminals' external ends."""
    out = {string.neg_terminal[1], string.zero_terminal[1]}
    for b in string.beads:
        out |= b.vertices
    return frozenset(out)


def string_spine(string: StringDesc) -> tuple[int, ...]:
    """Spine of the string from its 0-terminal up to its -k-terminal,
    omitting the inner vertices (both lie off the spine)."""
    out = [string.zero_terminal[1]]
    for b in reversed(string.beads):
        out.extend((b.kvert, b.zero))
    out.append(string.neg_terminal[1])
    return tuple(out)


class Trapezium(NamedTuple):
    """A (1,2,3) triangle with -i and -k attached by four edges."""

    type_label: int  # j
    triangle: tuple[int, int, int]  # vertices labelled 1, 2, 3 in order
    neg_i: int
    neg_k: int
    i_label: int
    k_label: int


def detect_trapezia(sc: SemiCover) -> list[Trapezium]:
    """All trapezium subgraphs (any type) in a semi-cover."""
    g = sc.graph
    out = []
    for v1, v2, v3 in positive_triangles(g):
        by_label = {1: v1, 2: v2, 3: v3}
        for j in (1, 2, 3):
            i, k = sorted(_POS_SET - {j})
            vi, vj, vk = by_label[i], by_label[j], by_label[k]
            negk = [
                v
                for v in g.adj[vj]
                if g.labels[v] == -k and g.has_edge(v, vi)
            ]
            negi = [
                v
                for v in g.adj[vj]
                if g.labels[v] == -i and g.has_edge(v, vk)
            ]
            for x in negk:
                for y in negi:
                    out.append(Trapezium(j, (v1, v2, v3), y, x, i, k))
    return sorted(out, key=lambda t: (t.triangle, t.type_label))


# ---------------------------------------------------------------------------
# Triangles supported on a string
# ---------------------------------------------------------------------------


class SupportedTriangle(NamedTuple):
    """One (1,2,3) triangle in a face, with its attachment data."""

    triangle: tuple[int, int, int]
    attachments: tuple[int, ...]  # attachment vertices, ambient ids
    on_string: bool  # every attachment lies on the string
    span: tuple[int, int] | None  # (bottom, top) positions along the string
    bottom_label: int | None
    top_label: int | None
    minimal: bool
    configuration: int | None  # 1..3 for minimal supported triangles


class SupportReport(NamedTuple):
    string_positions: tuple[int, ...]  # spine vertices, bottom (0 end) first
    triangles: tuple[SupportedTriangle, ...]


def triangles_supported_on_string(
    sc: SemiCover, string: StringDesc, face_id: int, ref: FaceRefinement
) -> SupportReport:
    """Attachment analysis for the (1,2,3) triangles inside one face.

    Positions along the string run upward from the 0-terminal to the
    -k-terminal; a triangle is supported when all its attachment vertices
    lie on the string, and supported triangles are ordered by attachment
    interval nesting, with minimal ones classified into the three possible
    local configurations.  The string is given in fragment vertex ids, as
    ``detect_strings`` returns it on the fragment graph.
    """
    g = sc.graph
    # the fragment numbers the K4-labelled vertices in increasing order
    # (``PlaneEmbedding.restrict``), so fragment vertex i is this one
    h_to_ambient = tuple(v for v in range(g.n) if g.labels[v] in K4_LABELS)
    spine = tuple(h_to_ambient[v] for v in string_spine(string))
    string_vs = {h_to_ambient[v] for v in string_vertices(string)}
    inner_pairs = [tuple(h_to_ambient[x] for x in b.inner) for b in string.beads]

    face_walk = ref.h_embedding.faces[face_id]
    face_vs_ambient = {h_to_ambient[v] for v in face_walk.vertex_set}
    if not face_vs_ambient & string_vs:
        raise StructureError("the string does not bound the given face")

    # Insert the face-side inner vertex of each bead into the spine order;
    # walking up from the 0-terminal each bead reads kvert, inner, zero.
    positions: list[int] = []
    for idx, v in enumerate(spine):
        positions.append(v)
        if idx % 2 == 1 and (idx - 1) // 2 < len(inner_pairs):
            pair = inner_pairs[len(inner_pairs) - 1 - (idx - 1) // 2]
            face_side = [x for x in pair if x in face_vs_ambient]
            if len(face_side) == 1:
                positions.append(face_side[0])
    pos_index = {v: i for i, v in enumerate(positions)}

    tris = ref.triangles_in_face.get(face_id, ())
    entries = []
    spans = {}
    for tri in tris:
        tri_set = set(tri)
        attach = sorted({u for v in tri for u in g.adj[v] if u not in tri_set})
        on_string = bool(attach) and all(u in string_vs for u in attach)
        here = sorted(pos_index[u] for u in attach if u in pos_index)
        span = (here[0], here[-1]) if here else None
        spans[tri] = (span, on_string)
        entries.append((tri, attach, on_string, span))

    inner_set = {x for pair in inner_pairs for x in pair}
    out = []
    for tri, attach, on_string, span in entries:
        minimal = False
        config = None
        if on_string and span is not None:
            minimal = not any(
                other != tri
                and sp is not None
                and o_on
                and span[0] <= sp[0]
                and sp[1] <= span[1]
                and sp != span
                for other, (sp, o_on) in spans.items()
            )
            if minimal:
                config = _classify_configuration(g, tri, pos_index, inner_set)
        out.append(
            SupportedTriangle(
                triangle=tri,
                attachments=tuple(attach),
                on_string=on_string,
                span=span,
                bottom_label=None if span is None else g.labels[positions[span[0]]],
                top_label=None if span is None else g.labels[positions[span[1]]],
                minimal=minimal,
                configuration=config,
            )
        )
    return SupportReport(tuple(positions), tuple(out))


def _classify_configuration(g, tri, pos_index, inner_set) -> int | None:
    """Which of the three minimal-triangle pictures is present.

    The two inner vertices served by the triangle sit on consecutive
    beads; the free choices are whether the lower triangle vertex takes
    its -k attachment from above or below, and whether the upper one takes
    its 0 attachment from above or below.
    """
    inner_attach: dict[int, set[int]] = {}
    for v in tri:
        for u in g.adj[v]:
            if u in pos_index and u in inner_set:
                inner_attach.setdefault(u, set()).add(v)
    served = [u for u, vs in inner_attach.items() if len(vs) == 2]
    if len(served) != 2:
        return None
    served.sort(key=lambda u: pos_index[u])
    low, up = served
    kv = next(iter(inner_attach[low] & inner_attach[up]), None)
    if kv is None:
        return None
    jv = (inner_attach[up] - {kv}).pop()
    iv = (inner_attach[low] - {kv}).pop()
    i_negk = [
        u
        for u in g.adj[iv]
        if u in pos_index and g.labels[u] in _NEG_SET and u not in served
    ]
    j_zero = [u for u in g.adj[jv] if u in pos_index and g.labels[u] == 0]
    if len(i_negk) != 1 or len(j_zero) != 1:
        return None
    ik_above = pos_index[i_negk[0]] > pos_index[up]
    j0_above = pos_index[j_zero[0]] > pos_index[up]
    if j0_above and ik_above:
        return 1
    if j0_above and not ik_above:
        return 2
    if not j0_above and not ik_above:
        return 3
    return None
