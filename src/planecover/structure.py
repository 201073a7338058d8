"""Structural analysis of embedded K4-cover fragments.

Inside a putative planar cover of K(1,2,2,2), each long octahedral cycle
bounds a domain containing a semi-cover G' whose K4-labelled part H is a
3-regular cover of K4.  This module detects the combinatorial gadgets of
that situation (beads, strings, necklaces), checks the
admissibility conditions every such fragment must satisfy, evaluates the
exclusion predicates that rule whole shapes out, and contracts admissible
fragments to their cubic bipartite quotients.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .covers import CoverError, SemiCover, label_projection, verify_cover
from .embedding import (
    PlaneEmbedding,
    all_triangles,
    trace_faces,
    triangle_faces,
)
from .graphs import (
    K4_LABELS,
    K4NEG,
    LabeledGraph,
    connected_components,
    connectivity,
    find_cycles_covering,
    is_connected,
    make_base,
)

_K4_LABEL_SET = frozenset(K4_LABELS)
_NEG_SET = frozenset((-1, -2, -3))
_POS_SET = frozenset((1, 2, 3))


class StructureError(ValueError):
    """Input outside an operation's domain."""


class QuotientError(StructureError):
    """The fragment cannot be contracted to a quotient graph."""


# ---------------------------------------------------------------------------
# Face label patterns
# ---------------------------------------------------------------------------


class PatternResult(NamedTuple):
    """Outcome of matching a face walk against the admissible label order.

    Non-triangular faces of a K4-cover fragment must read
    0, a1, b1, 0, a2, b2, ... with a_i, b_i in {-1, -2, -3}; triangles are
    reported as such, and anything else carries the first bad position.
    """

    kind: str  # "triangle", "pattern", or "mismatch"
    m: int = 0
    pairs: tuple[tuple[int, int], ...] = ()
    position: int | None = None


def face_label_pattern(face_labels) -> PatternResult:
    """Match a cyclic label sequence against the 0,a,b repetition."""
    labs = tuple(face_labels)
    if not set(labs) <= _K4_LABEL_SET:
        bad = next(l for l in labs if l not in _K4_LABEL_SET)
        raise StructureError(f"face label {bad!r} outside the K4 alphabet")
    k = len(labs)
    if k == 3:
        return PatternResult("triangle")
    zeros = [i for i, l in enumerate(labs) if l == 0]
    if not zeros or k % 3 != 0:
        return PatternResult("mismatch", position=zeros[0] if zeros else 0)
    start = zeros[0]
    for off in range(0, k, 3):
        i = (start + off) % k
        if labs[i] != 0:
            return PatternResult("mismatch", position=i)
        if labs[(i + 1) % k] == 0:
            return PatternResult("mismatch", position=(i + 1) % k)
        if labs[(i + 2) % k] == 0:
            return PatternResult("mismatch", position=(i + 2) % k)
    pairs = tuple(
        (labs[(start + off + 1) % k], labs[(start + off + 2) % k]) for off in range(0, k, 3)
    )
    return PatternResult("pattern", m=k // 3, pairs=pairs)


# ---------------------------------------------------------------------------
# Beads, strings, necklaces
# ---------------------------------------------------------------------------


class Bead(NamedTuple):
    """K4 minus the (0, -k) edge: a 4-vertex block of a string."""

    zero: int
    inner: tuple[int, int]
    kvert: int
    type_label: int  # the label of kvert (-1, -2 or -3)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset((self.zero, self.kvert) + self.inner)


class StringDesc(NamedTuple):
    """Maximal chain of beads plus its two terminal edges.

    Beads are listed from the black end (the external -k vertex the first
    bead's zero attaches to) to the white end (the external 0 the last
    bead's -k vertex attaches to); all beads share the type label.
    """

    beads: tuple[Bead, ...]
    type_label: int
    neg_terminal: tuple[int, int]  # (first bead zero, external -k vertex)
    zero_terminal: tuple[int, int]  # (last bead kvert, external 0 vertex)


def find_beads(g: LabeledGraph) -> list[Bead]:
    """All bead subgraphs of a K4-cover fragment (graph-level)."""
    beads = []
    for x, y in g.edges:
        lx, ly = g.labels[x], g.labels[y]
        if lx not in _NEG_SET or ly not in _NEG_SET:
            continue
        nx_, ny_ = set(g.adj[x]), set(g.adj[y])
        common = sorted(nx_ & ny_)
        zeros = [v for v in common if g.labels[v] == 0]
        negs = [v for v in common if g.labels[v] in _NEG_SET]
        for z in zeros:
            for k in negs:
                if not g.has_edge(z, k):
                    if set(g.adj[x]) <= {y, z, k} and set(g.adj[y]) <= {x, z, k}:
                        beads.append(Bead(z, (x, y), k, g.labels[k]))
    return sorted(beads, key=lambda b: (b.zero, b.inner))


def _external_neighbor(g: LabeledGraph, bead: Bead, v: int) -> int:
    inside = bead.vertices
    outside = [u for u in g.adj[v] if u not in inside]
    if len(outside) != 1:
        raise StructureError(f"bead corner {v} has {len(outside)} external edges")
    return outside[0]


def _open_strings(g: LabeledGraph, beads) -> list[tuple[tuple[Bead, ...], int, int]]:
    """Maximal open chains of beads, as (beads from the black end, the
    external -k vertex below the first bead, the external 0 above the
    last).  Beads on a closed chain belong to none."""
    by_zero = {b.zero: b for b in beads}
    kverts = {b.kvert for b in beads}
    out = []
    for b in beads:
        below = _external_neighbor(g, b, b.zero)
        if below in kverts:
            continue  # not the first bead of a chain
        chain = [b]
        above = _external_neighbor(g, b, b.kvert)
        while above in by_zero:
            chain.append(by_zero[above])
            above = _external_neighbor(g, chain[-1], chain[-1].kvert)
        out.append((tuple(chain), below, above))
    return out


def detect_strings(emb: PlaneEmbedding, beads=None) -> list[StringDesc]:
    """Maximal strings of an embedded fragment (empty for a necklace);
    ``beads``, when given, is the fragment's ``find_beads`` list."""
    if beads is None:
        beads = find_beads(emb.graph)
    strings = [
        StringDesc(
            beads=chain,
            type_label=chain[0].type_label,
            neg_terminal=(chain[0].zero, below),
            zero_terminal=(chain[-1].kvert, above),
        )
        for chain, below, above in _open_strings(emb.graph, beads)
    ]
    return sorted(strings, key=lambda s: s.beads[0].zero)


def is_necklace(emb: PlaneEmbedding, beads=None) -> bool:
    """True iff the whole fragment is one cyclic chain of beads;
    ``beads``, when given, is the fragment's ``find_beads`` list.

    Once every vertex lies on a bead and no chain is open, each bead's 0
    is joined to the -k vertex of another, so the beads form closed
    chains; they form one exactly when the fragment is connected.
    """
    g = emb.graph
    if beads is None:
        beads = find_beads(g)
    if not beads or set().union(*(b.vertices for b in beads)) != set(range(g.n)):
        return False
    return not _open_strings(g, beads) and is_connected(g)


# ---------------------------------------------------------------------------
# Positive triangles
# ---------------------------------------------------------------------------


def positive_triangles(g: LabeledGraph) -> list[tuple[int, int, int]]:
    """Vertex-disjoint (1,2,3) triangles, as (v1, v2, v3) by label."""
    out = []
    for t in all_triangles(g):
        labs = tuple(g.labels[v] for v in t)
        if set(labs) == _POS_SET:
            ordered = tuple(v for _, v in sorted(zip(labs, t)))
            out.append(ordered)
    return sorted(out)


# ---------------------------------------------------------------------------
# Face refinement: faces of the ambient graph grouped by fragment face
# ---------------------------------------------------------------------------


class FaceRefinement(NamedTuple):
    """How the ambient embedding's faces subdivide the fragment's faces."""

    h_embedding: PlaneEmbedding  # outer: the fragment face holding the ambient outer face
    # fragment face -> (1,2,3) triangles
    triangles_in_face: dict[int, tuple[tuple[int, int, int], ...]]


def refine_faces(sc: SemiCover) -> FaceRefinement:
    """Group the semi-cover's faces into faces of its K4-labelled part."""
    emb = sc.embedding
    g = emb.graph
    if not is_connected(g):
        raise StructureError("semi-cover graph must be connected")
    h_vertices = tuple(v for v in range(g.n) if g.labels[v] in _K4_LABEL_SET)
    if not h_vertices:
        raise StructureError("no K4-labelled vertices present")
    h_emb, _, emap = emb.restrict(h_vertices)
    h_edge_ids = set(emap)

    # Faces sharing a non-fragment edge lie in the same fragment face
    # region: the regions are the components of the graph on face ids with
    # one edge per non-fragment edge, each named by its least face.
    nf = len(emb.faces)
    dart_face = emb.dart_face
    face_graph = LabeledGraph((0,) * nf, tuple(
        (dart_face[2 * eid], dart_face[2 * eid + 1])
        for eid in range(g.m)
        if eid not in h_edge_ids and dart_face[2 * eid] != dart_face[2 * eid + 1]
    ))
    region = {f: comp[0] for comp in connected_components(face_graph) for f in comp}

    # Identify each region with the fragment face holding its darts.
    h_dart_face = h_emb.dart_face
    region_to_hface: dict[int, int] = {}
    for eid, sub_eid in emap.items():
        for side in (0, 1):
            amb = region[dart_face[2 * eid + side]]
            hf = h_dart_face[2 * sub_eid + side]
            prev = region_to_hface.setdefault(amb, hf)
            if prev != hf:
                raise StructureError("ambient faces do not refine the fragment faces")
    group = []
    for i in range(nf):
        if region[i] not in region_to_hface:
            raise StructureError("a face region touches no fragment edge")
        group.append(region_to_hface[region[i]])

    tri_in_face: dict[int, list] = {}
    for tri in positive_triangles(g):
        faces_touching = {
            group[i]
            for i, f in enumerate(emb.faces)
            if set(tri) & set(f.vertices)
        }
        if len(faces_touching) != 1:
            raise StructureError(f"triangle {tri} spans multiple fragment faces")
        tri_in_face.setdefault(faces_touching.pop(), []).append(tri)

    return FaceRefinement(
        h_embedding=h_emb.with_outer_face(group[emb.outer_face]),
        triangles_in_face={k: tuple(v) for k, v in tri_in_face.items()},
    )


# ---------------------------------------------------------------------------
# Admissibility conditions
# ---------------------------------------------------------------------------

#: Conditions that need interior data of the ambient semi-cover and are
#: therefore skipped when analyzing a bare fragment.
INTERIOR_CONDITION_KEYS = (
    "triangles_facial",
    "short_octahedral_facial",
    "paths_reach_boundary",
    "positive_triangle",
    "triangle_capacity",
)


class FaceRecord(NamedTuple):
    face_id: int
    length: int
    labels: tuple[int, ...]
    internal: bool
    pattern: PatternResult
    triangles: int  # (1,2,3) triangles inside the face region
    beads: tuple[int, ...]  # indices into the bead list, by inner vertex


class StructureReport(NamedTuple):
    """Everything the exclusion predicates need about one fragment."""

    faces: tuple[FaceRecord, ...]
    beads: tuple[Bead, ...]
    strings: tuple[StringDesc, ...]
    necklace: bool  # graph-level: the fragment is one cyclic bead chain
    bead_faces: tuple[tuple[int, int], ...]  # per bead: its two host faces
    conditions: dict
    h_embedding: PlaneEmbedding  # the fragment embedding the refinement built


def _bead_hosts(h_emb: PlaneEmbedding, beads) -> list[tuple[int, int]]:
    """For each bead, the two faces its inner vertices lie on."""
    hosts = []
    nontri = [(i, f) for i, f in enumerate(h_emb.faces) if f.length > 3]
    for b in beads:
        homes = []
        for v in b.inner:
            on = [i for i, f in nontri if v in f.vertex_set]
            if len(on) != 1:
                raise StructureError(f"bead inner vertex {v} on {len(on)} non-triangular faces")
            homes.append(on[0])
        hosts.append(tuple(sorted(homes)))
    return hosts


def admissibility_report(sc: SemiCover) -> StructureReport:
    """Evaluate the admissibility conditions of a semi-cover's fragment.

    The fragment is the subgraph on K4-labelled vertices.  Conditions
    needing interior data are still evaluated here (the semi-cover
    carries its interior); the search module skips them when no interior
    is available.
    """
    emb = sc.embedding
    g = emb.graph
    ref = refine_faces(sc)
    h_emb = ref.h_embedding
    h = h_emb.graph

    k4 = make_base(K4NEG)
    conditions: dict = {}

    # (a) connected genuine cover of K4; ambient boundary is a cycle of it.
    outer_walk = emb.outer
    boundary_in_h = all(g.labels[v] in _K4_LABEL_SET for v in outer_walk.vertices)
    try:  # a fold is reported exactly for a connected cover
        verdict_a = verify_cover(h, k4, label_projection(h, k4)).fold is not None
    except CoverError:
        verdict_a = False
    conditions["lift_cover"] = verdict_a and boundary_in_h and outer_walk.is_simple_cycle()

    # (b) all 3-cycles of the ambient graph are facial.
    facial = triangle_faces(emb)
    conditions["triangles_facial"] = all(
        frozenset(t) in facial for t in all_triangles(g)
    )

    # (c)/(d) lifts of octahedral triangles.
    k1222 = make_base("k1222")
    boundary = emb.outer.vertex_set
    short_ok = True
    paths_ok = True
    for t in k1222.octahedral_triangles:
        if not set(t) & set(g.labels):
            continue
        for comp in find_cycles_covering(g, t, k1222):
            if comp.kind == "cycle":
                if comp.length != 3 or frozenset(comp.vertices) not in facial:
                    short_ok = False
            else:
                ends = [v for v in comp.vertices if sum(1 for e in comp.edges if v in e) == 1]
                if not all(v in boundary for v in ends):
                    paths_ok = False
                if set(t) in ({1, 2, 3}, {-1, -2, -3}):
                    paths_ok = False
    conditions["short_octahedral_facial"] = short_ok
    conditions["paths_reach_boundary"] = paths_ok

    # (e), (f), (g)
    conditions["not_k4"] = not (h.n == 4 and h.m == 6)
    conditions["positive_triangle"] = bool(positive_triangles(g))
    conditions["two_connected"] = h.n >= 4 and connectivity(h) >= 2

    # (h), (i), (j) and the face-level records on the fragment embedding:
    # non-triangular faces read 0,a,b,0,a,b,..., every face meets its
    # ``face_floor`` (no internal hexagon), and an internal 3m-gonal face
    # holds t < 2m/3 triangles.
    beads = find_beads(h)
    bead_hosts = _bead_hosts(h_emb, beads)
    face_records = []
    patterns_ok = True
    capacity_ok = True
    for i, f in enumerate(h_emb.faces):
        internal = i != h_emb.outer_face
        pattern = face_label_pattern(f.labels)
        tris = len(ref.triangles_in_face.get(i, ()))
        if f.length > 3 and pattern.kind != "pattern":
            patterns_ok = False
        if internal and f.length > 3 and f.length % 3 == 0:
            if 3 * tris >= 2 * (f.length // 3):
                capacity_ok = False
        face_records.append(
            FaceRecord(
                face_id=i,
                length=f.length,
                labels=f.labels,
                internal=internal,
                pattern=pattern,
                triangles=tris,
                beads=tuple(j for j, hosts in enumerate(bead_hosts) if i in hosts),
            )
        )
    conditions["face_patterns"] = patterns_ok
    reasons, _ = face_exclusions(*_face_structure(face_records, bead_hosts, h_emb.outer_face))
    conditions["no_internal_hexagon"] = "no_internal_hexagon" not in reasons
    conditions["triangle_capacity"] = capacity_ok

    strings = detect_strings(h_emb, beads)
    return StructureReport(
        faces=tuple(face_records),
        beads=tuple(beads),
        strings=tuple(strings),
        necklace=is_necklace(h_emb, beads),
        bead_faces=tuple(bead_hosts),
        conditions=conditions,
        h_embedding=h_emb,
    )


# ---------------------------------------------------------------------------
# Exclusion predicates
# ---------------------------------------------------------------------------


def face_floor(internal: bool) -> int:
    """The least m of a face: an internal one is no hexagon, the outer one no triangle."""
    return 3 if internal else 2


def face_count_exclusion(internal: int) -> str | None:
    """The shape exclusion fixed by the number of internal non-triangular
    faces: one is the necklace shape, two the double-face shape."""
    return {1: "necklace", 2: "two_internal_faces"}.get(internal)


def bead_sharing_excluded(shared: int, m_a: int, m_b: int) -> bool:
    """True iff two internal faces of lengths 3*m_a and 3*m_b share too many
    beads: faces of length at most 3m (m >= 3) may not share m - 2.

    Only two faces that are short in the quotient can break it.  A
    quotient face of length 2k is a fragment face with m = k plus every
    bead on its edges, the shared ones among them, so m_a >= k_a + shared;
    and shared >= max(m_a, m_b, 3) - 2 >= m_a - 2 then gives k_a <= 2, and
    likewise k_b <= 2: both faces have quotient length at most 4.
    """
    return shared >= max(m_a, m_b, 3) - 2


def face_exclusions(m, outer, shared) -> tuple[tuple[str, ...], tuple[tuple[int, int, int, int], ...]]:
    """The one admissibility rule on a fragment's faces: every face meets
    its ``face_floor``, ``face_count_exclusion`` finds no shape, and no two
    internal faces break ``bead_sharing_excluded``.

    ``m`` maps each non-triangular face to its m (a fragment face of
    length L has m = ceil(L/3); a quotient 2k-face with b beads has
    m = k + b), ``outer`` is the outer face, and ``shared`` maps face pairs
    (fa < fb) to the beads they share; pairs sharing none may be left out.
    Returns the reasons broken, in the order outer_face_nontriangular,
    no_internal_hexagon, necklace or two_internal_faces, bead_sharing, and
    the pairs over the threshold as (face, face, max(m_a, m_b, 3), shared).
    """
    reasons = []
    if outer in m and m[outer] < face_floor(False):
        reasons.append("outer_face_nontriangular")
    floor = face_floor(True)
    if any(mf < floor for f, mf in m.items() if f != outer):
        reasons.append("no_internal_hexagon")
    shape = face_count_exclusion(len(m) - (outer in m))
    if shape is not None:
        reasons.append(shape)
    pairs = tuple(
        (fa, fb, max(m[fa], m[fb], 3), k)
        for (fa, fb), k in shared.items()
        if k and outer not in (fa, fb) and bead_sharing_excluded(k, m[fa], m[fb])
    )
    if pairs:
        reasons.append("bead_sharing")
    return tuple(reasons), pairs


def _face_structure(faces, bead_faces, outer) -> tuple:
    """``face_exclusions``' arguments for a fragment's face records."""
    m = {f.face_id: -(-f.length // 3) for f in faces if f.length > 3}
    shared = Counter(hosts for hosts in bead_faces if hosts[0] != hosts[1])
    return m, outer, dict(sorted(shared.items()))


def check_exclusions(report: StructureReport) -> tuple:
    """``face_exclusions`` of an analyzed fragment's faces."""
    return face_exclusions(*_face_structure(report.faces, report.bead_faces, report.h_embedding.outer_face))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


class _QuotientGraphFields(NamedTuple):
    a: int
    edges: tuple[tuple[int, int, int], ...]  # (white, black, beads)
    rotation: tuple[tuple[int, ...], ...]
    outer_face: int


class QuotientGraph(_QuotientGraphFields):
    """Cubic bipartite plane multigraph with bead counts on edges.

    Vertices 0..a-1 are the surviving 0-vertices (white); a..2a-1 are the
    contracted (-1,-2,-3) triangles (black).  Each edge remembers how many
    beads its string carried.
    """

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        simple_edges = tuple((u, v) for u, v, _ in self.edges)
        faces = trace_faces(2 * self.a, simple_edges, self.rotation)
        if 2 * self.a - len(simple_edges) + len(faces) != 2:
            raise QuotientError("quotient rotation is not spherical")
        return tuple(faces)

    @cached_property
    def face_edge_sides(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids bounding each face, one entry per side."""
        return tuple(tuple(d // 2 for d in f) for f in self.faces)

    @cached_property
    def edge_faces(self) -> tuple[tuple[int, int], ...]:
        """The faces on the two sides of each edge, in increasing order."""
        sides = [[] for _ in self.edges]
        for fid, edge_ids in enumerate(self.face_edge_sides):
            for e in edge_ids:
                sides[e].append(fid)
        return tuple(map(tuple, sides))

    @cached_property
    def face_pair_edges(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The edge ids separating each pair of distinct faces that meet,
        keyed by the face pair in increasing order: the beads two faces
        share lie on these edges."""
        out: dict[tuple[int, int], tuple[int, ...]] = {}
        for e, (fa, fb) in enumerate(self.edge_faces):
            if fa != fb:
                out[fa, fb] = (*out.get((fa, fb), ()), e)
        return out

    @cached_property
    def census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for f in self.faces:
            out[len(f)] = out.get(len(f), 0) + 1
        return dict(sorted(out.items()))

    @property
    def total_beads(self) -> int:
        return sum(b for _, _, b in self.edges)

    def counts(self) -> tuple[int, int, int]:
        """(vertices, edges, faces) -- always (2a, 3a, a+2)."""
        return 2 * self.a, len(self.edges), len(self.faces)


class QuotientSkeleton(NamedTuple):
    """Graph-level quotient of a fragment: no embedding involved yet."""

    a: int
    edges: tuple[tuple[int, int, int], ...]  # (white idx, black idx, beads)
    whites: tuple[int, ...]
    black_triangles: tuple[tuple[int, int, int], ...]
    white_neighbor: tuple[int, ...]  # per edge: the white end's fragment neighbor
    black_corner: tuple[int, ...]  # per edge: the triangle corner it reaches
    beads: tuple[Bead, ...]  # every bead of the fragment, as find_beads lists them


def negative_lift_triangular(h: LabeledGraph) -> bool:
    """True iff every component of the (-1,-2,-3) lift is a triangle.

    The lift keeps the edges between two different labels of -1, -2, -3.
    Its components are all triangles exactly when each vertex with a
    lifted edge has two lifted neighbours (parallel edges counted), with
    different labels, which are adjacent: the three vertices then carry
    two lifted edges each, which are the triangle's three edges.
    """
    labels = h.labels
    for v, lv in enumerate(labels):
        if lv not in _NEG_SET:
            continue
        ns = [w for w in h.adj[v] if labels[w] != lv and labels[w] in _NEG_SET]
        if ns and not (
            len(ns) == 2 and labels[ns[0]] != labels[ns[1]] and ns[1] in h.adj[ns[0]]
        ):
            return False
    return True


def quotient_skeleton(h: LabeledGraph, beads=None) -> QuotientSkeleton:
    """Contract (-1,-2,-3) triangles and replace bead strings by edges.

    Precondition: ``negative_lift_triangular(h)``, which callers test and
    this does not.  Requires at least one surviving 0-vertex and one
    non-bead triangle (a closed bead chain has neither and is rejected).
    ``beads``, when given, is the fragment's ``find_beads`` list.
    """
    if beads is None:
        beads = find_beads(h)
    bead_vertices = set().union(*(b.vertices for b in beads))

    whites = [v for v in range(h.n) if h.labels[v] == 0 and v not in bead_vertices]
    neg_tris = [
        t
        for t in all_triangles(h)
        if set(h.labels[v] for v in t) == _NEG_SET and not set(t) & bead_vertices
    ]
    if not whites or not neg_tris:
        raise QuotientError("degenerate quotient: the fragment is a closed bead chain")
    black_of: dict[int, int] = {}
    for bi, t in enumerate(neg_tris):
        for v in t:
            black_of[v] = bi
    a = len(whites)
    if len(neg_tris) != a:
        raise QuotientError(f"white/black mismatch: {a} zeros vs {len(neg_tris)} triangles")
    white_index = {v: i for i, v in enumerate(whites)}

    # A white reaches a triangle corner directly, or through the string
    # whose top bead's -k vertex it is joined to.
    corner_of = {v: (v, 0) for v in black_of}
    for chain, below, _ in _open_strings(h, beads):
        corner_of[chain[-1].kvert] = (below, len(chain))
    q_edges = []
    white_neighbor = []
    black_corner = []
    for z in whites:
        for w in h.adj[z]:
            corner, count = corner_of.get(w, (w, 0))
            if corner not in black_of:
                raise QuotientError(f"string tracing failed at vertex {corner}")
            q_edges.append((white_index[z], a + black_of[corner], count))
            white_neighbor.append(w)
            black_corner.append(corner)
    return QuotientSkeleton(
        a=a,
        edges=tuple(q_edges),
        whites=tuple(whites),
        black_triangles=tuple(neg_tris),
        white_neighbor=tuple(white_neighbor),
        black_corner=tuple(black_corner),
        beads=tuple(beads),
    )


def quotient_graph(h_emb: PlaneEmbedding, beads=None) -> tuple[QuotientGraph, dict[int, int]]:
    """Quotient of an embedded fragment, with the inherited embedding.

    The (-1,-2,-3) lift must split into triangles (tested here, the
    skeleton's precondition), and beyond the skeleton requirements every
    contracted triangle must be a face.  Returns the quotient and the map
    from fragment face ids to quotient face ids.  ``beads``, when given,
    is the fragment's ``find_beads`` list.
    """
    h = h_emb.graph
    if not negative_lift_triangular(h):
        raise QuotientError("a (-1,-2,-3) lift component is not a triangle")
    sk = quotient_skeleton(h, beads)
    a = sk.a
    whites, neg_tris, q_edges = sk.whites, sk.black_triangles, sk.edges

    facial = triangle_faces(h_emb)
    for t in neg_tris:
        if frozenset(t) not in facial:
            raise QuotientError(f"triangle {t} is not facial; cannot contract")

    edge_id_of = {e: i for i, e in enumerate(h.edges)}

    def dart(u, v):
        e = edge_id_of[(u, v) if u < v else (v, u)]
        return 2 * e if h.edges[e][0] == u else 2 * e + 1

    white_dart = [dart(sk.whites[u], w) for (u, _, _), w in zip(q_edges, sk.white_neighbor)]

    # Rotations: whites inherit the fragment order; blacks take their
    # corners' external edges in reverse facial order.
    qedge_of_white_dart = {d: qid for qid, d in enumerate(white_dart)}
    rotation: list[tuple[int, ...]] = [()] * (2 * a)
    for wi, z in enumerate(whites):
        order = []
        for eid in h_emb.rotation[z]:
            u, v = h.edges[eid]
            d = 2 * eid if u == z else 2 * eid + 1
            order.append(qedge_of_white_dart[d])
        rotation[wi] = tuple(order)
    corner_qedge = {corner: qid for qid, corner in enumerate(sk.black_corner)}
    for bi, t in enumerate(neg_tris):
        stranded = [v for v in t if v not in corner_qedge]
        if stranded:
            raise QuotientError(
                f"triangle {t} corner {stranded[0]} is joined to no 0-vertex"
            )
        tri_face = next(f for f in h_emb.faces if f.length == 3 and f.vertex_set == frozenset(t))
        rotation[a + bi] = tuple(corner_qedge[v] for v in reversed(tri_face.vertices))

    q = QuotientGraph(a=a, edges=tuple(q_edges), rotation=tuple(rotation), outer_face=0)

    # Identify quotient faces with fragment faces through the white darts
    # and fix the outer face accordingly.
    q_dart_face = {}
    for i, f in enumerate(q.faces):
        for d in f:
            q_dart_face[d] = i
    h_dart_face = h_emb.dart_face
    face_map: dict[int, int] = {}
    for qid, d in enumerate(white_dart):
        for flip in (0, 1):
            hf = h_dart_face[d ^ flip]
            qd = 2 * qid if flip == 0 else 2 * qid + 1
            qf = q_dart_face[qd]
            if face_map.setdefault(hf, qf) != qf:
                raise QuotientError("face correspondence is inconsistent")
    # Cross-check lengths: a fragment 3l-face with beta beads maps to a
    # quotient 2(l - beta)-face.
    bead_hosts = _bead_hosts(h_emb, sk.beads)
    beads_on = {i: 0 for i in range(len(h_emb.faces))}
    for hosts in bead_hosts:
        for fid in set(hosts):
            beads_on[fid] += 1
    for hf, qf in face_map.items():
        L = h_emb.faces[hf].length
        if L % 3 or 2 * (L // 3 - beads_on[hf]) != len(q.faces[qf]):
            raise QuotientError("quotient face census does not match the fragment")
    if h_emb.outer_face not in face_map:
        raise QuotientError("outer face of the fragment vanished in the quotient")
    out = QuotientGraph(q.a, q.edges, q.rotation, face_map[h_emb.outer_face])
    vars(out)["faces"] = q.faces  # faces do not depend on the outer face
    return out, face_map
