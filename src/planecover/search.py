"""Exhaustive, certificate-producing searches.

Covers are enumerated through normalized voltage assignments (spanning
tree fixed to the identity).  Sheet relabeling acts on them by
simultaneous conjugation of the cotree voltages, so one walk of the tree
of voltage prefixes visits one tuple per conjugation orbit: the first
cotree voltage runs over conjugacy class representatives, and each later
one over orbit representatives of the stabilizer of the prefix before
it (``_orbit_reps``).  Both bases have pairwise
distinct vertex labels, so a label-preserving isomorphism of derived
graphs fixes every fiber, agrees along the identity tree edges, and is
one sheet permutation: distinct orbits give covers in distinct
isomorphism classes.  So a class is named by the voltage the scan visits,
the least normalized voltage of its orbit whose first cotree voltage is a
cycle-type representative, and the scan order, lexicographic by that
voltage, is the certificate order.  Each orbit's lift and transitivity
test are the ones ``covers`` defines.

A base automorphism that maps the spanning tree onto itself changes the
labels but carries each derived graph to an isomorphic one, and so to
another class of the scan; K4 has five besides the identity, the
relabellings of vertices 1, 2 and 3.  Planarity is an isomorphism
invariant, so the scan shares each planarity verdict with the classes of
the leaf's images (``_SharedVerdicts``).  Only the verdict is shared:
classes stay label-preserving conjugation orbits, each with its own
entry.

One routine scans a fold: the budget check, the orbit scan and one
certificate entry per isomorphism class of connected planar covers.  The
two searches run it and nothing else selects what it keeps:
``enumerate_covers`` certifies the connected planar covers of one base at
one fold, and ``search_k4_fragments`` is the one structural search.  It
scans K4 fold by fold and gives every class the verdict of the K4-fragment
analyzer, which enumerates plane embeddings on the contracted quotient of
the candidate and applies every condition an admissible fragment must
satisfy: the shape exclusions and the bead-sharing threshold that
``structure`` defines.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from typing import NamedTuple

from .covers import (
    conjugacy_representatives,
    derive,
    derived_edges,
    join_sheets,
    normalized_assignment,
)
from .embedding import adjacency_rows, has_thin_edge, planar_rows, trace_faces
from .graphs import (
    K1222,
    K4NEG,
    BaseGraph,
    LabeledGraph,
    is_connected,
    make_base,
)
from .io import census_to_obj
from .structure import (
    INTERIOR_CONDITION_KEYS,
    QuotientError,
    QuotientGraph,
    bead_sharing_excluded,
    face_count_exclusion,
    face_exclusions,
    face_floor,
    negative_lift_triangular,
    quotient_skeleton,
)

FORMAT_VERSION = 3

#: Extra fragment-level conditions the bare search applies beyond the
#: face-census exclusions.  Each is a restriction of an interior condition
#: to data visible on the fragment alone, so pruning by it is sound.
EXTRA_FRAGMENT_FILTERS = (
    "fragment_triangles_facial",   # 3-cycles of the fragment bound faces
    "negative_lift_triangular",    # (-1,-2,-3) lift splits into triangles
    "outer_face_nontriangular",    # the boundary cycle cannot be a triangle
)


class BudgetExceeded(RuntimeError):
    """A fold's voltage space is larger than the search budget."""


class SearchError(ValueError):
    pass


#: Covers spec fields with one allowed value: the search keeps the
#: connected planar covers, one per isomorphism class.  A spec may restate
#: them; certificates do not record them.
_FIXED_SPEC_FIELDS = {"filters": ["connected", "planar"], "dedup": True}


class _SearchSpecFields(NamedTuple):
    base: str
    n: int
    budget: int


class SearchSpec(_SearchSpecFields):
    def __new__(cls, base: str, n: int, budget: int = 10**9):
        if n < 1:
            raise SearchError("fold must be at least 1")
        return super().__new__(cls, base, n, budget)

    @classmethod
    def from_obj(cls, obj, budget: int | None = None) -> SearchSpec:
        """Parse a covers-mode spec object; ``budget`` replaces the
        object's own when given."""
        n = spec_int(obj, "n")
        base = obj.get("base")
        if base not in (K1222, K4NEG):
            raise SearchError(f"search spec 'base' must be {K1222!r} or {K4NEG!r}, not {base!r}")
        for key, value in _FIXED_SPEC_FIELDS.items():
            given = obj.get(key, value)
            if type(given) is not type(value) or given != value:
                raise SearchError(
                    f"search spec field {key!r} may only be {json.dumps(value)}, not "
                    f"{given!r}: covers mode keeps the connected planar covers, one per class"
                )
        return cls(
            base=base,
            n=n,
            budget=spec_int(obj, "budget", 10**9) if budget is None else budget,
        )

    def to_obj(self) -> dict:
        return {"mode": "covers", "base": self.base, "n": self.n, "budget": self.budget}


def spec_int(obj, key: str, default: int | None = None) -> int:
    """An integer field of a search spec object; SearchError when the spec
    is not an object or the field is missing or not an integer."""
    if not isinstance(obj, dict):
        raise SearchError(f"a search spec is a JSON object, not {type(obj).__name__}")
    value = obj.get(key, default)
    if value is None:
        raise SearchError(f"search spec lacks {key!r}")
    if type(value) is not int:
        raise SearchError(f"search spec field {key!r} must be an integer, not {value!r}")
    return value


def estimate_nodes(base: BaseGraph, n: int) -> int:
    """Pre-pruning size of the normalized voltage space."""
    return math.factorial(n) ** len(base.cotree_edges)


def _approx(log10_count: float) -> str:
    """The count with the given base-10 logarithm, to three significant
    digits; the count itself is never formed."""
    exponent, fraction = divmod(log10_count, 1)
    mantissa = round(10**fraction, 2)
    if mantissa >= 10:
        exponent, mantissa = exponent + 1, mantissa / 10
    return f"{mantissa:.2f}e+{int(exponent)}"


# ---------------------------------------------------------------------------
# Voltage scanning
# ---------------------------------------------------------------------------


def _conjugate(g, p) -> tuple[int, ...]:
    """g p g^-1: the voltage p after renaming every sheet i to g[i]."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[g[i]] = g[j]
    return tuple(out)


class _PermTables(NamedTuple):
    perms: tuple[tuple[int, ...], ...]  # S_n in itertools.permutations order
    index: dict[tuple[int, ...], int]  # each permutation's position in perms
    inverse: tuple[int, ...]  # the index of each permutation's inverse
    conj: tuple[tuple[int, ...], ...]  # conj[g][p]: the index of g p g^-1
    rep: tuple[int, ...]  # the index of each permutation's class representative
    conjugators: tuple[tuple[int, ...], ...]  # the g, ascending, with conj[g][p] == rep[p]


@functools.cache
def _perm_tables(n: int) -> _PermTables:
    """The scan's permutation arithmetic at fold ``n`` as index tables
    (``_PermTables``), so the walk conjugates, inverts and names voltages
    by lookups instead of building tuples.

    ``perms`` is in lexicographic order, so comparing indices compares
    the permutations, and index tuples compare as voltage tuples do; the
    class representatives are those of ``conjugacy_representatives``.
    The conjugation table has n!^2 entries, the (n!)^2 normalized
    assignments of two cotree edges; each base has at least two, so the
    budget check, which bounds (n!)^k for k cotree edges before the scan,
    bounds the table too.  Built once per fold.
    """
    perms = tuple(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    inverse = tuple(index[tuple(sorted(range(n), key=p.__getitem__))] for p in perms)
    conj = tuple(tuple(index[_conjugate(g, p)] for p in perms) for g in perms)
    reps = {index[r] for r in conjugacy_representatives(n)}
    conjugators = tuple(tuple(g for g, row in enumerate(conj) if row[p] in reps) for p in range(len(perms)))
    rep = tuple(conj[gs[0]][p] for p, gs in enumerate(conjugators))
    return _PermTables(perms, index, inverse, conj, rep, conjugators)


def _orbit_reps(group, size: int, conj):
    """One voltage per orbit of ``group`` acting by conjugation on the
    ``size`` permutations of the fold, with its stabilizer in ``group``;
    all are ``_perm_tables`` indices, conjugated by its ``conj`` table.
    Each yielded voltage is the least of its orbit.  Yields (voltage,
    stabilizer) pairs."""
    if len(group) == 1 or size <= 2:
        # conjugation acts trivially: the group is trivial, or it lies in
        # S_n for n <= 2, which is abelian
        for p in range(size):
            yield p, group
        return
    rows = [conj[g] for g in group]
    seen = set()
    for p in range(size):
        if p in seen:
            continue
        images = [row[p] for row in rows]
        seen.update(images)
        yield p, tuple(g for g, q in zip(group, images) if q == p)


@functools.cache
def _thin_edge_checks(base: BaseGraph, n: int) -> tuple[tuple[tuple, ...], ...]:
    """For each level k of the scan, with the spanning tree and the first
    k cotree edges in, the ``has_thin_edge`` arguments of the base edges
    whose triangle bound changes at k: (the edge's first fibre, the
    bitmask of its second, the bitmask of its known fibres, need).

    In a derived graph of a simple base, u_i has exactly one neighbour in
    fibre z for each base edge uz.  So a common neighbour of a lifted edge
    u_i-w_j lies over a common base neighbour z of u and w, one at most per
    z, and once uz and wz are both in, whether it exists never changes.
    The count over those known fibres plus the number of z with uz or wz
    still open bounds the edge's final common-neighbour count from above;
    ``has_thin_edge`` fires when the known count is below need, 2 less the
    open count.  The bound changes only when the edge goes in or a z
    becomes known, and the rows of known fibres never change, so checking
    at those levels is enough.  An edge with two or more open z cannot
    fire and is left out; once every z is known, need is 2.  Built once
    per base and fold.
    """
    g = base.graph
    at = [[0] * g.n for _ in range(g.n)]  # the level at which a base edge goes in
    for k, e in enumerate(base.cotree_edges, 1):
        u, w = g.edges[e]
        at[u][w] = at[w][u] = k
    fibre = [((1 << n) - 1) << (b * n) for b in range(g.n)]
    checks = [[] for _ in range(len(base.cotree_edges) + 1)]
    for u, w in g.edges:
        known_at = [(max(at[u][z], at[w][z]), z) for z in g.adj[u] if z in g.adj[w]]
        for k in sorted({at[u][w], *(j for j, _ in known_at if j > at[u][w])}):
            known = [z for j, z in known_at if j <= k]
            need = 2 - len(known_at) + len(known)
            if need > 0:
                known_mask = sum(fibre[z] for z in known)
                checks[k].append((range(u * n, u * n + n), fibre[w], known_mask, need))
    return tuple(map(tuple, checks))


@functools.cache
def _tree_symmetries(base: BaseGraph) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, bool], ...]], ...]:
    """The non-identity automorphisms σ of the base graph, labels ignored,
    that map its spanning tree onto itself.  Each is a pair: σ as a tuple
    of vertex images, and the map it induces on normalized voltages, which
    gives for each cotree edge, in cotree order, the cotree edge whose
    voltage it takes and whether that voltage is inverted.

    Renaming every derived vertex (b, i) to (σb, i) carries the lift of
    base edge (u, w), u < w, with voltage s to the lift of (σu, σw) with
    voltage s, which is (σw, σu) with voltage s^-1 when σu > σw; tree edges
    keep the identity.  So the image voltage's derived graph is isomorphic
    to the voltage's.  Built once per base.
    """
    g = base.graph
    edge_set = set(g.edges)
    tree = {g.edges[e] for e in base.spanning_tree_edges}
    position = {g.edges[e]: k for k, e in enumerate(base.cotree_edges)}
    out = []
    for s in itertools.islice(itertools.permutations(range(g.n)), 1, None):  # skip the identity, the first
        image = {e: (s[e[0]], s[e[1]]) for e in g.edges}
        ordered = {e: (min(f), max(f)) for e, f in image.items()}
        if set(ordered.values()) != edge_set or {ordered[e] for e in tree} != tree:
            continue
        source = [None] * len(position)
        for e, k in position.items():
            source[position[ordered[e]]] = (k, image[e] != ordered[e])
        out.append((s, tuple(source)))
    return tuple(out)


def _least_conjugate(volt, tables: _PermTables) -> tuple[int, ...]:
    """The scan's name for the conjugation orbit of the voltage ``volt``,
    a tuple of ``tables.perms`` indices: its least conjugate whose first
    voltage is that voltage's class representative.

    The conjugators that take the first voltage to its representative are
    narrowed, voltage by voltage, to those that give the least image, so
    the name is compared voltage by voltage as the scan orders its leaves.
    """
    conj = tables.conj
    group = tables.conjugators[volt[0]]
    name = [tables.rep[volt[0]]]
    for p in volt[1:]:
        images = [conj[g][p] for g in group]
        least = min(images)
        group = [g for g, q in zip(group, images) if q == least]
        name.append(least)
    return tuple(name)


class _SharedVerdicts:
    """Planarity verdicts of one scan, shared across the base's tree
    symmetries (``_tree_symmetries``).

    A symmetry's image of a leaf voltage has an isomorphic derived graph,
    and planarity is an isomorphism invariant, so the leaf's verdict holds
    for the class the scan names by the image's ``_least_conjugate``.  A
    verdict is stored under that name only when this scan visits it
    later: its first voltage's class is one of the scan's and it is
    greater than the leaf.  The scan visits each stored name as a leaf
    that reaches the planarity decision, and it takes the verdict out
    there, so the memo holds only names still ahead of the walk, also in
    a scan of one first voltage.  A fold's scan takes every class.  Voltages
    are index tuples into ``_perm_tables``, whose tables invert and name
    the images; a name is kept as one integer, its indices read as base-n!
    digits, which is smaller than a tuple.
    """

    def __init__(self, base: BaseGraph, tables: _PermTables, firsts):
        self.symmetries = [sigma for _, sigma in _tree_symmetries(base)]
        self.tables = tables
        self.size = len(tables.perms)
        self.firsts = set(firsts)
        self.verdicts = {}

    def _key(self, volt) -> int:
        key = 0
        for p in volt:
            key = key * self.size + p
        return key

    def pop(self, volt):
        """The verdict stored for ``volt``, removed; None when none is."""
        return self.verdicts.pop(self._key(volt), None)

    def share(self, volt, planar: bool) -> None:
        """Store ``planar``, the verdict of leaf ``volt``, under the name
        of each image the scan visits later."""
        inverse, rep = self.tables.inverse, self.tables.rep
        for sigma in self.symmetries:
            image = [inverse[volt[k]] if inverted else volt[k] for k, inverted in sigma]
            first = rep[image[0]]
            if first < volt[0] or first not in self.firsts:
                continue
            name = _least_conjugate(image, self.tables)
            if name > volt:
                self.verdicts[self._key(name)] = planar


def _scan(base: BaseGraph, n: int, firsts):
    """Scan the normalized assignments with the given first-cotree voltages.

    Every test runs once per orbit of sheet relabeling (simultaneous
    conjugation), on the orbit's least tuple; each orbit counts for the
    assignments of the full scan that fall in it.  Returns (visited,
    connected_count, planar_count, classes) where classes lists (voltage,
    assignment count) for each class of connected planar covers, in scan
    order: by voltage.

    The scan walks the tree of voltage prefixes depth first, one level per
    cotree edge; a prefix's children are the ``_orbit_reps`` of its
    stabilizer (a first voltage's, of its centralizer), and a child's
    weight, the size of its orbit, is its parent's times the index of its
    stabilizer.  The walk holds each voltage as its index in
    ``_perm_tables(n)``, whose tables do its conjugations; a class's
    voltage becomes permutation tuples only when it is recorded.  Each
    prefix ORs its edge's lifted rows into its parent's adjacency rows and
    joins its voltage to the sheet orbits; once the orbits are one, every
    completion is transitive.  When every cover has 3V - 6 edges it is
    planar only if it is a triangulation, so a lifted edge whose triangle
    bound (``_thin_edge_checks``) is below two makes the prefix dead:
    every completion is non-planar, so deeper prefixes skip their rows and
    leaves skip ``planar_rows``.  A dead prefix whose orbits are one is
    counted whole, its weight times (n!)^k for the k cotree edges left:
    every completion is connected and none planar.  Otherwise each leaf's
    planarity verdict is stored under the names of its images by the
    base's tree symmetries that the scan visits later
    (``_SharedVerdicts``), and a leaf whose verdict is stored skips
    ``planar_rows``: at fold 4 of K4, 143 of the 604 transitive leaves
    reach it.
    """
    g = base.graph
    nverts = g.n * n
    cotree = base.cotree_edges
    depth = len(cotree) - 1
    visited = len(firsts) * math.factorial(n) ** depth
    connected_count = 0
    planar_count = 0
    classes = []
    m = g.m * n  # each base edge lifts to n distinct edges
    one_orbit = (1 << n) - 1
    tables = _perm_tables(n)
    perms, conj = tables.perms, tables.conj
    size = len(perms)
    firsts = [tables.index[first] for first in firsts]
    tree = [g.edges[e] for e in base.spanning_tree_edges]
    lifts = [
        [adjacency_rows(nverts, derived_edges((g.edges[e],), n, (p,))) for p in perms]
        for e in cotree
    ]
    checks = [()] * (depth + 2)
    shared = None
    if nverts >= 4 and m == 3 * nverts - 6:
        checks = _thin_edge_checks(base, n)
    elif n > 1:  # a fold-1 scan has one leaf
        shared = _SharedVerdicts(base, tables, firsts)

    rows = adjacency_rows(nverts, derived_edges(tree, n, perms[:1] * len(tree)))
    dead = any(has_thin_edge(rows, *c) for c in checks[0])
    orbits = tuple(1 << i for i in range(n))
    # the prefixes still to visit, the next one last: cotree edge k takes
    # the last voltage of ``volt``, whose parent prefix has the given rows,
    # orbits and dead flag; ``group`` is the stabilizer of ``volt`` and
    # ``weight`` the size of its orbit
    stack = [
        (0, (first,), tuple(h for h in range(size) if conj[h][first] == first), 1, rows, orbits, dead)
        for first in reversed(firsts)
    ]
    while stack:
        k, volt, group, weight, rows, orbits, dead = stack.pop()
        p = volt[-1]
        if orbits[0] != one_orbit:
            orbits = join_sheets(orbits, perms[p])
        if not dead:
            rows = [a | b for a, b in zip(rows, lifts[k][p])]
            dead = any(has_thin_edge(rows, *c) for c in checks[k + 1])
        transitive = orbits[0] == one_orbit
        if k == depth or dead and transitive:
            if transitive:
                connected_count += weight * size ** (depth - k)
                # a live leaf takes the verdict an isomorphic leaf stored, if any
                planar = not dead and (shared.pop(volt) if shared else None)
                if planar is None:
                    planar = planar_rows(rows, m)
                    if shared:
                        shared.share(volt, planar)
                if planar:
                    planar_count += weight
                    classes.append((tuple(map(perms.__getitem__, volt)), weight))
            continue
        children = [
            (k + 1, (*volt, q), stabilizer, weight * (len(group) // len(stabilizer)), rows, orbits, dead)
            for q, stabilizer in _orbit_reps(group, size, conj)
        ]
        stack += reversed(children)
    return visited, connected_count, planar_count, classes


# ---------------------------------------------------------------------------
# One fold: budget, scan and certificate entries
# ---------------------------------------------------------------------------


def _scan_fold(base: BaseGraph, n: int, budget: int) -> dict:
    """Scan fold ``n`` of ``base`` and build its fold record.

    The fold is refused when its (n!)^k normalized assignments exceed
    ``budget``; k·log(n!) is compared with log(budget) first, so a fold
    far beyond the budget is refused without computing (n!)^k.  The record holds the counts and one entry
    per isomorphism class of connected planar covers, in scan order; each
    search adds its verdicts and survivors to the entries.
    """
    log_estimate = len(base.cotree_edges) * math.lgamma(n + 1)
    estimate = None
    if budget >= 1 and log_estimate <= math.log(budget) + 1e-9:
        estimate = estimate_nodes(base, n)
    if estimate is None or estimate > budget:
        raise BudgetExceeded(
            f"voltage space for base {base.kind!r} at fold {n} has about "
            f"{_approx(log_estimate / math.log(10))} assignments, beyond the budget {budget}"
        )
    visited, connected, planar, classes = _scan(base, n, conjugacy_representatives(n))
    candidates = [
        {"assignments": count, "voltage": [list(p) for p in volt]} for volt, count in classes
    ]
    return {
        "visited": visited,
        "pre_prune_estimate": estimate,
        "connected": connected,
        "planar": planar,
        "classes": len(classes),
        "candidates": candidates,
    }


# ---------------------------------------------------------------------------
# Cover enumeration
# ---------------------------------------------------------------------------


def enumerate_covers(spec: SearchSpec) -> dict:
    """Certify the connected planar covers of ``spec.base`` at fold
    ``spec.n``, one candidate entry per isomorphism class.

    Returns the certificate as a plain JSON-ready dict; the "timing"
    entry is a sidecar excluded from byte-for-byte comparisons.
    """
    t0 = time.monotonic()
    record = _scan_fold(make_base(spec.base), spec.n, spec.budget)
    for entry in record["candidates"]:
        entry.update(filters={"connected": True, "planar": True}, survivor=True)
    survivors = [e["voltage"] for e in record["candidates"]]

    alarms = []
    if spec.base == "k1222" and survivors and spec.n % 2 == 1:
        alarms.append(
            "odd-fold connected planar cover of a non-planar base found; "
            "this contradicts the even-fold law and demands investigation"
        )

    return {
        "format_version": FORMAT_VERSION,
        "spec": spec.to_obj(),
        **record,
        "survivors": survivors,
        "survivor_count": len(survivors),
        "alarms": alarms,
        "timing": {"seconds": time.monotonic() - t0},
    }


# ---------------------------------------------------------------------------
# Fragment candidate analysis (bare K4-cover, all embeddings)
# ---------------------------------------------------------------------------


def _gate_result(gate: dict) -> dict:
    """A fresh analyzer result recording the graph-level gate's ordered
    {filter key: verdict}, which ends at the first key that fails; that
    key becomes ``excluded_by``."""
    return {
        "filters": dict(gate),
        "excluded_by": [key for key, ok in gate.items() if not ok],
        "embeddings": {"structures": 0, "outer_choices": 0, "passing": 0},
        "quotient_censuses": [],
        "survivor": False,
    }


def spherical_rotations(a: int, edges):
    """All spherical rotation systems of a connected cubic bipartite
    multigraph with a white vertices and (white, black, beads) edges, up to
    reflection, each as a ``QuotientGraph`` with outer face 0.  The faces
    determine the rotation, so distinct rotations give distinct face
    structures.  All 2^(V-1) rotation systems are traced, which stays small
    at the sizes here: a fold-h quotient has V = 2a <= 2h vertices, 12 at
    fold 6.  Each is traced once.  Few are spherical (50 of the 1,040
    traced for ``enumerate_quotients(4)`` and the 3 quotient shapes of the
    fold 1-5 classes), so the others are dropped by their face count before
    a quotient is built, and a spherical one's faces become its quotient's
    cached faces."""
    nverts = 2 * a
    simple_edges = tuple((u, v) for u, v, _ in edges)
    incident = [[] for _ in range(nverts)]
    for eid, (u, v) in enumerate(simple_edges):
        incident[u].append(eid)
        incident[v].append(eid)
    if any(len(i) != 3 for i in incident):
        raise SearchError("rotation enumeration expects a cubic multigraph")
    for mask in range(1 << (nverts - 1)):
        rotation = []
        for v in range(nverts):
            ids = incident[v]
            if v and (mask >> (v - 1)) & 1:
                ids = [ids[0], ids[2], ids[1]]
            rotation.append(tuple(ids))
        faces = trace_faces(nverts, simple_edges, rotation)
        if len(faces) == a + 2:
            q = QuotientGraph(a=a, edges=edges, rotation=tuple(rotation), outer_face=0)
            vars(q)["faces"] = tuple(faces)  # the cached_property's slot
            yield q


@functools.cache
def _shape(key) -> tuple[QuotientGraph, ...]:
    """The spherical quotients, faces traced, of the shape with greatest
    degree matrix ``key``, on its bead-free ``_matrix_edges(key)``: one
    table per process, which the analyzer and ``enumerate_quotients`` share."""
    own = tuple((u, v, 0) for u, v in _matrix_edges(key))
    return tuple(spherical_rotations(len(key), own))


def _shape_key(a: int, edges) -> tuple:
    """The greatest degree matrix of a cubic bicoloured multigraph with a
    white vertices and (white, black, beads) edges, over all a! row orders,
    and for each edge of ``_matrix_edges`` of that matrix the graph's edge
    it maps to.  The map, rows and columns in the orders that give the
    matrix and parallel edges in order, is a colour-preserving isomorphism."""
    mat = [[0] * a for _ in range(a)]
    for u, v, _ in edges:
        mat[u][v - a] += 1
    key, columns, rows = max(
        (*_column_sorted([mat[i] for i in rows]), rows) for rows in itertools.permutations(range(a))
    )
    edge_of = tuple(
        e for i in rows for j in columns for e, (u, v, _) in enumerate(edges) if (u, v) == (i, a + j)
    )
    return key, edge_of


def analyze_fragment_candidate(g: LabeledGraph) -> dict:
    """Run the bare-fragment filter pipeline over every plane embedding.

    The input is a connected cover of K4, as every class the scan visits
    is.  Such a cover is simple, cubic and bridgeless (each lifted edge
    lies on a lift of a base cycle), so it is 2-connected and the gate
    does not test condition (g).  The gate records ``not_k4`` and, only
    when that holds, the negative-lift test, which runs vertex by vertex;
    ``search_k4_fragments`` decides the lift from the voltage instead and
    records the same verdicts through the same routine.

    Embeddings are enumerated on the contracted quotient: an admissible
    embedding must make every 3-cycle facial, which pins the bead and
    triangle interiors and leaves exactly the quotient's rotation choices
    (bead reflections change nothing any condition can see).  Every
    quotient face corresponds to a non-triangular fragment face of length
    3(k + beads) where 2k is the quotient face length; triangular outer
    choices are excluded wholesale by the boundary condition.  Faces come
    from the shape's table ``_shape``, beads carried on by ``_shape_key``,
    and each outer face takes the first reason ``face_exclusions`` gives.
    """
    gate = {"not_k4": not (g.n == 4 and g.m == 6)}
    if gate["not_k4"]:
        gate["negative_lift_triangular"] = negative_lift_triangular(g)
    result = _gate_result(gate)
    if result["excluded_by"]:
        return result
    filters = result["filters"]
    censuses = result["quotient_censuses"]
    excluded_by = set()

    try:
        sk = quotient_skeleton(g)
    except QuotientError:
        # No surviving 0-vertex or triangle: a closed chain of k beads.  Its
        # admissible embeddings have 2k triangles and two 3k-gons, either of
        # which may be outer, so the other is the one internal
        # non-triangular face.
        filters["quotient"] = False
        result["excluded_by"] = [face_count_exclusion(1)]
        return result
    filters["quotient"] = True
    if sk.a == 1:
        # Three quotient faces leave two internal ones whatever is outer.
        # From a = 2 on, a + 2 faces leave at least three internal ones,
        # which no face-count exclusion covers.
        result["excluded_by"] = [face_count_exclusion(2)]
        return result

    key, edge_of = _shape_key(sk.a, sk.edges)
    beads = [sk.edges[e][2] for e in edge_of]
    n_tri_faces = 2 * len(sk.beads) + len(sk.black_triangles)
    quotients = _shape(key)
    passing = 0
    outer_choices = 0
    for q in quotients:
        thirds = {i: len(s) // 2 + sum(beads[e] for e in s) for i, s in enumerate(q.face_edge_sides)}
        shared = {pair: sum(beads[e] for e in edge_ids) for pair, edge_ids in q.face_pair_edges.items()}
        censuses.append(census_to_obj(q.census))
        outer_choices += len(thirds) + n_tri_faces  # and the triangular fragment faces, a or more
        excluded_by.add("outer_face_nontriangular")
        for i in thirds:
            reasons, _ = face_exclusions(thirds, i, shared)
            if reasons:
                excluded_by.add(reasons[0])
            else:
                # the class's own beads are a placement min_beads accepts
                passing += 1
    result["embeddings"] = {
        "structures": len(quotients),
        "outer_choices": outer_choices,
        "passing": passing,
    }
    result["survivor"] = passing > 0
    result["excluded_by"] = sorted(excluded_by)
    return result


# ---------------------------------------------------------------------------
# Fragment search over folds
# ---------------------------------------------------------------------------


def search_k4_fragments(h_max: int, budget: int = 10**9, progress=None) -> dict:
    """Enumerate admissible K4-cover fragments for every fold up to h_max.

    Each fold scans the connected planar covers of K4, one per
    conjugation orbit, and pushes every class through the bare-fragment
    conditions over all its plane embeddings and outer-face choices.
    Entries gain the analyzer's verdict and their fold, and the quotient
    censuses are merged per fold.  Every fold takes the same per-class
    step, so a fold-6 survivor's entry has the keys of any other; the
    interior triangles a fold-6 fragment forces are counted by ``bounds``.

    The (-1,-2,-3) lift is all triangles exactly when the voltage (c12,
    c13, c23) on K4's cotree edges (1,2), (1,3), (2,3) has c13[i] ==
    c23[c12[i]] on every sheet i; only the classes that meet this rule are
    derived and analyzed, each quotient shape enumerated once per process.
    """
    if not 1 <= h_max <= 6:
        raise SearchError("fragment search covers folds 1 to 6")
    t0 = time.monotonic()
    base = make_base(K4NEG)
    folds = []
    all_censuses = []
    for h in range(1, h_max + 1):
        if progress is not None:
            progress(f"fold {h}: scanning ...")
        record = _scan_fold(base, h, budget)
        fold_censuses = set()
        for entry in record["candidates"]:
            c12, c13, c23 = entry["voltage"]
            triangular = all(c13[i] == c23[c12[i]] for i in range(h))
            if triangular:
                g, _ = derive(normalized_assignment(base, h, entry["voltage"]))
                analysis = analyze_fragment_candidate(g)
            else:
                # the gate's lift verdict, from the voltage; K4, fold 1's
                # one class, meets the rule, so this class is not K4
                analysis = _gate_result({"not_k4": True, "negative_lift_triangular": triangular})
            censuses = analysis.pop("quotient_censuses")
            fold_censuses.update(tuple(sorted(c.items())) for c in censuses)
            entry.update(analysis, fold=h)
        record["survivors"] = [e["voltage"] for e in record["candidates"] if e["survivor"]]
        all_censuses.extend(dict(items) for items in sorted(fold_censuses))
        folds.append({"fold": h, **record})
        if progress is not None:
            progress(
                f"fold {h}: {record['visited']} visited, {record['planar']} planar, "
                f"{record['classes']} classes, {len(record['survivors'])} survivors"
            )
    return {
        "format_version": FORMAT_VERSION,
        "spec": {"mode": "fragments", "h_max": h_max, "budget": budget},
        "folds": folds,
        "survivor_count": sum(len(f["survivors"]) for f in folds),
        "skipped_conditions": list(INTERIOR_CONDITION_KEYS),
        "extra_conditions": list(EXTRA_FRAGMENT_FILTERS),
        "quotient_censuses": all_censuses,
        "timing": {"seconds": time.monotonic() - t0},
    }


# ---------------------------------------------------------------------------
# Quotient universe and bead demands
# ---------------------------------------------------------------------------


def _degree_matrices(a: int):
    """The a-by-a nonnegative matrices with row and column sums 3 whose
    rows, and whose columns read top-down as tuples, are non-increasing
    (the greatest matrix of a class has both), in decreasing lexicographic
    order.

    Rows are placed top-down, each no greater than the one above; a pair
    of adjacent columns stays tied while every row so far has equal
    entries in them, and a row that puts a tied pair's right entry above
    its left one is skipped.  An untied pair already differs at a row
    where the left column is greater, so later rows cannot disorder it.
    """
    all_rows = sorted((r for r in itertools.product(range(4), repeat=a) if sum(r) == 3), reverse=True)

    def rows(columns_left, start, tied):
        # each row takes 3 from the 3a the columns start with, so they are
        # spent exactly when a rows are placed
        if not any(columns_left):
            yield ()
            return
        for k in range(start, len(all_rows)):
            row = all_rows[k]
            if all(x <= c for x, c in zip(row, columns_left)) and not any(
                t and x < y for t, x, y in zip(tied, row, row[1:])
            ):
                left = tuple(c - x for c, x in zip(columns_left, row))
                still = tuple(t and x == y for t, x, y in zip(tied, row, row[1:]))
                for rest in rows(left, k, still):
                    yield (row, *rest)

    yield from rows((3,) * a, 0, (True,) * (a - 1))


def _column_sorted(rows) -> tuple:
    """The greatest column permutation of a degree matrix given by its
    rows, its columns in decreasing order, and that column order."""
    columns = tuple(zip(*rows))
    order = sorted(range(len(columns)), key=columns.__getitem__, reverse=True)
    return tuple(zip(*(columns[j] for j in order))), order


def _matrix_edges(mat) -> tuple:
    """The edges of the bicoloured multigraph with degree matrix ``mat``."""
    a = len(mat)
    return tuple((i, a + j) for i in range(a) for j in range(a) for _ in range(mat[i][j]))


def _quotient_matrices(a: int):
    """Each isomorphism class of connected cubic bicoloured multigraphs
    with a white vertices, as its degree matrix (its edges are
    ``_matrix_edges`` of it), in decreasing order of the matrix.

    Entry (i, j) counts the edges from white vertex i to black vertex
    a + j, and a colour-preserving isomorphism permutes the rows and the
    columns, so a class is kept as its lexicographically greatest matrix
    with no graph isomorphism test (orderly generation: R. C. Read, "Every
    one a winner", 1978).  Sorting the rows in decreasing order gives no
    smaller image, and under one row order, sorting the columns in
    decreasing order gives the greatest image, so the greatest matrix has
    non-increasing rows and columns and ``_degree_matrices``, which
    yields only such matrices, yields it; each candidate is kept when no
    row order gives a greater image.  Connectivity is a class invariant,
    so it is tested on the kept matrix alone.
    """
    labels = (0,) * a + (-1,) * a
    for mat in _degree_matrices(a):
        if any(_column_sorted(rows)[0] > mat for rows in itertools.permutations(mat)):
            continue
        if is_connected(LabeledGraph(labels, _matrix_edges(mat))):
            yield mat


def enumerate_quotients(a_max: int) -> list[QuotientGraph]:
    """All connected cubic bipartite plane multigraphs with two to a_max
    0-vertices, one entry per isomorphism class and face census.

    The classes come from ``_quotient_matrices``, each with its first
    spherical rotation system of each face census in the table
    ``_shape``.  The two-vertex triple edge is left out: a fragment has at
    least three internal non-triangular faces, which forces at least two
    0-vertices in the quotient.
    """
    if a_max > 4:
        raise SearchError("quotient enumeration is budgeted for a <= 4")
    out = []
    for a in range(2, a_max + 1):
        for mat in _quotient_matrices(a):
            first = {}
            for q in _shape(mat):
                first.setdefault(tuple(q.census.items()), q)
            out.extend(first.values())
    return out


def _matching_bound(edge_faces, demands) -> int:
    """The least bead total that meets ``demands``, face by face, when no
    two faces are kept from sharing beads: the summed demands less the
    most beads that can each meet two units of them.

    A bead on an edge counts toward the faces on its two sides, so it
    meets two units only when both sides have demand left, or one face
    twice across an edge with that face on both sides; together such
    beads meet at most a face's demand of its units.  The most of them is
    found by an exhaustive recursion over the demands left (at most a + 2
    faces, each needing at most 2), in which one unit of the first face
    with demand goes unpaired or is met together with a unit of a
    partner.  Every other unit takes one bead of its own on any edge of
    its face, so this total is reached, and no placement, with sharing
    forbidden or not, has fewer beads.
    """
    partners = [set() for _ in demands]
    for fa, fb in edge_faces:
        if demands[fa] and demands[fb]:
            partners[fa].add(fb)
            partners[fb].add(fa)

    @functools.cache
    def paired(left: tuple) -> int:
        f = next((f for f, d in enumerate(left) if d), None)
        if f is None:
            return 0
        rest = list(left)
        rest[f] -= 1
        best = paired(tuple(rest))
        for g in partners[f]:
            if rest[g]:
                both = rest.copy()
                both[g] -= 1
                best = max(best, 1 + paired(tuple(both)))
        return best

    return sum(demands) - paired(tuple(demands))


class MinBeadsResult(NamedTuple):
    total: int
    placement: tuple[int, ...]


def min_beads(q: QuotientGraph, outer_face: int | None = None) -> MinBeadsResult:
    """Minimum bead count meeting every face demand of the quotient.

    A quotient 2k-face with b beads on its edges (a bead counts toward the
    faces on both sides of its edge) has m = k + b, so it demands
    ``face_floor`` less k beads when positive: two on an internal 2-face,
    one on an internal 4-face or an outer 2-face.  No two internal faces
    may break ``bead_sharing_excluded``; checking only pairs of internal
    2- and 4-faces is exact, not a relaxation, since a face's m counts
    every bead it shares: m_a >= k_a + shared, so shared >=
    max(m_a, m_b, 3) - 2 needs k <= 2 on both faces.  A placement always
    exists; the search is budgeted at 3a + 6 beads, and a quotient that
    needs more is malformed and raises SearchError, as does an outer face
    that is not one of the quotient's faces.

    The search starts at the total ``_matching_bound`` gives for the
    demands alone.  No placement below it meets the demands, even with
    sharing allowed, and a search at such a total finds only placements
    that meet them, so it would find none: the first total with a
    placement, and the placement found, are those of a start at 0.

    For each total from there up, beads are placed edge by edge in edge order,
    fewest first, from tables built once per call: each edge's faces, its
    short internal pair when its two sides are two such faces (read from
    ``face_pair_edges``), and the faces and pairs whose last edge it is.
    The deficit (unmet demand summed over faces) and each pair's shared
    beads are kept up to date as the counts change.  A branch is cut when
    the deficit exceeds twice the beads left, when a face whose last edge
    was just placed falls short of its demand, or when a short internal
    pair whose faces are now both closed shares too many beads (a pair
    that shares no edge shares no bead, which no threshold forbids).  A
    closed face's count and the beads it shares are final, so every cut
    branch holds no valid placement, and the first placement found is the
    one an unpruned search that checks only at the leaves finds.
    """
    outer = q.outer_face if outer_face is None else outer_face
    faces = q.faces
    if outer not in range(len(faces)):
        raise SearchError(f"outer face {outer!r} is not one of the quotient's {len(faces)} faces")
    ne = len(q.edges)
    edge_faces = q.edge_faces
    half = [len(f) // 2 for f in faces]
    demands = [max(0, face_floor(fid != outer) - k) for fid, k in enumerate(half)]
    last_edge = {f: e for e, fs in enumerate(edge_faces) for f in fs}
    closing = [[] for _ in range(ne)]
    for f, e in last_edge.items():
        if demands[f]:
            closing[e].append(f)
    short = {fid for fid, f in enumerate(faces) if fid != outer and len(f) in (2, 4)}
    edge_pair = [None] * ne
    closing_pairs = [[] for _ in range(ne)]
    shared = []
    for (fa, fb), edge_ids in q.face_pair_edges.items():
        if fa in short and fb in short:
            for e in edge_ids:
                edge_pair[e] = len(shared)
            closing_pairs[max(last_edge[fa], last_edge[fb])].append((len(shared), fa, fb))
            shared.append(0)
    counts = [0] * len(faces)
    placement = [0] * ne

    def closed_ok(e: int) -> bool:
        for f in closing[e]:
            if counts[f] < demands[f]:
                return False
        for p, fa, fb in closing_pairs[e]:
            if bead_sharing_excluded(shared[p], half[fa] + counts[fa], half[fb] + counts[fb]):
                return False
        return True

    def go(e: int, left: int, deficit: int):
        if deficit > 2 * left:
            return None
        if e == ne:
            return tuple(placement) if left == 0 else None
        fs = edge_faces[e]
        p = edge_pair[e]
        check = closing[e] or closing_pairs[e]
        for b in range(left + 1):
            placement[e] = b
            d = deficit
            for f in fs:
                need = demands[f] - counts[f]
                if need > 0:
                    d -= b if b < need else need
                counts[f] += b
            if p is not None:
                shared[p] += b
            got = None if check and not closed_ok(e) else go(e + 1, left - b, d)
            for f in fs:
                counts[f] -= b
            if p is not None:
                shared[p] -= b
            placement[e] = 0
            if got is not None:
                return got
        return None

    for total in range(_matching_bound(edge_faces, demands), 3 * q.a + 6 + 1):
        got = go(0, total, sum(demands))
        if got is not None:
            return MinBeadsResult(total, got)
    raise SearchError("bead demand search exceeded its budget; malformed quotient")
