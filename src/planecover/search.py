"""Exhaustive, certificate-producing searches.

Covers are enumerated through normalized voltage assignments (spanning
tree fixed to the identity).  Sheet relabeling acts on them by
simultaneous conjugation of the cotree voltages, so the scan visits one
tuple per conjugation orbit: the first cotree voltage runs over conjugacy
class representatives, and each later one over orbit representatives of
the stabilizer of the voltages before it.  Both bases have pairwise
distinct vertex labels, so a label-preserving isomorphism of derived
graphs fixes every fiber, agrees along the identity tree edges, and is
one sheet permutation: distinct orbits give covers in distinct
isomorphism classes.  So a class is named by the voltage the scan visits,
the least normalized voltage of its orbit whose first cotree voltage is a
cycle-type representative, and the scan order, lexicographic by that
voltage, is the certificate order.  Each orbit's lift and transitivity
test are the ones ``covers`` defines.

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
from .embedding import PlaneEmbedding, adjacency_rows, planar_rows, planarity, trace_faces
from .graphs import (
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
        if not isinstance(obj.get("base"), str):
            raise SearchError("search spec lacks a 'base' name")
        for key, value in _FIXED_SPEC_FIELDS.items():
            given = obj.get(key, value)
            if type(given) is not type(value) or given != value:
                raise SearchError(
                    f"search spec field {key!r} may only be {json.dumps(value)}, not "
                    f"{given!r}: covers mode keeps the connected planar covers, one per class"
                )
        return cls(
            base=obj["base"],
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


def _orbit_tuples(group, perms, depth: int):
    """One tuple per orbit of ``group`` acting on ``depth``-tuples of
    ``perms`` by simultaneous conjugation, with the tuple's stabilizer.

    ``perms`` must be in increasing order.  Each coordinate is taken as
    the least of its orbit under the stabilizer of the coordinates before
    it, so every yielded tuple is the lexicographic least of its orbit.
    Yields (tuple, stabilizer) pairs.
    """
    if depth == 0:
        yield (), group
        return
    if len(group) == 1 or len(perms) <= 2:
        # conjugation acts trivially: the group is trivial, or it lies in
        # S_n for n <= 2, which is abelian
        for rest in itertools.product(perms, repeat=depth):
            yield rest, group
        return
    seen = set()
    for p in perms:
        if p in seen:
            continue
        stabilizer = []
        for g in group:
            q = _conjugate(g, p)
            seen.add(q)
            if q == p:
                stabilizer.append(g)
        for rest, final in _orbit_tuples(tuple(stabilizer), perms, depth - 1):
            yield (p, *rest), final


def voltage_orbits(n: int, firsts, depth: int):
    """Orbits of normalized cotree voltages under sheet relabeling.

    For each first voltage ``c`` in ``firsts`` (conjugacy class
    representatives), yields one ``(c, t_1, ..., t_depth)`` per orbit of
    the centralizer of ``c`` acting by simultaneous conjugation, as
    (voltage, centralizer size, stabilizer size).  The voltage is the
    least of its orbit, and the orbit holds centralizer size / stabilizer
    size of the tuples that start with ``c``.
    """
    perms = tuple(itertools.permutations(range(n)))
    for first in firsts:
        centralizer = tuple(g for g in perms if _conjugate(g, first) == first)
        for rest, stabilizer in _orbit_tuples(centralizer, perms, depth):
            yield (first, *rest), len(centralizer), len(stabilizer)


def _scan_chunk(base: BaseGraph, n: int, firsts):
    """Scan the normalized assignments with the given first-cotree voltages.

    Every test runs once per orbit of sheet relabeling (simultaneous
    conjugation), on the orbit's least tuple; each orbit counts for the
    assignments of the full scan that fall in it.  Returns (visited,
    connected_count, planar_count, classes) where classes lists (voltage,
    assignment count) for each class of connected planar covers, in scan
    order: by voltage.

    The tuples come in lexicographic order, so the scan keeps one level
    per cotree edge (the derived graph's adjacency rows and sheet orbits)
    and rebuilds only the levels from the first coordinate that changed: a
    level ORs in its edge's lifted rows and joins its voltage to the orbits.
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
    perms = tuple(itertools.permutations(range(n)))
    tree = [g.edges[e] for e in base.spanning_tree_edges]
    lifts = [
        {p: adjacency_rows(nverts, derived_edges((g.edges[e],), n, (p,))) for p in perms}
        for e in cotree
    ]
    rows = [adjacency_rows(nverts, derived_edges(tree, n, perms[:1] * len(tree)))] * (depth + 2)
    orbits = [tuple(1 << i for i in range(n))] * (depth + 2)
    prev = (None,) * (depth + 1)
    for volt, cent, stab in voltage_orbits(n, firsts, depth):
        weight = cent // stab
        k = 0
        while volt[k] == prev[k]:
            k += 1
        for k in range(k, depth + 1):
            p = volt[k]
            rows[k + 1] = [a | b for a, b in zip(rows[k], lifts[k][p])]
            orbits[k + 1] = join_sheets(orbits[k], p)
        prev = volt
        if orbits[-1][0] != one_orbit:
            continue
        connected_count += weight
        if not planar_rows(rows[-1], m):
            continue
        planar_count += weight
        classes.append((volt, weight))
    return visited, connected_count, planar_count, classes


def _scan(base: BaseGraph, n: int, workers: int = 1):
    firsts = conjugacy_representatives(n)
    if workers <= 1 or len(firsts) == 1:
        return _scan_chunk(base, n, firsts)
    import multiprocessing as mp

    chunks = [[f] for f in firsts]
    with mp.Pool(min(workers, len(chunks))) as pool:
        results = pool.starmap(_scan_chunk, [(base, n, ch) for ch in chunks])
    # the chunks follow the sorted first voltages, so joining them keeps
    # the scan order
    visited, connected, planar, classes = zip(*results)
    return sum(visited), sum(connected), sum(planar), list(itertools.chain(*classes))


# ---------------------------------------------------------------------------
# One fold: budget, scan and certificate entries
# ---------------------------------------------------------------------------


def _scan_fold(base: BaseGraph, n: int, budget: int, workers: int = 1) -> dict:
    """Scan fold ``n`` of ``base`` and build its fold record.

    A worker count below 1 is refused first.  The fold is refused when its
    (n!)^k normalized assignments exceed ``budget``; k·log(n!) is compared
    with log(budget) first, so a fold far beyond the budget is refused
    without computing (n!)^k.  The record holds the counts and one entry
    per isomorphism class of connected planar covers, in scan order; each
    search adds its verdicts and survivors to the entries.
    """
    if workers < 1:
        raise SearchError(f"worker count must be at least 1, not {workers}")
    log_estimate = len(base.cotree_edges) * math.lgamma(n + 1)
    estimate = None
    if budget >= 1 and log_estimate <= math.log(budget) + 1e-9:
        estimate = estimate_nodes(base, n)
    if estimate is None or estimate > budget:
        raise BudgetExceeded(
            f"voltage space for base {base.kind!r} at fold {n} has about "
            f"{_approx(log_estimate / math.log(10))} assignments, beyond the budget {budget}"
        )
    visited, connected, planar, classes = _scan(base, n, workers)
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


def enumerate_covers(spec: SearchSpec, workers: int = 1) -> dict:
    """Certify the connected planar covers of ``spec.base`` at fold
    ``spec.n``, one candidate entry per isomorphism class.

    Returns the certificate as a plain JSON-ready dict; the "timing"
    entry is a sidecar excluded from byte-for-byte comparisons.
    """
    t0 = time.monotonic()
    record = _scan_fold(make_base(spec.base), spec.n, spec.budget, workers)
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
        "timing": {"seconds": time.monotonic() - t0, "workers": workers},
    }


# ---------------------------------------------------------------------------
# Fragment candidate analysis (bare K4-cover, all embeddings)
# ---------------------------------------------------------------------------


#: The analyzer's graph-level gate, in order: (filter key, predicate).
_GATES = (
    ("not_k4", lambda g: not (g.n == 4 and g.m == 6)),
    ("negative_lift_triangular", negative_lift_triangular),
)


def _gate_result(verdicts) -> dict:
    """A fresh analyzer result with the graph-level gate's (filter key,
    verdict) pairs recorded in order, up to and including the first that
    fails, which becomes ``excluded_by``.  Verdicts are read lazily."""
    result = {
        "filters": {},
        "excluded_by": [],
        "embeddings": {"structures": 0, "outer_choices": 0, "passing": 0},
        "quotient_censuses": [],
        "survivor": False,
    }
    for key, ok in verdicts:
        result["filters"][key] = ok
        if not ok:
            result["excluded_by"] = [key]
            break
    return result


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


def _shape_rotations(shapes: dict, a: int, edges):
    """``spherical_rotations(a, edges)`` up to order and reflection.
    ``shapes`` maps the greatest degree matrix of each shape met so far
    to the rotations of the matrix's own edge list; the graph takes them
    through the row and column orders that give its matrix, pairing
    parallel edges in order, and traces its own faces.  That map is a
    colour-preserving isomorphism, so reflection pairs stay together."""
    mat = [[0] * a for _ in range(a)]
    for u, v, _ in edges:
        mat[u][v - a] += 1
    key, columns, rows = max(
        (*_column_sorted([mat[i] for i in rows]), rows) for rows in itertools.permutations(range(a))
    )
    if key not in shapes:
        own = tuple((u, v, 0) for u, v in _matrix_edges(key))
        shapes[key] = [q.rotation for q in spherical_rotations(a, own)]
    edge_of = [
        e for i in rows for j in columns for e, (u, v, _) in enumerate(edges) if (u, v) == (i, a + j)
    ]
    vertex_of = (*rows, *(a + j for j in columns))
    for own_rotation in shapes[key]:
        rotation = [()] * (2 * a)
        for v, ids in zip(vertex_of, own_rotation):
            rotation[v] = tuple(edge_of[e] for e in ids)
        yield QuotientGraph(a=a, edges=edges, rotation=tuple(rotation), outer_face=0)


def analyze_fragment_candidate(g: LabeledGraph) -> dict:
    """Run the bare-fragment filter pipeline over every plane embedding.

    The input is a connected cover of K4, as every class the scan visits
    is.  Such a cover is simple, cubic and bridgeless (each lifted edge
    lies on a lift of a base cycle), so it is 2-connected and the gate
    does not test condition (g).  Its negative-lift test runs vertex by
    vertex; ``search_k4_fragments`` decides it from the voltage instead.

    Embeddings are enumerated on the contracted quotient: an admissible
    embedding must make every 3-cycle facial, which pins the bead and
    triangle interiors and leaves exactly the quotient's rotation choices
    (bead reflections change nothing any condition can see).  Every
    quotient face corresponds to a non-triangular fragment face of length
    3(k + beads) where 2k is the quotient face length; triangular outer
    choices are excluded wholesale by the boundary condition.  The
    rotations come from a shape table built for this call
    (``_shape_rotations``).
    """
    return _analyze(g, {})


def _analyze(g: LabeledGraph, shapes: dict) -> dict:
    """``analyze_fragment_candidate`` with a shape table calls may share."""
    result = _gate_result((key, holds(g)) for key, holds in _GATES)
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

    beads = [b for _, _, b in sk.edges]
    n_tri_faces = 2 * len(sk.beads) + len(sk.black_triangles)
    passing = 0
    outer_choices = 0
    structures = 0
    for q in _shape_rotations(shapes, sk.a, sk.edges):
        structures += 1
        face_beads = [sum(beads[e] for e in sides) for sides in q.face_edge_sides]
        thirds = [len(f) // 2 + face_beads[i] for i, f in enumerate(q.faces)]
        censuses.append(census_to_obj(q.census))
        outer_choices += n_tri_faces  # triangular fragment faces as outer
        if n_tri_faces:
            excluded_by.add("outer_face_nontriangular")
        for i in range(len(q.faces)):
            outer_choices += 1
            internal = [j for j in range(len(q.faces)) if j != i]
            if any(thirds[j] == 2 for j in internal):
                excluded_by.add("no_internal_hexagon")
                continue
            # faces that share no edge share no bead, which no threshold forbids
            if any(
                i not in (fa, fb)
                and bead_sharing_excluded(sum(beads[e] for e in edge_ids), thirds[fa], thirds[fb])
                for (fa, fb), edge_ids in q.face_pair_edges.items()
            ):
                excluded_by.add("bead_sharing")
                continue
            # the class's own beads are now a placement min_beads accepts: a
            # bead-free 2-face would be a bead, and an internal 2-face with
            # one bead or 4-face with none a hexagon
            passing += 1
    result["embeddings"] = {
        "structures": structures,
        "outer_choices": outer_choices,
        "passing": passing,
    }
    result["survivor"] = passing > 0
    result["excluded_by"] = sorted(excluded_by)
    return result


# ---------------------------------------------------------------------------
# Fragment search over folds
# ---------------------------------------------------------------------------


def search_k4_fragments(h_max: int, budget: int = 10**9, workers: int = 1, progress=None) -> dict:
    """Enumerate admissible K4-cover fragments for every fold up to h_max.

    Each fold scans the connected planar covers of K4, one per
    conjugation orbit, and pushes every class through the bare-fragment
    conditions over all its plane embeddings and outer-face choices.
    Entries gain the analyzer's verdict and their fold, and the quotient
    censuses are merged per fold.

    The (-1,-2,-3) lift is all triangles exactly when the voltage (c12,
    c13, c23) on K4's cotree edges (1,2), (1,3), (2,3) has c13[i] ==
    c23[c12[i]] on every sheet i; only the classes that meet this rule are
    derived and analyzed, each quotient shape enumerated once per call.
    """
    if not 1 <= h_max <= 6:
        raise SearchError("fragment search covers folds 1 to 6")
    t0 = time.monotonic()
    base = make_base(K4NEG)
    shapes = {}
    folds = []
    all_censuses = []
    for h in range(1, h_max + 1):
        if progress is not None:
            progress(f"fold {h}: scanning ...")
        record = _scan_fold(base, h, budget, workers)
        fold_censuses = set()
        for entry in record["candidates"]:
            c12, c13, c23 = entry["voltage"]
            if any(c13[i] != c23[c12[i]] for i in range(h)):
                # the gate's verdict, from the voltage; K4, fold 1's one
                # class, meets the rule
                analysis = _gate_result((("not_k4", True), ("negative_lift_triangular", False)))
            else:
                g, _ = derive(normalized_assignment(base, h, entry["voltage"]))
                analysis = _analyze(g, shapes)
            censuses = analysis.pop("quotient_censuses")
            fold_censuses.update(tuple(sorted(c.items())) for c in censuses)
            entry.update(analysis, fold=h)
            if h == 6 and entry["survivor"]:
                entry["interior_triangle_check"] = _h6_survivor_check(g)
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
        "timing": {"seconds": time.monotonic() - t0, "workers": workers},
    }


def _h6_survivor_check(g: LabeledGraph) -> dict:
    """For a fold-6 survivor: the forced interior-triangle count from its
    outer face length must reach 3 (the necklace case being excluded)."""
    from .bounds import interior_triangle_bound

    emb = planarity(g)
    out = []
    if isinstance(emb, PlaneEmbedding):
        for f in emb.faces:
            if f.length > 3 and f.length % 3 == 0:
                m = f.length // 3
                if 3 * 6 >= 2 * m:
                    out.append({"m": m, "bound": interior_triangle_bound(6, m)[1]})
    return {"per_outer_m": out, "ok": all(e["bound"] >= 3 or e["m"] == 6 for e in out)}


# ---------------------------------------------------------------------------
# Quotient universe and bead demands
# ---------------------------------------------------------------------------


def _degree_matrices(a: int):
    """The a-by-a nonnegative matrices with row and column sums 3 and
    non-increasing rows (the greatest matrix of a class has them), in
    decreasing lexicographic order."""
    all_rows = sorted((r for r in itertools.product(range(4), repeat=a) if sum(r) == 3), reverse=True)

    def rows(columns_left, start):
        # each row takes 3 from the 3a the columns start with, so they are
        # spent exactly when a rows are placed
        if not any(columns_left):
            yield ()
            return
        for k in range(start, len(all_rows)):
            row = all_rows[k]
            if all(x <= c for x, c in zip(row, columns_left)):
                left = tuple(c - x for c, x in zip(columns_left, row))
                for rest in rows(left, k):
                    yield (row, *rest)

    yield from rows((3,) * a, 0)


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
    with a white vertices, as its degree matrix and edge list, in
    decreasing order of the matrix.

    Entry (i, j) counts the edges from white vertex i to black vertex
    a + j, and a colour-preserving isomorphism permutes the rows and the
    columns, so a class is kept as its lexicographically greatest matrix
    with no graph isomorphism test (orderly generation: R. C. Read, "Every
    one a winner", 1978).  Under one row order, sorting the columns in
    decreasing order gives the greatest image.  Connectivity is a class
    invariant, so it is tested on the kept matrix alone.
    """
    labels = (0,) * a + (-1,) * a
    for mat in _degree_matrices(a):
        if any(_column_sorted(rows)[0] > mat for rows in itertools.permutations(mat)):
            continue
        edges = _matrix_edges(mat)
        if is_connected(LabeledGraph(labels, edges, simple=False)):
            yield mat, edges


def enumerate_quotients(a_max: int) -> list[QuotientGraph]:
    """All connected cubic bipartite plane multigraphs with two to a_max
    0-vertices, one entry per isomorphism class and face census.

    The classes come from ``_quotient_matrices``, each with its first
    spherical rotation system of each face census.  The two-vertex triple
    edge is left out: a fragment has at least three internal
    non-triangular faces, which forces at least two 0-vertices in the
    quotient.
    """
    if a_max > 4:
        raise SearchError("quotient enumeration is budgeted for a <= 4")
    out = []
    for a in range(2, a_max + 1):
        for _, simple_edges in _quotient_matrices(a):
            edges = tuple((u, v, 0) for u, v in simple_edges)
            seen_census = set()
            for q in spherical_rotations(a, edges):
                census = tuple(sorted(len(f) for f in q.faces))
                if census not in seen_census:
                    seen_census.add(census)
                    out.append(q)
    return out


class MinBeadsResult(NamedTuple):
    total: int
    placement: tuple[int, ...]


def min_beads(q: QuotientGraph, outer_face: int | None = None) -> MinBeadsResult:
    """Minimum bead count meeting every face demand of the quotient.

    Internal 2-faces need two beads and internal 4-faces one (their
    fragment faces must reach length nine); an outer 2-face needs one; a
    bead counts toward the two faces flanking its edge; and no two
    internal short faces may share beads up to the forbidden threshold.
    A placement always exists; the search is budgeted at 3a + 6 beads, and
    a quotient that needs more is malformed and raises SearchError, as
    does an outer face that is not one of the quotient's faces.

    For each total from 0 up, beads are placed edge by edge in edge order,
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
    demands = [
        (1 if len(f) == 2 else 0) if fid == outer else {2: 2, 4: 1}.get(len(f), 0)
        for fid, f in enumerate(faces)
    ]
    half = [len(f) // 2 for f in faces]
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

    for total in range(3 * q.a + 6 + 1):
        got = go(0, total, sum(demands))
        if got is not None:
            return MinBeadsResult(total, got)
    raise SearchError("bead demand search exceeded its budget; malformed quotient")
