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


def _orbit_reps(group, perms):
    """One voltage per orbit of ``group`` acting on ``perms`` by
    conjugation, with its stabilizer in ``group``.

    ``perms`` must be in increasing order; each yielded voltage is the
    least of its orbit.  Yields (voltage, stabilizer) pairs.
    """
    if len(group) == 1 or len(perms) <= 2:
        # conjugation acts trivially: the group is trivial, or it lies in
        # S_n for n <= 2, which is abelian
        for p in perms:
            yield p, group
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
        yield p, tuple(stabilizer)


def _scan_chunk(base: BaseGraph, n: int, firsts):
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
    stabilizer.  Each prefix ORs its edge's lifted rows into its parent's
    adjacency rows and joins its voltage to the sheet orbits; once the
    orbits are one, every completion is transitive.  When every cover has
    3V - 6 edges it is planar only if it is a triangulation; a derived
    vertex's row is final once its base vertex's last cotree edge is in,
    and a thin edge between final vertices (``has_thin_edge``) makes the
    prefix dead: every completion is non-planar, so deeper prefixes skip
    their rows and leaves skip ``planar_rows``.  A dead prefix whose orbits
    are one is counted whole, its weight times (n!)^k for the k cotree
    edges left: every completion is connected and none planar.
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
    # with the first k cotree edges in, fresh[k] lists the derived vertices
    # whose rows become final, final[k] is the bitmask of all final ones;
    # both stay empty unless the thin-edge rule applies
    fresh = [[] for _ in range(depth + 2)]
    if nverts >= 4 and m == 3 * nverts - 6:
        last = {b: k + 1 for k, e in enumerate(cotree) for b in g.edges[e]}
        for b in range(g.n):
            fresh[last.get(b, 0)].extend(range(b * n, b * n + n))
    final = list(itertools.accumulate(sum(1 << v for v in vs) for vs in fresh))

    def visit(k, volt, group, weight, rows, orbits, dead):
        # cotree edge k takes the last voltage of ``volt``, whose parent
        # prefix has the given rows, orbits and dead flag; ``group`` is the
        # stabilizer of ``volt`` and ``weight`` the size of its orbit
        nonlocal connected_count, planar_count
        p = volt[-1]
        if orbits[0] != one_orbit:
            orbits = join_sheets(orbits, p)
        if not dead:
            rows = [a | b for a, b in zip(rows, lifts[k][p])]
            dead = has_thin_edge(rows, fresh[k + 1], final[k + 1])
        transitive = orbits[0] == one_orbit
        if k == depth or dead and transitive:
            if transitive:
                connected_count += weight * len(perms) ** (depth - k)
                if not dead and planar_rows(rows, m):
                    planar_count += weight
                    classes.append((volt, weight))
            return
        for q, stabilizer in _orbit_reps(group, perms):
            index = len(group) // len(stabilizer)
            visit(k + 1, (*volt, q), stabilizer, weight * index, rows, orbits, dead)

    rows = adjacency_rows(nverts, derived_edges(tree, n, perms[:1] * len(tree)))
    dead = has_thin_edge(rows, fresh[0], final[0])
    for first in firsts:
        centralizer = tuple(h for h in perms if _conjugate(h, first) == first)
        visit(0, (first,), centralizer, 1, rows, tuple(1 << i for i in range(n)), dead)
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


def search_k4_fragments(h_max: int, budget: int = 10**9, workers: int = 1, progress=None) -> dict:
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
        record = _scan_fold(base, h, budget, workers)
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
        "timing": {"seconds": time.monotonic() - t0, "workers": workers},
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
