"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own algorithms: planarity is
decided by exhaustive subdivision search, connectivity by exhaustive cut
enumeration with union-find, and the graph corpus is built by vertex
extension with canonical dedup.  The reference voltage scan visits every
normalized assignment, derives each once and decides connectivity on the
derived graph, not by sheet transitivity; it keeps only the library's
canonical form.  So it checks the orbit reduction of the library's scan,
its transitivity test, and the voltage that names each class, on its
own; it and the unnormalized scan decide planarity by the bare networkx
LR test, without the library's edge-count pre-check.  The format-1
certificates are built as the library built them before classes were
named by voltage: the orbit scan keys each class by the canonical form of
its derived graph, stops on a form shared by two orbits, and orders and
names the classes by that form; each fragment entry takes its verdict from the format-2
certificate.  That one is the format-3 certificate with what format 3
dropped put back: the ``two_connected`` filter and each class's vertex
connectivity, found by exhaustive cut search.  The
unnormalized scan checks the spanning-tree normalization, and the direct
fragment analyzer enumerates the fragment's own rotation systems instead
of the quotient's, behind its own graph-level gate and under the
library's shape exclusions; it keeps a bead-demand step, which the
library's analyzer does without, and runs it through the reference
bead-demand search below.  Isomorphism is checked by explicit
backtracking and, for quotient degree matrices, by trying every row and
column permutation of every matrix, generated without the package's
restriction to non-increasing rows and columns.  The package's generator
before it sorted the columns, and the orderly test that kept the first
matrix of each class it yields, are the reference for the classes the
package keeps.  The net voltage around a base
triangle is composed edge by edge, so its cycle lengths check the lift
lengths that ``find_cycles_covering`` reports, and the local negative-lift
gate is checked against the components of that lift.  The reference
bead-demand search is the unpruned placement search that ``min_beads``
replaced: it checks the face demands and the bead-sharing pairs only at
the leaves, and counts the beads two faces share from their own edge
sets, not through the search module's helpers.  The least bead total
that meets the face demands alone, sharing allowed, is found by trying
every multiset of edges, smallest first.  The small helpers only
the tests need live here too: the identity assignment, the transitivity
test that folds ``join_sheets`` over a voltage, the orbit tuples of a
fold, an embedding's sorted face lengths and a vertex renumbering of a
graph.  The orbit tuples are the leaves of the scan's prefix tree, found
by a short recursion over a restatement of the scan's per-level rule on
permutation tuples (``orbit_reps``), which shares no code with the scan's
index tables, so the orbit counts that the tests check against P. and M.
Hall's hold that rule apart from the scan; the scan's own weights are
checked against M. Hall's transitive-triple counts directly.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter

import networkx as nx

from planecover.covers import (
    VoltageAssignment,
    conjugacy_representatives,
    derive,
    derived_edges,
    join_sheets,
    normalized_assignment,
)
from planecover.embedding import (
    PlaneEmbedding,
    _canonical_rotation,
    planar_edges,
    triangle_faces,
)
from planecover.graphs import (
    K4NEG,
    BaseGraph,
    LabeledGraph,
    canonical_form,
    find_cycles_covering,
    is_connected,
    make_base,
)
from planecover.search import (
    MinBeadsResult,
    SearchError,
    estimate_nodes,
    search_k4_fragments,
)
from planecover.structure import (
    QuotientError,
    QuotientGraph,
    StructureError,
    _bead_hosts,
    bead_sharing_excluded,
    face_count_exclusion,
    find_beads,
    quotient_graph,
)


def identity_assignment(base: BaseGraph, n: int) -> VoltageAssignment:
    """The n-sheet assignment with the identity on every base edge."""
    ident = tuple(range(n))
    return VoltageAssignment(base, n, tuple(ident for _ in range(base.graph.m)))


def sheets_transitive(perms, n: int) -> bool:
    """True iff the group generated by the permutations acts transitively
    on the n sheets: joining them one by one leaves one orbit."""
    orbits = tuple(1 << i for i in range(n))
    for p in perms:
        orbits = join_sheets(orbits, p)
    return orbits[0] == (1 << n) - 1


def conjugate(g, p) -> tuple[int, ...]:
    """g p g^-1 as a permutation tuple: x goes to g[p[g^-1[x]]]."""
    g_inv = [0] * len(g)
    for i, j in enumerate(g):
        g_inv[j] = i
    return tuple(g[p[x]] for x in g_inv)


def orbit_reps(group, perms):
    """One permutation per orbit of ``group`` acting on ``perms`` by
    conjugation, with its stabilizer in ``group``.

    ``perms`` must be in increasing order; each yielded permutation is
    the least of its orbit.  Yields (permutation, stabilizer) pairs.
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
            q = conjugate(g, p)
            seen.add(q)
            if q == p:
                stabilizer.append(g)
        yield p, tuple(stabilizer)


def voltage_orbits(n: int, firsts, depth: int):
    """Orbits of normalized cotree voltages under sheet relabeling: for
    each first voltage ``c`` in ``firsts`` (conjugacy class
    representatives), one ``(c, t_1, ..., t_depth)`` per orbit of the
    centralizer of ``c`` acting by simultaneous conjugation, each t_i from
    ``orbit_reps`` of the stabilizer of the coordinates before it.

    Yields (voltage, centralizer size, stabilizer size).  The voltage is
    the least of its orbit, and the orbit holds centralizer size /
    stabilizer size of the tuples that start with ``c``.
    """
    perms = tuple(itertools.permutations(range(n)))

    def extend(volt, group, left):
        if left == 0:
            yield volt, len(group)
            return
        for p, stabilizer in orbit_reps(group, perms):
            yield from extend((*volt, p), stabilizer, left - 1)

    for first in firsts:
        centralizer = tuple(g for g in perms if conjugate(g, first) == first)
        for volt, stab in extend((first,), centralizer, depth):
            yield volt, len(centralizer), stab


def face_lengths(emb: PlaneEmbedding) -> list[int]:
    """The lengths of an embedding's faces, sorted."""
    return sorted(f.length for f in emb.faces)


def relabel_vertices(g: LabeledGraph, perm) -> LabeledGraph:
    """Image of g under a vertex renumbering (perm maps old id to new id)."""
    labels = [0] * g.n
    for v in range(g.n):
        labels[perm[v]] = g.labels[v]
    return LabeledGraph(tuple(labels), tuple((perm[u], perm[v]) for u, v in g.edges))


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
    """Exhaustive vertex-cut search with union-find, capped at 3: the
    cap of format 2's ``connectivity`` field, which
    ``format_two_fragments`` writes from it.  The package's
    ``connectivity`` stops at 2."""
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


def lr_planar(g: LabeledGraph) -> bool:
    """Bare networkx LR test, without the library's edge-count pre-checks."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.check_planarity(G, counterexample=False)[0]


def reference_scan(base, n: int, firsts):
    """Brute-force normalized voltage scan: every cotree tuple whose first
    voltage is in ``firsts``, one derived graph and one connectivity,
    planarity and canonical-form test per tuple.

    Returns (visited, connected_count, planar_count, classes) where classes
    lists (least voltage, assignment count) for each canonical class, by
    voltage.
    """
    perms = tuple(itertools.permutations(range(n)))
    visited = connected_count = planar_count = 0
    classes: dict[bytes, list] = {}
    for first in firsts:
        for rest in itertools.product(perms, repeat=len(base.cotree_edges) - 1):
            volt = (first, *rest)
            visited += 1
            g, _ = derive(normalized_assignment(base, n, volt))
            if not is_connected(g):
                continue
            connected_count += 1
            if not lr_planar(g):
                continue
            planar_count += 1
            entry = classes.setdefault(canonical_form(g), [volt, 0])
            entry[1] += 1
            entry[0] = min(entry[0], volt)
    return visited, connected_count, planar_count, sorted(map(tuple, classes.values()))


def enumerate_covers_unnormalized(base_kind: str, n: int) -> dict[bytes, list]:
    """Full scan over all |S_n|^m assignments, tree edges included.

    Certifies that spanning-tree normalization loses nothing; returns the
    canonical classes of the connected planar covers.
    """
    base = make_base(base_kind)
    perms = tuple(itertools.permutations(range(n)))
    classes: dict[bytes, list] = {}
    for volt in itertools.product(perms, repeat=base.graph.m):
        g, _ = derive(VoltageAssignment(base, n, volt))
        if not is_connected(g):
            continue
        if not lr_planar(g):
            continue
        entry = classes.setdefault(canonical_form(g), [volt, 0])
        entry[1] += 1
    return classes


def _format_one_fold(base, n: int) -> dict:
    """The format-1 fold record: the orbit scan with each connected planar
    class keyed by the canonical form of its derived graph, the entries in
    the order of those forms and named by their digests."""
    labels = tuple(base.graph.labels[b] for b in range(base.graph.n) for _ in range(n))
    depth = len(base.cotree_edges) - 1
    firsts = conjugacy_representatives(n)
    connected = planar = 0
    classes: dict[bytes, tuple] = {}
    perms = [tuple(range(n))] * base.graph.m
    for volt, cent, stab in voltage_orbits(n, firsts, depth):
        if not sheets_transitive(volt, n):
            continue
        connected += cent // stab
        for eid, p in zip(base.cotree_edges, volt):
            perms[eid] = p
        edges = derived_edges(base.graph.edges, n, perms)
        if not planar_edges(len(labels), edges):
            continue
        planar += cent // stab
        key = canonical_form(LabeledGraph(labels, tuple(edges)))
        assert key not in classes, f"orbits of {classes[key][0]} and {volt} share a class"
        classes[key] = (volt, cent // stab)
    return {
        "visited": len(firsts) * math.factorial(n) ** depth,
        "pre_prune_estimate": estimate_nodes(base, n),
        "connected": connected,
        "planar": planar,
        "classes": len(classes),
        "candidates": [
            {
                "canonical": hashlib.sha256(key).hexdigest()[:16],
                "assignments": count,
                "voltage": [list(p) for p in volt],
            }
            for key, (volt, count) in sorted(classes.items())
        ],
    }


def format_one_covers(kind: str, n: int) -> dict:
    """The format-1 certificate of ``enumerate_covers(SearchSpec(kind, n))``
    without its timing.  The odd-fold K1,2,2,2 alarm is not reproduced."""
    record = _format_one_fold(make_base(kind), n)
    for entry in record["candidates"]:
        entry.update(filters={"connected": True, "planar": True}, survivor=True)
    survivors = [e["canonical"] for e in record["candidates"]]
    assert not (kind == "k1222" and survivors and n % 2), "an alarm case"
    spec = {"mode": "covers", "base": kind, "n": n, "budget": 10**9}
    return {
        "format_version": 1,
        "spec": {**spec, "filters": ["connected", "planar"], "dedup": True},
        **record,
        "survivors": survivors,
        "survivor_count": len(survivors),
        "alarms": [],
        "skipped_conditions": [],
        "extra_conditions": [],
        "quotient_censuses": [],
    }


def format_two_fragments(h_max: int) -> dict:
    """The format-2 certificate of ``search_k4_fragments(h_max)`` without
    its timing: the format-3 certificate with each entry's vertex
    connectivity put back, from exhaustive cut search, and with its
    ``two_connected`` filter put back after a passing ``not_k4``.  Every
    class is a connected cover of K4, so that filter never failed."""
    cert = search_k4_fragments(h_max)
    del cert["timing"]
    cert["format_version"] = 2
    base = make_base(K4NEG)
    for fold in cert["folds"]:
        for entry in fold["candidates"]:
            g, _ = derive(normalized_assignment(base, fold["fold"], entry["voltage"]))
            entry["connectivity"] = connectivity_by_cut_search(g)
            if entry["filters"]["not_k4"]:
                assert entry["connectivity"] >= 2, entry["voltage"]
                entry["filters"] = {"not_k4": True, "two_connected": True, **entry["filters"]}
    return cert


def format_one_fragments(h_max: int) -> dict:
    """The format-1 certificate of ``search_k4_fragments(h_max)`` without
    its timing, for h_max <= 5 (the fold-6 survivor check is left out):
    the format-1 fold records, each entry completed by the format-2 entry
    of the same voltage."""
    assert 1 <= h_max <= 5
    two = format_two_fragments(h_max)
    base = make_base(K4NEG)
    folds = []
    for fold in two["folds"]:
        by_voltage = {repr(e["voltage"]): e for e in fold["candidates"]}
        record = _format_one_fold(base, fold["fold"])
        for entry in record["candidates"]:
            verdict = by_voltage.pop(repr(entry["voltage"]))
            assert verdict["assignments"] == entry["assignments"], entry["voltage"]
            entry.update(verdict)
        assert not by_voltage, "format-2 classes missing from the format-1 scan"
        record["survivors"] = [e["canonical"] for e in record["candidates"] if e["survivor"]]
        folds.append({"fold": fold["fold"], **record})
    return {**two, "format_version": 1, "folds": folds}


def negative_lift_by_components(h: LabeledGraph) -> bool:
    """Reference for ``structure.negative_lift_triangular``: the components
    of the (-1,-2,-3) lift, as ``find_cycles_covering`` builds them, are
    all cycles of length 3."""
    return all(
        comp.kind == "cycle" and comp.length == 3
        for comp in find_cycles_covering(h, (-1, -2, -3), make_base(K4NEG))
    )


def triangle_net_voltage(v: VoltageAssignment, triangle_labels) -> tuple[int, ...]:
    """Net voltage around a base triangle a < b < c (vertex ids), walked
    a -> b -> c -> a: the sheet that sheet i returns to."""
    base = v.base
    a, b, c = sorted(base.label_to_vertex[lab] for lab in triangle_labels)
    edge_id = {e: i for i, e in enumerate(base.graph.edges)}
    ab, bc, ac = (v.perms[edge_id[e]] for e in ((a, b), (b, c), (a, c)))
    return tuple(ac.index(bc[ab[i]]) for i in range(v.n))


def orbit_sizes(p) -> list[int]:
    """Sorted cycle lengths of a permutation."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        k, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            k += 1
        out.append(k)
    return sorted(out)


def permutation_order(p) -> int:
    return math.lcm(*orbit_sizes(p))


def _rotation_structures(g: LabeledGraph):
    """All spherical face structures of a cubic graph whose faces are all
    triangles or 0,a,b patterns, enumerated over rotation systems up to
    reflection.  Yields (state, faces) with faces as dart tuples."""
    n, m = g.n, g.m
    nd = 2 * m
    tail = [0] * nd
    for e, (u, v) in enumerate(g.edges):
        tail[2 * e], tail[2 * e + 1] = u, v
    out_darts = [[] for _ in range(n)]
    for d in range(nd):
        out_darts[tail[d]].append(d)
    if any(len(o) != 3 for o in out_darts):
        raise SearchError("rotation enumeration expects a cubic graph")
    zero_tail = [g.labels[tail[d]] == 0 for d in range(nd)]

    # succ[d]: next out-dart after d at its tail; two options per vertex
    options = []
    for v in range(n):
        d0, d1, d2 = out_darts[v]
        options.append(
            (
                ((d0, d1), (d1, d2), (d2, d0)),
                ((d0, d2), (d2, d1), (d1, d0)),
            )
        )
    succ = [0] * nd
    for v in range(n):
        for a, b in options[v][0]:
            succ[a] = b
    state = [0] * n
    visited = [0] * nd
    stamp = 0
    euler_target = 2 - n + m

    def evaluate():
        nonlocal stamp
        stamp += 1
        st = stamp
        faces = []
        for d0 in range(nd):
            if visited[d0] == st:
                continue
            d = d0
            length = 0
            zero_pos = -1
            while True:
                visited[d] = st
                if zero_tail[d]:
                    if zero_pos < 0:
                        zero_pos = length
                    elif (length - zero_pos) % 3:
                        return None
                else:
                    if zero_pos >= 0 and (length - zero_pos) % 3 == 0:
                        return None
                    if zero_pos < 0 and length >= 3:
                        return None
                length += 1
                d = succ[d ^ 1]
                if d == d0:
                    break
                if visited[d] == st:
                    return None
            if zero_pos < 0:
                if length != 3:
                    return None
            else:
                if length % 3 or zero_pos >= 3:
                    return None
            faces.append(length)
        if len(faces) != euler_target:
            return None
        # re-trace to collect darts (cheap relative to the scan)
        stamp += 1
        st = stamp
        out = []
        for d0 in range(nd):
            if visited[d0] == st:
                continue
            walk = []
            d = d0
            while visited[d] != st:
                visited[d] = st
                walk.append(d)
                d = succ[d ^ 1]
            out.append(tuple(walk))
        return out

    seen_structures = set()
    first = evaluate()
    if first is not None:
        seen_structures.add(frozenset(_canonical_rotation(f) for f in first))
        yield list(state), first
    for k in range(1, 1 << (n - 1)):
        v = (k & -k).bit_length()  # Gray-code flip of vertex 1..n-1
        state[v] ^= 1
        for a, b in options[v][state[v]]:
            succ[a] = b
        faces = evaluate()
        if faces is not None:
            key = frozenset(_canonical_rotation(f) for f in faces)
            if key not in seen_structures:
                seen_structures.add(key)
                yield list(state), faces


def _embedding_from_state(g: LabeledGraph, state) -> PlaneEmbedding:
    rot = []
    for v in range(g.n):
        eids = list(g.incident_edges[v])
        if state[v]:
            eids = [eids[0], eids[2], eids[1]]
        rot.append(tuple(eids))
    return PlaneEmbedding(g, tuple(rot), 0)


def _gate_failure(g: LabeledGraph) -> str | None:
    """The first graph-level condition the fragment fails, if any."""
    if g.n == 4 and g.m == 6:
        return "not_k4"
    if not negative_lift_by_components(g):
        return "negative_lift_triangular"
    return None


def analyze_fragment_direct(g: LabeledGraph) -> dict:
    """Reference for ``search.analyze_fragment_candidate`` that enumerates
    the fragment's own rotation systems instead of its quotient's.

    Exponential in the fragment size (about a second per fold-5
    candidate), so it serves only as a check on small folds.
    """
    result = {
        "excluded_by": [],
        "embeddings": {"structures": 0, "outer_choices": 0, "passing": 0},
        "quotient_censuses": [],
        "survivor": False,
    }
    gate = _gate_failure(g)
    if gate is not None:
        result["excluded_by"] = [gate]
        return result
    censuses = result["quotient_censuses"]

    triangles = [frozenset(t) for t in g.triangles]
    beads = find_beads(g)

    structures = [_embedding_from_state(g, state) for state, _ in _rotation_structures(g)]
    result["embeddings"]["structures"] = len(structures)
    if not structures:
        result["excluded_by"] = ["face_patterns"]

    excluded_by = set(result["excluded_by"])
    passing = 0
    outer_choices = 0
    for emb in structures:
        tri_faces = triangle_faces(emb)
        if not all(t in tri_faces for t in triangles):
            excluded_by.add("fragment_triangles_facial")
            continue
        try:
            hosts = _bead_hosts(emb, beads)
        except StructureError:
            excluded_by.add("fragment_triangles_facial")
            continue
        nontri = [i for i, f in enumerate(emb.faces) if f.length > 3]
        for i, f in enumerate(emb.faces):
            outer_choices += 1
            if f.length == 3:
                excluded_by.add("outer_face_nontriangular")
                continue
            internal = [j for j in nontri if j != i]
            if any(emb.faces[j].length == 6 for j in internal):
                excluded_by.add("no_internal_hexagon")
                continue
            shape = face_count_exclusion(len(internal))
            if shape is not None:
                excluded_by.add(shape)
                continue
            if any(
                bead_sharing_excluded(
                    sum(1 for hp in hosts if set(hp) == {fa, fb}),
                    -(-emb.faces[fa].length // 3),
                    -(-emb.faces[fb].length // 3),
                )
                for fa, fb in itertools.combinations(internal, 2)
            ):
                excluded_by.add("bead_sharing")
                continue
            try:
                q, _ = quotient_graph(PlaneEmbedding(emb.graph, emb.rotation, i))
            except QuotientError:
                excluded_by.add("degenerate_quotient")
                continue
            censuses.append({str(k): v for k, v in q.census.items()})
            if reference_min_beads(q).total > q.total_beads:
                excluded_by.add("bead_demand")
                continue
            passing += 1
    result["embeddings"]["outer_choices"] = outer_choices
    result["embeddings"]["passing"] = passing
    result["survivor"] = passing > 0
    result["excluded_by"] = sorted(excluded_by)
    return result


def isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Explicit label-preserving isomorphism search (backtracking), with
    edge multiplicities; independent of ``canonical_form``."""
    if g1.n != g2.n or g1.m != g2.m or Counter(g1.labels) != Counter(g2.labels):
        return False
    m1 = Counter(g1.edges)
    m2 = Counter(g2.edges)

    def mult(m, u, v):
        return m[(u, v) if u < v else (v, u)]

    deg1 = [len(a) for a in g1.adj]
    deg2 = [len(a) for a in g2.adj]
    order = sorted(range(g1.n), key=lambda v: (-deg1[v], g1.labels[v]))
    image: list[int | None] = [None] * g1.n
    used = [False] * g2.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(g2.n):
            if used[w] or g2.labels[w] != g1.labels[v] or deg2[w] != deg1[v]:
                continue
            if all(mult(m1, v, u) == mult(m2, w, image[u]) for u in order[:i]):
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                image[v] = None
                used[w] = False
        return False

    return extend(0)


def degree_matrices(a: int):
    """All a-by-a nonnegative matrices with row and column sums 3, in
    decreasing lexicographic order: the unrestricted generator the
    package's orderly one (``search._degree_matrices``) prunes."""

    def rows(remaining_cols, rows_left):
        if rows_left == 0:
            if all(c == 0 for c in remaining_cols):
                yield ()
            return
        def build(j, left, acc):
            if j == len(remaining_cols):
                if left == 0:
                    yield tuple(acc)
                return
            top = min(3, left, remaining_cols[j])
            for x in range(top, -1, -1):
                acc.append(x)
                yield from build(j + 1, left - x, acc)
                acc.pop()
        for row in build(0, 3, []):
            new_cols = tuple(c - x for c, x in zip(remaining_cols, row))
            for rest in rows(new_cols, rows_left - 1):
                yield (row,) + rest

    yield from rows(tuple([3] * a), a)


def row_sorted_degree_matrices(a: int):
    """The matrices of ``degree_matrices`` with non-increasing rows, in
    decreasing lexicographic order: the package's generator before it
    also required non-increasing columns."""
    all_rows = sorted((r for r in itertools.product(range(4), repeat=a) if sum(r) == 3), reverse=True)

    def rows(columns_left, start):
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


def class_leading_matrices(a: int):
    """The first matrix of ``row_sorted_degree_matrices`` in each class of
    connected bicoloured multigraphs: the ones no row order with columns
    sorted in decreasing order makes greater, connected by union-find."""
    for mat in row_sorted_degree_matrices(a):
        if any(
            tuple(zip(*sorted(zip(*rows), reverse=True))) > mat
            for rows in itertools.permutations(mat)
        ):
            continue
        edges = [(i, a + j) for i in range(a) for j in range(a) for _ in range(mat[i][j])]
        if _components_union_find(2 * a, edges, frozenset()) == 1:
            yield mat


def matrix_canonical(mat) -> tuple:
    """Least image of a square matrix under all row and column
    permutations: equal iff the bicoloured multigraphs with these degree
    matrices are isomorphic by a colour-preserving map."""
    a = len(mat)
    return min(
        tuple(tuple(mat[pr[i]][pc[j]] for j in range(a)) for i in range(a))
        for pr in itertools.permutations(range(a))
        for pc in itertools.permutations(range(a))
    )


def bead_demands(q: QuotientGraph, outer: int) -> list[int]:
    """The beads each face needs: two on an internal 2-face, one on an
    internal 4-face or the outer 2-face."""
    return [
        (1 if len(s) == 2 else 0) if f == outer else {2: 2, 4: 1}.get(len(s), 0)
        for f, s in enumerate(q.face_edge_sides)
    ]


def demands_only_min_beads(q: QuotientGraph, outer: int) -> int:
    """The least bead total meeting every face demand with bead sharing
    allowed: every multiset of edges of each size in turn, a bead counting
    toward each side of its edge."""
    demands = bead_demands(q, outer)
    for total in itertools.count():
        for beads in itertools.combinations_with_replacement(range(len(q.edges)), total):
            on = Counter(beads)
            if all(sum(on[e] for e in s) >= d for s, d in zip(q.face_edge_sides, demands)):
                return total


def reference_min_beads(q: QuotientGraph, outer_face: int | None = None) -> MinBeadsResult:
    """The bead-demand search as first written: every node recomputes the
    deficit over all faces, and the bead-sharing pairs are checked only at
    the leaves.  ``min_beads`` must return exactly what this returns.

    Internal 2-faces need two beads and internal 4-faces one (their
    fragment faces must reach length nine); an outer 2-face needs one; a
    bead counts toward the two faces flanking its edge; and no two
    internal short faces may share beads up to the forbidden threshold.
    A placement always exists.
    """
    outer = q.outer_face if outer_face is None else outer_face
    nf = len(q.faces)
    # its own face-edge incidence: the beads two faces share lie on the
    # edges in both faces' edge sets
    face_edges = [set(sides) for sides in q.face_edge_sides]
    edge_faces = [[] for _ in q.edges]
    for fid, sides in enumerate(q.face_edge_sides):
        for e in sides:
            edge_faces[e].append(fid)
    demands = []
    for fid, f in enumerate(q.faces):
        L = len(f)
        if fid == outer:
            demands.append(1 if L == 2 else 0)
        else:
            demands.append(2 if L == 2 else (1 if L == 4 else 0))
    short_internal = [
        fid for fid, f in enumerate(q.faces) if fid != outer and len(f) in (2, 4)
    ]
    pairs = list(itertools.combinations(short_internal, 2))

    ne = len(q.edges)

    def feasible(total: int):
        counts = [0] * nf
        placement = [0] * ne

        def deficit():
            return sum(max(0, demands[f] - counts[f]) for f in range(nf))

        def pairs_ok():
            return not any(
                bead_sharing_excluded(
                    sum(placement[e] for e in face_edges[fa] & face_edges[fb]),
                    len(q.faces[fa]) // 2 + counts[fa],
                    len(q.faces[fb]) // 2 + counts[fb],
                )
                for fa, fb in pairs
            )

        def go(e: int, left: int):
            if deficit() > 2 * left:
                return None
            if e == ne:
                if left == 0 and deficit() == 0 and pairs_ok():
                    return tuple(placement)
                return None
            for b in range(left + 1):
                placement[e] = b
                for f in edge_faces[e]:
                    counts[f] += b
                got = go(e + 1, left - b)
                for f in edge_faces[e]:
                    counts[f] -= b
                placement[e] = 0
                if got is not None:
                    return got
            return None

        return go(0, total)

    for total in range(3 * q.a + 6 + 1):
        got = feasible(total)
        if got is not None:
            return MinBeadsResult(total, got)
    raise SearchError("bead demand search exceeded its budget; malformed quotient")
