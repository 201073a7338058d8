import functools
import hashlib
import itertools
import json
from collections import Counter
from types import SimpleNamespace

import pytest
from builders import fold_six_fragment, necklace, nine_face_pair, two_faces
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _gate_failure,
    analyze_fragment_direct,
    bead_demands,
    class_leading_matrices,
    connectivity_by_cut_search,
    degree_matrices,
    demands_only_min_beads,
    enumerate_covers_unnormalized,
    matrix_canonical,
    reference_min_beads,
    relabel_vertices,
)

from planecover import fixtures as fx
from planecover import io as pio
from planecover import search
from planecover.covers import derive, normalized_assignment
from planecover.fixtures import double_lens
from planecover.graphs import LabeledGraph, canonical_form, make_base
from planecover.search import (
    BudgetExceeded,
    SearchError,
    SearchSpec,
    _degree_matrices,
    _quotient_matrices,
    analyze_fragment_candidate,
    enumerate_covers,
    enumerate_quotients,
    estimate_nodes,
    min_beads,
    search_k4_fragments,
    spherical_rotations,
)
from planecover.bounds import check_face_census_identity
from planecover.structure import (
    QuotientError,
    QuotientGraph,
    StructureError,
    bead_sharing_excluded,
    negative_lift_triangular,
    quotient_graph,
    quotient_skeleton,
    refine_faces,
)

K4 = make_base("k4")


def _strip_timing(cert: dict) -> dict:
    out = json.loads(json.dumps(cert))
    out.pop("timing", None)
    return out


def _class_form(base, n: int, voltage) -> bytes:
    """Canonical form of the cover a certificate voltage derives."""
    return canonical_form(derive(normalized_assignment(base, n, voltage))[0])


def test_k4_fold1_only_k4_itself():
    cert = enumerate_covers(SearchSpec(base="k4", n=1))
    assert cert["visited"] == 1
    assert cert["survivor_count"] == 1
    assert [_class_form(K4, 1, v) for v in cert["survivors"]] == [canonical_form(K4.graph)]


def test_k4_fold2_includes_cube():
    cert = enumerate_covers(SearchSpec(base="k4", n=2))
    cube, _ = derive(normalized_assignment(K4, 2, [(1, 0)] * 3))
    assert canonical_form(cube) in {_class_form(K4, 2, v) for v in cert["survivors"]}


def test_pruned_equals_unnormalized_full_scan():
    # normalized scan over 2^3 assignments vs the full 2^6 scan: the
    # survivor classes must coincide
    cert = enumerate_covers(SearchSpec(base="k4", n=2))
    assert cert["visited"] == 8
    full = enumerate_covers_unnormalized("k4", 2)
    assert {_class_form(K4, 2, v) for v in cert["survivors"]} == set(full)


def test_certificate_deterministic_and_replayable():
    c1 = enumerate_covers(SearchSpec(base="k4", n=2))
    c2 = enumerate_covers(SearchSpec(base="k4", n=2))
    assert _strip_timing(c1) == _strip_timing(c2)
    # each entry's voltage replays to its own class
    forms = [_class_form(K4, 2, entry["voltage"]) for entry in c1["candidates"]]
    assert len(set(forms)) == len(forms) == c1["classes"]


def test_budget_refusal():
    assert estimate_nodes(make_base("k1222"), 4) > 10**9
    with pytest.raises(BudgetExceeded):
        enumerate_covers(SearchSpec(base="k1222", n=4))


def test_budget_gate_compares_the_exact_count_at_the_boundary():
    # (3!)^3 = 216 normalized assignments at k4 fold 3
    assert enumerate_covers(SearchSpec("k4", 3, budget=216))["pre_prune_estimate"] == 216
    for budget in (215, 0, -1):
        with pytest.raises(BudgetExceeded):
            enumerate_covers(SearchSpec("k4", 3, budget=budget))


def test_budget_refusal_of_a_huge_fold_skips_the_exact_count(monkeypatch):
    # (100000!)^3 has 1.4 million digits; the refusal must come from its
    # logarithm alone
    exact = search.estimate_nodes

    def small_only(base, n):
        assert n <= 10, "exact estimate computed for a fold far beyond the budget"
        return exact(base, n)

    monkeypatch.setattr(search, "estimate_nodes", small_only)
    with pytest.raises(BudgetExceeded, match=r"about 2\.25e\+1369720 assignments"):
        enumerate_covers(SearchSpec("k4", 100000))
    assert enumerate_covers(SearchSpec("k4", 2))["pre_prune_estimate"] == 8


def _meets_voltage_rule(voltage) -> bool:
    """The (-1,-2,-3) lift of the class is all triangles (tests/test_gate.py)."""
    c12, c13, c23 = voltage
    return all(c13[i] == c23[c12[i]] for i in range(len(c12)))


def _degree_matrix(a: int, edges) -> list:
    mat = [[0] * a for _ in range(a)]
    for u, v, _ in edges:
        mat[u][v - a] += 1
    return mat


def test_fragment_search_computes_each_fragment_fact_once(monkeypatch):
    # the bead search runs at most once per candidate, shared by the
    # analyzer and the quotient skeleton; the gate decides the (-1,-2,-3)
    # lift locally, so no lift is built at all.  Only the classes that
    # meet the voltage rule are derived, and each quotient shape's
    # rotations are enumerated once per process: a second search, the
    # analyzer on every class and a second quotient enumeration trace no
    # face, and read the same table
    from planecover import embedding, structure

    search._shape.cache_clear()
    calls = {"find_cycles_covering": Counter(), "find_beads": Counter()}
    for module in (search, structure):
        for name, counter in calls.items():
            if hasattr(module, name):
                def counted(g, *args, _f=getattr(module, name), _c=counter):
                    _c[g] += 1
                    return _f(g, *args)

                monkeypatch.setattr(module, name, counted)
    derived, enumerated, traced = [], [], []

    def counted_derive(assignment, _f=search.derive):
        derived.append(tuple(assignment.perms))
        return _f(assignment)

    def counted_rotations(a, edges, _f=search.spherical_rotations):
        enumerated.append(matrix_canonical(_degree_matrix(a, edges)))
        return _f(a, edges)

    monkeypatch.setattr(search, "derive", counted_derive)
    monkeypatch.setattr(search, "spherical_rotations", counted_rotations)
    for module in (search, structure, embedding):
        def counted_trace(*args, _f=module.trace_faces):
            traced.append(args)
            return _f(*args)

        monkeypatch.setattr(module, "trace_faces", counted_trace)
    cert = search_k4_fragments(4)
    entries = [e for fold in cert["folds"] for e in fold["candidates"]]
    assert not calls["find_cycles_covering"]
    beads = calls["find_beads"]
    assert beads and max(beads.values()) == 1
    assert sum(beads.values()) <= len(entries)
    assert len(entries) == 322
    assert len(derived) == len(set(derived)) == 33
    assert sum(_meets_voltage_rule(e["voltage"]) for e in entries) == 33
    assert len(enumerated) == len(set(enumerated)) == 2
    assert traced
    traced.clear()
    assert _strip_timing(search_k4_fragments(4)) == _strip_timing(cert)
    for g in _fold_classes(4):
        analyze_fragment_candidate(g)
    assert not traced
    quotients = enumerate_quotients(4)
    traced.clear()
    assert enumerate_quotients(4) == quotients
    assert not traced
    assert len(enumerated) == len(set(enumerated))


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_fragment_fold_is_the_structural_covers_search(fragment_certificate, h):
    # a fragment fold record is the k4 covers certificate at that fold
    # with the structural verdicts added: both scan the same connected
    # planar covers, class for class
    fold = fragment_certificate["folds"][h - 1]
    cert = enumerate_covers(SearchSpec("k4", h))
    for key in ("visited", "pre_prune_estimate", "connected", "planar", "classes"):
        assert fold[key] == cert[key], key
    assert len(fold["candidates"]) == len(cert["candidates"])
    for frag, cover in zip(fold["candidates"], cert["candidates"]):
        # the voltage names the class
        for key in ("assignments", "voltage"):
            assert frag[key] == cover[key], key
        assert frag["fold"] == h
        assert set(frag["filters"]).isdisjoint(cover["filters"])
    assert all(v in cert["survivors"] for v in fold["survivors"])


def test_structural_filters_require_k4():
    # the structural conditions belong to the K4 fragment search; a covers
    # spec that asks for them is refused
    with pytest.raises(SearchError, match="filters"):
        SearchSpec.from_obj(
            {"base": "k1222", "n": 2, "filters": ["connected", "planar", "admissible"]}
        )


@functools.cache
def _fold_classes(h_max: int) -> list:
    """The derived graph of each connected planar K4 class at folds 1..h_max."""
    return [
        derive(normalized_assignment(K4, h, entry["voltage"]))[0]
        for h in range(1, h_max + 1)
        for entry in enumerate_covers(SearchSpec("k4", h))["candidates"]
    ]


def _with_census_multiset(result: dict) -> dict:
    out = dict(result)
    out["quotient_censuses"] = sorted(
        json.dumps(c, sort_keys=True) for c in result["quotient_censuses"]
    )
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_analyzer_ignores_vertex_numbering(data):
    g = data.draw(st.sampled_from(_fold_classes(4)), label="class")
    perm = data.draw(st.permutations(range(g.n)), label="renumbering")
    want = _with_census_multiset(analyze_fragment_candidate(g))
    assert _with_census_multiset(analyze_fragment_candidate(relabel_vertices(g, perm))) == want


@pytest.mark.parametrize("h", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_fragment_search_entries_are_the_analyzer_results(fragment_certificate, h):
    # the search decides the negative-lift gate from the voltage and
    # enumerates each quotient shape once; every entry, gated or analyzed,
    # is what the analyzer writes for the class's derived graph
    fold = fragment_certificate["folds"][h - 1]
    censuses = {json.dumps(c, sort_keys=True) for c in fragment_certificate["quotient_censuses"]}
    analyzed = 0
    for entry in fold["candidates"]:
        g, _ = derive(normalized_assignment(K4, h, entry["voltage"]))
        want = analyze_fragment_candidate(g)
        assert {json.dumps(c, sort_keys=True) for c in want.pop("quotient_censuses")} <= censuses
        want.update(assignments=entry["assignments"], voltage=entry["voltage"], fold=h)
        assert entry == want, entry["voltage"]
        analyzed += _meets_voltage_rule(entry["voltage"])
    assert analyzed == {1: 1, 2: 3, 3: 6, 4: 23, 5: 69}[h]


def _face_signature(q: QuotientGraph, beads, edge_of) -> tuple:
    """(length, beads, edge ids through ``edge_of``) of each face, sorted:
    the same for a rotation system and its reflection.  ``beads`` is
    indexed by q's own edges."""
    return tuple(
        sorted(
            (len(f), sum(beads[e] for e in sides), tuple(sorted(edge_of[e] for e in sides)))
            for f, sides in zip(q.faces, q.face_edge_sides)
        )
    )


def _check_carried_rotations(graphs) -> None:
    # the graphs share a shape key exactly when the matrix oracle puts
    # them in one class, and the faces of the shape's table entries,
    # carried through edge_of with the graph's beads on the shape's
    # edges, are the graph's own faces, up to order and reflection
    pairs = set()
    for a, edges in graphs:
        key, edge_of = search._shape_key(a, edges)
        assert sorted(edge_of) == list(range(len(edges)))
        pairs.add((key, matrix_canonical(_degree_matrix(a, edges))))
        beads = [edges[e][2] for e in edge_of]
        carried = Counter(_face_signature(q, beads, edge_of) for q in search._shape(key))
        own = [b for _, _, b in edges]
        direct = Counter(_face_signature(q, own, range(len(edges))) for q in spherical_rotations(a, edges))
        assert carried == direct
    assert len(pairs) == len({k for k, _ in pairs}) == len({c for _, c in pairs})


@pytest.mark.parametrize("h_max", [4, pytest.param(5, marks=pytest.mark.slow)])
def test_shape_rotations_carry_back_to_every_skeleton(fragment_certificate, h_max):
    skeletons = []
    for fold in fragment_certificate["folds"][:h_max]:
        for entry in fold["candidates"]:
            if _meets_voltage_rule(entry["voltage"]) and fold["fold"] > 1:
                g, _ = derive(normalized_assignment(K4, fold["fold"], entry["voltage"]))
                try:
                    sk = quotient_skeleton(g)
                except QuotientError:
                    continue  # a closed bead chain has no quotient
                skeletons.append((sk.a, sk.edges))
    # the theta (a = 1) among them, whose rotations the analyzer never asks for
    shapes = {matrix_canonical(_degree_matrix(*s)) for s in skeletons}
    assert ((3,),) in shapes
    assert len(shapes) == {4: 3, 5: 4}[h_max]
    _check_carried_rotations(skeletons)


def test_shape_rotations_carry_back_to_the_quotient_universe():
    # the 9 quotients of enumerate_quotients(4) in their own numbering, and
    # again with whites, blacks and edges numbered backwards and beads on
    # their edges
    graphs = []
    for q in enumerate_quotients(4):
        a = q.a
        graphs.append((a, q.edges))
        flipped = [(a - 1 - u, 3 * a - 1 - v, e % 3) for e, (u, v, _) in enumerate(q.edges)]
        graphs.append((a, tuple(reversed(flipped))))
    assert len(graphs) == 18
    _check_carried_rotations(graphs)


def test_fragment_analyzers_agree_small_folds():
    perms2 = list(itertools.permutations(range(2)))
    for volt in itertools.product(perms2, repeat=3):
        g, _ = derive(normalized_assignment(K4, 2, volt))
        from planecover.graphs import is_connected

        if not is_connected(g):
            continue
        fast = analyze_fragment_candidate(g)
        slow = analyze_fragment_direct(g)
        assert fast["survivor"] == slow["survivor"]


def test_fragment_analyzers_agree_on_fixtures():
    for sc in (necklace(3), necklace(4), nine_face_pair(), two_faces()):
        fast = analyze_fragment_candidate(sc.graph)
        slow = analyze_fragment_direct(sc.graph)
        assert fast["survivor"] == slow["survivor"]
        assert not fast["survivor"]


def _entries_of_class(fold, g: LabeledGraph) -> list:
    """The entries of a fragment fold whose voltage derives a cover
    isomorphic to g.  Only entries that passed the analyzer's gate are
    derived; g must pass it too."""
    assert negative_lift_triangular(g)
    return [
        c
        for c in fold["candidates"]
        if c["filters"].get("negative_lift_triangular")
        and _class_form(K4, fold["fold"], c["voltage"]) == canonical_form(g)
    ]


def test_necklace_enumerated_then_excluded(fragment_certificate):
    fold4 = next(f for f in fragment_certificate["folds"] if f["fold"] == 4)
    entries = _entries_of_class(fold4, necklace(4).graph)
    assert entries, "the four-bead ring must be enumerated at fold 4"
    assert not entries[0]["survivor"]
    assert "necklace" in entries[0]["excluded_by"]
    assert entries[0]["voltage"] not in fold4["survivors"]


def test_nine_face_pair_enumerated_then_excluded(fragment_certificate):
    fold5 = next(f for f in fragment_certificate["folds"] if f["fold"] == 5)
    entries = _entries_of_class(fold5, nine_face_pair().graph)
    assert entries
    assert "bead_sharing" in entries[0]["excluded_by"]


@pytest.mark.slow
def test_fold_six_fragment_certificate():
    # the fold bound of 6 is tight on the search itself: fold 6 has
    # admissible fragments, the fold-six fixture's class among them, and
    # its entries take the per-class step of every other fold
    cert = search_k4_fragments(6)
    fold6 = cert["folds"][5]
    assert [fold6[k] for k in ("visited", "connected", "planar", "classes")] == [
        5_702_400, 5_373_568, 834_159, 43_690,
    ]
    assert len(fold6["survivors"]) == 66
    assert Counter(key for e in fold6["candidates"] for key in e["excluded_by"]) == {
        "negative_lift_triangular": 43_305,
        "outer_face_nontriangular": 364,
        "no_internal_hexagon": 355,
        "bead_sharing": 75,
        "two_internal_faces": 18,
        "necklace": 3,
    }
    (entry,) = _entries_of_class(fold6, fold_six_fragment().graph)
    assert entry["survivor"]
    assert entry["voltage"] == [[1, 2, 3, 0, 5, 4], [0, 1, 3, 4, 2, 5], [4, 0, 1, 3, 5, 2]]
    assert not any("interior_triangle_check" in e for f in cert["folds"] for e in f["candidates"])


def test_fragment_search_budget_guard():
    with pytest.raises(SearchError):
        search_k4_fragments(7)
    with pytest.raises(BudgetExceeded):
        search_k4_fragments(5, budget=10)


# -- quotient universe ---------------------------------------------------------


def test_enumerate_quotients_a2_unique():
    qs = [q for q in enumerate_quotients(2) if q.a == 2]
    assert len(qs) == 1
    assert qs[0].census == {2: 2, 4: 2}


def test_enumerate_quotients_theta_flag():
    # the two-vertex triple edge is no fragment's quotient and is left out
    assert all(q.a >= 2 for q in enumerate_quotients(4))
    assert enumerate_quotients(1) == []


def test_enumerate_quotients_census_identity():
    for q in enumerate_quotients(4):
        assert check_face_census_identity(q.census)
        assert (len(q.edges), len(q.faces)) == (3 * q.a, q.a + 2)


def test_enumerate_quotients_budget():
    with pytest.raises(SearchError):
        enumerate_quotients(5)


def _bicoloured(mat) -> LabeledGraph:
    """The cubic bipartite multigraph with degree matrix ``mat``: whites
    labelled 0, blacks labelled -1."""
    a = len(mat)
    edges = tuple((i, a + j) for i in range(a) for j in range(a) for _ in range(mat[i][j]))
    return LabeledGraph((0,) * a + (-1,) * a, edges)


#: a -> (connected degree matrices, isomorphism classes among them)
QUOTIENT_CLASSES = {1: (1, 1), 2: (2, 1), 3: (31, 3), 4: (1272, 6)}


@pytest.mark.parametrize("a", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_quotient_classes_match_matrix_oracle(a):
    # the oracle keys a class by the least row-and-column permutation of
    # its degree matrix, canonical_form by its graph; the package keeps the
    # first matrix of each class in the oracle's decreasing order
    mats = [m for m in degree_matrices(a) if connectivity_by_cut_search(_bicoloured(m))]
    pairs = {(matrix_canonical(m), canonical_form(_bicoloured(m))) for m in mats}
    by_oracle = {p[0] for p in pairs}
    by_form = {p[1] for p in pairs}
    assert len(pairs) == len(by_oracle) == len(by_form)
    assert (len(mats), len(by_oracle)) == QUOTIENT_CLASSES[a]
    first = {}
    for m in mats:
        first.setdefault(matrix_canonical(m), m)
    assert list(_quotient_matrices(a)) == list(first.values())


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_degree_matrices_are_the_oracle_matrices_with_non_increasing_rows(a):
    # the columns, read top-down as tuples, are non-increasing too
    want = [
        m
        for m in degree_matrices(a)
        if all(r >= s for r, s in itertools.pairwise(m))
        and all(c >= d for c, d in itertools.pairwise(zip(*m)))
    ]
    assert list(_degree_matrices(a)) == want


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_quotient_matrices_are_the_row_sorted_generators_class_leaders(a):
    # the column-sorted generator loses no class and keeps the same matrix
    # of each; a = 5 takes about 0.1 s in the reference, a = 6 about 4 s
    assert list(_quotient_matrices(a)) == list(class_leading_matrices(a))


def _theta() -> QuotientGraph:
    """The two-vertex triple edge in its one spherical embedding, built as
    the quotient enumeration builds each of its entries."""
    return next(spherical_rotations(1, ((0, 1, 0),) * 3))


def test_spherical_rotations_are_distinct_spherical_quotients():
    # the 9 entries of enumerate_quotients(4) have 8 shapes: one shape has
    # two face censuses
    entries = enumerate_quotients(4)
    shapes = {(q.a, q.edges) for q in entries}
    assert (len(entries), len(shapes)) == (9, 8)
    for a, edges in shapes:
        quotients = list(spherical_rotations(a, edges))
        assert quotients
        assert all(q.a == a and q.edges == edges and q.outer_face == 0 for q in quotients)
        assert all((len(q.edges), len(q.faces)) == (3 * a, a + 2) for q in quotients)
        # the faces handed over are the ones the quotient traces itself
        assert all(q.faces == QuotientGraph(a, edges, q.rotation, 0).faces for q in quotients)
        rotations = [q.rotation for q in quotients]
        assert len(set(rotations)) == len(rotations)


def _digest_of_quotients(quotients) -> str:
    blob = "".join(pio.dumps(pio.quotient_to_obj(q)) for q in quotients)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "args, digest",
    [
        ((4,), "94aa1a40721580c2193a49cf440c7f10565219c7f58d867eb36ea172e84d1e9d"),
        # no arguments: the theta alone, which the enumeration leaves out
        ((), "690b7cca09451a933ea24a404a493ddd207a88e8345c3d300ad43a0f6fa340be"),
    ],
)
def test_quotient_universe_golden_digest(args, digest):
    quotients = enumerate_quotients(*args) if args else [_theta()]
    if not args:
        assert quotients[0].census == {2: 3}
    assert _digest_of_quotients(quotients) == digest


# -- bead demands ----------------------------------------------------------------


def test_double_lens_needs_four_beads():
    mb = min_beads(double_lens())
    assert mb.total == 4


def test_double_lens_demand_breakdown():
    q = double_lens()
    # without the sharing constraint three beads would do: the returned
    # placement meets every demand and pair, and no bead can go
    mb = min_beads(q)
    assert sum(mb.placement) == 4
    assert _placement_violations(q, q.outer_face, mb.placement) == []
    for e in (e for e, b in enumerate(mb.placement) if b):
        fewer = list(mb.placement)
        fewer[e] -= 1
        assert _placement_violations(q, q.outer_face, fewer)


def test_a4_no_lenses_needs_three():
    for q in enumerate_quotients(4):
        if q.a == 4 and q.census.get(2, 0) == 0:
            for fid in range(len(q.faces)):
                assert min_beads(q, outer_face=fid).total >= 3


def test_no_demands_no_beads():
    fake = SimpleNamespace(
        a=6,
        edges=tuple((0, 1, 0) for _ in range(3)),
        faces=((0,) * 8, (0,) * 8, (0,) * 8),
        face_edge_sides=((0, 1), (1, 2), (2, 0)),
        edge_faces=((0, 2), (0, 1), (1, 2)),
        face_pair_edges={(0, 1): (1,), (0, 2): (0,), (1, 2): (2,)},
        outer_face=0,
    )
    assert min_beads(fake).total == 0


def test_a_bead_counts_twice_for_a_face_on_both_sides_of_its_edge():
    # an internal 2-face whose two sides are one edge, beside an outer one:
    # a spherical quotient has no such face, since both ends of the edge
    # would have degree one, so the faces are given directly.  One bead on
    # the internal face's edge meets both units of its demand, and the
    # search starts at the bound that counts it so.
    fake = SimpleNamespace(
        a=1,
        edges=((0, 1, 0), (0, 1, 0)),
        faces=((0, 1), (2, 3)),
        face_edge_sides=((0, 0), (1, 1)),
        edge_faces=((0, 0), (1, 1)),
        face_pair_edges={},
        outer_face=0,
    )
    assert _matching_bound(fake, 0) == demands_only_min_beads(fake, 0) == 2
    assert min_beads(fake) == reference_min_beads(fake) == (2, (1, 1))


def test_nine_face_pair_fails_bead_demand():
    q, _ = quotient_graph(refine_faces(nine_face_pair()).h_embedding)
    assert q.total_beads == 3
    assert min_beads(q).total == 4
    assert min_beads(q).total > q.total_beads


@functools.cache
def _quotient_outer_pairs(*args) -> list:
    return [(q, f) for q in enumerate_quotients(*args) for f in range(len(q.faces))]


def _fixture_quotients():
    for name in fx.fixture_names():
        obj = fx.load_fixture_obj(name)
        if "embedding" not in obj:
            continue
        try:
            q, _ = quotient_graph(refine_faces(pio.semicover_from_obj(obj)).h_embedding)
        except (QuotientError, StructureError):
            continue
        yield q


def _reference_cases():
    theta = _theta()
    yield from _quotient_outer_pairs(4)
    yield from ((theta, f) for f in range(len(theta.faces)))
    yield double_lens(), None
    for q in _fixture_quotients():
        yield from ((q, f) for f in (None, *range(len(q.faces))))


def test_min_beads_matches_reference():
    # the pruned search must find the placement the unpruned one finds first
    cases = list(_reference_cases())
    mismatches = [c for c in cases if min_beads(*c) != reference_min_beads(*c)]
    # the 50 (quotient, outer face) pairs of enumerate_quotients(4), the
    # theta's 3, the double lens, and the 5 fixture quotients with each of
    # their 17 faces outer and with their own outer face
    assert len(cases) == 50 + 3 + 1 + 17 + 5 == 76
    assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[0]}"


def test_min_beads_placements_golden_digest():
    rows = [[mb.total, list(mb.placement)] for q, f in _quotient_outer_pairs(4) for mb in [min_beads(q, f)]]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "039759b9bdbe7f50168a15327a7b78ffb1513a0f0fc1a0cc55131f1b768e3485"


def _placement_violations(q, outer: int, placement) -> list:
    """Face demands and bead-sharing pairs that a placement breaks,
    recomputed from the quotient's face walks alone."""
    sides = q.face_edge_sides
    owners = [sorted(f for f, s in enumerate(sides) for x in s if x == e) for e in range(len(q.edges))]
    beads = [sum(placement[e] for e in s) for s in sides]
    out = []
    for f, s in enumerate(sides):
        need = (1 if len(s) == 2 else 0) if f == outer else {2: 2, 4: 1}.get(len(s), 0)
        if beads[f] < need:
            out.append(("demand", f))
    short = [f for f, s in enumerate(sides) if f != outer and len(s) in (2, 4)]
    for fa, fb in itertools.combinations(short, 2):
        shared = sum(b for e, b in enumerate(placement) if owners[e] == [fa, fb])
        # fragment faces of length 3m (m = half the quotient length plus
        # the beads on it) may not share m - 2 beads, and never one when m <= 3
        m = max(len(sides[fa]) // 2 + beads[fa], len(sides[fb]) // 2 + beads[fb], 3)
        if shared >= m - 2:
            out.append(("sharing", fa, fb))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_min_beads_placement_properties(data):
    q, outer = data.draw(st.sampled_from(_quotient_outer_pairs(4)), label="quotient, outer face")
    best = min_beads(q, outer)
    assert sum(best.placement) == best.total and min(best.placement) >= 0
    assert _placement_violations(q, outer, best.placement) == []
    # the total is least: taking any one bead away breaks a demand or a pair
    for e in (e for e, b in enumerate(best.placement) if b):
        fewer = list(best.placement)
        fewer[e] -= 1
        assert _placement_violations(q, outer, fewer)


def _outer_faces_passing_filters(q: QuotientGraph) -> list:
    """The outer faces of a beaded quotient that the analyzer's last two
    filters pass: no internal face is a hexagon (a fragment face has length
    3m, m being half the quotient face's length plus the beads on it) and
    no two faces other than the outer one share too many beads."""
    beads = [b for _, _, b in q.edges]
    thirds = [len(s) // 2 + sum(beads[e] for e in s) for s in q.face_edge_sides]
    return [
        i
        for i in range(len(q.faces))
        if all(thirds[j] != 2 for j in range(len(q.faces)) if j != i)
        and not any(
            i not in pair and bead_sharing_excluded(sum(beads[e] for e in es), *(thirds[f] for f in pair))
            for pair, es in q.face_pair_edges.items()
        )
    ]


@functools.cache
def _spherical_quotients(a_max: int) -> list:
    """Every spherical rotation of every quotient shape with at most a_max
    white vertices, bead-free."""
    return [
        q
        for a in range(1, a_max + 1)
        for mat in _quotient_matrices(a)
        for q in search._shape(mat)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_class_that_passes_the_filters_meets_its_bead_demand(data):
    # the analyzer has no bead-demand step: once an outer face passes the
    # hexagon and bead-sharing filters, the class's own beads are a
    # placement min_beads accepts.  Every quotient 2-face carries a bead,
    # since a bead-free digon would itself be a bead.
    q = data.draw(st.sampled_from(_spherical_quotients(4)), label="rotation")
    # about half the edges bead-free, so that bead-free 4-faces come up
    counts = st.one_of(st.just(0), st.integers(1, 3))
    beads = data.draw(st.lists(counts, min_size=len(q.edges), max_size=len(q.edges)), label="beads")
    for sides in q.face_edge_sides:
        if len(sides) == 2 and not beads[sides[0]] + beads[sides[1]]:
            beads[sides[0]] = 1
    beaded = QuotientGraph(q.a, tuple((u, v, b) for (u, v, _), b in zip(q.edges, beads)), q.rotation, 0)
    for i in _outer_faces_passing_filters(beaded):
        assert _placement_violations(beaded, i, beads) == []
        assert min_beads(beaded, i).total <= sum(beads)


def test_the_filter_restatement_passes_what_the_analyzer_passes():
    # the fold-six fragment passes exactly one (rotation, outer face)
    # choice, and the restated filters find that one
    g = fold_six_fragment().graph
    sk = quotient_skeleton(g)
    passing = [(q, i) for q in spherical_rotations(sk.a, sk.edges) for i in _outer_faces_passing_filters(q)]
    assert len(passing) == analyze_fragment_candidate(g)["embeddings"]["passing"] == 1
    ((q, i),) = passing
    assert _placement_violations(q, i, [b for _, _, b in q.edges]) == []


def _restated_verdict(q: QuotientGraph, outer: int, beads) -> str | None:
    """The first reason the rule gives an outer face, read off
    ``_placement_violations``: a face demand unmet is a face below its
    floor, the outer face's first, and then a short internal pair over the
    sharing threshold."""
    broken = _placement_violations(q, outer, beads)
    if ("demand", outer) in broken:
        return "outer_face_nontriangular"
    if any(kind == "demand" for kind, *_ in broken):
        return "no_internal_hexagon"
    return "bead_sharing" if broken else None


def _gated_classes(h: int, voltages) -> list:
    """The derived graphs of the fold-h classes that pass the gate."""
    return [derive(normalized_assignment(K4, h, v))[0] for v in voltages if _meets_voltage_rule(v)]


def _check_rule_verdicts(monkeypatch, graphs) -> Counter:
    """Check that the analyzer's verdict on each (rotation, outer face) of
    each class is the restated rule's on the class's own beads, carried to
    the shape's rotations, and that the passing ones are the ones it
    counts; returns how often each verdict came up."""
    verdicts = []
    rule = search.face_exclusions

    def recorded(*args):
        reasons, pairs = rule(*args)
        verdicts.append(reasons[0] if reasons else None)
        return reasons, pairs

    monkeypatch.setattr(search, "face_exclusions", recorded)
    seen = Counter()
    for g in graphs:
        verdicts.clear()
        passing = analyze_fragment_candidate(g)["embeddings"]["passing"]
        want = []
        try:
            sk = quotient_skeleton(g)
        except QuotientError:
            sk = None  # a closed bead chain, which the analyzer excludes by its shape
        if sk is not None and sk.a > 1:
            key, edge_of = search._shape_key(sk.a, sk.edges)
            beads = [sk.edges[e][2] for e in edge_of]
            want = [_restated_verdict(q, i, beads) for q in search._shape(key) for i in range(len(q.faces))]
        assert verdicts == want
        assert passing == want.count(None)
        seen.update(want)
    return seen


def test_analyzer_verdicts_are_the_restated_rule(fragment_certificate, monkeypatch):
    # every gate-passing class at folds 1-5 (624 + 24 pairs, none
    # passing), and the fold-six fragment's 8 pairs, one of them passing
    graphs = [
        g
        for fold in fragment_certificate["folds"]
        for g in _gated_classes(fold["fold"], [e["voltage"] for e in fold["candidates"]])
    ]
    assert len(graphs) == 1 + 3 + 6 + 23 + 69
    graphs.append(fold_six_fragment().graph)
    assert _check_rule_verdicts(monkeypatch, graphs) == {"no_internal_hexagon": 630, "bead_sharing": 25, None: 1}


@pytest.mark.slow
def test_analyzer_verdicts_are_the_restated_rule_at_fold_six(monkeypatch):
    voltages = [e["voltage"] for e in enumerate_covers(SearchSpec("k4", 6))["candidates"]]
    graphs = _gated_classes(6, voltages)
    assert len(graphs) == 385
    assert _check_rule_verdicts(monkeypatch, graphs) == {"no_internal_hexagon": 5105, "bead_sharing": 132, None: 141}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.just(0), st.integers(1, 3)), min_size=15, max_size=15))
def test_only_two_short_faces_can_share_too_many_beads(beads):
    # a face's m counts every bead it shares, so m_a >= len_a/2 + shared,
    # and shared >= max(m_a, m_b, 3) - 2 then needs len/2 <= 2 on both
    # faces: min_beads, which checks only pairs of internal 2- and
    # 4-faces, is exact.  Every spherical rotation at a <= 5 takes the
    # first 3a beads.
    rotations = _spherical_quotients(5)
    assert len(rotations) == 174
    for q in rotations:
        m = [len(s) // 2 + sum(beads[e] for e in s) for s in q.face_edge_sides]
        for (fa, fb), es in q.face_pair_edges.items():
            if bead_sharing_excluded(sum(beads[e] for e in es), m[fa], m[fb]):
                assert len(q.faces[fa]) <= 4 and len(q.faces[fb]) <= 4


def test_face_pair_edges_are_the_edges_between_two_faces():
    for q in [*enumerate_quotients(4), _theta(), double_lens()]:
        sides = q.face_edge_sides
        between = {}
        for e in range(len(q.edges)):
            owners = [f for f, s in enumerate(sides) for x in s if x == e]
            if len(set(owners)) == 2:
                between.setdefault(tuple(owners), []).append(e)
        assert q.face_pair_edges == {pair: tuple(es) for pair, es in between.items()}


@pytest.mark.parametrize("outer", [99, -1, len(double_lens().faces)])
def test_min_beads_rejects_an_outer_face_out_of_range(outer):
    with pytest.raises(SearchError, match="outer face"):
        min_beads(double_lens(), outer_face=outer)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_min_beads_is_independent_of_edge_labels(data):
    # relabel the edges (new edge k is old edge perm[k]), carry the rotation
    # along, and find the outer face again by its darts
    q, outer = data.draw(st.sampled_from(_quotient_outer_pairs(4)), label="quotient, outer face")
    perm = data.draw(st.permutations(range(len(q.edges))), label="edge order")
    new_id = {old: new for new, old in enumerate(perm)}
    rotation = tuple(tuple(new_id[e] for e in ids) for ids in q.rotation)
    r = QuotientGraph(q.a, tuple(q.edges[old] for old in perm), rotation, 0)
    outer_darts = {2 * new_id[d // 2] + d % 2 for d in q.faces[outer]}
    (r_outer,) = [f for f, darts in enumerate(r.faces) if set(darts) == outer_darts]
    best = min_beads(q, outer)
    relabelled = min_beads(r, r_outer)
    assert relabelled.total == best.total
    assert _placement_violations(r, r_outer, relabelled.placement) == []
    carried = [best.placement[old] for old in perm]
    assert _placement_violations(r, r_outer, carried) == []


def _pendant_quotient() -> QuotientGraph:
    # 4-faces A = 0 and B = 1 share edges 0 and 6; the 4-faces P = 2 and
    # Q = 3 each run along a pendant edge (3 and 7)
    edges = ((0, 3, 0), (1, 3, 0), (1, 3, 0), (2, 3, 0), (0, 4, 0), (0, 4, 0), (1, 4, 0), (0, 5, 0))
    rotation = ((0, 4, 7, 5), (1, 2, 6), (3,), (0, 2, 3, 1), (4, 6, 5), (7,))
    return QuotientGraph(3, edges, rotation, 0)


def test_min_beads_counts_every_edge_two_short_faces_share():
    # No cubic quotient needs a second shared edge counted: two short faces
    # share two edges only in the a = 2 quotient {2, 2, 4, 4}, where every
    # bead A and B share leaves a 2-face short.  Here, with P or Q outer, a
    # bead on edge 6 meets A and B and a pendant bead meets the other face,
    # but A and B may not share a bead at length 9.
    q = _pendant_quotient()
    edges = q.edges
    assert [sorted(s) for s in q.face_edge_sides] == [[0, 2, 5, 6], [0, 1, 4, 6], [1, 2, 3, 3], [4, 5, 7, 7]]
    assert q.face_pair_edges[0, 1] == (0, 6)
    for outer, pendant, want in ((2, 7, (0, 0, 0, 0, 0, 1, 1, 0)), (3, 3, (0, 0, 1, 0, 0, 0, 1, 0))):
        got = min_beads(q, outer)
        assert (got.total, got.placement) == (2, want)
        assert got == reference_min_beads(q, outer)
        assert _placement_violations(q, outer, want) == []
        # the least placement when only edge 0 counts as shared
        first_edge_only = tuple(int(e in (6, pendant)) for e in range(len(edges)))
        assert first_edge_only < want
        assert _placement_violations(q, outer, first_edge_only) == [("sharing", 0, 1)]


def _matching_bound(q, outer) -> int:
    return search._matching_bound(q.edge_faces, bead_demands(q, outer))


def test_matching_bound_is_the_least_total_for_the_demands_alone():
    # without the sharing rule the bound is exact: at a <= 3, on the theta
    # and on the pendant quotient, it is the brute-force least total
    theta = _theta()
    cases = [
        *_quotient_outer_pairs(3),
        *((theta, f) for f in range(len(theta.faces))),
        (_pendant_quotient(), 2),
        (_pendant_quotient(), 3),
    ]
    assert len(cases) == 14 + 3 + 2
    assert [_matching_bound(*c) for c in cases] == [demands_only_min_beads(*c) for c in cases]


@functools.cache
def _a5_outer_pairs() -> list:
    return [(q, f) for mat in _quotient_matrices(5) for q in search._shape(mat) for f in range(len(q.faces))]


def test_matching_bound_never_exceeds_the_least_total():
    # min_beads starts at the bound, so a bound above the least total would
    # change its results; the a = 5 pairs take about 0.5 s
    cases = [*_quotient_outer_pairs(4), *_a5_outer_pairs(), (_pendant_quotient(), 2), (_pendant_quotient(), 3)]
    assert len(cases) == 50 + 910 + 2
    over = [c for c in cases if _matching_bound(*c) > min_beads(*c).total]
    assert not over, f"{len(over)} pairs, first {over[0]}"


@pytest.mark.slow
def test_min_beads_matches_reference_at_five_white_vertices():
    # every spherical rotation of every a = 5 quotient shape, each face
    # outer in turn: about 11 minutes on a 2-core VM, nearly all of it in
    # the reference, whose cost climbs steeply with the total (up to 10)
    cases = _a5_outer_pairs()
    assert (len({id(q) for q, _ in cases}), len(cases)) == (130, 910)
    mismatches = [c for c in cases if min_beads(*c) != reference_min_beads(*c)]
    assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[0]}"


def test_no_alarm_on_clean_search():
    cert = enumerate_covers(SearchSpec(base="k1222", n=1))
    assert cert["visited"] == 1
    assert cert["survivor_count"] == 0  # the base itself is not planar
    assert cert["alarms"] == []


def test_structural_filters_via_cover_search():
    # the covers search refuses the structural filters; the fragment
    # search runs them, and at fold 2 it leaves no survivor
    with pytest.raises(SearchError, match="filters"):
        SearchSpec.from_obj(
            {"base": "k4", "n": 2, "filters": ["connected", "planar", "admissible", "exclusions"]}
        )
    cert = search_k4_fragments(2)
    assert cert["folds"][1]["visited"] == 8
    assert cert["survivor_count"] == 0
    assert cert["skipped_conditions"]
    assert "fragment_triangles_facial" in cert["extra_conditions"]


def test_label_fibers_equal_on_derived_covers():
    from collections import Counter

    g, _ = derive(normalized_assignment(K4, 3, [(1, 2, 0), (0, 1, 2), (1, 0, 2)]))
    counts = Counter(g.labels)
    assert set(counts.values()) == {3}


def test_fold_one_k4_excluded_as_itself(fragment_certificate):
    fold1 = next(f for f in fragment_certificate["folds"] if f["fold"] == 1)
    assert fold1["visited"] == 1
    assert len(fold1["candidates"]) == 1
    assert fold1["candidates"][0]["excluded_by"] == ["not_k4"]


def test_fold_six_fragment_survives():
    # positive control: the filter pipeline must not over-exclude; at
    # fold 6 a fragment with the two-lens quotient and four beads passes
    # exactly one embedding and outer-face choice
    g = fold_six_fragment().graph
    res = analyze_fragment_candidate(g)
    assert res["survivor"]
    assert res["embeddings"]["passing"] == 1


@pytest.mark.slow
def test_fold_six_fragment_direct_agreement():
    g = fold_six_fragment().graph
    assert analyze_fragment_direct(g)["survivor"]


def test_fold_four_analyzers_agree_everywhere():
    # exhaustive cross-validation of the quotient-based analyzer against
    # direct rotation enumeration over every fold-4 candidate class
    from planecover.search import _scan

    _, _, _, classes = _scan(K4, 4)
    for volt, _ in classes:
        g, _ = derive(normalized_assignment(K4, 4, volt))
        assert analyze_fragment_candidate(g)["survivor"] == analyze_fragment_direct(g)["survivor"]


def test_direct_oracle_gate_matches_library_gate(monkeypatch):
    # the direct analyzer runs its own not-K4 and negative triangle tests;
    # they must reject exactly what the library's gate does.  Neither tests
    # 2-connectivity: every scan class is a connected cover of K4, which is
    # 2-connected, and the path fails the negative triangle test first.
    # The library's gate is read as the analyzer hands it to _gate_result
    from planecover.search import _gate_result, _scan

    gates = []
    monkeypatch.setattr(search, "_gate_result", lambda gate: gates.append(gate) or _gate_result(gate))

    path = LabeledGraph((0, -1, -2, -3, 0), ((0, 1), (1, 2), (2, 3), (3, 4)))
    graphs = [path]
    for n in (1, 2, 3, 4):
        _, _, _, classes = _scan(K4, n)
        graphs += [derive(normalized_assignment(K4, n, v))[0] for v, _ in classes]
    seen = set()
    for g in graphs:
        analyze_fragment_candidate(g)
        excluded_by = _gate_result(gates[-1])["excluded_by"]
        want = excluded_by[0] if excluded_by else None
        assert _gate_failure(g) == want
        seen.add(want)
    assert seen == {None, "not_k4", "negative_lift_triangular"}
