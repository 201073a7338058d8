import itertools
import random

import pytest
from builders import hexagon_cover, necklace
from lemmas import cover_face_conditions, fold_from_single_long_face, is_peripheral
from oracles import face_lengths, lr_planar, planar_by_subdivision_search, relabel_vertices

from planecover import embedding
from planecover.covers import derive, normalized_assignment
from planecover.embedding import (
    EmbeddingError,
    KuratowskiWitness,
    PlaneEmbedding,
    adjacency_rows,
    planar_edges,
    planar_rows,
    planarity,
    validate_kuratowski,
)
from planecover.graphs import GraphError, LabeledGraph, make_base


def _octahedron():
    labels = (1, -1, 2, -2, 3, -3)
    edges = tuple(
        (u, v)
        for u, v in itertools.combinations(range(6), 2)
        if labels[u] != -labels[v]
    )
    return LabeledGraph(labels, edges)


def test_k4_planar_four_triangles():
    emb = planarity(make_base("k4").graph)
    assert isinstance(emb, PlaneEmbedding)
    assert face_lengths(emb) == [3, 3, 3, 3]


def test_k5_witness():
    k5 = LabeledGraph((0,) * 5, tuple(itertools.combinations(range(5), 2)))
    w = planarity(k5)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K5"


def test_k33_witness():
    k33 = LabeledGraph((0,) * 6, tuple((i, j + 3) for i in range(3) for j in range(3)))
    w = planarity(k33)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K33"


def test_k1222_not_planar():
    w = planarity(make_base("k1222").graph)
    assert isinstance(w, KuratowskiWitness)
    # the witness is re-validated against the host graph
    validate_kuratowski(make_base("k1222").graph, w.edges)


def test_planarity_requires_connected():
    g = LabeledGraph((0, -1, 0, -1), ((0, 1), (2, 3)))
    with pytest.raises(GraphError):
        planarity(g)


def test_faces_octahedron():
    emb = planarity(_octahedron())
    assert face_lengths(emb) == [3] * 8


def test_faces_cube_double_cover():
    cube, _ = derive(normalized_assignment(make_base("k4"), 2, [(1, 0)] * 3))
    emb = planarity(cube)
    assert face_lengths(emb) == [4] * 6


def test_faces_sum_and_euler():
    for g in (make_base("k4").graph, _octahedron(), necklace(4).graph):
        emb = planarity(g)
        assert sum(f.length for f in emb.faces) == 2 * g.m
        assert g.n - g.m + len(emb.faces) == 2


def test_with_outer_face_keeps_the_faces_and_checks_the_id():
    emb = planarity(necklace(4).graph)
    for i in range(len(emb.faces)):
        moved = emb.with_outer_face(i)
        assert moved == PlaneEmbedding(emb.graph, emb.rotation, i)
        assert moved.faces is emb.faces and moved.outer == emb.faces[i]
    for i in (-1, len(emb.faces)):
        with pytest.raises(EmbeddingError, match="out of range"):
            emb.with_outer_face(i)
        with pytest.raises(EmbeddingError, match="out of range"):
            PlaneEmbedding(emb.graph, emb.rotation, i)


def test_malformed_rotation_rejected():
    g = make_base("k4").graph
    with pytest.raises(EmbeddingError):
        PlaneEmbedding(g, ((0, 1), (0, 3, 4), (1, 2, 5), (2, 4, 5)))
    # genus-1 rotation of K4 is rejected by the Euler check
    rots = None
    emb = planarity(g)
    base_rot = [list(r) for r in emb.rotation]
    flipped = [list(r) for r in base_rot]
    found_bad = False
    for v in range(4):
        trial = [list(r) for r in base_rot]
        trial[v] = trial[v][::-1]
        try:
            PlaneEmbedding(g, tuple(map(tuple, trial)))
        except EmbeddingError:
            found_bad = True
    assert found_bad


def test_reembed_involution_and_face_multiset():
    emb = planarity(make_base("k4").graph)
    other = PlaneEmbedding(emb.graph, emb.rotation, (emb.outer_face + 1) % len(emb.faces))
    assert face_lengths(other) == face_lengths(emb)
    back = PlaneEmbedding(other.graph, other.rotation, emb.outer_face)
    assert back == emb
    assert len(other.faces) == 4
    with pytest.raises(EmbeddingError):
        PlaneEmbedding(emb.graph, emb.rotation, 99)


def test_internal_nontriangular_count_changes_by_one():
    # 12-vertex example: the three-bead ring
    emb = necklace(3).embedding
    counts = set()
    for fid in range(len(emb.faces)):
        e2 = PlaneEmbedding(emb.graph, emb.rotation, fid)
        counts.add(
            sum(1 for i, f in enumerate(e2.faces) if i != fid and f.length > 3)
        )
    assert max(counts) - min(counts) <= 1


def test_face_multiset_stable_under_relabeling_3connected():
    rng = random.Random(5)
    for g in (make_base("k4").graph, _octahedron()):
        ref = face_lengths(planarity(g))
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert face_lengths(planarity(relabel_vertices(g, perm))) == ref


def test_is_peripheral():
    k4 = make_base("k4").graph
    assert is_peripheral(k4, (0, 1, 2))
    b = make_base("k1222")
    tri = tuple(b.label_to_vertex[l] for l in (1, 2, 3))
    assert is_peripheral(b.graph, tri)
    # 4-cycle with a chord is not chordless
    g = LabeledGraph((0, -1, 3, -2), ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
    assert not is_peripheral(g, (0, 1, 2, 3))
    with pytest.raises(GraphError):
        is_peripheral(k4, (0, 1))


def test_cover_face_conditions_on_cover_of_k4():
    sc = necklace(4)
    rep = cover_face_conditions(sc.embedding, sc.base, fold=4)
    assert rep.short_lifts_facial
    assert rep.no_long_triangle_face
    assert rep.triangular_faces == 8
    assert rep.fold == 4


def test_cover_face_conditions_long_face_violation():
    sc = hexagon_cover()
    rep = cover_face_conditions(sc.embedding, sc.base, fold=2)
    assert not rep.no_long_triangle_face
    assert rep.long_face_violations


def test_cover_face_conditions_short_lift_violation():
    # the triangular bipyramid over (0, 1, 2) with apexes 3 and -3 is K5
    # without the 3 -- -3 edge, label-consistent over K(1,2,2,2); its
    # (0, 1, 2) triangle separates the apexes, so it bounds no face
    g = LabeledGraph(
        (0, 1, 2, 3, -3), tuple(e for e in itertools.combinations(range(5), 2) if e != (3, 4))
    )
    rep = cover_face_conditions(planarity(g), make_base("k1222"), fold=1)
    assert not rep.short_lifts_facial
    assert rep.short_lift_violations == ((0, 1, 2),)
    assert rep.no_long_triangle_face


def test_identity_cover_error_path():
    # the identity projection of the base is not planar, so the face
    # conditions can never be evaluated on it
    w = planarity(make_base("k1222").graph)
    assert isinstance(w, KuratowskiWitness)


def test_fold_from_single_long_face():
    assert fold_from_single_long_face(3) == 4
    assert fold_from_single_long_face(2) == 3
    with pytest.raises(ValueError):
        fold_from_single_long_face(1)


def test_fold_formula_euler_consistency():
    for m in range(2, 101):
        n = fold_from_single_long_face(m)
        assert n == m + 1
        V, E, F = 7 * n, 18 * n, 11 * n + 2
        assert V - E + F == 2
        assert 3 * (F - 1) + 3 * m == 2 * E


def test_k1222_witness_cross_checked_by_subdivision_oracle():
    g = make_base("k1222").graph
    assert not planar_by_subdivision_search(g)
    w = planarity(g)
    assert isinstance(w, KuratowskiWitness)


def _random_triangulation(rng, nverts):
    """Edges of a random triangulation: stacked insertions into random
    faces from a triangle, then random edge flips."""
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, nverts):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    edges = {tuple(sorted(p)) for f in faces for p in itertools.combinations(f, 2)}
    for _ in range(3 * nverts):
        u, v = rng.choice(sorted(edges))
        i, j = [k for k, f in enumerate(faces) if u in f and v in f]
        (a,) = set(faces[i]) - {u, v}
        (b,) = set(faces[j]) - {u, v}
        if tuple(sorted((a, b))) in edges:
            continue
        edges.remove((u, v))
        edges.add(tuple(sorted((a, b))))
        faces[i], faces[j] = (a, b, u), (a, b, v)
    assert len(edges) == 3 * nverts - 6
    return sorted(edges)


def test_planar_edges_accepts_random_triangulations():
    rng = random.Random(7)
    for nverts in range(4, 21):
        for _ in range(20):
            edges = _random_triangulation(rng, nverts)
            assert planar_edges(nverts, edges)
            assert planar_edges(nverts, edges + edges[:3])  # repeated edges
            assert lr_planar(LabeledGraph((0,) * nverts, tuple(edges)))


def _graphs_at_euler_bound(rng, nverts):
    """Simple graphs with exactly 3V - 6 edges: a random triangulation
    after k random edge swaps (k = 0..3), and a uniform random graph."""
    pairs = list(itertools.combinations(range(nverts), 2))
    for k in range(4):
        edges = set(_random_triangulation(rng, nverts))
        for _ in range(k):
            edges.remove(rng.choice(sorted(edges)))
            edges.add(rng.choice([p for p in pairs if p not in edges]))
        yield LabeledGraph((0,) * nverts, tuple(edges))
    yield LabeledGraph((0,) * nverts, tuple(rng.sample(pairs, 3 * nverts - 6)))


def test_planar_edges_at_euler_bound_matches_lr_and_subdivision_search():
    rng = random.Random(11)
    verdicts = []
    for nverts in range(4, 16):
        for _ in range(40 if nverts <= 8 else 15):
            for g in _graphs_at_euler_bound(rng, nverts):
                assert g.m == 3 * nverts - 6
                got = planar_edges(g.n, g.edges)
                assert got == lr_planar(g)
                if nverts <= 8:
                    assert got == planar_by_subdivision_search(g)
                verdicts.append(got)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_planar_edges_small_graphs_and_k5():
    assert planar_edges(0, [])
    assert planar_edges(3, [(0, 1), (1, 2), (0, 2)])
    k5 = list(itertools.combinations(range(5), 2))
    assert not planar_edges(5, k5)
    assert planar_edges(5, k5[1:])  # K5 minus an edge: a triangulation


def test_planar_rows_agrees_with_planar_edges():
    # the scan's row form, given the rows and the distinct edge count,
    # against the edge-list form: on K5 and K5 minus an edge, and on graphs
    # at exactly 3V - 6 edges, alone and with repeated edges in either
    # orientation
    rng = random.Random(13)
    k5 = list(itertools.combinations(range(5), 2))
    cases = [(5, k5), (5, k5[1:])]
    for nverts in range(4, 12):
        for _ in range(10):
            for g in _graphs_at_euler_bound(rng, nverts):
                repeats = [(v, u) for u, v in rng.sample(g.edges, 3)] + list(g.edges[:2])
                cases += [(nverts, list(g.edges)), (nverts, list(g.edges) + repeats)]
    verdicts = []
    for nverts, edges in cases:
        m = len({frozenset(e) for e in edges})
        got = planar_rows(adjacency_rows(nverts, edges), m)
        assert got == planar_edges(nverts, edges), edges
        verdicts.append(got)
    assert verdicts[:2] == [False, True]
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_planar_edges_skips_lr_at_and_above_the_bound(monkeypatch):
    # K5 plus a vertex on two of its vertices: 12 = 3V - 6 edges, and the
    # endpoints of edge (0, 5) share one neighbour
    edges = list(itertools.combinations(range(5), 2)) + [(0, 5), (1, 5)]
    assert not lr_planar(LabeledGraph((0,) * 6, tuple(edges)))

    def no_lr(*args, **kwargs):
        raise AssertionError("the LR test ran")

    monkeypatch.setattr(embedding, "_lr_planar", no_lr)
    assert not planar_edges(6, edges)
    assert not planar_edges(5, list(itertools.combinations(range(5), 2)))  # K5: 10 > 9
