import random

import pytest
from builders import (
    crowded_face,
    hexagon_cover,
    necklace,
    nine_face_pair,
    single_bead,
    support_case,
    trapezium_face,
    two_faces,
    two_trapezia,
)
from lemmas import detect_beads, detect_trapezia, string_vertices, triangles_supported_on_string
from oracles import relabel_vertices

from planecover.covers import SemiCover
from planecover.embedding import PlaneEmbedding, planarity
from planecover.graphs import LabeledGraph, make_base
from planecover.structure import (
    PatternResult,
    QuotientError,
    StructureError,
    admissibility_report,
    check_exclusions,
    detect_strings,
    face_exclusions,
    face_label_pattern,
    find_beads,
    is_necklace,
    quotient_graph,
    refine_faces,
)

K4 = make_base("k4")


# -- face label patterns ----------------------------------------------------


def test_pattern_valid_sequence():
    res = face_label_pattern((0, -1, -2, 0, -1, -3))
    assert res.kind == "pattern"
    assert res.m == 2


def test_pattern_triangle_degenerate():
    assert face_label_pattern((-1, -2, -3)).kind == "triangle"
    assert face_label_pattern((0, -1, -2)).kind == "triangle"


def test_pattern_mismatch_zero_spacing():
    assert face_label_pattern((0, -1, 0, -2, -3, -1)) == PatternResult("mismatch")


def test_pattern_mismatch_inside_a_block():
    # a block must start at a 0 and go on with two non-zero labels
    assert face_label_pattern((0, -1, -2, -1, -2, -3)) == PatternResult("mismatch")
    assert face_label_pattern((0, -1, -2, 0, 0, -2)) == PatternResult("mismatch")


def test_pattern_rejects_foreign_labels():
    with pytest.raises(StructureError):
        face_label_pattern((0, 1, -2))


def test_pattern_rotation_independent():
    seq = (0, -1, -2, 0, -1, -3, 0, -2, -3)
    for i in range(9):
        rot = seq[i:] + seq[:i]
        assert face_label_pattern(rot).kind == "pattern"


# -- beads, strings, necklaces ----------------------------------------------


def test_detect_beads_necklace():
    sc = necklace(4)
    beads = detect_beads(sc.embedding)
    assert len(beads) == 4
    assert all(b.type_label == -3 for b in beads)


def test_detect_beads_k4_none():
    emb = planarity(K4.graph)
    assert detect_beads(emb) == []


def test_bead_inner_vertices_on_two_faces():
    sc = nine_face_pair()
    detect_beads(sc.embedding)  # raises if the two-face property fails


def test_shared_beads_found():
    # the nine-face pair shares exactly m-2 = 1 bead between its 9-faces
    sc = nine_face_pair()
    rep = admissibility_report(sc)
    reasons, sharing = check_exclusions(rep)
    assert reasons == ("bead_sharing",)
    assert len(sharing) == 1
    fa, fb, m, shared = sharing[0]
    assert m == 3 and shared == 1


def _strings(h):
    return detect_strings(h, find_beads(h))


def test_strings_two_faces():
    h = refine_faces(two_faces()).h_embedding.graph
    strings = _strings(h)
    assert len(strings) == 3
    assert sorted(s.type_label for s in strings) == [-3, -2, -1]
    assert all(len(s.beads) == 1 for s in strings)
    assert not is_necklace(h, find_beads(h))


def test_necklace_detection():
    g = necklace(4).graph
    assert is_necklace(g, find_beads(g))
    assert _strings(g) == []


def test_necklace_is_one_closed_chain():
    # two disjoint rings of beads have no open string but are not one necklace
    g = necklace(3).graph
    shifted = tuple((u + g.n, v + g.n) for u, v in g.edges)
    twice = LabeledGraph(g.labels * 2, g.edges + shifted)
    assert _strings(twice) == []
    assert not is_necklace(twice, find_beads(twice))
    # a lone bead has no external edges at all
    bead = single_bead().graph
    with pytest.raises(StructureError):
        is_necklace(bead, find_beads(bead))


def test_detection_invariant_under_relabeling():
    g = necklace(4).graph
    rng = random.Random(9)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        g2 = relabel_vertices(g, perm)
        emb2 = planarity(g2)
        assert len(detect_beads(emb2)) == 4
        assert is_necklace(g2, find_beads(g2))


# -- trapezia ----------------------------------------------------------------


def test_trapezium_face_exactly_one_type_two():
    traps = detect_trapezia(trapezium_face())
    assert len(traps) == 1
    assert traps[0].type_label == 2


def test_bare_triangle_no_trapezia():
    k1222 = make_base("k1222")
    g = LabeledGraph((1, 2, 3), ((0, 1), (0, 2), (1, 2)))
    sc = SemiCover(planarity(g), k1222)
    assert detect_trapezia(sc) == []


def test_two_disjoint_trapezia():
    traps = detect_trapezia(two_trapezia())
    assert sorted(t.type_label for t in traps) == [1, 2]
    assert len({t.triangle for t in traps}) == 2


# -- supported triangles ------------------------------------------------------


def _support_of(sc):
    ref = refine_faces(sc)
    strings = _strings(ref.h_embedding.graph)
    face_id = next(f for f, ts in ref.triangles_in_face.items() if ts)
    string = next(s for s in strings if s.type_label == -3)
    return triangles_supported_on_string(sc, string, face_id, ref)


def test_trapezium_face_support_bottom_zero_top_negk():
    rep = _support_of(trapezium_face())
    (t,) = rep.triangles
    assert not t.on_string  # one attachment sits on the other string
    assert t.bottom_label == 0
    assert t.top_label == -3


@pytest.mark.parametrize("case", [1, 2, 3])
def test_minimal_configurations(case):
    rep = _support_of(support_case(case))
    (t,) = rep.triangles
    assert t.on_string and t.minimal
    assert t.configuration == case
    assert t.bottom_label == 0 and t.top_label == -3


def test_support_empty_face():
    sc = two_faces()
    ref = refine_faces(sc)
    strings = _strings(ref.h_embedding.graph)
    internal = [
        i
        for i, f in enumerate(ref.h_embedding.faces)
        if f.length > 3 and i != ref.h_embedding.outer_face
    ]
    string = next(s for s in strings if s.type_label == -3)
    rep = triangles_supported_on_string(sc, string, internal[0], ref)
    assert rep.triangles == ()


def test_support_rejects_wrong_face():
    sc = trapezium_face()
    ref = refine_faces(sc)
    strings = _strings(ref.h_embedding.graph)
    string = next(s for s in strings if s.type_label == -3)
    tri_faces = [
        i for i, f in enumerate(ref.h_embedding.faces) if string_vertices(string) & {v for v in f.vertex_set}
    ]
    bad = next(i for i, f in enumerate(ref.h_embedding.faces) if i not in tri_faces)
    with pytest.raises(StructureError):
        triangles_supported_on_string(sc, string, bad, ref)


# -- admissibility conditions --------------------------------------------------


def test_necklace_full_suite():
    rep = admissibility_report(necklace(4))
    c = rep.conditions
    assert c["lift_cover"] and c["two_connected"] and c["not_k4"]
    assert c["face_patterns"] and c["no_internal_hexagon"]
    # a bare ring has no (1,2,3) triangles and its octahedral paths
    # cannot reach the boundary, so the interior conditions fail
    assert not c["positive_triangle"]
    reasons, sharing = check_exclusions(rep)
    assert reasons == ("necklace",)
    assert sharing == ()


def test_internal_hexagon_violation():
    sc = hexagon_cover()
    emb = sc.embedding
    tri_outer = next(i for i, f in enumerate(emb.faces) if f.length == 3)
    rep = admissibility_report(SemiCover(PlaneEmbedding(emb.graph, emb.rotation, tri_outer), sc.base))
    assert not rep.conditions["no_internal_hexagon"]


def test_triangle_capacity_violation():
    rep = admissibility_report(crowded_face())
    assert not rep.conditions["triangle_capacity"]
    crowded = [f for f in rep.faces if f.triangles == 2]
    assert crowded and crowded[0].length == 9


def test_two_faces_exclusion():
    rep = admissibility_report(two_faces())
    reasons, _ = check_exclusions(rep)
    assert "two_internal_faces" in reasons
    assert sum(f.internal and f.length > 3 for f in rep.faces) == 2


def test_face_rule_reasons_come_in_a_fixed_order():
    # m per non-triangular face, the outer face, the beads each pair shares
    m = {0: 1, 1: 2, 2: 3}
    assert face_exclusions(m, 0, {(1, 2): 1}) == (
        ("outer_face_nontriangular", "no_internal_hexagon", "two_internal_faces", "bead_sharing"),
        ((1, 2, 3, 1),),
    )
    # a triangular outer face is no key of m; the outer face shares freely
    assert face_exclusions({1: 4}, 0, {}) == (("necklace",), ())
    assert face_exclusions({0: 2, 1: 3, 2: 3, 3: 3}, 0, {(0, 1): 5}) == ((), ())
    # faces of length up to 3m may not share m - 2 beads, and none at m = 3
    m = {0: 2, 1: 4, 2: 4, 3: 5}
    assert face_exclusions(m, 0, {(1, 2): 1, (2, 3): 3}) == (("bead_sharing",), ((2, 3, 5, 3),))
    assert face_exclusions(m, 0, {(1, 2): 2}) == (("bead_sharing",), ((1, 2, 4, 2),))


def test_fragment_missing_a_base_label_is_no_cover():
    # the K4 part (0, -1, -2) misses -3, so its projection is not onto K4
    g = LabeledGraph((0, -1, -2, 1), ((0, 1), (0, 2), (1, 2), (0, 3), (2, 3)))
    rep = admissibility_report(SemiCover(planarity(g), make_base("k1222")))
    assert rep.conditions["lift_cover"] is False


def test_face_walks_simple_when_two_connected():
    for sc in (necklace(4), two_faces(), nine_face_pair()):
        rep = admissibility_report(sc)
        if rep.conditions["two_connected"]:
            ref = refine_faces(sc)
            assert all(f.is_simple_cycle() for f in ref.h_embedding.faces)


# -- quotients -----------------------------------------------------------------


def test_quotient_two_faces_is_theta():
    q, _ = quotient_graph(refine_faces(two_faces()).h_embedding)
    assert q.a == 1
    assert len(q.edges) == 3
    assert all(u == 0 and v == 1 for u, v, _ in q.edges)
    assert q.census == {2: 3}
    assert (2 * q.a, len(q.edges), len(q.faces)) == (2, 3, 3)


def test_quotient_nine_face_pair():
    q, fmap = quotient_graph(refine_faces(nine_face_pair()).h_embedding)
    assert q.a == 2
    assert q.census == {2: 2, 4: 2}
    assert q.total_beads == 3
    assert len(q.faces[q.outer_face]) == 2  # the outer hexagon maps to a 2-face
    assert (2 * q.a, len(q.edges), len(q.faces)) == (4, 6, 4)


def test_quotient_counts_identity():
    for sc in (two_faces(), nine_face_pair()):
        q, _ = quotient_graph(refine_faces(sc).h_embedding)
        assert (len(q.edges), len(q.faces)) == (3 * q.a, q.a + 2)


def test_quotient_face_length_identity():
    # fragment face of length 3l with beta beads -> quotient face 2(l - beta)
    sc = nine_face_pair()
    ref = refine_faces(sc)
    q, fmap = quotient_graph(ref.h_embedding)
    beads = find_beads(ref.h_embedding.graph)
    from planecover.structure import _bead_hosts

    hosts = _bead_hosts(ref.h_embedding, beads)
    for hf, qf in fmap.items():
        L = ref.h_embedding.faces[hf].length
        beta = sum(1 for hp in hosts if hf in hp)
        assert 2 * (L // 3 - beta) == len(q.faces[qf])


def test_quotient_rejects_necklace():
    with pytest.raises(QuotientError):
        quotient_graph(necklace(4).embedding)


def test_quotient_rejects_long_negative_lift():
    sc = hexagon_cover()
    with pytest.raises(QuotientError):
        quotient_graph(sc.embedding)
