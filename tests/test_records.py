"""Value semantics of the package's record classes.

The records are ``typing.NamedTuple`` classes; a class that caches
derived values or checks its fields subclasses one.  Records built twice
from equal fields compare equal and hash alike, whatever their caches
hold; a pickle round trip (a record is a plain value, so it can be stored
or sent to another process) gives an equal record of the same class; and the two places that build a
``QuotientGraph`` around known faces or a known rotation keep them.
"""

import pickle

import builders
import pytest
from oracles import identity_assignment

from planecover import fixtures as fx
from planecover import structure
from planecover.bounds import FoldVerdict, fold_verdict
from planecover.covers import (
    CoverVerdict,
    SemiCover,
    VoltageAssignment,
    verify_cover,
)
from planecover.embedding import FaceWalk, PlaneEmbedding
from planecover.graphs import BaseGraph, LabeledGraph, make_base
from planecover.search import MinBeadsResult, SearchSpec, min_beads, spherical_rotations
from planecover.structure import (
    Bead,
    PatternResult,
    QuotientGraph,
    StringDesc,
    detect_strings,
    face_label_pattern,
    find_beads,
    refine_faces,
)


def _first_string(g):
    return detect_strings(g, find_beads(g))[0]


def _k4_identity_verdict():
    k4 = make_base("k4")
    return verify_cover(k4.graph, k4, range(4))


#: (record class, factory building a fresh record, names of cached or
#: derived properties read on one of the two copies before comparing)
CASES = [
    (LabeledGraph, lambda: LabeledGraph((0, -1, -2), ((1, 0), (1, 2))), ("adj", "edge_set", "triangles")),
    (BaseGraph, lambda: BaseGraph("k4", make_base("k4").graph), ("cotree_edges", "triangles")),
    (PlaneEmbedding, lambda: builders.two_faces().embedding, ("faces", "dart_face")),
    (FaceWalk, lambda: builders.two_faces().embedding.faces[0], ("vertex_set",)),
    (SemiCover, builders.two_faces, ("projection",)),
    (VoltageAssignment, lambda: identity_assignment(make_base("k4"), 2), ()),
    (SearchSpec, lambda: SearchSpec("k1222", 2), ()),
    (QuotientGraph, fx.double_lens, ("faces", "census", "face_pair_edges")),
    (StringDesc, lambda: _first_string(builders.two_faces().graph), ()),
    (Bead, lambda: find_beads(builders.necklace(3).graph)[0], ("vertices",)),
    (MinBeadsResult, lambda: min_beads(fx.double_lens()), ()),
    (PatternResult, lambda: face_label_pattern((0, -1, -2, 0, -2, -3)), ()),
    (FoldVerdict, lambda: fold_verdict(12), ()),
    (CoverVerdict, _k4_identity_verdict, ()),
]


@pytest.mark.parametrize("cls, make, touched", CASES, ids=[c[0].__name__ for c in CASES])
def test_equal_fields_compare_and_hash_alike(cls, make, touched):
    a, b = make(), make()
    assert a is not b and type(a) is cls
    for name in touched:
        getattr(a, name)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("cls, make, touched", CASES, ids=[c[0].__name__ for c in CASES])
def test_pickle_round_trip_gives_an_equal_record(cls, make, touched):
    a = make()
    for name in touched:
        getattr(a, name)
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and b == a
    assert [getattr(b, name) for name in touched] == [getattr(a, name) for name in touched]


def test_spherical_rotations_seed_their_traced_faces():
    lens = fx.double_lens()
    quotients = list(spherical_rotations(lens.a, lens.edges))
    assert quotients
    for q in quotients:
        seeded = vars(q)["faces"]
        assert seeded == QuotientGraph(q.a, q.edges, q.rotation, q.outer_face).faces


@pytest.mark.parametrize(
    "name", ["two_faces", "nine_face_pair", "fold_six_fragment", "two_trapezia", "crowded_face"]
)
def test_quotient_graph_keeps_edges_and_rotation_when_it_sets_the_outer_face(name, monkeypatch):
    made = []

    def recording(*args, **kwargs):
        made.append(QuotientGraph(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(structure, "QuotientGraph", recording)
    h_emb = refine_faces(getattr(builders, name)()).h_embedding
    q, face_map = structure.quotient_graph(h_emb)
    first, last = made
    assert last is q
    assert (q.a, q.edges, q.rotation) == (first.a, first.edges, first.rotation)
    assert q.outer_face == face_map[h_emb.outer_face]
    assert q.faces == first.faces
