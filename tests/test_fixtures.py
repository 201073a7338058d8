import json

import builders
import pytest

from planecover import fixtures as fx
from planecover import io as pio
from planecover.covers import verify_semicover
from planecover.structure import refine_faces


def test_goldens_match_constructors():
    objs = builders.fixture_objects()
    assert set(objs) == set(fx.fixture_names())
    for name, obj in objs.items():
        golden = fx.load_fixture_obj(name)
        assert golden == obj, f"golden {name} is stale; regenerate via PYTHONPATH=src python tests/builders.py regen"


def test_goldens_round_trip_bytes():
    for name in fx.fixture_names():
        path = fx.fixture_path(name)
        text = path.read_text(encoding="utf-8")
        assert pio.dumps(json.loads(text)) == text


@pytest.mark.parametrize("name", ["../fixtures/two_faces", "two_faces.json", "", "two_faces\x00"])
def test_only_a_bundled_plain_name_loads(name):
    with pytest.raises(KeyError, match="unknown fixture .*; known: crowded_face, "):
        fx.load_fixture_obj(name)


def test_graph_json_round_trip():
    obj = fx.load_fixture_obj("k4-double.graph")
    g = pio.graph_from_obj(obj)
    assert pio.dumps(pio.graph_to_obj(g)) == pio.dumps(obj)


def test_semicover_fixture_loads():
    sc = pio.semicover_from_obj(fx.load_fixture_obj("necklace4"))
    assert verify_semicover(sc).ok
    assert sc.base.kind == "k4"


@pytest.mark.parametrize("name", ["two_trapezia", "crowded_face"])
def test_outer_face_holds_no_positive_triangle(name):
    # the (1,2,3) triangles lie in internal fragment faces
    ref = refine_faces(getattr(builders, name)())
    assert ref.triangles_in_face
    assert ref.h_embedding.outer_face not in ref.triangles_in_face


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fx.load_fixture_obj("nope")


def test_necklace_sizes():
    for b in (3, 4, 5):
        sc = builders.necklace(b)
        assert sc.graph.n == 4 * b
        assert sc.graph.m == 6 * b
        assert len(sc.embedding.faces) == 2 * b + 2


def test_dot_export_mentions_labels():
    from planecover.graphs import make_base

    dot = pio.graph_to_dot(make_base("k4").graph)
    assert "graph" in dot and "v0 -- v1" in dot
    assert "fillcolor" in dot
