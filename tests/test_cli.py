import hashlib
import json

import pytest
from builders import semicover_to_obj, vertex_map_to_obj

from planecover import cli
from planecover import fixtures as fx
from planecover import io as pio
from planecover.cli import main
from planecover.covers import SemiCover
from planecover.embedding import planarity
from planecover.graphs import LabeledGraph, make_base


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(pio.dumps(obj), encoding="utf-8")
    return str(p)


def test_verify_identity_cover(capsys):
    rc = main(["verify", "--fixture", "k1222-identity", "--base", "k1222"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fold 1" in out


def test_verify_cube_double_cover(capsys):
    rc = main(["verify", "--fixture", "k4-double", "--base", "k4"])
    assert rc == 0
    assert "fold 2" in capsys.readouterr().out


def test_verify_disconnected_cover_reports_each_fold(tmp_path, capsys):
    # K4 beside the two-fold cube, projected by labels
    k4 = make_base("k4")
    dbl = pio.graph_from_obj(fx.load_fixture_obj("k4-double.graph"))
    g = LabeledGraph(
        k4.graph.labels + dbl.labels,
        k4.graph.edges + tuple((u + 4, v + 4) for u, v in dbl.edges),
    )
    vmap = [k4.label_to_vertex[lab] for lab in g.labels]
    rc = main([
        "verify",
        _write(tmp_path, "g.json", pio.graph_to_obj(g)),
        _write(tmp_path, "m.json", vertex_map_to_obj(vmap)),
        "--base", "k4",
    ])
    assert rc == 0
    assert "folds [1, 2]" in capsys.readouterr().out


def test_verify_broken_map(tmp_path, capsys):
    g = _write(tmp_path, "g.json", fx.load_fixture_obj("k4-double.graph"))
    m = _write(tmp_path, "m.json", fx.load_fixture_obj("k4-double.broken-map"))
    rc = main(["verify", g, m, "--base", "k4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out == (
        "not a cover: vertex 1: neighbor images not injective into the base "
        "neighborhood (neighbor images [0, 1, 2])\n"
    )


def test_verify_names_a_map_entry_off_the_base(tmp_path, capsys):
    # the k4-double map with its last entry 9: onto the base, but 9 is no
    # K4 vertex id
    g = _write(tmp_path, "g.json", fx.load_fixture_obj("k4-double.graph"))
    m = _write(tmp_path, "m.json", {"vertex_map": [0, 0, 1, 1, 2, 2, 3, 9]})
    rc = main(["verify", g, m, "--base", "k4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "vertex 7 maps to 9, which is not a vertex id of base 'k4'" in err
    assert "onto" not in err


def test_analyze_names_the_base_labels_a_semicover_misses(tmp_path, capsys):
    # a k4 semi-cover that is one (0, -1, -2) triangle: no vertex lies over -3
    tri = planarity(LabeledGraph((0, -1, -2), ((0, 1), (0, 2), (1, 2))))
    sc = _write(tmp_path, "sc.json", semicover_to_obj(SemiCover(tri, make_base("k4"))))
    rc = main(["analyze", sc])
    err = capsys.readouterr().err
    assert rc == 3
    assert "no vertex projects onto base labels [-3]" in err
    assert "vertex_map" not in err


def test_verify_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    g = _write(tmp_path, "g.json", fx.load_fixture_obj("k4-double.graph"))
    rc = main(["verify", g, str(p), "--base", "k4"])
    assert rc == 3
    assert "input error" in capsys.readouterr().err


def test_unknown_fixture_message_is_unquoted(capsys):
    # the KeyError's message, not its repr
    rc = main(["derive", "--fixture", "nonexistent"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: unknown fixture 'nonexistent'; known: crowded_face,")


def test_search_k4_n2(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["search", "--fixture", "spec-k4-n2", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["visited"] == 8
    assert cert["survivor_count"] >= 1


def test_search_budget_refusal(tmp_path, capsys):
    spec = {"mode": "covers", "base": "k1222", "n": 4, "filters": ["connected", "planar"], "dedup": True}
    p = _write(tmp_path, "spec.json", spec)
    rc = main(["search", p, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_successive_calls_do_not_share_arguments(capsys):
    # the parser is built once per process; each call parses afresh
    assert cli.build_parser() is cli.build_parser()
    assert main(["search", "--fixture", "spec-k4-n2", "--budget", "5"]) == 2
    assert main(["search", "--fixture", "spec-k4-n2"]) == 0
    assert cli.build_parser().parse_args(["search", "--budget", "5"]).budget == 5
    assert cli.build_parser().parse_args(["search"]).budget is None


def test_search_deterministic_output(tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["search", "--fixture", "spec-k4-n2", "--out", str(o1)]) == 0
    assert main(["search", "--fixture", "spec-k4-n2", "--out", str(o2)]) == 0
    c1, c2 = json.loads(o1.read_text()), json.loads(o2.read_text())
    c1.pop("timing"), c2.pop("timing")
    assert pio.dumps(c1) == pio.dumps(c2)


def test_analyze_necklace_reports_exclusion(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--fixture", "necklace4", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["exclusions"]["necklace"]
    assert "necklace" in capsys.readouterr().out


SEMICOVER_FIXTURES = (
    "necklace4", "necklace3", "two_faces", "nine_face_pair", "fold_six_fragment",
    "hexagon_cover", "single_bead", "hub_violation", "two_trapezia", "crowded_face",
    "support_case1", "support_case2", "support_case3", "trapezium_face",
)


@pytest.mark.parametrize("name", SEMICOVER_FIXTURES)
def test_analyze_runs_one_bead_search(monkeypatch, tmp_path, capsys, name):
    # the report's beads feed its strings, its necklace test and the
    # quotient census
    from planecover import structure

    calls = []
    find_beads = structure.find_beads

    def counted(g):
        calls.append(g)
        return find_beads(g)

    monkeypatch.setattr(structure, "find_beads", counted)
    main(["analyze", "--fixture", name, "--out", str(tmp_path / "report.json")])
    assert len(calls) == 1


@pytest.mark.parametrize("name", ("nine_face_pair", "two_faces", "fold_six_fragment"))
def test_analyze_derives_each_fact_once(monkeypatch, tmp_path, capsys, name):
    # one face-rule run and one (1,2,3) triangle search per report, and one
    # triangle enumeration per graph: the ambient graph and the fragment.
    # The base graphs enumerate theirs once per process, before the count
    from functools import cached_property

    from planecover import structure

    for kind in ("k4", "k1222"):
        make_base(kind).triangles
    calls = {"face_exclusions": 0, "positive_triangles": 0}
    for fname in calls:
        def counted(*args, _original=getattr(structure, fname), _name=fname):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(structure, fname, counted)
    enumerated = []
    triangles = LabeledGraph.triangles.func

    def counted_triangles(g):
        enumerated.append(g)
        return triangles(g)

    prop = cached_property(counted_triangles)
    prop.__set_name__(LabeledGraph, "triangles")
    monkeypatch.setattr(LabeledGraph, "triangles", prop)
    assert main(["analyze", "--fixture", name, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"face_exclusions": 1, "positive_triangles": 1}
    assert len(enumerated) == 2


@pytest.mark.parametrize("name", SEMICOVER_FIXTURES)
def test_analyze_refines_faces_once(monkeypatch, tmp_path, capsys, name):
    # the report keeps the fragment embedding that feeds the quotient census
    from planecover import cli, structure

    calls = []
    refine_faces = structure.refine_faces

    def counted(sc):
        calls.append(sc)
        return refine_faces(sc)

    for module in (cli, structure):
        monkeypatch.setattr(module, "refine_faces", counted)
    main(["analyze", "--fixture", name, "--out", str(tmp_path / "report.json")])
    assert len(calls) == 1


def test_quotient_traces_its_faces_once(monkeypatch, tmp_path, capsys):
    # the quotient keeps the faces it traced when its outer face is fixed,
    # as does the double lens
    from planecover import structure
    from planecover.fixtures import double_lens

    calls = []
    trace_faces = structure.trace_faces

    def counted(*args):
        calls.append(args)
        return trace_faces(*args)

    monkeypatch.setattr(structure, "trace_faces", counted)
    assert main(["quotient", "--fixture", "fold_six_fragment", "--out", str(tmp_path / "q.json")]) == 0
    assert len(calls) == 1
    calls.clear()
    double_lens().faces
    assert len(calls) == 1


def test_analyze_invalid_semicover_exits_one(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--fixture", "hub_violation", "--out", str(out)])
    assert rc == 1
    assert "invalid semi-cover" in capsys.readouterr().out
    # the report is still written, naming the failed invariant
    report = json.loads(out.read_text())
    assert not report["semicover_valid"]
    assert "semicover_violation" in report


def test_bounds_command(tmp_path, capsys):
    assert main(["bounds", "12"]) == 0
    assert "contradiction" in capsys.readouterr().out
    assert main(["bounds", "14"]) == 0
    assert "no contradiction" in capsys.readouterr().out
    assert main(["bounds", "7"]) == 3


def test_embed_commands(tmp_path, capsys):
    out = tmp_path / "emb.json"
    rc = main(["embed", "--fixture", "k4-double", "--out", str(out)])
    assert rc == 0
    emb = json.loads(out.read_text())
    assert len(emb["faces"]) == 6
    # non-planar input: witness and exit 1
    g = _write(tmp_path, "k1222.json", fx.load_fixture_obj("k1222-identity.graph"))
    rc = main(["embed", g, "--out", str(tmp_path / "w.json")])
    assert rc == 1
    witness = json.loads((tmp_path / "w.json").read_text())
    assert witness["non_planar"] and witness["witness_kind"] in ("K5", "K33")


def test_quotient_command(tmp_path, capsys):
    out = tmp_path / "q.json"
    rc = main(["quotient", "--fixture", "nine_face_pair", "--out", str(out)])
    assert rc == 0
    q = json.loads(out.read_text())
    assert q["a"] == 2 and q["total_beads"] == 3
    assert "minimum demand 4" in capsys.readouterr().out


K4_DOUBLE_VOLTAGE = {
    "base": "k4",
    "n": 2,
    "edges": [
        {"from": u, "to": v, "perm": [1, 0]}
        for u, v in [(1, 2), (1, 3), (2, 3)]
    ],
}


def test_derive_and_lift(tmp_path, capsys):
    vp = _write(tmp_path, "volt.json", K4_DOUBLE_VOLTAGE)
    out = tmp_path / "derived.json"
    assert main(["derive", vp, "--out", str(out)]) == 0
    derived = json.loads(out.read_text())
    assert derived["fold"] == 2 and derived["valid"]

    g = _write(tmp_path, "g.json", derived["graph"])
    m = _write(tmp_path, "m.json", {"vertex_map": derived["vertex_map"]})
    lifted = tmp_path / "lift.json"
    assert main(["lift", g, m, "--base", "k4", "--labels", "0,-1,-2,-3", "--out", str(lifted)]) == 0
    obj = json.loads(lifted.read_text())
    assert len(obj["vertices"]) == 8


def test_lift_reads_the_given_map_not_the_labels(tmp_path, capsys):
    # the k4-double cover under a map that swaps base ids 1 and 2; K4 is
    # complete, so the map is still a cover, and base ids 0, 1, 3 now lie
    # under the vertices labelled 0, -2 and -3
    g = _write(tmp_path, "g.json", fx.load_fixture_obj("k4-double.graph"))
    m = _write(tmp_path, "m.json", {"vertex_map": [0, 0, 2, 2, 1, 1, 3, 3]})
    lifted = tmp_path / "lift.json"
    assert main(["verify", g, m, "--base", "k4"]) == 0
    assert main(["lift", g, m, "--base", "k4", "--labels", "0,-1,-3", "--out", str(lifted)]) == 0
    obj = json.loads(lifted.read_text())
    assert sorted(v["label"] for v in obj["vertices"]) == [-3, -3, -2, -2, 0, 0]
    assert len(obj["edges"]) == 6


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["export-dot", "--fixture", "k4-double", "--out", str(out)]) == 0
    assert "graph" in out.read_text()


@pytest.mark.slow
def test_search_fragments_cli(tmp_path, capsys):
    out = tmp_path / "frag.json"
    rc = main(["search", "--fixture", "spec-k4-h-le-5", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert all(len(f["survivors"]) == 0 for f in cert["folds"])


def test_search_k1222_n2_cli(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["search", "--fixture", "spec-k1222-n2", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["visited"] == 4096
    assert cert["survivor_count"] == 0
    assert "0 survivors" in capsys.readouterr().out


def test_search_dot_dump(tmp_path):
    out = tmp_path / "cert.json"
    dots = tmp_path / "dots"
    rc = main(["search", "--fixture", "spec-k4-n2", "--out", str(out), "--dot-dir", str(dots)])
    assert rc == 0
    cert = json.loads(out.read_text())
    files = list(dots.glob("survivor-*.dot"))
    assert len(files) == cert["survivor_count"]
    assert "graph" in files[0].read_text()


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_search_dot_dir_on_a_file_exits_three(tmp_path, capsys, where):
    # refused before the scan: no traceback and no certificate written
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    dots = blocker if where == "a-file" else blocker / "dots"
    out = tmp_path / "cert.json"
    rc = main(["search", "--fixture", "spec-k4-n2", "--out", str(out), "--dot-dir", str(dots)])
    assert rc == 3
    assert not out.exists()
    assert blocker.read_text() == "not a directory\n"
    err = capsys.readouterr().err
    assert "not a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("workers", [0, -3])
def test_search_worker_count_below_one_exits_three(tmp_path, capsys, workers):
    out = tmp_path / "cert.json"
    rc = main(["search", "--fixture", "spec-k4-n2", "--workers", str(workers), "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--workers" in err and "Traceback" not in err


def test_search_accepts_and_ignores_workers(tmp_path, capsys):
    # the scan runs in one process: --workers still parses but changes no
    # byte of the certificate, and search --help does not list it
    certs = []
    for workers in ("1", "2"):
        out = tmp_path / f"cert-{workers}.json"
        assert main(["search", "--fixture", "spec-k4-n2", "--workers", workers, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        cert.pop("timing")
        certs.append(pio.dumps(cert))
    assert certs[0] == certs[1]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "--workers" not in capsys.readouterr().out


@pytest.mark.parametrize("name", ["../fixtures/two_faces", "no_such_fixture"])
def test_a_fixture_name_that_is_not_a_bundled_plain_name_exits_3(tmp_path, name, capsys):
    # ../fixtures/two_faces resolves to a bundled file, but only a plain
    # name picks a fixture
    out = tmp_path / "report.json"
    assert main(["analyze", "--fixture", name, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"unknown fixture {name!r}; known: crowded_face," in err and "Traceback" not in err


def test_trapezium_face_quotient_failure_is_handled(tmp_path, capsys):
    # a black triangle with a corner joined to no 0-vertex has no quotient:
    # analyze reports a null census, quotient rejects the input
    out = tmp_path / "analyze.json"
    assert main(["analyze", "--fixture", "trapezium_face", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["quotient_census"] is None
    assert main(["quotient", "--fixture", "trapezium_face", "--out", str(tmp_path / "q.json")]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "joined to no 0-vertex" in captured.err


@pytest.mark.parametrize(
    "spec",
    [
        {},
        {"mode": "covers"},
        {"mode": "fragments"},
        {"mode": "covers", "base": "k4", "n": "x"},
        [1, 2],
        {"mode": "covers", "base": "k4", "n": 2, "dedup": "x"},
        {"mode": "fragments", "h_max": 0},
        {"mode": "fragments", "h_max": -3},
        {"mode": "covers", "base": "k4", "n": 2, "filters": ["connected"]},
        {
            "mode": "covers", "base": "k4", "n": 2,
            "filters": ["connected", "planar", "admissible", "exclusions"],
        },
        {"mode": "covers", "base": "k4", "n": 2, "dedup": False},
        {"mode": "covers", "base": "k5", "n": 2},
    ],
    ids=[
        "empty",
        "covers-without-base",
        "fragments-without-h-max",
        "n-not-an-integer",
        "not-an-object",
        "dedup-not-a-bool",
        "h-max-zero",
        "h-max-negative",
        "filters-connected-only",
        "filters-structural",
        "dedup-false",
        "unknown-base",
    ],
)
def test_search_malformed_spec_exits_three(tmp_path, capsys, spec):
    rc = main(["search", _write(tmp_path, "spec.json", spec)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error: " in err and "Traceback" not in err
    assert "scanning" not in err  # refused before the scan's progress line
    # a covers spec may restate the fixed fields only with their one value
    for field in ("filters", "dedup"):
        if isinstance(spec, dict) and field in spec:
            assert f"field {field!r}" in err


def test_search_spec_without_fixed_fields_matches_the_bundled_spec(tmp_path):
    # the bundled spec-k4-n2 restates "filters" and "dedup"; leaving them
    # out gives the same certificate bytes
    bare = _write(tmp_path, "spec.json", {"mode": "covers", "base": "k4", "n": 2, "budget": 10**9})
    certs = []
    for source in ([bare], ["--fixture", "spec-k4-n2"]):
        out = tmp_path / "cert.json"
        assert main(["search", *source, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        cert.pop("timing")
        certs.append(pio.dumps(cert))
    assert certs[0] == certs[1]


def test_one_vertex_graph_is_refused_for_want_of_an_edge(tmp_path, capsys):
    # face tracing starts from darts, so an edgeless graph has no face
    g = _write(tmp_path, "g.json", pio.graph_to_obj(LabeledGraph((0,), ())))
    assert main(["embed", g]) == 3
    assert "error: an embedding needs at least one edge" in capsys.readouterr().err
    sc = {"base": "k4", "embedding": {"vertices": [{"id": 0, "label": 0}], "edges": [], "rotation": [[]]}}
    assert main(["analyze", _write(tmp_path, "sc.json", sc)]) == 3
    assert "error: an embedding needs at least one edge" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "quotient"])
def test_a_disconnected_semicover_is_refused_by_name(tmp_path, capsys, command):
    # two disjoint (0, -1, -2) triangles: V - E + F = 6 - 6 + 4 on their
    # plane rotations, which is no genus but a second component
    labels = (0, -1, -2, 0, -1, -2)
    emb = {
        "vertices": [{"id": v, "label": x} for v, x in enumerate(labels)],
        "edges": [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]],
        "rotation": [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]],
    }
    rc = main([command, _write(tmp_path, "sc.json", {"base": "k4", "embedding": emb})])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: an embedding needs a connected graph: V=6 E=6 F=4\n"


def test_embed_malformed_edge_exits_three(tmp_path, capsys):
    obj = fx.load_fixture_obj("k4-double.graph")
    obj["edges"].append([0])
    rc = main(["embed", _write(tmp_path, "g.json", obj)])
    assert rc == 3
    assert "input error: " in capsys.readouterr().err


def test_analyze_short_rotation_exits_three(tmp_path, capsys):
    obj = fx.load_fixture_obj("two_faces")
    obj["embedding"]["rotation"].pop()
    rc = main(["analyze", _write(tmp_path, "sc.json", obj)])
    assert rc == 3
    assert "rotation has" in capsys.readouterr().err


def test_lift_non_integer_label_exits_three(capsys):
    rc = main(["lift", "--fixture", "k4-double", "--base", "k4", "--labels", "0,x"])
    assert rc == 3
    assert "--labels" in capsys.readouterr().err


def _two_faces_with(**embedding):
    obj = fx.load_fixture_obj("two_faces")
    obj["embedding"].update(embedding)
    return obj


def _two_faces_with_first_label(label):
    obj = fx.load_fixture_obj("two_faces")
    obj["embedding"]["vertices"][0]["label"] = label
    return obj


def _rotation_with_first_entry(entry):
    rotation = fx.load_fixture_obj("two_faces")["embedding"]["rotation"]
    rotation[0][0] = entry
    return _two_faces_with(rotation=rotation)


def _k4_double_cover_with(*edges):
    return {"base": "k4", "n": 2, "edges": list(edges)}


def _k4_with_bool_ids():
    """K4 with vertex ids 0 and 1 written as false and true."""
    obj = pio.graph_to_obj(make_base("k4").graph)
    for v, b in zip(obj["vertices"], (False, True)):
        v["id"] = b
    return obj


def _necklace_with_map(kind=int, drop=0):
    """The necklace4 fixture with its label projection as an explicit
    vertex map, its entries of the given type, the last ``drop`` left out."""
    obj = fx.load_fixture_obj("necklace4")
    label_to_vertex = make_base("k4").label_to_vertex
    vmap = [kind(label_to_vertex[v["label"]]) for v in obj["embedding"]["vertices"]]
    obj["vertex_map"] = vmap[: len(vmap) - drop]
    return obj


@pytest.mark.parametrize(
    "command, obj",
    [
        ("analyze", _two_faces_with(outer_face="x")),
        ("analyze", _rotation_with_first_entry(99)),
        ("analyze", _rotation_with_first_entry("a")),
        ("analyze", [1, 2]),
        ("quotient", [1, 2]),
        ("derive", {"base": "k4", "n": "x", "edges": []}),
        ("search", {"mode": "covers", "base": "k4", "n": 2, "filters": 5}),
        ("analyze", _two_faces_with_first_label([])),
        ("analyze", _two_faces_with_first_label({})),
        ("quotient", _two_faces_with_first_label([])),
        ("quotient", _two_faces_with_first_label({})),
        ("derive", _k4_double_cover_with({"from": 3, "to": 0, "perm": [1, 0]})),
        ("derive", _k4_double_cover_with({"from": 0, "to": 9, "perm": [1, 0]})),
        ("derive", _k4_double_cover_with(
            {"from": 1, "to": 2, "perm": [1, 0]}, {"from": 1, "to": 2, "perm": [0, 1]}
        )),
        ("derive", {"base": "k4", "n": 2.5, "edges": []}),
        ("derive", {"base": "k4", "n": True, "edges": []}),
        ("derive", {"base": "k4", "n": "2", "edges": []}),
        ("derive", _k4_double_cover_with({"from": 0, "to": 1, "perm": [1.0, 0.0]})),
        ("derive", _k4_double_cover_with({"from": True, "to": 2, "perm": [1, 0]})),
        ("embed", _k4_with_bool_ids()),
        ("analyze", _necklace_with_map(kind=float)),
        ("analyze", _necklace_with_map(drop=1)),
    ],
    ids=[
        "analyze-outer-face-not-an-integer",
        "analyze-rotation-edge-out-of-range",
        "analyze-rotation-entry-not-an-integer",
        "analyze-not-an-object",
        "quotient-not-an-object",
        "derive-n-not-an-integer",
        "search-filters-not-a-list",
        "analyze-label-a-list",
        "analyze-label-an-object",
        "quotient-label-a-list",
        "quotient-label-an-object",
        "derive-edge-against-the-base-orientation",
        "derive-edge-not-in-the-base",
        "derive-edge-given-twice",
        "derive-n-a-float",
        "derive-n-a-bool",
        "derive-n-a-string",
        "derive-perm-of-floats",
        "derive-edge-end-a-bool",
        "embed-vertex-ids-bools",
        "analyze-map-of-floats",
        "analyze-map-too-short",
    ],
)
def test_malformed_input_exits_three(tmp_path, capsys, command, obj):
    rc = main([command, _write(tmp_path, "input.json", obj)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error: " in err and "Traceback" not in err


def test_analyze_accepts_an_explicit_vertex_map(tmp_path, capsys):
    # the map the malformed cases above spoil is itself accepted
    assert main(["analyze", _write(tmp_path, "sc.json", _necklace_with_map())]) == 0


@pytest.mark.parametrize("command", ["analyze", "quotient"])
def test_vertex_map_other_than_the_labels_exits_three(tmp_path, capsys, command):
    # two_faces with the labels of a -1 and a -2 vertex swapped, and its
    # true projection restated as the vertex map: the labels no longer
    # give a semi-cover, and a file is read under its labels alone
    obj = fx.load_fixture_obj("two_faces")
    verts = obj["embedding"]["vertices"]
    label_to_vertex = make_base(obj["base"]).label_to_vertex
    obj["vertex_map"] = [label_to_vertex[v["label"]] for v in verts]
    a = next(v for v in verts if v["label"] == -1)
    b = next(v for v in verts if v["label"] == -2)
    a["label"], b["label"] = -2, -1
    rc = main([command, _write(tmp_path, "sc.json", obj)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "vertex_map" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, vertex_map",
    [
        ("verify", [0.0, 1.0, 2.0, 3.0]),
        ("verify", [False, True, 2, 3]),
        ("lift", [0, 1, 2]),
        ("lift", [0.0, 1.0, 2.0, 3.0]),
        ("lift", [0, 1, 2, 99]),
        ("lift", [0, 1, 2, -1]),
        ("lift", [0, 1, 1, 2]),
    ],
    ids=[
        "verify-map-of-floats",
        "verify-map-with-bools",
        "lift-map-too-short",
        "lift-map-of-floats",
        "lift-map-off-the-base",
        "lift-map-negative",
        "lift-map-not-a-projection",
    ],
)
def test_malformed_vertex_map_exits_three(tmp_path, capsys, command, vertex_map):
    # K4 as a one-fold cover of itself, with a map that is not a list of
    # base vertex ids, one per vertex
    g = _write(tmp_path, "g.json", pio.graph_to_obj(make_base("k4").graph))
    m = _write(tmp_path, "m.json", {"vertex_map": vertex_map})
    assert main(["verify", g, _write(tmp_path, "ok.json", {"vertex_map": [0, 1, 2, 3]}), "--base", "k4"]) == 0
    rc = main([command, g, m, "--base", "k4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error: " in err and "Traceback" not in err


def test_lift_of_a_broken_map_exits_three(tmp_path, capsys):
    # a map onto the base that fails the neighbour condition: verify
    # reports it (exit 1), and lift refuses it as input
    g = _write(tmp_path, "g.json", fx.load_fixture_obj("k4-double.graph"))
    m = _write(tmp_path, "m.json", fx.load_fixture_obj("k4-double.broken-map"))
    assert main(["verify", g, m, "--base", "k4"]) == 1
    assert main(["lift", g, m, "--base", "k4"]) == 3
    err = capsys.readouterr().err
    assert "input error: not a cover" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "12"],
        ["derive", "VOLTAGE"],
        ["lift", "--fixture", "k4-double", "--base", "k4"],
        ["embed", "--fixture", "k4-double"],
        ["analyze", "--fixture", "necklace4"],
        ["quotient", "--fixture", "nine_face_pair"],
        ["export-dot", "--fixture", "k4-double"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_three(tmp_path, capsys, argv):
    # an --out path under a missing directory is an input error, not a
    # traceback, and leaves nothing behind; derive reads a written voltage
    volt = _write(tmp_path, "volt.json", K4_DOUBLE_VOLTAGE)
    argv = [volt if a == "VOLTAGE" else a for a in argv]
    out = tmp_path / "missing" / "result.json"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "input error: output path not writable" in err and "Traceback" not in err
    assert not out.parent.exists()


def test_search_rejected_spec_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    for spec, code in [
        ({"mode": "covers"}, 3),  # malformed
        ({"mode": "covers", "base": "k1222", "n": 4}, 2),  # over budget
        ({"mode": "fragments", "h_max": 9}, 3),  # beyond the fragment folds
    ]:
        rc = main(["search", _write(tmp_path, "spec.json", spec), "--out", str(out)])
        assert rc == code
        assert not out.exists()


def test_search_refusal_keeps_an_existing_output_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    out.write_text("kept", encoding="utf-8")
    spec = {"mode": "covers", "base": "k1222", "n": 4}
    assert main(["search", _write(tmp_path, "spec.json", spec), "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "kept"


def test_search_huge_fold_is_a_budget_refusal(tmp_path, capsys):
    # (99!)^3 assignments: far beyond any float
    spec = _write(tmp_path, "spec.json", {"mode": "covers", "base": "k4", "n": 99})
    rc = main(["search", spec])
    err = capsys.readouterr().err
    assert rc == 2
    assert "budget refused" in err and "e+467" in err and "Traceback" not in err


#: Exit code and sha256 of the JSON that ``analyze`` and ``quotient`` write
#: for each semi-cover fixture the structure benchmark feeds them (None:
#: the command rejects the input with exit 3 and writes nothing).  The
#: format-3 certificate digests in test_orbit_scan.py pin ``search``.
ANALYZE_QUOTIENT_DIGESTS = {
    ("necklace4", "analyze"): (0, "f57346905c0eb25e73034e1d8a1eccdedb8cffa5ba8f193d3ce97e862098125e"),
    ("necklace4", "quotient"): (3, None),
    ("necklace3", "analyze"): (0, "12adc948b44a97f45574f27bfac6b9100b60d76b6c536f63a84c72d6eee6e644"),
    ("necklace3", "quotient"): (3, None),
    ("two_faces", "analyze"): (0, "8a68b83be1a17687592b71df94a22a3bcbee7a53a72897a05076cec3d581bd31"),
    ("two_faces", "quotient"): (0, "e96736f731734a2bcbf5ac7cb4e8affc3e7cd6b34f80fe2a836cf3b67855153f"),
    ("nine_face_pair", "analyze"): (0, "17f8c5da00ac326acbf960420c1f1fc78770d2c9960ee0f66751fd15490d2b03"),
    ("nine_face_pair", "quotient"): (0, "0d9ae82938cb44004ff2a2d09fd274b79a9be494d8c1ced68f4199a9205f73da"),
    ("fold_six_fragment", "analyze"): (0, "14f951c53ed59c3f263a3fff1f10e79636ddc71d0f185b4f7f2c01b65a68a60c"),
    ("fold_six_fragment", "quotient"): (0, "9ee7f86c32464545bac4aad28387ec1589226fcb61f34217dfbe54948759fe4e"),
    ("hexagon_cover", "analyze"): (0, "205204be9fbf5879b3062ed5b9af4fde5ebaff45abc74c72d186ecae3e9d61ee"),
    ("hexagon_cover", "quotient"): (3, None),
    ("single_bead", "analyze"): (3, None),
    ("single_bead", "quotient"): (3, None),
    ("hub_violation", "analyze"): (1, "792c5f53c9e9b648f87b05b829f20fc035cd33335144eecb7a1d9f498d366938"),
    ("hub_violation", "quotient"): (3, None),
    ("two_trapezia", "analyze"): (1, "e153dedc46489150f1f6b5a64a7572ac6251356ca0f46fafa993e2b409957dd7"),
    ("two_trapezia", "quotient"): (0, "e96736f731734a2bcbf5ac7cb4e8affc3e7cd6b34f80fe2a836cf3b67855153f"),
    ("crowded_face", "analyze"): (1, "c2532cb98d3e59a0a37dab61cf6e3471be3708b723876c22cd79ce7005588446"),
    ("crowded_face", "quotient"): (0, "8a0005d0d17fe06871975e827d5f7a90911b5e5a4c42649c4b9b02253da977d0"),
    ("support_case1", "analyze"): (1, "dc6a232b95e7e281d56710e90018216fba8448bf86eb5552bf4a185715a08b9e"),
    ("support_case1", "quotient"): (3, None),
    ("support_case2", "analyze"): (1, "43f7f241d26c5423c5140f385603bff2af60916a7577d68150801bb0ef0ea108"),
    ("support_case2", "quotient"): (3, None),
    ("support_case3", "analyze"): (1, "43f7f241d26c5423c5140f385603bff2af60916a7577d68150801bb0ef0ea108"),
    ("support_case3", "quotient"): (3, None),
}


def test_analyze_and_quotient_output_digests(tmp_path, capsys):
    got = {}
    for name, cmd in ANALYZE_QUOTIENT_DIGESTS:
        out = tmp_path / f"{name}.{cmd}.json"
        rc = main([cmd, "--fixture", name, "--out", str(out)])
        got[name, cmd] = (rc, hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None)
    capsys.readouterr()
    assert got == ANALYZE_QUOTIENT_DIGESTS


def test_derive_output_digest(tmp_path, capsys):
    vp = _write(tmp_path, "volt.json", K4_DOUBLE_VOLTAGE)
    out = tmp_path / "derived.json"
    assert main(["derive", vp, "--out", str(out)]) == 0
    capsys.readouterr()
    assert "canonical" not in json.loads(out.read_text())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6be13e8321bd23e010baa482223a5d964c70aa75acabdff00ed5a395431b12d5"
    )
