"""Constructors of the bundled fixture corpus.

The recurring shapes: bead necklaces, the three-string double-face
fragment, the nine-face pair sharing a bead, the trapezium
configuration, minimal supported-triangle configurations, and the
covers, maps and search specs the command-line tests read.  Each
constructor validates its output before returning it.  The package
ships their frozen JSON goldens; ``tests/test_fixtures.py`` checks that
the goldens match the constructors, and

    PYTHONPATH=src python tests/builders.py regen

rewrites them.  The two-lens quotient ``double_lens`` stays in the
package, which builds it for the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

from planecover import fixtures as fx
from planecover import io as pio
from planecover.covers import SemiCover, derive, label_projection, normalized_assignment, verify_cover
from planecover.embedding import PlaneEmbedding, planarity
from planecover.graphs import K4NEG, LabeledGraph, make_base

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "planecover" / "fixtures"

_K4 = make_base(K4NEG)
_K1222 = make_base("k1222")


def _embed(g: LabeledGraph, outer_length: int | None = None) -> PlaneEmbedding:
    emb = planarity(g)
    if not isinstance(emb, PlaneEmbedding):
        raise AssertionError("fixture graph is unexpectedly non-planar")
    if outer_length is not None:
        candidates = [i for i, f in enumerate(emb.faces) if f.length == outer_length]
        if not candidates:
            raise AssertionError(f"no face of length {outer_length} to pick as outer")
        emb = emb.with_outer_face(candidates[0])
    else:
        nontri = [i for i, f in enumerate(emb.faces) if f.length > 3]
        if nontri:
            emb = emb.with_outer_face(nontri[0])
    return emb


def _assert_census(emb: PlaneEmbedding, expected: dict[int, int]):
    got: dict[int, int] = {}
    for f in emb.faces:
        got[f.length] = got.get(f.length, 0) + 1
    if got != expected:
        raise AssertionError(f"fixture census {got} != expected {expected}")


def _assert_cover(g: LabeledGraph, fold: int):
    verdict = verify_cover(g, _K4, label_projection(g, _K4))
    if not verdict.ok or verdict.fold != fold:
        raise AssertionError(f"fixture is not a {fold}-fold cover: {verdict}")


def necklace(b: int = 4) -> SemiCover:
    """Cyclic chain of b beads: a b-fold cover of K4 with two big faces."""
    labels = []
    edges = []
    for i in range(b):
        p, x, y, k = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        inner = (-1, -2) if i % 2 == 0 else (-2, -1)
        labels += [0, inner[0], inner[1], -3]
        edges += [(p, x), (p, y), (x, y), (x, k), (y, k), (k, (4 * (i + 1)) % (4 * b))]
    g = LabeledGraph(tuple(labels), tuple(edges))
    _assert_cover(g, b)
    emb = _embed(g, outer_length=3 * b)
    _assert_census(emb, {3: 2 * b, 3 * b: 2})
    return SemiCover(emb, _K4)


def _bead_block(labels, edges, zero_label_pair, start):
    """Append one bead; returns (zero id, kvert id)."""
    inner_a, inner_b, kv = zero_label_pair
    p, x, y, k = start, start + 1, start + 2, start + 3
    labels += [0, inner_a, inner_b, kv]
    edges += [(p, x), (p, y), (x, y), (x, k), (y, k)]
    return p, k


def two_faces() -> SemiCover:
    """Three one-bead strings from a shared 0 up to a triangle: the
    fragment with exactly two internal non-triangular faces."""
    labels = [0, -1, -2, -3]  # o, apex -1', -2', -3'
    edges = [(1, 2), (1, 3), (2, 3)]
    pl, kl = _bead_block(labels, edges, (-2, -3, -1), 4)   # string of type -1
    ps, ks = _bead_block(labels, edges, (-1, -2, -3), 8)   # type -3
    pr, kr = _bead_block(labels, edges, (-1, -3, -2), 12)  # type -2
    edges += [(0, kl), (0, ks), (0, kr), (pl, 1), (ps, 3), (pr, 2)]
    g = LabeledGraph(tuple(labels), tuple(edges))
    _assert_cover(g, 4)
    emb = _embed(g, outer_length=9)
    _assert_census(emb, {3: 7, 9: 3})
    return SemiCover(emb, _K4)


def nine_face_pair() -> SemiCover:
    """5-fold cover of K4 whose two 9-faces share one bead.

    Quotient shape: two 0-vertices and two triangles in a four-cycle with
    both vertex pairs doubled; three beads sit on three of the six edges.
    """
    labels = [0, 0, -1, -2, -3, -1, -2, -3]  # z1 z2 A1 A2 A3 B1 B2 B3
    edges = [(2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)]
    p1, k1 = _bead_block(labels, edges, (-2, -3, -1), 8)    # on z1-A1
    p3, k3 = _bead_block(labels, edges, (-2, -3, -1), 12)   # on z2-B1
    p4, k4v = _bead_block(labels, edges, (-1, -3, -2), 16)  # on z2-B2
    edges += [
        (p1, 2), (k1, 0),   # string z1 .. A1
        (0, 3),             # z1 - A2 direct
        (1, 4),             # z2 - A3 direct
        (p3, 5), (k3, 1),   # string z2 .. B1
        (p4, 6), (k4v, 1),  # string z2 .. B2
        (0, 7),             # z1 - B3 direct
    ]
    g = LabeledGraph(tuple(labels), tuple(edges))
    _assert_cover(g, 5)
    emb = _embed(g, outer_length=6)
    _assert_census(emb, {3: 8, 6: 1, 9: 2, 12: 1})
    return SemiCover(emb, _K4)


def hexagon_cover() -> SemiCover:
    """2-fold cover of K4 with a hexagonal face repeating (-1,-2,-3)."""
    labels = [-1, -2, -3, -1, -2, -3, 0, 0]
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 0), (6, 1), (6, 2), (7, 3), (7, 4), (7, 5)]
    g = LabeledGraph(tuple(labels), tuple(edges))
    _assert_cover(g, 2)
    emb = _embed(g, outer_length=6)
    _assert_census(emb, {3: 4, 6: 2})
    return SemiCover(emb, _K4)


def single_bead() -> SemiCover:
    """One bead drawn with every vertex on the outer face."""
    labels = [0, -1, -2, -3]
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    g = LabeledGraph(tuple(labels), tuple(edges))
    emb = _embed(g, outer_length=4)
    _assert_census(emb, {3: 2, 4: 1})
    return SemiCover(emb, _K4)


def hub_violation() -> SemiCover:
    """Interior 0-vertex with two equally-labelled neighbors."""
    labels = [0, -1, -2, -1, -3, -2]
    edges = [(0, v) for v in range(1, 6)]
    edges += [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    g = LabeledGraph(tuple(labels), tuple(edges))
    emb = _embed(g, outer_length=5)
    return SemiCover(emb, _K4)


def trapezium_face() -> SemiCover:
    """Two strings, an apex triangle, and one trapezium of type 2 whose
    triangle sits in the face between the strings."""
    labels = [0, -1, -2, -3]  # o, apex
    edges = [(1, 2), (1, 3), (2, 3)]
    ps, ks = _bead_block(labels, edges, (-1, -2, -3), 4)   # s: type -3, ids 4..7
    pr, kr = _bead_block(labels, edges, (-1, -3, -2), 8)   # r: type -2, ids 8..11
    edges += [(0, ks), (0, kr), (ps, 3), (pr, 2)]
    t1, t2, t3 = 12, 13, 14
    labels += [1, 2, 3]
    ir = 9  # the -1 inner vertex of the r bead
    edges += [(t1, t2), (t1, t3), (t2, t3)]
    edges += [(t1, ks), (t2, ks), (t2, 0), (t2, ir), (t3, ir)]
    g = LabeledGraph(tuple(labels), tuple(edges))
    emb = _embed(g, outer_length=10)
    return SemiCover(emb, _K1222)


def two_trapezia() -> SemiCover:
    """The two-face fragment carrying one trapezium in each internal face."""
    sc = two_faces()
    g = sc.graph
    labels = list(g.labels)
    edges = list(g.edges)
    il3, is1, is2, ks = 6, 9, 10, 11  # -3 inner of l; -1, -2 inners of s; s corner
    u1, u2, u3 = 16, 17, 18
    labels += [1, 2, 3]
    edges += [(u1, u2), (u1, u3), (u2, u3)]
    edges += [(u1, ks), (u2, ks), (u2, 0), (u2, 12 + 1), (u3, 12 + 1)]  # type 2 in F2
    w1, w2, w3 = 19, 20, 21
    labels += [1, 2, 3]
    edges += [(w1, w2), (w1, w3), (w2, w3)]
    edges += [(w2, il3), (w1, il3), (w1, is2), (w3, is2)]  # type 1 in F1
    g2 = LabeledGraph(tuple(labels), tuple(edges))
    return SemiCover(_embed(g2, outer_length=9), _K1222)


def crowded_face() -> SemiCover:
    """The two-face fragment with two (1,2,3) triangles crowded into one
    9-gonal face, violating the triangle capacity bound."""
    sc = two_faces()
    g = sc.graph
    labels = list(g.labels)
    edges = list(g.edges)
    pl, il2, il3, is1 = 4, 5, 6, 9  # l zero, l inners (-2, -3), s inner -1
    a1, a2, a3 = 16, 17, 18
    labels += [1, 2, 3]
    edges += [(a1, a2), (a1, a3), (a2, a3), (a1, 0), (a2, is1), (a3, il2)]
    b1, b2, b3 = 19, 20, 21
    labels += [1, 2, 3]
    edges += [(b1, b2), (b1, b3), (b2, b3), (b1, pl), (b2, is1), (b3, il2)]
    g2 = LabeledGraph(tuple(labels), tuple(edges))
    return SemiCover(_embed(g2, outer_length=9), _K1222)


def support_case(case: int) -> SemiCover:
    """String fragment with one minimal supported triangle in the given
    configuration (1, 2 or 3)."""
    if case not in (1, 2, 3):
        raise ValueError("configuration must be 1, 2 or 3")
    # ids: 0=T(-3 top terminal) 1=Pu 2=mu_off(-2) 3=mu_F(-1) 4=Ku
    #      5=Pl 6=ml_F(-2) 7=ml_off(-1) 8=Kl 9=Z(0 bottom terminal)
    labels = [-3, 0, -2, -1, -3, 0, -2, -1, -3, 0, 1, 2, 3]
    ti, tj, tk = 10, 11, 12
    edges = [
        (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),  # upper bead
        (5, 6), (5, 7), (6, 7), (6, 8), (7, 8),  # lower bead
        (1, 0), (4, 5), (8, 9),                  # chain
        (9, 0),                                  # closure on the off side
        (ti, tj), (ti, tk), (tj, tk),
        (tj, 3), (tk, 3), (tk, 6), (ti, 6), (tk, 5),
    ]
    if case == 1:
        edges += [(tj, 1), (tj, 0), (ti, 0), (ti, 9)]
    elif case == 2:
        edges += [(tj, 1), (tj, 0), (ti, 8), (ti, 9)]
    else:
        edges += [(tj, 9), (tj, 0), (ti, 8), (ti, 9)]
    g = LabeledGraph(tuple(labels), tuple(edges))
    emb = planarity(g)
    if not isinstance(emb, PlaneEmbedding):
        raise AssertionError("support fragment is unexpectedly non-planar")
    # outer: the off-side face (contains both off-side inner vertices)
    outer = next(
        i for i, f in enumerate(emb.faces) if {2, 7} <= f.vertex_set
    )
    return SemiCover(emb.with_outer_face(outer), _K1222)


def fold_six_fragment() -> SemiCover:
    """A 6-fold cover of K4 passing every bare-fragment condition.

    Its quotient is the two-lens shape carrying beads 1, 1, 2 on three
    edges; exactly one embedding and outer-face choice (the bead-bearing
    lens outside) survives the whole filter pipeline, witnessing that the
    fold bound of 6 is tight.
    """
    labels = [0, 0, -1, -2, -3, -1, -2, -3]  # z1 z2 A1 A2 A3 B1 B2 B3
    edges = [(2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)]
    pa, ka = _bead_block(labels, edges, (-1, -3, -2), 8)    # z1 .. A2
    pb, kb = _bead_block(labels, edges, (-2, -3, -1), 12)   # z2 .. B1
    p1, k1 = _bead_block(labels, edges, (-1, -3, -2), 16)   # z2 .. B2, bead 1
    p2, k2 = _bead_block(labels, edges, (-1, -3, -2), 20)   # z2 .. B2, bead 2
    edges += [
        (pa, 3), (ka, 0),
        (0, 2), (0, 7),
        (1, 4),
        (pb, 5), (kb, 1),
        (p1, 6), (k1, p2), (k2, 1),
    ]
    g = LabeledGraph(tuple(labels), tuple(edges))
    _assert_cover(g, 6)
    return SemiCover(_embed(g), _K4)


def semicover_to_obj(sc: SemiCover) -> dict:
    return {"base": sc.base.kind, "embedding": pio.embedding_to_obj(sc.embedding)}


def vertex_map_to_obj(vmap) -> dict:
    return {"vertex_map": list(vmap)}


def _covers_spec(base: str, n: int) -> dict:
    return {
        "mode": "covers",
        "base": base,
        "n": n,
        "filters": ["connected", "planar"],
        "dedup": True,
        "budget": 10**9,
    }


def fixture_objects() -> dict[str, dict]:
    """All bundled fixtures as JSON-ready objects, keyed by name."""
    out: dict[str, dict] = {}
    out["necklace4"] = semicover_to_obj(necklace(4))
    out["necklace3"] = semicover_to_obj(necklace(3))
    out["two_faces"] = semicover_to_obj(two_faces())
    out["nine_face_pair"] = semicover_to_obj(nine_face_pair())
    out["fold_six_fragment"] = semicover_to_obj(fold_six_fragment())
    out["hexagon_cover"] = semicover_to_obj(hexagon_cover())
    out["single_bead"] = semicover_to_obj(single_bead())
    out["hub_violation"] = semicover_to_obj(hub_violation())
    out["trapezium_face"] = semicover_to_obj(trapezium_face())
    out["two_trapezia"] = semicover_to_obj(two_trapezia())
    out["crowded_face"] = semicover_to_obj(crowded_face())
    for c in (1, 2, 3):
        out[f"support_case{c}"] = semicover_to_obj(support_case(c))
    out["double_lens"] = pio.quotient_to_obj(fx.double_lens())

    ident = make_base("k1222").graph
    out["k1222-identity.graph"] = pio.graph_to_obj(ident)
    out["k1222-identity.map"] = vertex_map_to_obj(range(7))
    dbl, vmap = derive(normalized_assignment(_K4, 2, [(1, 0)] * 3))
    out["k4-double.graph"] = pio.graph_to_obj(dbl)
    out["k4-double.map"] = vertex_map_to_obj(vmap)
    out["k4-double.broken-map"] = vertex_map_to_obj(vmap[:-1] + (0,))
    for base, n in (("k1222", 2), ("k4", 1), ("k4", 2)):
        out[f"spec-{base}-n{n}"] = _covers_spec(base, n)
    out["spec-k4-h-le-5"] = {"mode": "fragments", "h_max": 5, "budget": 10**9}
    return out


def regen() -> list[str]:
    """Rewrite the golden fixture files of the source tree from the
    constructors."""
    written = []
    for name, obj in fixture_objects().items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(pio.dumps(obj), encoding="utf-8")
        written.append(str(path))
    return written


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        for p in regen():
            print(p)
    else:
        print("usage: PYTHONPATH=src python tests/builders.py regen", file=sys.stderr)
        sys.exit(2)
