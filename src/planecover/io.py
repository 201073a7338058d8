"""JSON and DOT serialization.

Graph JSON and the round-trip guarantee: dumping is canonical (sorted
keys, fixed separators), so load followed by dump reproduces the bytes of
any canonically-dumped file.
"""

from __future__ import annotations

import json
from typing import Any

from .covers import SemiCover, VoltageAssignment
from .embedding import PlaneEmbedding
from .graphs import GraphError, LabeledGraph, make_base

#: The largest fold a voltage file may give: reading builds the n-sheet
#: identity at once, and 10**5 sheets give at most 700,000 derived vertices.
MAX_FOLD = 10**5


class FormatError(ValueError):
    """Input file does not match the expected schema."""


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def graph_to_obj(g: LabeledGraph) -> dict:
    return {
        "vertices": [{"id": v, "label": g.labels[v]} for v in range(g.n)],
        "edges": [[u, v] for u, v in g.edges],
    }


def graph_from_obj(obj: dict) -> LabeledGraph:
    try:
        verts = obj["vertices"]
        ids = [v["id"] for v in verts]
        if not all(type(x) is int for x in ids) or sorted(ids) != list(range(len(ids))):
            raise FormatError("vertex ids must be the integers 0..n-1")
        labels = [0] * len(ids)
        for v in verts:
            labels[v["id"]] = v["label"]
        if not all(type(x) is int for x in labels):
            raise FormatError("every vertex label must be an integer")
        edges = [tuple(e) for e in obj["edges"]]
        if not all(len(e) == 2 and all(type(x) is int for x in e) for e in edges):
            raise FormatError("every edge must be a pair of integer vertex ids")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad graph object: {exc}") from exc
    return LabeledGraph(tuple(labels), tuple(edges))


def embedding_to_obj(emb: PlaneEmbedding) -> dict:
    obj = graph_to_obj(emb.graph)
    obj["rotation"] = [list(r) for r in emb.rotation]
    obj["outer_face"] = emb.outer_face
    obj["faces"] = [
        {"vertices": list(f.vertices), "labels": list(f.labels)} for f in emb.faces
    ]
    return obj


def embedding_from_obj(obj: dict) -> PlaneEmbedding:
    g = graph_from_obj(obj)
    try:
        rotation = [tuple(r) for r in obj["rotation"]]
        outer = obj.get("outer_face", None)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad embedding object: {exc}") from exc
    if not all(type(e) is int and 0 <= e < g.m for r in rotation for e in r):
        raise FormatError("every rotation entry must be an edge id 0..m-1")
    if outer is not None and type(outer) is not int:
        raise FormatError(f"outer_face must be an integer face id, not {outer!r}")
    return PlaneEmbedding(g, tuple(rotation), outer or 0)


def semicover_to_obj(sc: SemiCover) -> dict:
    return {"base": sc.base.kind, "embedding": embedding_to_obj(sc.embedding)}


def semicover_from_obj(obj: dict) -> SemiCover:
    """Semi-cover from JSON.  Its projection is its vertex labels; a
    ``vertex_map`` given beside them must restate that projection."""
    try:
        base = make_base(obj["base"])
        emb = embedding_from_obj(obj["embedding"])
    except (KeyError, TypeError, GraphError) as exc:
        raise FormatError(f"bad semicover object: {exc}") from exc
    sc = SemiCover(emb, base)
    if "vertex_map" in obj and vertex_map_from_obj(obj) != sc.projection:
        raise FormatError("vertex_map differs from the projection the vertex labels give")
    return sc


def voltage_from_obj(obj: dict) -> VoltageAssignment:
    """Voltage assignment from JSON: each entry names a base edge, lower id
    first, at most once; the edges left out carry the identity."""
    try:
        base = make_base(obj["base"])
        n = obj["n"]
        if type(n) is not int or n > MAX_FOLD:
            raise ValueError(f"fold 'n' must be an integer up to {MAX_FOLD}, not {n!r}")
        perms = dict.fromkeys(base.graph.edges, tuple(range(n)))
        given = {}
        for e in obj["edges"]:
            edge = (e["from"], e["to"])
            if not all(type(x) is int for x in edge) or edge not in perms:
                raise ValueError(f"{list(edge)} is not a base edge from the lower to the higher id")
            if edge in given:
                raise ValueError(f"edge {list(edge)} is given twice")
            perm = e["perm"]
            if not (isinstance(perm, list) and all(type(x) is int for x in perm)):
                raise ValueError(f"perm of edge {list(edge)} must be a list of integers, not {perm!r}")
            given[edge] = tuple(perm)
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise FormatError(f"bad voltage object: {exc}") from exc
    perms.update(given)
    return VoltageAssignment(base, n, tuple(perms.values()))


def vertex_map_to_obj(vmap) -> dict:
    return {"vertex_map": list(vmap)}


def vertex_map_from_obj(obj: dict) -> tuple[int, ...]:
    try:
        vmap = obj["vertex_map"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad vertex map object: {exc}") from exc
    if not (isinstance(vmap, list) and all(type(x) is int for x in vmap)):
        raise FormatError(f"vertex_map must be a list of integer base vertex ids, not {vmap!r}")
    return tuple(vmap)


_LABEL_COLORS = {
    0: "black",
    1: "red",
    -1: "salmon",
    2: "blue",
    -2: "lightblue",
    3: "darkgreen",
    -3: "palegreen",
}


def graph_to_dot(g: LabeledGraph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        color = _LABEL_COLORS.get(g.labels[v], "gray")
        lines.append(
            f'  v{v} [label="{g.labels[v]}" style=filled fillcolor={color} fontcolor=white];'
        )
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def census_to_obj(census: dict) -> dict:
    """A quotient face census {face length: count} as a JSON object, its
    keys the lengths as strings."""
    return {str(k): v for k, v in census.items()}


def quotient_to_obj(q) -> dict:
    return {
        "a": q.a,
        "edges": [list(e) for e in q.edges],
        "rotation": [list(r) for r in q.rotation],
        "outer_face": q.outer_face,
        "census": census_to_obj(q.census),
        "total_beads": q.total_beads,
    }


def report_to_obj(report) -> dict:
    reasons, sharing = report.exclusions
    shape = [r for r in reasons if r != "no_internal_hexagon"]  # that one is condition (h)
    return {
        "faces": [
            {
                "face_id": f.face_id,
                "length": f.length,
                "labels": list(f.labels),
                "internal": f.internal,
                "pattern": f.pattern.kind,
                "pattern_m": f.pattern.m,
                "triangles": f.triangles,
                "beads": list(f.beads),
            }
            for f in report.faces
        ],
        "beads": [
            {"zero": b.zero, "inner": list(b.inner), "kvert": b.kvert, "type": b.type_label}
            for b in report.beads
        ],
        "strings": [
            {
                "type": s.type_label,
                "beads": len(s.beads),
                "neg_terminal": list(s.neg_terminal),
                "zero_terminal": list(s.zero_terminal),
            }
            for s in report.strings
        ],
        "necklace": report.necklace,
        "conditions": dict(report.conditions),
        "outer_face": report.h_embedding.outer_face,
        "exclusions": {
            "necklace": "necklace" in shape,
            "two_internal_faces": "two_internal_faces" in shape,
            "bead_sharing": [list(x) for x in sharing],
            "excluded": bool(shape),
            "reasons": shape,
        },
    }
