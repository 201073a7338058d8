"""Command-line entry point.

Subcommands: verify, derive, lift, embed, analyze, quotient, search,
bounds, export-dot.  Exit codes: 0 success or valid, 1 predicate failure,
2 budget refusal, 3 input error.  All outputs are deterministic; the only
run-dependent data (wall clock) lives in the "timing" sidecar field of
certificates.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import fixtures as fx
from . import io as pio
from .bounds import BoundsError, fold_verdict
from .covers import (
    CoverError,
    derive,
    lift_subgraph,
    normalized_assignment,
    verify_cover,
    verify_semicover,
)
from .embedding import EmbeddingError, PlaneEmbedding, planarity
from .graphs import GraphError, make_base
from .search import (
    BudgetExceeded,
    SearchError,
    SearchSpec,
    enumerate_covers,
    min_beads,
    search_k4_fragments,
    spec_int,
)
from .structure import (
    QuotientError,
    StructureError,
    admissibility_report,
    quotient_graph,
    refine_faces,
)

EXIT_OK = 0
EXIT_PREDICATE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


def _load_json(path: str | None, fixture: str | None, fixture_suffix: str = ""):
    if fixture is not None:
        try:
            return fx.load_fixture_obj(fixture + fixture_suffix)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    if path is None:
        raise InputError("an input path or --fixture is required")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _write_out(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"output path not writable: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Fail early on an output path that cannot be written; a file the
    probe creates is removed again, so a refused search leaves none."""
    if not path:
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise InputError(f"output path not writable: {exc}") from exc
    if not existed:
        os.remove(path)


def _check_directory(path: str | None) -> None:
    """Fail early on an output directory that is, or lies under, an
    existing file; nothing is created until the output is written."""
    if not path:
        return
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise InputError(f"output directory not usable: {probe} is not a directory")


def _load_cover(args):
    """The graph, base and vertex map the command names, and their cover verdict."""
    g = pio.graph_from_obj(_load_json(args.graph, args.fixture, ".graph"))
    vmap = pio.vertex_map_from_obj(_load_json(args.map, args.fixture, ".map"))
    base = make_base(args.base)
    return g, base, vmap, verify_cover(g, base, vmap)


def cmd_verify(args) -> int:
    *_, verdict = _load_cover(args)
    if verdict.ok:
        if verdict.fold is not None:
            print(f"valid cover of {args.base}: fold {verdict.fold}")
        else:
            print(
                f"valid cover of {args.base} on each component: folds "
                f"{list(verdict.per_component_folds)}"
            )
        return EXIT_OK
    print(f"not a cover: {verdict.violation}")
    return EXIT_PREDICATE


def cmd_derive(args) -> int:
    vobj = _load_json(args.voltage, args.fixture)
    va = pio.voltage_from_obj(vobj)
    g, vmap = derive(va)
    verdict = verify_cover(g, va.base, vmap)
    out = {
        "voltage": vobj,
        "graph": pio.graph_to_obj(g),
        "vertex_map": list(vmap),
        "fold": verdict.fold,
        "per_component_folds": list(verdict.per_component_folds),
        "valid": verdict.ok,
    }
    _write_out(args, pio.dumps(out))
    print(f"derived {g.n} vertices, {g.m} edges; verification: {verdict.ok}", file=sys.stderr)
    return EXIT_OK if verdict.ok else EXIT_PREDICATE


def cmd_lift(args) -> int:
    try:
        labels = [int(x) for x in args.labels.split(",")]
    except ValueError as exc:
        raise InputError(f"--labels must be comma-separated integers: {args.labels!r}") from exc
    g, base, vmap, verdict = _load_cover(args)
    if not verdict.ok:
        raise InputError(f"not a cover: {verdict.violation}")
    lifted, _ = lift_subgraph(g, base, vmap, labels)
    _write_out(args, pio.dumps(pio.graph_to_obj(lifted)))
    print(f"lift has {lifted.n} vertices, {lifted.m} edges", file=sys.stderr)
    return EXIT_OK


def cmd_embed(args) -> int:
    gobj = _load_json(args.graph, args.fixture, ".graph")
    g = pio.graph_from_obj(gobj)
    result = planarity(g)
    if isinstance(result, PlaneEmbedding):
        _write_out(args, pio.dumps(pio.embedding_to_obj(result)))
        print(f"planar: {len(result.faces)} faces", file=sys.stderr)
        return EXIT_OK
    witness = {
        "non_planar": True,
        "witness_kind": result.kind,
        "witness_edges": [list(e) for e in result.edges],
        "branch_vertices": list(result.branch_vertices),
    }
    _write_out(args, pio.dumps(witness))
    print(f"non-planar: contains a {result.kind} subdivision", file=sys.stderr)
    return EXIT_PREDICATE


def cmd_analyze(args) -> int:
    obj = _load_json(args.semicover, args.fixture)
    sc = pio.semicover_from_obj(obj)
    verdict = verify_semicover(sc)
    report = admissibility_report(sc)
    out = pio.report_to_obj(report)
    out["semicover_valid"] = verdict.ok
    if verdict.violation is not None:
        out["semicover_violation"] = str(verdict.violation)
    try:
        q, _ = quotient_graph(report.h_embedding, report.beads)
        out["quotient_census"] = pio.census_to_obj(q.census)
    except (QuotientError, StructureError):
        out["quotient_census"] = None
    _write_out(args, pio.dumps(out))
    failed = [k for k, v in report.conditions.items() if v is False]
    print(
        f"semicover valid: {verdict.ok}; conditions failed: {failed or 'none'}; "
        f"exclusions: {out['exclusions']['reasons'] or 'none'}"
    )
    if not verdict.ok:
        print(f"invalid semi-cover: {verdict.violation}")
        return EXIT_PREDICATE
    return EXIT_OK


def cmd_quotient(args) -> int:
    obj = _load_json(args.semicover, args.fixture)
    sc = pio.semicover_from_obj(obj)
    ref = refine_faces(sc)
    q, _ = quotient_graph(ref.h_embedding)
    _write_out(args, pio.dumps(pio.quotient_to_obj(q)))
    mb = min_beads(q)
    print(
        f"quotient: a={q.a}, census {q.census}, beads {q.total_beads}, "
        f"minimum demand {mb.total}"
    )
    return EXIT_OK


def _fold_records(cert) -> list:
    """(base kind, fold, fold record) for each fold of a certificate; a
    covers certificate is itself the record of its one fold."""
    if "folds" in cert:
        return [("k4", f["fold"], f) for f in cert["folds"]]
    return [(cert["spec"]["base"], cert["spec"]["n"], cert)]


def _dump_survivor_dots(args, folds) -> None:
    if not args.dot_dir:
        return
    os.makedirs(args.dot_dir, exist_ok=True)
    for kind, n, record in folds:
        base = make_base(kind)
        for index, volt in enumerate(record["survivors"]):
            g, _ = derive(normalized_assignment(base, n, [tuple(p) for p in volt]))
            path = os.path.join(args.dot_dir, f"survivor-{n}-{index}.dot")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(pio.graph_to_dot(g))


def cmd_search(args) -> int:
    obj = _load_json(args.spec, args.fixture)
    budget = spec_int(obj, "budget", 10**9)  # also rejects a spec that is not an object
    if args.budget is not None:
        budget = args.budget
    mode = obj.get("mode", "covers")
    if mode == "covers":
        spec = SearchSpec.from_obj(obj, budget)
    elif mode == "fragments":
        h_max = spec_int(obj, "h_max")
    else:
        raise InputError(f"unknown search mode {mode!r}")
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1, not {args.workers}")
    _check_writable(args.out)
    _check_directory(args.dot_dir)
    if mode == "covers":
        print(f"scanning base {spec.base} at fold {spec.n} ...", file=sys.stderr)
        cert = enumerate_covers(spec)
    else:
        cert = search_k4_fragments(
            h_max, budget=budget, progress=lambda msg: print(msg, file=sys.stderr)
        )
    _write_out(args, pio.dumps(cert))
    folds = _fold_records(cert)
    _dump_survivor_dots(args, folds)
    print("; ".join(
        f"fold {n}: {record['visited']} visited, {len(record['survivors'])} survivors"
        for _, n, record in folds
    ))
    return EXIT_OK


def cmd_bounds(args) -> int:
    verdict = fold_verdict(args.n)
    _write_out(args, pio.dumps(verdict.to_obj()))
    print("contradiction" if verdict.contradiction else "no contradiction")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    gobj = _load_json(args.graph, args.fixture, ".graph")
    _write_out(args, pio.graph_to_dot(pio.graph_from_obj(gobj)))
    return EXIT_OK


@functools.cache  # parse_args reads the parser and returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="planecover",
        description="Verify, analyze and exhaustively search planar covers of K(1,2,2,2).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--fixture", help="use a bundled fixture instead of an input path")
        if out:
            sp.add_argument("--out", help="write the JSON result to this path")

    sp = sub.add_parser("verify", help="check a claimed cover projection")
    sp.add_argument("graph", nargs="?")
    sp.add_argument("map", nargs="?")
    sp.add_argument("--base", default="k1222", choices=["k1222", "k4"])
    common(sp, out=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("derive", help="build the cover generated by a voltage assignment")
    sp.add_argument("voltage", nargs="?")
    common(sp)
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("lift", help="preimage of a base subgraph under a cover")
    sp.add_argument("graph", nargs="?")
    sp.add_argument("map", nargs="?")
    sp.add_argument("--base", default="k1222", choices=["k1222", "k4"])
    sp.add_argument("--labels", default="0,-1,-2,-3", help="base vertex labels to lift")
    common(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("embed", help="planarity test with embedding or witness")
    sp.add_argument("graph", nargs="?")
    common(sp)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("analyze", help="admissibility and exclusion report of a semi-cover")
    sp.add_argument("semicover", nargs="?")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("quotient", help="contract a fragment to its cubic bipartite quotient")
    sp.add_argument("semicover", nargs="?")
    common(sp)
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("search", help="run an exhaustive search from a spec file")
    sp.add_argument("spec", nargs="?")
    sp.add_argument("--budget", type=int, default=None)
    # accepted and ignored until ROADMAP item 1a drops it from the benchmark
    sp.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    sp.add_argument("--dot-dir", default=None, help="write one DOT file per survivor here")
    common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("bounds", help="fold exclusion verdict with its numeric trace")
    sp.add_argument("n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("export-dot", help="DOT rendering with label-derived colors")
    sp.add_argument("graph", nargs="?")
    common(sp)
    sp.set_defaults(func=cmd_export_dot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, pio.FormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphError, EmbeddingError, CoverError, StructureError, QuotientError, BoundsError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
