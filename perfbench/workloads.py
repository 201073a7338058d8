"""The benchmark's workloads: timed calls, correctness gate, traced replay.

Each workload drives planecover only through its public entry points.
A workload object offers:

- ``setup()``: what a fresh process pays before the first call (fixture
  and spec loading, base construction); timed in child processes;
- ``prepare(tmp)``: the same set-up in this process, returning state;
- ``run(state)``: the timed calls; returns raw results;
- ``collect(state, raw)``: reads the outputs back, untimed;
- ``check(out)``: the correctness gate, a list of (name, passed) pairs;
- ``tamper(out)``: a copy of the outputs with one number wrong, which
  the gate must reject;
- ``replay(state, tracer, out)``: the same work stage by stage through the
  public layer functions, with spans around each call; returns checks
  that the replay reproduced the reference counts;
- ``probe(state)``: known-defect counts reported by the traced run.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import os
from collections import Counter

from planecover import cli
from planecover import fixtures as fx
from planecover import io as pio
from planecover.bounds import BoundsError, check_face_census_identity, fold_verdict
from planecover.covers import (
    conjugacy_representatives,
    derive,
    is_connected_cover,
    normalized_assignment,
    verify_semicover,
)
from planecover.embedding import is_planar
from planecover.graphs import canonical_form, connectivity, make_base
from planecover.search import analyze_fragment_candidate, enumerate_quotients, min_beads
from planecover.structure import (
    admissibility_report,
    check_exclusions,
    quotient_graph,
    refine_faces,
)

#: Reference scan per fold: (visited, connected, planar, classes, survivors)
#: over conjugacy representatives x all cotree products, as certified by
#: ``search_k4_fragments(5)``.
FOLD_COUNTS = {
    1: (1, 1, 1, 1, 0),
    2: (8, 7, 7, 7, 0),
    3: (108, 94, 71, 28, 0),
    4: (2880, 2598, 1302, 286, 0),
    5: (100800, 92672, 27986, 3000, 0),
}

#: The K1,2,2,2 fold-2 scan: (visited, connected, planar, classes).
K1222_N2_COUNTS = (4096, 4095, 0, 0)

#: Semi-cover fixtures fed to ``planecover analyze`` and ``quotient``, with
#: the exit codes each command returns at seed (0 ok, 1 predicate failed,
#: 3 input rejected by a handled error).
CLI_EXIT_CODES = {
    "necklace4": (0, 3),
    "necklace3": (0, 3),
    "two_faces": (0, 0),
    "nine_face_pair": (0, 0),
    "fold_six_fragment": (0, 0),
    "hexagon_cover": (0, 3),
    "single_bead": (3, 3),
    "hub_violation": (1, 3),
    "two_trapezia": (1, 0),
    "crowded_face": (1, 0),
    "support_case1": (1, 3),
    "support_case2": (1, 3),
    "support_case3": (1, 3),
}

#: Both commands raise an uncaught KeyError in ``structure.quotient_graph``
#: on this fixture.  It is probed apart from the timed calls, so that the
#: workload stays free of failing operations, and its count is reported.
KNOWN_CRASH_FIXTURE = "trapezium_face"

#: Multiset of uncapped ``min_beads`` totals over the 50 (quotient, outer
#: face) pairs of ``enumerate_quotients(4)``: {total: pairs}.
MIN_BEADS_TOTALS = {4: 16, 5: 14, 6: 12, 7: 6, 8: 2}


def _quiet_cli(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _census_ok(census: dict) -> bool:
    try:
        return check_face_census_identity({int(k): v for k, v in census.items()})
    except BoundsError:
        return False


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _scan(tracer, base, n: int):
    """The normalized voltage scan through the public layer functions.

    Returns (visited, connected, planar, classes) with classes mapping
    canonical form -> (least voltage, derived graph).
    """
    perms = tuple(itertools.permutations(range(n)))
    span, count = tracer.span, tracer.count
    visited = connected = planar = 0
    classes: dict[bytes, tuple] = {}
    for first in conjugacy_representatives(n):
        for rest in itertools.product(perms, repeat=len(base.cotree_edges) - 1):
            volt = (first, *rest)
            visited += 1
            with span("covers.normalize"):
                va = normalized_assignment(base, n, volt)
            with span("covers.transitive"):
                ok = is_connected_cover(va)
            if not ok:
                continue
            connected += 1
            with span("covers.derive"):
                g, _ = derive(va)
            with span("embedding.planarity"):
                ok = is_planar(g)
            if not ok:
                continue
            planar += 1
            with span("graphs.canonical"):
                key = canonical_form(g)
            held = classes.get(key)
            if held is None or volt < held[0]:
                classes[key] = (volt, g)
    count("covers.transitive.accepted", connected)
    count("embedding.planarity.accepted", planar)
    count("graphs.canonical.new", len(classes))
    return visited, connected, planar, classes


def _dumps_traced(tracer, cert) -> None:
    """Serialize the certificate; its wall-clock "timing" sidecar is left
    out so that the byte count repeats exactly."""
    content = {k: v for k, v in cert.items() if k != "timing"}
    with tracer.span("io.dumps"):
        text = pio.dumps(content)
    tracer.count("io.cert_bytes", len(text.encode("utf-8")))


class Workload:
    name = ""

    def probe(self, state) -> dict[str, int]:
        return {}


class _Search(Workload):
    """One ``planecover search`` call; state holds its argv and output path."""

    def run(self, state):
        return _quiet_cli(state["argv"])

    def collect(self, state, raw):
        return {"rc": raw, "cert": _read_json(state["out"])}


class Fragments(_Search):
    """``planecover search`` on the fragments spec, folds 1..h_max."""

    def __init__(self, name: str, h_max: int):
        self.name = name
        self.h_max = h_max

    def setup(self):
        spec = fx.load_fixture_obj("spec-k4-h-le-5")
        make_base("k4")
        return dict(spec, h_max=self.h_max)

    def prepare(self, tmp):
        spec_path = os.path.join(tmp, f"{self.name}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(pio.dumps(self.setup()))
        out = os.path.join(tmp, f"{self.name}.cert.json")
        return {"argv": ["search", spec_path, "--workers", "1", "--out", out], "out": out}

    def check(self, out):
        cert = out["cert"]
        folds = cert["folds"]
        checks = [
            ("exit_code", out["rc"] == 0),
            ("folds", [f["fold"] for f in folds] == list(range(1, self.h_max + 1))),
            ("survivor_count", cert["survivor_count"] == 0),
            ("alarms", not cert.get("alarms")),
        ]
        for f in folds:
            h = f["fold"]
            checks.append((f"fold{h}.classes", f["classes"] == FOLD_COUNTS[h][3]))
            checks.append((f"fold{h}.survivors", f["survivors"] == []))
        checks += [("census_identity", _census_ok(c)) for c in cert["quotient_censuses"]]
        return checks

    def tamper(self, out):
        bad = copy.deepcopy(out)
        bad["cert"]["folds"][-1]["classes"] += 1
        return bad

    def replay(self, state, tracer, out):
        base = make_base("k4")
        checks = []
        for h in range(1, self.h_max + 1):
            visited, connected, planar, classes = _scan(tracer, base, h)
            survivors = 0
            for key in sorted(classes):
                g = classes[key][1]
                with tracer.span("graphs.connectivity"):
                    connectivity(g)
                with tracer.span("search.analyze"):
                    analysis = analyze_fragment_candidate(g)
                tracer.count("search.analyze.outer_choices", analysis["embeddings"]["outer_choices"])
                for reason in analysis["excluded_by"]:
                    tracer.count(f"search.excluded.{reason}")
                survivors += bool(analysis["survivor"])
            tracer.count("search.analyze.survivors", survivors)
            got = (visited, connected, planar, len(classes), survivors)
            cert_fold = out["cert"]["folds"][h - 1]
            checks.append((f"replay.fold{h}", got == FOLD_COUNTS[h]))
            checks.append(
                (
                    f"replay.fold{h}.certificate",
                    (len(classes), survivors) == (cert_fold["classes"], len(cert_fold["survivors"])),
                )
            )
        _dumps_traced(tracer, out["cert"])
        return checks


class CoversK1222(_Search):
    """``planecover search`` on the K1,2,2,2 fold-2 spec."""

    name = "covers-k1222-n2"
    fixture = "spec-k1222-n2"

    def setup(self):
        spec = fx.load_fixture_obj(self.fixture)
        make_base(spec["base"])
        return spec

    def prepare(self, tmp):
        spec = self.setup()
        out = os.path.join(tmp, f"{self.name}.cert.json")
        argv = ["search", "--fixture", self.fixture, "--workers", "1", "--out", out]
        return {"argv": argv, "out": out, "spec": spec}

    def check(self, out):
        cert = out["cert"]
        return [
            ("exit_code", out["rc"] == 0),
            ("survivor_count", cert["survivor_count"] == 0),
            ("classes", cert["classes"] == 0),
            ("alarms", cert["alarms"] == []),
        ]

    def tamper(self, out):
        bad = copy.deepcopy(out)
        bad["cert"]["survivor_count"] += 1
        return bad

    def replay(self, state, tracer, out):
        spec = state["spec"]
        visited, connected, planar, classes = _scan(tracer, make_base(spec["base"]), spec["n"])
        _dumps_traced(tracer, out["cert"])
        cert = out["cert"]
        return [
            ("replay.scan", (visited, connected, planar, len(classes)) == K1222_N2_COUNTS),
            ("replay.certificate", len(classes) == cert["classes"]),
        ]


class StructureQuotients(Workload):
    """Quotient universe, bead demand, counting bounds and the semi-cover
    fixtures through ``planecover analyze`` and ``quotient``."""

    name = "structure-quotients"
    folds = tuple(range(4, 15, 2))

    def setup(self):
        make_base("k4")
        make_base("k1222")
        return {name: pio.semicover_from_obj(fx.load_fixture_obj(name)) for name in CLI_EXIT_CODES}

    def prepare(self, tmp):
        self.setup()
        outs = {
            (name, cmd): os.path.join(tmp, f"{name}.{cmd}.json")
            for name in CLI_EXIT_CODES
            for cmd in ("analyze", "quotient")
        }
        return {"outs": outs, "tmp": tmp}

    def run(self, state):
        quotients = enumerate_quotients(4)
        identities = [check_face_census_identity(q.census) for q in quotients]
        beads = [
            (q, face, min_beads(q, outer_face=face))
            for q in quotients
            for face in range(len(q.faces))
        ]
        lens = min_beads(fx.double_lens())
        verdicts = {n: fold_verdict(n).contradiction for n in self.folds}
        exit_codes = {
            (name, cmd): _quiet_cli([cmd, "--fixture", name, "--out", path])
            for (name, cmd), path in state["outs"].items()
        }
        return quotients, identities, beads, lens, verdicts, exit_codes

    def collect(self, state, raw):
        quotients, identities, beads, lens, verdicts, exit_codes = raw
        censuses = {}
        for key, path in state["outs"].items():
            if exit_codes[key] == 0:
                obj = _read_json(path)
                censuses[key] = obj["quotient_census"] if key[1] == "analyze" else obj["census"]
            if os.path.exists(path):
                os.remove(path)
        return {
            "quotients": len(quotients),
            "identities": identities,
            "beads": [_bead_record(q, face, mb) for q, face, mb in beads],
            "double_lens": lens.total,
            "verdicts": verdicts,
            "exit_codes": exit_codes,
            "censuses": censuses,
        }

    def check(self, out):
        totals = Counter(b["total"] for b in out["beads"])
        checks = [
            ("quotients", out["quotients"] == 9),
            ("min_beads.pairs", len(out["beads"]) == 50),
            ("min_beads.totals", dict(totals) == MIN_BEADS_TOTALS),
            ("double_lens", out["double_lens"] == 4),
        ]
        checks += [("census_identity", ok is True) for ok in out["identities"]]
        checks += [("min_beads.placement", _placement_ok(b)) for b in out["beads"]]
        checks += [
            (f"fold_verdict.{n}", out["verdicts"][n] == (n < 14)) for n in self.folds
        ]
        for (name, cmd), rc in out["exit_codes"].items():
            want = CLI_EXIT_CODES[name][cmd == "quotient"]
            checks.append((f"cli.{cmd}.{name}", rc == want))
        checks += [
            (f"cli.{cmd}.{name}.census", census is None or _census_ok(census))
            for (name, cmd), census in out["censuses"].items()
        ]
        return checks

    def tamper(self, out):
        bad = copy.deepcopy(out)
        bad["double_lens"] += 1
        return bad

    def replay(self, state, tracer, out):
        span, count = tracer.span, tracer.count
        with span("search.enumerate_quotients"):
            quotients = enumerate_quotients(4)
        count("search.enumerate_quotients.count", len(quotients))
        totals = Counter()
        for q in quotients:
            with span("bounds.census_identity"):
                check_face_census_identity(q.census)
            for face in range(len(q.faces)):
                with span("search.min_beads"):
                    totals[min_beads(q, outer_face=face).total] += 1
        lens = fx.double_lens()
        with span("search.min_beads"):
            lens_total = min_beads(lens).total
        for n in self.folds:
            with span("bounds.fold_verdict"):
                fold_verdict(n)
        for name in (*CLI_EXIT_CODES, KNOWN_CRASH_FIXTURE):
            with span("io.load"):
                sc = pio.semicover_from_obj(fx.load_fixture_obj(name))
            try:
                with span("covers.verify_semicover"):
                    verify_semicover(sc)
                with span("structure.admissibility"):
                    report = admissibility_report(sc)
                with span("structure.exclusions"):
                    check_exclusions(report)
            except ValueError:  # every error class the command line handles
                count("structure.handled_errors")
            try:
                with span("structure.refine"):
                    ref = refine_faces(sc)
                with span("structure.quotient_graph"):
                    q, _ = quotient_graph(ref.h_embedding)
                with span("search.min_beads"):
                    min_beads(q)
            except ValueError:
                count("structure.handled_errors")
            except KeyError:
                count("structure.uncaught_errors")
        return [
            ("replay.quotients", len(quotients) == out["quotients"]),
            ("replay.min_beads.totals", dict(totals) == MIN_BEADS_TOTALS),
            ("replay.double_lens", lens_total == 4),
        ]

    def probe(self, state):
        """Run both commands on the fixture with the known crash."""
        crashes = 0
        path = os.path.join(state["tmp"], f"{KNOWN_CRASH_FIXTURE}.json")
        for cmd in ("analyze", "quotient"):
            try:
                _quiet_cli([cmd, "--fixture", KNOWN_CRASH_FIXTURE, "--out", path])
            except Exception:  # noqa: BLE001 - counting what the CLI lets escape
                crashes += 1
        return {"cli.uncaught_errors": crashes}


def _bead_record(q, face: int, mb) -> dict:
    return {
        "total": mb.total,
        "placement": list(mb.placement),
        "outer": face,
        "face_lengths": [len(f) for f in q.faces],
        "face_sides": [list(s) for s in q.face_edge_sides],
    }


def _placement_ok(rec: dict) -> bool:
    """Independent check of a bead placement: it spends exactly the total
    and meets every face demand (an internal 2-face needs two beads, an
    internal 4-face one, an outer 2-face one; a bead counts once per side
    of its edge that the face owns)."""
    placement = rec["placement"]
    if sum(placement) != rec["total"] or min(placement, default=0) < 0:
        return False
    for fid, sides in enumerate(rec["face_sides"]):
        length = rec["face_lengths"][fid]
        if fid == rec["outer"]:
            demand = 1 if length == 2 else 0
        else:
            demand = {2: 2, 4: 1}.get(length, 0)
        if sum(placement[e] for e in sides) < demand:
            return False
    return True


WORKLOADS = {
    w.name: w
    for w in (
        Fragments("fragments-h4", 4),
        CoversK1222(),
        StructureQuotients(),
        # the full fold 1-5 certificate: about two minutes a call, so it is
        # not one of BENCHMARK.json's workloads; run it by name
        Fragments("fragments-h5", 5),
    )
}
