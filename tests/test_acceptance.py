"""Acceptance criteria, one test per criterion, every tolerance exact.

Each test prints a single "acceptance: <name>: PASS" line on success, so
running `pytest tests/test_acceptance.py -v -s` doubles as the acceptance
report.  Criteria that cannot be reproduced at desk scale (full searches
for covers of the seven-vertex base at fold four and beyond) are excluded
by design: the budget guard refuses them, and the fold verdict rests on
the certified fragment search and counting pipeline instead.
"""

import itertools
import random
import time

import pytest

from builders import necklace, nine_face_pair, trapezium_face, two_faces
from lemmas import detect_trapezia, fold_from_single_long_face, triangles_supported_on_string
from oracles import (
    connectivity_by_cut_search,
    orbit_sizes,
    planar_by_subdivision_search,
    random_graph,
    triangle_net_voltage,
)

from planecover.bounds import check_face_census_identity, fold_verdict
from planecover.covers import derive, normalized_assignment, verify_cover
from planecover.embedding import is_planar
from planecover.fixtures import double_lens
from planecover.graphs import connectivity, find_cycles_covering, is_connected, make_base
from planecover.search import SearchSpec, enumerate_covers, enumerate_quotients, min_beads
from planecover.structure import (
    admissibility_report,
    check_exclusions,
    detect_strings,
    find_beads,
    refine_faces,
)

K4 = make_base("k4")


def _report(name):
    print(f"acceptance: {name}: PASS")


def test_criterion_1_no_planar_double_cover():
    t0 = time.monotonic()
    cert = enumerate_covers(SearchSpec(base="k1222", n=2))
    elapsed = time.monotonic() - t0
    assert cert["visited"] == 4096
    assert cert["survivor_count"] == 0
    assert cert["survivors"] == []
    _report(f"fold-2 non-existence (4096 assignments, 0 survivors, {elapsed:.1f}s)")


def test_criterion_2_no_small_fragments(fragment_certificate):
    cert = fragment_certificate
    assert [f["fold"] for f in cert["folds"]] == [1, 2, 3, 4, 5]
    for fold in cert["folds"]:
        assert fold["survivors"] == [], f"fold {fold['fold']} has survivors"
    assert cert["survivor_count"] == 0
    visited = sum(f["visited"] for f in cert["folds"])
    _report(f"fragment lower bound: no admissible fragment below fold 6 ({visited} assignments)")


def test_criterion_3_double_lens_bead_demand():
    assert min_beads(double_lens()).total == 4
    _report("two-lens quotient requires exactly 4 beads")


def test_criterion_4_census_identity_everywhere(fragment_certificate):
    checked = 0
    for q in enumerate_quotients(4):
        assert check_face_census_identity(q.census)
        checked += 1
    for obj in fragment_certificate["quotient_censuses"]:
        assert check_face_census_identity({int(k): v for k, v in obj.items()})
        checked += 1
    assert checked > 0
    _report(f"census identity holds on {checked} quotient censuses, 0 violations")


def test_criterion_5_fold_pipeline():
    for n in (4, 6, 8, 10, 12):
        assert fold_verdict(n).contradiction, f"fold {n} must be excluded"
    v14 = fold_verdict(14)
    assert not v14.contradiction
    v12 = fold_verdict(12)
    joined = " ".join(v12.trace)
    assert "12(2n - 2h - 2t) = 72" in joined
    assert "6n = 72" in joined
    _report("fold pipeline: contradiction at 4,6,8,10,12; none at 14; 72 vs >72 trace")


def test_criterion_6_single_long_face_fold():
    for m in range(2, 101):
        n = fold_from_single_long_face(m)
        assert n == m + 1
        V, E, F = 7 * n, 18 * n, 11 * n + 2
        assert V - E + F == 2
        assert 3 * (F - 1) + 3 * m == 2 * E
    _report("single-long-face fold formula n = m + 1 for m in 2..100")


def test_criterion_7_oracle_equivalence(connected_corpus):
    t0 = time.monotonic()
    for g in connected_corpus:
        assert is_planar(g) == planar_by_subdivision_search(g)
        if g.n >= 2:
            assert connectivity(g) == connectivity_by_cut_search(g)
    rng = random.Random(14)
    for _ in range(10_000):
        n = rng.randint(4, 10)
        p = rng.uniform(0.15, 0.6)
        g = random_graph(rng, n, p)
        assert is_planar(g) == planar_by_subdivision_search(g)
        assert connectivity(g) == connectivity_by_cut_search(g)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(
        f"planarity and connectivity oracles agree on {len(connected_corpus)} corpus "
        f"graphs and 10000 random graphs ({elapsed:.0f}s)"
    )


def test_criterion_8_voltage_round_trip():
    total = 0
    for n in (2, 3):
        perms = list(itertools.permutations(range(n)))
        for volt in itertools.product(perms, repeat=3):
            va = normalized_assignment(K4, n, volt)
            g, vmap = derive(va)
            verdict = verify_cover(g, K4, vmap)
            assert verdict.ok
            if is_connected(g):
                assert verdict.fold == n
            for t in K4.triangles:
                net = triangle_net_voltage(va, t)
                lengths = sorted(c.length for c in find_cycles_covering(g, t, K4))
                assert lengths == [3 * k for k in orbit_sizes(net)]
            total += 1
    _report(f"derive/verify round trip and lift lengths over {total} assignments")


def test_criterion_9_structural_fixtures():
    reasons, _ = check_exclusions(admissibility_report(necklace(4)))
    assert "necklace" in reasons

    reasons, _ = check_exclusions(admissibility_report(two_faces()))
    assert "two_internal_faces" in reasons

    reasons, sharing = check_exclusions(admissibility_report(nine_face_pair()))
    assert "bead_sharing" in reasons and sharing
    (fa, fb, m, shared) = sharing[0]
    assert m == 3 and shared >= 1  # two 9-faces cannot share a bead

    sc = trapezium_face()
    traps = detect_trapezia(sc)
    assert len(traps) == 1 and traps[0].type_label == 2
    ref = refine_faces(sc)
    h = ref.h_embedding.graph
    string = next(s for s in detect_strings(h, find_beads(h)) if s.type_label == -3)
    face_id = next(f for f, ts in ref.triangles_in_face.items() if ts)
    rep = triangles_supported_on_string(sc, string, face_id, ref)
    (t,) = rep.triangles
    assert t.bottom_label == 0
    assert t.top_label == -3
    _report("structural fixtures: necklace, double-face, shared-bead pair, trapezium")
