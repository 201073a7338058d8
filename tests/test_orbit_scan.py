"""The orbit-wise voltage scan against the brute-force scan, closed forms
and the pinned certificate bytes."""

import hashlib
import math

import pytest
from oracles import reference_scan_chunk

from planecover import embedding, search
from planecover import fixtures as fx
from planecover import io as pio
from planecover.covers import conjugacy_representatives, sheets_transitive
from planecover.graphs import make_base
from planecover.search import (
    OrbitCollision,
    SearchSpec,
    _merge_chunks,
    _scan_chunk,
    enumerate_covers,
    voltage_orbits,
)

def _both_scans(kind, n):
    args = (make_base(kind), n, conjugacy_representatives(n))
    return _scan_chunk(*args), reference_scan_chunk(*args)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_scan_matches_brute_force_k4(n):
    got, want = _both_scans("k4", n)
    assert got == want


def test_orbit_scan_matches_brute_force_k1222_n2():
    # the oracle scan decides planarity by the bare LR test, so this also
    # checks the triangulation pre-check on every connected fold-2 cover
    got, want = _both_scans("k1222", 2)
    assert got == want
    visited, connected, planar, classes = got
    assert (visited, connected, planar, len(classes)) == (4096, 4095, 0, 0)


def test_k1222_n2_scan_leaves_four_covers_to_the_lr_test(monkeypatch):
    # every connected fold-2 cover has 14 vertices and 36 = 3V - 6 edges,
    # so the triangulation pre-check decides all but four of them
    lr = embedding._lr_planar
    calls = []

    def counted(adj):
        calls.append(adj)
        return lr(adj)

    monkeypatch.setattr(embedding, "_lr_planar", counted)
    got = _scan_chunk(make_base("k1222"), 2, conjugacy_representatives(2))
    assert got[2] == 0
    assert len(calls) == 4


@pytest.mark.slow
def test_orbit_scan_matches_brute_force_k4_n5():
    got, want = _both_scans("k4", 5)
    assert got == want


# Per tuple length, for n = 1..5: the transitive tuples of S_n (P. Hall,
# 1936, for pairs; M. Hall, 1949, for triples) and the orbit counts of S_n
# acting on the tuples by simultaneous conjugation (all, transitive).  The
# transitive pair orbits are the conjugacy classes of index-n subgroups of
# the free group of rank 2 (OEIS A057005).
HALL_TRANSITIVE_TUPLES = {
    2: {1: 1, 2: 3, 3: 26, 4: 426, 5: 11064},
    3: {1: 1, 2: 7, 3: 194, 4: 12858, 5: 1647384},
}
ORBIT_COUNTS = {
    2: {1: (1, 1), 2: (4, 3), 3: (11, 7), 4: (43, 26), 5: (161, 97)},
    3: {1: (1, 1), 2: (8, 7), 3: (49, 41), 4: (681, 604), 5: (14721, 13753)},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hall_orbit_sum_identity(n):
    for length in (2, 3):
        orbits = transitive = weighted = 0
        for volt, _, stab in voltage_orbits(n, conjugacy_representatives(n), length - 1):
            orbits += 1
            if sheets_transitive(volt, n):
                transitive += 1
                weighted += math.factorial(n) // stab
        assert (orbits, transitive) == ORBIT_COUNTS[length][n], length
        assert weighted == HALL_TRANSITIVE_TUPLES[length][n], length


def test_orbit_collision_raises(monkeypatch):
    # a canonical form that merges every orbit must stop the scan
    monkeypatch.setattr(search, "canonical_form", lambda g: b"same")
    with pytest.raises(OrbitCollision):
        _scan_chunk(make_base("k4"), 2, conjugacy_representatives(2))


def test_merge_collision_raises():
    chunk = (1, 1, 1, {b"key": [((0, 1),), 1]})
    other = (1, 1, 1, {b"key": [((1, 0),), 1]})
    with pytest.raises(OrbitCollision):
        _merge_chunks([chunk, other])


# sha256 of io.dumps(certificate without "timing"), pinned before the
# orbit scan replaced the per-assignment scan.  The fragment certificate
# pins, at fold 4, the candidate entries and the shape exclusions.
GOLDEN_DIGESTS = {
    "spec-k4-n1": "7d2ce6004bda8aabb36f922b1da7c3ddf297311bf6e4ea4f53966ffc4c99ab76",
    "spec-k4-n2": "81097d957bae172859503817cc7cd980f9a1df7558be25c22ea10c1098d794e7",
    "spec-k1222-n2": "8297e316fa5a1c5a5bf5ca586056efc06244c649245c0d844255fd2df2608e02",
    "spec-k4-h-le-5": "c69f6474d91e1f6d1838093e1f45c7cda95054201c70c983b886b275624fa984",
}


def _cert_digest(cert: dict) -> str:
    content = {k: v for k, v in cert.items() if k != "timing"}
    return hashlib.sha256(pio.dumps(content).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", ["spec-k4-n1", "spec-k4-n2", "spec-k1222-n2"])
def test_cover_certificate_golden_digest(name):
    cert = enumerate_covers(SearchSpec.from_obj(fx.load_fixture_obj(name)))
    assert _cert_digest(cert) == GOLDEN_DIGESTS[name]


def test_fragment_certificate_golden_digest(fragment_certificate):
    assert fragment_certificate["format_version"] == 1
    assert _cert_digest(fragment_certificate) == GOLDEN_DIGESTS["spec-k4-h-le-5"]
