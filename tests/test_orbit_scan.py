"""The orbit-wise voltage scan against the brute-force scan, closed forms,
the format-1 and format-2 certificates and the pinned certificate bytes."""

import functools
import gc
import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from oracles import (
    format_one_covers,
    format_one_fragments,
    format_two_fragments,
    reference_scan,
    sheets_transitive,
    voltage_orbits,
)

from planecover import embedding, graphs, search
from planecover import fixtures as fx
from planecover import io as pio
from planecover.covers import (
    conjugacy_representatives,
    derive,
    normalized_assignment,
)
from planecover.graphs import canonical_form, make_base
from planecover.search import (
    BudgetExceeded,
    SearchSpec,
    _conjugate,
    _least_conjugate,
    _perm_tables,
    _scan,
    _thin_edge_checks,
    _tree_symmetries,
    enumerate_covers,
    enumerate_quotients,
    search_k4_fragments,
)

def _both_scans(kind, n):
    base = make_base(kind)
    return _scan(base, n), reference_scan(base, n, conjugacy_representatives(n))


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
    # so it is planar only if it is a triangulation: the triangle bound of
    # each lifted edge on voltage prefixes leaves four of the 4,095 to the
    # leaf decision, and those four pass its triangulation pre-check to the
    # LR test.  A dead prefix whose sheet orbits are one is counted whole,
    # so the walk expands 104 prefixes, not the 4,096 leaves, and joins
    # sheet orbits 24 times
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(embedding, "_lr_planar")
    for name in ("planar_rows", "_orbit_reps", "join_sheets"):
        count(search, name)
    got = _scan(make_base("k1222"), 2)
    assert got[:3] == (4096, 4095, 0)
    assert calls == {"_lr_planar": 4, "planar_rows": 4, "_orbit_reps": 104, "join_sheets": 24}


def test_a_scan_leaves_no_cyclic_garbage():
    # the scan's tables are freed when it returns, not left for the cyclic
    # collector: with the collector off, a covers scan and a fragment
    # search leave nothing unreachable behind
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        enumerate_covers(SearchSpec("k1222", 2))
        assert gc.collect() == 0
        search_k4_fragments(4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_thin_edge_table_is_built_once_per_base_and_fold():
    base = make_base("k1222")
    checks = _thin_edge_checks(base, 2)
    assert _thin_edge_checks(make_base("k1222"), 2) is checks
    assert type(checks) is tuple and all(type(level) is tuple for level in checks)


@pytest.mark.slow
def test_orbit_scan_matches_brute_force_k4_n5():
    got, want = _both_scans("k4", 5)
    assert got == want


# -- planarity verdicts shared across K4's tree symmetries ------------------


def _brute_least_conjugate(volt, perms):
    """The least conjugate of ``volt`` over all of S_n whose first voltage
    is the class representative of ``volt[0]``."""
    (first,) = {_conjugate(g, volt[0]) for g in perms} & set(conjugacy_representatives(len(volt[0])))
    return min(tuple(_conjugate(g, p) for p in volt) for g in perms if _conjugate(g, volt[0]) == first)


def _naming_cases():
    rng = random.Random(37)
    for n in (1, 2, 3):
        yield from itertools.product(itertools.permutations(range(n)), repeat=3)
    for n, count in ((4, 300), (5, 60)):
        perms = list(itertools.permutations(range(n)))
        for _ in range(count):
            yield tuple(rng.choice(perms) for _ in range(3))


def _index_name(volt):
    """``_least_conjugate`` of a voltage of permutation tuples, read on
    their ``_perm_tables`` indices and turned back into tuples."""
    tables = _perm_tables(len(volt[0]))
    index = {p: i for i, p in enumerate(tables.perms)}
    name = _least_conjugate(tuple(index[p] for p in volt), tables)
    return tuple(tables.perms[i] for i in name)


def test_least_conjugate_is_the_brute_force_least_conjugate():
    for volt in _naming_cases():
        perms = tuple(itertools.permutations(range(len(volt[0]))))
        assert _index_name(volt) == _brute_least_conjugate(volt, perms), volt


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_least_conjugate_names_every_scan_leaf_by_itself(n):
    for volt, _, _ in voltage_orbits(n, conjugacy_representatives(n), 2):
        assert _index_name(volt) == volt


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_perm_tables_match_tuple_arithmetic(n):
    # every entry against _conjugate, a brute-force inverse and class
    # representative; index order is tuple order, which the scan's name
    # comparison relies on
    tables = _perm_tables(n)
    perms = tables.perms
    assert list(perms) == sorted(itertools.permutations(range(n)))
    identity = tuple(range(n))
    reps = conjugacy_representatives(n)
    for i, p in enumerate(perms):
        q = perms[tables.inverse[i]]
        assert tuple(p[q[x]] for x in range(n)) == identity == tuple(q[p[x]] for x in range(n))
        assert [perms[c] for c in tables.conj[i]] == [_conjugate(p, r) for r in perms]
        (rep,) = {_conjugate(g, p) for g in perms} & set(reps)
        assert perms[tables.rep[i]] == rep
        assert [perms[g] for g in tables.conjugators[i]] == [g for g in perms if _conjugate(g, p) == rep]
    assert _perm_tables(n) is tables


def test_a_cached_fold_scan_conjugates_no_tuple(monkeypatch):
    # once the tables of folds 1-4 are built, the fold 1-4 fragment search
    # does its permutation arithmetic by lookups alone
    for n in (1, 2, 3, 4):
        _perm_tables(n)
    calls = []
    real = search._conjugate
    monkeypatch.setattr(search, "_conjugate", lambda g, p: calls.append(1) or real(g, p))
    search_k4_fragments(4)
    assert calls == []


def test_the_budget_refuses_a_fold_before_its_tables(monkeypatch):
    # the n!^2 conjugation table is built only once the budget admits the
    # fold's (n!)^3 assignments: fold 7 is refused first
    def refused(n):
        raise AssertionError(f"_perm_tables({n}) built past the budget")

    monkeypatch.setattr(search, "_perm_tables", refused)
    with pytest.raises(BudgetExceeded):
        enumerate_covers(SearchSpec("k4", 7))


def test_tree_symmetries_of_k4_are_explicit_isomorphisms():
    # (b, i) -> (σb, i) sends the derived graph of every fold-3 voltage
    # onto that of its image: an isomorphism, given vertex by vertex
    k4 = make_base("k4")
    symmetries = _tree_symmetries(k4)
    assert sorted(s for s, _ in symmetries) == [
        s for s in itertools.permutations(range(4)) if s[0] == 0 and s != (0, 1, 2, 3)
    ]
    n = 3
    inverse = {p: tuple(p.index(i) for i in range(n)) for p in itertools.permutations(range(n))}
    for volt in itertools.product(inverse, repeat=3):
        edges = derive(normalized_assignment(k4, n, volt))[0].edges
        for s, source in symmetries:
            image = [inverse[volt[k]] if inverted else volt[k] for k, inverted in source]
            moved = {frozenset((s[u // n] * n + u % n, s[w // n] * n + w % n)) for u, w in edges}
            assert moved == set(map(frozenset, derive(normalized_assignment(k4, n, image))[0].edges))


def _symmetry_classes(n: int) -> int:
    """The transitive fold-n voltages of K4 up to conjugation and the tree
    symmetries, counted with the brute-force least conjugate: a leaf whose
    name no earlier leaf's images reached starts a class."""
    perms = tuple(itertools.permutations(range(n)))
    inverse = {p: tuple(p.index(i) for i in range(n)) for p in perms}
    reached, classes = set(), 0
    for volt, _, _ in voltage_orbits(n, conjugacy_representatives(n), 2):
        if sheets_transitive(volt, n) and volt not in reached:
            classes += 1
            for _, source in _tree_symmetries(make_base("k4")):
                image = [inverse[volt[k]] if inverted else volt[k] for k, inverted in source]
                reached.add(_brute_least_conjugate(image, perms))
    return classes


@pytest.mark.parametrize(
    "n, lr_calls",
    [
        (1, 1),
        (2, 3),
        (3, 14),
        (4, 143),
        pytest.param(5, 2567, marks=pytest.mark.slow),
        pytest.param(6, 86451, marks=pytest.mark.slow),
    ],
)
def test_fragment_scan_runs_one_lr_test_per_symmetry_class(monkeypatch, n, lr_calls):
    # each class of transitive voltages under S_3 x conjugation is tested
    # once, at its first leaf, and every verdict stored for a later leaf is
    # taken out there; the classes are counted apart to fold 4
    if n <= 4:
        assert _symmetry_classes(n) == lr_calls
    calls = []
    memos = []
    real = embedding._lr_planar
    monkeypatch.setattr(embedding, "_lr_planar", lambda rows: calls.append(1) or real(rows))

    class Recorded(search._SharedVerdicts):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(search, "_SharedVerdicts", Recorded)
    search._scan(make_base("k4"), n)
    assert len(calls) == lr_calls
    assert len(memos) == (n > 1) and all(not memo.verdicts for memo in memos)


def test_the_triangulation_rule_shares_no_verdict(monkeypatch):
    # every connected fold-2 cover of K1,2,2,2 is triangulation-sized, so
    # its scan builds no verdict memo and computes no symmetry
    def refused(*args):
        raise AssertionError("called under the triangulation rule")

    monkeypatch.setattr(search, "_tree_symmetries", refused)
    monkeypatch.setattr(search, "_SharedVerdicts", refused)
    assert _scan(make_base("k1222"), 2)[:3] == (4096, 4095, 0)


# Per tuple length, for n = 1..5 (pairs to n = 6): the transitive tuples of S_n (P. Hall,
# 1936, for pairs; M. Hall, 1949, for triples) and the orbit counts of S_n
# acting on the tuples by simultaneous conjugation (all, transitive).  The
# transitive pair orbits are the conjugacy classes of index-n subgroups of
# the free group of rank 2 (OEIS A057005).
HALL_TRANSITIVE_TUPLES = {
    2: {1: 1, 2: 3, 3: 26, 4: 426, 5: 11064, 6: 413640},
    3: {1: 1, 2: 7, 3: 194, 4: 12858, 5: 1647384},
}
ORBIT_COUNTS = {
    2: {1: (1, 1), 2: (4, 3), 3: (11, 7), 4: (43, 26), 5: (161, 97), 6: (901, 624)},
    3: {1: (1, 1), 2: (8, 7), 3: (49, 41), 4: (681, 604), 5: (14721, 13753)},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hall_orbit_sum_identity(n):
    # pairs only at n = 6 (901 orbits): its triple orbits are past a unit
    # test's time
    for length in (2, 3) if n <= 5 else (2,):
        orbits = transitive = weighted = 0
        for volt, _, stab in voltage_orbits(n, conjugacy_representatives(n), length - 1):
            orbits += 1
            if sheets_transitive(volt, n):
                transitive += 1
                weighted += math.factorial(n) // stab
        assert (orbits, transitive) == ORBIT_COUNTS[length][n], length
        assert weighted == HALL_TRANSITIVE_TUPLES[length][n], length


def _centralizer_order(c) -> int:
    """|C(c)| in S_n from the cycle type of c: the product over cycle
    lengths k of k^m * m!, m the number of k-cycles."""
    lengths, seen = [], set()
    for start in range(len(c)):
        j, k = start, 0
        while j not in seen:
            seen.add(j)
            j, k = c[j], k + 1
        if k:
            lengths.append(k)
    return math.prod(k**m * math.factorial(m) for k, m in Counter(lengths).items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_weights_sum_to_hall_transitive_triples(monkeypatch, n):
    # the walk's weights, products of stabilizer indices along each path:
    # with every leaf taken as planar, the classes are the transitive
    # orbits with their weights.  A first voltage c's weights, times the
    # n!/|C(c)| conjugates of c, summed over the cycle types give every
    # transitive triple of S_n, K4 having three cotree edges
    monkeypatch.setattr(search, "planar_rows", lambda rows, m: True)
    _, connected, planar, classes = _scan(make_base("k4"), n)
    assert planar == connected and len(classes) == ORBIT_COUNTS[3][n][1]
    weights = Counter()
    for volt, weight in classes:
        weights[volt[0]] += weight
    assert sorted(weights) == list(conjugacy_representatives(n))
    total = sum(math.factorial(n) // _centralizer_order(c) * w for c, w in weights.items())
    assert total == HALL_TRANSITIVE_TUPLES[3][n]


# -- format 3 against formats 2 and 1 --------------------------------------

#: Fields a format-1 covers certificate writes and a format-2 one does not:
#: the spec's fixed fields and the empty fragment fields.
FORMAT_ONE_SPEC_FIELDS = ("filters", "dedup")
FORMAT_ONE_COVERS_FIELDS = ("skipped_conditions", "extra_conditions", "quotient_censuses")


def _as_format_two(record: dict, covers: bool) -> dict:
    """A format-1 fold record (a covers certificate or a fragment fold)
    in format 2: entries lose "canonical" and follow their voltages,
    survivors are named by voltage, and a covers certificate drops its
    five fixed or empty fields."""
    voltage = {e["canonical"]: e["voltage"] for e in record["candidates"]}
    out = {k: v for k, v in record.items() if not (covers and k in FORMAT_ONE_COVERS_FIELDS)}
    out["candidates"] = sorted(
        ({k: v for k, v in e.items() if k != "canonical"} for e in record["candidates"]),
        key=lambda e: e["voltage"],
    )
    out["survivors"] = sorted(voltage[key] for key in record["survivors"])
    if covers:
        out["spec"] = {k: v for k, v in record["spec"].items() if k not in FORMAT_ONE_SPEC_FIELDS}
    return out


def _as_format_three(record: dict) -> dict:
    """A format-2 fragment fold record in format 3: entries lose their
    "connectivity" and their "two_connected" filter."""
    candidates = []
    for e in record["candidates"]:
        e = {k: v for k, v in e.items() if k != "connectivity"}
        e["filters"] = {k: v for k, v in e["filters"].items() if k != "two_connected"}
        candidates.append(e)
    return {**record, "candidates": candidates}


@functools.cache
def _format_two_fragments(h_max: int) -> dict:
    return format_two_fragments(h_max)


@functools.cache
def _format_one_fragments(h_max: int) -> dict:
    return format_one_fragments(h_max)


def _records(mode, n):
    """(format-2 record, format-1 record) of covers mode on a base at fold
    n, or of fold n of the fragment search.  A covers certificate is the
    same in formats 2 and 3 apart from its version."""
    if mode == "fragments":
        h_max = max(4, n)
        return _format_two_fragments(h_max)["folds"][n - 1], _format_one_fragments(h_max)["folds"][n - 1]
    two = {k: v for k, v in enumerate_covers(SearchSpec(mode, n)).items() if k != "timing"}
    assert two.pop("format_version") == 3
    one = format_one_covers(mode, n)
    assert one.pop("format_version") == 1
    return two, one


@pytest.mark.parametrize(
    "mode, n",
    [("k4", n) for n in (1, 2, 3, 4)]
    + [("k1222", 1), ("k1222", 2)]
    + [("fragments", h) for h in (1, 2, 3, 4)]
    + [pytest.param("fragments", 5, marks=pytest.mark.slow)],
    ids=str,
)
def test_format_two_is_format_one_named_by_voltage(mode, n):
    two, one = _records(mode, n)
    assert two == _as_format_two(one, covers=mode != "fragments")
    # the orbit argument: distinct voltages name distinct classes
    base = make_base("k4" if mode == "fragments" else mode)
    forms = {
        canonical_form(derive(normalized_assignment(base, n, e["voltage"]))[0])
        for e in two["candidates"]
    }
    assert len(forms) == len(two["candidates"]) == two["classes"]


@pytest.mark.parametrize("h", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_format_three_is_format_two_without_connectivity(fragment_certificate, h):
    two = _format_two_fragments(max(4, h))["folds"][h - 1]
    assert fragment_certificate["folds"][h - 1] == _as_format_three(two)


#: sha256 of io.dumps(certificate without "timing") in format 1, as pinned
#: before classes were named by voltage.
FORMAT_ONE_DIGESTS = {
    "spec-k4-n1": "7d2ce6004bda8aabb36f922b1da7c3ddf297311bf6e4ea4f53966ffc4c99ab76",
    "spec-k4-n2": "81097d957bae172859503817cc7cd980f9a1df7558be25c22ea10c1098d794e7",
    "spec-k1222-n2": "8297e316fa5a1c5a5bf5ca586056efc06244c649245c0d844255fd2df2608e02",
    "spec-k4-h-le-5": "c69f6474d91e1f6d1838093e1f45c7cda95054201c70c983b886b275624fa984",
}


@pytest.mark.parametrize(
    "name",
    ["spec-k4-n1", "spec-k4-n2", "spec-k1222-n2", pytest.param("spec-k4-h-le-5", marks=pytest.mark.slow)],
)
def test_format_one_oracle_writes_the_format_one_bytes(name):
    spec = fx.load_fixture_obj(name)
    if spec["mode"] == "fragments":
        cert = _format_one_fragments(spec["h_max"])
    else:
        cert = format_one_covers(spec["base"], spec["n"])
    assert _cert_digest(cert) == FORMAT_ONE_DIGESTS[name]


#: sha256 of io.dumps(certificate without "timing") in format 2, as pinned
#: before the fragment entries lost their connectivity; "fragments-h4" is
#: the fold 1-4 fragment certificate.
FORMAT_TWO_DIGESTS = {
    "spec-k4-n1": "d49719691b2338cd87293852f1659aacb887f54b87080f8ee10f519fb05a0285",
    "spec-k4-n2": "4d92d97bea60ba9e7835e55da001fd3128b989485288e777ad7154af19a203e5",
    "spec-k1222-n2": "4f0c220677be8dfbfdef1a6a63a49399cd125256cafc16697a8721ead238f605",
    "fragments-h4": "64601791453ee3c9e105ebd729f1c9bff390e1ac5def90baef2cce4956d618ea",
    "spec-k4-h-le-5": "1ccc7b8c7260c788371f3096d460e53caf72d1eb6377a4047079b389026af06f",
}


@pytest.mark.parametrize(
    "name",
    [
        "spec-k4-n1",
        "spec-k4-n2",
        "spec-k1222-n2",
        "fragments-h4",
        pytest.param("spec-k4-h-le-5", marks=pytest.mark.slow),
    ],
)
def test_format_two_oracle_writes_the_format_two_bytes(name):
    if name == "fragments-h4":
        cert = _format_two_fragments(4)
    elif name == "spec-k4-h-le-5":
        cert = _format_two_fragments(5)
    else:
        # a covers certificate differs from format 2 only in its version
        cert = {**enumerate_covers(SearchSpec.from_obj(fx.load_fixture_obj(name))), "format_version": 2}
    assert _cert_digest(cert) == FORMAT_TWO_DIGESTS[name]


@pytest.mark.parametrize(
    "run",
    [
        lambda: search_k4_fragments(4),
        lambda: enumerate_covers(SearchSpec("k4", 3)),
        lambda: enumerate_quotients(4),
    ],
    ids=["fragments-4", "covers-k4-3", "quotients-4"],
)
def test_scan_computes_no_canonical_form(monkeypatch, run):
    # a cover class is named by its voltage and a quotient class by its
    # greatest degree matrix: the graph canonical form is left to
    # ``planecover derive`` alone
    calls = []
    real = graphs.canonical_form

    def counted(g):
        calls.append(g)
        return real(g)

    for module in (graphs, search):
        if hasattr(module, "canonical_form"):
            monkeypatch.setattr(module, "canonical_form", counted)
    run()
    assert len(calls) == 0


# sha256 of io.dumps(certificate without "timing") in format 3.  The
# fragment certificate pins, at fold 4, the candidate entries and the
# shape exclusions.
GOLDEN_DIGESTS = {
    "spec-k4-n1": "c1ac5e026b615a718950a86b5adc5e89598858a6eb7a9a2370d42eda15fb74c4",
    "spec-k4-n2": "b0eecf83c942e9a9f0c4dab0b6a22267149143ffaaac28a10af277fcb616de84",
    "spec-k1222-n2": "9153c73f3f0064b50f183a426de4f016c607ee604bbd08377139a54252da52e4",
    "spec-k4-h-le-5": "3574e4f292e3e6db9676fdccff5649b2e81950b691c5d11804e0a293e5b8668d",
}


def _cert_digest(cert: dict) -> str:
    content = {k: v for k, v in cert.items() if k != "timing"}
    return hashlib.sha256(pio.dumps(content).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", ["spec-k4-n1", "spec-k4-n2", "spec-k1222-n2"])
def test_cover_certificate_golden_digest(name):
    cert = enumerate_covers(SearchSpec.from_obj(fx.load_fixture_obj(name)))
    assert cert["format_version"] == 3
    assert _cert_digest(cert) == GOLDEN_DIGESTS[name]


def test_fragment_certificate_golden_digest(fragment_certificate):
    assert fragment_certificate["format_version"] == 3
    assert _cert_digest(fragment_certificate) == GOLDEN_DIGESTS["spec-k4-h-le-5"]
