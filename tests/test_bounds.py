import pytest

from planecover.bounds import (
    BoundsError,
    check_face_census_identity,
    fold_verdict,
    interior_triangle_bound,
    long_cycle_bounds,
)


def test_census_identity_examples():
    assert check_face_census_identity({4: 6})
    assert check_face_census_identity({2: 2, 4: 2})
    assert not check_face_census_identity({2: 1, 4: 3})
    assert check_face_census_identity({2: 3})
    assert check_face_census_identity({2: 2, 4: 3, 8: 1})


def test_census_identity_rejects_odd_lengths():
    with pytest.raises(BoundsError):
        check_face_census_identity({3: 2})


def test_interior_triangle_bound():
    assert interior_triangle_bound(6, 5) == (8, 3)
    assert interior_triangle_bound(6, 6) == (6, 2)
    assert interior_triangle_bound(3, 3) == (3, 1)
    with pytest.raises(BoundsError):
        interior_triangle_bound(2, 4)


def test_long_cycle_bounds():
    b = long_cycle_bounds(12, 6, 3)
    assert b.total_upper == 72
    assert b.lower_strict == 72
    assert b.contradiction
    b14 = long_cycle_bounds(14, 6, 3)
    assert b14.total_upper == 120 and not b14.contradiction
    with pytest.raises(BoundsError):
        long_cycle_bounds(5, 6, 3)


def test_fold_verdict_pipeline():
    for n in (4, 6, 8, 10, 12):
        assert fold_verdict(n).contradiction
    assert not fold_verdict(14).contradiction
    with pytest.raises(BoundsError):
        fold_verdict(7)
    with pytest.raises(BoundsError):
        fold_verdict(2)


def test_fold_verdict_trace_n12():
    v = fold_verdict(12)
    joined = " ".join(v.trace)
    assert "72" in joined
    assert "contradiction" in v.trace[-1]


def test_fold_verdict_n10_numbers():
    v = fold_verdict(10)
    assert v.contradiction
    # check the numeric route as well: the upper bound at n=10 is 24
    assert long_cycle_bounds(10, 6, 3).total_upper == 24


def test_monotone_contradictions():
    # contradiction at n implies contradiction at every smaller even fold
    # down to twice the fragment bound
    last = None
    for n in range(12, 2, -2):
        if n < 4:
            break
        v = fold_verdict(n)
        if last is not None and last:
            assert v.contradiction
        last = v.contradiction


def test_census_identity_cross_module(fragment_certificate):
    # every quotient census the fragment search ever formed satisfies the
    # Euler identity
    seen = 0
    for obj in fragment_certificate["quotient_censuses"]:
        census = {int(k): v for k, v in obj.items()}
        assert check_face_census_identity(census)
        seen += 1
    assert seen > 0
