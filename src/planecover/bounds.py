"""Exact counting bounds and the final fold-exclusion pipeline.

Everything here is integer arithmetic.  The fold verdict combines three
facts: any admissible fragment has fold at least 6 (certified by the
fragment search), a planar cover contains two disjoint such fragments, so
its fold is at least 12, and at fold 12 the long octahedral cycles would
have total length at most 72 while covering strictly more than 6n = 72
vertex slots.
"""

from __future__ import annotations

from typing import NamedTuple


class BoundsError(ValueError):
    pass


def check_face_census_identity(census: dict[int, int]) -> bool:
    """The Euler identity every quotient face census satisfies:
    2*f2 + f4 = 6 + f8 + 2*f10 + 3*f12 + ...
    """
    for length in census:
        if length % 2:
            raise BoundsError(f"odd face length {length} in a bipartite quotient census")
    lhs = 2 * census.get(2, 0) + census.get(4, 0)
    rhs = 6 + sum(((length - 6) // 2) * f for length, f in census.items() if length >= 8)
    return lhs == rhs


def interior_triangle_bound(h: int, m: int) -> tuple[int, int]:
    """(interior octahedral vertices, forced triangle count).

    A fold-h fragment with a 3m-gonal outer face keeps 3h - 2m octahedral
    vertices strictly inside; each needs two neighbors on a (1,2,3)
    triangle and each triangle absorbs at most six such edges, forcing at
    least ceil(h - 2m/3) triangles.
    """
    interior = 3 * h - 2 * m
    if interior < 0:
        raise BoundsError(f"outer face too long: 2m = {2 * m} exceeds 3h = {3 * h}")
    bound = -(-interior // 3)  # ceil(h - 2m/3)
    return interior, bound


class LongCycleBounds(NamedTuple):
    total_upper: int
    lower_strict: int  # total length is strictly greater than this

    @property
    def contradiction(self) -> bool:
        return self.total_upper < self.lower_strict + 1


def long_cycle_bounds(n: int, h: int, t: int) -> LongCycleBounds:
    """Bounds on the total length of long octahedral cycles at fold n.

    Per antipodal label pair the long cycles avoid at least 2h + 2t of
    the 2n vertices carrying those labels, so they have total length at
    most 3(2n - 2h - 2t); summing the four pairs gives 12(2n - 2h - 2t).
    Every octahedral vertex lies on some long octahedral cycle and some
    vertex lies on two, so the total length strictly exceeds 6n.
    """
    if n < h + t:
        raise BoundsError(f"fold {n} below the fragment demand h + t = {h + t}")
    slack = 2 * n - 2 * h - 2 * t
    return LongCycleBounds(12 * slack, 6 * n)


class FoldVerdict(NamedTuple):
    n: int
    h: int
    t: int
    contradiction: bool
    trace: tuple[str, ...]

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "h": self.h,
            "t": self.t,
            "contradiction": self.contradiction,
            "trace": list(self.trace),
        }


def fold_verdict(n: int, h: int = 6, t: int = 3) -> FoldVerdict:
    """Decide whether fold n is excluded, with the full numeric trace.

    Uses h = 6 (no admissible fragment has smaller fold, per the fragment
    search) and t = 3 (the interior-triangle bound at h = 6, the necklace
    case being excluded).
    """
    if n % 2:
        raise BoundsError("planar covers of a non-planar base have even fold")
    if n < 4:
        raise BoundsError("the pipeline starts at fold 4")
    trace = [
        f"every admissible fragment has fold >= {h} and >= {t} interior (1,2,3) triangles",
        f"two disjoint fragments force fold n >= {2 * h}",
    ]
    if n < 2 * h:
        trace.append(f"n = {n} < {2 * h}: contradiction")
        return FoldVerdict(n, h, t, True, tuple(trace))
    lb = long_cycle_bounds(n, h, t)
    trace.append(
        f"long octahedral cycles: total length <= 12(2n - 2h - 2t) = {lb.total_upper}"
    )
    trace.append(
        f"but every octahedral vertex lies on one and some on two: total length > 6n = {lb.lower_strict}"
    )
    if lb.contradiction:
        trace.append(f"{lb.total_upper} <= {lb.lower_strict}: contradiction")
        return FoldVerdict(n, h, t, True, tuple(trace))
    trace.append(f"{lb.total_upper} > {lb.lower_strict}: no contradiction at fold {n}")
    return FoldVerdict(n, h, t, False, tuple(trace))
