"""Per-k reference formulas: each computes one c_k alone, from scratch.

The capacity prefixes in symcap.capacities grow whole sequences; these
are the independent per-k computations the tests compare them against.
"""

from fractions import Fraction

from symcap.capacities import (CapacityResult, _checked, _nonneg_k, _union_table,
                               _UnionParts)
from symcap.domains import Ball, DisjointUnion
from symcap.geometry import rational
from symcap.weights import weight_expansion


def ck_polydisk(a, b, k) -> CapacityResult:
    a, b = rational(a), rational(b)
    if a <= 0 or b <= 0:
        raise ValueError("polydisk factors must be positive")
    k = _nonneg_k(k)
    best = None
    witness = None
    for m in range(k + 1):
        n = -(-(k + 1) // (m + 1)) - 1  # smallest n with (m+1)(n+1) >= k+1
        v = a * m + b * n
        if best is None or v < best:
            best, witness = v, (m, n)
    return _checked(CapacityResult(k, best, "polydisk_formula", witness))


def ck_union(parts, k) -> CapacityResult:
    """c_k of a union from a DP built for this k alone."""
    if isinstance(parts, DisjointUnion):
        parts = parts.parts
    table = _UnionParts(parts)
    if not table.parts:
        raise ValueError("disjoint union needs at least one part")
    k = _nonneg_k(k)
    _union_table(table, k)
    return table.result(k, "union_dp")


def ck_concave_via_weights(omega, k) -> CapacityResult:
    """c_k of a concave domain from its weight expansion, for this k alone."""
    k = _nonneg_k(k)
    if k == 0:
        return CapacityResult(0, Fraction(0), "weights", ())
    ws = weight_expansion(omega)
    # at most k parts can receive a positive share, and the ball formula
    # prefers larger sizes, so the k largest weights suffice
    table = _UnionParts([Ball(w) for w in ws[:k]])
    _union_table(table, k)
    return table.result(k, "weights")
