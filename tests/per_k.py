"""Per-k reference formulas: each computes one c_k alone, from scratch.

The capacity prefixes in symcap.capacities grow whole sequences; these
are the independent per-k computations the tests compare them against.
The union maximum here shares no code with the production DP: it offers
every part every share, in Fractions.
"""

from fractions import Fraction

from symcap.capacities import CapacityResult, _checked, ball_multiplicity, capacity_sequence
from symcap.domains import Ball, DisjointUnion
from symcap.geometry import index, rational
from symcap.paths import min_convex
from symcap.weights import negative_weight_sequence, weight_expansion


def ck_polydisk(a, b, k) -> CapacityResult:
    a, b = rational(a), rational(b)
    if a <= 0 or b <= 0:
        raise ValueError("polydisk factors must be positive")
    k = index(k)
    best = None
    witness = None
    for m in range(k + 1):
        n = -(-(k + 1) // (m + 1)) - 1  # smallest n with (m+1)(n+1) >= k+1
        v = a * m + b * n
        if best is None or v < best:
            best, witness = v, (m, n)
    return _checked(CapacityResult(k, best, "polydisk_formula", witness))


def _fold(seqs) -> list:
    """(max of sum seqs[i][k_i] over k_1+...+k_m = j, its composition) for
    each j below the sequences' common length.

    Parts are folded in left to right: the best total of the first i+1
    parts at j is the largest (best of the first i at j-t) + seqs[i][t],
    and a tie keeps the smallest share t for the later part i."""
    best = [(v, (j,)) for j, v in enumerate(seqs[0])]
    for seq in seqs[1:]:
        folded = []
        for j in range(len(seq)):
            top = None
            for t in range(j + 1):
                v = best[j - t][0] + seq[t]
                if top is None or v > top[0]:
                    top = (v, best[j - t][1] + (t,))
            folded.append(top)
        best = folded
    return best


def ck_union(parts, k) -> CapacityResult:
    """c_k of a union: the maximum over compositions of k, each part's
    c_0..c_k read from its sequence."""
    if isinstance(parts, DisjointUnion):
        parts = parts.parts
    if not parts:
        raise ValueError("disjoint union needs at least one part")
    k = index(k)
    value, comp = _fold([[r.value for r in capacity_sequence(p, k)] for p in parts])[k]
    return _checked(CapacityResult(k, value, "union_dp", comp))


def ck_concave_via_weights(omega, k) -> CapacityResult:
    """c_k of a concave domain from its weight expansion, for this k alone."""
    k = index(k)
    if k == 0:
        return CapacityResult(0, Fraction(0), "weights", ())
    # at most k parts can receive a positive share, and the ball formula
    # prefers larger sizes, so the k largest weights suffice
    balls = [Ball(w) for w in weight_expansion(omega)[:k]]
    return ck_union(balls, k)._replace(method="weights")


def ck_convex_from_paths(omega, k) -> CapacityResult:
    """c_k of a convex domain: the convex path optimum, with the witness
    the weight formula gives it, the first shift l at which
    c_{k+l}(B(h)) - c_l(union of the excised balls) reaches that value."""
    k = index(k)
    value = min_convex(omega, k).value
    dec = negative_weight_sequence(omega)
    for n in (16, 64, 256, 1024):
        excised = [0] * (n + 1)
        if dec.negatives:
            seqs = [[r.value for r in capacity_sequence(Ball(w), n)] for w in dec.negatives]
            excised = [v for v, _ in _fold(seqs)]
        for l, c in enumerate(excised):
            if ball_multiplicity(k + l) * dec.head - c == value:
                return CapacityResult(k, value, "weights", {"l": l})
    raise AssertionError(f"no shift up to {n} reaches c_{k} = {value}")
