"""Embedding obstructions, scaling bounds, and growth-rate reports.

A symplectic embedding forces every capacity of the source to stay at or
below the matching capacity of the target, so the first index where the
source exceeds the target certifies non-embeddability.  The converse is
not claimed: a clean scan is merely "no obstruction up to k_max".

The scans read one k per step: check_embedding asks ck for the next
index, scaling_lower_bound walks each domain's capacity source
(capacities.capacity_values).  Either way a step reads a value a DP
source holds or grows its prefix by that one index, or steps a closed
form's stream, so a scan that stops early grows no prefix past where it
stopped.

Square roots (for the 2*sqrt(vol*k) growth model) are bracketed by rational
intervals instead of floats, keeping every reported inequality exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .capacities import capacity_values, ck
from .geometry import index, rational


class ObstructionReport(NamedTuple):
    obstructed: bool
    first_k: int | None
    c_source: Fraction | None  # values at first_k when obstructed
    c_target: Fraction | None
    k_max: int
    volume_ok: bool
    table: tuple  # (k, c_source, c_target) rows for the scanned range

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed else "no_obstruction_up_to"


def check_embedding(src, tgt, k_max) -> ObstructionReport:
    """Scan k = 0..k_max for a capacity violation of src -> tgt.

    Each step asks ck for the next index of the source and of the target,
    which only extends their capacity prefixes or steps their closed
    forms' streams (see capacities); stopping at the first violation grows
    neither past it.
    """
    k_max = index(k_max, 1, "k_max")
    volume_ok = src.volume() <= tgt.volume()
    rows = []
    for k in range(k_max + 1):
        cs = ck(src, k).value
        ct = ck(tgt, k).value
        rows.append((k, cs, ct))
        if cs > ct:
            return ObstructionReport(True, k, cs, ct, k_max, volume_ok, tuple(rows))
    return ObstructionReport(False, None, None, None, k_max, volume_ok, tuple(rows))


def scaling_lower_bound(src, tgt, k_max) -> Fraction:
    """max over 1 <= k <= k_max of c_k(src)/c_k(tgt): a lower bound for
    lambda^2 over all embeddings of src into the lambda-scaled target.

    The target must scale quadratically, which rules out the closed
    manifolds; capacities are positive for k >= 1, so no division by zero.
    Both domains' capacities are read one k per step from their capacity
    sources, which grow or step to k_max and no further.
    """
    k_max = index(k_max, 1, "k_max")
    if tgt.CLOSED:
        raise ValueError("scaling bound needs a target that scales "
                         "quadratically; closed manifolds do not")
    best = Fraction(0)
    pairs = zip(capacity_values(src), capacity_values(tgt))
    for cs, ct in itertools.islice(pairs, 1, k_max + 1):
        best = max(best, cs / ct)
    return best


def sqrt_interval(value) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(value) <= hi with hi - lo <= 10^-9."""
    value = rational(value)
    if value < 0:
        raise ValueError("square root of a negative value")
    p, q = value.numerator, value.denominator
    n = math.isqrt(p * q * 10 ** 18)
    return Fraction(n, q * 10 ** 9), Fraction(n + 1, q * 10 ** 9)


class AsymptoticReport(NamedTuple):
    k: int
    value: Fraction
    model_low: Fraction  # bracket of 2*sqrt(vol*k), width <= 2e-9
    model_high: Fraction
    residual_high: Fraction  # upper bound for |c_k - model| / k^(1/4)


def asymptotic_ratio(d, k) -> AsymptoticReport:
    """Compare c_k against the growth model 2*sqrt(vol*k)."""
    k = index(k, 1)
    c = ck(d, k).value
    s_lo, s_hi = sqrt_interval(d.volume() * k)
    model_low, model_high = 2 * s_lo, 2 * s_hi
    # k^(1/4) from below: root of the lower bracket of sqrt(k)
    r_lo, _ = sqrt_interval(Fraction(k))
    q_lo, _ = sqrt_interval(r_lo)
    residual_high = max(abs(c - model_low), abs(c - model_high)) / q_lo
    return AsymptoticReport(k, c, model_low, model_high, residual_high)
