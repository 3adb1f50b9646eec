"""Polygon validation in integers against the Fraction implementation it
replaced (tests/polygon_oracle.py), on seeded random inputs of every kind
in tests/random_polygons.py: the same canonical polygons, flags, volumes,
keys and weights, and the same ValueError text."""

import functools
import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest

import polygon_oracle as oracle
import symcap.domains as dom
from random_polygons import KINDS, polygons
from symcap.geometry import Polygon, is_convex, rational_str
from symcap.weights import negative_weight_sequence, weight_expansion

CASES = polygons(20221, 3000)


@functools.cache
def _oracle() -> list:
    """Per case: its kind and points, the oracle's cycle, canonical polygon
    and two flags, the flags None when the polygon is rejected."""
    out = []
    for kind, pts in CASES:
        canonical = _outcome(oracle.canonical_omega, pts)
        flags = None if _failed(canonical) else (oracle.convex_toric_flag(canonical),
                                                 oracle.concave_toric_flag(canonical))
        out.append((kind, pts, _outcome(oracle.from_points, pts), canonical, flags))
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _failed(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[:1] == (ValueError,)


def _oracle_key(family, canonical) -> str:
    return json.dumps({"type": family.TYPE,
                       "vertices": [[rational_str(x), rational_str(y)] for x, y in canonical]},
                      sort_keys=True, separators=(",", ":"))


def _check_family(family, flag, pts, canonical, flags):
    got = _outcome(family, pts)
    if _failed(canonical):
        assert got == canonical
        return None
    if not flag:
        assert got == (ValueError, family._INVALID)
        return None
    assert got.omega == Polygon.from_points(canonical)
    assert (got.convex, got.concave) == flags
    assert got.volume() == oracle.signed_area(canonical)
    assert got.key == _oracle_key(family, canonical)
    return got


@pytest.mark.parametrize("kind", KINDS)
def test_validation_matches_the_fraction_oracle(kind):
    for case, pts, want, canonical, flags in _oracle():
        if case != kind:
            continue
        got = _outcome(Polygon.from_points, pts)
        if _failed(want):
            assert got == want, pts
        else:
            assert got.vertices == want, pts
            assert got.signed_area() == oracle.signed_area(want), pts
            assert is_convex(got) == oracle.is_convex(want), pts
        got = _outcome(dom.canonical_omega, pts)
        if _failed(canonical):
            assert got == canonical, pts
        else:
            assert got.vertices == canonical, pts
            assert got.scale == math.lcm(*(x.denominator for p in canonical for x in p))
            assert got.ints == tuple((x * got.scale, y * got.scale) for x, y in canonical)
            assert got.area2 == 2 * oracle.signed_area(canonical) * got.scale ** 2
        convex = _check_family(dom.ConvexToric, flags and flags[0], pts, canonical, flags)
        concave = _check_family(dom.ConcaveToric, flags and flags[1], pts, canonical, flags)
        if convex is not None:
            head, negatives = oracle.negative_weight_sequence(canonical)
            assert negative_weight_sequence(convex) == (head, negatives), pts
        if concave is not None:
            assert weight_expansion(concave) == oracle.weight_expansion(canonical), pts


def test_random_polygons_reach_every_outcome():
    # a rejection counts by its message up to the first detail
    seen = Counter(flags or canonical[1].split(" (")[0].split(" at ")[0].split(":")[0]
                   for _, _, _, canonical, flags in _oracle())
    assert seen[(True, False)] >= 500 and seen[(False, True)] >= 300
    assert seen[(True, True)] >= 100 and seen[(False, False)] >= 200
    assert seen["degenerate polygon"] >= 300 and seen["moment polygon has zero area"] >= 100
    assert seen["moment polygon vertex"] >= 300
    assert seen["moment polygon must have the origin as a vertex"] >= 200


def test_floats_are_rejected_with_the_same_text():
    for pts in ([(0, 0), (1.5, 0), (0, 1)], [(0, 0), ("2", 0), (0, 0.5)]):
        assert _outcome(dom.canonical_omega, pts) == _outcome(oracle.canonical_omega, pts)
        assert _outcome(dom.ConvexToric, pts) == _outcome(oracle.canonical_omega, pts)


def test_the_integer_polygon_is_over_the_canonical_denominator():
    # the merged midpoint's denominator 7 does not survive
    c = dom.canonical_omega([(0, 0), (F(2, 7), 0), (2, 0), (0, F(3, 2))])
    assert (c.scale, c.ints, c.area2) == (2, ((0, 0), (4, 0), (0, 3)), 12)
