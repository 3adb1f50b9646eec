"""Geometry primitives: rationals, polygons, lattice counting.

The library counts lattice points with Pick's theorem; the tests recount
column by column, interpolating each edge with Fractions, as an
independent oracle, on hand-picked and on seeded random convex and
concave paths (tests/random_polygons.py).
"""

import math
import random
from fractions import Fraction as F

import pytest

from random_polygons import concave_path, convex_path
from symcap.geometry import (cross, cycle, index, is_convex,
                             lattice_points_on_path,
                             lattice_points_under_path, path_vertices,
                             rational, rational_str)


def _column_count(edges, start_y, include_path=True):
    """Lattice points of the region (0,0),(0,start_y),...,(a,0) counted
    column by column: each integer column x meets the column-convex region
    in one interval, read off the edges crossing it."""
    cycle = [(0, 0)]
    for v in path_vertices(edges, start_y):
        if v != cycle[-1]:
            cycle.append(v)
    while len(cycle) > 1 and cycle[-1] == cycle[0]:
        cycle.pop()
    n = len(cycle)
    if n == 1:
        count = 1
    else:
        if min(v[0] for v in cycle) < 0 or min(v[1] for v in cycle) < 0:
            raise ValueError("path region leaves the nonnegative quadrant")
        count = 0
        for x0 in range(max(v[0] for v in cycle) + 1):
            ylo = yhi = None
            # a two-vertex cycle is a segment: one geometric edge
            for i in range(n if n > 2 else 1):
                (px, py), (qx, qy) = cycle[i], cycle[(i + 1) % n]
                if min(px, qx) <= x0 <= max(px, qx):
                    if px == qx:
                        lo, hi = min(py, qy), max(py, qy)
                    else:
                        lo = hi = F(py) + F(qy - py, qx - px) * (x0 - px)
                    ylo = lo if ylo is None else min(ylo, lo)
                    yhi = hi if yhi is None else max(yhi, hi)
            if ylo is not None:
                count += math.floor(yhi) - math.ceil(ylo) + 1
    if include_path:
        return count
    return count - lattice_points_on_path(edges)


def test_rational_round_trip():
    for r in [F(0), F(1), F(-3, 7), F(22, 6), F(10**40, 3)]:
        assert rational(rational_str(r)) == r
    assert rational("3/2") == F(3, 2)
    assert rational("-4") == -4
    assert rational(5) == 5


def test_rational_rejects_floats():
    with pytest.raises(ValueError):
        rational(0.5)
    with pytest.raises(ValueError):
        rational(None)
    with pytest.raises(ValueError):
        rational("7/0")


def test_rational_accepts_only_integers_and_ratios():
    # decimal and exponent notation are rejected before Fraction sees them:
    # Fraction("1e999999999") would compute 10**999999999
    for s in ("1e3", "1.5", "1e999999999", "1_000", "½", "1/2/3", ""):
        with pytest.raises(ValueError, match="^not a rational: "):
            rational(s)
    assert [rational(s) for s in ("7", " -3/4 ", "+2/6", "0")] == [7, F(-3, 4), F(1, 3), 0]


def test_rational_rejects_bools():
    # JSON true is a bool, and a bool is an int: not a size of 1
    for b in (True, False):
        with pytest.raises(ValueError, match=r"\), got bool$"):
            rational(b)


def test_index_accepts_only_ints():
    assert index(0) == 0 and index(7, 1, "k_max") == 7 and index(10 ** 30) == 10 ** 30
    for k, kind in ((2.9, "float"), (2.0, "float"), (F(5, 2), "Fraction"), (F(2), "Fraction"),
                    ("3", "str"), (True, "bool"), (None, "NoneType")):
        with pytest.raises(ValueError, match=f"^k must be an int, got {kind}$"):
            index(k)
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        index(-1)
    with pytest.raises(ValueError, match="^k_max must be at least 1$"):
        index(0, 1, "k_max")


def test_is_convex_examples():
    assert is_convex(cycle([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert not is_convex(cycle([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)]))
    assert is_convex(cycle([(0, 0), (1, 0), (0, 2)]))


def test_is_convex_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle([(0, 0), (1, 0)])


def test_collinear_vertices_merged():
    p = cycle([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert len(p.vertices) == 4
    assert (F(1), F(0)) not in p.vertices


def test_under_path_examples():
    assert lattice_points_under_path((), 0, include_path=True) == 1
    assert lattice_points_under_path(((2, -2),), 2, include_path=True) == 6
    assert lattice_points_under_path(((1, -1),), 1, include_path=False) == 1


def test_under_path_degenerate_segments():
    # flat region along the x-axis: the path itself
    assert lattice_points_under_path(((3, 0),), 0, include_path=True) == 4
    assert lattice_points_under_path(((0, -2),), 2, include_path=True) == 3
    # a segment up the y-axis, with nothing walked
    assert lattice_points_under_path((), 3, include_path=True) == 4
    assert lattice_points_under_path((), 3, include_path=False) == 3
    # a concave path ending in a run along the x-axis: triangle plus segment
    assert lattice_points_under_path(((1, -2), (2, 0)), 2, include_path=True) == 6
    assert lattice_points_under_path(((1, -2), (2, 0)), 2, include_path=False) == 2


def test_points_on_path_counts_interior_edge_points():
    assert lattice_points_on_path(((2, -2),)) == 3  # (0,2),(1,1),(2,0)
    assert lattice_points_on_path(((3, -1),)) == 2
    assert lattice_points_on_path(()) == 1


def _pick_count(cycle) -> int:
    # closed lattice polygon: I + B = A + B/2 + 1
    area2 = 0
    boundary = 0
    n = len(cycle)
    for i in range(n):
        x1, y1 = cycle[i]
        x2, y2 = cycle[(i + 1) % n]
        area2 += x1 * y2 - x2 * y1
        boundary += math.gcd(abs(x2 - x1), abs(y2 - y1))
    area = F(abs(area2), 2)
    total = area + F(boundary, 2) + 1
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("edges,b", [
    (((2, -2),), 2),
    (((1, -3),), 3),
    (((3, -1),), 1),
    (((1, 0), (1, -1), (0, -2)), 3),
    (((2, 1), (1, -2), (-1, -2)), 3),   # non-monotone convex path
    (((1, 2), (2, -1), (1, -3)), 2),
])
def test_columnwise_count_matches_pick(edges, b):
    cycle = [(0, 0), (0, b)]
    x, y = 0, b
    for dx, dy in edges:
        x, y = x + dx, y + dy
        cycle.append((x, y))
    cycle.append((x, 0))
    dedup = [p for i, p in enumerate(cycle) if p != cycle[i - 1]]
    if dedup[0] == dedup[-1]:
        dedup.pop()
    want = _pick_count(dedup)
    assert lattice_points_under_path(edges, b, include_path=True) == want
    assert _column_count(edges, b) == want


@pytest.mark.parametrize("edges,b", [
    (((2, -2),), 2),
    (((1, -1),), 1),
    (((1, 0), (1, -1), (0, -2)), 3),
    (((1, -2),), 2),
])
def test_include_minus_exclude_is_path_count(edges, b):
    inc = lattice_points_under_path(edges, b, include_path=True)
    exc = lattice_points_under_path(edges, b, include_path=False)
    assert inc - exc == lattice_points_on_path(edges)


def test_region_must_stay_in_quadrant():
    with pytest.raises(ValueError):
        lattice_points_under_path(((1, -2),), 1, include_path=True)
    with pytest.raises(ValueError):
        lattice_points_under_path(((-2, -1),), 1, include_path=True)
    for count in (lattice_points_under_path, _column_count):
        with pytest.raises(ValueError):
            count(((1, 1), (1, -3)), 1)
        with pytest.raises(ValueError):
            count((), -1)


@pytest.mark.parametrize("make", [convex_path, concave_path])
def test_pick_matches_column_scan_on_random_paths(make):
    rng = random.Random(20221)
    for _ in range(300):
        path = make(rng)
        for include_path in (True, False):
            want = _column_count(path.edges, path.start_y, include_path)
            got = lattice_points_under_path(path.edges, path.start_y, include_path)
            assert got == want, (path, include_path)


def test_random_convex_paths_cover_the_degenerate_and_non_monotone_cases():
    rng = random.Random(20221)
    drawn = [convex_path(rng) for _ in range(300)]
    assert any(len(p.edges) == 1 and p.edges[0][1] == 0 for p in drawn)
    assert any(len(p.edges) == 1 and p.edges[0][0] == 0 for p in drawn)
    drawn = [p for p in drawn if len(p.edges) > 1]
    assert any(p.edges[0][1] > 0 for p in drawn)
    assert any(p.edges[-1][0] < 0 for p in drawn)
    rng = random.Random(20221)
    drawn = [concave_path(rng) for _ in range(300)]
    assert any(len(p.edges) > 1 and p.edges[-1][1] == 0 for p in drawn)
    assert any(p.edges[-1][1] < 0 for p in drawn)


def test_polygon_rejects_spike():
    # a doubled-back vertex is not a simple polygon
    with pytest.raises(ValueError):
        cycle([(0, 0), (2, 0), (1, 0), (1, 2)])


def test_cross_sign():
    assert cross((1, 0), (0, 1)) == 1
    assert cross((0, 1), (1, 0)) == -1
    assert cross((2, 3), (4, 6)) == 0
