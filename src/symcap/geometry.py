"""Exact planar geometry over the rationals.

Conventions used throughout the package:

  * scalars are fractions.Fraction, never floats;
  * points are (x, y) pairs of Fractions;
  * polygons are vertex cycles with consecutive duplicates dropped and
    collinear runs merged, orientation as supplied by the caller.  A
    Polygon carries its Fraction points and, from the one integer pass
    that canonicalizes it, the same points over their common denominator
    (ints, scale) and twice its area in those units (area2);
  * lattice paths live on integer coordinates and are encoded by their
    integer edge vectors, walked from (0, start_y).

Lattice-point counts are exact integers from Pick's theorem on the
integer region, O(edges) in Python ints; the tests recount column by
column as an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Point = tuple[Fraction, Fraction]
Edge = tuple[int, int]


def rational(x) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction.

    Strings accept "p/q" and plain "p". Floats and bools are rejected: every
    quantity in this library is exact and rounding must never slip in
    silently.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {x!r}") from exc
    # floats included: a binary float is not the number the user wrote down,
    # and a bool (JSON true) is not a number at all
    raise ValueError(f"expected an exact rational (int, 'p/q' string, or "
                     f"Fraction), got {type(x).__name__}")


def integer(v, name: str):
    """v, if it is an int that is not a bool: a float, Fraction or string
    would otherwise be truncated in silence."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{name} must be an int, got {type(v).__name__}")
    return v


def index(k, least: int = 0, name: str = "k") -> int:
    """k, an integer, as an index of at least `least`."""
    k = integer(k, name)
    if k < least:
        raise ValueError(f"{name} must be nonnegative" if least == 0
                         else f"{name} must be at least {least}")
    return k


def rational_str(q) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    q = rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def point(x, y) -> Point:
    return (rational(x), rational(y))


def cross(u: Sequence, v: Sequence):
    """2D cross product u x v; sign gives the turn direction u -> v."""
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Sequence, v: Sequence):
    return u[0] * v[0] + u[1] * v[1]


class Polygon(NamedTuple):
    """A canonical vertex cycle: its exact points, and the same points as
    integers over their common denominator, (x, y) standing for
    (x/scale, y/scale); area2 is twice the signed area times scale^2.
    Built by from_points (or cycle), which canonicalizes but never
    reorders: no two consecutive vertices equal, no straight-through
    vertex (collinear run) survives, and direction reversals (spikes) are
    rejected outright.  It prints as its points alone."""

    vertices: tuple[Point, ...]
    ints: tuple[tuple[int, int], ...]
    scale: int
    area2: int

    def __repr__(self) -> str:
        return f"Polygon(vertices={self.vertices!r})"

    @staticmethod
    def from_points(pts: Iterable) -> "Polygon":
        return cycle(pts)

    def signed_area(self) -> Fraction:
        return Fraction(self.area2, 2 * self.scale * self.scale)


def _polygon(vertices: Sequence[Point]) -> Polygon:
    """The Fraction points in integers over their common denominator."""
    scale = math.lcm(*(c.denominator for p in vertices for c in p))
    ints = tuple((x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
                 for x, y in vertices)
    area2 = sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in zip(ints, ints[1:] + ints[:1]))
    return Polygon(tuple(vertices), ints, scale, area2)


def cycle(pts: Iterable) -> Polygon:
    """The canonical cycle of pts: consecutive duplicates and closing
    repeats dropped, straight-through vertices merged, a reversal
    rejected, all in integers over the points' common denominator.
    Merging a vertex keeps the directions of its neighbours' edges, so one
    scan with each vertex's first neighbours merges and rejects as a
    rescan after each merge would."""
    pts = [point(p[0], p[1]) for p in pts]
    ints = _polygon(pts).ints
    out: list[int] = []  # indices of the distinct points, each vertex's first neighbours
    for i, p in enumerate(ints):
        if not out or p != ints[out[-1]]:
            out.append(i)
    while len(out) > 1 and ints[out[0]] == ints[out[-1]]:
        out.pop()
    if len(out) < 3:
        raise ValueError("degenerate polygon: fewer than 3 distinct vertices")
    kept: list[int] = []
    for j, i in enumerate(out):
        if len(kept) + len(out) - j < 3:  # where a rescan would stop
            break
        (ax, ay), (bx, by), (cx, cy) = ints[out[j - 1]], ints[i], ints[out[j + 1 - len(out)]]
        ux, uy, vx, vy = bx - ax, by - ay, cx - bx, cy - by
        if ux * vy != uy * vx:
            kept.append(i)
        elif ux * vx + uy * vy < 0:
            raise ValueError(f"degenerate polygon: reversal at vertex {pts[i]}")
    if len(kept) < 3:
        raise ValueError("degenerate polygon: collapses to a segment")
    return _polygon([pts[i] for i in kept])


def is_convex(p: Polygon) -> bool:
    """True iff every consecutive edge pair turns left or goes straight, so
    True only for counterclockwise vertex order."""
    ints = p.ints
    return all((bx - ax) * (cy - by) >= (by - ay) * (cx - bx) for (ax, ay), (bx, by), (cx, cy)
               in zip(ints[-2:] + ints[:-2], ints[-1:] + ints[:-1], ints))


def path_vertices(edges: Sequence[Edge], start_y: int) -> list[tuple[int, int]]:
    """Integer vertices visited by the path, start point included."""
    x, y = 0, integer(start_y, "start_y")
    verts = [(x, y)]
    for dx, dy in edges:
        x += integer(dx, "edge entry")
        y += integer(dy, "edge entry")
        verts.append((x, y))
    return verts


def lattice_points_on_path(edges: Sequence[Edge]) -> int:
    """Lattice points lying on the path itself (a single point if empty)."""
    total = 1
    for dx, dy in edges:
        total += math.gcd(abs(dx), abs(dy))
    return total


def lattice_points_under_path(edges: Sequence[Edge], start_y: int,
                              include_path: bool = True) -> int:
    """Count lattice points of the region bounded by the path and the axes.

    The region is the closed polygon (0,0),(0,start_y),...,(a,0); it must be
    simple, possibly with segments traced out and back (true for every valid
    convex or concave path, degenerate axis segments and a concave path's
    terminal run along the x-axis included).  With include_path False,
    points lying on the path itself (its endpoints included) are not
    counted; points on the axis closures still are.

    Pick's theorem, I + B = A + B/2 + 1, walked around the region once: the
    shoelace sum gives 2A and gcds give the boundary points B.  A segment
    traced both ways adds its length to B twice and nothing to A, which
    counts its points exactly once.
    """
    b = integer(start_y, "start_y")
    x, y = 0, b
    area2 = 0
    on_path = 0
    xmin = 0
    ymin = y
    for dx, dy in edges:
        dx, dy = integer(dx, "edge entry"), integer(dy, "edge entry")
        area2 += x * dy - y * dx  # cross((x, y), (x+dx, y+dy))
        on_path += math.gcd(dx, dy)
        x += dx
        y += dy
        if x < xmin:
            xmin = x
        if y < ymin:
            ymin = y
    if xmin < 0 or ymin < 0:
        raise ValueError("path region leaves the nonnegative quadrant")
    # axis legs (0,0)->(0,start_y) and the closing edge back to the origin
    boundary = b + on_path + math.gcd(x, y)
    count = (abs(area2) + boundary) // 2 + 1
    if include_path:
        return count
    return count - on_path - 1
