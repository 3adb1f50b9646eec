"""The test suite's one seeded random generator: raw moment-polygon inputs,
valid and not; domains of every family; and lattice paths.

polygons(seed, count) returns (kind, points) pairs.  The points are what a
caller hands to a constructor: ints, "p/q" strings and Fractions mixed, in
any rotation and orientation.  The kinds:

  cut_rectangle  a rectangle with its outer corner cut once or twice
  up_left_walk   (0,0), (a,0), a walk of up-left edges turning left, (0,b);
                 some of its first and last edges lean the wrong way
  staircase      (0,0), (a,0), a down-right chain of increasing slopes, (0,b)
  star           vertices around an inner point, sorted by angle, often
                 with a reflex corner
  scramble       a few points in any order
  spike          a base polygon with a vertex doubled back along an edge
  collinear      a base polygon with points inserted along its edges
  repeated       a base polygon with repeated vertices and closing points
  shifted        a base polygon moved off the origin, maybe off the quadrant
  zero_area      points on one line, or a figure eight of zero signed area

Any of them may be drawn reversed, rotated or both.

domain(rng, family) draws a domain of one of FAMILIES, its sizes in (1, 3]:
a convex toric domain is a cut rectangle or an up-left walk, redrawn until
it is convex toric, and a concave one is a staircase.  The family
"toric_union", not in FAMILIES, draws a union of 2 or 3 parts from two
balls, an ellipsoid, a staircase and a convex draw, one of them toric.
"tie_union", not in FAMILIES either, draws a union of 3 or 4 of the fixed
TIE_PARTS, whose values tie often, within a part and across parts.
convex_path(rng) and concave_path(rng) draw valid lattice paths of either
kind.
"""

import math
import random
from fractions import Fraction as F

import symcap.domains as dom
import symcap.paths as paths

KINDS = ("cut_rectangle", "up_left_walk", "staircase", "star", "scramble",
         "spike", "collinear", "repeated", "shifted", "zero_area")


def _size(rng):
    return F(rng.randint(1, 40), rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 12)))


def _cut_rectangle(rng, size=_size):
    a, b = size(rng), size(rng)
    cut = sorted({F(rng.randint(1, 9), 10) for _ in range(4)})
    if len(cut) >= 2 and rng.random() < 0.5:
        return [(0, 0), (a, 0), (a, b * cut[0]), (a * cut[-1], b * cut[-1]),
                (a * cut[0], b), (0, b)]
    return [(0, 0), (a, 0), (a, b * cut[0]), (a * cut[-1], b), (0, b)]


def _angle(d):
    """Direction of d, counterclockwise from the positive x-axis; for
    ordering only."""
    return math.atan2(d[1], d[0]) % (2 * math.pi)


def _up_left_walk(rng, size=_size):
    dirs = [(-size(rng) * rng.randint(0, 3), size(rng) * rng.randint(0, 3))
            for _ in range(rng.randint(1, 5))]
    dirs = [d for d in dirs if d != (0, 0)] or [(F(-1), F(1))]
    if rng.random() < 0.3:  # a first edge leaning right or a last one leaning down
        dirs.append((size(rng), size(rng)) if rng.random() < 0.5 else (-size(rng), -size(rng)))
    x = y = F(0)
    walk = []
    for dx, dy in sorted(dirs, key=_angle):
        x, y = x + dx, y + dy
        walk.append((x, y))
    return [(0, 0), (-x, 0), *((px - x, py) for px, py in walk)]


def _staircase(rng, size=_size):
    slopes = sorted({F(-rng.randint(1, 12), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))})
    chain = [(F(0), F(0))]
    for s in slopes:
        dx = size(rng)
        chain.append((chain[-1][0] + dx, chain[-1][1] + s * dx))
    a, low = chain[-1]
    return [(0, 0), (a, 0), *((x, y - low) for x, y in reversed(chain[1:-1])), (0, -low)]


def _star(rng):
    """Vertices around an inner point, by angle; one is often the origin."""
    cx, cy = _size(rng), _size(rng)
    dirs = {(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(3, 7))} - {(0, 0)}
    out = [(cx + dx * _size(rng) / 4, cy + dy * _size(rng) / 4) for dx, dy in sorted(dirs, key=_angle)]
    if out and rng.random() < 0.7:
        out[min(range(len(out)), key=lambda i: out[i][0] + out[i][1])] = (0, 0)
    return out or [(0, 0), (1, 0), (0, 1)]


def _scramble(rng):
    return [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(3, 6))]


def _base(rng):
    return rng.choice((_cut_rectangle, _up_left_walk, _staircase, _star))(rng)


def _spike(rng):
    pts = _base(rng)
    i = rng.randrange(len(pts))
    (px, py), (qx, qy) = pts[i], pts[(i + 1) % len(pts)]
    t = F(rng.randint(1, 3), 4)
    # out to q and back to a point of the edge: a reversal at q
    return pts[:i + 1] + [(qx, qy), (px + t * (qx - px), py + t * (qy - py))] + pts[i + 1:]


def _collinear(rng):
    pts = _base(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(pts))
        (px, py), (qx, qy) = pts[i], pts[(i + 1) % len(pts)]
        ts = sorted({F(rng.randint(1, 9), 10) for _ in range(rng.randint(1, 3))})
        pts[i + 1:i + 1] = [(px + t * (qx - px), py + t * (qy - py)) for t in ts]
    return pts


def _repeated(rng):
    pts = _base(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(pts))
        pts.insert(i, pts[i])
    return pts + [pts[0]] * rng.randint(0, 2)


def _shifted(rng):
    sx, sy = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3), rng.randint(1, 4))
    return [(F(x) + sx, F(y) + sy) for x, y in _base(rng)]


def _zero_area(rng):
    if rng.random() < 0.5:
        dx, dy = rng.randint(0, 3), rng.randint(0, 3)
        return [(k * dx, k * dy) for k in rng.sample(range(6), rng.randint(3, 5))]
    a, b = _size(rng), _size(rng)
    return [(0, 0), (a, b), (a, 0), (0, b)]


_MAKERS = {"cut_rectangle": _cut_rectangle, "up_left_walk": _up_left_walk,
           "staircase": _staircase, "star": _star, "scramble": _scramble, "spike": _spike,
           "collinear": _collinear, "repeated": _repeated, "shifted": _shifted,
           "zero_area": _zero_area}


def _spell(rng, q):
    """q as an int, a "p/q" string or a Fraction."""
    q = F(q)
    form = rng.randrange(3)
    if form == 0 and q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}" if form == 1 else q


def polygons(seed, count) -> list:
    """count (kind, points) pairs, the kinds in turn."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        kind = KINDS[n % len(KINDS)]
        pts = _MAKERS[kind](rng)
        if rng.random() < 0.3:
            pts = pts[::-1]
        if rng.random() < 0.5:
            r = rng.randrange(len(pts))
            pts = pts[r:] + pts[:r]
        out.append((kind, [(_spell(rng, x), _spell(rng, y)) for x, y in pts]))
    return out


# --- domains ----------------------------------------------------------------

FAMILIES = ("ball", "ellipsoid", "polydisk", "cp2", "s2xs2", "union", "ball_union",
            "convex", "concave")


def _small(rng):
    """A size in (1, 3]."""
    q = rng.choice((1, 2, 3, 5, 7, 11))
    return F(rng.randint(q + 1, 3 * q), q)


_SIZED = {"ball": dom.Ball, "ellipsoid": dom.Ellipsoid, "polydisk": dom.Polydisk,
          "cp2": dom.CP2, "s2xs2": dom.S2xS2}
_CONVEX = {"cut_rectangle": _cut_rectangle, "up_left_walk": _up_left_walk}
# polydisks whose actions tie, two equal balls, a ball as an ellipsoid and
# a staircase whose weight balls are 2, 1, 1
TIE_PARTS = (dom.polydisk(1, 1), dom.polydisk(1, 2), dom.polydisk(F(3, 2), 1), dom.ball(1),
             dom.ball(1), dom.ellipsoid(1, 1), dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]))


def domain(rng, family):
    """A domain of the family, or of the convex kind "cut_rectangle" or
    "up_left_walk"; "convex" draws either kind."""
    if family in _SIZED:
        return _SIZED[family](*(_small(rng) for _ in _SIZED[family].FIELDS))
    if family == "union":
        kinds = [rng.choice(("ball", "ellipsoid", "polydisk")) for _ in range(rng.randint(2, 4))]
        return dom.disjoint_union(*(domain(rng, kind) for kind in kinds))
    if family == "ball_union":
        return dom.disjoint_union(*(domain(rng, "ball") for _ in range(rng.randint(2, 5))))
    if family == "toric_union":
        kinds = rng.sample(("ball", "ball", "ellipsoid", "concave", "convex"), rng.randint(2, 3))
        if not {"concave", "convex"} & set(kinds):
            kinds[0] = rng.choice(("concave", "convex"))
        return dom.disjoint_union(*(domain(rng, kind) for kind in kinds))
    if family == "tie_union":
        return dom.disjoint_union(*rng.sample(TIE_PARTS, rng.randint(3, 4)))
    if family == "concave":
        return dom.concave_toric(_staircase(rng, _small))
    make = _CONVEX[rng.choice(list(_CONVEX)) if family == "convex" else family]
    while True:
        try:
            return dom.convex_toric(make(rng, _small))
        except ValueError:
            pass  # an edge leans the wrong way at an axis vertex, or no area


# --- lattice paths ------------------------------------------------------------

def _convex_direction_key(d):
    # clockwise order along a convex path: up-right, right, down-right,
    # down, down-left; by slope, steepest first, inside each group
    p, q = d
    group = 0 if p > 0 and q > 0 else 1 if p > 0 and q == 0 else 2 if p > 0 else 3 if p == 0 else 4
    return (group, -F(q, p) if p else 0)


def convex_path(rng):
    """A valid convex path: empty, an axis segment, or distinct primitive
    directions from the admissible arc in clockwise order with small
    multiplicities, often with up-right first and down-left last edges so
    the path is not monotone."""
    shape = rng.random()
    if shape < 0.02:
        return paths.convex_path([])
    if shape < 0.07:
        return paths.convex_path([(rng.randint(1, 6), 0)])
    if shape < 0.12:
        return paths.convex_path([(0, -rng.randint(1, 6))])
    while True:
        dirs = set()
        for _ in range(rng.randint(1, 5)):
            p, q = rng.randint(-3, 4), rng.randint(-4, 3)
            admissible = p > 0 or (p <= 0 and q < 0)
            if (p, q) != (0, 0) and math.gcd(p, q) == 1 and admissible:
                dirs.add((p, q))
        edges = [(m * p, m * q) for p, q in sorted(dirs, key=_convex_direction_key)
                 for m in [rng.randint(1, 3)]]
        try:
            if edges:
                return paths.convex_path(edges)
        except ValueError:
            pass  # ends left of the y-axis or below the x-axis


def concave_path(rng):
    """A valid concave path: edges with dx >= 1, dy <= -1 and strictly
    increasing slopes, often followed by a horizontal run along the x-axis
    (alone, when no sloped edge was drawn)."""
    slopes = {F(rng.randint(-5, -1), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))}
    edges = [(m * s.denominator, m * s.numerator) for s in sorted(slopes)
             for m in [rng.randint(1, 3)]]
    if not edges or rng.random() < 0.4:
        edges.append((rng.randint(1, 4), 0))
    return paths.concave_path(edges)
