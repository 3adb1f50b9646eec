"""One seeded generator of rational moment-polygon inputs, valid and not.

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
"""

import math
import random
from fractions import Fraction as F

KINDS = ("cut_rectangle", "up_left_walk", "staircase", "star", "scramble",
         "spike", "collinear", "repeated", "shifted", "zero_area")


def _size(rng):
    return F(rng.randint(1, 40), rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 12)))


def _cut_rectangle(rng):
    a, b = _size(rng), _size(rng)
    cut = sorted({F(rng.randint(1, 9), 10) for _ in range(4)})
    if len(cut) >= 2 and rng.random() < 0.5:
        return [(0, 0), (a, 0), (a, b * cut[0]), (a * cut[-1], b * cut[-1]),
                (a * cut[0], b), (0, b)]
    return [(0, 0), (a, 0), (a, b * cut[0]), (a * cut[-1], b), (0, b)]


def _angle(d):
    """Direction of d, counterclockwise from the positive x-axis; for
    ordering only."""
    return math.atan2(d[1], d[0]) % (2 * math.pi)


def _up_left_walk(rng):
    dirs = [(-_size(rng) * rng.randint(0, 3), _size(rng) * rng.randint(0, 3))
            for _ in range(rng.randint(1, 5))]
    dirs = [d for d in dirs if d != (0, 0)] or [(F(-1), F(1))]
    if rng.random() < 0.3:  # a first edge leaning right or a last one leaning down
        dirs.append((_size(rng), _size(rng)) if rng.random() < 0.5 else (-_size(rng), -_size(rng)))
    x = y = F(0)
    walk = []
    for dx, dy in sorted(dirs, key=_angle):
        x, y = x + dx, y + dy
        walk.append((x, y))
    return [(0, 0), (-x, 0), *((px - x, py) for px, py in walk)]


def _staircase(rng):
    slopes = sorted({F(-rng.randint(1, 12), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))})
    chain = [(F(0), F(0))]
    for s in slopes:
        dx = _size(rng)
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
