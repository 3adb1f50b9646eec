"""Polygon validation in Fraction arithmetic, as symcap did it before it ran
in integers: the oracle the integer path is checked against.

from_points merges collinear runs with a loop that restarts after every
deletion, canonical_omega works on Fraction vertices, and the convex toric
flag builds the four-fold axis reflection of the polygon and asks whether
it is convex.  The weight expansions peel Fraction chains.  Every function
raises the ValueError text symcap raises.
"""

import math
from fractions import Fraction

from symcap.geometry import point, rational_str


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def from_points(pts) -> tuple:
    """The canonical vertex cycle of pts, orientation kept."""
    out = []
    for p in (point(p[0], p[1]) for p in pts):
        if not out or p != out[-1]:
            out.append(p)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    if len(out) < 3:
        raise ValueError("degenerate polygon: fewer than 3 distinct vertices")
    changed = True
    while changed and len(out) >= 3:
        changed = False
        n = len(out)
        for i in range(n):
            a, b, c = out[i - 1], out[i], out[(i + 1) % n]
            u, v = _sub(b, a), _sub(c, b)
            if _cross(u, v) == 0:
                if u[0] * v[0] + u[1] * v[1] < 0:
                    raise ValueError(f"degenerate polygon: reversal at vertex {b}")
                del out[i]
                changed = True
                break
    if len(out) < 3:
        raise ValueError("degenerate polygon: collapses to a segment")
    return tuple(out)


def signed_area(vs) -> Fraction:
    return sum((_cross(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))), Fraction(0)) / 2


def is_convex(vs) -> bool:
    n = len(vs)
    return all(_cross(_sub(vs[(i + 1) % n], vs[i]), _sub(vs[(i + 2) % n], vs[(i + 1) % n])) >= 0
               for i in range(n))


def canonical_omega(pts) -> tuple:
    """Counterclockwise vertex cycle starting at the origin vertex."""
    vs = from_points(pts)
    if signed_area(vs) == 0:
        raise ValueError("moment polygon has zero area")
    if signed_area(vs) < 0:
        vs = vs[::-1]
    for x, y in vs:
        if x < 0 or y < 0:
            raise ValueError(f"moment polygon vertex ({rational_str(x)},{rational_str(y)}) "
                             "leaves the nonnegative quadrant")
    zero = (Fraction(0), Fraction(0))
    if zero not in vs:
        raise ValueError("moment polygon must have the origin as a vertex")
    i = vs.index(zero)
    return vs[i:] + vs[:i]


def _reflected(canonical) -> tuple:
    # four-fold axis reflection, built from the boundary arc that avoids the
    # origin
    arc = canonical[1:]
    return from_points([*arc,
                        *((-x, y) for x, y in reversed(arc)),
                        *((-x, -y) for x, y in arc),
                        *((x, -y) for x, y in reversed(arc))])


def convex_toric_flag(canonical) -> bool:
    v1, vlast = canonical[1], canonical[-1]
    if not (v1[1] == 0 and v1[0] > 0 and vlast[0] == 0 and vlast[1] > 0):
        return False
    if not is_convex(canonical):
        return False
    try:
        return is_convex(_reflected(canonical))
    except ValueError:
        return False


def check_concave_chain(chain) -> None:
    if len(chain) < 2:
        raise ValueError(f"bad boundary chain (too short): {chain}")
    if not (chain[0][0] == 0 and chain[0][1] > 0 and chain[-1][1] == 0 and chain[-1][0] > 0):
        raise ValueError(f"bad boundary chain (endpoints off the axes): {chain}")
    dirs = []
    for i in range(len(chain) - 1):
        dx = chain[i + 1][0] - chain[i][0]
        dy = chain[i + 1][1] - chain[i][1]
        if not (dx > 0 and dy < 0):
            raise ValueError(f"bad boundary chain (not monotone): {chain}")
        dirs.append((dx, dy))
    for i in range(len(dirs) - 1):
        if _cross(dirs[i], dirs[i + 1]) <= 0:
            raise ValueError(f"bad boundary chain (slopes not increasing): {chain}")


def concave_toric_flag(canonical) -> bool:
    try:
        check_concave_chain(tuple(reversed(canonical[1:])))
    except ValueError:
        return False
    return True


def _expand(chains) -> list:
    """Ball sizes below the Fraction chains, peeled in integers over their
    common denominator and returned as Fractions, sorted nonincreasing."""
    scale = math.lcm(*(c.denominator for chain in chains for p in chain for c in p))
    todo = [tuple((int(x * scale), int(y * scale)) for x, y in chain) for chain in chains]
    out = []
    while todo:
        chain = todo.pop()
        check_concave_chain(chain)
        g = [x + y for x, y in chain]
        r = min(g)
        out.append(r)
        i1, i2 = g.index(r), len(g) - 1 - g[::-1].index(r)
        if i1 > 0:
            todo.append(tuple((x, x + y - r) for x, y in chain[:i1 + 1]))
        if i2 < len(chain) - 1:
            todo.append(tuple((x + y - r, y) for x, y in chain[i2:]))
    return sorted((Fraction(r, scale) for r in out), reverse=True)


def weight_expansion(canonical) -> tuple:
    weights = tuple(_expand([tuple(reversed(canonical[1:]))]))
    assert sum(w * w / 2 for w in weights) == signed_area(canonical)
    return weights


def negative_weight_sequence(canonical) -> tuple:
    """(head, negatives) of a convex toric polygon."""
    chain = tuple(reversed(canonical[1:]))
    g = [x + y for x, y in chain]
    head = max(g)
    i1, i2 = g.index(head), len(g) - 1 - g[::-1].index(head)
    pieces = []
    if i1 > 0:
        pieces.append(tuple((x, head - x - y) for x, y in chain[:i1 + 1]))
    if i2 < len(chain) - 1:
        pieces.append(tuple((head - x - y, y) for x, y in chain[i2:]))
    negatives = tuple(_expand(pieces))
    assert head * head / 2 - sum(w * w / 2 for w in negatives) == signed_area(canonical)
    return head, negatives
