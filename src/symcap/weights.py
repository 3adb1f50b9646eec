"""Ball decompositions of toric moment polygons.

A concave polygon expands into a multiset of ball sizes (its weight
expansion): peel off the largest inscribed triangle {x + y <= r}, shear the
two leftover pieces back onto the axes, repeat on each.  The piece
touching the y-axis maps by (x, y) -> (x, x + y - r) and the piece
touching the x-axis by (x, y) -> (x + y - r, y); both are unimodular, so
areas and lattice structure are preserved.  The multiset fills the
polygon exactly: the sum of a_i^2 / 2 equals the area, asserted on every
call.

A convex polygon instead gets a negative weight sequence: the head is the
smallest h with the polygon contained in the triangle {x + y <= h}, and the
complement splits along the diagonal edge into two corner pieces (either
may be empty).  Shearing by (x, y) -> (x, h - x - y) on the left and
(x, y) -> (h - x - y, y) on the right turns each piece into a concave
polygon, which is then expanded.  Identity: h^2/2 - sum a_i^2/2 = area.

Both shear conventions are validated at runtime: every intermediate piece
must pass the concave-chain checks and the volume identity must close, so
a wrong convention fails loudly instead of silently producing numbers.

The expansion runs a work list of pieces and needs no depth limit: it
ends on every rational polygon.  Let D be the common denominator of the
vertex coordinates.  Every shear is unimodular and every r (and the head
h) is the coordinate sum of a vertex, so all vertices of all pieces stay
in (1/D)Z, and the expansion runs in integers over D, on the integer
points the domain's moment polygon carries (omega.ints over omega.scale).
Each peeled ball therefore has size at least 1/D and area at least
1/(2D^2), and each step peels one ball off the area still to fill, so
expanding a region of area A takes at most 2 D^2 A steps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import domains
from .geometry import Polygon, rational_str


class NegativeWeightDecomposition(NamedTuple):
    head: Fraction
    negatives: tuple[Fraction, ...]


def _expand(chains: list) -> list:
    """Ball sizes of the concave pieces below the integer chains, sorted
    nonincreasing, in the chains' units."""
    todo = list(chains)
    out = []
    while todo:
        chain = todo.pop()
        domains.check_concave_chain(chain)
        g = [x + y for x, y in chain]
        r = min(g)
        out.append(r)
        i1 = g.index(r)
        i2 = len(g) - 1 - g[::-1].index(r)
        if i1 > 0:
            todo.append(tuple((x, x + y - r) for x, y in chain[:i1 + 1]))
        if i2 < len(chain) - 1:
            todo.append(tuple((x + y - r, y) for x, y in chain[i2:]))
    return sorted(out, reverse=True)


def _balls(what: str, head: int, chains: list, c: Polygon) -> tuple[Fraction, ...]:
    """The ball sizes below the integer chains of the polygon c, once the
    volume identity holds in integers: the balls fill c (head 0), or fill
    the head triangle minus c, so sum a_i^2, or head^2 minus it, is
    2 area scale^2."""
    weights = _expand(chains)
    squares = sum(w * w for w in weights)
    got = head * head - squares if head else squares
    if got != c.area2:
        unit = 2 * c.scale ** 2
        raise ValueError(f"volume identity failed for {what} (got "
                         f"{rational_str(Fraction(got, unit))}, want "
                         f"{rational_str(Fraction(c.area2, unit))})")
    return tuple(Fraction(w, c.scale) for w in weights)


def weight_expansion(d) -> tuple[Fraction, ...]:
    """Ball sizes filling a concave region, sorted nonincreasing."""
    c = d.omega
    if c is None:
        raise ValueError("domain has no moment polygon")
    return _balls("weight expansion", 0, [c.ints[:0:-1]], c)


def negative_weight_sequence(d) -> NegativeWeightDecomposition:
    """Head size plus the ball sizes of the two sheared corner pieces of the
    head triangle minus the polygon, sorted nonincreasing."""
    if not d.convex:
        raise ValueError("negative weight sequence needs a convex toric polygon")
    c = d.omega
    chain = c.ints[:0:-1]
    g = [x + y for x, y in chain]
    head = max(g)
    # x + y is unimodal along the chain, so the peak is a vertex or one
    # diagonal edge; the corner pieces sit strictly before and after it
    i1 = g.index(head)
    i2 = len(g) - 1 - g[::-1].index(head)
    pieces = []
    if i1 > 0:
        pieces.append(tuple((x, head - x - y) for x, y in chain[:i1 + 1]))
    if i2 < len(chain) - 1:
        pieces.append(tuple((head - x - y, y) for x, y in chain[i2:]))
    return NegativeWeightDecomposition(Fraction(head, c.scale),
                                       _balls("negative weight sequence", head, pieces, c))
