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

Both shear conventions are validated at runtime: every chain the
expansion peels must pass the concave-chain checks and the volume
identity must close, so a wrong convention fails loudly instead of
silently producing numbers.

The expansion runs a work list of pieces and needs no depth limit: it
ends on every rational polygon.  Let D be the common denominator of the
vertex coordinates.  Every shear is unimodular and every r (and the head
h) is the coordinate sum of a vertex, so all vertices of all pieces stay
in (1/D)Z, and the expansion runs in integers over D, on the integer
points the domain's moment polygon carries (omega.ints over omega.scale).
It yields runs (size, count): one per size, sizes decreasing, so the
volume identity reads sum count*size^2.  weight_expansion and
negative_weight_sequence write each run out as count equal Fractions.

Peeling in runs.  A chain runs from (0, b) down to (a, 0), and each edge
is an integer vector (p, -s) with p, s > 0.  The chain checks make p/s
increase along the chain, so g = x + y falls, then rises, and its least
value r is taken on one vertex or one diagonal edge (p = s).  A peel
keeps the edges before that point in the top piece, where the shear maps
(p, s) to (p, s - p), keeps those after it in the bottom piece, mapped to
(p - s, s), and drops the diagonal ones: each edge runs the subtractive
Euclidean algorithm on its own (p, s) until it is dropped.

When the triangle meets the chain at (0, r) alone, the bottom piece is
the whole chain sheared, and it again meets the triangle at (0, r).  Let
(p1, s1) be the first edge and q = p1 // s1 - 1 >= 0.  The chain sheared
q' times, x -> x - q'(r - y), is a valid chain for every q' <= q: the
shear keeps y, keeps (0, r) and keeps every cross product of edges, so
p/s still increases, and the first edge keeps p1 - q' s1 >= s1 > 0, so
every p stays positive and x increasing.  Its g - r sums p - (q' + 1)s
over the edges up to each vertex, and each term is >= 0, since
p/s >= p1/s1 >= q + 1, with the first term > 0 for q' < q.  So each of
those chains has its least g, r, at (0, r) alone, and peeling it leaves
the next: the same r is peeled q times, and those chains, skipped, need
no check.  _expand applies the q shears at once and gives the result the
usual single peel, which leaves the first edge p1 mod s1 < s1, ending
that step of Euclid's division on (p1, s1).  The triangle meeting the
chain at (r, 0) alone is the mirror image, on the last edge.

The number of chains peeled.  A chain is peeled, after its run if any,
in one of three ways: it drops an edge (at most E times over E edges),
it splits into two pieces (at most E - 1 times, as each piece keeps an
edge), or it meets the triangle at an end vertex alone and ends a
division step of Euclid's algorithm on its end edge, whose later steps
go the other way: at most once per division step.  By Lamé's theorem
Euclid's algorithm on (p, s) takes at most 5 division steps per decimal
digit of min(p, s).  So a polygon of E edges whose integer coordinates
have at most n digits peels at most 5nE + 2E chains, each of at most
E + 1 vertices, however far apart its sizes lie: the legs 1 and N give
one chain, not N.
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
    """The runs (size, count) of the balls filling the concave pieces below
    the integer chains, one per size, sizes decreasing, in the chains'
    units."""
    todo = list(chains)
    counts: dict = {}
    while todo:
        chain = todo.pop()
        domains.check_concave_chain(chain)
        g = [x + y for x, y in chain]
        r = min(g)
        q = 0
        if g[0] == r < g[1]:  # met at (0, r) alone: q more peels of r
            x, y = chain[1]
            q = x // (r - y) - 1
            if q:
                chain = [(x - q * (r - y), y) for x, y in chain]
        elif g[-1] == r < g[-2]:  # met at (r, 0) alone
            x, y = chain[-2]
            q = y // (r - x) - 1
            if q:
                chain = [(x, y - q * (r - x)) for x, y in chain]
        if q:
            g = [x + y for x, y in chain]
        counts[r] = counts.get(r, 0) + q + 1
        i1 = g.index(r)
        i2 = len(g) - 1 - g[::-1].index(r)
        if i1 > 0:
            todo.append(tuple((x, x + y - r) for x, y in chain[:i1 + 1]))
        if i2 < len(chain) - 1:
            todo.append(tuple((x + y - r, y) for x, y in chain[i2:]))
    return sorted(counts.items(), reverse=True)


def _runs(what: str, head: int, chains: list, c: Polygon) -> list:
    """The runs of the balls below the integer chains of the polygon c,
    once the volume identity holds in integers: the balls fill c (head 0),
    or fill the head triangle minus c, so sum count*size^2, or head^2
    minus it, is 2 area scale^2."""
    runs = _expand(chains)
    squares = sum(n * w * w for w, n in runs)
    got = head * head - squares if head else squares
    if got != c.area2:
        unit = 2 * c.scale ** 2
        raise ValueError(f"volume identity failed for {what} (got "
                         f"{rational_str(Fraction(got, unit))}, want "
                         f"{rational_str(Fraction(c.area2, unit))})")
    return runs


def _balls(runs: list, scale: int) -> tuple[Fraction, ...]:
    """One Fraction per ball of the runs, the sizes over scale."""
    out: list = []
    for w, n in runs:
        out += [Fraction(w, scale)] * n
    return tuple(out)


def weight_runs(d) -> list:
    """The weight expansion of a concave region as runs (size, count),
    sizes decreasing, in integers over d.omega.scale."""
    c = d.omega
    if c is None:
        raise ValueError("domain has no moment polygon")
    return _runs("weight expansion", 0, [c.ints[:0:-1]], c)


def weight_expansion(d) -> tuple[Fraction, ...]:
    """Ball sizes filling a concave region, sorted nonincreasing."""
    return _balls(weight_runs(d), d.omega.scale)


def negative_weight_runs(d) -> tuple:
    """(head, runs) of a convex region in integers over d.omega.scale: the
    head size and the runs (size, count) of the balls of the two sheared
    corner pieces of the head triangle minus the polygon, sizes
    decreasing."""
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
    return head, _runs("negative weight sequence", head, pieces, c)


def negative_weight_sequence(d) -> NegativeWeightDecomposition:
    """Head size plus the ball sizes of the two sheared corner pieces of the
    head triangle minus the polygon, sorted nonincreasing."""
    head, runs = negative_weight_runs(d)
    scale = d.omega.scale
    return NegativeWeightDecomposition(Fraction(head, scale), _balls(runs, scale))
