"""Lattice paths and the two optimization problems over them.

A path is encoded by its integer edge vectors together with the starting
height; it runs from (0, start_y) to (end_x, 0).

Convex kind: the closed region bounded by the path and the axes is convex.
Edge directions, read along the path, rotate strictly clockwise inside the
open arc from just below "straight up" round to just above "straight left";
the degenerate all-horizontal and all-vertical segment paths are admitted
too.  Edges may point up-right or down-left: nothing restricts the path to
monotone staircases, and min_convex searches the full class.

Concave kind: the path is the graph of a piecewise linear convex function;
after stripping terminal height-zero runs every edge has dx >= 1, dy <= -1
and slopes strictly increase along the path.  Interior vertical edges are
never allowed (not a function graph).

A path's length ell sums a norm of each edge v read off the domain's
moment polygon: for a convex domain the dual norm max <(|v1|,|v2|), w> over
the vertices w (by symmetry, over the whole axis reflection), for a concave
one the anti-norm min <(|v1|,|v2|), w> over the outer chain, the vertices
after the origin.  dual_norm and anti_norm take them in Fractions over the
polygon's points, the searches in the integers the same polygon carries
(omega.ints over omega.scale), so ell checks the searches' values.

The optimizers enumerate paths as direction-sorted multisets of edge
vectors (a convex chain is determined by its edge multiset), with
branch-and-bound pruning against an incumbent seeded from canonical paths:
axis segments, rectangle corners, and straight diagonals.  Every candidate
edge m*(p,q) of an improving path satisfies m*||(p,q)|| <= incumbent, and
the norm of a direction is at least max(|p|*xmax, |q|*ymax), which bounds
the direction set and all multiplicities; the search space is finite and
complete without any a-priori coordinate box.  max_concave also prunes on
the lattice count, which only grows along a branch, and bounds the value
per direction.  Candidates are built valid and never validated: each DFS
carries the shoelace sum and the boundary points of its path, so Pick's
theorem counts a path in O(1), and a path is built as a tuple and scored
only when it may improve an incumbent.  Each returned witness is validated
once.

Both searches grow exponentially in k: capacities come from the weight
formulas, and the optima are their verify=True cross-check and the
witnesses of the CLI's paths subcommand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .geometry import Edge, Polygon, cross, dot, index, integer, lattice_points_under_path


class LatticePath(NamedTuple):
    kind: str  # "convex" | "concave"
    edges: tuple[Edge, ...]
    start_y: int


class PathOptimum(NamedTuple):
    value: Fraction
    witness: LatticePath
    count_constraint: int


def _merge(edges) -> tuple[Edge, ...]:
    out: list[Edge] = []
    for e in edges:
        dx, dy = integer(e[0], "edge entry"), integer(e[1], "edge entry")
        if dx == 0 and dy == 0:
            raise ValueError("zero edge vector")
        if out:
            px, py = out[-1]
            if cross((px, py), (dx, dy)) == 0 and dot((px, py), (dx, dy)) > 0:
                out[-1] = (px + dx, py + dy)
                continue
        out.append((dx, dy))
    return tuple(out)


def _validate_convex_edges(edges) -> tuple[int, int]:
    """Check a merged edge sequence, returning (end_x, start_y)."""
    if not edges:
        return 0, 0
    a = sum(dx for dx, _ in edges)
    b = -sum(dy for _, dy in edges)
    if a < 0 or b < 0:
        raise ValueError("path must run from the y-axis down to the x-axis")
    if all(dy == 0 for _, dy in edges):
        # merged horizontal segment along the x-axis
        if len(edges) != 1 or edges[0][0] <= 0:
            raise ValueError("degenerate horizontal path must be a single forward edge")
        return a, 0
    if all(dx == 0 for dx, _ in edges):
        if len(edges) != 1 or edges[0][1] >= 0:
            raise ValueError("degenerate vertical path must be a single downward edge")
        return 0, b
    for dx, dy in edges:
        if not (dx > 0 or (dx == 0 and dy < 0) or (dx < 0 and dy < 0)):
            raise ValueError(f"edge ({dx},{dy}) points outside the admissible arc")
    for i in range(len(edges) - 1):
        if cross(edges[i], edges[i + 1]) >= 0:
            raise ValueError("edge directions must rotate strictly clockwise")
    return a, b


def _validate_concave_edges(edges) -> tuple[int, int]:
    if not edges:
        return 0, 0
    a = sum(dx for dx, _ in edges)
    b = -sum(dy for _, dy in edges)
    for i, (dx, dy) in enumerate(edges):
        if dx < 1:
            raise ValueError("concave path edges must advance in x (no vertical edges)")
        if dy > 0:
            raise ValueError("concave path edges cannot rise")
        if dy == 0 and i != len(edges) - 1:
            raise ValueError("horizontal run allowed only at the end of a concave path")
    for i in range(len(edges) - 1):
        # slopes dy/dx must strictly increase
        if cross(edges[i], edges[i + 1]) <= 0:
            raise ValueError("concave path slopes must strictly increase")
    return a, b


def convex_path(edges) -> LatticePath:
    merged = _merge(edges)
    _, b = _validate_convex_edges(merged)
    return LatticePath("convex", merged, b)


def concave_path(edges) -> LatticePath:
    merged = _merge(edges)
    _, b = _validate_concave_edges(merged)
    return LatticePath("concave", merged, b)


def _maker(kind: str):
    """The constructor of the paths of a kind."""
    try:
        return {"convex": convex_path, "concave": concave_path}[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown path kind {kind!r}") from None


def validate_path(p: LatticePath) -> LatticePath:
    q = _maker(p.kind)(p.edges)
    if q.start_y != p.start_y:
        raise ValueError(f"start height {p.start_y} does not match edges (want {q.start_y})")
    return q


def lhat(p: LatticePath) -> int:
    """Lattice points of the closed region bounded by a convex path and the
    axes, boundary included."""
    if p.kind != "convex":
        raise ValueError("lhat is defined for convex paths")
    q = validate_path(p)
    return lattice_points_under_path(q.edges, q.start_y, include_path=True)


def lcheck(p: LatticePath) -> int:
    """Lattice points under a concave path, not counting points on the path
    itself (its endpoints included); points on the axis closures count."""
    if p.kind != "concave":
        raise ValueError("lcheck is defined for concave paths")
    q = validate_path(p)
    return lattice_points_under_path(q.edges, q.start_y, include_path=False)


def _omega(d, kind: str) -> Polygon:
    """The moment polygon of d, a "convex" or "concave" toric domain."""
    _maker(kind)
    if not getattr(d, kind):
        raise ValueError(f"domain is not {kind} toric: {d!r}")
    return d.omega


def dual_norm(d, v) -> Fraction:
    """The dual norm of v for the convex domain d."""
    p, q = abs(v[0]), abs(v[1])
    return max(p * x + q * y for x, y in _omega(d, "convex").vertices)


def anti_norm(d, v) -> Fraction:
    """The anti-norm of v for the concave domain d."""
    p, q = abs(v[0]), abs(v[1])
    return min(p * x + q * y for x, y in _omega(d, "concave").vertices[1:])


def ell(d, p: LatticePath) -> Fraction:
    """Path length on the domain d: the sum over the edges of the norm of
    the path's kind."""
    _omega(d, p.kind)  # rejects a domain of the other kind, empty path too
    norm = dual_norm if p.kind == "convex" else anti_norm
    return sum((norm(d, e) for e in p.edges), Fraction(0))


def path_to_json(p: LatticePath) -> dict:
    return {"start": [0, p.start_y], "edges": [[dx, dy] for dx, dy in p.edges]}


def path_from_json(obj, kind: str) -> LatticePath:
    """Invert path_to_json for a path of the kind; a malformed object
    raises a ValueError that names the field."""
    make = _maker(kind)
    if not isinstance(obj, dict):
        raise ValueError("path spec must be a JSON object")
    edges = obj.get("edges")
    if not (isinstance(edges, list)
            and all(isinstance(e, (list, tuple)) and len(e) == 2 for e in edges)):
        raise ValueError("field 'edges': need a list of [dx, dy] pairs")
    p = make(edges)
    start = obj.get("start", [0, p.start_y])
    if not (isinstance(start, (list, tuple))
            and [integer(v, "start entry") for v in start] == [0, p.start_y]):
        raise ValueError(f"field 'start': {start!r} does not match the edges")
    return p


EMPTY_CONVEX = LatticePath("convex", (), 0)
EMPTY_CONCAVE = LatticePath("concave", (), 0)


def _witness(kind: str, edges: tuple[Edge, ...]) -> LatticePath:
    """An optimum's edges as a validated LatticePath.  The searches build
    only direction-sorted, strictly rotating edge sequences and do not
    validate their candidates, so the one path they return is checked here
    and a failure is a bug in the search."""
    make = _maker(kind)
    try:
        p = make(edges)
    except ValueError as e:
        raise RuntimeError(f"{kind} search built an invalid path {edges}: {e}") from None
    if p.edges != edges:
        raise RuntimeError(f"{kind} search built an unmerged path {edges}")
    return p


def _score(best: list, edges: tuple[Edge, ...], key: int, count: int) -> None:
    """Make a candidate path a search's incumbent best[0], the least
    (key, edges, count) found so far, if it is ahead.  The searches pass
    the running lattice count of a path they built valid, and only when
    the path qualifies and may win; the tests wrap this function to
    recount and validate every such path.
    """
    entry = (key, edges, count)
    if entry < best[0]:
        best[0] = entry


def min_convex(d, k: int) -> PathOptimum:
    """Cheapest convex path whose region holds at least k+1 lattice points,
    for the convex domain d.  The tests check that every optimum holds
    exactly k+1, the count of the capacity formula (Hutchings, Beyond ECH
    capacities, Geom. Topol. 2016), so the two minima agree."""
    poly = _omega(d, "convex")
    k = index(k)
    if k == 0:
        return PathOptimum(Fraction(0), EMPTY_CONVEX, 1)
    return _convex_search(poly, k)


def _convex_search(poly: Polygon, k: int) -> PathOptimum:
    """The branch and bound behind min_convex, for k >= 1.

    best[0] holds the least (cost, edges, count) found so far among scored
    paths with count >= k+1, and the tree is pruned against its cost; a
    path is scored only when it is no dearer.
    """
    iverts, scale = poly.ints, poly.scale
    a_int = max(ix for ix, _ in iverts)  # xmax * scale, positive
    b_int = max(iy for _, iy in iverts)

    def nu(p, q) -> int:
        ap, aq = abs(p), abs(q)
        return max(ap * ix + aq * iy for ix, iy in iverts)

    best: list = [(math.inf, None, 0)]
    top = math.inf  # the cost of best[0]

    def consider(edges: tuple[Edge, ...], b: int, cost: int):
        nonlocal top
        _score(best, edges, cost, lattice_points_under_path(edges, b, include_path=True))
        top = best[0][0]

    # canonical seeds, each holding at least k+1 lattice points, so the
    # search always starts with a feasible incumbent
    target = k + 1
    consider(((0, -k),), k, nu(0, -k))
    consider(((k, 0),), 0, nu(k, 0))
    for m in range(1, k + 1):
        n_up = -(-target // (m + 1)) - 1
        edges = tuple(e for e in ((m, 0), (0, -n_up)) if e != (0, 0))
        consider(edges, n_up, sum(nu(dx, dy) for dx, dy in edges))
    d = 1
    while (d + 1) * (d + 2) // 2 < target:
        d += 1
    consider(((d, -d),), d, nu(d, -d))

    pmax = top // a_int
    qmax = top // b_int
    dirs: list[tuple[int, int]] = []
    for p in range(-pmax, pmax + 1):
        for q in range(-qmax, qmax + 1):
            if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
                continue
            if not (p > 0 or (p == 0 and q < 0) or (p < 0 and q < 0)):
                continue
            dirs.append((p, q))

    # slopes q/p as integers over the common denominator lcm(1..pmax)
    lcm = math.lcm(*range(1, pmax + 1))

    def dir_key(d):
        p, q = d
        if p > 0 and q > 0:
            g = 0
        elif p > 0 and q == 0:
            g = 1
        elif p > 0:
            g = 2
        elif p == 0:
            g = 3
        else:
            g = 4
        return (g, -q * (lcm // p) if p != 0 else 0)

    dirs.sort(key=dir_key)
    nus = [nu(p, q) for p, q in dirs]
    ndirs = len(dirs)
    # cheaper[j]: the first index after j whose direction costs less than
    # direction j (ndirs if none).  top only falls, so when j is too dear
    # every direction before cheaper[j] is too, and the loop jumps
    cheaper = [ndirs] * ndirs
    stack: list[int] = []
    for j, c in enumerate(nus):
        while stack and nus[stack[-1]] > c:
            cheaper[stack.pop()] = j
        stack.append(j)
    nus.append(-1)  # ends every jump chain at ndirs, as room never falls below 0
    chosen: list[Edge] = []

    # sufmin[j]: the least cost of a direction from j on, so a child whose cost
    # leaves no room for it has no children and is only scored
    sufmin = nus[:ndirs] + [math.inf]
    for j in range(ndirs - 1, -1, -1):
        sufmin[j] = min(sufmin[j], sufmin[j + 1])
    need = 2 * k  # a path of count k+1 or more has pick >= need

    # The DFS never builds a path that leaves the quadrant: x never drops
    # below 0 (the down-left break), and y only falls after the up-right
    # run, so a path ending at (ndx, 0) from (0, -ndy) stays in it.  It
    # keeps Pick's theorem running in t, the shoelace sum of the edges
    # relative to the start less the lattice points they add to the path
    # (every direction is primitive, so the edge m*(p,q) adds m).
    def dfs(start_idx: int, sumdx: int, sumdy: int, cost: int, t: int):
        nonlocal top
        room = top - cost
        j = start_idx
        while True:
            while nus[j] > room:
                j = cheaper[j]
            if j == ndirs:
                break
            nuj = nus[j]
            p, q = dirs[j]
            if p < 0 and chosen and chosen[-1][0] * q >= chosen[-1][1] * p:
                # an up-right last edge turns 180 degrees or more to reach
                # this down-left direction and every later one: paths with
                # such a corner are not convex
                break
            dt = sumdx * q - sumdy * p - 1  # t step of one (p, q) from the end
            m = 1
            while True:
                c2 = cost + m * nuj
                if c2 > top:
                    break
                ndx = sumdx + m * p
                ndy = sumdy + m * q
                if p < 0 and ndx < 0:
                    break  # later directions only lose x; no recovery
                pend = ndy * b_int if ndy > 0 else 0
                if c2 + pend > top:
                    break  # c2+pend is nondecreasing in m (nu >= |q|*ymax)
                t2 = t + m * dt
                chosen.append((m * p, m * q))
                if ndy <= 0:
                    # 2*area + boundary points, so the count is
                    # pick // 2 + 1: with g the points the edges add to the
                    # path, the region lies right of the path as it is
                    # walked, so twice its area is -(t2 + g + ndy*ndx), and
                    # its boundary has g + ndx - ndy points
                    pick = ndx - ndy - t2 - ndy * ndx
                    if pick >= need:
                        _score(best, tuple(chosen), c2, pick // 2 + 1)
                        top = best[0][0]
                if c2 + sufmin[j + 1] <= top:
                    dfs(j + 1, ndx, ndy, c2, t2)
                chosen.pop()
                m += 1
            room = top - cost  # top falls whenever a path scores
            j += 1

    dfs(0, 0, 0, 0, 0)

    c, w, count = best[0]
    return PathOptimum(Fraction(c, scale), _witness("convex", w), count)


def max_concave(d, k: int) -> PathOptimum:
    """Longest concave path whose region holds exactly k lattice points off
    the path, for the concave domain d.

    Enumerates stripped core paths (dx >= 1, dy <= -1) by appending edges
    of increasing slope, counting by Pick's theorem as it goes.  With
    a = end_x and b = start_y, the a+b-1 axis points below the path are
    counted and never on it, so a + b <= k + 1 is the budget of a path.

    Appending an edge (p, q) to a path that ends at (x, 0) lifts the path
    by -q >= 1, so every point counted before and every point on it ends
    strictly below the new path: the count strictly increases along a
    branch.  The columns 0..x gain -q points each and the new edge covers
    at least p - 1 more, so the count grows by at least x + p - q - 1, and
    a branch or a multiplicity stops as soon as that passes k.  Edges of
    the directions j.. add at most max nu/(p - q) over them per unit of
    budget, which bounds the value a branch can still reach.
    """
    poly = _omega(d, "concave")
    k = index(k)
    if k == 0:
        return PathOptimum(Fraction(0), EMPTY_CONCAVE, 0)

    budget = k + 1
    ichain, scale = poly.ints[1:], poly.scale  # the origin would zero the minimum

    def anu(p, q) -> int:
        ap, aq = abs(p), abs(q)
        return min(ap * ix + aq * iy for ix, iy in ichain)

    # one entry, the least (-value, edges, count) among paths of count k
    best: list = [(math.inf, None, 0)]

    def consider(edges: tuple[Edge, ...], b: int, val: int):
        count = lattice_points_under_path(edges, b, include_path=False)
        if count == k:
            _score(best, edges, -val, count)

    consider(((k, -1),), 1, anu(k, -1))  # always has count k
    consider(((1, -k),), k, anu(1, -k))
    best_val = -best[0][0]

    dirs = [(p, q)
            for p in range(1, budget)
            for q in range(-1, p - budget - 1, -1)
            if p - q <= budget and math.gcd(p, -q) == 1]
    # slopes q/p as integers over the common denominator lcm(1..k)
    lcm = math.lcm(*range(1, budget))
    dirs.sort(key=lambda d: d[1] * (lcm // d[0]))
    nus = [anu(p, q) for p, q in dirs]
    ws = [p - q for p, q in dirs]
    ndirs = len(dirs)
    # over the directions j..: rn[j]/rw[j] is the largest nu/(p - q)
    rn = [0] * (ndirs + 1)
    rw = [1] * (ndirs + 1)
    for j in range(ndirs - 1, -1, -1):
        if nus[j] * rw[j + 1] > rn[j + 1] * ws[j]:
            rn[j], rw[j] = nus[j], ws[j]
        else:
            rn[j], rw[j] = rn[j + 1], rw[j + 1]
    # fits[n][j]: the first direction from j on with p - q <= n (ndirs if
    # none), so the DFS steps only over directions whose edge can fit
    fits = []
    for n in range(budget + 1):
        row = [ndirs] * (ndirs + 1)
        for j in range(ndirs - 1, -1, -1):
            row[j] = j if ws[j] <= n else row[j + 1]
        fits.append(row)
    chosen: list[Edge] = []

    # The directions are sorted by strictly increasing slope and all have
    # dx >= 1, dy <= -1, so every path the DFS builds is a valid concave
    # one inside the quadrant.  The path so far runs from (0, b) to (x, 0)
    # and holds count points; s is the shoelace sum of its edges relative
    # to the start and g the lattice points they add to it (every direction
    # is primitive, so the edge m*(p,q) adds m).
    def dfs(start_idx: int, val: int, b: int, x: int, s: int, g: int, count: int):
        nonlocal best_val
        left = budget - x - b
        fit = fits[k + 1 - count - x]
        j = fit[start_idx]
        while j < ndirs:
            if (val - best_val) * rw[j] + left * rn[j] < 0:
                break  # even a perfect completion cannot tie
            p, q = dirs[j]
            w = ws[j]
            nuj = nus[j]
            ds = x * q + b * p  # shoelace step of one (p, q) from the end
            m = 1
            while True:
                v2 = val + m * nuj
                if (v2 - best_val) * rw[j] + (left - m * w) * rn[j] < 0:
                    break  # nonincreasing in m, since nuj/w <= rn[j]/rw[j]
                b2 = b - m * q
                x2 = x + m * p
                g2 = g + m
                s2 = s + m * ds
                # Pick's theorem without the g2 + 1 points on the path; the
                # region lies right of the path, so twice its area is
                # b2*x2 - s2
                count2 = (b2 * x2 - s2 + b2 + x2 - g2) // 2
                if count2 > k:
                    break
                chosen.append((m * p, m * q))
                if count2 == k:
                    if v2 >= best_val:
                        _score(best, tuple(chosen), -v2, count2)
                        best_val = -best[0][0]
                elif count2 + x2 < k:
                    dfs(j + 1, v2, b2, x2, s2, g2, count2)
                chosen.pop()
                if count2 + x2 + w > k + 1:
                    break  # one more (p, q) here counts over k
                m += 1
            j = fit[j + 1]

    dfs(0, 0, 0, 0, 0, 0, 0)

    val, edges, count = best[0]
    return PathOptimum(Fraction(-val, scale), _witness("concave", edges), count)
