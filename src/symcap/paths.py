"""Lattice paths and the two optimization problems over them.

A path is encoded by its integer edge vectors together with the starting
height; it runs from (0, start_y) to (end_x, 0).

Convex kind: the closed region bounded by the path and the axes is convex.
Edge directions, read along the path, rotate strictly clockwise inside the
open arc from just below "straight up" round to just above "straight left";
the degenerate all-horizontal and all-vertical segment paths are admitted
too.  Edges may point up-right or down-left: nothing restricts the path to
monotone staircases, and min_convex searches the full class (a monotone-only
mode exists for cross-checking).

Concave kind: the path is the graph of a piecewise linear convex function;
after stripping terminal height-zero runs every edge has dx >= 1, dy <= -1
and slopes strictly increase along the path.  Interior vertical edges are
never allowed (not a function graph).

The optimizers enumerate paths as direction-sorted multisets of edge
vectors (a convex chain is determined by its edge multiset), with
branch-and-bound pruning against an incumbent seeded from canonical paths:
axis segments, rectangle corners, and straight diagonals.  Every candidate
edge m*(p,q) of an improving path satisfies m*||(p,q)|| <= incumbent, and
the norm of a direction is at least max(|p|*xmax, |q|*ymax), which bounds
the direction set and all multiplicities; the search space is finite and
complete without any a-priori coordinate box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (Edge, cross, dot, lattice_points_on_path,
                       lattice_points_under_path)
from .norms import NormContext, anti_norm, dual_norm


@dataclass(frozen=True)
class LatticePath:
    kind: str  # "convex" | "concave"
    edges: tuple[Edge, ...]
    start_y: int

    @property
    def end_x(self) -> int:
        return sum(dx for dx, _ in self.edges)


@dataclass(frozen=True)
class PathOptimum:
    value: Fraction
    witness: LatticePath
    count_constraint: int


def _merge(edges) -> tuple[Edge, ...]:
    out: list[Edge] = []
    for e in edges:
        dx, dy = int(e[0]), int(e[1])
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


def validate_path(p: LatticePath) -> LatticePath:
    if p.kind == "convex":
        merged = _merge(p.edges)
        _, b = _validate_convex_edges(merged)
    elif p.kind == "concave":
        merged = _merge(p.edges)
        _, b = _validate_concave_edges(merged)
    else:
        raise ValueError(f"unknown path kind {p.kind!r}")
    if b != p.start_y:
        raise ValueError(f"start height {p.start_y} does not match edges (want {b})")
    return LatticePath(p.kind, merged, b)


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


def ell(ctx: NormContext, p: LatticePath) -> Fraction:
    """Path length: sum of edge norms in the matching context."""
    if ctx.kind != p.kind:
        raise ValueError(f"context kind {ctx.kind!r} does not match path kind {p.kind!r}")
    norm = dual_norm if p.kind == "convex" else anti_norm
    return sum((norm(ctx, e) for e in p.edges), Fraction(0))


def path_to_json(p: LatticePath) -> dict:
    return {"start": [0, p.start_y], "edges": [[dx, dy] for dx, dy in p.edges]}


def path_from_json(obj, kind: str) -> LatticePath:
    edges = [(int(dx), int(dy)) for dx, dy in obj["edges"]]
    p = convex_path(edges) if kind == "convex" else concave_path(edges)
    want = obj.get("start", [0, p.start_y])
    if list(want) != [0, p.start_y]:
        raise ValueError(f"start {want} does not match edges")
    return p


def _scaled_support(vertices):
    scale = 1
    for x, y in vertices:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
        scale = scale * y.denominator // math.gcd(scale, y.denominator)
    ivs = [(int(x * scale), int(y * scale)) for x, y in vertices]
    return scale, ivs


EMPTY_CONVEX = LatticePath("convex", (), 0)
EMPTY_CONCAVE = LatticePath("concave", (), 0)


def min_convex(ctx: NormContext, k: int, bound_mode: str = "at_least",
               fast_monotone: bool = False) -> PathOptimum:
    """Cheapest convex path whose region holds k+1 lattice points.

    bound_mode "exact" demands exactly k+1; "at_least" allows more (the two
    give the same minimum value, which the tests cross-check).
    """
    if ctx.kind != "convex":
        raise ValueError("min_convex needs a convex context")
    if bound_mode not in ("exact", "at_least"):
        raise ValueError(f"unknown bound_mode {bound_mode!r}")
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return PathOptimum(Fraction(0), EMPTY_CONVEX, 1)

    exact = bound_mode == "exact"
    target = k + 1
    scale, iverts = _scaled_support(ctx.support_vertices)
    a_int = max(ix for ix, _ in iverts)  # xmax * scale, positive
    b_int = max(iy for _, iy in iverts)

    def nu(p, q) -> int:
        ap, aq = abs(p), abs(q)
        return max(ap * ix + aq * iy for ix, iy in iverts)

    best_cost: int | None = None
    best_edges: tuple[Edge, ...] | None = None
    best_count = 0

    def consider(edges: tuple[Edge, ...]):
        nonlocal best_cost, best_edges, best_count
        try:
            _, b = _validate_convex_edges(edges)
        except ValueError:
            return
        count = lattice_points_under_path(edges, b, include_path=True)
        if (count != target) if exact else (count < target):
            return
        cost = sum(nu(dx, dy) for dx, dy in edges)
        if best_cost is None or (cost, edges) < (best_cost, best_edges):
            best_cost, best_edges, best_count = cost, edges, count

    # canonical seeds; the axis segments hit every lattice count exactly,
    # so both modes always start with a feasible incumbent
    consider(((0, -k),))
    consider(((k, 0),))
    for m in range(1, k + 1):
        n = -(-target // (m + 1)) - 1
        edges = tuple(e for e in ((m, 0), (0, -n)) if e != (0, 0))
        consider(edges)
    d = 1
    while (d + 1) * (d + 2) // 2 < target:
        d += 1
    consider(((d, -d),))

    pmax = best_cost // a_int
    qmax = best_cost // b_int
    dirs: list[tuple[int, int]] = []
    for p in range(-pmax, pmax + 1):
        for q in range(-qmax, qmax + 1):
            if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
                continue
            if not (p > 0 or (p == 0 and q < 0) or (p < 0 and q < 0)):
                continue
            if fast_monotone and not (p >= 0 and q <= 0):
                continue
            dirs.append((p, q))

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
        s = Fraction(q, p) if p != 0 else Fraction(0)
        return (g, -s)

    dirs.sort(key=dir_key)
    nus = [nu(p, q) for p, q in dirs]
    ndirs = len(dirs)
    # cheaper[j]: the first index after j whose direction costs less than
    # direction j (ndirs if none).  best_cost only falls, so when j is too
    # dear every direction before cheaper[j] is too, and the loop jumps
    cheaper = [ndirs] * ndirs
    stack: list[int] = []
    for j, c in enumerate(nus):
        while stack and nus[stack[-1]] > c:
            cheaper[stack.pop()] = j
        stack.append(j)
    chosen: list[Edge] = []

    def dfs(start_idx: int, sumdx: int, sumdy: int, summul: int, cost: int,
            xtop: int, dytop: int):
        # xtop, dytop: the largest x and the largest rise above the start
        # over the vertices so far, so the path's bounding box is
        # (xtop + 1) x (dytop - sumdy + 1) lattice points
        nonlocal best_cost
        if chosen and sumdx >= 0 and sumdy <= 0:
            # cheap necessary bound before the real count
            if (xtop + 1) * (dytop - sumdy + 1) >= target:
                consider(tuple(chosen))
        j = start_idx
        while j < ndirs:
            nuj = nus[j]
            if cost + nuj > best_cost:
                j = cheaper[j]
                continue
            p, q = dirs[j]
            m = 1
            while True:
                c2 = cost + m * nuj
                if c2 > best_cost:
                    break
                if exact and summul + m > k:
                    break
                ndx = sumdx + m * p
                ndy = sumdy + m * q
                if p < 0 and ndx < 0:
                    break  # later directions only lose x; no recovery
                pend = ndy * b_int if ndy > 0 else 0
                if c2 + pend > best_cost:
                    break  # c2+pend is nondecreasing in m (nu >= |q|*ymax)
                chosen.append((m * p, m * q))
                dfs(j + 1, ndx, ndy, summul + m, c2,
                    ndx if ndx > xtop else xtop, ndy if ndy > dytop else dytop)
                chosen.pop()
                m += 1
            j += 1

    dfs(0, 0, 0, 0, 0, 0, 0)

    witness = LatticePath("convex", best_edges, -sum(dy for _, dy in best_edges) if best_edges else 0)
    return PathOptimum(Fraction(best_cost, scale), witness, best_count)


def max_concave(ctx: NormContext, k: int) -> PathOptimum:
    """Longest concave path whose region holds exactly k lattice points off
    the path.

    Enumerates stripped core paths (dx >= 1, dy <= -1): with a = end_x and
    b = start_y, the a+b-1 axis points below the path are counted and never
    on it, so a + b <= k + 1 bounds the search.
    """
    if ctx.kind != "concave":
        raise ValueError("max_concave needs a concave context")
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return PathOptimum(Fraction(0), EMPTY_CONCAVE, 0)

    budget = k + 1
    scale, ichain = _scaled_support(ctx.support_vertices)
    xcap = max(ix for ix, _ in ichain)
    ycap = max(iy for _, iy in ichain)

    def anu(p, q) -> int:
        ap, aq = abs(p), abs(q)
        return min(ap * ix + aq * iy for ix, iy in ichain)

    # anti_norm((p,q)) <= (p+|q|) * xmax*ymax/(xmax+ymax); integer ceiling
    # keeps the completion bound sound
    rate = -(-(xcap * ycap) // (xcap + ycap))

    best_val = -1
    best_edges: tuple[Edge, ...] | None = None

    def consider(edges: tuple[Edge, ...]):
        nonlocal best_val, best_edges
        try:
            _, b = _validate_concave_edges(edges)
        except ValueError:
            return
        count = lattice_points_under_path(edges, b, include_path=False)
        if count != k:
            return
        val = sum(anu(dx, dy) for dx, dy in edges)
        if val > best_val or (val == best_val and edges < best_edges):
            best_val, best_edges = val, edges

    consider(((k, -1),))  # always has count k
    consider(((1, -k),))

    dirs = [(p, q)
            for p in range(1, budget)
            for q in range(-1, p - budget - 1, -1)
            if p - q <= budget and math.gcd(p, -q) == 1]
    dirs.sort(key=lambda d: Fraction(d[1], d[0]))
    nus = [anu(p, q) for p, q in dirs]
    ndirs = len(dirs)
    chosen: list[Edge] = []

    def dfs(start_idx: int, used: int, val: int):
        if chosen:
            consider(tuple(chosen))
        for j in range(start_idx, ndirs):
            p, q = dirs[j]
            w = p - q
            nuj = nus[j]
            m = 1
            while True:
                u2 = used + m * w
                if u2 > budget:
                    break
                v2 = val + m * nuj
                if v2 + (budget - u2) * rate < best_val:
                    break  # even a perfect completion cannot tie
                chosen.append((m * p, m * q))
                dfs(j + 1, u2, v2)
                chosen.pop()
                m += 1

    dfs(0, 0, 0)

    witness = LatticePath("concave", best_edges,
                          -sum(dy for _, dy in best_edges) if best_edges else 0)
    return PathOptimum(Fraction(best_val, scale), witness, k)
