"""Edge-length functionals on lattice vectors.

For a convex moment polygon the dual norm of v is the support value
max <(|v1|,|v2|), w> over the polygon's vertices; by the symmetry of the
reflected polygon this equals the maximum over the whole reflection.  For a
concave polygon the anti-norm is min <(|v1|,|v2|), w> over the vertices of
the outer boundary chain, axis endpoints included (a minimum of a linear
functional over a polyline is attained at a vertex).

Both functionals depend only on (|v1|, |v2|); the anti-norm of a vector
with a zero component is 0 whenever the chain meets the matching axis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import domains
from .geometry import Point


class NormContext(NamedTuple):
    """Vertex data extracted once per domain; norms are the inner loop of
    the path optimizers, so keep this flat and immutable."""

    kind: str  # "convex" | "concave"
    support_vertices: tuple[Point, ...]


def convex_context(d) -> NormContext:
    """Context for the dual norm of a convex toric domain."""
    if not d.convex:
        raise ValueError(f"domain is not convex toric: {d!r}")
    return NormContext("convex", d.omega.vertices)


def concave_context(d) -> NormContext:
    """Context for the anti-norm; vertices are the outer boundary chain."""
    if not d.concave:
        raise ValueError(f"domain is not concave toric: {d!r}")
    return NormContext("concave", domains.upper_boundary(d))


def dual_norm(ctx: NormContext, v) -> Fraction:
    if ctx.kind != "convex":
        raise ValueError("dual_norm needs a convex context")
    p, q = abs(v[0]), abs(v[1])
    return max(p * x + q * y for x, y in ctx.support_vertices)


def anti_norm(ctx: NormContext, v) -> Fraction:
    if ctx.kind != "concave":
        raise ValueError("anti_norm needs a concave context")
    p, q = abs(v[0]), abs(v[1])
    return min(p * x + q * y for x, y in ctx.support_vertices)
