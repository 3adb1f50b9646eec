"""Domain model: balls, ellipsoids, polydisks, toric polygons, disjoint
unions, and the two closed manifolds that share the same capacity formulas.

The moment polygon Omega of a toric domain lives in the closed positive
quadrant.  "Convex toric" means the four-fold axis reflection Omega-hat is
convex; "concave toric" means the complement of Omega inside the quadrant is
convex.  A ball or ellipsoid triangle is both at once, a polydisk rectangle
is convex only.

Moment polygons are stored canonically: counterclockwise, starting at the
origin, collinear runs merged.  Balls, ellipsoids and polydisks stay
symbolic and are lowered to polygons on demand so the closed-form capacity
paths stay available.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point, Polygon, rational, rational_str


@dataclass(frozen=True)
class Ball:
    a: Fraction


@dataclass(frozen=True)
class Ellipsoid:
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class Polydisk:
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class ConvexToric:
    omega: Polygon


@dataclass(frozen=True)
class ConcaveToric:
    omega: Polygon


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple


@dataclass(frozen=True)
class CP2:
    """Complex projective plane with line class of size a."""
    a: Fraction


@dataclass(frozen=True)
class S2xS2:
    """Product of two spheres with factor sizes a and b."""
    a: Fraction
    b: Fraction


Domain = Ball | Ellipsoid | Polydisk | ConvexToric | ConcaveToric | DisjointUnion | CP2 | S2xS2

CLOSED_KINDS = (CP2, S2xS2)


@dataclass(frozen=True)
class DomainKindReport:
    is_convex_toric: bool
    is_concave_toric: bool
    normalized_omega: Polygon | None


def _positive(value, name: str) -> Fraction:
    v = rational(value)
    if v <= 0:
        raise ValueError(f"field '{name}': must be positive, got {rational_str(v)}")
    return v


def ball(a) -> Ball:
    return Ball(_positive(a, "a"))


def ellipsoid(a, b) -> Ellipsoid:
    return Ellipsoid(_positive(a, "a"), _positive(b, "b"))


def polydisk(a, b) -> Polydisk:
    return Polydisk(_positive(a, "a"), _positive(b, "b"))


def cp2(a) -> CP2:
    return CP2(_positive(a, "a"))


def s2xs2(a, b) -> S2xS2:
    return S2xS2(_positive(a, "a"), _positive(b, "b"))


def canonical_omega(poly) -> Polygon:
    """Counterclockwise cycle starting at the origin vertex.

    Accepts a Polygon or any iterable of point-likes, in either rotational
    direction.
    """
    if not isinstance(poly, Polygon):
        poly = Polygon.from_points(poly)
    if poly.signed_area() == 0:
        raise ValueError("moment polygon has zero area")
    if poly.signed_area() < 0:
        poly = poly.reversed()
    zero = (Fraction(0), Fraction(0))
    for x, y in poly.vertices:
        if x < 0 or y < 0:
            raise ValueError(f"moment polygon vertex ({rational_str(x)},{rational_str(y)}) "
                             "leaves the nonnegative quadrant")
    if zero not in poly.vertices:
        raise ValueError("moment polygon must have the origin as a vertex")
    i = poly.vertices.index(zero)
    return Polygon(poly.vertices[i:] + poly.vertices[:i])


def _reflected(canonical: Polygon) -> Polygon:
    # four-fold axis reflection of Omega, built from the boundary arc that
    # avoids the origin
    arc = canonical.vertices[1:]
    quads = [
        [(x, y) for x, y in arc],
        [(-x, y) for x, y in reversed(arc)],
        [(-x, -y) for x, y in arc],
        [(x, -y) for x, y in reversed(arc)],
    ]
    return Polygon.from_points([p for quad in quads for p in quad])


def _convex_toric_flag(canonical: Polygon) -> bool:
    from .geometry import is_convex
    vs = canonical.vertices
    v1, vlast = vs[1], vs[-1]
    if not (v1[1] == 0 and v1[0] > 0):
        return False
    if not (vlast[0] == 0 and vlast[1] > 0):
        return False
    if not is_convex(canonical):
        return False
    try:
        return is_convex(_reflected(canonical))
    except ValueError:
        return False


def _concave_toric_flag(canonical: Polygon) -> bool:
    from .geometry import cross
    vs = canonical.vertices
    v1, vlast = vs[1], vs[-1]
    if not (v1[1] == 0 and v1[0] > 0):
        return False
    if not (vlast[0] == 0 and vlast[1] > 0):
        return False
    # climb from (a,0) to (0,b): strictly up and to the left, and the upper
    # boundary must be the graph of a convex function (slopes increase)
    chain = vs[1:]
    dirs = []
    for i in range(len(chain) - 1):
        dx = chain[i + 1][0] - chain[i][0]
        dy = chain[i + 1][1] - chain[i][1]
        if not (dx < 0 and dy > 0):
            return False
        dirs.append((dx, dy))
    for i in range(len(dirs) - 1):
        if cross(dirs[i], dirs[i + 1]) >= 0:
            return False
    return True


def _triangle(a: Fraction, b: Fraction) -> Polygon:
    return Polygon.from_points([(0, 0), (a, 0), (0, b)])


def _rectangle(a: Fraction, b: Fraction) -> Polygon:
    return Polygon.from_points([(0, 0), (a, 0), (a, b), (0, b)])


def convex_toric(vertices) -> ConvexToric:
    omega = canonical_omega(vertices)
    if not _convex_toric_flag(omega):
        raise ValueError("polygon is not convex toric (axis reflection is not convex)")
    return ConvexToric(omega)


def concave_toric(vertices) -> ConcaveToric:
    omega = canonical_omega(vertices)
    if not _concave_toric_flag(omega):
        raise ValueError("polygon is not concave toric (quadrant complement is not convex)")
    return ConcaveToric(omega)


def disjoint_union(*parts) -> DisjointUnion:
    flat: list = []
    for p in parts:
        if isinstance(p, DisjointUnion):
            flat.extend(p.parts)
        elif isinstance(p, CLOSED_KINDS):
            raise ValueError("closed manifolds cannot be parts of a disjoint union")
        else:
            flat.append(p)
    if not flat:
        raise ValueError("disjoint union needs at least one part")
    for p in flat:
        validate(p)
    flat.sort(key=domain_key)
    return DisjointUnion(tuple(flat))


def validate(d: Domain) -> DomainKindReport:
    """Kind flags plus the canonical moment polygon, where one exists.

    Validation is idempotent: validating an already-canonical domain returns
    the same report.
    """
    if isinstance(d, Ball):
        a = _positive(d.a, "a")
        return DomainKindReport(True, True, _triangle(a, a))
    if isinstance(d, Ellipsoid):
        return DomainKindReport(True, True, _triangle(_positive(d.a, "a"), _positive(d.b, "b")))
    if isinstance(d, Polydisk):
        return DomainKindReport(True, False, _rectangle(_positive(d.a, "a"), _positive(d.b, "b")))
    if isinstance(d, ConvexToric):
        omega = canonical_omega(d.omega)
        if not _convex_toric_flag(omega):
            raise ValueError("polygon is not convex toric")
        return DomainKindReport(True, _concave_toric_flag(omega), omega)
    if isinstance(d, ConcaveToric):
        omega = canonical_omega(d.omega)
        if not _concave_toric_flag(omega):
            raise ValueError("polygon is not concave toric")
        return DomainKindReport(_convex_toric_flag(omega), True, omega)
    if isinstance(d, DisjointUnion):
        if not d.parts:
            raise ValueError("disjoint union needs at least one part")
        for p in d.parts:
            if isinstance(p, (DisjointUnion, *CLOSED_KINDS)):
                raise ValueError("disjoint union parts must be flat open domains")
            validate(p)
        return DomainKindReport(False, False, None)
    if isinstance(d, CP2):
        _positive(d.a, "a")
        return DomainKindReport(False, False, None)
    if isinstance(d, S2xS2):
        _positive(d.a, "a")
        _positive(d.b, "b")
        return DomainKindReport(False, False, None)
    raise ValueError(f"unsupported domain: {d!r}")


def classify_polygon(vertices) -> DomainKindReport:
    """Kind flags for a raw polygon, without committing to a variant."""
    omega = canonical_omega(vertices)
    return DomainKindReport(_convex_toric_flag(omega), _concave_toric_flag(omega), omega)


def volume(d: Domain) -> Fraction:
    """Exact symplectic volume; equals the moment-polygon area for toric
    domains, a^2/2 and ab for the two closed manifolds."""
    if isinstance(d, Ball):
        return d.a * d.a / 2
    if isinstance(d, Ellipsoid):
        return d.a * d.b / 2
    if isinstance(d, Polydisk):
        return d.a * d.b
    if isinstance(d, (ConvexToric, ConcaveToric)):
        return validate(d).normalized_omega.area()
    if isinstance(d, DisjointUnion):
        return sum((volume(p) for p in d.parts), Fraction(0))
    if isinstance(d, CP2):
        return d.a * d.a / 2
    if isinstance(d, S2xS2):
        return d.a * d.b
    raise ValueError(f"unsupported domain: {d!r}")


def scale_domain(d: Domain, mu) -> Domain:
    """Scale all moment data by the positive rational mu."""
    mu = _positive(mu, "mu")
    if isinstance(d, Ball):
        return Ball(d.a * mu)
    if isinstance(d, Ellipsoid):
        return Ellipsoid(d.a * mu, d.b * mu)
    if isinstance(d, Polydisk):
        return Polydisk(d.a * mu, d.b * mu)
    if isinstance(d, ConvexToric):
        return ConvexToric(Polygon(tuple((x * mu, y * mu) for x, y in d.omega.vertices)))
    if isinstance(d, ConcaveToric):
        return ConcaveToric(Polygon(tuple((x * mu, y * mu) for x, y in d.omega.vertices)))
    if isinstance(d, DisjointUnion):
        return DisjointUnion(tuple(scale_domain(p, mu) for p in d.parts))
    if isinstance(d, CP2):
        return CP2(d.a * mu)
    if isinstance(d, S2xS2):
        return S2xS2(d.a * mu, d.b * mu)
    raise ValueError(f"unsupported domain: {d!r}")


def outer_chain(canonical: Polygon) -> tuple[Point, ...]:
    """The boundary of a canonical moment polygon away from the origin,
    from (0, ymax) down to (xmax, 0)."""
    return tuple(reversed(canonical.vertices[1:]))


def upper_boundary(d) -> tuple[Point, ...]:
    """The outer boundary chain, from (0, ymax) down to (xmax, 0).

    Defined for any domain with a moment polygon whose boundary, away from
    the axes, is a single monotone chain; this covers both toric kinds.
    """
    report = validate(d)
    if report.normalized_omega is None:
        raise ValueError("domain has no moment polygon")
    return outer_chain(report.normalized_omega)


# --- wire format -----------------------------------------------------------

def domain_to_json(d: Domain) -> dict:
    if isinstance(d, Ball):
        return {"type": "ball", "a": rational_str(d.a)}
    if isinstance(d, Ellipsoid):
        return {"type": "ellipsoid", "a": rational_str(d.a), "b": rational_str(d.b)}
    if isinstance(d, Polydisk):
        return {"type": "polydisk", "a": rational_str(d.a), "b": rational_str(d.b)}
    if isinstance(d, ConvexToric):
        return {"type": "convex_toric",
                "vertices": [[rational_str(x), rational_str(y)]
                             for x, y in canonical_omega(d.omega).vertices]}
    if isinstance(d, ConcaveToric):
        return {"type": "concave_toric",
                "vertices": [[rational_str(x), rational_str(y)]
                             for x, y in canonical_omega(d.omega).vertices]}
    if isinstance(d, DisjointUnion):
        return {"type": "disjoint_union", "parts": [domain_to_json(p) for p in d.parts]}
    if isinstance(d, CP2):
        return {"type": "cp2", "a": rational_str(d.a)}
    if isinstance(d, S2xS2):
        return {"type": "s2xs2", "a": rational_str(d.a), "b": rational_str(d.b)}
    raise ValueError(f"unsupported domain: {d!r}")


def _need(obj: dict, field: str):
    if field not in obj:
        raise ValueError(f"field '{field}': missing")
    return obj[field]


def domain_from_json(obj) -> Domain:
    if not isinstance(obj, dict):
        raise ValueError("domain spec must be a JSON object")
    kind = _need(obj, "type")
    if kind == "ball":
        return ball(_need(obj, "a"))
    if kind == "ellipsoid":
        return ellipsoid(_need(obj, "a"), _need(obj, "b"))
    if kind == "polydisk":
        return polydisk(_need(obj, "a"), _need(obj, "b"))
    if kind in ("convex_toric", "concave_toric"):
        raw = _need(obj, "vertices")
        if not isinstance(raw, list) or len(raw) < 3:
            raise ValueError("field 'vertices': need a list of at least 3 points")
        pts = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"field 'vertices': bad point {entry!r}")
            pts.append((rational(entry[0]), rational(entry[1])))
        return convex_toric(pts) if kind == "convex_toric" else concave_toric(pts)
    if kind == "disjoint_union":
        raw = _need(obj, "parts")
        if not isinstance(raw, list) or not raw:
            raise ValueError("field 'parts': need a nonempty list")
        return disjoint_union(*[domain_from_json(p) for p in raw])
    if kind == "cp2":
        return cp2(_need(obj, "a"))
    if kind == "s2xs2":
        return s2xs2(_need(obj, "a"), _need(obj, "b"))
    raise ValueError(f"field 'type': unknown domain type {kind!r}")


def domain_key(d: Domain) -> str:
    """Stable string key for caching and canonical part ordering."""
    return json.dumps(domain_to_json(d), sort_keys=True, separators=(",", ":"))
