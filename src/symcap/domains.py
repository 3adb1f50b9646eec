"""Domain model: one definition per family.

Balls, ellipsoids, polydisks, convex and concave toric domains, their
disjoint unions, and the closed manifolds CP^2 and S^2 x S^2 are
immutable classes on Domain, which compare, hash and print by family and
FIELDS.  Each family defines, once, what every layer reads: the wire
TYPE and FIELDS, the moment polygon omega (canonical and stored for toric
domains, derived once for balls, ellipsoids and polydisks, else None),
the convex and concave toric flags (the axis reflection of omega, or the
complement of omega in the quadrant, is convex) and CLOSED, volume and
scale, the capacity SOURCE and METHOD, the CLI's WEIGHTS and PATHS, and a
key computed once.  A domain is validated once, when it is built, in the
integers its polygon carries (geometry.Polygon), which the volume, the
weights and the path searches read from omega; its points stay
Fractions.  Canonical polygons run counterclockwise from the origin,
collinear runs merged; union parts are flat and sorted by key.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .geometry import Polygon, cross, cycle, is_convex, rational, rational_str


def _positive(value, name: str) -> Fraction:
    v = rational(value)
    if v <= 0:
        raise ValueError(f"field '{name}': must be positive, got {rational_str(v)}")
    return v


def canonical_omega(poly) -> Polygon:
    """The canonical moment polygon, checked once, in integers over its
    common denominator: counterclockwise, starting at the origin vertex.
    Accepts a Polygon, its cycle canonical already, or any iterable of
    point-likes, either way round."""
    c = poly if isinstance(poly, Polygon) else cycle(poly)
    if c.area2 == 0:
        raise ValueError("moment polygon has zero area")
    vs, ints = (c.vertices, c.ints) if c.area2 > 0 else (c.vertices[::-1], c.ints[::-1])
    for (x, y), (px, py) in zip(ints, vs):
        if x < 0 or y < 0:
            raise ValueError(f"moment polygon vertex ({rational_str(px)},{rational_str(py)}) "
                             "leaves the nonnegative quadrant")
    if (0, 0) not in ints:
        raise ValueError("moment polygon must have the origin as a vertex")
    i = ints.index((0, 0))
    return Polygon(vs[i:] + vs[:i], ints[i:] + ints[:i], c.scale, abs(c.area2))


def _convex_toric_flag(c: Polygon) -> bool:
    """Omega runs from the origin along the x-axis to (a, 0) and back down
    the y-axis from (0, b), turns left everywhere, and its four-fold axis
    reflection adds no reflex corner: the edge leaving (a, 0) has dx <= 0
    and the edge reaching (0, b) has dy >= 0.  Every other corner of the
    reflection turns as the corner of Omega it reflects."""
    (a, y1), (x2, _), (xm, ym), (xl, b) = c.ints[1], c.ints[2], c.ints[-2], c.ints[-1]
    return y1 == 0 < a and xl == 0 < b and x2 <= a and ym <= b and is_convex(c)


def check_concave_chain(chain) -> None:
    """Raise ValueError unless chain, from (0, b) down to (a, 0), has x
    strictly increasing, y strictly decreasing and slopes increasing."""
    if len(chain) < 2:
        raise ValueError(f"bad boundary chain (too short): {chain}")
    if not (chain[0][0] == 0 and chain[0][1] > 0 and chain[-1][1] == 0 and chain[-1][0] > 0):
        raise ValueError(f"bad boundary chain (endpoints off the axes): {chain}")
    dirs = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(chain, chain[1:])]
    if not all(dx > 0 and dy < 0 for dx, dy in dirs):
        raise ValueError(f"bad boundary chain (not monotone): {chain}")
    if any(cross(u, v) <= 0 for u, v in zip(dirs, dirs[1:])):
        raise ValueError(f"bad boundary chain (slopes not increasing): {chain}")


def _concave_toric_flag(c: Polygon) -> bool:
    try:
        check_concave_chain(c.ints[:0:-1])
    except ValueError:
        return False
    return True


def _triangle(a: Fraction, b: Fraction) -> Polygon:
    return Polygon.from_points([(0, 0), (a, 0), (0, b)])


def _need(obj: dict, field: str):
    if field not in obj:
        raise ValueError(f"field '{field}': missing")
    return obj[field]


class Domain:
    """The base of every family, with the common defaults.  A domain is
    immutable; it equals a domain of the same family with equal FIELDS."""

    FIELDS: tuple = ()
    CLOSED = False
    WEIGHTS = None
    PATHS = "convex"
    convex = False
    concave = False

    def _set(self, *values) -> None:
        for name, value in zip(self.FIELDS, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    @functools.cached_property
    def key(self) -> str:
        return json.dumps(domain_to_json(self), sort_keys=True, separators=(",", ":"))


class _Sized(Domain):
    """A family given by its positive sizes, one field each."""

    omega = None

    def __init__(self, *sizes):
        if len(sizes) != len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes sizes {self.FIELDS}, got {sizes}")
        self._set(*map(_positive, sizes, self.FIELDS))

    def scale(self, mu: Fraction):
        return type(self)(*(v * mu for v in self._values()))

    def to_json(self) -> dict:
        return {"type": self.TYPE,
                **{name: rational_str(getattr(self, name)) for name in self.FIELDS}}

    @classmethod
    def _from_json(cls, obj: dict):
        return cls(*[_need(obj, name) for name in cls.FIELDS])


class Ball(_Sized):
    FIELDS = ("a",)
    TYPE = "ball"
    SOURCE = "ball"
    METHOD = "ball_formula"
    WEIGHTS = "expansion"
    convex = concave = True

    @functools.cached_property
    def omega(self) -> Polygon:
        return _triangle(self.a, self.a)

    def volume(self) -> Fraction:
        return self.a * self.a / 2


class Ellipsoid(_Sized):
    FIELDS = ("a", "b")
    TYPE = "ellipsoid"
    SOURCE = "ellipsoid"
    METHOD = "ellipsoid_spectrum"
    WEIGHTS = "expansion"
    convex = concave = True

    @functools.cached_property
    def omega(self) -> Polygon:
        return _triangle(self.a, self.b)

    def volume(self) -> Fraction:
        return self.a * self.b / 2


class Polydisk(_Sized):
    FIELDS = ("a", "b")
    TYPE = "polydisk"
    SOURCE = "polydisk"
    METHOD = "polydisk_formula"
    WEIGHTS = "negative"
    convex = True

    @functools.cached_property
    def omega(self) -> Polygon:
        return Polygon.from_points([(0, 0), (self.a, 0), (self.a, self.b), (0, self.b)])

    def volume(self) -> Fraction:
        return self.a * self.b


class CP2(_Sized):
    """Complex projective plane with line class of size a."""

    FIELDS = ("a",)
    TYPE = "cp2"
    SOURCE = "ball"
    METHOD = "cp2"
    CLOSED = True
    volume = Ball.volume


class S2xS2(_Sized):
    """Product of two spheres with factor sizes a and b."""

    FIELDS = ("a", "b")
    TYPE = "s2xs2"
    SOURCE = "polydisk"
    METHOD = "s2xs2"
    CLOSED = True
    volume = Polydisk.volume


class _Toric(Domain):
    """A family given by its moment polygon, stored canonical as it was
    validated; the flag the family does not fix is read off its integers."""

    FIELDS = ("omega",)
    convex = property(lambda self: _convex_toric_flag(self.omega))
    concave = property(lambda self: _concave_toric_flag(self.omega))

    def __init__(self, omega):
        c = canonical_omega(omega)
        if not self._valid(c):
            raise ValueError(self._INVALID)
        self._set(c)

    def volume(self) -> Fraction:
        return self.omega.signed_area()

    def scale(self, mu: Fraction):
        return type(self)([(x * mu, y * mu) for x, y in self.omega.vertices])

    def to_json(self) -> dict:
        return {"type": self.TYPE,
                "vertices": [[rational_str(x), rational_str(y)] for x, y in self.omega.vertices]}

    @classmethod
    def _from_json(cls, obj: dict):
        raw = _need(obj, "vertices")
        if not isinstance(raw, list) or len(raw) < 3:
            raise ValueError("field 'vertices': need a list of at least 3 points")
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"field 'vertices': bad point {entry!r}")
        return cls(raw)


class ConvexToric(_Toric):
    TYPE = "convex_toric"
    SOURCE = "convex"
    METHOD = "weights"
    WEIGHTS = "negative"
    convex = True

    _valid = staticmethod(_convex_toric_flag)
    _INVALID = "polygon is not convex toric (axis reflection is not convex)"


class ConcaveToric(_Toric):
    TYPE = "concave_toric"
    SOURCE = "concave"
    METHOD = "weights"
    WEIGHTS = "expansion"
    PATHS = "concave"
    concave = True

    _valid = staticmethod(_concave_toric_flag)
    _INVALID = "polygon is not concave toric (quadrant complement is not convex)"


class DisjointUnion(Domain):
    """Open domains side by side; nested unions are flattened."""

    FIELDS = ("parts",)
    TYPE = "disjoint_union"
    SOURCE = "union"
    METHOD = "union_dp"
    omega = None

    def __init__(self, parts):
        flat: list = []
        for p in parts:
            if isinstance(p, DisjointUnion):
                flat.extend(p.parts)
            elif p.CLOSED:
                raise ValueError("closed manifolds cannot be parts of a disjoint union")
            else:
                flat.append(p)
        if not flat:
            raise ValueError("disjoint union needs at least one part")
        flat.sort(key=domain_key)
        self._set(tuple(flat))

    def volume(self) -> Fraction:
        return sum((p.volume() for p in self.parts), Fraction(0))

    def scale(self, mu: Fraction):
        return DisjointUnion(tuple(p.scale(mu) for p in self.parts))

    def to_json(self) -> dict:
        return {"type": self.TYPE, "parts": [p.to_json() for p in self.parts]}

    @classmethod
    def _from_json(cls, obj: dict):
        raw = _need(obj, "parts")
        if not isinstance(raw, list) or not raw:
            raise ValueError("field 'parts': need a nonempty list")
        return cls(tuple(domain_from_json(p) for p in raw))


FAMILIES = (Ball, Ellipsoid, Polydisk, ConvexToric, ConcaveToric, DisjointUnion, CP2, S2xS2)

ball = Ball
ellipsoid = Ellipsoid
polydisk = Polydisk
cp2 = CP2
s2xs2 = S2xS2
convex_toric = ConvexToric
concave_toric = ConcaveToric


def disjoint_union(*parts) -> DisjointUnion:
    return DisjointUnion(parts)


def volume(d: Domain) -> Fraction:
    """Exact symplectic volume; equals the moment-polygon area for toric
    domains, a^2/2 and ab for the two closed manifolds."""
    return d.volume()


def scale_domain(d: Domain, mu) -> Domain:
    """Scale all moment data by the positive rational mu."""
    return d.scale(_positive(mu, "mu"))


# --- wire format -----------------------------------------------------------

def domain_to_json(d: Domain) -> dict:
    return d.to_json()


def domain_from_json(obj) -> Domain:
    if not isinstance(obj, dict):
        raise ValueError("domain spec must be a JSON object")
    kind = _need(obj, "type")
    for family in FAMILIES:
        if family.TYPE == kind:
            return family._from_json(obj)
    raise ValueError(f"field 'type': unknown domain type {kind!r}")


def domain_key(d: Domain) -> str:
    """Stable string key for caching and canonical part ordering."""
    return d.key
