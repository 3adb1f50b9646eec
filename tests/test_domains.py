"""Domain model: validation flags, canonicalization, volume, wire format,
and the value semantics of the families and the records built on them."""

import json
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
import symcap.geometry as geometry
import symcap.paths as paths
from symcap.geometry import Polygon
from symcap.obstructions import asymptotic_ratio, check_embedding, scaling_lower_bound
from symcap.weights import negative_weight_sequence, weight_expansion


def test_validate_examples():
    b = dom.ball(1)
    assert b.convex and b.concave
    assert b.omega.vertices == ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))

    p = dom.polydisk(1, 1)
    assert p.convex and not p.concave

    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    assert pent.convex and not pent.concave


def test_every_ellipsoid_is_both_kinds():
    for a, b in [(1, 2), (F(3, 2), 1), (3, F(7, 5))]:
        e = dom.ellipsoid(a, b)
        assert e.convex and e.concave
        assert e.omega.vertices == (
            (F(0), F(0)), (F(a), F(0)), (F(0), F(b)))


def test_concave_polygon_flags():
    # staircase region under a convex graph: concave toric, not convex toric
    c = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])
    assert c.concave and not c.convex


def test_convex_toric_rejects_reflex_polygon():
    with pytest.raises(ValueError):
        dom.convex_toric([(0, 0), (3, 0), (1, 1), (0, 3)])
    with pytest.raises(ValueError):
        dom.concave_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])


def test_reflection_condition_is_stronger_than_convexity():
    # convex as a polygon, but the axis reflection has a reentrant corner:
    # the y-axis vertex is not the topmost point
    with pytest.raises(ValueError):
        dom.convex_toric([(0, 0), (2, 0), (1, 2), (0, 1)])


def test_validate_idempotent():
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    again = dom.ConvexToric(pent.omega)
    assert again == pent and again.omega == pent.omega
    assert (again.convex, again.concave) == (pent.convex, pent.concave)


def test_canonical_omega_accepts_any_rotation_and_orientation():
    a = dom.canonical_omega([(2, 0), (0, 2), (0, 0)])  # rotated, cw
    b = dom.canonical_omega([(0, 0), (2, 0), (0, 2)])
    assert a.vertices == b.vertices


def test_nonpositive_parameters_rejected():
    for bad in [0, -1, F(-1, 2)]:
        with pytest.raises(ValueError):
            dom.ball(bad)
        with pytest.raises(ValueError):
            dom.ellipsoid(1, bad)
        with pytest.raises(ValueError):
            dom.polydisk(bad, 1)


def test_sized_families_take_one_size_per_field():
    for args in [(), (1, 2)]:
        with pytest.raises(TypeError):
            dom.ball(*args)
    with pytest.raises(TypeError):
        dom.s2xs2(1)


def test_volume_examples():
    assert dom.ball(1).volume() == F(1, 2)
    assert dom.ellipsoid(1, 2).volume() == 1
    assert dom.polydisk(1, 2).volume() == 2
    assert dom.cp2(1).volume() == F(1, 2)
    assert dom.s2xs2(1, 2).volume() == 2
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    assert pent.volume() == F(7, 2)


def test_union_volume_is_sum():
    u = dom.disjoint_union(dom.ball(1), dom.ellipsoid(1, 2), dom.polydisk(1, 1))
    assert u.volume() == F(1, 2) + 1 + 1


def test_union_flattens_and_sorts():
    u1 = dom.disjoint_union(dom.ball(2), dom.disjoint_union(dom.ball(1)))
    u2 = dom.disjoint_union(dom.ball(1), dom.ball(2))
    assert u1 == u2


def test_union_rejects_closed_parts():
    with pytest.raises(ValueError):
        dom.disjoint_union(dom.ball(1), dom.cp2(1))
    with pytest.raises(ValueError):
        dom.disjoint_union()


def test_scale_domain_scales_moment_data():
    assert dom.scale_domain(dom.ball(1), 2) == dom.Ball(F(2))
    u = dom.disjoint_union(dom.ball(1), dom.polydisk(1, 2))
    su = dom.scale_domain(u, F(3, 2))
    assert su.volume() == F(9, 4) * u.volume()
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    sp = dom.scale_domain(pent, 3)
    assert sp.volume() == 9 * pent.volume()
    assert sp == dom.convex_toric([(0, 0), (6, 0), (6, 3), (3, 6), (0, 6)])


def test_scaled_union_is_the_union_of_the_scaled_parts():
    # parts stay in key order, so a scaled union has one key, one capacity
    # source and one witness order
    scaled = dom.scale_domain(dom.disjoint_union(dom.ball(1), dom.ball(F(2, 3))), 3)
    union = dom.disjoint_union(dom.ball(3), dom.ball(2))
    assert scaled == union
    assert scaled.key == union.key
    cap.clear_memo()
    assert cap.ck(scaled, 4) == cap.ck(union, 4)


def test_wire_format_round_trip():
    cases = [
        dom.ball(1),
        dom.ellipsoid(1, F(3, 2)),
        dom.polydisk(1, 2),
        dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]),
        dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]),
        dom.disjoint_union(dom.ball(1), dom.ball(1)),
        dom.cp2(1),
        dom.s2xs2(1, 1),
    ]
    assert {type(d) for d in cases} == set(dom.FAMILIES)
    for d in cases:
        back = dom.domain_from_json(d.to_json())
        assert type(back) is type(d) and back == d and hash(back) == hash(d)


def test_wire_format_diagnostics():
    with pytest.raises(ValueError, match="'type'"):
        dom.domain_from_json({"a": "1"})
    with pytest.raises(ValueError, match="'a'"):
        dom.domain_from_json({"type": "ball"})
    with pytest.raises(ValueError, match="vertices"):
        dom.domain_from_json({"type": "convex_toric", "vertices": [["0", "0"]]})
    with pytest.raises(ValueError, match="unknown domain type"):
        dom.domain_from_json({"type": "torus"})
    with pytest.raises(ValueError):
        dom.domain_from_json({"type": "ball", "a": 1.25})


def test_wire_format_accepts_integer_and_string_rationals():
    d = dom.domain_from_json({"type": "ellipsoid", "a": 1, "b": "3/2"})
    assert d == dom.Ellipsoid(F(1), F(3, 2))


def test_domain_key_is_stable_and_canonical():
    u1 = dom.disjoint_union(dom.ball(2), dom.ball(1))
    u2 = dom.disjoint_union(dom.ball(1), dom.ball(2))
    assert u1.key == u2.key
    assert "#" not in u1.key  # reserved for naming cache entries, key#k


# one domain per family, plus a staircase, with its key: the key bytes name
# the per-domain cache files already written and are stored inside them, so
# they never change
FAMILY_CASES = [
    (dom.ball(F(3, 2)), '{"a":"3/2","type":"ball"}', False),
    (dom.ellipsoid(1, F(5, 3)), '{"a":"1","b":"5/3","type":"ellipsoid"}', False),
    (dom.polydisk(1, F(3, 2)), '{"a":"1","b":"3/2","type":"polydisk"}', False),
    (dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]),
     '{"type":"convex_toric","vertices":[["0","0"],["2","0"],["2","1"],["1","2"],["0","2"]]}',
     False),
    (dom.concave_toric([(0, F(1)), (0, 0), (F(3, 2), 0)]),
     '{"type":"concave_toric","vertices":[["0","0"],["3/2","0"],["0","1"]]}', False),
    (dom.disjoint_union(dom.ball(1), dom.polydisk(F(1, 2), 1), dom.ellipsoid(1, 2)),
     '{"parts":[{"a":"1","b":"2","type":"ellipsoid"},{"a":"1","type":"ball"},'
     '{"a":"1/2","b":"1","type":"polydisk"}],"type":"disjoint_union"}', False),
    (dom.cp2(2), '{"a":"2","type":"cp2"}', True),
    (dom.s2xs2(1, 2), '{"a":"1","b":"2","type":"s2xs2"}', True),
    (dom.concave_toric([(0, 0), (5, 0), (3, F(1, 2)), (1, 2), (0, 4)]),
     '{"type":"concave_toric","vertices":[["0","0"],["5","0"],["3","1/2"],["1","2"],["0","4"]]}',
     False),
]


@pytest.mark.parametrize("d,key,closed", FAMILY_CASES,
                         ids=[type(d).__name__ for d, _, _ in FAMILY_CASES[:-1]] + ["staircase"])
def test_family_definition(d, key, closed):
    assert d.key == key
    assert dom.domain_from_json(json.loads(key)) == d
    assert dom.domain_from_json(d.to_json()) == d
    mu = F(5, 3)
    scaled = dom.scale_domain(d, mu)
    assert scaled.volume() == mu * mu * d.volume()
    cap.clear_memo()
    values = [r.value for r in cap.capacity_sequence(d, 8)]
    assert [r.value for r in cap.capacity_sequence(scaled, 8)] == [mu * v for v in values]
    if closed:
        with pytest.raises(ValueError, match="closed manifolds"):
            dom.disjoint_union(dom.ball(1), d)
        with pytest.raises(ValueError, match="closed manifolds"):
            scaling_lower_bound(dom.ball(1), d, 3)
    else:
        assert dom.disjoint_union(dom.ball(9), d).volume() == F(81, 2) + d.volume()
        assert scaling_lower_bound(dom.ball(1), d, 3) > 0


def test_domains_are_validated_once(monkeypatch):
    # construction canonicalizes and checks the polygon; nothing after it
    # does, and a sized family canonicalizes its polygon on first use only
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    stair = dom.concave_toric([(0, 0), (5, 0), (3, F(1, 2)), (1, 2), (0, 4)])
    calls = []
    real = dom.canonical_omega
    monkeypatch.setattr(dom, "canonical_omega", lambda poly: calls.append(poly) or real(poly))
    cycles = []
    real_cycle = geometry.cycle

    def counted_cycle(pts):
        cycles.append(pts)
        return real_cycle(pts)

    monkeypatch.setattr(geometry, "cycle", counted_cycle)
    monkeypatch.setattr(dom, "cycle", counted_cycle)
    cap.clear_memo()
    for d in (pent, stair):
        cap.capacity_sequence(d, 10)
        cap.ck(d, 6, verify=True)
        d.volume()
        assert d.key
    paths.min_convex(pent, 6)
    paths.max_concave(stair, 6)
    negative_weight_sequence(pent)
    weight_expansion(stair)
    assert calls == [] and cycles == []
    ball, square = dom.ball(F(3, 2)), dom.polydisk(1, F(3, 2))
    for d in (ball, square):
        assert d.omega is d.omega
        paths.min_convex(d, 6)
        paths.dual_norm(d, (1, -2))
        negative_weight_sequence(d)
    paths.max_concave(ball, 6)
    paths.anti_norm(ball, (1, -2))
    weight_expansion(ball)
    assert len(cycles) == 2  # once for each of ball and square
    dom.convex_toric([(0, 0), (2, 0), (0, 2)])
    assert len(calls) == 1


# Domains and records are immutable values: equal within one family when
# their fields are equal, hashed by their fields, and printed as
# Family(field=value, ...), the text their reprs have always had.
TRIANGLE_VERTICES = "((Fraction(0, 1), Fraction(0, 1)), " \
    "(Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))"
SMALL_TRIANGLE = f"Polygon(vertices={TRIANGLE_VERTICES})"
DOMAIN_REPRS = [
    (dom.ball(1), "Ball(a=Fraction(1, 1))"),
    (dom.ellipsoid(1, F(3, 2)), "Ellipsoid(a=Fraction(1, 1), b=Fraction(3, 2))"),
    (dom.polydisk(1, 2), "Polydisk(a=Fraction(1, 1), b=Fraction(2, 1))"),
    (dom.convex_toric([(0, 0), (1, 0), (0, 1)]), f"ConvexToric(omega={SMALL_TRIANGLE})"),
    (dom.concave_toric([(0, 1), (1, 0), (0, 0)]), f"ConcaveToric(omega={SMALL_TRIANGLE})"),
    (dom.disjoint_union(dom.ball(1), dom.ellipsoid(1, 2)),
     "DisjointUnion(parts=(Ellipsoid(a=Fraction(1, 1), b=Fraction(2, 1)), "
     "Ball(a=Fraction(1, 1))))"),
    (dom.cp2(F(1, 2)), "CP2(a=Fraction(1, 2))"),
    (dom.s2xs2(1, 1), "S2xS2(a=Fraction(1, 1), b=Fraction(1, 1))"),
]


def _record_reprs():
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    path = "LatticePath(kind='convex', edges=((1, -1),), start_y=1)"
    cap.clear_memo()
    return [
        (dom.ball(1).omega, SMALL_TRIANGLE),
        (paths.convex_path([(1, -1)]), path),
        (paths.min_convex(pent, 2),
         f"PathOptimum(value=Fraction(3, 1), witness={path}, count_constraint=3)"),
        (negative_weight_sequence(pent),
         "NegativeWeightDecomposition(head=Fraction(3, 1), "
         "negatives=(Fraction(1, 1), Fraction(1, 1)))"),
        (cap.ck(pent, 2),
         "CapacityResult(k=2, value=Fraction(3, 1), method='weights', witness={'l': 0})"),
        (check_embedding(dom.ball(1), dom.ball(2), 1),
         "ObstructionReport(obstructed=False, first_k=None, c_source=None, c_target=None, "
         "k_max=1, volume_ok=True, table=((0, Fraction(0, 1), Fraction(0, 1)), "
         "(1, Fraction(1, 1), Fraction(2, 1))))"),
        (asymptotic_ratio(dom.ball(1), 3),
         "AsymptoticReport(k=3, value=Fraction(2, 1), "
         "model_low=Fraction(1224744871, 500000000), "
         "model_high=Fraction(2449489743, 1000000000), "
         "residual_high=Fraction(224744871500000000, 658037006368182913))"),
    ]


def test_reprs_keep_their_text():
    for value, text in DOMAIN_REPRS + _record_reprs():
        assert repr(value) == text


def test_fields_cannot_be_assigned_or_deleted():
    for value, _ in DOMAIN_REPRS + _record_reprs():
        names = value.FIELDS if isinstance(value, dom.Domain) else value._fields
        assert names
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_domains_equal_only_within_one_family():
    assert dom.ball(1) == dom.Ball(F(1)) and dom.ball(1) != dom.cp2(1)
    assert dom.ellipsoid(1, 2) != dom.polydisk(1, 2)
    assert dom.polydisk(1, 2) != dom.s2xs2(1, 2)
    assert dom.convex_toric([(0, 0), (1, 0), (0, 1)]) != dom.concave_toric([(0, 0), (1, 0), (0, 1)])
    assert dom.ball(1) != (F(1),) and dom.ball(1) != "ball"
    for d, _ in DOMAIN_REPRS:
        twin = dom.domain_from_json(d.to_json())
        assert twin is not d and twin == d and hash(twin) == hash(d)
        assert len({d, twin, dom.scale_domain(d, 2)}) == 2
