"""Support functionals on edge vectors: dual norm (convex) and anti-norm (concave)."""

from fractions import Fraction as F

import pytest

import symcap.domains as dom
from symcap.paths import anti_norm, dual_norm


def test_dual_norm_examples():
    assert dual_norm(dom.ball(1), (1, -1)) == 1
    assert dual_norm(dom.polydisk(1, 1), (2, -1)) == 3


def test_anti_norm_examples():
    e12 = dom.ellipsoid(1, 2)
    assert anti_norm(e12, (1, -1)) == 1
    assert anti_norm(e12, (1, 0)) == 0


def test_triangle_closed_forms():
    # on T(a) the dual norm is a*max(|p|,|q|) and the anti-norm a*min(|p|,|q|)
    for a in (1, 2, F(3, 2)):
        t = dom.ball(a)
        for p in range(-10, 11):
            for q in range(-10, 11):
                assert dual_norm(t, (p, q)) == a * max(abs(p), abs(q))
                assert anti_norm(t, (p, q)) == a * min(abs(p), abs(q))


def test_dual_norm_subadditive_and_homogeneous():
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    for d in (dom.ellipsoid(1, 2), pent):
        vs = [(p, q) for p in range(-4, 5) for q in range(-4, 5)]
        for v in vs:
            for m in range(11):
                assert dual_norm(d, (m * v[0], m * v[1])) == m * dual_norm(d, v)
        for v in vs[::7]:
            for w in vs[::5]:
                s = (v[0] + w[0], v[1] + w[1])
                assert dual_norm(d, s) <= dual_norm(d, v) + dual_norm(d, w)


def test_anti_norm_superadditive_on_quadrant():
    # superadditivity holds when summands sit in a common sign quadrant
    c = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])
    for d in (dom.ellipsoid(1, 2), c):
        vs = [(p, -q) for p in range(5) for q in range(5)]
        for v in vs:
            for w in vs:
                s = (v[0] + w[0], v[1] + w[1])
                assert anti_norm(d, s) >= anti_norm(d, v) + anti_norm(d, w)
        for v in vs:
            for m in range(11):
                assert anti_norm(d, (m * v[0], m * v[1])) == m * anti_norm(d, v)


def test_sign_invariance():
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    e23 = dom.ellipsoid(2, 3)
    for p in range(0, 5):
        for q in range(0, 5):
            base = dual_norm(pent, (p, q))
            for sp, sq in ((1, -1), (-1, 1), (-1, -1)):
                assert dual_norm(pent, (sp * p, sq * q)) == base
            base = anti_norm(e23, (p, q))
            for sp, sq in ((1, -1), (-1, 1), (-1, -1)):
                assert anti_norm(e23, (sp * p, sq * q)) == base


def test_anti_norm_vanishes_on_axis_directions_when_chain_touches_axes():
    # chain endpoints (0,b) and (a,0) force min over vertices of the pairing to 0
    for d in (dom.ellipsoid(1, 2), dom.ball(3)):
        assert anti_norm(d, (1, 0)) == 0
        assert anti_norm(d, (0, -1)) == 0


def test_context_from_raw_vertex_list():
    # the norms read the canonical polygon a domain keeps, whatever the
    # order of the vertices it was given, and reject a domain of the other kind
    d = dom.convex_toric([(2, 0), (2, 1), (1, 2), (0, 2), (0, 0)])
    assert dual_norm(d, (1, 1)) == 3
    with pytest.raises(ValueError, match="not convex toric"):
        dual_norm(dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]), (1, 1))
    with pytest.raises(ValueError, match="not concave toric"):
        anti_norm(dom.polydisk(1, 1), (1, 1))
