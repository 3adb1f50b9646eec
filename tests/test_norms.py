"""Support functionals on edge vectors: dual norm (convex) and anti-norm (concave)."""

from fractions import Fraction as F

import pytest

import symcap.domains as dom
from symcap.norms import anti_norm, concave_context, convex_context, dual_norm


def test_dual_norm_examples():
    t1 = convex_context(dom.ball(1))
    assert dual_norm(t1, (1, -1)) == 1
    sq = convex_context(dom.polydisk(1, 1))
    assert dual_norm(sq, (2, -1)) == 3


def test_anti_norm_examples():
    e12 = concave_context(dom.ellipsoid(1, 2))
    assert anti_norm(e12, (1, -1)) == 1
    assert anti_norm(e12, (1, 0)) == 0


def test_triangle_closed_forms():
    # on T(a) the dual norm is a*max(|p|,|q|) and the anti-norm a*min(|p|,|q|)
    for a in (1, 2, F(3, 2)):
        cvx = convex_context(dom.ball(a))
        ccv = concave_context(dom.ball(a))
        for p in range(-10, 11):
            for q in range(-10, 11):
                assert dual_norm(cvx, (p, q)) == a * max(abs(p), abs(q))
                assert anti_norm(ccv, (p, q)) == a * min(abs(p), abs(q))


def test_dual_norm_subadditive_and_homogeneous():
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    for ctx in (convex_context(dom.ellipsoid(1, 2)), convex_context(pent)):
        vs = [(p, q) for p in range(-4, 5) for q in range(-4, 5)]
        for v in vs:
            for m in range(11):
                assert dual_norm(ctx, (m * v[0], m * v[1])) == m * dual_norm(ctx, v)
        for v in vs[::7]:
            for w in vs[::5]:
                s = (v[0] + w[0], v[1] + w[1])
                assert dual_norm(ctx, s) <= dual_norm(ctx, v) + dual_norm(ctx, w)


def test_anti_norm_superadditive_on_quadrant():
    # superadditivity holds when summands sit in a common sign quadrant
    c = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])
    for ctx in (concave_context(dom.ellipsoid(1, 2)), concave_context(c)):
        vs = [(p, -q) for p in range(5) for q in range(5)]
        for v in vs:
            for w in vs:
                s = (v[0] + w[0], v[1] + w[1])
                assert anti_norm(ctx, s) >= anti_norm(ctx, v) + anti_norm(ctx, w)
        for v in vs:
            for m in range(11):
                assert anti_norm(ctx, (m * v[0], m * v[1])) == m * anti_norm(ctx, v)


def test_sign_invariance():
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    cvx = convex_context(pent)
    ccv = concave_context(dom.ellipsoid(2, 3))
    for p in range(0, 5):
        for q in range(0, 5):
            base = dual_norm(cvx, (p, q))
            for sp, sq in ((1, -1), (-1, 1), (-1, -1)):
                assert dual_norm(cvx, (sp * p, sq * q)) == base
            base = anti_norm(ccv, (p, q))
            for sp, sq in ((1, -1), (-1, 1), (-1, -1)):
                assert anti_norm(ccv, (sp * p, sq * q)) == base


def test_anti_norm_vanishes_on_axis_directions_when_chain_touches_axes():
    # chain endpoints (0,b) and (a,0) force min over vertices of the pairing to 0
    for d in (dom.ellipsoid(1, 2), dom.ball(3)):
        ctx = concave_context(d)
        assert anti_norm(ctx, (1, 0)) == 0
        assert anti_norm(ctx, (0, -1)) == 0


def test_context_kind_mismatch_rejected():
    cvx = convex_context(dom.ball(1))
    ccv = concave_context(dom.ball(1))
    with pytest.raises(ValueError):
        anti_norm(cvx, (1, -1))
    with pytest.raises(ValueError):
        dual_norm(ccv, (1, -1))


def test_context_from_raw_vertex_list():
    ctx = convex_context(dom.convex_toric([(2, 0), (2, 1), (1, 2), (0, 2), (0, 0)]))
    assert dual_norm(ctx, (1, 1)) == 3
    with pytest.raises(ValueError, match="not convex toric"):
        convex_context(dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]))
    with pytest.raises(ValueError, match="not concave toric"):
        concave_context(dom.polydisk(1, 1))
