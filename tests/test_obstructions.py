"""Embedding obstructions, scaling bounds, and growth-rate checks."""

from fractions import Fraction as F

import pytest

import symcap.domains as dom
from symcap.capacities import ck
from symcap.obstructions import (
    asymptotic_ratio,
    check_embedding,
    scaling_lower_bound,
    sqrt_interval,
)

TWO_BALLS = dom.disjoint_union(dom.ball(1), dom.ball(1))


def test_two_balls_into_slightly_larger_ball():
    rep = check_embedding(TWO_BALLS, dom.ball(F(3, 2)), 10)
    assert rep.obstructed and rep.verdict == "obstructed"
    assert rep.first_k == 2
    assert rep.c_source == 2 and rep.c_target == F(3, 2)
    # volume alone would allow it: 1 <= 9/8
    assert rep.volume_ok


def test_identity_embedding_clean():
    rep = check_embedding(dom.ball(1), dom.ball(1), 10)
    assert not rep.obstructed and rep.verdict == "no_obstruction_up_to"
    assert rep.first_k is None and rep.k_max == 10
    assert len(rep.table) == 11


def test_inclusion_is_clean():
    rep = check_embedding(dom.ellipsoid(1, 2), dom.ball(2), 20)
    assert not rep.obstructed
    assert rep.volume_ok


def test_volume_flag_independent_of_verdict():
    rep = check_embedding(dom.ball(2), dom.ball(1), 5)
    assert rep.obstructed and rep.first_k == 1
    assert not rep.volume_ok


def test_table_shape_and_minimality():
    rep = check_embedding(TWO_BALLS, dom.ball(F(3, 2)), 10)
    assert rep.table[0] == (0, 0, 0)
    assert len(rep.table) == rep.first_k + 1
    for k, cs, ct in rep.table[:-1]:
        assert cs <= ct
    k, cs, ct = rep.table[-1]
    assert k == rep.first_k and cs > ct


@pytest.mark.parametrize(
    "d",
    [
        dom.ball(1),
        dom.ellipsoid(1, 2),
        dom.polydisk(1, 2),
        TWO_BALLS,
        dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]),
        dom.cp2(1),
    ],
)
def test_self_embedding_never_obstructed(d):
    assert not check_embedding(d, d, 8).obstructed


def test_kmax_must_be_positive():
    with pytest.raises(ValueError):
        check_embedding(dom.ball(1), dom.ball(1), 0)


@pytest.mark.parametrize("k", [3.7, F(7, 2), 3.0, True], ids=["float", "Fraction", "whole_float", "bool"])
def test_indices_must_be_ints(k):
    # int() used to truncate each of these
    kind = type(k).__name__
    with pytest.raises(ValueError, match=f"^k_max must be an int, got {kind}$"):
        check_embedding(TWO_BALLS, dom.ball(1), k)
    with pytest.raises(ValueError, match=f"^k_max must be an int, got {kind}$"):
        scaling_lower_bound(TWO_BALLS, dom.ball(1), k)
    with pytest.raises(ValueError, match=f"^k must be an int, got {kind}$"):
        asymptotic_ratio(dom.ball(1), k)


def test_scaling_lower_bound_examples():
    assert scaling_lower_bound(dom.ellipsoid(1, 2), dom.ball(1), 50) == 2
    assert scaling_lower_bound(dom.ball(1), dom.ball(1), 50) == 1
    assert scaling_lower_bound(TWO_BALLS, dom.ball(1), 50) == 2


def test_scaling_lower_bound_cancels_equal_scaling():
    pairs = [
        (dom.ellipsoid(1, 2), dom.ball(1)),
        (dom.polydisk(1, 2), dom.ball(1)),
    ]
    for src, tgt in pairs:
        base = scaling_lower_bound(src, tgt, 12)
        for mu in (3, F(5, 2)):
            assert scaling_lower_bound(
                dom.scale_domain(src, mu), dom.scale_domain(tgt, mu), 12) == base


def test_scaling_lower_bound_rejects_closed_target():
    with pytest.raises(ValueError):
        scaling_lower_bound(dom.ball(1), dom.cp2(1), 10)


def test_sqrt_interval_brackets():
    for v in (F(2), F(3), F(2575), F(7, 5), F(4)):
        lo, hi = sqrt_interval(v)
        assert lo >= 0 and lo * lo <= v <= hi * hi
        assert hi - lo <= F(1, 10**9)
    lo, hi = sqrt_interval(F(0))
    assert lo == 0
    with pytest.raises(ValueError, match="^square root of a negative value$"):
        sqrt_interval(F(-1))


def test_asymptotics_ball_endpoint():
    rep = asymptotic_ratio(dom.ball(1), 1)
    assert rep.value == 1 and rep.k == 1
    assert rep.model_low <= rep.model_high


def test_asymptotics_large_ball_index():
    rep = asymptotic_ratio(dom.ball(1), 5150)
    assert rep.value == 100
    # model is 2*sqrt(2575) ~ 101.489
    assert rep.model_low ** 2 <= 4 * 2575 <= rep.model_high ** 2
    assert F(101, 1) < rep.model_low < rep.model_high < F(102, 1)
    assert rep.residual_high <= 2


def test_asymptotics_rejects_k_zero():
    with pytest.raises(ValueError):
        asymptotic_ratio(dom.ball(1), 0)


def test_ball_residuals_stay_bounded():
    for d in range(10, 101, 10):
        k = (d * d + 3 * d) // 2
        rep = asymptotic_ratio(dom.ball(1), k)
        assert rep.value == d
        assert rep.residual_high <= 2


def test_ellipsoid_residual_regression():
    rep = asymptotic_ratio(dom.ellipsoid(1, 3), 10000)
    assert rep.residual_high <= 4


def test_obstruction_values_match_capacities():
    rep = check_embedding(dom.ellipsoid(1, F(3, 2)), dom.ball(1), 6)
    for k, cs, ct in rep.table:
        assert cs == ck(dom.ellipsoid(1, F(3, 2)), k).value
        assert ct == ck(dom.ball(1), k).value
