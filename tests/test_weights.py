"""Ball decompositions: weight expansions and negative weight sequences."""

from fractions import Fraction as F

import pytest

import symcap.domains as dom
from symcap.weights import (
    NegativeWeightDecomposition,
    negative_weight_runs,
    negative_weight_sequence,
    weight_expansion,
    weight_runs,
)

STAIR = [(0, 0), (3, 0), (1, 1), (0, 3)]
STAIR2 = [(0, 0), (4, 0), (2, 1), (1, 2), (0, 4)]
PENT = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])


def test_inscribed_triangle_size_examples():
    # the first ball peeled is the largest inscribed triangle
    assert weight_expansion(dom.ball(1))[0] == 1
    assert weight_expansion(dom.ellipsoid(1, 2))[0] == 1
    assert weight_expansion(dom.ellipsoid(1, F(3, 2)))[0] == 1
    assert weight_expansion(dom.concave_toric(STAIR))[0] == 2


def test_ball_expands_to_itself():
    for r in (1, 2, F(3, 2)):
        assert weight_expansion(dom.ball(r)) == (F(r),)


def test_ellipsoid_expansions():
    assert weight_expansion(dom.ellipsoid(1, 2)) == (1, 1)
    assert weight_expansion(dom.ellipsoid(1, F(3, 2))) == (1, F(1, 2), F(1, 2))
    assert weight_expansion(dom.ellipsoid(1, F(5, 2))) == (1, 1, F(1, 2), F(1, 2))
    assert weight_expansion(dom.ellipsoid(1, 3)) == (1, 1, 1)


def test_polygon_expansions():
    assert weight_expansion(dom.concave_toric(STAIR)) == (2, 1, 1)
    assert weight_expansion(dom.concave_toric(STAIR2)) == (3, 1, 1)
    # the two unit balls come from different pieces and share one run
    assert weight_runs(dom.concave_toric(STAIR)) == [(2, 1), (1, 2)]


def _subtractive_euclid(p, q):
    """Ball sizes of the triangle with legs p, q by repeated subtraction."""
    p, q = F(p), F(q)
    out = []
    while p != q:
        if p > q:
            p, q = q, p
        out.append(p)
        q -= p
    out.append(p)
    return tuple(sorted(out, reverse=True))


@pytest.mark.parametrize("b", [1, 2, F(3, 2), F(5, 2), 3])
def test_expansion_matches_subtractive_euclid(b):
    got = weight_expansion(dom.ellipsoid(1, b))
    want = _subtractive_euclid(1, b)
    assert len(got) == len(want)
    assert got == want


@pytest.mark.parametrize(
    "omega",
    [
        dom.ball(1),
        dom.ellipsoid(1, 2),
        dom.ellipsoid(1, F(3, 2)),
        dom.ellipsoid(1, F(5, 2)),
        dom.ellipsoid(1, 3),
        dom.concave_toric(STAIR),
        dom.concave_toric(STAIR2),
    ],
)
def test_expansion_fills_the_volume(omega):
    ws = weight_expansion(omega)
    assert all(w > 0 for w in ws)
    assert tuple(sorted(ws, reverse=True)) == ws
    assert sum(w * w for w in ws) / 2 == omega.volume()


def test_negative_weight_sequence_examples():
    assert negative_weight_sequence(dom.ball(1)) == NegativeWeightDecomposition(F(1), ())
    assert negative_weight_sequence(dom.polydisk(1, 1)) == NegativeWeightDecomposition(
        F(2), (F(1), F(1)))
    assert negative_weight_sequence(dom.polydisk(1, 2)) == NegativeWeightDecomposition(
        F(3), (F(2), F(1)))
    assert negative_weight_sequence(PENT) == NegativeWeightDecomposition(
        F(3), (F(1), F(1)))
    assert negative_weight_sequence(dom.polydisk(2, 3)) == NegativeWeightDecomposition(
        F(5), (F(3), F(2)))


@pytest.mark.parametrize(
    "omega",
    [
        dom.ball(2),
        dom.ellipsoid(1, 2),
        dom.polydisk(1, 1),
        dom.polydisk(1, 2),
        dom.polydisk(2, 3),
        PENT,
    ],
)
def test_negative_sequence_deficit_identity(omega):
    d = negative_weight_sequence(omega)
    assert all(w > 0 for w in d.negatives)
    assert tuple(sorted(d.negatives, reverse=True)) == d.negatives
    assert d.head * d.head / 2 - sum(w * w for w in d.negatives) / 2 == omega.volume()


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        weight_expansion(PENT)  # convex but not concave
    with pytest.raises(ValueError):
        negative_weight_sequence(dom.concave_toric(STAIR))
    union = dom.disjoint_union(dom.ball(1), dom.ball(2))
    with pytest.raises(ValueError, match="no moment polygon"):
        weight_expansion(union)


def test_expansion_has_no_depth_limit():
    # the long leg's unit balls are peeled as one run, and written out one
    # by one
    assert weight_expansion(dom.ellipsoid(1, 8)) == (1,) * 8
    long_leg = dom.concave_toric([(0, 0), (1, 0), (0, 2000)])
    assert weight_expansion(long_leg) == (1,) * 2000


def test_expansion_terms_are_exact_rationals():
    for w in weight_expansion(dom.ellipsoid(1, F(7, 5))):
        assert isinstance(w, F)


def test_volume_identity_failure_names_both_volumes(monkeypatch):
    # an expansion that loses its smallest ball no longer fills the polygon
    import symcap.weights as weights
    real = weights._expand

    def short(chains):
        *runs, (w, n) = real(chains)
        return runs + [(w, n - 1)] * (n > 1)

    monkeypatch.setattr(weights, "_expand", short)
    with pytest.raises(ValueError) as exc:
        weight_expansion(dom.ellipsoid(1, F(3, 2)))
    assert str(exc.value) == "volume identity failed for weight expansion (got 5/8, want 3/4)"
    with pytest.raises(ValueError) as exc:
        negative_weight_sequence(PENT)
    assert str(exc.value) == "volume identity failed for negative weight sequence (got 4, want 7/2)"


N30 = 10 ** 30


def _chains_peeled(monkeypatch, f, d) -> tuple:
    """(f(d), the number of chains f checked), d built before counting."""
    chains = []
    real = dom.check_concave_chain

    def counting(chain):
        chains.append(chain)
        real(chain)

    monkeypatch.setattr(dom, "check_concave_chain", counting)
    return f(d), len(chains)


def test_huge_ratio_triangles_peel_few_chains(monkeypatch):
    # the legs' ratio sets the ball count, not the chains peeled
    t = dom.concave_toric([(0, 0), (N30, 0), (0, 1)])
    assert _chains_peeled(monkeypatch, weight_runs, t) == ([(1, N30)], 1)
    near = dom.concave_toric([(0, 0), (1 + F(1, N30), 0), (0, 1)])
    assert _chains_peeled(monkeypatch, weight_runs, near) == ([(N30, 1), (1, N30)], 2)
    # E(1, N)'s moment triangle, convex: B(N-1) and N-1 balls B(1) excised
    convex = dom.convex_toric([(0, 0), (N30, 0), (0, 1)])
    assert _chains_peeled(monkeypatch, negative_weight_runs, convex) == (
        (N30, [(N30 - 1, 1), (1, N30 - 1)]), 2)


def test_fibonacci_leg_peels_at_most_five_chains_per_digit(monkeypatch):
    # consecutive Fibonacci numbers are Lame's worst case: every quotient
    # of Euclid's algorithm is 1, so no run holds more than one peel
    fib = [1, 1]
    while len(str(fib[-1])) < 30:
        fib.append(fib[-1] + fib[-2])
    a, b = fib[-1], fib[-2] + fib[-1]
    assert len(str(a)) == 30
    leg = dom.concave_toric([(0, 0), (F(b, a), 0), (0, 1)])
    runs, chains = _chains_peeled(monkeypatch, weight_runs, leg)
    assert runs == [(f, 1) for f in reversed(fib[2:])] + [(1, 2)]
    assert chains <= 5 * 30
