"""End-to-end acceptance sweep.

Ten numbered criteria, each a separate test that prints one [PASS]/[FAIL]
line (visible with -s; the test name mirrors the criterion either way),
then embedding bounds from the literature read off the scaling bound.
Every comparison is exact rational arithmetic, zero tolerance; the two
long-running criteria also assert their wall-clock budgets.
"""

import time
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
from per_k import ck_concave_via_weights, ck_polydisk
from symcap.capacities import capacity_sequence, ck
from symcap.obstructions import asymptotic_ratio, check_embedding, scaling_lower_bound
from symcap.paths import max_concave, min_convex
from symcap.weights import weight_expansion

PENT = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
STAIR = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])
STAIR2 = dom.concave_toric([(0, 0), (4, 0), (2, 1), (1, 2), (0, 4)])


def _report(num, label, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] {num:2d}. {label}")
        raise
    print(f"[PASS] {num:2d}. {label}")


def _ball_d(k):
    d = 0
    while not (d * d + d <= 2 * k <= d * d + 3 * d):
        d += 1
    return d


def test_criterion_01_ball_sequence_and_path_optimizer():
    def body():
        t0 = time.monotonic()
        oracle = [_ball_d(k) for k in range(31)]
        assert oracle[:11] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]
        for k in range(31):
            assert ck(dom.ball(1), k).value == oracle[k]
            assert min_convex(dom.ball(1), k).value == oracle[k]
        assert time.monotonic() - t0 < 60

    _report(1, "ball capacity sequence, closed form and path search, k <= 30",
            body)


def test_criterion_02_ellipsoid_triple_oracle():
    def body():
        frozen = {
            (1, F(2)): [0, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6],
            (1, F(3, 2)): [0, 1, F(3, 2), 2, F(5, 2), 3, 3, F(7, 2), 4, 4,
                           F(9, 2), F(9, 2), 5],
        }
        for (a, b), want in frozen.items():
            d = dom.ellipsoid(a, b)
            sp = capacity_sequence(d, 12)
            for k in range(13):
                assert min_convex(d, k).value == want[k]
                assert max_concave(d, k).value == want[k]
                assert sp[k].value == want[k]

    _report(2, "three independent ellipsoid formulas agree, k <= 12", body)


def test_criterion_03_weight_expansions():
    def body():
        assert weight_expansion(dom.ellipsoid(1, 2)) == (1, 1)
        assert weight_expansion(dom.ellipsoid(1, F(3, 2))) == (1, F(1, 2), F(1, 2))
        corpus = [
            dom.ball(1),
            dom.ellipsoid(1, 2),
            dom.ellipsoid(1, F(3, 2)),
            dom.ellipsoid(1, F(5, 2)),
            dom.ellipsoid(1, 3),
            STAIR,
            STAIR2,
        ]
        assert len(corpus) >= 6
        for omega in corpus:
            ws = weight_expansion(omega)
            assert sum(w * w for w in ws) / 2 == omega.volume()

    _report(3, "weight expansions with exact volume identity", body)


def test_criterion_04_concave_cross_check():
    def body():
        for x in (1, F(3, 2), 2, F(5, 2), 3):
            d = dom.ellipsoid(1, x)
            for k in range(13):
                assert ck_concave_via_weights(d, k).value == \
                    max_concave(d, k).value

    _report(4, "concave domains: weights + union DP equals path optimum", body)


def test_criterion_05_convex_cross_check():
    def body():
        for d in (dom.polydisk(1, 1), dom.polydisk(1, 2), PENT):
            d = dom.convex_toric(d.omega.vertices)
            for k in range(11):
                assert ck(d, k).value == min_convex(d, k).value

    _report(5, "convex domains: shifted-ball difference equals path optimum",
            body)


def test_criterion_06_polydisk_closed_form():
    def body():
        for a, b in ((1, 1), (1, 2)):
            for k in range(13):
                assert ck_polydisk(a, b, k).value == \
                    min_convex(dom.polydisk(a, b), k).value

    _report(6, "polydisk closed form equals path formula, k <= 12", body)


def test_criterion_07_closed_manifolds():
    def body():
        for k in range(51):
            assert ck(dom.cp2(1), k).value == ck(dom.ball(1), k).value
            assert ck(dom.s2xs2(1, 1), k).value == ck_polydisk(1, 1, k).value

    _report(7, "closed manifold capacities match their open models, k <= 50",
            body)


def test_criterion_08_axiom_suite():
    def body():
        corpus = [
            dom.ball(1),
            dom.ball(2),
            dom.ellipsoid(1, 2),
            dom.ellipsoid(1, F(3, 2)),
            dom.polydisk(1, 1),
            dom.polydisk(1, 2),
            PENT,
            dom.disjoint_union(dom.ellipsoid(1, 2), dom.ball(1)),
        ]
        for d in corpus:
            vals = [ck(d, k).value for k in range(21)]
            # increasing, starting 0 < c_1
            assert vals[0] == 0 and vals[1] > 0
            assert all(vals[k] <= vals[k + 1] for k in range(20))
            # conformality: scaling the moment data by mu scales c_k by mu
            for mu in (2, F(5, 2)):
                scaled = dom.scale_domain(d, mu)
                for k in range(11):
                    assert ck(scaled, k).value == mu * vals[k]
            # sublinearity
            for k in range(11):
                for l in range(11):
                    assert vals[k + l] <= vals[k] + vals[l]
        # union formula against brute-force compositions
        e12, b1 = dom.ellipsoid(1, 2), dom.ball(1)
        u = dom.disjoint_union(e12, b1)
        for k in range(11):
            brute = max(ck(e12, t).value + ck(b1, k - t).value
                        for t in range(k + 1))
            assert ck(u, k).value == brute

    _report(8, "axioms: increasing, conformality, sublinearity, union", body)


def test_criterion_09_obstruction_demos():
    def body():
        two = dom.disjoint_union(dom.ball(1), dom.ball(1))
        for c in (F(3, 2), F(9, 5), F(199, 100)):
            rep = check_embedding(two, dom.ball(c), 10)
            assert rep.obstructed and rep.first_k == 2
        rep = check_embedding(two, dom.ball(2), 50)
        assert not rep.obstructed
        assert scaling_lower_bound(dom.ellipsoid(1, 2), dom.ball(1), 50) == 2

    _report(9, "two-ball packing obstruction and exact scaling bound", body)


def test_criterion_10_asymptotics():
    def body():
        t0 = time.monotonic()
        for d in range(10, 101):
            k = (d * d + 3 * d) // 2
            rep = asymptotic_ratio(dom.ball(1), k)
            assert rep.value == d
            assert rep.residual_high <= 2
        # E(1,3): 0.9 <= c_k / (2 sqrt(vol k)) <= 1.1 for 10^3 <= k <= 10^4,
        # squared to stay in exact arithmetic: 4 vol = 6 here
        sp = capacity_sequence(dom.ellipsoid(1, 3), 10000)
        for k in range(1000, 10001):
            c = sp[k].value
            assert 486 * k <= 100 * c * c <= 726 * k
        assert time.monotonic() - t0 < 300

    _report(10, "square-root growth with bounded fourth-root residuals", body)


# --- literature values, as maxima of c_k(src)/c_k(B(1)) over k <= 200 --------
# (that they are the sharp embedding bounds for every k is not certified here)

def test_literature_ball_packings_to_k_200():
    # N equal balls B(1) fit into B(lambda) exactly when lambda is at least
    # 1, 2, 2, 2, 5/2, 5/2, 8/3, 17/6 for N = 1..8 (McDuff-Polterovich 1994)
    got = [scaling_lower_bound(dom.disjoint_union(*[dom.ball(1)] * n), dom.ball(1), 200)
           for n in range(1, 9)]
    assert got == [1, 2, 2, 2, F(5, 2), F(5, 2), F(8, 3), F(17, 6)]


def test_literature_ellipsoids_into_a_ball_to_k_200():
    # E(1, n) fits into B(lambda) exactly when n balls B(1) do (McDuff
    # 2009): n = 2..8 repeat the packing bounds, and nine balls fill B(3)
    got = [scaling_lower_bound(dom.ellipsoid(1, a), dom.ball(1), 200) for a in range(2, 10)]
    assert got == [2, 2, 2, F(5, 2), F(5, 2), F(8, 3), F(17, 6), 3]


@pytest.mark.parametrize("a, bound, first", [
    (F(25, 4), F(5, 2), 5), (F(169, 25), F(13, 5), 20), (F(1156, 169), F(34, 13), 104)])
def test_literature_fibonacci_staircase_corners_to_k_200(a, bound, first):
    # the Fibonacci staircase of E(1, a) into a ball meets the volume bound
    # sqrt(a) at a = (g_{n+1}/g_n)^2, g = 2, 5, 13, 34, ... the odd-index
    # Fibonacci numbers (McDuff-Schlenk 2012); the ratio first reaches it
    # at k = first
    assert scaling_lower_bound(dom.ellipsoid(1, a), dom.ball(1), 200) == bound
    assert scaling_lower_bound(dom.ellipsoid(1, a), dom.ball(1), first - 1) < bound
    assert scaling_lower_bound(dom.ellipsoid(1, a), dom.ball(1), first) == bound
