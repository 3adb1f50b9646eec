"""Capacity formulas, ck, axioms, and cross-formula agreement, on hand-picked
domains and on seeded random draws of every family (tests/random_polygons.py)."""

import concurrent.futures
import functools
import itertools
import json
import math
import operator
import os
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
import symcap.paths as paths
from cache_files import domain_files, file_of, no_growth, opened_paths
from per_k import ck_concave_via_weights, ck_polydisk, ck_union
from random_polygons import FAMILIES, domain
from symcap.capacities import CapacityResult, capacity_sequence, ck
from symcap.geometry import cross
from symcap.weights import negative_weight_sequence

PENT = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
E12_B1 = dom.disjoint_union(dom.ellipsoid(1, 2), dom.ball(1))
HEXAGON = dom.convex_toric([(0, 0), (3, 0), (3, 1), (F(5, 2), 2), (1, F(5, 2)), (0, F(5, 2))])
STAIR = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])

CORPUS = [
    dom.ball(1),
    dom.ball(2),
    dom.ellipsoid(1, 2),
    dom.ellipsoid(1, F(3, 2)),
    dom.polydisk(1, 1),
    dom.polydisk(1, 2),
    PENT,
    E12_B1,
]


@functools.lru_cache(maxsize=None)
def _seq(d, kmax):
    return tuple(r.value for r in capacity_sequence(d, kmax))


def test_ball_examples():
    assert ck(dom.ball(1), 0).value == 0
    assert ck(dom.ball(1), 3).value == 2
    assert ck(dom.ball(2), 2).value == 2


def test_ball_sequence_start():
    want = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]
    assert [ck(dom.ball(1), k).value for k in range(11)] == want


def test_ball_defining_inequalities():
    for k in range(201):
        d = ck(dom.ball(1), k).value
        assert d * d + d <= 2 * k <= d * d + 3 * d


def test_ball_scales_linearly():
    for k in range(30):
        assert ck(dom.ball(F(5, 3)), k).value == F(5, 3) * ck(dom.ball(1), k).value


def test_spectrum_examples():
    sp = capacity_sequence(dom.ellipsoid(1, 2), 4)
    assert [e.value for e in sp] == [0, 1, 2, 2, 3]
    sp0 = capacity_sequence(dom.ellipsoid(1, F(7, 2)), 0)
    assert sp0[0].value == 0 and sp0[0].witness == (0, 0)


def test_spectrum_round_ellipsoid_matches_ball():
    sp = capacity_sequence(dom.ellipsoid(1, 1), 20)
    for k in range(21):
        assert sp[k].value == ck(dom.ball(1), k).value


@pytest.mark.parametrize("ab", [(1, 2), (3, 2), (1, F(5, 2))])
def test_spectrum_against_brute_force(ab):
    a, b = ab
    oracle = sorted(F(m) * a + F(n) * b for m in range(31) for n in range(31))
    sp = capacity_sequence(dom.ellipsoid(a, b), 12)
    assert [e.value for e in sp] == oracle[:13]
    for e in sp:
        m, n = e.witness
        assert e.value == m * F(a) + n * F(b)


def test_spectrum_tie_order_lexicographic():
    sp = capacity_sequence(dom.ellipsoid(1, 2), 4)
    # action 2 appears twice: (0,1) sorts before (2,0)
    ties = [e.witness for e in sp if e.value == 2]
    assert ties == sorted(ties)


def test_polydisk_examples():
    assert ck_polydisk(1, 1, 1).value == 1
    r = ck_polydisk(1, 1, 3)
    assert r.value == 2 and r.witness == (1, 1)
    assert ck_polydisk(2, 3, 0).value == 0


def test_polydisk_witness_feasible():
    for k in range(25):
        r = ck_polydisk(2, F(7, 3), k)
        m, n = r.witness
        assert (m + 1) * (n + 1) >= k + 1
        assert r.value == 2 * m + F(7, 3) * n


def test_convex_toric_examples():
    assert paths.min_convex(dom.ball(1), 3).value == 2
    assert paths.min_convex(dom.polydisk(1, 1), 2).value == 2
    assert paths.min_convex(PENT, 0).value == 0


def test_convex_toric_matches_polydisk_formula():
    for k in range(13):
        assert paths.min_convex(dom.polydisk(1, 1), k).value == ck_polydisk(1, 1, k).value


def test_concave_toric_examples():
    assert paths.max_concave(dom.ellipsoid(1, 2), 4).value == 3
    assert paths.max_concave(dom.ball(1), 1).value == 1
    assert paths.max_concave(STAIR, 0).value == 0


def test_union_examples():
    two = [dom.ball(1), dom.ball(1)]
    assert ck_union(two, 2).value == 2
    assert ck_union(two, 0).value == 0
    assert ck_union([dom.ball(1), dom.ball(2)], 1).value == 2


def test_union_witness_recomposes():
    parts = [dom.ball(1), dom.ellipsoid(1, 2), dom.polydisk(1, 1)]
    for k in range(11):
        r = ck_union(parts, k)
        split = r.witness
        assert len(split) == len(parts) and sum(split) == k
        assert r.value == sum(ck(p, t).value for p, t in zip(parts, split))


def test_concave_via_weights_examples():
    assert ck_concave_via_weights(dom.ellipsoid(1, 2), 3).value == 2
    assert ck_concave_via_weights(dom.ellipsoid(1, 2), 4).value == 3
    assert ck_concave_via_weights(STAIR, 0).value == 0


def test_concave_triangle_with_a_long_leg():
    # E(1,100): its weight expansion is 100 balls of size 1
    d = dom.concave_toric([(0, 0), (1, 0), (0, 100)])
    assert [r.value for r in capacity_sequence(d, 40)] == \
        [e.value for e in capacity_sequence(dom.ellipsoid(1, 100), 40)]


def _convex(d):
    """d's moment polygon as a convex toric domain, whose capacities come
    from the weight formula."""
    return dom.convex_toric(d.omega.vertices)


def test_convex_via_weights_examples():
    r = ck(_convex(dom.polydisk(1, 1)), 1)
    assert r.value == 1 and r.witness == {"l": 1} and r.method == "weights"
    assert ck(_convex(dom.ball(1)), 3).value == 2
    assert ck(_convex(dom.polydisk(1, 2)), 1).value == 1
    # a head without excised balls takes no shift
    assert ck(_convex(dom.ball(1)), 5).witness == {"l": 0}


@pytest.mark.parametrize("d, k, value", [
    (PENT, 354, 67), (PENT, 1000, 115), (HEXAGON, 188, F(133, 2)), (HEXAGON, 1000, 159)],
    ids=["pent-354", "pent-1000", "hexagon-188", "hexagon-1000"])
def test_convex_via_weights_past_a_hundred_shifts(d, k, value):
    # the minimum over the shift sits past l = 100 here, and is found
    # within a second
    cap.clear_memo()
    start = time.perf_counter()
    assert ck(d, k).value == value
    assert time.perf_counter() - start < 1


SHIFTS = 1200  # brute-force shifts; each minimum below sits far inside


def _shift_terms(d, ks):
    """T(l) = c_{k+l}(B(h)) - c_l(excised balls) for l <= SHIFTS, per k."""
    dec = negative_weight_sequence(d)
    head = dom.ball(dec.head)
    excised = capacity_sequence(dom.disjoint_union(*map(dom.ball, dec.negatives)), SHIFTS)
    return {k: [ck(head, k + l).value - excised[l].value for l in range(SHIFTS + 1)]
            for k in ks}


def _draws(seed, family, n) -> list:
    rng = random.Random(seed)
    return [domain(rng, family) for _ in range(n)]


@pytest.mark.parametrize("d", [PENT, HEXAGON] + _draws("convex weights", "convex", 4),
                         ids=["pent", "hexagon", "random0", "random1", "random2", "random3"])
def test_convex_via_weights_equals_brute_force_minimum(d):
    cap.clear_memo()
    for k, terms in _shift_terms(d, (50, 200, 354)).items():
        r, best = ck(d, k), min(terms)
        assert (r.value, r.witness) == (best, {"l": terms.index(best)}), (d.key, k)


@pytest.mark.parametrize("d", [PENT, HEXAGON], ids=["pent", "hexagon"])
def test_convex_via_weights_stopping_bound(d):
    # B(d) = d*h - sqrt(S(2hi + m/4)) + A/2 bounds every term of block d
    # from below; wherever the stop test passes for the least term before
    # a block, no term from that block on is smaller, and it first passes
    # after the argmin
    dec = negative_weight_sequence(d)
    S, A, m = sum(w * w for w in dec.negatives), sum(dec.negatives), len(dec.negatives)
    ck(d, 1)  # c_0 alone does not set up the weight sequence
    prefix = cap._source(d)
    for k, terms in _shift_terms(d, (0, 7, 354)).items():
        stops = []
        b = cap.ball_multiplicity(k)
        while b * (b + 3) // 2 - k <= SHIFTS:
            lo, hi = max(b * (b + 1) // 2 - k, 0), b * (b + 3) // 2 - k
            x = b * dec.head + A / 2 - min(terms[lo:hi + 1])
            assert x <= 0 or x * x <= S * (2 * hi + F(m, 4))
            best = min(terms[:lo], default=None)
            if best is not None and prefix.past(k, b, int(best * prefix.scale)):
                assert min(terms[lo:]) > best
                stops.append(lo)
            b += 1
        assert stops and terms.index(min(terms)) < stops[0]


def test_convex_stop_needs_the_bound_nondecreasing():
    # past(k, d, best) asks B(d) > best and B nondecreasing from d on.  With
    # best far below every term, the first half holds both times; the
    # second fails for k = 10**6 at block 1 and holds at block 10**4
    ck(PENT, 1)
    prefix = cap._source(PENT)
    assert prefix.m > 0
    assert not prefix.past(10 ** 6, 1, -10 ** 18)
    assert prefix.past(1, 10 ** 4, -10 ** 18)


def test_convex_generator_keeps_no_weight_sequence():
    # after set-up the source holds h, m, A, S and E's DP; the decomposition
    # and the list of excised sizes are not kept alive
    cap.clear_memo()
    capacity_sequence(PENT, 30)
    held = {name: v for name, v in vars(cap._source(PENT)).items() if name != "results"}
    assert {"head", "m", "A", "S", "table"} <= set(held)
    assert not {"dec", "negatives", "sizes"} & set(held)
    kept = (list, tuple, type(negative_weight_sequence(PENT)))
    assert not any(isinstance(v, kept) for v in held.values())


def test_closed_form_at_large_k_keeps_no_prefix():
    # c_k of an ellipsoid is read by its random-access form, not off a
    # prefix of the 10**6 results before it
    cap.clear_memo()
    d = dom.ellipsoid(1, F(3, 2))
    tracemalloc.start()
    try:
        r = ck(d, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.value == 1731 and peak < 2 ** 20


def test_closed_examples():
    assert ck(dom.cp2(1), 3).value == 2
    assert ck(dom.s2xs2(1, 1), 1).value == 1
    assert ck(dom.s2xs2(2, 3), 0).value == 0


def test_dispatcher_examples_and_methods():
    r = ck(dom.ball(1), 10)
    assert r.value == 4 and r.method == "ball_formula"
    r = ck(dom.disjoint_union(dom.ball(1), dom.ball(1)), 3)
    assert r.value == 2 and r.method == "union_dp"
    r = ck(dom.ellipsoid(1, 2), 2)
    assert r.value == 2 and r.method == "ellipsoid_spectrum"
    assert ck(dom.polydisk(1, 2), 1).method == "polydisk_formula"
    assert ck(PENT, 1).method == "weights"
    assert ck(STAIR, 1).method == "weights"
    assert ck(dom.cp2(1), 1).method == "cp2"
    assert ck(dom.s2xs2(1, 1), 1).method == "s2xs2"


def test_dispatcher_rejects_negative_k():
    with pytest.raises(ValueError):
        ck(dom.ball(1), -1)


@pytest.mark.parametrize("k", [2.9, F(5, 2), 2.0, True], ids=["float", "Fraction", "whole_float", "bool"])
def test_indices_must_be_ints(k):
    # no index is truncated: ck(ball(1), 2.9) used to answer c_2, and a
    # sequence to Fraction(5, 2) stopped at c_2
    calls = {
        "ck": lambda: ck(dom.ball(1), k),
        "capacity_sequence": lambda: capacity_sequence(dom.ellipsoid(1, 2), k),
        "ball_multiplicity": lambda: cap.ball_multiplicity(k),
        "min_convex": lambda: paths.min_convex(PENT, k),
        "max_concave": lambda: paths.max_concave(STAIR, k),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^k must be an int, got {type(k).__name__}$"):
            call()
            pytest.fail(f"{name} took k = {k!r}")


# the fixed corpus, then two draws of every family
AXIOM_DOMAINS = [pytest.param(d, id=f"d{i}") for i, d in enumerate(CORPUS)] + [
    pytest.param(d, id=f"{family}-{i}") for family in FAMILIES
    for i, d in enumerate(_draws(f"axioms-{family}", family, 2))]


@pytest.mark.parametrize("d", AXIOM_DOMAINS)
def test_axiom_increasing(d):
    vals = _seq(d, 11)
    assert vals[0] == 0 and vals[1] > 0, d.key
    for k in range(11):
        assert vals[k] <= vals[k + 1], (d.key, k)
        assert vals[k] >= 0, (d.key, k)


@pytest.mark.parametrize("d", AXIOM_DOMAINS)
def test_axiom_conformality(d):
    base = _seq(d, 10)
    for mu in (2, 3, F(5, 2)):
        scaled = dom.scale_domain(d, mu)
        for k in range(11):
            assert ck(scaled, k).value == mu * base[k], (d.key, mu, k)


@pytest.mark.parametrize("d", AXIOM_DOMAINS)
def test_axiom_sublinear(d):
    vals = _seq(d, 20)
    for k in range(11):
        for l in range(11):
            assert vals[k + l] <= vals[k] + vals[l], (d.key, k, l)


@pytest.mark.parametrize("family", ["convex", "concave", "toric_union"])
def test_axiom_sublinear_to_k_2000(family):
    # c_{k+l} <= c_k + c_l for all k <= l with k + l <= K, over the values'
    # integer numerators: v[k + l] against v[k] + v[l], one map per k
    K, d = 2000, domain(random.Random(f"sublinear-{family}"), family)
    vals = [r.value for r in capacity_sequence(d, K)]
    scale = math.lcm(*(v.denominator for v in vals))
    v = [c.numerator * (scale // c.denominator) for c in vals]
    for k in range(K // 2 + 1):
        sums = map(operator.add, itertools.repeat(v[k]), v[k:K - k + 1])
        assert all(map(operator.le, v[2 * k:], sums)), (d.key, k)
    cap.clear_memo()


def test_axiom_union_versus_brute_force():
    e12, b1 = dom.ellipsoid(1, 2), dom.ball(1)
    u = dom.disjoint_union(e12, b1)
    for k in range(11):
        brute = max(ck(e12, t).value + ck(b1, k - t).value for t in range(k + 1))
        assert ck(u, k).value == brute


@pytest.mark.parametrize("omega", [dom.ellipsoid(1, 2), dom.ellipsoid(1, F(3, 2)), STAIR]
                         + _draws("concave formula", "concave", 12))
def test_concave_formulas_agree(omega):
    # the weight balls' union, as a sequence and per k, against the path
    # optimum, its independent oracle
    want = [paths.max_concave(omega, k).value for k in range(17)]
    assert [r.value for r in capacity_sequence(omega, 16)] == want, omega.key
    assert [ck_concave_via_weights(omega, k).value for k in range(13)] == want[:13], omega.key


@pytest.mark.parametrize("omega", [_convex(dom.ball(1)), _convex(dom.polydisk(1, 1)),
                                   _convex(dom.polydisk(1, 2)), PENT]
                         + _draws("convex formula", "cut_rectangle", 12) + [HEXAGON]
                         + _draws("convex formula", "up_left_walk", 12))
def test_convex_formulas_agree(omega):
    # the weight formula against the path optimum, its independent oracle
    assert [r.value for r in capacity_sequence(omega, 30)] == \
        [paths.min_convex(omega, k).value for k in range(31)], omega.key


# ab is an ellipsoid E(a, b) or a polydisk P(a, b): three hand-picked
# ellipsoids, then seeded draws of both families, taken as they come
@pytest.mark.parametrize("ab", [dom.ellipsoid(1, 2), dom.ellipsoid(1, F(3, 2)),
                                dom.ellipsoid(3, 2)]
                         + _draws("twins ellipsoid", "ellipsoid", 5)
                         + _draws("twins polydisk", "polydisk", 5))
def test_ellipsoid_three_way_agreement(ab):
    # the closed form against its exact twins to K = 2000, production paths
    # that share only the union DP: the moment polygon as a convex toric
    # domain (head ball minus excised balls) and, for an ellipsoid, as a
    # concave one (weight balls); then against the path optima to k = 12
    K, concave = 2000, isinstance(ab, dom.Ellipsoid)
    want = [r.value for r in capacity_sequence(ab, K)]
    twins = [_convex(ab)] + ([dom.concave_toric(ab.omega.vertices)] if concave else [])
    for twin in twins:
        assert [r.value for r in capacity_sequence(twin, K)] == want, twin.key
    for k in range(13):
        assert paths.min_convex(ab, k).value == want[k]
        assert not concave or paths.max_concave(ab, k).value == want[k]
    cap.clear_memo()


@pytest.mark.parametrize("b", [10 ** 30, 1 + F(1, 10 ** 30)])
def test_huge_ratio_concave_triangles_equal_their_ellipsoids(b):
    # the triangle with legs 1 and b holds 10^30 or 10^30 + 1 weight balls
    # in two runs at most; c_0..c_100 reads the first 100 of them
    want = [r.value for r in capacity_sequence(dom.ellipsoid(1, b), 100)]
    triangle = dom.concave_toric([(0, 0), (b, 0), (0, 1)])
    assert [r.value for r in capacity_sequence(triangle, 100)] == want
    cap.clear_memo()


def _hull(points) -> list:
    """The vertices of the convex hull of points, counterclockwise, by
    Andrew's monotone chain."""
    pts = sorted(set(points))

    def half(chain):
        out = []
        for p in chain:
            while len(out) > 1 and cross(
                    (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                    (p[0] - out[-1][0], p[1] - out[-1][1])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def _below(small, big, K) -> None:
    """c_k(small) <= c_k(big) for every k <= K."""
    pairs = zip(capacity_sequence(small, K), capacity_sequence(big, K))
    bad = next(((r.k, r.value, s.value) for r, s in pairs if r.value > s.value), None)
    assert bad is None, (small.key, big.key, bad)


def _edge_triangles(vertices) -> list:
    """E(t_x, t_y), the triangle under the line of an edge, for each edge
    between consecutive vertices whose line falls; it meets the axes at
    t_x and t_y."""
    return [dom.ellipsoid(x0 + y0 * (x1 - x0) / (y0 - y1), y1 + x1 * (y0 - y1) / (x1 - x0))
            for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
            if (x1 - x0) * (y1 - y0) < 0]


SANDWICH_K = 2000


def test_monotonicity_under_inclusion():
    for k in range(13):
        c_small = ck(dom.ball(1), k).value
        c_mid = ck(dom.ellipsoid(1, 2), k).value
        c_big = ck(dom.ball(2), k).value
        assert c_small <= c_mid <= c_big
    # an inclusion of moment regions is a symplectic embedding, so c_k is
    # monotone under it; checked to K on seeded draws.  A convex region
    # with axis intercepts a and b lies in the box [0, a] x [0, b], so it
    # holds E(a, b), lies in P(a, b), in the triangle under the line of
    # each slanted edge and in the hull of itself and a point p of the box.
    # A concave region lies in E(a, b) and holds the triangle under the
    # line of each edge of its chain, which the convex chain lies above
    rng = random.Random("sandwiches")
    for _ in range(5):
        d = domain(rng, "convex")
        (_, _), (a, _), *_, (_, b) = d.omega.vertices
        p = (a * F(rng.randint(8, 12), 12), b * F(rng.randint(8, 12), 12))  # near (a, b)
        _below(dom.ellipsoid(a, b), d, SANDWICH_K)
        for outer in [dom.polydisk(a, b), dom.convex_toric(_hull(d.omega.vertices + (p,)))] \
                + _edge_triangles(d.omega.vertices[1:]):
            _below(d, outer, SANDWICH_K)
        cap.clear_memo()
    for _ in range(5):
        d = domain(rng, "concave")
        chain = d.omega.vertices[1:]
        _below(d, dom.ellipsoid(chain[0][0], chain[-1][1]), SANDWICH_K)
        for inner in _edge_triangles(chain):
            _below(inner, d, SANDWICH_K)
        cap.clear_memo()


def test_polydisk_equals_product_of_spheres():
    for k in range(51):
        assert ck(dom.polydisk(1, 1), k).value == ck(dom.s2xs2(1, 1), k).value


@pytest.mark.parametrize("ab", [(1, 2), (3, 2), (1, F(5, 2))])
def test_spectrality(ab):
    a, b = F(ab[0]), F(ab[1])
    actions = {m * a + n * b for m in range(61) for n in range(61)}
    for k in range(21):
        assert ck(dom.ellipsoid(a, b), k).value in actions


def test_verify_flag_cross_checks():
    assert ck(STAIR, 5, verify=True).value == ck(STAIR, 5).value
    assert ck(PENT, 4, verify=True).value == ck(PENT, 4).value


def test_capacity_sequence_matches_pointwise():
    d = dom.ellipsoid(1, F(3, 2))
    seq = capacity_sequence(d, 8)
    assert [r.k for r in seq] == list(range(9))
    assert [r.value for r in seq] == [ck(d, k).value for k in range(9)]


def test_memo_is_deterministic_under_threads():
    cap.clear_memo()
    d = dom.ellipsoid(1, F(7, 3))

    def worker(_):
        return tuple(ck(d, k).value for k in range(15))

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(worker, range(16)))
    assert len(set(results)) == 1
    cap.clear_memo()
    assert worker(0) == results[0]


def test_disk_cache_round_trip(tmp_path):
    cap.clear_memo()
    want = [ck(E12_B1, k).value for k in range(9)]
    ck(PENT, 3)
    ck(dom.ball(1), 5)  # closed forms and the union's ellipsoid part: no file
    ck(dom.polydisk(1, 2), 5)
    assert cap.save_disk_cache(str(tmp_path)) == 9 + 4
    files = domain_files(tmp_path)
    assert {key: len(p["entries"]) for key, p in files.items()} == {E12_B1.key: 9, PENT.key: 4}
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    assert [ck(E12_B1, k).value for k in range(9)] == want
    # byte-for-byte stable across a second save, which writes nothing
    blobs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert cap.save_disk_cache(str(tmp_path)) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == blobs


def test_disk_cache_warm_results_equal_cold(tmp_path, monkeypatch):
    family = CORPUS + [STAIR, dom.cp2(F(3, 2)), dom.s2xs2(1, F(5, 3))]
    cap.clear_memo()
    cold = [ck(d, k) for d in family for k in range(6)]
    cap.save_disk_cache(str(tmp_path))
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    no_growth(monkeypatch)
    warm = [ck(d, k) for d in family for k in range(6)]
    assert warm == cold
    assert [type(r.witness) for r in warm] == [type(r.witness) for r in cold]


def _filed(r):
    """r's cache entry as its file holds it: witness tuples are JSON lists."""
    return json.loads(json.dumps(cap._entry_json(r)))


def test_cache_entries_keep_witness_types():
    # JSON turns tuples into lists: equality alone cannot tell them apart.
    # An entry holds no method: it is the family's
    cap.clear_memo()
    for d, k, kind in ((PENT, 5, dict), (STAIR, 4, tuple), (STAIR, 0, tuple), (E12_B1, 5, tuple)):
        r = ck(d, k)
        entry = _filed(r)
        assert set(entry) == {"c", "witness"}
        back = cap._entry_result(r.k, entry, d.METHOD)
        assert type(back.witness) is kind and back == r


def test_disk_cache_keeps_files_for_the_dp_families_alone(tmp_path, monkeypatch):
    # seeded draws of every family: only unions, concave and convex domains
    # get a file, and a warm run reads those, equal to the cold run down to
    # witness types, and opens nothing for a closed form
    rng = random.Random(16)
    draws = [(family, domain(rng, family)) for family in FAMILIES for _ in range(3)]
    filed = [d for family, d in draws if family in ("union", "ball_union", "concave", "convex")]
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    cold = [capacity_sequence(d, 15) for _, d in draws]
    cap.save_disk_cache(str(tmp_path))
    assert set(domain_files(tmp_path)) == {d.key for d in filed}
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    opened = opened_paths(monkeypatch)
    no_growth(monkeypatch)
    warm = [capacity_sequence(d, 15) for _, d in draws]
    assert warm == cold
    assert [[type(r.witness) for r in seq] for seq in warm] == \
        [[type(r.witness) for r in seq] for seq in cold]
    assert sorted(opened) == sorted({str(file_of(tmp_path, d)) for d in filed})


def test_disk_cache_concurrent_writers(tmp_path):
    # writers of the same domains race for the same files
    cap.clear_memo()
    union = dom.disjoint_union(dom.ball(1), dom.ellipsoid(1, F(5, 2)))
    capacity_sequence(union, 12)
    want = {union.key: 13}  # the ellipsoid part has no file
    barrier = threading.Barrier(2)

    def writer(_):
        barrier.wait(timeout=30)
        return cap.save_disk_cache(str(tmp_path))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rounds in range(30):
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as ex:
                futures = [ex.submit(writer, i) for i in range(2)]
                counts = [f.result(timeout=60) for f in futures]
            # one writes, the other finds it done
            assert sum(counts) == (13 if rounds == 0 else 0)
            assert {key: len(p["entries"]) for key, p in domain_files(tmp_path).items()} == want
    finally:
        sys.setswitchinterval(interval)


def test_disk_cache_writers_of_different_domains_lose_no_entry(tmp_path, monkeypatch):
    # one thread saves domain a, and with it b as far as b has grown;
    # another grows b further and saves b.  The first is held between
    # reading b's file and replacing it until the second has saved, or for
    # 0.5 s: the longer prefix of b must survive
    a, b = STAIR, dom.disjoint_union(dom.ball(1), dom.ball(F(2, 3)))
    cap.clear_memo()
    capacity_sequence(a, 20)
    capacity_sequence(b, 10)
    holding, b_saved = threading.Event(), threading.Event()
    write = cap._write_file

    def held(path, payload):
        if payload["key"] == b.key and len(payload["entries"]) == 11:
            holding.set()
            b_saved.wait(timeout=0.5)
        write(path, payload)

    monkeypatch.setattr(cap, "_write_file", held)

    def grow_and_save_b():
        capacity_sequence(b, 20)
        cap.save_disk_cache(str(tmp_path))
        b_saved.set()

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as ex:
        first = ex.submit(cap.save_disk_cache, str(tmp_path))
        assert holding.wait(timeout=30)
        second = ex.submit(grow_and_save_b)
        first.result(timeout=60)
        second.result(timeout=60)
    want = {d.key: [_filed(r) for r in capacity_sequence(d, 20)] for d in (a, b)}
    assert {key: p["entries"] for key, p in domain_files(tmp_path).items()} == want


def _fail_after_temp_file(tmp_path, monkeypatch, module, name):
    cap.clear_memo()
    ck(STAIR, 3)

    def broken(*args, **kwargs):
        assert [p.suffix for p in tmp_path.iterdir()] == [".tmp"]
        raise OSError("disk full")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(OSError):
        cap.save_disk_cache(str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_disk_cache_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # the file is encoded into the temp file by json.dumps
    _fail_after_temp_file(tmp_path, monkeypatch, cap.json, "dumps")


def test_disk_cache_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    _fail_after_temp_file(tmp_path, monkeypatch, cap.os, "replace")


def test_disk_cache_file_mode_follows_umask(tmp_path):
    cap.clear_memo()
    ck(STAIR, 2)
    old = os.umask(0o022)
    try:
        cap.save_disk_cache(str(tmp_path))
    finally:
        os.umask(old)
    assert [p.stat().st_mode & 0o777 for p in tmp_path.iterdir()] == [0o644]


def _count_builds(monkeypatch):
    """Counts of the calls that turn a stored entry into a CapacityResult,
    through capacities' own bindings."""
    counts = {"rational": 0, "_witness_from_json": 0}
    for name in counts:
        original = getattr(cap, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cap, name, counted)
    return counts


def _saved_family(tmp_path):
    """Domain files of several families, c_0..c_6 each, saved from a
    cleared store; the store is cleared again.  Returns the number of
    entries written."""
    cap.clear_memo()
    for d in CORPUS + [STAIR]:
        capacity_sequence(d, 6)
    n = cap.save_disk_cache(str(tmp_path))
    cap.clear_memo()
    return n


def test_disk_cache_load_builds_no_results(tmp_path, monkeypatch):
    _saved_family(tmp_path)
    counts = _count_builds(monkeypatch)
    opened = opened_paths(monkeypatch)
    cap.load_disk_cache(str(tmp_path))
    assert counts == {"rational": 0, "_witness_from_json": 0}
    assert opened == [] and cap._SOURCES == {}


def test_disk_cache_builds_only_the_entries_asked_for(tmp_path, monkeypatch):
    # a source reads the file of its own domain, and no other
    _saved_family(tmp_path)
    union = dom.disjoint_union(dom.ellipsoid(1, 2), dom.ball(1))
    cap.load_disk_cache(str(tmp_path))
    counts = _count_builds(monkeypatch)
    opened = opened_paths(monkeypatch)
    no_growth(monkeypatch)
    ck(union, 4)
    assert counts["rational"] == 7  # the union's c_0..c_6, not its parts'
    assert opened == [str(file_of(tmp_path, union))]
    capacity_sequence(union, 6)
    assert counts["rational"] == 7 and len(opened) == 1
    assert list(cap._SOURCES) == [union.key]


def test_disk_cache_save_with_nothing_new_leaves_the_file(tmp_path):
    _saved_family(tmp_path)

    def stamps():
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in tmp_path.iterdir()}

    before = stamps()
    cap.load_disk_cache(str(tmp_path))
    for d in CORPUS:
        ck(d, 3)
    assert cap.save_disk_cache(str(tmp_path)) == 0
    assert cap.save_disk_cache(str(tmp_path)) == 0
    assert stamps() == before
    # one new entry rewrites the file of its domain alone
    ck(STAIR, 7)
    assert cap.save_disk_cache(str(tmp_path)) == 8
    after = stamps()
    changed = {name for name in before if after[name] != before[name]}
    assert changed == {file_of(tmp_path, STAIR).name}


def test_disk_cache_rereads_a_file_replaced_since_loading(tmp_path):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    e = dom.disjoint_union(dom.ellipsoid(1, 3), dom.ball(1))
    cap.clear_memo()
    ck(e, 3)
    cap.save_disk_cache(str(ours))
    cap.clear_memo()
    ck(e, 6)
    cap.save_disk_cache(str(theirs))
    cap.clear_memo()
    cap.load_disk_cache(str(ours))
    ck(e, 4)
    path = file_of(ours, e)

    def stored():
        return json.loads(path.read_text())["entries"]

    # another writer, which got further, replaced the file: it is kept
    os.replace(file_of(theirs, e), path)
    assert cap.save_disk_cache(str(ours)) == 0
    assert len(stored()) == 7
    # a file with a shorter prefix, one that disagrees, or one with a
    # malformed entry past this prefix is replaced
    mine = [_filed(r) for r in capacity_sequence(e, 4)]
    for entries in (mine[:2], mine[:2] + [dict(mine[2], c="7")] + mine[3:] * 2,
                    mine + [{"c": "nine", "witness": [0, 5]}]):
        path.write_text(json.dumps({"version": cap._FORMAT, "key": e.key, "entries": entries}))
        assert cap.save_disk_cache(str(ours)) == 5
        assert stored() == mine


def test_disk_cache_file_is_the_json_of_its_entries(tmp_path):
    cap.clear_memo()
    for d in CORPUS:
        capacity_sequence(d, 80 if d != PENT else 4)
    n = cap.save_disk_cache(str(tmp_path))
    files = domain_files(tmp_path)
    assert n == sum(len(p["entries"]) for p in files.values())
    for key, payload in files.items():
        entries = [_filed(r) for r in cap._SOURCES[key].results]
        assert payload == {"version": cap._FORMAT, "key": key, "entries": entries}
        assert file_of(tmp_path, cap._SOURCES[key].domain).read_text() == json.dumps(payload)
    cap.clear_memo()
    assert cap.save_disk_cache(str(tmp_path / "empty")) == 0
    assert list((tmp_path / "empty").iterdir()) == []


def test_ck_computes_each_domain_key_once(monkeypatch):
    # a key is the JSON of its domain, encoded on first use and kept
    cap.clear_memo()
    calls = []
    compute = dom.Domain.key.func
    counted = functools.cached_property(lambda d: calls.append(d) or compute(d))
    counted.__set_name__(dom.Domain, "key")
    monkeypatch.setattr(dom.Domain, "key", counted)
    pent = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    union = dom.disjoint_union(dom.ellipsoid(1, 2), dom.ball(1), pent)
    capacity_sequence(union, 5)
    for k in range(8):
        ck(union, k)
    # the pentagon's excised balls are a DP of its own source, with no key
    assert sorted(d.key for d in calls) == sorted(d.key for d in (union, *union.parts))


def test_disk_cache_rejects_unknown_format(tmp_path, monkeypatch):
    # an unknown version, a version-3 file with its stored methods, another
    # key's file or no JSON at all is a miss: the prefix is computed and the
    # save restores the file
    e = dom.disjoint_union(dom.ellipsoid(1, 3), dom.ball(1))
    path = file_of(tmp_path, e)
    cap.clear_memo()
    cold = capacity_sequence(e, 5)
    cap.save_disk_cache(str(tmp_path))
    blob = path.read_bytes()
    payload = json.loads(blob)
    grown = []
    grow = cap._UnionPrefix._grow
    monkeypatch.setattr(cap._UnionPrefix, "_grow",
                        lambda self, k: grown.append(len(self.results)) or grow(self, k))
    version3 = dict(payload, version=3,
                    entries=[dict(entry, method=e.METHOD) for entry in payload["entries"]])
    for text in (json.dumps(dict(payload, version=99)), json.dumps(version3),
                 json.dumps(dict(payload, key=dom.ellipsoid(1, 4).key)), "{"):
        path.write_text(text)
        cap.clear_memo()
        cap.load_disk_cache(str(tmp_path))
        grown.clear()
        assert capacity_sequence(e, 5) == cold
        assert grown == [0]
        assert cap.save_disk_cache(str(tmp_path)) == 6
        assert path.read_bytes() == blob
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path / "missing"))
    assert capacity_sequence(e, 5) == cold
    # a version-2 file of a convex domain holds path-search entries: a
    # miss, rewritten in this version with the weight formula's entries
    entries = [{"c": str(opt.value), "method": "convex_path",
                "witness": paths.path_to_json(opt.witness)}
               for opt in (paths.min_convex(PENT, k) for k in range(6))]
    file_of(tmp_path, PENT).write_text(
        json.dumps({"version": 2, "key": PENT.key, "entries": entries}))
    cap.clear_memo()
    cold = capacity_sequence(PENT, 5)
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    assert capacity_sequence(PENT, 5) == cold
    assert cap.save_disk_cache(str(tmp_path)) == 6
    payload = json.loads(file_of(tmp_path, PENT).read_text())
    assert payload["version"] == cap._FORMAT == 4
    assert all(set(entry) == {"c", "witness"} for entry in payload["entries"])
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    no_growth(monkeypatch)
    warm = capacity_sequence(PENT, 5)
    assert warm == cold and all(isinstance(r.witness, dict) for r in warm)


def test_verify_cross_checks_values_read_from_a_cache_file(tmp_path):
    # a well-formed but wrong entry is served as stored, and verify=True
    # finds it out against the path optimum of the domain's kind
    for d, kind in ((PENT, "convex"), (STAIR, "concave")):
        cap.clear_memo()
        capacity_sequence(d, 6)
        cap.save_disk_cache(str(tmp_path))
        path = file_of(tmp_path, d)
        payload = json.loads(path.read_text())
        right = F(payload["entries"][5]["c"])
        payload["entries"][5]["c"] = str(right + 1)
        path.write_text(json.dumps(payload))
        cap.clear_memo()
        cap.load_disk_cache(str(tmp_path))
        assert ck(d, 5).value == right + 1
        assert ck(d, 4, verify=True).value == capacity_sequence(d, 4)[4].value
        with pytest.raises(RuntimeError) as exc:
            ck(d, 5, verify=True)
        assert str(exc.value) == (f"cross-check failed for {d.key} at k=5: "
                                  f"weights gives {right + 1}, {kind}_path gives {right}")
    cap.clear_memo()


def test_witness_json_forms():
    # a source's witness is an int, a tuple of ints or {"l": l}: json writes
    # it as it stands, and _witness_from_json reads it back
    for d in CORPUS + [STAIR]:
        for k in (0, 3, 7):
            w = ck(d, k).witness
            assert cap._witness_from_json(json.loads(json.dumps(w))) == w, (d.key, k)
    assert json.dumps(ck(dom.ball(1), 3).witness) == "2"
    assert json.dumps(ck(dom.ellipsoid(1, 2), 3).witness) == "[2, 0]"
    assert json.dumps(ck(STAIR, 0).witness) == "[]"
    assert json.dumps(ck(PENT, 3).witness) == '{"l": 2}'


def test_values_are_fractions():
    for d in CORPUS:
        v = ck(d, 7).value
        assert isinstance(v, F)


# --- the invariant check -------------------------------------------------------

@pytest.mark.parametrize("result", [
    CapacityResult(3, F(-1, 2), "m", None),
    CapacityResult(0, F(-2), "m", None),
    CapacityResult(2, F(0), "m", (2, 0)),
    CapacityResult(0, F(1, 3), "m", 0),
], ids=["negative", "negative_at_k0", "zero_at_k2", "nonzero_at_k0"])
def test_invariant_check_rejects(result):
    with pytest.raises(RuntimeError) as exc:
        cap._checked(result)
    assert str(exc.value) == f"capacity invariant violated: {result}"


def test_invariant_check_passes_valid_results():
    for r in (CapacityResult(0, F(0), "m"), CapacityResult(1, F(1, 10 ** 30), "m"),
              CapacityResult(4, F(7, 3), "m", (1, 2))):
        assert cap._checked(r) is r


def test_cache_entry_of_zero_past_k0_is_recomputed(tmp_path):
    # a well-formed entry c_k = 0 at k >= 1 breaks the invariant: the whole
    # file is a miss, the prefix is computed afresh and the save rewrites it
    e = dom.disjoint_union(dom.ellipsoid(F(2, 3), 1), dom.ball(1))
    cap.clear_memo()
    cold = capacity_sequence(e, 6)
    cap.save_disk_cache(str(tmp_path))
    path = file_of(tmp_path, e)
    blob = path.read_bytes()
    payload = json.loads(blob)
    payload["entries"][3]["c"] = "0"
    path.write_text(json.dumps(payload))
    assert cap._read_prefix(str(tmp_path), e) == []
    cap.clear_memo()
    cap.load_disk_cache(str(tmp_path))
    assert capacity_sequence(e, 6) == cold
    assert cap.save_disk_cache(str(tmp_path)) == 7
    assert path.read_bytes() == blob
