"""Lattice paths: counts, lengths, and the two optimization problems."""

import functools
import math
import random
import re
from fractions import Fraction as F

import pytest

import random_polygons
import symcap.domains as dom
import symcap.paths as paths
from symcap.geometry import lattice_points_under_path, path_vertices
from symcap.paths import (
    EMPTY_CONCAVE,
    EMPTY_CONVEX,
    concave_path,
    convex_path,
    ell,
    lcheck,
    lhat,
    max_concave,
    min_convex,
    path_from_json,
    path_to_json,
    validate_path,
)

T1 = dom.ball(1)
SQ = dom.polydisk(1, 1)
P12 = dom.polydisk(1, 2)
PENT = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
PENT_CONCAVE = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])


@functools.lru_cache(maxsize=None)
def _mc(domain, k):
    return min_convex(domain, k)


@functools.lru_cache(maxsize=None)
def _xc(domain, k):
    return max_concave(domain, k)


def test_lhat_examples():
    assert lhat(EMPTY_CONVEX) == 1
    assert lhat(convex_path([(1, 0)])) == 2
    for d in range(1, 7):
        assert lhat(convex_path([(d, -d)])) == (d + 1) * (d + 2) // 2


def test_lcheck_examples():
    assert lcheck(EMPTY_CONCAVE) == 0
    assert lcheck(concave_path([(1, -1)])) == 1
    assert lcheck(concave_path([(1, -2)])) == 2


def test_ell_examples():
    assert ell(T1, convex_path([(2, -2)])) == 2
    assert ell(T1, EMPTY_CONVEX) == 0
    assert ell(dom.ellipsoid(1, 2), concave_path([(1, -1)])) == 1


def test_ell_kind_mismatch():
    # a ball is both convex and concave; these domains are one kind only
    for path in (concave_path([(1, -1)]), EMPTY_CONCAVE):
        with pytest.raises(ValueError, match="not concave toric"):
            ell(PENT, path)
    for path in (convex_path([(1, -1)]), EMPTY_CONVEX):
        with pytest.raises(ValueError, match="not convex toric"):
            ell(PENT_CONCAVE, path)


def test_min_convex_examples():
    assert _mc(T1, 1).value == 1
    assert _mc(T1, 3).value == 2
    r = _mc(SQ, 0)
    assert r.value == 0 and r.witness.edges == ()
    with pytest.raises(ValueError, match="not convex toric"):
        min_convex(PENT_CONCAVE, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        min_convex(T1, -1)


def test_max_concave_examples():
    assert _xc(dom.ellipsoid(1, 2), 1).value == 1
    assert _xc(T1, 3).value == 2
    r = _xc(PENT_CONCAVE, 0)
    assert r.value == 0 and r.witness.edges == ()
    with pytest.raises(ValueError, match="not concave toric"):
        max_concave(PENT, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        max_concave(T1, -1)


def _assert_pick(p):
    """lhat must agree with area + boundary/2 + 1 on the region polygon."""
    if not p.edges:
        return
    verts = [(int(x), int(y)) for x, y in path_vertices(p.edges, p.start_y)]
    cycle = [(0, 0)] + verts
    uniq = [cycle[0]]
    for pt in cycle[1:]:
        if pt != uniq[-1]:
            uniq.append(pt)
    if uniq[-1] == uniq[0]:
        uniq.pop()
    if len(uniq) < 3:
        # path runs along one axis; the region is the segment itself
        total = 1 + sum(math.gcd(abs(dx), abs(dy)) for dx, dy in p.edges)
        assert lhat(p) == total
        return
    area2 = 0
    boundary = 0
    for i, (x1, y1) in enumerate(uniq):
        x2, y2 = uniq[(i + 1) % len(uniq)]
        area2 += x1 * y2 - x2 * y1
        boundary += math.gcd(abs(x2 - x1), abs(y2 - y1))
    assert 2 * lhat(p) == abs(area2) + boundary + 2


@pytest.mark.parametrize("domain", [T1, SQ, P12, PENT])
def test_convex_witness_invariants(domain):
    for k in range(13):
        r = _mc(domain, k)
        p = validate_path(r.witness)
        assert ell(domain, p) == r.value
        assert lhat(p) == r.count_constraint
        assert r.count_constraint >= k + 1
        _assert_pick(p)


@pytest.mark.parametrize("ab", [(1, 1), (2, 1), (3, 2)])
def test_concave_witness_invariants(ab):
    d = dom.ellipsoid(*ab)
    for k in range(13):
        r = _xc(d, k)
        p = validate_path(r.witness)
        assert ell(d, p) == r.value
        assert lcheck(p) == r.count_constraint == k


@pytest.mark.parametrize("domain", [T1, SQ, P12, PENT])
def test_exact_equals_at_least(domain):
    # the cheapest path with at least k+1 points holds exactly k+1, so it is
    # also the cheapest with exactly k+1, the count the capacity formula asks
    for k in range(21):
        assert _mc(domain, k).count_constraint == k + 1


def test_values_nondecreasing_in_k():
    for domain in (T1, PENT):
        vals = [_mc(domain, k).value for k in range(13)]
        assert vals == sorted(vals)
    for domain in (dom.ellipsoid(1, 2), PENT_CONCAVE):
        vals = [_xc(domain, k).value for k in range(13)]
        assert vals == sorted(vals)


@pytest.mark.parametrize("domain", [T1, P12])
def test_sublinear_in_k(domain):
    vals = [_mc(domain, k).value for k in range(17)]
    for k in range(9):
        for l in range(9):
            assert vals[k + l] <= vals[k] + vals[l]


@pytest.mark.parametrize("ab", [(1, 1), (2, 1), (3, 2)])
def test_both_optimizations_agree_on_ellipsoids(ab):
    d = dom.ellipsoid(*ab)
    for k in range(13):
        assert _mc(d, k).value == _xc(d, k).value


def _scoring(monkeypatch, check=None):
    """Wrap paths._score, through which every path a search scores passes,
    and return the list of (edges, count) it receives."""
    scored = []
    real = paths._score

    def wrapped(best, edges, key, count):
        if check:
            check(edges, count)
        scored.append((edges, count))
        return real(best, edges, key, count)

    monkeypatch.setattr(paths, "_score", wrapped)
    return scored


@pytest.mark.parametrize("domain,k,scored", [
    pytest.param(T1, 17, 36, id="ball-k17"),
    pytest.param(PENT, 20, 31, id="pent-k20"),
    pytest.param(P12, 20, 24, id="p12-k20"),
])
def test_min_convex_scores_a_fixed_set_of_candidates(monkeypatch, domain, k, scored):
    # the seeds and every DFS path that may improve an incumbent are scored;
    # the number depends only on the searched tree and its order, so a
    # change to the bounds or the direction order shows here
    calls = _scoring(monkeypatch)
    min_convex(domain, k)
    assert len(calls) == scored


def test_random_concave_always_builds_a_concave_domain():
    # the slopes are distinct and taken steepest first, so the boundary's
    # slopes strictly increase whatever the draw, and no draw is refused
    rng = random.Random("concave draws")
    assert all(random_polygons.domain(rng, "concave").concave for _ in range(500))


def test_random_convex_draws_lean_at_the_axis_vertices():
    # a cut rectangle meets the axes at right angles; an up-left walk may
    # leave (a, 0) up and to the left, reach (0, b) from the lower right,
    # both or neither
    rng = random.Random("convex draws")
    all_four = {(True, True), (True, False), (False, True), (False, False)}
    for kind, want in (("cut_rectangle", {(False, False)}), ("up_left_walk", all_four)):
        leans = set()
        for _ in range(100):
            v = random_polygons.domain(rng, kind).omega.vertices
            leans.add((v[2][0] < v[1][0], v[-2][1] < v[-1][1]))
        assert leans == want, kind


def test_search_candidates_are_valid_paths(monkeypatch):
    # the searches count the lattice points of the paths they build by a
    # running Pick sum and never validate them; every path they score must
    # be a merged, valid path of its kind, and its count the one
    # lattice_points_under_path gives.  Every convex optimum holds exactly
    # k+1 points (see test_exact_equals_at_least)
    rng = random.Random("candidates")
    kind = "convex"
    scored = {"convex": 0, "concave": 0}

    def check(edges, count):
        p = convex_path(edges) if kind == "convex" else concave_path(edges)
        assert p.edges == edges
        assert count == lattice_points_under_path(edges, p.start_y, include_path=kind == "convex")
        scored[kind] += 1

    _scoring(monkeypatch, check)
    for _ in range(6):
        kind = "convex"
        d = random_polygons.domain(rng, "convex")
        optima = [min_convex(d, k) for k in range(15)]
        assert [opt.count_constraint for opt in optima] == list(range(1, 16)), d.key
        kind = "concave"
        d = random_polygons.domain(rng, "concave")
        for k in range(1, 15):
            max_concave(d, k)
    assert scored["convex"] > 400 and scored["concave"] > 400


def _reference_max_concave(d, k):
    """max_concave as a plain enumeration: every concave core path with
    a + b <= k + 1 is counted by lattice_points_under_path, and the only
    value bound is one rate over all directions (the bounds max_concave had
    before it counted along the way)."""
    if k == 0:
        return (F(0), (), 0)
    budget = k + 1
    chain = d.omega.vertices[1:]  # the outer chain, in Fractions
    scale = math.lcm(*(c.denominator for v in chain for c in v))
    ichain = [(int(x * scale), int(y * scale)) for x, y in chain]
    xcap, ycap = max(x for x, _ in ichain), max(y for _, y in ichain)
    rate = -(-(xcap * ycap) // (xcap + ycap))  # nu(p, q) <= (p - q) * rate

    def nu(p, q):
        return min(p * x - q * y for x, y in ichain)

    dirs = sorted(((p, q) for p in range(1, budget) for q in range(-1, p - budget - 1, -1)
                   if math.gcd(p, -q) == 1), key=lambda d: F(d[1], d[0]))
    best = [-1, None]
    chosen = []

    def dfs(start, used, val):
        if chosen:
            edges = tuple(chosen)
            if lattice_points_under_path(edges, -sum(dy for _, dy in edges), include_path=False) == k:
                if val > best[0] or (val == best[0] and edges < best[1]):
                    best[:] = [val, edges]
        for j in range(start, len(dirs)):
            p, q = dirs[j]
            m = 1
            while used + m * (p - q) <= budget:
                if val + m * nu(p, q) + (budget - used - m * (p - q)) * rate < best[0]:
                    break
                chosen.append((m * p, m * q))
                dfs(j + 1, used + m * (p - q), val + m * nu(p, q))
                chosen.pop()
                m += 1

    dfs(0, 0, 0)
    return (F(best[0], scale), best[1], k)


def test_max_concave_equals_plain_enumeration():
    # the count and per-direction bounds only cut branches that cannot
    # reach count k or tie the incumbent, so value, witness and count are
    # those of the plain enumeration
    rng = random.Random("concave equivalence")
    # at k=5 the witness ((1,-1),(3,-1)) ties ((5,-1),) at value 15; the
    # bounds must stay strict (< rather than <=) to reach it
    tie = dom.concave_toric([(0, 0), (4, 0), (2, 5), (0, 15)])
    domains = [random_polygons.domain(rng, "concave") for _ in range(6)] + [PENT_CONCAVE, tie] + [
        dom.ellipsoid(*ab) for ab in ((1, 1), (1, 2), (1, F(3, 2)), (F(5, 3), 1))]
    for d in domains:
        for k in range(17):
            r = max_concave(d, k)
            assert (r.value, r.witness.edges, r.count_constraint) == \
                _reference_max_concave(d, k), d.key


def test_max_concave_pins_e_1_3_2_at_30():
    r = _xc(dom.ellipsoid(1, F(3, 2)), 30)
    assert r.value == F(17, 2)
    assert r.witness.edges == ((1, -1), (6, -4), (2, -1))
    assert r.count_constraint == 30


def test_optimizers_deterministic():
    assert min_convex(PENT, 7) == min_convex(PENT, 7)
    e32 = dom.ellipsoid(3, 2)
    assert max_concave(e32, 9) == max_concave(e32, 9)


def test_collinear_edges_merge():
    p = convex_path([(1, -1), (1, -1)])
    assert p.edges == ((2, -2),)
    q = concave_path([(1, -2), (1, -1), (1, -1)])
    assert q.edges == ((1, -2), (2, -2))


def test_convex_validation_errors():
    with pytest.raises(ValueError):
        convex_path([(0, 0)])
    with pytest.raises(ValueError):  # counterclockwise turn
        convex_path([(1, -1), (1, 1)])
    with pytest.raises(ValueError):  # up-left edge never admissible
        convex_path([(1, -2), (-1, 1)])
    with pytest.raises(ValueError):  # would end below the x-axis
        convex_path([(2, 1)])
    with pytest.raises(ValueError):  # counterclockwise overall turn
        convex_path([(1, -2), (2, 1)])


def test_concave_validation_errors():
    with pytest.raises(ValueError):
        concave_path([(0, -1)])
    with pytest.raises(ValueError):
        concave_path([(1, 1)])
    with pytest.raises(ValueError):  # horizontal run only at the end
        concave_path([(1, 0), (1, -1)])
    with pytest.raises(ValueError):  # slopes must strictly increase
        concave_path([(1, -1), (1, -2)])
    assert concave_path([(1, -2), (1, -1), (1, 0)]).edges == ((1, -2), (1, -1), (1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: path_from_json({"edges": [[1.7, 0]]}, "convex"), "edge entry must be an int, got float"),
    (lambda: path_from_json({"edges": [[True, 0]]}, "convex"), "edge entry must be an int, got bool"),
    (lambda: path_from_json({"edges": [["2", -1]]}, "concave"), "edge entry must be an int, got str"),
    (lambda: path_from_json({"start": [False, 1], "edges": [[1, -1]]}, "convex"),
     "start entry must be an int, got bool"),
    (lambda: convex_path([(1.5, 0)]), "edge entry must be an int, got float"),
    (lambda: concave_path([(1, F(-1))]), "edge entry must be an int, got Fraction"),
    (lambda: lhat(paths.LatticePath("convex", ((1.0, -1),), 1)), "edge entry must be an int, got float"),
    (lambda: lcheck(paths.LatticePath("concave", ((1, False),), 0)), "edge entry must be an int, got bool"),
    (lambda: lattice_points_under_path(((1, -1),), 1.9), "start_y must be an int, got float"),
    (lambda: lattice_points_under_path(((True, -1),), 1), "edge entry must be an int, got bool"),
    (lambda: path_vertices(((1, -1),), True), "start_y must be an int, got bool"),
    (lambda: path_vertices(((1, -1.0),), 1), "edge entry must be an int, got float"),
], ids=["json_float", "json_bool", "json_str", "json_start_bool", "convex_float", "concave_fraction", "lhat_float",
        "lcheck_bool", "count_start_float", "count_edge_bool", "vertices_start_bool",
        "vertices_edge_float"])
def test_path_coordinates_must_be_ints(call, message):
    # each was truncated in silence before: 1.7 and True became 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("obj, message", [
    ({"edges": [[1, -1]], "start": 5}, "field 'start': 5 does not match the edges"),
    ({"edges": [[1, -1]], "start": [0]}, "field 'start': [0] does not match the edges"),
    ({"edges": 5}, "field 'edges': need a list of [dx, dy] pairs"),
    ({"edges": [5]}, "field 'edges': need a list of [dx, dy] pairs"),
    ({"edges": [[1, -1, 0]]}, "field 'edges': need a list of [dx, dy] pairs"),
    ({}, "field 'edges': need a list of [dx, dy] pairs"),
    ([1], "path spec must be a JSON object"),
    (None, "path spec must be a JSON object"),
], ids=["start_int", "start_short", "edges_int", "edge_int", "edge_triple", "no_edges",
        "list", "null"])
def test_malformed_path_json_is_refused(obj, message):
    # each leaked a TypeError or KeyError before
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        path_from_json(obj, "convex")


BOGUS = paths.LatticePath("bogus", ((1, -1),), 1)


@pytest.mark.parametrize("call", [
    lambda: validate_path(BOGUS),
    lambda: path_from_json({"edges": [[1, -1]]}, "bogus"),
    lambda: paths._witness("bogus", ((1, -1),)),
    lambda: ell(T1, BOGUS),
], ids=["validate_path", "path_from_json", "witness", "ell"])
def test_unknown_path_kind_is_refused(call):
    # path_from_json read such a path as concave, and ell (through
    # _int_omega) raised AttributeError from the domain
    with pytest.raises(ValueError, match="^unknown path kind 'bogus'$"):
        call()


def test_validate_path_checks_start_height():
    from symcap.paths import LatticePath

    with pytest.raises(ValueError):
        validate_path(LatticePath("convex", ((1, -1),), 5))
    with pytest.raises(ValueError):
        validate_path(LatticePath("spiral", ((1, -1),), 1))


def test_path_json_round_trip():
    p = _mc(PENT, 5).witness
    assert path_from_json(path_to_json(p), "convex") == p
    q = _xc(dom.ellipsoid(1, 2), 4).witness
    assert path_from_json(path_to_json(q), "concave") == q
    assert path_to_json(p)["start"] == [0, p.start_y]
    with pytest.raises(ValueError):
        path_from_json({"start": [0, 5], "edges": [[1, -1]]}, "convex")
