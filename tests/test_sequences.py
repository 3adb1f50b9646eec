"""Capacity sequences grown as per-domain prefixes, checked against the
per-k formulas they replace: values, methods, witnesses, the memo's
footprint, thread safety, and how much work a sequence does (counted in
calls, never timed)."""

import concurrent.futures
import dataclasses
import math
import random
import sys
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
import symcap.paths as paths
from per_k import ck_concave_via_weights, ck_polydisk, ck_union
from symcap.capacities import capacity_sequence, ck, ck_ball, ck_convex_toric, ellipsoid_spectrum
from symcap.domains import domain_key
from symcap.norms import convex_context
from symcap.obstructions import check_embedding
from symcap.weights import weight_expansion


def _frac(rng, lo, hi):
    q = rng.choice([1, 2, 3, 5, 7, 11])
    return F(rng.randint(lo * q + 1, hi * q), q)


def _staircase(rng):
    """Concave toric domain whose boundary has 2 or 3 edges."""
    while True:
        edges = rng.randint(2, 3)
        slopes = sorted({F(-rng.randint(1, 6), rng.randint(1, 3)) for _ in range(edges)})
        if len(slopes) == edges:
            break
    x, y, pts = F(0), F(0), [(F(0), F(0))]
    for s in slopes:
        dx = F(rng.randint(1, 3), rng.choice([1, 2]))
        x, y = x + dx, y + s * dx
        pts.append((x, y))
    chain = [(px, py - y) for px, py in pts]
    return dom.concave_toric([(0, 0), *reversed(chain)])


def _cut_rectangle(rng):
    """Convex toric domain: a rectangle with its outer corner cut by one
    edge or two."""
    a, b = _frac(rng, 1, 3), _frac(rng, 1, 3)
    if rng.random() < 0.5:
        corner = [(a * F(rng.randint(7, 8), 10), b * F(rng.randint(7, 8), 10))]
        x1, y1 = a * F(rng.randint(2, 4), 10), b * F(rng.randint(2, 4), 10)
    else:
        corner = []
        x1, y1 = a * F(rng.randint(2, 8), 10), b * F(rng.randint(2, 8), 10)
    return dom.convex_toric([(0, 0), (a, 0), (a, y1), *corner, (x1, b), (0, b)])


def _part(rng):
    kind = rng.choice(["ball", "ellipsoid", "polydisk"])
    if kind == "ball":
        return dom.ball(_frac(rng, 1, 3))
    make = dom.ellipsoid if kind == "ellipsoid" else dom.polydisk
    return make(_frac(rng, 1, 3), _frac(rng, 1, 3))


def _domain(rng, family):
    if family == "ball":
        return dom.ball(_frac(rng, 1, 3))
    if family == "ellipsoid":
        return dom.ellipsoid(_frac(rng, 1, 3), _frac(rng, 1, 3))
    if family == "polydisk":
        return dom.polydisk(_frac(rng, 1, 3), _frac(rng, 1, 3))
    if family == "cp2":
        return dom.cp2(_frac(rng, 1, 3))
    if family == "s2xs2":
        return dom.s2xs2(_frac(rng, 1, 3), _frac(rng, 1, 3))
    if family == "union":
        return dom.disjoint_union(*[_part(rng) for _ in range(rng.randint(2, 4))])
    if family == "convex":
        return _cut_rectangle(rng)
    return _staircase(rng)


def _per_k(d, k):
    """c_k from the formula for this k alone."""
    if isinstance(d, dom.Ball):
        return ck_ball(d.a, k)
    if isinstance(d, dom.Ellipsoid):
        e = ellipsoid_spectrum(d.a, d.b, k)[k]
        return cap.CapacityResult(k, e.action, "ellipsoid_spectrum", (e.m, e.n))
    if isinstance(d, dom.Polydisk):
        return ck_polydisk(d.a, d.b, k)
    if isinstance(d, dom.DisjointUnion):
        return ck_union(d, k)
    if isinstance(d, dom.ConcaveToric):
        return ck_concave_via_weights(d, k)
    if isinstance(d, dom.ConvexToric):
        return ck_convex_toric(d, k)
    if isinstance(d, dom.CP2):
        return dataclasses.replace(ck_ball(d.a, k), method="cp2")
    return dataclasses.replace(ck_polydisk(d.a, d.b, k), method="s2xs2")


def _triple(r):
    return (r.k, r.value, r.method, r.witness)


FAMILIES = ["ball", "ellipsoid", "polydisk", "cp2", "s2xs2", "union", "staircase",
            "convex"]
# the largest K drawn per family: a convex c_k is a path search
KMAX = {"convex": 16}


@pytest.mark.parametrize("family", FAMILIES)
def test_sequence_matches_per_k_formulas(family):
    rng = random.Random(f"sequence-{family}")
    for _ in range(6):
        d = _domain(rng, family)
        kmax = rng.randint(0, KMAX.get(family, 40))
        cap.clear_memo()
        seq = capacity_sequence(d, kmax)
        cap.clear_memo()
        assert [_triple(r) for r in seq] == [_triple(_per_k(d, k)) for k in range(kmax + 1)]


@pytest.mark.parametrize("family", ["ellipsoid", "polydisk", "union", "staircase",
                                    "convex"])
def test_prefix_grown_in_steps_matches_one_step(family):
    rng = random.Random(f"steps-{family}")
    K = KMAX.get(family, 40)
    for _ in range(4):
        d = _domain(rng, family)
        cap.clear_memo()
        want = [_triple(r) for r in capacity_sequence(d, K)]
        cap.clear_memo()
        order = list(range(K + 1))
        rng.shuffle(order)
        got = {k: _triple(ck(d, k)) for k in order}
        assert [got[k] for k in range(K + 1)] == want


def test_union_sequence_matches_brute_force_compositions():
    rng = random.Random("brute")
    for _ in range(5):
        parts = [_part(rng) for _ in range(rng.randint(2, 3))]
        d = dom.disjoint_union(*parts)
        cap.clear_memo()
        got = [r.value for r in capacity_sequence(d, 10)]
        rows = [[ck(p, t).value for t in range(11)] for p in d.parts]
        for k in range(11):
            best = max(sum(row[t] for row, t in zip(rows, split))
                       for split in _compositions(k, len(rows)))
            assert got[k] == best


def _compositions(k, m):
    if m == 1:
        yield (k,)
        return
    for t in range(k + 1):
        for rest in _compositions(k - t, m - 1):
            yield (t, *rest)


def test_spectrum_extended_in_steps_matches_sorted_enumeration():
    rng = random.Random("spectrum")
    for _ in range(5):
        a, b = _frac(rng, 1, 4), _frac(rng, 1, 4)
        for need in (1, 4, 9, 30, 60):
            got = ellipsoid_spectrum(a, b, need - 1)
        want = sorted((m * a + n * b, m, n) for m in range(61) for n in range(61))[:60]
        assert [(e.action, e.m, e.n) for e in got] == want


def _footprint(d, k):
    """The memo keys ck(d, k) leaves behind when it computes c_k alone."""
    keys = {(domain_key(d), k)}
    if isinstance(d, dom.DisjointUnion):
        keys |= {(domain_key(p), t) for p in d.parts for t in range(k + 1)}
    elif isinstance(d, dom.ConcaveToric) and k >= 1:
        balls = [dom.Ball(w) for w in weight_expansion(d)[:k]]
        keys |= {(domain_key(b), t) for b in balls for t in range(k + 1)}
    return keys


def test_check_embedding_matches_a_per_k_scan_and_memoizes_only_what_it_read():
    rng = random.Random("embedding")
    early_exit = set()
    for _ in range(12):
        src = _domain(rng, rng.choice(["ellipsoid", "union", "staircase"]))
        tgt = rng.choice([dom.ball(_frac(rng, 2, 4)),
                          dom.polydisk(_frac(rng, 1, 3), _frac(rng, 1, 3))])
        kmax = rng.randint(1, 30)
        cap.clear_memo()
        rep = check_embedding(src, tgt, kmax)
        memo_keys = set(cap._MEMO)

        rows, first = [], None
        for k in range(kmax + 1):
            cs, ct = _per_k(src, k).value, _per_k(tgt, k).value
            rows.append((k, cs, ct))
            if cs > ct:
                first = k
                break
        assert rep.table == tuple(rows)
        assert rep.first_k == first and rep.obstructed == (first is not None)
        last = kmax if first is None else first
        assert memo_keys == set().union(*(_footprint(src, k) | _footprint(tgt, k)
                                          for k in range(last + 1)))
        early_exit.add(first is not None and first < kmax)
    assert early_exit == {True, False}


def test_concurrent_ck_on_one_union():
    d = dom.disjoint_union(dom.ellipsoid(1, F(7, 3)), dom.polydisk(F(3, 2), 2),
                           dom.ball(F(5, 4)), dom.ellipsoid(F(2, 3), 1))
    cap.clear_memo()
    want = [_triple(r) for r in capacity_sequence(d, 40)]
    want_keys = set(cap._MEMO)
    cap.clear_memo()

    def worker(seed):
        order = list(range(41))
        random.Random(seed).shuffle(order)
        if seed % 4 == 0:
            return [_triple(r) for r in capacity_sequence(d, 40)]
        got = {k: _triple(ck(d, k)) for k in order}
        return [got[k] for k in range(41)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(worker, seed) for seed in range(16)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == want for r in results)
    assert set(cap._MEMO) == want_keys


# --- work counted in calls ---------------------------------------------------

def test_embedding_scan_builds_the_spectrum_logarithmically_often(monkeypatch):
    calls = []
    real = cap.ellipsoid_spectrum

    def counting(a, b, k_max):
        calls.append(k_max)
        return real(a, b, k_max)

    monkeypatch.setattr(cap, "ellipsoid_spectrum", counting)
    cap.clear_memo()
    rep = check_embedding(dom.ellipsoid(F(13, 7), F(5, 3)), dom.ball(F(19, 10)), 300)
    assert not rep.obstructed and len(rep.table) == 301
    assert 1 <= len(calls) <= math.log2(300) + 2


def test_staircase_sequence_expands_weights_once(monkeypatch):
    calls = []
    real = cap.weight_expansion

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cap, "weight_expansion", counting)
    cap.clear_memo()
    d = dom.concave_toric([(0, 0), (5, 0), (3, F(1, 2)), (1, 2), (0, 4)])
    capacity_sequence(d, 30)
    assert len(calls) == 1


def _count_calls(monkeypatch, name, module=cap):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_convex_sequence_builds_its_norm_context_once(monkeypatch):
    calls = _count_calls(monkeypatch, "convex_context")
    cap.clear_memo()
    d = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
    capacity_sequence(d, 10)
    assert len(calls) <= 1
    cap.clear_memo()
    ck(d, 3)
    assert len(calls) == 2


PENT = dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])


def test_convex_sequence_runs_one_path_search(monkeypatch):
    ctx = convex_context(PENT)
    counts = _count_calls(monkeypatch, "_score", paths)
    for k in range(1, 19):
        paths.min_convex(ctx, k)
    lone = len(counts)
    counts.clear()
    searches = _count_calls(monkeypatch, "_convex_search", paths)
    cap.clear_memo()
    capacity_sequence(PENT, 18)
    assert len(searches) == 1
    # paths scored: 353 for the 18 lone searches; the one search scores a
    # path only when it is no dearer than the entry of its count
    assert len(counts) < lone
    assert len(counts) == 191


def test_convex_embedding_scan_grows_by_lone_searches(monkeypatch):
    # each step of the scan asks for one more index, which is the lone
    # min_convex search: as many scored paths as one search per k
    counts = _count_calls(monkeypatch, "_score", paths)
    cap.clear_memo()
    rep = check_embedding(dom.ellipsoid(1, 3), PENT, 25)
    assert not rep.obstructed
    assert len(counts) == 666


def test_concave_verify_builds_its_norm_context_once(monkeypatch):
    calls = _count_calls(monkeypatch, "concave_context")
    cap.clear_memo()
    d = dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])
    ck(d, 4, verify=True)
    ck(d, 5, verify=True)
    assert len(calls) <= 1
    cap.clear_memo()
    ck(d, 4, verify=True)
    assert len(calls) == 2


@pytest.mark.parametrize("scan", ["sequence", "per_k"])
def test_union_dp_steps_stay_within_one_table(monkeypatch, scan):
    steps = []
    real = cap._union_table

    def counting(parts, kmax):
        before = [len(row) for row in parts.best[1:]]
        real(parts, kmax)
        steps.append(sum((j + 1) for row, lo in zip(parts.best[1:], before)
                         for j in range(lo, len(row))))

    monkeypatch.setattr(cap, "_union_table", counting)
    cap.clear_memo()
    d = dom.disjoint_union(dom.ball(1), dom.ellipsoid(F(2, 3), F(5, 2)),
                           dom.polydisk(F(4, 3), 1), dom.ball(F(7, 5)))
    K, m = 60, len(d.parts)
    if scan == "sequence":
        capacity_sequence(d, K)
    else:
        for k in range(K + 1):
            ck(d, k)
    assert 0 < sum(steps) <= (m - 1) * (K + 1) * (K + 2) // 2
