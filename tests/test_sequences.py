"""Capacity sequences grown as per-domain prefixes, checked against the
per-k formulas they replace: values, methods, witnesses, how far each
prefix grows, thread safety, and how much work a sequence does (counted in
calls, never timed)."""

import concurrent.futures
import contextlib
import heapq
import inspect
import itertools
import random
import sys
import types
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
from per_k import ck_concave_via_weights, ck_convex_from_paths, ck_polydisk, ck_union
from random_polygons import FAMILIES, domain
from symcap.capacities import capacity_sequence, ck, ck_ball, ellipsoid_spectrum
from symcap.obstructions import check_embedding, scaling_lower_bound
from symcap.weights import negative_weight_sequence


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
        return ck_convex_from_paths(d, k)
    if isinstance(d, dom.CP2):
        return ck_ball(d.a, k)._replace(method="cp2")
    return ck_polydisk(d.a, d.b, k)._replace(method="s2xs2")


def _triple(r):
    return (r.k, r.value, r.method, r.witness)


def _family_id(family):
    # a concave draw is a staircase, and its tests are named so
    return "staircase" if family == "concave" else family


# the largest K drawn per family: a per-k convex c_k is a path search, and
# a per-k union with toric parts folds every part's sequence in Fractions
KMAX = {"convex": 16, "toric_union": 30}


@pytest.mark.parametrize("family", [*FAMILIES, "toric_union"], ids=_family_id)
def test_sequence_matches_per_k_formulas(family):
    rng = random.Random(f"sequence-{family}")
    for _ in range(6):
        d = domain(rng, family)
        kmax = rng.randint(0, KMAX.get(family, 40))
        cap.clear_memo()
        seq = capacity_sequence(d, kmax)
        cap.clear_memo()
        assert [_triple(r) for r in seq] == \
            [_triple(_per_k(d, k)) for k in range(kmax + 1)], d.key


@pytest.mark.parametrize("family", ["ellipsoid", "polydisk", "union", "concave", "convex",
                                    "toric_union"], ids=_family_id)
def test_prefix_grown_in_steps_matches_one_step(family):
    rng = random.Random(f"steps-{family}")
    K = KMAX.get(family, 40)
    for _ in range(4):
        d = domain(rng, family)
        cap.clear_memo()
        want = [_triple(r) for r in capacity_sequence(d, K)]
        cap.clear_memo()
        order = list(range(K + 1))
        rng.shuffle(order)
        got = {k: _triple(ck(d, k)) for k in order}
        assert [got[k] for k in range(K + 1)] == want, d.key


def test_union_sequence_matches_brute_force_compositions():
    rng = random.Random("brute")
    for _ in range(5):
        d = domain(rng, "union")
        cap.clear_memo()
        got = [r.value for r in capacity_sequence(d, 10)]
        rows = [[ck(p, t).value for t in range(11)] for p in d.parts]
        for k in range(11):
            best = max(sum(row[t] for row, t in zip(rows, split))
                       for split in _compositions(k, len(rows)))
            assert got[k] == best, d.key


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
        e = domain(rng, "ellipsoid")
        a, b = e.a, e.b
        scale, A, B = cap._scaled(a, b)
        assert (A, B) == (a * scale, b * scale)
        spectrum, got = cap._spectrum(A, B), []
        for need in (1, 4, 9, 30, 60):
            got += itertools.islice(spectrum, need - len(got))
        got = [(F(v, scale), m, n) for v, m, n in got]
        want = sorted((m * a + n * b, m, n) for m in range(61) for n in range(61))[:60]
        assert got == want
        assert [tuple(e) for e in ellipsoid_spectrum(a, b, 59)] == got


# the polydisk's heap read on ties: equal axes, and axes in ratio 2, 3/2 and
# 5/3, whose actions tie at every multiple of the ratio's numerator
TIE_AXES = [(1, 1), (1, 2), (2, 1), (F(3, 2), 1), (F(5, 3), 1), (1, F(1, 2))]


def _tie_axes():
    rng = random.Random("polydisk-ties")
    draws = [domain(rng, "polydisk") for _ in range(20)]
    return TIE_AXES + [(d.a, d.b) for d in draws]


@pytest.mark.parametrize("ab", _tie_axes(), ids=lambda ab: "x".join(map(str, ab)))
def test_polydisk_heap_read_matches_the_per_k_scan(ab):
    K = 300
    want = [_triple(ck_polydisk(*ab, k)) for k in range(K + 1)]
    order = list(range(K + 1))
    random.Random(str(ab)).shuffle(order)
    for d in (dom.polydisk(*ab), dom.s2xs2(*ab)):
        expected = [(k, v, d.METHOD, w) for k, v, _, w in want]
        cap.clear_memo()
        assert [_triple(r) for r in capacity_sequence(d, K)] == expected, d.key
        cap.clear_memo()
        got = {k: _triple(ck(d, k)) for k in order}
        assert [got[k] for k in range(K + 1)] == expected, d.key


# --- interrupted growth -------------------------------------------------------

INTERRUPTED = [dom.ball(F(5, 3)), dom.cp2(F(7, 4)), dom.ellipsoid(1, 2),
               dom.polydisk(F(3, 2), 1), dom.s2xs2(2, F(5, 3)),
               dom.disjoint_union(dom.ellipsoid(1, 2), dom.ellipsoid(1, 3)),
               dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]),
               dom.convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])]
# the sources that push onto a spectrum heap (the union's parts are
# ellipsoids), and the ones that grow a max-plus DP table
HEAP_SOURCES = {"ellipsoid", "polydisk", "union"}
DP_SOURCES = {"union", "concave", "convex"}


def _picks_line() -> int:
    """The line of _union_table that appends a column's pick."""
    lines, first = inspect.getsourcelines(cap._union_table)
    return first + next(i for i, line in enumerate(lines) if "picks.append(" in line)


def _interrupt_once(monkeypatch, where) -> list:
    """Make the next growth raise KeyboardInterrupt once: in the invariant
    check of c_40, between a value's computation and its append; in the
    40th push onto a spectrum heap; or in _union_table for column 20,
    between its total's append and its pick's.  Returns the list the raise
    is noted in."""
    fired = []
    if where == "checked":
        real = cap._checked

        def checked(result):
            if result.k == 40 and not fired:
                fired.append(result.k)
                raise KeyboardInterrupt
            return real(result)

        monkeypatch.setattr(cap, "_checked", checked)
    elif where == "heappush":
        pushes = []

        def heappush(heap, item):
            pushes.append(item)
            if len(pushes) == 40:
                fired.append(item)
                raise KeyboardInterrupt
            heapq.heappush(heap, item)

        monkeypatch.setattr(cap, "heapq", types.SimpleNamespace(heappop=heapq.heappop,
                                                                 heappush=heappush))
    else:
        code, line = cap._union_table.__code__, _picks_line()

        def at_pick(frame, event, arg):
            if event == "line" and frame.f_lineno == line and frame.f_locals["j"] == 20:
                fired.append(frame.f_locals["i"])
                raise KeyboardInterrupt  # and unsets the trace function
            return at_pick

        def calls(frame, event, arg):
            return at_pick if frame.f_code is code and not fired else None

        sys.settrace(calls)  # the test restores the tracer it found
    return fired


@pytest.mark.parametrize("where", ["checked", "heappush", "union_table"])
@pytest.mark.parametrize("d", INTERRUPTED, ids=lambda d: d.TYPE)
def test_interrupted_growth_loses_no_value(monkeypatch, d, where):
    cap.clear_memo()
    want = [_triple(r) for r in capacity_sequence(d, 100)]
    cap.clear_memo()
    tracer = sys.gettrace()
    try:
        fired = _interrupt_once(monkeypatch, where)
        raises = where == "checked" or d.SOURCE in (
            HEAP_SOURCES if where == "heappush" else DP_SOURCES)
        with pytest.raises(KeyboardInterrupt) if raises else contextlib.nullcontext():
            capacity_sequence(d, 100)
    finally:
        sys.settrace(tracer)
    assert bool(fired) == raises
    assert [_triple(r) for r in capacity_sequence(d, 60)] == want[:61]
    assert [_triple(r) for r in capacity_sequence(d, 100)] == want


def test_concave_growth_adds_only_the_balls_it_reads():
    # c_k uses the k largest weight balls; of this triangle's 2000 balls a
    # growth to k = 10 adds ten to the table, so small k stay cheap
    cap.clear_memo()
    d = dom.concave_toric([(0, 0), (1, 0), (0, 2000)])
    ck(d, 10)
    assert len(cap._source(d).table) == 10


def _prefix_lengths() -> dict:
    """{domain key: n} of every capacity source, c_0..c_{n-1} held."""
    return {key: len(s.results) for key, s in cap._SOURCES.items()}


def _read_by(d) -> tuple:
    """The domains whose capacities c_0..c_k a scan to k reads from their
    sources: d, and the union parts behind it that are not balls.  The DP
    takes the values of a ball part, or of a concave domain's weight
    balls, from the closed form."""
    if isinstance(d, dom.DisjointUnion):
        return (d, *(p for p in d.parts if not isinstance(p, dom.Ball)))
    return (d,)


def test_check_embedding_matches_a_per_k_scan_and_memoizes_only_what_it_read():
    rng = random.Random("embedding")
    early_exit = set()
    for _ in range(12):
        src = domain(rng, rng.choice(["ellipsoid", "union", "concave"]))
        tgt = domain(rng, "ball").scale(F(3, 2)) if rng.random() < 0.5 else domain(rng, "polydisk")
        kmax = rng.randint(1, 30)
        cap.clear_memo()
        rep = check_embedding(src, tgt, kmax)
        grown = _prefix_lengths()

        rows, first = [], None
        for k in range(kmax + 1):
            cs, ct = _per_k(src, k).value, _per_k(tgt, k).value
            rows.append((k, cs, ct))
            if cs > ct:
                first = k
                break
        assert rep.table == tuple(rows), (src.key, tgt.key)
        assert rep.first_k == first and rep.obstructed == (first is not None)
        # every prefix read grew to the last k scanned and no further
        last = kmax if first is None else first
        assert grown == {d.key: last + 1 for d in _read_by(src) + _read_by(tgt)}
        early_exit.add(first is not None and first < kmax)
    assert early_exit == {True, False}


def test_scaling_lower_bound_matches_a_per_k_scan_and_grows_to_k_max():
    rng = random.Random("scaling")
    for _ in range(10):
        src = domain(rng, rng.choice(["ellipsoid", "union", "concave"]))
        tgt = domain(rng, rng.choice(["ball", "polydisk"]))
        kmax = rng.randint(1, 25)
        cap.clear_memo()
        got = scaling_lower_bound(src, tgt, kmax)
        grown = _prefix_lengths()
        want = max(_per_k(src, k).value / _per_k(tgt, k).value for k in range(1, kmax + 1))
        assert got == want, (src.key, tgt.key, kmax)
        assert grown == {d.key: kmax + 1 for d in _read_by(src) + _read_by(tgt)}


def test_concurrent_ck_on_one_union():
    d = dom.disjoint_union(dom.ellipsoid(1, F(7, 3)), dom.polydisk(F(3, 2), 2),
                           dom.ball(F(5, 4)), dom.ellipsoid(F(2, 3), 1))
    cap.clear_memo()
    want = [_triple(r) for r in capacity_sequence(d, 40)]
    want_lengths = _prefix_lengths()
    cap.clear_memo()

    def worker(seed):
        order = list(range(41))
        random.Random(seed).shuffle(order)
        if seed % 5 == 0:
            return [_triple(r) for r in capacity_sequence(d, 40)]
        if seed % 5 == 1:  # a scan's walk, k by k, yields the values alone
            values = itertools.islice(cap.capacity_values(d), 41)
            return [(k, v, method, witness) for (k, _, method, witness), v in zip(want, values)]
        got = {k: _triple(ck(d, k)) for k in order}
        return [got[k] for k in range(41)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(worker, seed) for seed in range(20)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == want for r in results)
    assert _prefix_lengths() == want_lengths


# --- work counted in calls ---------------------------------------------------

def test_embedding_scan_pops_each_spectrum_entry_once(monkeypatch):
    pops = []
    real = cap._spectrum

    def counting(a, b):
        for e in real(a, b):
            pops.append(e)
            yield e

    monkeypatch.setattr(cap, "_spectrum", counting)
    cap.clear_memo()
    rep = check_embedding(dom.ellipsoid(F(13, 7), F(5, 3)), dom.ball(F(19, 10)), 300)
    assert not rep.obstructed and len(rep.table) == 301
    assert len(pops) == 301


def test_ball_prefix_shares_one_value_per_block():
    # d is constant on each block d(d+1)/2 <= k <= d(d+3)/2, and so is the
    # value object the ball's results hold
    cap.clear_memo()
    target = dom.ball(F(7, 2))
    rep = check_embedding(dom.ellipsoid(3, F(10, 3)), target, 300)
    assert not rep.obstructed
    results = cap._source(target).results
    assert len(results) == 301
    assert len({id(r.value) for r in results}) <= cap.ball_multiplicity(300) + 1


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


def test_convex_c0_needs_no_weight_sequence(monkeypatch):
    # c_0 = 0 at the shift l = 0 for every convex domain.  On this thin
    # polygon the first excised ball nearly fills the head ball, and the
    # proven stop of any k >= 1 grows the excised DP to ~55000 columns
    thin = dom.convex_toric([(0, 0), (F(611, 4), 0), (F(179, 4), F(1, 2)), (0, F(1, 2))])

    def refuse(d):
        raise AssertionError("c_0 computed the negative weight sequence")

    monkeypatch.setattr(cap, "negative_weight_sequence", refuse)
    cap.clear_memo()
    want = cap.CapacityResult(0, F(0), "weights", {"l": 0})
    assert ck(thin, 0) == want
    assert capacity_sequence(thin, 0) == [want]


def _union_steps(monkeypatch) -> list:
    """The DP steps of each _union_table call, column j of a part after
    the first counted as j+1 (a Ball part takes fewer)."""
    steps = []
    real = cap._union_table

    def counting(parts, kmax):
        before = [len(row) for row in parts.best[1:]]
        real(parts, kmax)
        steps.append(sum((j + 1) for row, lo in zip(parts.best[1:], before)
                         for j in range(lo, len(row))))

    monkeypatch.setattr(cap, "_union_table", counting)
    return steps


@pytest.mark.parametrize("scan", ["sequence", "per_k"])
def test_union_dp_steps_stay_within_one_table(monkeypatch, scan):
    steps = _union_steps(monkeypatch)
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


HEXAGON = dom.convex_toric([(0, 0), (3, 0), (3, 1), (F(5, 2), 2), (1, F(5, 2)), (0, F(5, 2))])


def _excised_columns(d) -> int:
    """The columns of the DP of d's excised balls, which d's source owns."""
    return len(cap._SOURCES[d.key].table.best[-1])


def test_convex_verify_scan_reuses_the_excised_balls_table(monkeypatch):
    # the weight formula reads c_l of the excised balls' union from the DP
    # the convex source owns, so a scan over k builds one table up to the
    # largest l
    steps = _union_steps(monkeypatch)
    cap.clear_memo()
    for k in range(41):
        ck(HEXAGON, k, verify=True)
    L, m = _excised_columns(HEXAGON) - 1, len(negative_weight_sequence(HEXAGON).negatives)
    assert m >= 2 and L >= max(ck(HEXAGON, k).witness["l"] for k in range(41)) > 0
    assert 0 < sum(steps) <= (m - 1) * (L + 1) * (L + 2) // 2


def test_convex_scan_grows_the_excised_dp_as_one_sequence(monkeypatch):
    # ck over k = 0..K in turn, as check_embedding asks, grows the excised
    # balls' DP through the same columns in the same steps as one
    # capacity_sequence to K
    steps = _union_steps(monkeypatch)
    grown = {}
    for scan in ("sequence", "per_k"):
        steps.clear()
        cap.clear_memo()
        if scan == "sequence":
            capacity_sequence(HEXAGON, 120)
        else:
            for k in range(121):
                ck(HEXAGON, k)
        grown[scan] = (_excised_columns(HEXAGON), sum(steps))
    assert grown["per_k"] == grown["sequence"]
    assert grown["sequence"][0] > max(r.witness["l"] for r in capacity_sequence(HEXAGON, 120))
