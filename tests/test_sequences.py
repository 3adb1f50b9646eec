"""Capacity sequences grown as per-domain prefixes, checked against the
per-k formulas they replace: values, methods, witnesses, how far each
prefix grows, thread safety, and how much work a sequence does (counted in
calls, never timed)."""

import collections
import concurrent.futures
import contextlib
import heapq
import inspect
import itertools
import math
import random
import sys
import types
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
from per_k import ck_concave_via_weights, ck_convex_from_paths, ck_polydisk, ck_union
from random_polygons import FAMILIES, domain
from symcap.capacities import capacity_sequence, ck
from symcap.obstructions import check_embedding, scaling_lower_bound
from symcap.weights import negative_weight_sequence


def _per_k(d, k):
    """c_k from the formula for this k alone."""
    if isinstance(d, (dom.Ball, dom.Ellipsoid)):
        return cap._ClosedForm(d).at(k)
    if isinstance(d, dom.Polydisk):
        return ck_polydisk(d.a, d.b, k)
    if isinstance(d, dom.DisjointUnion):
        return ck_union(d, k)
    if isinstance(d, dom.ConcaveToric):
        return ck_concave_via_weights(d, k)
    if isinstance(d, dom.ConvexToric):
        return ck_convex_from_paths(d, k)
    if isinstance(d, dom.CP2):
        return cap._ClosedForm(dom.ball(d.a)).at(k)._replace(method="cp2")
    return ck_polydisk(d.a, d.b, k)._replace(method="s2xs2")


def _triple(r):
    return (r.k, r.value, r.method, r.witness)


def _family_id(family):
    # a concave draw is a staircase, and its tests are named so
    return "staircase" if family == "concave" else family


# the largest K drawn per family: a per-k convex c_k is a path search, and
# a per-k union with toric parts folds every part's sequence in Fractions
KMAX = {"convex": 16, "toric_union": 30, "tie_union": 60}


@pytest.mark.parametrize("family", [*FAMILIES, "toric_union", "tie_union"], ids=_family_id)
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
        assert [(r.value, *r.witness) for r in capacity_sequence(e, 59)] == got


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


# --- closed forms read at any k -------------------------------------------------

CLOSED_FORMS = ("ball", "ellipsoid", "polydisk", "cp2", "s2xs2")


def _closed_form_reference(d, K) -> dict:
    """{k: (k, c_k, method, witness)} by the tests' references: for an
    ellipsoid, the pairs m, n < R sorted by (m*A + n*B, m, n) over the
    axes' common denominator, to K: a pair left out has action at least
    R*min(A, B), which for sizes up to 3 is past c_K <= sqrt(2ab(K+1));
    for a ball, the spectrum heap of E(a, a), whose d is m + n there, to
    K; and per_k.ck_polydisk at every 23rd k and at K."""
    if d.SOURCE == "polydisk":
        return {k: _triple(ck_polydisk(d.a, d.b, k)._replace(method=d.METHOD))
                for k in (*range(0, K, 23), K)}
    if d.SOURCE == "ball":
        scale, A = cap._scaled(d.a)
        pops = itertools.islice(cap._spectrum(A, A), K + 1)
        return {k: (k, F(v, scale), d.METHOD, m + n) for k, (v, m, n) in enumerate(pops)}
    scale, A, B = cap._scaled(d.a, d.b)
    R = math.isqrt(18 * (K + 1)) + 1
    pairs = sorted((m * A + n * B, m, n) for m in range(R) for n in range(R))[:K + 1]
    assert pairs[-1][0] < R * min(A, B)  # every pair of a smaller action is enumerated
    return {k: (k, F(v, scale), d.METHOD, (m, n)) for k, (v, m, n) in enumerate(pairs)}


@pytest.mark.parametrize("family", CLOSED_FORMS)
def test_closed_form_stream_and_random_access_agree(family):
    # c_0..c_K read as one sequence (the stream), from the random-access
    # form, by ck in shuffled order and in a fixed order of cursor moves,
    # and by 8 threads at once, half of them in order and half shuffled,
    # all equal the references
    K, rng = 1500, random.Random(f"closed-{family}")
    for d in [domain(rng, family)] + ([dom.ellipsoid(1, 2)] if family == "ellipsoid" else []):
        cap.clear_memo()
        want = [_triple(r) for r in capacity_sequence(d, K)]
        ref = _closed_form_reference(d, K)
        assert [want[k] for k in ref] == list(ref.values()), d.key
        assert [_triple(cap._source(d).at(k)) for k in range(K + 1)] == want, d.key

        def read(seed):
            order = list(range(K + 1))
            if seed % 2:
                random.Random(seed).shuffle(order)
            got = {k: _triple(ck(d, k)) for k in order}
            return [got[k] for k in range(K + 1)]

        cap.clear_memo()
        assert read(1) == want, d.key
        # the cursor repeats, jumps, steps after a jump and restarts
        cap.clear_memo()
        order = (0, 0, 1, 2, 2, 5, 6, 3, 4, 0, 1)
        assert [_triple(ck(d, k)) for k in order] == [want[k] for k in order], d.key
        cap.clear_memo()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(read, seed) for seed in range(8)]
                assert all(f.result(timeout=60) == want for f in futures), d.key
        finally:
            sys.setswitchinterval(interval)
        _closed_forms_hold_no_results()


@pytest.mark.parametrize("d", [dom.ball(F(3, 2)), dom.ellipsoid(1, 2), dom.polydisk(1, F(5, 3))],
                         ids=lambda d: d.TYPE)
def test_closed_form_stream_that_raises_is_dropped(monkeypatch, d):
    # the generator raises once, on drawing the run that holds k = 3 (the
    # 4th run of an ellipsoid): the cursor drops its stream, reads 3 and 4
    # from the random-access form, and restarts the stream at k = 0
    cap.clear_memo()
    want = capacity_sequence(d, 4)
    cap.clear_memo()
    runs, at = cap._FORMULAS[d.SOURCE]
    fired = []

    def raising(*sizes):
        start = 0
        for run in runs(*sizes):
            if start <= 3 < run[0] and not fired:
                fired.append(run)
                raise RuntimeError("stream step failed")
            start = run[0]
            yield run

    monkeypatch.setitem(cap._FORMULAS, d.SOURCE, (raising, at))
    assert [ck(d, k) for k in (0, 1, 2)] == want[:3]
    with pytest.raises(RuntimeError, match="^stream step failed$"):
        ck(d, 3)
    assert fired and cap._source(d).stream is None
    assert [ck(d, k) for k in (3, 4, 0, 1)] == [want[k] for k in (3, 4, 0, 1)]
    cap.clear_memo()


@pytest.mark.parametrize("ab", [(1, F(3, 2)), (F(3, 2), F(7, 5)), (F(2, 3), F(4, 3))],
                         ids=lambda ab: "x".join(map(str, ab)))
def test_ellipsoid_at_large_k_matches_a_per_m_count(ab):
    # c_k is the least T with more than k pairs (m, n), m*a + n*b <= T, and
    # its pair the (k - #pairs below T)-th on m*a + n*b = T by ascending m;
    # here every count goes one m at a time
    (a, b), k = ab, 10 ** 8
    cap.clear_memo()
    r = ck(dom.ellipsoid(a, b), k)
    T = r.value
    below = sum(-((m * a - T) // b) for m in range(math.ceil(T / a)))  # m*a + n*b < T
    at_most = sum((T - m * a) // b + 1 for m in range(math.floor(T / a) + 1))
    assert below <= k < at_most
    on_line = [(m, int((T - m * a) / b)) for m in range(math.floor(T / a) + 1)
               if ((T - m * a) / b).denominator == 1]
    assert r == (k, T, "ellipsoid_spectrum", on_line[k - below])


def test_polydisk_at_large_k_matches_the_per_k_scan():
    cap.clear_memo()
    assert ck(dom.polydisk(1, F(3, 2)), 10 ** 5) == ck_polydisk(1, F(3, 2), 10 ** 5)


# --- interrupted growth -------------------------------------------------------

INTERRUPTED = [dom.ball(F(5, 3)), dom.cp2(F(7, 4)), dom.ellipsoid(1, 2),
               dom.polydisk(F(3, 2), 1), dom.s2xs2(2, F(5, 3)),
               dom.disjoint_union(dom.ellipsoid(1, 2), dom.ellipsoid(1, 3)),
               dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]),
               # excises B(2), B(1), B(1): two parts of the excised DP, so
               # _union_table reaches a pick
               dom.convex_toric([(0, 0), (3, 0), (3, 1), (1, 2), (0, 2)]),
               # a raise in the toric part's growth, in its _union_table or
               # its _checked, drops the part's table and the union's
               pytest.param(dom.disjoint_union(
                   dom.ball(1), dom.concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)])),
                   id="toric_union")]
# the sources that push onto a spectrum heap (a union's, through an
# ellipsoid or polydisk part), and the ones that grow a max-plus DP table
HEAP_SOURCES = {"ellipsoid", "polydisk"}
DP_SOURCES = {"union", "concave", "convex"}


def _pushes(d) -> bool:
    """Whether a growth of d pushes onto a spectrum heap."""
    return any(p.SOURCE in HEAP_SOURCES for p in getattr(d, "parts", (d,)))


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
        raises = where == "checked" or (
            _pushes(d) if where == "heappush" else d.SOURCE in DP_SOURCES)
        with pytest.raises(KeyboardInterrupt) if raises else contextlib.nullcontext():
            capacity_sequence(d, 100)
    finally:
        sys.settrace(tracer)
    assert bool(fired) == raises
    # a raise drops every DP table it passes through
    assert not raises or all(s.table is None for s in cap._SOURCES.values()
                          if isinstance(s, cap._Prefix))
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
    """{domain key: n} of every DP source, c_0..c_{n-1} held."""
    return {key: len(s.results) for key, s in cap._SOURCES.items()
            if isinstance(s, cap._Prefix)}


def _closed_forms_hold_no_results() -> None:
    """No closed-form source keeps a per-k result but the last its stream
    gave: none of its attributes is a collection of results."""
    for s in cap._SOURCES.values():
        if not isinstance(s, cap._Prefix):
            held = [v for v in vars(s).values()
                    if isinstance(v, (list, tuple, dict)) and not isinstance(v, cap.CapacityResult)]
            assert not any(isinstance(r, cap.CapacityResult) for v in held for r in v), s.domain.key


def _read_by(d) -> tuple:
    """The domains whose capacities c_0..c_k a scan to k reads from a DP
    source's prefix: d if it is a union or concave, and a union's toric
    parts.  A closed form, a union's closed-form parts included, keeps no
    prefix, and the DP takes a concave domain's weight balls' values from
    the ball's closed form."""
    if isinstance(d, dom.DisjointUnion):
        return (d, *(p for p in d.parts if p.SOURCE in ("concave", "convex")))
    return (d,) if d.SOURCE in ("concave", "convex") else ()


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
        _closed_forms_hold_no_results()
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
        _closed_forms_hold_no_results()


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
    results = capacity_sequence(dom.ball(F(7, 2)), 300)
    assert len(results) == 301
    assert len({id(r.value) for r in results}) <= cap.ball_multiplicity(300) + 1


def test_staircase_sequence_expands_weights_once(monkeypatch):
    calls = []
    real = cap.weight_runs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cap, "weight_runs", counting)
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
        raise AssertionError("c_0 computed the negative weight runs")

    monkeypatch.setattr(cap, "negative_weight_runs", refuse)
    cap.clear_memo()
    want = cap.CapacityResult(0, F(0), "weights", {"l": 0})
    assert ck(thin, 0) == want
    assert capacity_sequence(thin, 0) == [want]


def _union_steps(monkeypatch) -> list:
    """The DP steps of each _union_table call, column j of a part after
    the first counted as j+1 (a part with runs longer than one, as a
    ball's, takes fewer)."""
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


def test_union_grows_a_toric_part_in_one_step(monkeypatch):
    # the union's table draws a toric part's results one k at a time, but
    # the part's source grows to the table's last column first, in one
    # growth, and no further
    kmaxes = []
    real = cap._union_table

    def counting(parts, kmax):
        kmaxes.append(kmax)
        real(parts, kmax)

    monkeypatch.setattr(cap, "_union_table", counting)
    cap.clear_memo()
    tri = dom.concave_toric([(0, 0), (1, 0), (0, 30)])
    d = dom.disjoint_union(dom.ellipsoid(1, 2), tri)
    capacity_sequence(d, 300)
    assert kmaxes == [300, 300]  # the part's own table, then the union's
    capacity_sequence(d, 400)
    assert kmaxes == [300, 300, 400, 400]
    assert _prefix_lengths() == {d.key: 401, tri.key: 401}


def _expand(runs, L) -> list:
    """(value, witness) at l = 0..L of a stream of runs."""
    out = []
    for end, v, witness in runs:
        out += [(v, witness)] * (min(end, L + 1) - len(out))
        if len(out) > L:
            return out


def test_one_ball_runs_are_its_blocks():
    assert list(itertools.islice(cap._ball_values(7), 300)) == \
        [((d + 1) * (d + 2) // 2, d * 7, d) for d in range(300)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17])
def test_equal_balls_part_equals_the_dp_of_its_balls(n):
    # n balls B(A) as one part read c_l = A*D(l, n), D the witness, equal
    # to the max-plus DP over n single-ball parts
    A, L = 7, 400
    table = cap._UnionParts([cap._ball_values(A) for _ in range(n)], 1)
    cap._union_table(table, L)
    got = _expand(cap._ball_values(A, n), L)
    assert [v for v, _ in got] == table.best[-1]
    assert all(v == D * A for v, D in got)


@pytest.mark.parametrize("kind", ["cut_rectangle", "up_left_walk"])
def test_convex_excised_dp_has_one_part_per_ball_size(kind):
    rng = random.Random(f"runs-{kind}")
    repeats = False
    for _ in range(4):
        d = domain(rng, kind)
        kmax = rng.randint(1, KMAX["convex"])
        cap.clear_memo()
        seq = capacity_sequence(d, kmax)
        scale = d.omega.scale
        sizes = [int(w * scale) for w in negative_weight_sequence(d).negatives]
        parts = cap._source(d).table.parts
        assert sorted((p.gi_frame.f_locals["A"], p.gi_frame.f_locals["n"]) for p in parts) == \
            sorted(collections.Counter(sizes).items()), d.key
        repeats |= len(parts) < len(sizes)
        cap.clear_memo()
        assert [_triple(r) for r in seq] == [_triple(_per_k(d, k)) for k in range(kmax + 1)], d.key
    assert repeats
