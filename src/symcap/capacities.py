"""Capacity computation: closed forms, spectra, path optima, weight
decompositions, and the per-domain capacity sources that apply them.

Formulas implemented here:
  ball        c_k(B(a)) = d*a with d the unique integer satisfying
              d^2+d <= 2k <= d^2+3d
  ellipsoid   c_k(E(a,b)) = k-th smallest element of {m*a+n*b : m,n >= 0}
  polydisk    c_k(P(a,b)) = min{a*m+b*n : (m+1)(n+1) >= k+1}
  convex      head ball minus the excised balls, min over l of
              c_{k+l}(B(h)) - c_l(union of B(a_i)), stopped at a proven
              bound (the convex path optimum, paths.min_convex, is the
              cross-check)
  concave     weight expansion plus the disjoint-union maximum over the k
              largest balls (the concave path optimum is the cross-check)
  union       max over compositions k_1+...+k_m = k of the part sums
  closed      the projective plane shares the ball values, the sphere
              product shares the polydisk values

Each domain's family names its capacity source (SOURCE, _SOURCE_KINDS)
and the method string its results carry (METHOD); every value passes
_checked.  A ball, ellipsoid or polydisk, and the projective plane and
sphere product that share their values, is a _ClosedForm, which keeps no
results.  A union, concave or convex domain is a _Prefix: c_0..c_n, grown
on demand from a table that runs the max-plus DP of _union_table.  Every
source gives its sequence as runs (end, value, witness) over a given
denominator, and a union draws each part from its source that way.  All
of it runs in integers over a common denominator.  Sources are made on
first use and kept per canonical domain key, so ck, capacity_sequence,
capacity_values and the union DP all read the same sources; each grows
under its own lock, and values are deterministic, so racing threads agree.
The prefixes persist across processes, one JSON file per domain in the
directory load_disk_cache names, written by save_disk_cache.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import itertools
import json
import math
import operator
import os
import threading
import zlib
from fractions import Fraction
from typing import NamedTuple

from . import paths
from .domains import Domain
from .geometry import index, rational, rational_str
from .weights import negative_weight_runs, weight_runs


class CapacityResult(NamedTuple):
    k: int
    value: Fraction
    method: str
    # an int, a tuple of ints or {"l": l}, which JSON writes as it stands
    witness: object = None


def _checked(result: CapacityResult) -> CapacityResult:
    """result, if its value is >= 0 and 0 exactly at k = 0.  A Fraction's
    denominator is positive, so its numerator, an int, carries the sign."""
    n = result.value.numerator
    if n < 0 or (n == 0) != (result.k == 0):
        raise RuntimeError(f"capacity invariant violated: {result}")
    return result


def ball_multiplicity(k: int) -> int:
    """The unique d >= 0 with d^2+d <= 2k <= d^2+3d."""
    k = index(k)
    d = (math.isqrt(8 * k + 1) - 1) // 2
    # d*(d+3) is always even, so maximality of d gives the upper bound too
    assert d * d + d <= 2 * k <= d * d + 3 * d
    return d


def _scaled(*sizes: Fraction) -> tuple:
    """(scale, *(s*scale for s in sizes)), scale the sizes' common
    denominator."""
    scale = math.lcm(*(s.denominator for s in sizes))
    return (scale, *(s.numerator * (scale // s.denominator) for s in sizes))


def _spectrum(A: int, B: int):
    """The actions m*A+n*B of one ellipsoid, the axes as integers over
    their common denominator, as (action, m, n), sorted, ties ordered by
    (m, n): popped from a heap."""
    heap = [(0, 0, 0)]
    # (m, n) enters the heap when (m, n-1), or (m-1, 0) for n = 0, leaves
    # it; that predecessor is smaller, so every pair is pushed once and
    # the pops come out sorted by (action, m, n)
    while True:
        v, m, n = entry = heapq.heappop(heap)
        yield entry
        heapq.heappush(heap, (v + B, m, n + 1))
        if n == 0:
            heapq.heappush(heap, (v + A, m + 1, 0))


class _UnionParts:
    """State of the max-plus DP over the parts of a union.

    A part is an iterator of runs (end, v, witness), v an int over `scale`,
    fixed when the table is made: a multiple of every part value's
    denominator, and may stand for n equal balls (_ball_values).  starts[i]
    holds the start of each run of part i drawn so far and, last, the end
    of the last one, values[i] their values: always drawn past the last
    column grown.  best[i] holds the best total of parts 0..i at each
    column, and picks[i-1][j] is part i's share of column j in best[i].
    A part added later starts with empty rows, which the next _union_table
    call fills.
    """

    def __init__(self, parts, scale: int):
        self.parts: list = []
        self.scale = scale
        self.starts: list = []
        self.values: list = []
        self.best: list = []
        self.picks: list = []
        for p in parts:
            self.add(p)

    def add(self, part) -> None:
        if self.parts:
            self.picks.append([])
        self.parts.append(part)
        self.starts.append([0])
        self.values.append([])
        self.best.append([])

    def __len__(self) -> int:
        return len(self.parts)

    def result(self, k: int) -> tuple:
        """(c_k, its composition), the shares read back from the last part."""
        value, comp = Fraction(self.best[-1][k], self.scale), []
        for picks in reversed(self.picks):
            comp.append(picks[k])
            k -= picks[k]
        return value, (k, *reversed(comp))


def _union_table(parts, kmax: int) -> None:
    """Extend the DP of `parts` (a _UnionParts) through column kmax.

    Each part's runs are drawn until one ends past kmax, and best[0] is
    part 0's values.  Column j of part i is the largest f[j-t] + v[t] over
    the shares t that part is offered, f the best totals of the parts
    before it and v its own values; ties keep the smallest share.  f never
    falls, so on a run of equal v the run's start wins: a part is offered
    only its run starts up to j, O(sqrt(n*j)) of them for n equal balls,
    all j+1 for an ellipsoid or a toric part.  So growing from nothing to
    kmax costs at most (m-1)(kmax+1)(kmax+2)/2 steps over m parts however
    the growth is split.
    """
    for runs, starts, values in zip(parts.parts, parts.starts, parts.values):
        while starts[-1] <= kmax:
            end, v, _ = next(runs)
            starts.append(end)
            values.append(v)
    row, starts, values = parts.best[0], parts.starts[0], parts.values[0]
    r = bisect.bisect_right(starts, len(row)) - 1  # the run holding column len(row)
    while len(row) <= kmax:
        row.extend([values[r]] * (min(starts[r + 1], kmax + 1) - len(row)))
        r += 1
    for i in range(1, len(parts)):
        f, starts, values = parts.best[i - 1], parts.starts[i], parts.values[i]
        row, picks = parts.best[i], parts.picks[i - 1]
        n = bisect.bisect_right(starts, len(row))  # starts[:n] are the run starts up to j
        for j in range(len(row), kmax + 1):
            n += starts[n] <= j
            if n == j + 1:  # every share up to j starts a run
                sums = list(map(operator.add, f[j::-1], values))  # f[j-t] + v[t]
            else:
                sums = [f[j - t] + v for t, v in zip(starts[:n], values)]
            top = max(sums)
            row.append(top)
            picks.append(starts[sums.index(top)])


# --- capacity sources --------------------------------------------------------

class _Prefix:
    """results holds c_0..c_{n-1} of one domain, grown on demand under a
    lock and kept: the source of a union, concave or convex domain, the
    three that run the max-plus DP, and the only sources the disk cache
    holds: it starts from the domain's cache file, read whole, when a
    cache directory is loaded.

    Subclasses hold their work in `table`, made on first use, and define
    _extend(k), which makes the table if there is none and grows it until
    c_k can be read, and _read(j), c_j's (value, witness) off the table;
    _grow, the one growth, appends the entries checked.  A growth that
    raises drops the table, which may have lost an entry or been left
    half-written, and the next makes a fresh one.
    """

    def __init__(self, d: Domain):
        self.lock = threading.Lock()
        self.domain = d
        self.method = d.METHOD
        self.results = [] if _CACHE_DIR is None else _read_prefix(_CACHE_DIR, d)
        self.table = None

    def sequence(self, k: int) -> list:
        """c_0..c_k."""
        self.result(k)
        return self.results[:k + 1]

    def result(self, k: int) -> CapacityResult:
        """c_k.  Results are only ever appended, so one already held is
        read without the lock."""
        results = self.results
        if k >= len(results):
            with self.lock:
                if k >= len(results):
                    self._grow(k)
        return results[k]

    def runs(self, scale: int):
        """The results, read one k at a time, as runs of length one over
        scale, a multiple of every value's denominator."""
        for k in itertools.count():
            r = self.result(k)
            yield k + 1, r.value.numerator * (scale // r.value.denominator), r.witness

    def _grow(self, k: int) -> None:
        """Append results until c_k is held."""
        results, method = self.results, self.method
        try:
            self._extend(k)
            for j in range(len(results), k + 1):
                value, witness = self._read(j)
                results.append(_checked(CapacityResult(j, value, method, witness)))
        except BaseException:
            self.table = None
            raise


def _ball_values(A: int, n: int = 1):
    """The runs of n disjoint balls B(A): c_l = D*A, D = n*q + r the
    largest sum of n multiplicities d_i with sum d_i(d_i+1)/2 <= l, each
    D one run of witness D.  By convexity of d(d+1)/2 the balanced split,
    r of the d_i at q+1 and the rest at q, is the cheapest of total D, so
    run D = n*q + r (r < n) ends at n*q(q+1)/2 + (r+1)(q+1), q+1 past its
    start.  For n = 1 run d is block d, d(d+1)/2 <= k <= d(d+3)/2."""
    end = 0
    for d in itertools.count():
        end += d // n + 1
        yield end, d * A, d


def _ball_at(k: int, A: int) -> tuple:
    d = ball_multiplicity(k)
    return d * A, d


def _ellipsoid_values(A: int, B: int):
    """The runs of E(A, B): the k-th spectrum pop is c_k, a run of length
    one."""
    for k, (v, m, n) in enumerate(_spectrum(A, B)):
        yield k + 1, v, (m, n)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of (a*i + b) // m over 0 <= i < n, for n, a, b >= 0 and
    m >= 1, in O(log) steps by the Euclid-like recursion of the AtCoder
    Library."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _pairs_below(T: int, A: int, B: int) -> int:
    """#{(m, n) >= 0 : m*A + n*B <= T}: for each m <= M = T // A, the
    n up to (T - m*A) // B, summed from m = M down."""
    if T < 0:
        return 0
    M = T // A
    return _floor_sum(M + 1, B, A, T - M * A) + M + 1


def _ellipsoid_at(k: int, A: int, B: int) -> tuple:
    """(c_k, (m, n)) of E(A, B): c_k is the least T with k+1 pairs at or
    below it, bisected in [0, k*min(A, B)].  The pairs on m*A + n*B = T
    are m = m0 + j*B/g, g = gcd(A, B), and the spectrum orders them by m,
    so c_k's is the i-th, i = k minus the pairs below T."""
    lo, hi = 0, k * min(A, B)
    while lo < hi:
        mid = (lo + hi) // 2
        if _pairs_below(mid, A, B) > k:
            hi = mid
        else:
            lo = mid + 1
    i, g = k - _pairs_below(lo - 1, A, B), math.gcd(A, B)
    m = lo // g * pow(A // g, -1, B // g) % (B // g) + i * (B // g)
    return lo, (m, (lo - m * A) // B)


def _polydisk_values(A: int, B: int):
    """The runs of P(A, B), c_k the least m*A+n*B with (m+1)(n+1) >= k+1,
    read off the ellipsoid's spectrum.  The pops come out in (action, m, n)
    order, so the first pair with (m+1)(n+1) > k gives c_k, ties kept at
    the smallest m: a pair past the k covered so far is one run, settling
    every k up to (m+1)(n+1)-1."""
    covered = 0
    for v, m, n in _spectrum(A, B):
        if (m + 1) * (n + 1) > covered:
            covered = (m + 1) * (n + 1)
            yield covered, v, (m, n)


def _polydisk_at(k: int, A: int, B: int) -> tuple:
    """(c_k, (m, n)) of P(A, B): the least m*A + n*B over m >= 0 with
    n = ceil((k+1)/(m+1)) - 1, ties kept at the smallest m.  n falls in
    runs as m grows, and on a run the first m is least, so only the first
    m of each run is tried: O(sqrt k) of them, the last with n = 0."""
    K, m, best = k + 1, 0, None
    while True:
        n = -(-K // (m + 1)) - 1
        if best is None or m * A + n * B < best[0]:
            best = m * A + n * B, (m, n)
        if not n:
            return best
        m = -(-K // n) - 1  # the first m + 1 with ceil(K/(m+1)) <= n


# a closed form's generator of runs and random-access form, by the family's SOURCE
_FORMULAS = {"ball": (_ball_values, _ball_at), "ellipsoid": (_ellipsoid_values, _ellipsoid_at),
             "polydisk": (_polydisk_values, _polydisk_at)}


class _ClosedForm:
    """A ball, ellipsoid or polydisk family's closed form, in integers over
    `scale`, the lcm of the sizes' denominators, keeping no results.  A
    cursor over one stream of the runs of the family's generator answers,
    under the lock, a read of the last k again, of the k after it or of
    k = 0, by repeating, stepping or restarting the stream; any other k is
    read from the random-access form, outside the lock.  The stream's state
    is its last result and the generator's (a spectrum heap of O(sqrt k)
    entries), and a step that raises drops it; sequence reads a stream of
    its own.  It answers any k about as fast as a file is read, so the
    disk cache holds none."""

    def __init__(self, d: Domain):
        self.lock = threading.Lock()
        self.domain = d
        self.method = d.METHOD
        self.scale, *self.sizes = _scaled(*d._values())
        self.generator, self.value_at = _FORMULAS[d.SOURCE]
        self.stream = self.last = None

    def result(self, k: int) -> CapacityResult:
        """c_k: from the cursor when it stands at k or k - 1 or k = 0 is
        asked, else from the random-access form."""
        with self.lock:
            last = self.last
            if last is not None and last.k == k:
                return last
            if not k or (last is not None and last.k == k - 1):
                try:
                    if not k:
                        self.stream = self._stream()
                    self.last = next(self.stream)
                except BaseException:
                    self.stream = self.last = None
                    raise
                return self.last
        return self.at(k)

    def sequence(self, k: int) -> list:
        """c_0..c_k, from a stream of its own: the shared one is left as
        it is, and nothing needs dropping if this raises."""
        return list(itertools.islice(self._stream(), k + 1))

    def runs(self, scale: int):
        """The family's runs over scale, a multiple of self.scale."""
        return self.generator(*(v * (scale // self.scale) for v in self.sizes))

    def at(self, k: int) -> CapacityResult:
        """c_k from the random-access form."""
        v, witness = self.value_at(k, *self.sizes)
        return _checked(CapacityResult(k, Fraction(v, self.scale), self.method, witness))

    def _stream(self):
        """c_0, c_1, ... off the family's runs, the results of a run
        sharing one Fraction."""
        scale, method, k = self.scale, self.method, 0
        for end, v, witness in self.generator(*self.sizes):
            value = Fraction(v, scale)
            while k < end:
                yield _checked(CapacityResult(k, value, method, witness))
                k += 1


class _UnionPrefix(_Prefix):
    """A union's max-plus DP over the lcm of its parts' scales, each part
    the runs its source gives over that lcm.  The table, and with it each
    part's source, is made on the first growth, so a union read from its
    file makes none.  A growth to k grows each toric part's source to k
    in one growth of its own, then the table to k in one step."""

    def _extend(self, k: int) -> None:
        if self.table is None:
            sources = [_source(p) for p in self.domain.parts]
            scale = math.lcm(*(s.scale for s in sources))
            self.table = _UnionParts([s.runs(scale) for s in sources], scale)
            self.toric = [s for s in sources if isinstance(s, _Prefix)]
        for source in self.toric:  # then drawn a k at a time
            source.result(k)
        _union_table(self.table, k)

    def _read(self, j: int) -> tuple:
        return self.table.result(j)


class _ConcavePrefix(_Prefix):
    """The union of the domain's weight balls, largest first, each handed
    to the DP as the runs of one ball over the polygon's scale, the unit of
    the weight runs (see weights).  c_0 = 0 needs no expansion.  c_k uses
    only the k largest balls, so a growth to k adds the balls up to the
    k-th, written out from the runs as it goes; c_j is read off the table
    of all balls added, its composition cut to comp[:j]: weights never
    rise and ties keep the smallest share, so each ball past the j-th
    takes share 0, as an optimum giving one a share t leaves an unused
    ball at least as large free to take t.  The runs are made with each
    table."""

    scale = property(lambda self: self.domain.omega.scale)

    def _extend(self, k: int) -> None:
        if not k:
            return
        if self.table is None:
            self.balls = (w for w, n in weight_runs(self.domain) for _ in range(n))
            self.table = _UnionParts((), self.scale)
        for w in itertools.islice(self.balls, k - len(self.table)):
            self.table.add(_ball_values(w))
        _union_table(self.table, k)

    def _read(self, j: int) -> tuple:
        if not j:
            return Fraction(0), ()
        value, comp = self.table.result(j)
        return value, comp[:j]


class _ConvexPrefix(_Prefix):
    """c_k of a convex domain from its negative weight sequence, head h and
    m excised balls B(a_i): the minimum over l >= 0 of

        T(l) = c_{k+l}(B(h)) - c_l(E),  E the union of the B(a_i),

    in integers over the polygon's scale, a multiple of the denominators of
    h and the a_i (see weights).  On block d,
    d(d+1)/2 <= k+l <= d(d+3)/2, the first term is d*h and c_l(E) never
    falls, so the block's least term is at its last l.  The blocks are
    taken in turn, and the first holding the minimum is scanned back to
    its first l with that term, the witness {"l": l}.  They stop at the
    first block d with B(d) > best and B nondecreasing from d on, where
    B(d) = d*h - U(d(d+3)/2 - k) <= every term of block d:
      - c_l(E) is the largest sum d_i*a_i over integers d_i >= 0 with
        sum d_i(d_i+1)/2 <= l, that is sum (d_i + 1/2)^2 <= 2l + m/4, so
        by Cauchy-Schwarz it is at most U(l) = sqrt(S(2l + m/4)) - A/2,
        with S = sum a_i^2 and A = sum a_i;
      - B'(d) >= 0 exactly when 4(h^2 - S)(d^2 + 3d) >= 8h^2 k - h^2 m + 9S,
        and h^2 - S is twice the area (negative_weight_runs asserts it),
        so once that holds it holds for every later d.
    Every later term then exceeds best, so the value is the exact minimum.
    The table is E's max-plus DP, over the same denominator, one part per
    run (size, count) of the excised balls (_ball_values of the run), so
    h, m, A and S and the parts are read off the runs with no ball written
    out.  _extend only makes it; each read grows it to the last block end
    its k reads, so a scan over k reuses its columns.  c_0 = 0, with
    witness {"l": 0}, needs neither DP nor weight runs."""

    scale = property(lambda self: self.domain.omega.scale)

    def _extend(self, k: int) -> None:
        """Set up h, m, A, S and E's DP, keeping no weight runs."""
        if not k or self.table is not None:
            return
        self.head, runs = negative_weight_runs(self.domain)
        self.m = sum(n for _, n in runs)
        self.A = sum(n * a for a, n in runs)
        self.S = sum(n * a * a for a, n in runs)
        self.table = _UnionParts(itertools.starmap(_ball_values, runs), self.scale)

    def _read(self, j: int) -> tuple:
        if not j:
            return Fraction(0), {"l": 0}
        value, l = self._minimum(j)
        return Fraction(value, self.scale), {"l": l}

    def _minimum(self, k: int) -> tuple:
        """(the least T(l), its first argmin l), T over the common
        denominator."""
        d = ball_multiplicity(k)
        if not self.m:  # T(l) = c_{k+l}(B(h)) grows with l
            return d * self.head, 0
        exc = self.table.best[-1]  # c_l(E), l = 0, 1, ..., as far as grown
        best = math.inf
        while best == math.inf or not self.past(k, d, best):
            hi = d * (d + 3) // 2 - k
            if hi >= len(exc):
                _union_table(self.table, hi)
            if d * self.head - exc[hi] < best:
                best, first, last = d * self.head - exc[hi], max(d * (d + 1) // 2 - k, 0), hi
            d += 1
        while last > first and exc[last - 1] == exc[last]:
            last -= 1
        return best, last

    def past(self, k: int, d: int, best: int) -> bool:
        """Whether B is nondecreasing from d on and B(d) > best, so that no
        term of block d or later is below best."""
        H, S, m = self.head, self.S, self.m
        x = 2 * d * H + self.A - 2 * best  # B(d) > best iff x > sqrt(S(8*hi + m))
        return (4 * (H * H - S) * (d * d + 3 * d) >= 8 * H * H * k - H * H * m + 9 * S
                and x > 0 and x * x > S * (8 * (d * (d + 3) // 2 - k) + m))


_SOURCE_KINDS = {  # by the family's SOURCE
    **dict.fromkeys(_FORMULAS, _ClosedForm),
    "union": _UnionPrefix,
    "concave": _ConcavePrefix,
    "convex": _ConvexPrefix,
}

_LOCK = threading.Lock()
_SAVE_LOCK = threading.Lock()
_SOURCES: dict = {}  # domain key -> capacity source
_CACHE_DIR = None  # the directory whose files sources made from now on read


def _source(d: Domain):
    """The capacity source of d, made on first use and kept; the lookups
    hold the lock, making a source (and reading its file) runs outside it."""
    key = d.key
    with _LOCK:
        found = _SOURCES.get(key)
    if found is None:
        made = _SOURCE_KINDS[d.SOURCE](d)
        with _LOCK:
            found = _SOURCES.setdefault(key, made)
    return found


def ck(d: Domain, k, verify: bool = False) -> CapacityResult:
    """c_k from the domain's capacity source.

    A DP source's prefix grows up to k and keeps the work, and a closed
    form steps its stream when k follows the last k read, so asking
    k = 0, 1, 2, ... in turn costs about what one capacity_sequence costs:
    a convex domain's scan grows its excised balls' DP to the same columns
    as one capacity_sequence does.  A closed form reads any other k from
    its random-access form and keeps nothing.

    verify=True recomputes convex-toric values through the convex path
    optimum (paths.min_convex) and concave-toric values through the
    concave one (paths.max_concave) and insists they agree, values read
    from a cache file included; other families have a single formula each.
    """
    k = index(k)
    result = _source(d).result(k)
    if verify and d.SOURCE in ("convex", "concave"):
        # looked up on the module at each call, so a wrapped search is seen
        other = (paths.min_convex if d.SOURCE == "convex" else paths.max_concave)(d, k)
        if other.value != result.value:
            raise RuntimeError(
                f"cross-check failed for {d.key} at k={k}: "
                f"{result.method} gives {rational_str(result.value)}, "
                f"{d.SOURCE}_path gives {rational_str(other.value)}")
    return result


def capacity_sequence(d: Domain, kmax) -> list:
    """CapacityResults for k = 0..kmax, read from the domain's source,
    which grows to kmax in one step."""
    return _source(d).sequence(index(kmax))


def capacity_values(d: Domain):
    """c_0, c_1, ... of d, without end, from d's source, which is looked up
    once.  Each step reads the value held for its k, grows a DP prefix to
    that k or steps a closed form's stream, so a scan that stops after k
    leaves a prefix grown to k and no further."""
    result = _source(d).result
    for k in itertools.count():
        yield result(k).value


def clear_memo() -> None:
    """Forget everything: every capacity source with the values it holds,
    and the cache directory load_disk_cache named."""
    global _CACHE_DIR
    with _LOCK:
        _SOURCES.clear()
        _CACHE_DIR = None


# --- cross-process persistence --------------------------------------------

def _witness_from_json(w):
    """A witness as a capacity source holds it, from its JSON: an int
    stays, a list is a pair or a composition, a dict a shift."""
    return tuple(w) if isinstance(w, list) else w


_FORMAT = 4  # the version field of a domain file


def _cache_path(cache_dir: str, key: str) -> str:
    # zlib, not hashlib: importing hashlib loads OpenSSL on every CLI call.
    # Two keys with one name only share a file, which holds its key
    return os.path.join(cache_dir, f"{zlib.crc32(key.encode()):08x}.json")


def _entry_json(result: CapacityResult) -> dict:
    return {"c": rational_str(result.value), "witness": result.witness}


def _entry_result(k: int, entry, method: str) -> CapacityResult:
    """Invert _entry_json, the method being the family's; a malformed entry
    raises LookupError, TypeError or ValueError."""
    return CapacityResult(k, rational(entry["c"]), method, _witness_from_json(entry.get("witness")))


def _read_prefix(cache_dir: str, d: Domain) -> list:
    """The results d's file in cache_dir holds: all of them, or none when
    there is no readable file of d in this version, or one of its entries
    is malformed or breaks the invariant."""
    try:
        with open(_cache_path(cache_dir, d.key), encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload["version"] != _FORMAT or payload["key"] != d.key:
            return []
        return [_checked(_entry_result(k, entry, d.METHOD))
                for k, entry in enumerate(payload["entries"])]
    except (OSError, LookupError, TypeError, ValueError, RuntimeError):
        return []


def load_disk_cache(cache_dir: str) -> None:
    """Draw on the domain files in cache_dir: each DP source made from now
    on starts from the results its file holds.  Opens no file; sources
    made before keep what they hold, and a missing directory or file is a
    miss."""
    global _CACHE_DIR
    _CACHE_DIR = cache_dir


def save_disk_cache(cache_dir: str) -> int:
    """Write each DP source's prefix to its file in cache_dir unless
    the file already holds it; returns the number of entries written.

    A file that reads whole and holds a longer prefix agreeing with this
    one is kept, so writers of one domain keep the longer prefix; a
    missing, shorter, unreadable or disagreeing file, one with a malformed
    entry, or one of another version or key, is replaced.  Writers of
    different domains write different files.
    """
    os.makedirs(cache_dir, exist_ok=True)
    with _LOCK:
        sources = list(_SOURCES.values())
    written = 0
    # one save at a time: a thread that read a file before another thread
    # wrote a longer prefix to it must not write its shorter one after
    with _SAVE_LOCK:
        for source in sources:
            if not isinstance(source, _Prefix):
                continue
            results = source.results[:]
            if not results:
                continue
            d = source.domain
            if _read_prefix(cache_dir, d)[:len(results)] != results:
                _write_file(_cache_path(cache_dir, d.key), {
                    "version": _FORMAT, "key": d.key, "entries": list(map(_entry_json, results))})
                written += len(results)
    return written


def _write_file(path: str, payload: dict) -> None:
    # each writer (process and thread) gets a temp file of its own and
    # renames it over the domain's file, so no reader sees a half-written
    # file.  Not mkstemp: its files are private (0600), and the cache keeps
    # the permissions the umask gives
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
