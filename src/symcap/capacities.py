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

Each domain's family names its capacity source (SOURCE) and the method
string its results carry (METHOD).  A source is the one store of its
domain's values: a prefix c_0..c_{n-1} that grows on demand and keeps the
work done so far.  A family defines only a generator of (value, witness)
from a given k on; the one growth draws from it and appends each entry
through one check of the invariant, c_0 = 0 and c_k > 0 for k >= 1, made
on the numerator in integers.  A growth that raises drops the generator
and all its state, and the next starts a fresh one at the first k not
held.  A ball or projective plane walks the blocks
d(d+1)/2 <= k <= d(d+3)/2, whose d+1 results share one value d*a; an
ellipsoid pops one action per k from its own spectrum heap; a polydisk or
sphere product pops the same heap, and each pair (m, n) whose (m+1)(n+1)
passes the k covered so far settles the k up to it with one shared value.
A union, and a concave domain read as the union of its weight balls, adds
columns to the max-plus DP its generator owns; a convex domain takes its
minimum over the shift l against its generator's DP of its excised balls.
All of it runs in integers over a common denominator, and a value is
built once from its integer.  Each prefix grows under its own lock; a
value already held is read without it, as results are only appended.
The two toric sources also hold the second method verify=True compares
against.  Sources are made on first use and kept per canonical domain
key, so ck, capacity_sequence, capacity_values and the union DP all read
the same prefixes.  Values are deterministic, so racing threads agree.

Unions, concave and convex domains, the three sources that run the
max-plus DP, persist across processes: one small JSON file per domain in a
cache directory, named by a hash of the domain key, holds the key and each
entry's value and witness; the method is the family's METHOD.  The other
sources compute a prefix about as fast as a file is read, and get none.
Once a directory is loaded, a DP source reads its own file when it is made
and starts from the results it holds, equal to the ones saved, witness
types included.  A file is used whole or not at all: one malformed entry,
like another version or key, makes it a silent miss, computed afresh and
rewritten by the save, which writes a domain's file only when the file
does not already hold its prefix.
"""

from __future__ import annotations

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
from .domains import Ball, Domain
from .geometry import index, rational, rational_str
from .weights import negative_weight_sequence, weight_expansion


class CapacityResult(NamedTuple):
    k: int
    value: Fraction
    method: str
    witness: object = None


class SpectrumEntry(NamedTuple):
    action: Fraction
    m: int
    n: int


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


def ck_ball(a, k) -> CapacityResult:
    ball = Ball(a)
    d = ball_multiplicity(k)
    return _checked(CapacityResult(k, d * ball.a, ball.METHOD, d))


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


def ellipsoid_spectrum(a, b, k_max) -> list:
    """The k_max+1 smallest actions m*a+n*b, sorted, ties ordered by (m,n)."""
    a, b = rational(a), rational(b)
    if a <= 0 or b <= 0:
        raise ValueError("ellipsoid axes must be positive")
    scale, A, B = _scaled(a, b)
    return [SpectrumEntry(Fraction(v, scale), m, n)
            for v, m, n in itertools.islice(_spectrum(A, B), index(k_max) + 1)]


def ck_convex_toric(d, k) -> CapacityResult:
    """c_k as the convex path optimum; the search checks k."""
    opt = paths.min_convex(d, k)
    return _checked(CapacityResult(k, opt.value, "convex_path", opt.witness))


def ck_concave_toric(d, k) -> CapacityResult:
    """c_k as the concave path optimum; the search checks k."""
    opt = paths.max_concave(d, k)
    return _checked(CapacityResult(k, opt.value, "concave_path", opt.witness))


class _UnionParts:
    """State of the max-plus DP over the parts of a union.

    best[i] holds the best total of parts 0..i at each column and values[i]
    the values of part i, both as integers over `scale`, fixed when the
    table is made: a multiple of every part value's denominator.  Rows
    hold c_0, c_1, ..., but only the share values d*a of a Ball part past
    part 0, and part 0's are best[0] itself.  picks[i-1][j] is part i's
    share of column j in best[i].  A part added later starts with empty
    rows, which the next _union_table call fills.
    """

    def __init__(self, parts, scale: int):
        self.parts: list = []
        self.scale = scale
        self.values: list = []
        self.best: list = []
        self.picks: list = []
        for p in parts:
            self.add(p)

    def add(self, part) -> None:
        if self.parts:
            self.picks.append([])
        self.best.append([])
        self.values.append(self.best[0] if not self.parts else [])
        self.parts.append(part)

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

    A Ball part's values d*a come from the closed form, in integers; any
    other part's are read from its source, whose prefix grows to kmax in
    one step.  Column j of part i is the largest f[j-t] + v[t] over the
    shares t that part is offered, f the best totals of the parts before
    it and v its own values; ties keep the smallest share.  f never falls,
    so on a run of equal v the first t of the run wins: a Ball part, whose
    values rise only at t = d(d+1)/2, is offered those O(sqrt j) shares
    alone, and keeps only their values, any other part all j+1.  So
    growing from nothing to kmax costs at most (m-1)(kmax+1)(kmax+2)/2
    steps over m parts however the growth is split.
    """
    balls = [isinstance(p, Ball) for p in parts.parts]
    scale = parts.scale
    nshares = ball_multiplicity(kmax) + 1  # the shares d(d+1)/2 <= kmax
    for i, (p, row, ball) in enumerate(zip(parts.parts, parts.values, balls)):
        if not ball:
            row.extend(r.value.numerator * (scale // r.value.denominator)
                       for r in _source(p).sequence(len(row), kmax))
            continue
        a = p.a.numerator * (scale // p.a.denominator)
        if i:
            row.extend(range(len(row) * a, nshares * a, a))  # d*a, d = len(row), ...
            continue
        d = ball_multiplicity(len(row))  # d*a on each block d(d+1)/2 <= t <= d(d+3)/2
        while len(row) <= kmax:
            row.extend([d * a] * (min(d * (d + 3) // 2, kmax) + 1 - len(row)))
            d += 1
    shares = [d * (d + 1) // 2 for d in range(nshares + 1)]
    for i in range(1, len(parts)):
        f, vi, row, picks = parts.best[i - 1], parts.values[i], parts.best[i], parts.picks[i - 1]
        n = ball_multiplicity(len(row)) + 1  # shares[:n] are the shares up to j
        for j in range(len(row), kmax + 1):
            if balls[i]:
                n += shares[n] <= j
                ts = shares[:n]
                sums = [f[j - t] + v for t, v in zip(ts, vi)]
            else:
                ts = range(j + 1)
                sums = list(map(operator.add, f[j::-1], vi))  # f[j-t] + vi[t]
            top = max(sums)
            row.append(top)
            picks.append(ts[sums.index(top)])


# --- capacity sources --------------------------------------------------------

class _Prefix:
    """results holds c_0..c_{n-1} of one domain, grown on demand under a
    lock and kept.  A CACHED source, one of the three that run the max-plus
    DP, starts from the domain's cache file, read whole, when a cache
    directory is loaded; the others always compute.

    Subclasses define _values(start), a generator of the (value, witness)
    of c_start, c_start+1, ..., which may read `want`, the k the growth
    under way reaches; _grow, the one growth, appends its entries checked.
    A growth that raises drops the generator, which may have lost an entry
    or left a table half-written, and the next starts a fresh one at the
    first k not held.  A family with a second method overrides oracle.  A
    source that can be a union part keeps `scale`, a multiple of every
    value's denominator.
    """

    CACHED = False

    def __init__(self, d: Domain):
        self.lock = threading.Lock()
        self.domain = d
        self.method = d.METHOD
        cached = self.CACHED and _CACHE_DIR is not None
        self.results = _read_prefix(_CACHE_DIR, d) if cached else []
        self.values = None  # the generator drawn from, made on the next growth

    def sequence(self, lo: int, hi: int) -> list:
        """c_lo..c_hi."""
        with self.lock:
            if hi >= len(self.results):
                self._grow(hi)
            return self.results[lo:hi + 1]

    def result(self, k: int) -> CapacityResult:
        """c_k.  Results are only ever appended, so one already held is
        read without the lock."""
        results = self.results
        if k >= len(results):
            with self.lock:
                if k >= len(results):
                    self._grow(k)
        return results[k]

    def oracle(self, k: int) -> CapacityResult | None:
        """c_k by a second method for verify=True, None if there is none."""
        return None

    def _grow(self, k: int) -> None:
        """Append results until c_k is held."""
        self.want = k
        results, method = self.results, self.method
        if self.values is None:
            self.values = self._values(len(results))
        try:
            for value, witness in itertools.islice(self.values, k + 1 - len(results)):
                results.append(_checked(CapacityResult(len(results), value, method, witness)))
        except BaseException:
            self.values = None
            raise


def _ball_values(scale: int, A: int):
    """(c_k, d) of B(A/scale) for k = 0, 1, ...: block d,
    d(d+1)/2 <= k <= d(d+3)/2, holds d+1 results sharing one value d*A."""
    for d in itertools.count():
        value = Fraction(d * A, scale)
        for _ in range(d + 1):
            yield value, d


def _ellipsoid_values(scale: int, A: int, B: int):
    """(c_k, (m, n)) of E(A/scale, B/scale): one spectrum pop per k."""
    for v, m, n in _spectrum(A, B):
        yield Fraction(v, scale), (m, n)


def _polydisk_values(scale: int, A: int, B: int):
    """(c_k, (m, n)) of P(A/scale, B/scale), c_k the least m*A+n*B with
    (m+1)(n+1) >= k+1, read off the ellipsoid's spectrum.  The pops come
    out in (action, m, n) order, so the first pair with (m+1)(n+1) > k
    gives c_k, ties kept at the smallest m: a pair past the k covered so
    far settles every k up to (m+1)(n+1)-1 with one shared value."""
    covered = 0
    for v, m, n in _spectrum(A, B):
        top = (m + 1) * (n + 1)
        if top > covered:
            value, witness = Fraction(v, scale), (m, n)
            for _ in range(top - covered):
                yield value, witness
            covered = top


_FORMULAS = {"ball": _ball_values, "ellipsoid": _ellipsoid_values, "polydisk": _polydisk_values}


class _ClosedFormPrefix(_Prefix):
    """A ball, ellipsoid or polydisk family's closed form: its generator in
    _FORMULAS, in integers over `scale`, the lcm of the sizes'
    denominators, from the first k not held."""

    def __init__(self, d: Domain):
        super().__init__(d)
        self.scale, *self.sizes = _scaled(*d._values())

    def _values(self, start: int):
        return itertools.islice(_FORMULAS[self.domain.SOURCE](self.scale, *self.sizes), start, None)


class _UnionPrefix(_Prefix):
    """A union's max-plus DP over the lcm of its parts' scales: a Ball
    part's denominator, any other part's source scale.  The table, and
    with it the parts' sources, is made on the first draw, so a union read
    from its file makes neither, and grown to the k wanted in one step."""

    CACHED = True

    def _values(self, start: int):
        parts = self.domain.parts
        table = _UnionParts(parts, math.lcm(*(
            p.a.denominator if isinstance(p, Ball) else _source(p).scale for p in parts)))
        for j in itertools.count(start):
            if j >= len(table.best[-1]):
                _union_table(table, max(j, self.want))
            yield table.result(j)


class _ConcavePrefix(_Prefix):
    """The union of the domain's weight balls, largest first, over the
    polygon's scale, a multiple of every weight's denominator (see
    weights).  c_0 = 0 needs no expansion.  c_k uses only the k largest
    balls, so a growth to k adds the balls up to the k-th; c_j is read off
    the table of all balls added, its composition cut to comp[:j]: weights
    never rise and ties keep the smallest share, so each ball past the
    j-th takes share 0, as an optimum giving one a share t leaves an unused
    ball at least as large free to take t.  The oracle is the concave path
    optimum."""

    CACHED = True

    def __init__(self, d: Domain):
        super().__init__(d)
        self.scale = d.int_omega.scale

    def _values(self, start: int):
        if not start:
            yield Fraction(0), ()
        weights = weight_expansion(self.domain)
        self.table = table = _UnionParts((), self.scale)
        grown = 0
        for j in itertools.count(max(start, 1)):
            if j > grown:
                grown = max(j, self.want)
                for w in weights[len(table):grown]:
                    table.add(Ball(w))
                _union_table(table, grown)
            value, comp = table.result(j)
            yield value, comp[:j]

    def oracle(self, k: int) -> CapacityResult:
        return ck_concave_toric(self.domain, k)


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
        and h^2 - S is twice the area (negative_weight_sequence asserts
        it), so once that holds it holds for every later d.
    Every later term then exceeds best, so the value is the exact minimum.
    E's max-plus DP belongs to the generator, over the same denominator,
    and grows to the last block end a k reads, so a scan over k reuses its
    columns.  c_0 = 0, with witness {"l": 0}, needs neither DP nor weight
    sequence.  The oracle is the convex path optimum."""

    CACHED = True

    def __init__(self, d: Domain):
        super().__init__(d)
        self.scale = d.int_omega.scale

    def _values(self, start: int):
        if not start:
            yield Fraction(0), {"l": 0}
        dec = negative_weight_sequence(self.domain)
        self.head = int(dec.head * self.scale)
        sizes = [int(w * self.scale) for w in dec.negatives]
        self.m, self.A, self.S = len(sizes), sum(sizes), sum(a * a for a in sizes)
        self.table = _UnionParts(map(Ball, dec.negatives), self.scale)
        for k in itertools.count(max(start, 1)):
            value, l = self._minimum(k)
            yield Fraction(value, self.scale), {"l": l}

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

    def oracle(self, k: int) -> CapacityResult:
        return ck_convex_toric(self.domain, k)


_SOURCE_KINDS = {  # by the family's SOURCE
    **dict.fromkeys(_FORMULAS, _ClosedFormPrefix),
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

    The source's prefix grows up to k and keeps the work, so asking
    k = 0, 1, 2, ... in turn costs about what one capacity_sequence costs:
    a convex domain's scan grows its excised balls' DP to the same columns
    as one capacity_sequence does.

    verify=True recomputes convex-toric values through the convex path
    optimum (paths.min_convex) and concave-toric values through the
    concave one (paths.max_concave) and insists they agree, values read
    from a cache file included; other families have a single formula each.
    """
    k = index(k)
    source = _source(d)
    result = source.result(k)
    other = source.oracle(k) if verify else None
    if other is not None and other.value != result.value:
        raise RuntimeError(
            f"cross-check failed for {d.key} at k={k}: "
            f"{result.method} gives {rational_str(result.value)}, "
            f"{other.method} gives {rational_str(other.value)}")
    return result


def capacity_sequence(d: Domain, kmax) -> list:
    """CapacityResults for k = 0..kmax, read from the domain's source,
    which grows to kmax in one step."""
    return _source(d).sequence(0, index(kmax))


def capacity_values(d: Domain):
    """c_0, c_1, ... of d, without end, from d's source, which is looked up
    once.  Each step reads the value held for its k or grows the prefix to
    that k, so a scan that stops after k leaves the prefix grown to k and
    no further."""
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

def witness_to_json(w):
    """Witnesses of capacity sources are heterogeneous (pair, composition,
    shift, degree), and the path oracles' are lattice paths; normalize to
    plain JSON for output and persistence.  A path becomes its
    path_to_json object with its kind, which path_from_json reads back."""
    if w is None or isinstance(w, (int, bool)):
        return w
    if isinstance(w, paths.LatticePath):  # a tuple, but holding its kind
        return {"kind": w.kind, **paths.path_to_json(w)}
    if isinstance(w, Fraction):
        return rational_str(w)
    if isinstance(w, (tuple, list)):
        return [witness_to_json(x) for x in w]
    if isinstance(w, dict):
        return {str(key): witness_to_json(v) for key, v in w.items()}
    raise ValueError(f"unserializable witness: {w!r}")


def _witness_from_json(w):
    """Invert witness_to_json for the flat witnesses a capacity source
    holds: lists are pairs or compositions, dicts shifts."""
    return tuple(w) if isinstance(w, list) else w


_FORMAT = 4  # the version field of a domain file


def _cache_path(cache_dir: str, key: str) -> str:
    # zlib, not hashlib: importing hashlib loads OpenSSL on every CLI call.
    # Two keys with one name only share a file, which holds its key
    return os.path.join(cache_dir, f"{zlib.crc32(key.encode()):08x}.json")


def _entry_json(result: CapacityResult) -> dict:
    return {"c": rational_str(result.value), "witness": witness_to_json(result.witness)}


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
            results = source.results[:]
            if not (source.CACHED and results):
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
