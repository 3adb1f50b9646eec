"""Capacity computation: closed forms, spectra, path optima, weight
decompositions, and the dispatcher tying them together.

Formulas implemented here:
  ball        c_k(B(a)) = d*a with d the unique integer satisfying
              d^2+d <= 2k <= d^2+3d
  ellipsoid   c_k(E(a,b)) = k-th smallest element of {m*a+n*b : m,n >= 0}
  polydisk    c_k(P(a,b)) = min{a*m+b*n : (m+1)(n+1) >= k+1}
  convex      minimum path length over convex paths enclosing >= k+1
              lattice points (paths.min_convex); the cross-check is the
              head ball minus the excised balls, min over l of
              c_{k+l}(B(h)) - c_l(union of B(a_i)), stopped at a proven
              bound (ck_convex_via_weights)
  concave     weight expansion plus the disjoint-union maximum over the k
              largest balls (the concave path optimum is the cross-check)
  union       max over compositions k_1+...+k_m = k of the part sums
  closed      the projective plane shares the ball values, the sphere
              product shares the polydisk values

Each domain's family names its capacity source (SOURCE) and the method
string its results carry (METHOD).  Balls and the projective plane compute
each c_k alone; every other source keeps a prefix c_0..c_{n-1} per domain
that grows on demand, keeping the work done so far.  An ellipsoid's prefix
is a slice of its spectrum and at least doubles when it grows; a polydisk
or sphere product appends one k at a time; a union, and a concave domain
read as the union of its weight balls, adds max-plus DP columns; a convex
domain runs one path search over the missing range n..k.  The polydisk
formula and the DP run in integers over a common denominator.  Each prefix
grows under its own lock; the two toric sources also hold the second
method verify=True compares against.

The dispatcher memoizes by (canonical domain key, k) behind a lock, holding
exactly the entries that were asked for, union parts included: a prefix
that ran ahead leaves no memo entry behind.  Values are deterministic, so
racing writers are harmless.

The memo can be spilled to and reloaded from a JSON file for cross-process
reuse.  Loading parses the file once and keeps its entries raw; a memo
miss looks there before computing and builds only the entry asked for,
equal to the one that was saved, witness types included.  A malformed
entry is reported with a warning and computed afresh.  Saving reuses the
parsed entries while the file is unchanged on disk, encodes only the memo
entries the file does not hold yet, and leaves the file alone when none
would change it.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import operator
import os
import threading
import warnings
from fractions import Fraction
from typing import NamedTuple

from . import paths
from .domains import Ball, DisjointUnion, Domain
from .geometry import rational, rational_str
from .norms import concave_context, convex_context
from .paths import LatticePath, path_from_json, path_to_json
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
    if result.value < 0 or (result.value == 0) != (result.k == 0):
        raise RuntimeError(f"capacity invariant violated: {result}")
    return result


def _nonneg_k(k) -> int:
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return k


def ball_multiplicity(k: int) -> int:
    """The unique d >= 0 with d^2+d <= 2k <= d^2+3d."""
    k = _nonneg_k(k)
    d = (math.isqrt(8 * k + 1) - 1) // 2
    # d*(d+3) is always even, so maximality of d gives the upper bound too
    assert d * d + d <= 2 * k <= d * d + 3 * d
    return d


def ck_ball(a, k) -> CapacityResult:
    return _BallFormula(Ball(a)).result(k)


_SPECTRUM_LOCK = threading.Lock()
_SPECTRUM_CACHE: dict = {}  # (a, b) -> _Spectrum


class _Spectrum:
    """The actions of one ellipsoid found so far, in order, and the heap
    that yields the next ones: integers m*A+n*B over the common
    denominator `scale`, as (action, m, n) triples."""

    def __init__(self, a: Fraction, b: Fraction):
        self.scale = math.lcm(a.denominator, b.denominator)
        self.A, self.B = int(a * self.scale), int(b * self.scale)
        self.entries: list = []
        self.heap = [(0, 0, 0)]

    def extend(self, need: int) -> None:
        # (m, n) enters the heap when (m, n-1), or (m-1, 0) for n = 0, leaves
        # it; that predecessor is smaller, so every pair is pushed once and
        # the pops come out sorted by (action, m, n)
        entries, heap, A, B = self.entries, self.heap, self.A, self.B
        while len(entries) < need:
            v, m, n = heapq.heappop(heap)
            entries.append(SpectrumEntry(Fraction(v, self.scale), m, n))
            heapq.heappush(heap, (v + B, m, n + 1))
            if n == 0:
                heapq.heappush(heap, (v + A, m + 1, 0))


def ellipsoid_spectrum(a, b, k_max) -> list:
    """The k_max+1 smallest actions m*a+n*b, sorted, ties ordered by (m,n).

    The actions of each pair of axes are cached as far as any caller asked,
    and a longer request continues the enumeration where it stopped instead
    of starting again.  Ellipsoid prefixes ask for at least double their
    length, so a scan over k = 0..K calls this O(log K) times.
    """
    a, b = rational(a), rational(b)
    if a <= 0 or b <= 0:
        raise ValueError("ellipsoid axes must be positive")
    need = _nonneg_k(k_max) + 1
    with _SPECTRUM_LOCK:
        spectrum = _SPECTRUM_CACHE.get((a, b))
        if spectrum is None:
            spectrum = _SPECTRUM_CACHE[(a, b)] = _Spectrum(a, b)
        spectrum.extend(need)
        return spectrum.entries[:need]


def _path_capacity(ctx, k: int) -> CapacityResult:
    """c_k as the optimum of the path search matching the context's kind."""
    if ctx.kind == "convex":
        opt = paths.min_convex(ctx, k)
    else:
        opt = paths.max_concave(ctx, k)
    return _checked(CapacityResult(k, opt.value, f"{ctx.kind}_path", opt.witness))


def ck_convex_toric(d, k) -> CapacityResult:
    return _path_capacity(convex_context(d), _nonneg_k(k))


def ck_concave_toric(d, k) -> CapacityResult:
    return _path_capacity(concave_context(d), _nonneg_k(k))


class _UnionParts:
    """State of the max-plus DP over the parts of a union.

    values[i] holds c_0, c_1, ... of part i and best[i] the best total of
    parts 0..i at each column, both as integers over the common
    denominator `scale`; picks[i-1][j] is part i's share of column j in
    best[i].  A part added later starts with empty rows, which the next
    _union_table call fills.
    """

    def __init__(self, parts=()):
        self.parts: list = []
        self.scale = 1
        self.values: list = []
        self.best: list = []
        self.picks: list = []
        for p in parts:
            self.add(p)

    def add(self, part) -> None:
        if self.parts:
            self.picks.append([])
        self.parts.append(part)
        self.values.append([])
        self.best.append([])

    def __len__(self) -> int:
        return len(self.parts)

    def result(self, k: int, method: str, stages: int | None = None) -> CapacityResult:
        """c_k of the union of the first `stages` parts (default: all)."""
        stages = len(self.parts) if stages is None else stages
        value = Fraction(self.best[stages - 1][k], self.scale)
        return _checked(CapacityResult(k, value, method,
                                       _union_witness(self.picks, k, stages)))


def _union_table(parts, kmax: int) -> None:
    """Extend the DP of `parts` (a _UnionParts) through column kmax, which
    must be at least the number of columns it has.

    New part values are read through ck, c_kmax first so that a part's own
    prefix grows in one step.  Column j of every part after the first
    costs j+1 steps, so growing from nothing to kmax costs
    (m-1)(kmax+1)(kmax+2)/2 steps over m parts however the growth is split.
    Ties keep the smallest share for the later part.
    """
    fresh = []
    for p, row in zip(parts.parts, parts.values):
        top = ck(p, kmax).value
        fresh.append([ck(p, t).value for t in range(len(row), kmax)] + [top])
    scale = math.lcm(parts.scale, *(v.denominator for row in fresh for v in row))
    if scale != parts.scale:
        factor = scale // parts.scale
        for row in parts.values + parts.best:
            row[:] = [x * factor for x in row]
        parts.scale = scale
    for row, new in zip(parts.values, fresh):
        row.extend(v.numerator * (scale // v.denominator) for v in new)
    first, best0 = parts.values[0], parts.best[0]
    best0.extend(first[len(best0):kmax + 1])
    for i in range(1, len(parts)):
        f, vi, row, picks = parts.best[i - 1], parts.values[i], parts.best[i], parts.picks[i - 1]
        for j in range(len(row), kmax + 1):
            sums = list(map(operator.add, f[j::-1], vi))  # f[j-t] + vi[t]
            top = max(sums)
            row.append(top)
            picks.append(sums.index(top))


def _union_witness(picks, k: int, nparts: int):
    comp = [0] * nparts
    j = k
    for i in range(nparts - 1, 0, -1):
        t = picks[i - 1][j]
        comp[i] = t
        j -= t
    comp[0] = j
    return tuple(comp)


def ck_convex_via_weights(omega, k) -> CapacityResult:
    """c_k of a convex toric domain from its negative weight sequence, head
    h and excised balls B(a_i): the minimum over l >= 0 of the upper bounds

        T(l) = c_{k+l}(B(h)) - c_l(union of the B(a_i)).

    It runs through l in order and stops at the first l >= l_turn =
    S(8k+9)/(8(h^2 - S)) with LB(l) > best, where S = sum a_i^2 and
    LB(l) = h(sqrt(8(k+l)+9) - 3)/2 - sqrt(2lS) <= T(l):
      - c_j(B(h)) = d*h with d^2 + 3d >= 2j, so d >= (sqrt(8j+9) - 3)/2;
      - c_l of the union is sum d_i*a_i over a split l = sum l_i with
        d_i^2 <= 2*l_i, so by Cauchy-Schwarz it is at most sqrt(2lS);
      - LB'(l) >= 0 exactly when 8l(h^2 - S) >= S(8k+9), and h^2 - S is
        twice the area (negative_weight_sequence asserts it), so LB is
        nondecreasing from l_turn on.
    Every later term then exceeds best, so the value is the exact minimum
    and the witness {"l": ...} its first argmin.  The excised balls' DP
    grows one column per l.
    """
    k = _nonneg_k(k)
    decomp = negative_weight_sequence(omega)
    h = decomp.head
    best, l_star = ball_multiplicity(k) * h, 0  # T(0)
    if decomp.negatives:  # else T(l) = c_{k+l}(B(h)) grows with l
        excised = _UnionPrefix(DisjointUnion(tuple(Ball(w) for w in decomp.negatives)))
        S = sum(w * w for w in decomp.negatives)
        l_turn = S * (8 * k + 9) / (8 * (h * h - S))
        l = 1
        while l < l_turn or _term_lower_bound(h, S, k, l) <= best:
            v = ball_multiplicity(k + l) * h - excised.result(l).value
            if v < best:
                best, l_star = v, l
            l += 1
    return _checked(CapacityResult(k, best, "weights", {"l": l_star}))


def _term_lower_bound(h: Fraction, S: Fraction, k: int, l: int) -> Fraction:
    """A rational at most h(sqrt(8(k+l)+9) - 3)/2 - sqrt(2lS): both roots
    bracketed by math.isqrt to 2^-20 of their denominators, no floats."""
    x = 2 * l * S
    root_lo = Fraction(math.isqrt((8 * (k + l) + 9) << 40), 1 << 20)
    root_hi = Fraction(math.isqrt((x.numerator * x.denominator) << 40) + 1, x.denominator << 20)
    return h * (root_lo - 3) / 2 - root_hi


# --- capacity sources --------------------------------------------------------

class _Prefix:
    """c_0..c_{n-1} of one domain, grown on demand under a lock and kept.

    Subclasses define _grow(k), which extends the prefix so that n > k, and
    _result(k) for k < n.  A family with a second method overrides oracle.
    """

    def __init__(self, d: Domain):
        self.lock = threading.Lock()
        self.n = 0
        self.domain = d
        self.method = d.METHOD

    def result(self, k: int) -> CapacityResult:
        with self.lock:
            if k >= self.n:
                self._grow(k)
            return self._result(k)

    def oracle(self, k: int) -> CapacityResult | None:
        """c_k by a second method for verify=True, None if there is none."""
        return None


class _BallFormula(_Prefix):
    """No prefix: c_k = d*a from the closed form, computed alone per k."""

    def __init__(self, d: Domain):
        self.a, self.method = d.a, d.METHOD

    def result(self, k: int) -> CapacityResult:
        d = ball_multiplicity(k)
        return _checked(CapacityResult(_nonneg_k(k), d * self.a, self.method, d))


class _EllipsoidPrefix(_Prefix):
    """A slice of the ellipsoid spectrum, at least doubled on each growth so
    a scan over k = 0..K asks for the spectrum O(log K) times."""

    def __init__(self, d: Domain):
        super().__init__(d)
        self.entries: list = []

    def _grow(self, k: int) -> None:
        self.entries = ellipsoid_spectrum(self.domain.a, self.domain.b, max(k, 2 * self.n - 1))
        self.n = len(self.entries)

    def _result(self, k: int) -> CapacityResult:
        e = self.entries[k]
        return _checked(CapacityResult(k, e.action, self.method, (e.m, e.n)))


class _PolydiskPrefix(_Prefix):
    """c_k = min{a*m+b*n : (m+1)(n+1) >= k+1} appended one k at a time, in
    integers over a common denominator.  Per k only the smallest m of each
    run of equal n can win, so the scan jumps between runs: O(sqrt k) steps.
    Ties keep the smallest m."""

    def __init__(self, d: Domain):
        super().__init__(d)
        self.scale = math.lcm(d.a.denominator, d.b.denominator)
        self.A, self.B = int(d.a * self.scale), int(d.b * self.scale)
        self.results: list = []

    def _grow(self, k: int) -> None:
        A, B = self.A, self.B
        for j in range(self.n, k + 1):
            best = witness = None
            m = 0
            while True:
                n = -(-(j + 1) // (m + 1)) - 1  # smallest n with (m+1)(n+1) >= j+1
                v = A * m + B * n
                if best is None or v < best:
                    best, witness = v, (m, n)
                if n == 0:
                    break
                m = -(-(j + 1) // n) - 1  # smallest m whose n is below this one
            self.results.append(_checked(CapacityResult(
                j, Fraction(best, self.scale), self.method, witness)))
        self.n = k + 1

    def _result(self, k: int) -> CapacityResult:
        return self.results[k]


class _UnionPrefix(_Prefix):
    """A union's max-plus DP, extended by one column per new k."""

    def __init__(self, d: Domain):
        super().__init__(d)
        self.table = _UnionParts(d.parts)

    def _grow(self, k: int) -> None:
        _union_table(self.table, k)
        self.n = k + 1

    def _result(self, k: int) -> CapacityResult:
        return self.table.result(k, self.method)


class _ConcavePrefix(_Prefix):
    """The union of the domain's weight balls, largest first.  c_k uses
    only the k largest balls, so ball i joins the DP at column i+1; the
    expansion itself waits for the first k >= 1, as c_0 = 0 needs none.
    The oracle is the concave path optimum, whose norm context is built
    on first use and kept."""

    def __init__(self, d: Domain):
        super().__init__(d)
        self.weights = None
        self.table = _UnionParts()
        self.ctx = None

    def _grow(self, k: int) -> None:
        if k >= 1:
            if self.weights is None:
                self.weights = weight_expansion(self.domain)
            for w in self.weights[len(self.table):k]:
                self.table.add(Ball(w))
            _union_table(self.table, k)
        self.n = k + 1

    def _result(self, k: int) -> CapacityResult:
        if k == 0:
            return CapacityResult(0, Fraction(0), self.method, ())
        return self.table.result(k, self.method, min(k, len(self.table)))

    def oracle(self, k: int) -> CapacityResult:
        if self.ctx is None:
            self.ctx = concave_context(self.domain)
        return _path_capacity(self.ctx, k)


class _ConvexPrefix(_Prefix):
    """Path optima of a convex domain.  Growing from n to k runs one
    min_convex_range search over n..k, which gives each k what its own
    min_convex search gives, so growth by one is that lone search.  The
    norm context is built on the first growth and kept.  The oracle is the
    exact weight formula ck_convex_via_weights, whose minimum over the
    shift stops at a proven bound."""

    def __init__(self, d: Domain):
        super().__init__(d)
        self.ctx = None
        self.results: list = []

    def _grow(self, k: int) -> None:
        if self.ctx is None:
            self.ctx = convex_context(self.domain)
        for j, opt in enumerate(paths.min_convex_range(self.ctx, self.n, k), self.n):
            self.results.append(_checked(CapacityResult(j, opt.value, self.method, opt.witness)))
        self.n = k + 1

    def _result(self, k: int) -> CapacityResult:
        return self.results[k]

    def oracle(self, k: int) -> CapacityResult:
        return ck_convex_via_weights(self.domain, k)


_SOURCE_KINDS = {  # by the family's SOURCE
    "ball": _BallFormula,
    "ellipsoid": _EllipsoidPrefix,
    "polydisk": _PolydiskPrefix,
    "union": _UnionPrefix,
    "concave": _ConcavePrefix,
    "convex": _ConvexPrefix,
}

_MEMO_LOCK = threading.Lock()
_MEMO: dict = {}  # (domain key, k) -> CapacityResult
_SOURCES: dict = {}  # domain key -> capacity source
_DISK: dict = {}  # "domain key#k" -> raw entry of a loaded cache file
_SAVED: set = set()  # memo keys whose entry a cache file held when it was built or saved
_FILE = None  # (path, signature, entries) of the cache file last read or written


def _source(d: Domain, key: str):
    """The capacity source of d, made on first use and kept; the lookups
    hold the memo lock, making a source runs outside it."""
    with _MEMO_LOCK:
        found = _SOURCES.get(key)
    if found is None:
        made = _SOURCE_KINDS[d.SOURCE](d)
        with _MEMO_LOCK:
            found = _SOURCES.setdefault(key, made)
    return found


def _dispatch(d: Domain, k: int, key: str) -> CapacityResult:
    return _source(d, key).result(k)


def ck(d: Domain, k, verify: bool = False) -> CapacityResult:
    """Capacity from the domain's source, memoized per (domain, k).

    A memo miss extends the domain's prefix up to k, keeping it for later
    calls, so asking k = 0, 1, 2, ... in turn costs about what one
    capacity_sequence costs.  Balls and the projective plane compute c_k
    alone.  A convex domain's prefix keeps its norm context and grows by
    one path search over the missing indices: a cold ck(d, k) finds
    c_0..c_k in one search, and a scan that asks k = n, n+1, ... runs one
    lone min_convex search per step.

    verify=True recomputes convex-toric values through the exact weight
    formula (ck_convex_via_weights) and concave-toric values through the
    path optimum and insists they agree; other families have a single
    formula each.
    """
    k = _nonneg_k(k)
    dkey = d.key
    key = (dkey, k)
    if not verify:
        with _MEMO_LOCK:
            hit = _MEMO.get(key)
        if hit is None and _DISK:
            hit = _from_disk(key)
        if hit is not None:
            return hit
    result = _dispatch(d, k, dkey)
    other = _source(d, dkey).oracle(k) if verify else None
    if other is not None and other.value != result.value:
        raise RuntimeError(
            f"cross-check failed for {dkey} at k={k}: "
            f"{result.method} gives {rational_str(result.value)}, "
            f"{other.method} gives {rational_str(other.value)}")
    with _MEMO_LOCK:
        _MEMO.setdefault(key, result)
    return result


def capacity_sequence(d: Domain, kmax) -> list:
    """CapacityResults for k = 0..kmax.

    One ck(d, kmax) grows the domain's prefix to kmax in one step (for a
    convex domain, one path search); the lower entries are then read from
    the memo where it has them, from the loaded cache file next and from
    the source otherwise, and memoized as ck would.
    """
    kmax = _nonneg_k(kmax)
    key = d.key
    source = _source(d, key)
    ck(d, kmax)
    with _MEMO_LOCK:
        found = [_MEMO.get((key, k)) for k in range(kmax + 1)]
    for k, result in enumerate(found):
        if result is None and _DISK:
            result = found[k] = _from_disk((key, k))
        if result is None:
            result = source.result(k)
            with _MEMO_LOCK:
                found[k] = _MEMO.setdefault((key, k), result)
    return found


def clear_memo() -> None:
    """Forget every memoized capacity, capacity source and loaded cache
    entry (the ellipsoid spectrum cache is kept)."""
    global _FILE
    with _MEMO_LOCK:
        _MEMO.clear()
        _SOURCES.clear()
        _DISK.clear()
        _SAVED.clear()
        _FILE = None


# --- cross-process persistence --------------------------------------------

def witness_to_json(w):
    """Witnesses are heterogeneous (path, pair, composition, shift, degree);
    normalize to plain JSON for output and persistence."""
    if w is None or isinstance(w, (int, bool)):
        return w
    if isinstance(w, LatticePath):  # a tuple too: test it before tuples
        return path_to_json(w)
    if isinstance(w, Fraction):
        return rational_str(w)
    if isinstance(w, (tuple, list)):
        return [witness_to_json(x) for x in w]
    if isinstance(w, dict):
        return {str(key): witness_to_json(v) for key, v in w.items()}
    raise ValueError(f"unserializable witness: {w!r}")


def _witness_from_json(method: str, w):
    """Invert witness_to_json for the witnesses ck produces: lattice paths
    for the path searches, tuples for pairs and compositions."""
    if method in ("convex_path", "concave_path"):
        return path_from_json(w, method.partition("_")[0])
    if isinstance(w, list):
        return tuple(_witness_from_json(method, x) for x in w)
    if isinstance(w, dict):
        return {key: _witness_from_json(method, v) for key, v in w.items()}
    return w


def _cache_file(cache_dir: str) -> str:
    return os.path.join(cache_dir, "capacities.json")


def _signature(st) -> tuple:
    # writers replace the file by renaming a new one over it, so a file
    # whose inode, size and mtime are unchanged holds the same entries
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _read_cache(path: str):
    """(signature, entries) of the cache file at path.  Raises
    FileNotFoundError when there is none and ValueError when it is not a
    version-1 cache."""
    with open(path, "r", encoding="utf-8") as fh:
        signature = _signature(os.fstat(fh.fileno()))
        payload = json.load(fh)
    entries = None
    if isinstance(payload, dict) and payload.get("version") == 1:
        entries = payload.get("entries", {})
    if not isinstance(entries, dict):
        raise ValueError("unrecognized capacity cache format")
    return signature, entries


def _entry_json(result: CapacityResult) -> dict:
    return {"c": rational_str(result.value), "method": result.method,
            "witness": witness_to_json(result.witness)}


def _entry_result(k: int, entry) -> CapacityResult:
    """Invert _entry_json; a malformed entry raises LookupError, TypeError
    or ValueError."""
    method = entry["method"]
    if not isinstance(method, str):
        raise TypeError(f"method {method!r} is not a string")
    return CapacityResult(k, rational(entry["c"]), method,
                          _witness_from_json(method, entry.get("witness")))


_ABSENT = object()


def _from_disk(key):
    """The loaded cache entry under key, built and memoized; None when the
    file held no such entry, or a malformed one, which warns so that the
    caller computes and memoizes the value afresh (the memo then answers
    every later lookup of key, so one entry warns once)."""
    dk, k = key
    skey = f"{dk}#{k}"
    entry = _DISK.get(skey, _ABSENT)
    if entry is _ABSENT:
        return None
    try:
        result = _entry_result(k, entry)
    except (LookupError, TypeError, ValueError) as e:
        warnings.warn(f"ignoring malformed capacity cache entry {skey}: "
                      f"{type(e).__name__}: {e}", RuntimeWarning, stacklevel=3)
        return None
    with _MEMO_LOCK:
        _SAVED.add(key)
        return _MEMO.setdefault(key, result)


def load_disk_cache(cache_dir: str) -> int:
    """Read a previously saved memo file for ck and capacity_sequence to
    draw on; returns the number of entries in it.

    The file is parsed once and its entries kept raw under the file's own
    keys: a memo miss builds and memoizes only the entry asked for, and a
    malformed entry becomes a miss with a warning.  The parsed entries and
    the file's signature are kept for save_disk_cache.  A missing file is
    not an error; a file that is not a version-1 cache raises ValueError.
    """
    global _FILE
    path = _cache_file(cache_dir)
    try:
        signature, entries = _read_cache(path)
    except FileNotFoundError:
        return 0
    with _MEMO_LOCK:
        for skey, entry in entries.items():
            _DISK.setdefault(skey, entry)
        _FILE = (path, signature, entries)
    return len(entries)


def save_disk_cache(cache_dir: str) -> int:
    """Write the memo into the cache file next to the entries it holds;
    returns the number of entries in the file.

    The entries parsed by the last load or save of this file are reused
    while its signature (inode, size, mtime) is unchanged; otherwise the
    file is read again, so entries other writers saved in between are
    kept.  Only memo entries that did not come from the file are encoded,
    and when none of them would change an entry of a readable cache file,
    nothing is written.
    """
    global _FILE
    path = _cache_file(cache_dir)
    os.makedirs(cache_dir, exist_ok=True)
    with _MEMO_LOCK:
        kept = _FILE
        memo = [(key, result, key in _SAVED) for key, result in _MEMO.items()]
    readable = True
    try:
        if kept is not None and kept[0] == path and _signature(os.stat(path)) == kept[1]:
            signature, entries = kept[1:]
        else:
            signature, entries = _read_cache(path)
    except (FileNotFoundError, ValueError):
        signature, entries, readable = None, {}, False
    updates = {}
    for (dk, k), result, saved in memo:
        skey = f"{dk}#{k}"
        if saved and skey in entries:
            continue
        entry = _entry_json(result)
        if entries.get(skey) != entry:
            updates[skey] = entry
    if updates or not readable:
        merged = entries | updates
        # sort entry keys by hand; sort_keys would also reorder nested
        # witness objects and break byte-stable reloads
        entries = {key: merged[key] for key in sorted(merged)}
        signature = _write_cache(path, entries)
    with _MEMO_LOCK:
        _SAVED.update(key for key, _, _ in memo)
        _FILE = (path, signature, entries)
    return len(entries)


_WRITE_BATCH = 256  # cache entries encoded per json.dumps call


def _write_cache(path: str, entries: dict) -> tuple:
    """Replace the cache file at path with entries; returns its signature."""
    # each writer (process and thread) gets a temp file of its own, so
    # concurrent writers never share a half-written file; the
    # read-merge-write of save_disk_cache can still drop entries another
    # writer saved in between.  Not mkstemp: its files are private (0600),
    # and the cache keeps the permissions the umask gives
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    items = list(entries.items())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            # the bytes json.dump({"version": 1, "entries": entries}) writes,
            # a batch of entries per json.dumps: json.dump encodes in pure
            # Python, and one json.dumps of everything holds it all in memory
            fh.write('{"version": 1, "entries": {')
            for i in range(0, len(items), _WRITE_BATCH):
                batch = json.dumps(dict(items[i:i + _WRITE_BATCH]))[1:-1]
                fh.write(f", {batch}" if i else batch)
            fh.write("}}")
            fh.flush()
            signature = _signature(os.fstat(fh.fileno()))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return signature
