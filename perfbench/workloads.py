"""Seeded inputs and operations for the three workloads.

Every workload is a closed loop: one caller runs one operation at a time.
Operation i depends only on the seed and on i (inputs come from one
``random.Random(seed)`` stream drawn in order), so a longer run repeats a
shorter run's operations first.  Family and K cycle through a fixed recipe
by position, and only the numbers inside each domain come from the seed;
that keeps the work in a run nearly the same from seed to seed while no
two runs see the same domains.

No two operations share a domain, a union part, a weight ball or an
ellipsoid's axes: every number drawn for operation i has the i-th prime
from 1009 up as its exact denominator, so symcap's memo and spectrum
cache never carry work from one operation to the next.

Why each workload:

formulas      capacity_sequence on ball and ellipsoid unions, concave
              staircases, polydisks and ellipsoids, K from tens to
              hundreds, plus check_embedding scans of ellipsoids into balls
              and polydisks.  All capacities + weights + domains and no
              path search: the target of whole-sequence work (union DP,
              spectrum, weights); paths.* and geometry.* read 0 here.
toric-search  capacity_sequence on small rational convex polygons (the
              convex lattice-path search) and ck(d, k, verify=True) on
              concave quadrilaterals and ellipsoid triangles (the concave
              search as cross-check).  The time is in paths + geometry: the
              target of path-search work, flat under whole-sequence work.
cli-scan      a shell-style scaling search through `python -m symcap`
              processes: per source, `obstruct` against a ladder of balls
              sharing one CAPACITY_CACHE_DIR that starts empty, then
              `sequence --format json` with and without the cache.  The
              only workload where interpreter start-up, argument parsing,
              JSON rendering, memo hits and the disk cache matter.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction as F
from random import Random
from typing import Any, Callable

import oracle

# symcap is imported inside the functions that make operations: run.py imports
# this module for its constants without src/ on its path

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("formulas", "toric-search", "cli-scan")

# A run repeats the same operations in PASSES fresh processes and takes
# medians over the passes, per operation for the latencies, so a burst of
# load from elsewhere on the machine during one pass moves the result
# less.  op_p90_s needs at least 10 of a pass's operations beyond it.
PASSES = 3
MIN_OPS = 100

# Recipes: (family, K, parts) slots cycled by operation index, listed from
# cheap to dear.  Of 12 slots, 4 are light, 4 sit in one middle cost band,
# 1 lies between and 3 form one heavy band, so op_p50_s falls in the middle
# of the middle band and op_p90_s inside the heavy one; a quantile that fell
# in a gap between two bands would jump from seed to seed.  The slots of a
# band have overlapping cost ranges.  parts is the number of union parts,
# or of weight balls for a staircase.  The smoke recipes keep every slot at
# tiny K so all three workloads finish in a few seconds.
FORMULAS = (("ellipsoid", 500, 0), ("ball_union", 20, 2), ("ellipsoid_union", 20, 2),
            ("ellipsoid_union", 30, 3),
            ("staircase", 20, 8), ("embed_polydisk", 100, 0), ("ball_union", 25, 6),
            ("staircase", 20, 8),
            ("embed_ball", 200, 0),
            ("staircase", 30, 8), ("embed_ball", 300, 0), ("polydisk", 200, 0))
TORIC = (("triangle", 10, 0), ("concave_quad", 10, 0), ("pentagon", 10, 0), ("hexagon", 10, 0),
         ("hexagon", 14, 0), ("pentagon", 14, 0), ("hexagon", 14, 0), ("pentagon", 14, 0),
         ("triangle", 12, 0),
         ("hexagon", 18, 0), ("triangle", 14, 0), ("concave_quad", 14, 0))
FORMULAS_SMOKE = tuple((family, 6, parts) for family, _, parts in FORMULAS)
TORIC_SMOKE = tuple((family, 4, parts) for family, _, parts in TORIC)

# (family, K): sizes at which the two families cost about the same to
# compute cold, so their cold calls fall in one cost band
CLI_SOURCES = (("ball_union", 45), ("ellipsoid_union", 55))
CLI_SOURCES_SMOKE = tuple((family, 6) for family, _ in CLI_SOURCES)
LADDER = tuple(F(82 + 6 * j, 100) for j in range(8))  # target scale / threshold
LADDER_SMOKE = (F(9, 10), F(11, 10))

# operations per second of --seconds over all passes, measured on the
# benchmark's own machine at the commit that introduced it
OPS_PER_SECOND = {"formulas": 18, "toric-search": 18, "cli-scan": 6}


@dataclass
class Op:
    label: str
    call: Callable[[], Any]  # the timed operation
    # untimed: result -> (text digested for the reference, error or None)
    check: Callable[[Any], tuple]


def _primes(start: int):
    n = start
    while True:
        if all(n % q for q in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


class Inputs:
    """The seeded number stream; ``next_op`` hands out the next operation's
    private prime denominator."""

    def __init__(self, seed: int):
        self.rng = Random(seed)
        self._primes = _primes(1009)
        self.p = None

    def next_op(self) -> int:
        self.p = next(self._primes)
        return self.p

    def frac(self, lo, hi) -> F:
        """Uniform rational in (lo, hi] whose reduced denominator is p."""
        p = self.p
        lo_n, hi_n = math.floor(F(lo) * p) + 1, math.floor(F(hi) * p)
        while True:
            n = self.rng.randint(lo_n, hi_n)
            if n % p:
                return F(n, p)

    def distinct(self, count, lo, hi) -> list:
        out: list = []
        while len(out) < count:
            v = self.frac(lo, hi)
            if v not in out:
                out.append(v)
        return out

    def staircase(self, edges: int, weights: int) -> tuple:
        """Concave chain (0,b) ... (a,0) with `edges` edges whose weight
        expansion has exactly `weights` balls, scaled by a fresh rational.

        Fixing the ball count fixes the union DP's size, so one staircase
        costs about the same as another at the same K.
        """
        rng = self.rng
        while True:
            dxs = [rng.randint(1, 3) for _ in range(edges)]
            slopes = sorted({F(-rng.randint(1, 8), rng.randint(1, 4)) for _ in range(edges)})
            if len(slopes) != edges:
                continue
            x, y, pts = 0, F(0), [(0, F(0))]
            for dx, s in zip(dxs, slopes):
                x += dx
                y += s * dx
                pts.append((x, y))
            chain = tuple((F(px), py - y) for px, py in pts)
            if len(oracle.weight_expansion(chain)) == weights:
                mu = self.frac(F(1, 2), F(3, 2))
                return tuple((px * mu, py * mu) for px, py in chain)

    def convex_polygon(self, hexagon: bool) -> list:
        """Rectangle with one corner cut (pentagon) or two (hexagon)."""
        rng = self.rng
        a, b = F(rng.randint(8, 12), 5), F(rng.randint(8, 12), 5)
        if hexagon:
            x1, y1 = a * F(rng.randint(2, 4), 10), b * F(rng.randint(2, 4), 10)
            corner = [(a * F(rng.randint(7, 8), 10), b * F(rng.randint(7, 8), 10))]
        else:
            x1, y1 = a * F(rng.randint(4, 6), 10), b * F(rng.randint(4, 6), 10)
            corner = []
        mu = self.frac(F(1, 2), F(3, 2))
        pts = [(0, 0), (a, 0), (a, y1), *corner, (x1, b), (0, b)]
        return [(px * mu, py * mu) for px, py in pts]

    def triangle(self) -> tuple:
        """Legs a, b of an ellipsoid triangle.  The ratio a/b has small
        terms so the weight expansion stays shallow; the scale is fresh."""
        rng = self.rng
        a, b = F(rng.randint(8, 12), 4), F(rng.randint(8, 16), 4)
        mu = self.frac(F(1, 2), F(3, 2))
        return a * mu, b * mu

    def concave_quad(self) -> tuple:
        """Chain (0,b), (x1,y1), (a,0) with the middle point strictly below
        the diagonal."""
        rng = self.rng
        a, b = F(rng.randint(8, 12), 4), F(rng.randint(8, 12), 4)
        while True:
            t, s = F(rng.randint(2, 5), 10), F(rng.randint(2, 5), 10)
            if t + s < 1:
                break
        mu = self.frac(F(1, 2), F(3, 2))
        return ((F(0), b * mu), (a * t * mu, b * s * mu), (a * mu, F(0)))


def _text(values) -> str:
    return ",".join(str(v) for v in values)


def _n_ops(workload: str, seconds: float, group: int) -> int:
    """Operations in one pass, a whole number of recipe rounds."""
    n = max(MIN_OPS, math.ceil(seconds * OPS_PER_SECOND[workload] / PASSES))
    return -(-n // group) * group


def _compare(label, got, want):
    return None if got == want else f"{label}: result differs from the closed form"


# --- formulas --------------------------------------------------------------

def _sequence_op(label, domain, kmax, expected) -> Op:
    import symcap.capacities

    def call():
        return symcap.capacities.capacity_sequence(domain, kmax)

    def check(result):
        values = [r.value for r in result]
        return _text(values), _compare(label, values, expected())

    return Op(label, call, check)


def _report_tuple(rep) -> tuple:
    return (rep.obstructed, rep.first_k, rep.c_source, rep.c_target, rep.k_max,
            rep.volume_ok, tuple(tuple(row) for row in rep.table))


def _expected_report(src_seq, tgt_seq, kmax, volume_ok) -> tuple:
    first = oracle.first_violation(src_seq, tgt_seq)
    last = kmax if first is None else first
    rows = tuple((k, src_seq[k], tgt_seq[k]) for k in range(last + 1))
    if first is None:
        return (False, None, None, None, kmax, volume_ok, rows)
    return (True, first, src_seq[first], tgt_seq[first], kmax, volume_ok, rows)


def _embedding_op(label, src, tgt, kmax, expected) -> Op:
    import symcap.obstructions

    def call():
        return symcap.obstructions.check_embedding(src, tgt, kmax)

    def check(rep):
        got = _report_tuple(rep)
        return repr(got), _compare(label, got, expected())

    return Op(label, call, check)


def _formulas_op(inp: Inputs, family: str, kmax: int, parts: int) -> Op:
    from symcap import domains as D
    inp.next_op()
    label = f"{family} K={kmax}" + (f" parts={parts}" if parts else "")
    if family == "ball_union":
        sizes = inp.distinct(parts, F(1, 2), 2)
        d = D.disjoint_union(*[D.ball(a) for a in sizes])
        return _sequence_op(label, d, kmax,
                            lambda: oracle.union([oracle.ball(a, kmax) for a in sizes]))
    if family == "ellipsoid_union":
        axes = inp.distinct(2 * parts, F(1, 2), 2)
        pairs = list(zip(axes[::2], axes[1::2]))
        d = D.disjoint_union(*[D.ellipsoid(a, b) for a, b in pairs])
        return _sequence_op(label, d, kmax,
                            lambda: oracle.union([oracle.ellipsoid(a, b, kmax) for a, b in pairs]))
    if family == "staircase":
        chain = inp.staircase(3, parts)
        d = D.concave_toric([(0, 0), *reversed(chain)])
        return _sequence_op(label, d, kmax, lambda: oracle.concave(chain, kmax))
    if family in ("polydisk", "ellipsoid"):
        a, b = inp.distinct(2, 1, 3)
        make, form = ((D.polydisk, oracle.polydisk) if family == "polydisk"
                      else (D.ellipsoid, oracle.ellipsoid))
        return _sequence_op(label, make(a, b), kmax, lambda: form(a, b, kmax))
    a, b = inp.distinct(2, 1, 3)
    src = D.ellipsoid(a, b)
    if family == "embed_ball":
        top = max(a, b)
        c = inp.frac(top, top + F(1, 4))
        tgt = D.ball(c)
        return _embedding_op(label, src, tgt, kmax, lambda: _expected_report(
            oracle.ellipsoid(a, b, kmax), oracle.ball(c, kmax), kmax, a * b / 2 <= c * c / 2))
    c, e = inp.frac(a, a + F(1, 4)), inp.frac(b, b + F(1, 4))
    tgt = D.polydisk(c, e)
    return _embedding_op(label, src, tgt, kmax, lambda: _expected_report(
        oracle.ellipsoid(a, b, kmax), oracle.polydisk(c, e, kmax), kmax, a * b / 2 <= c * e))


def _recipe_ops(inp, recipe, n_ops, make) -> list:
    return [make(inp, *recipe[i % len(recipe)]) for i in range(n_ops)]


# --- toric-search ----------------------------------------------------------

def _convex_check(label, domain, expected, spot):
    """Equal to the closed form; when `spot` is a k, c_k also equals
    ck(d, k, verify=True).

    A verified convex value costs about 0.1 s whatever k is (symcap's
    weight formula fills a fixed 100-shift table), so only a seeded eighth
    of the convex operations are spot-checked, at k <= 6.
    """
    import symcap.capacities

    def check(result):
        values = [r.value for r in result]
        if values != expected():
            return _text(values), f"{label}: result differs from the closed form"
        if spot:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if symcap.capacities.ck(domain, spot, verify=True).value != values[spot]:
                    return _text(values), f"{label}: c_{spot} differs from ck(verify=True)"
        return _text(values), None

    return check


def _verify_op(label, domain, k, expected) -> Op:
    import symcap.capacities

    def call():
        return symcap.capacities.ck(domain, k, verify=True)

    def check(result):
        return str(result.value), _compare(label, result.value, expected())

    return Op(label, call, check)


def _toric_op(inp: Inputs, family: str, kmax: int, parts: int) -> Op:
    import symcap.capacities
    from symcap import domains as D
    inp.next_op()
    if family in ("pentagon", "hexagon"):
        label = f"{family} K={kmax}"
        vertices = inp.convex_polygon(family == "hexagon")
        d = D.convex_toric(vertices)
        spot = inp.rng.randint(1, min(kmax, 6)) if inp.rng.random() < 0.125 else None
        chain = tuple(reversed(vertices[1:]))
        return Op(label, lambda: symcap.capacities.capacity_sequence(d, kmax),
                  _convex_check(label, d, lambda: oracle.convex(chain, kmax), spot))
    if family == "concave_quad":
        chain = inp.concave_quad()
        d = D.concave_toric([(0, 0), *reversed(chain)])
        return _verify_op(f"concave quad k={kmax}", d, kmax,
                          lambda: oracle.concave(chain, kmax)[kmax])
    a, b = inp.triangle()
    d = D.concave_toric([(0, 0), (a, 0), (0, b)])
    return _verify_op(f"ellipsoid triangle k={kmax}", d, kmax,
                      lambda: oracle.ellipsoid(a, b, kmax)[kmax])


# --- cli-scan --------------------------------------------------------------

class Cli:
    """Runs `python -m symcap` one process at a time.

    Traced runs start each process through launch.py instead, which wraps
    the same functions and writes its spans to ``spans_dir``.
    """

    def __init__(self, src_dir: str, cache_dir: str, spans_dir: str | None = None):
        self.cache_dir = cache_dir
        self.spans_dir = spans_dir
        self.spans_files: list = []
        env = {k: v for k, v in os.environ.items() if k != "CAPACITY_CACHE_DIR"}
        env["PYTHONPATH"] = src_dir
        self.env = env

    def run(self, args, cache: bool):
        env = dict(self.env)
        if cache:
            env["CAPACITY_CACHE_DIR"] = self.cache_dir
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "symcap", *args]
        else:
            path = os.path.join(self.spans_dir, f"child-{len(self.spans_files)}.bin")
            self.spans_files.append(path)
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), path, *args]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=120)


def _cli_source(inp: Inputs, family: str, kmax: int):
    """(JSON spec, volume, capacities c_0..c_kmax) of a fresh source.

    The source is also built through the public constructors, which
    validate it; the CLI itself gets only the JSON text.
    """
    from symcap import domains as D
    if family == "ball_union":
        sizes = inp.distinct(3, F(1, 2), 2)
        D.disjoint_union(*[D.ball(a) for a in sizes])
        spec = {"type": "disjoint_union", "parts": [{"type": "ball", "a": str(a)} for a in sizes]}
        return spec, sum(a * a / 2 for a in sizes), lambda: oracle.union(
            [oracle.ball(a, kmax) for a in sizes])
    axes = inp.distinct(4, F(1, 2), 2)
    pairs = list(zip(axes[::2], axes[1::2]))
    D.disjoint_union(*[D.ellipsoid(a, b) for a, b in pairs])
    spec = {"type": "disjoint_union",
            "parts": [{"type": "ellipsoid", "a": str(a), "b": str(b)} for a, b in pairs]}
    return spec, sum(a * b / 2 for a, b in pairs), lambda: oracle.union(
        [oracle.ellipsoid(a, b, kmax) for a, b in pairs])


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cli_group(inp: Inputs, cli: Cli, family: str, kmax: int, ladder) -> list:
    inp.next_op()
    spec, vol, src_seq = _cli_source(inp, family, kmax)
    src_text = _dumps(spec)
    src_values = src_seq()
    # smallest ball scale that no c_k with 1 <= k <= kmax obstructs
    threshold = max(v / ((math.isqrt(8 * k + 1) - 1) // 2)
                    for k, v in enumerate(src_values) if k >= 1)
    ops = []
    for f in ladder:
        c = inp.frac(threshold * f, threshold * f * F(101, 100))
        tgt_text = _dumps({"type": "ball", "a": str(c)})
        expected = _expected_report(src_values, oracle.ball(c, kmax), kmax, vol <= c * c / 2)
        args = ["obstruct", "--source", src_text, "--target", tgt_text,
                "--kmax", str(kmax), "--format", "json"]
        ops.append(_cli_op(f"obstruct {family} into B({c}) K={kmax}", cli, args, True,
                           _obstruct_check(expected)))
    seen: dict = {}
    args = ["sequence", "-d", src_text, "--kmax", str(kmax), "--format", "json"]
    for cache in (True, False):
        ops.append(_cli_op(f"sequence {family} K={kmax} {'cached' if cache else 'uncached'}",
                           cli, args, cache, _sequence_check(src_values, seen, cache)))
    return ops


def _obstruct_check(expected):
    obstructed, first, cs, ct, kmax, vol_ok, rows = expected

    def parse(out):
        def r(v):
            return None if v is None else str(v)
        want = {"verdict": "obstructed" if obstructed else "no_obstruction_up_to",
                "first_k": first, "c_source": r(cs), "c_target": r(ct), "k_max": kmax,
                "volume_ok": vol_ok, "table": [[k, str(a), str(b)] for k, a, b in rows]}
        return None if json.loads(out) == want else "report differs from the closed form"

    return parse


def _sequence_check(values, seen, cache):
    def parse(out):
        if cache:
            seen["cached"] = out
        elif out != seen.get("cached"):
            return "stdout differs with and without the cache"
        got = [(row["k"], row["c"]) for row in json.loads(out)]
        want = [(k, str(v)) for k, v in enumerate(values)]
        return None if got == want else "values differ from the closed form"

    return parse


def _cli_op(label, cli: Cli, args, cache, parse) -> Op:
    def call():
        return cli.run(args, cache)

    def check(proc):
        out = proc.stdout.decode()
        if proc.returncode != 0:
            return out, f"{label}: exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
        err = parse(out)
        return out, None if err is None else f"{label}: {err}"

    return Op(label, call, check)


# --- entry ------------------------------------------------------------------

def build(workload: str, seed: int, seconds: float, smoke: bool, cli: Cli | None = None) -> list:
    """The operations of one pass, inputs generated and validated."""
    inp = Inputs(seed)
    if workload == "formulas":
        recipe = FORMULAS_SMOKE if smoke else FORMULAS
        n = len(recipe) if smoke else _n_ops(workload, seconds, len(recipe))
        return _recipe_ops(inp, recipe, n, _formulas_op)
    if workload == "toric-search":
        recipe = TORIC_SMOKE if smoke else TORIC
        n = len(recipe) if smoke else _n_ops(workload, seconds, len(recipe))
        return _recipe_ops(inp, recipe, n, _toric_op)
    if workload == "cli-scan":
        sources = CLI_SOURCES_SMOKE if smoke else CLI_SOURCES
        ladder = LADDER_SMOKE if smoke else LADDER
        group = len(ladder) + 2
        n = 2 * group if smoke else _n_ops(workload, seconds, group)
        ops: list = []
        for step in range(n // group):
            family, kmax = sources[step % len(sources)]
            ops.extend(_cli_group(inp, cli, family, kmax, ladder))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
