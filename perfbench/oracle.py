"""Closed forms the benchmark checks symcap's answers against.

Written from the formulas, not from symcap's code, and kept to integer
arithmetic over a common denominator so the checks stay cheap:

  ball       c_k(B(a)) = d*a, d the largest integer with d^2+d <= 2k
  ellipsoid  c_k(E(a,b)) = the (k+1)-th smallest of {m*a+n*b : m,n >= 0}
  polydisk   c_k(P(a,b)) = min{a*m+b*n : (m+1)(n+1) >= k+1}
  union      c_k(X_1 u ... u X_m) = max over k_1+...+k_m = k of sum c_{k_i}(X_i)
  concave    a concave toric domain has the capacities of the union of the
             balls of its weight expansion
  convex     c_k = min over l of c_{k+l}(B(h)) - c_l(corner balls), with
             B(h) the smallest triangle around the domain (convex())
"""

from __future__ import annotations

import math
from fractions import Fraction


def _lcm(*dens) -> int:
    out = 1
    for d in dens:
        out = out * d // math.gcd(out, d)
    return out


def ball(a: Fraction, kmax: int) -> list:
    return [((math.isqrt(8 * k + 1) - 1) // 2) * a for k in range(kmax + 1)]


def ellipsoid(a: Fraction, b: Fraction, kmax: int) -> list:
    # a pair with m+n > kmax sits above (m+1)(n+1) > kmax+1 smaller-or-equal
    # pairs, so the kmax+1 smallest actions all come from m+n <= kmax
    scale = _lcm(a.denominator, b.denominator)
    ia, ib = int(a * scale), int(b * scale)
    actions = sorted(m * ia + n * ib for m in range(kmax + 1) for n in range(kmax + 1 - m))
    return [Fraction(v, scale) for v in actions[:kmax + 1]]


def polydisk(a: Fraction, b: Fraction, kmax: int) -> list:
    scale = _lcm(a.denominator, b.denominator)
    ia, ib = int(a * scale), int(b * scale)
    out = []
    for k in range(kmax + 1):
        out.append(Fraction(min(ia * m + ib * (-(-(k + 1) // (m + 1)) - 1)
                                for m in range(k + 1)), scale))
    return out


def union(seqs) -> list:
    """Max-plus convolution of the parts' sequences (all the same length)."""
    scale = _lcm(*(v.denominator for s in seqs for v in s))
    rows = [[int(v * scale) for v in s] for s in seqs]
    f = rows[0]
    for g in rows[1:]:
        f = [max(f[j - t] + g[t] for t in range(j + 1)) for j in range(len(f))]
    return [Fraction(v, scale) for v in f]


def weight_expansion(chain) -> list:
    """Ball sizes of a concave region below the chain (0,b) ... (a,0).

    Peel the largest triangle {x+y <= r} inside the region, shear the two
    leftover corners back onto the axes, repeat.
    """
    out = []
    todo = [tuple(chain)]
    while todo:
        piece = todo.pop()
        g = [x + y for x, y in piece]
        r = min(g)
        out.append(r)
        first, last = g.index(r), len(g) - 1 - g[::-1].index(r)
        if first > 0:
            todo.append(tuple((x, x + y - r) for x, y in piece[:first + 1]))
        if last < len(piece) - 1:
            todo.append(tuple((x + y - r, y) for x, y in piece[last:]))
    return sorted(out, reverse=True)


def concave(chain, kmax: int) -> list:
    return union([ball(w, kmax) for w in weight_expansion(chain)])


def convex(chain, kmax: int, shifts: int = 100) -> list:
    """Capacities of a convex toric domain from its outer chain (0,b) ... (a,0).

    The domain is the triangle {x+y <= h} minus two corner regions; sheared
    onto the axes, each corner is concave and has a weight expansion, and
    c_k = min over l of c_{k+l}(B(h)) - c_l(union of the corner balls).
    The minimum is taken over l <= shifts.
    """
    g = [x + y for x, y in chain]
    h = max(g)
    first, last = g.index(h), len(g) - 1 - g[::-1].index(h)
    corners = []
    if first > 0:
        corners += weight_expansion([(x, h - x - y) for x, y in chain[:first + 1]])
    if last < len(chain) - 1:
        corners += weight_expansion([(h - x - y, y) for x, y in chain[last:]])
    if not corners:
        return ball(h, kmax)
    head = ball(h, kmax + shifts)
    excised = union([ball(w, shifts) for w in corners])
    return [min(head[k + l] - excised[l] for l in range(shifts + 1)) for k in range(kmax + 1)]


def first_violation(src: list, tgt: list):
    """Index of the first k with src[k] > tgt[k], or None."""
    return next((k for k, (s, t) in enumerate(zip(src, tgt)) if s > t), None)
