"""Three roads to the same ellipsoid capacities.

An ellipsoid E(a,b) is simultaneously a convex and a concave toric
domain, and its capacity sequence is also the sorted multiset
{m*a + n*b}.  The three roads are the convex path optimum,
min_convex(d, k), the concave one, max_concave(d, k), each a
PathOptimum whose value is c_k, and the closed form,
capacity_sequence(ellipsoid(a, b), kmax), whose values are the actions
m*a + n*b and whose witnesses are the pairs (m, n).  Running all three
side by side is the strongest internal consistency check the library
has.
"""

from fractions import Fraction

from symcap import capacity_sequence, ellipsoid, max_concave, min_convex


def table(a, b, kmax):
    d = ellipsoid(a, b)
    print(f"E({a},{b})")
    print(f"  {'k':>3} {'convex':>8} {'concave':>8} {'spectrum':>9}  (m,n)")
    for k, e in enumerate(capacity_sequence(d, kmax)):
        cv = min_convex(d, k).value
        cc = max_concave(d, k).value
        m, n = e.witness
        mark = "" if cv == cc == e.value else "   <-- MISMATCH"
        print(f"  {k:>3} {str(cv):>8} {str(cc):>8} {str(e.value):>9}  "
              f"({m},{n}){mark}")
    print()


def main():
    table(1, 2, 12)
    table(1, Fraction(3, 2), 12)


if __name__ == "__main__":
    main()
