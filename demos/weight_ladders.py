"""Peel a polygon into balls and watch the continued fraction fall out."""

from fractions import Fraction

from symcap import (
    ball,
    concave_toric,
    convex_toric,
    ellipsoid,
    negative_weight_sequence,
    polydisk,
    weight_expansion,
)


def show_expansion(label, omega):
    ws = weight_expansion(omega)
    total = sum(w * w for w in ws) / 2
    print(f"{label}: weights {tuple(str(w) for w in ws)}  "
          f"sum a_i^2/2 = {total} = area {omega.volume()}")


def show_negative(label, omega):
    d = negative_weight_sequence(omega)
    print(f"{label}: head {d.head}, negatives {tuple(str(w) for w in d.negatives)}")


def main():
    # triangles with legs 1 and b: the weights replay the subtractive
    # euclidean algorithm on (1, b)
    for b in (1, 2, Fraction(3, 2), Fraction(5, 2), Fraction(8, 5)):
        show_expansion(f"E(1,{b})", ellipsoid(1, b))
    show_expansion("staircase (0,3)-(1,1)-(3,0)",
                   concave_toric([(0, 0), (3, 0), (1, 1), (0, 3)]))
    print()
    print("convex domains carve out of a ball instead:")
    show_negative("B(1)      ", ball(1))
    show_negative("P(1,1)    ", polydisk(1, 1))
    show_negative("P(1,2)    ", polydisk(1, 2))
    show_negative("pentagon  ",
                  convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]))


if __name__ == "__main__":
    main()
