"""Print the optimal lattice paths behind a few capacities.

The witness path for c_k is a short combinatorial certificate: its length
is the capacity and its lattice-point count meets the constraint.  The
ASCII sketch marks path vertices with '*' on the integer grid.
"""

from symcap import (
    ball,
    convex_toric,
    min_convex,
    path_vertices,
    polydisk,
)


def sketch(path):
    if not path.edges:
        return ["(empty path: the region is just the origin)"]
    verts = [(int(x), int(y)) for x, y in path_vertices(path.edges, path.start_y)]
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    w, h = max(max(xs), 1), max(max(ys), 1)
    rows = []
    for y in range(h, -1, -1):
        row = "".join("*" if (x, y) in verts else "." for x in range(w + 1))
        rows.append(f"  {y:>2} {row}")
    rows.append("     " + "".join(str(x % 10) for x in range(w + 1)))
    return rows


def show(label, domain, ks):
    for k in ks:
        opt = min_convex(domain, k)
        print(f"{label}, k={k}: c_k = {opt.value}, "
              f"lattice points = {opt.count_constraint}, "
              f"edges = {list(opt.witness.edges)}")
        for line in sketch(opt.witness):
            print(line)
        print()


def main():
    show("T(1)", ball(1), [1, 3, 6])
    show("square", polydisk(1, 1), [2, 5])
    show("pentagon", convex_toric([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]), [4])


if __name__ == "__main__":
    main()
