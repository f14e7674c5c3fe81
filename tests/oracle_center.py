"""A dense oracle for `algebra.center`, the two-sided annihilator.

`center` reads its constraint rows only at the pivots of A^2.  This oracle
reads every coordinate of every product: for each j and k the rows
v -> (v x_j)_k and v -> (x_j v)_k, 2 n^2 dense rows in all, solved by a plain
Gauss-Jordan elimination written here from scratch.  No echelon basis of A^2
is built.  Only the answer goes through `Subspace`, which puts it in the
canonical basis that `center` returns, so the two compare with `==`.
"""

from extraspecial.linalg import Subspace


def naive_center(a):
    """{v : v x_j = x_j v = 0 for every j} of `a`, from all 2 n^2 coordinate rows."""
    n, field = a.dim, a.field
    c = {(i, j): a.product(i, j) for i in range(n) for j in range(n)}
    rows = [[c[i, j][k] for i in range(n)] for j in range(n) for k in range(n)]  # (v x_j)_k
    rows += [[c[j, i][k] for i in range(n)] for j in range(n) for k in range(n)]  # (x_j v)_k
    pivots = []
    for col in range(n):
        hit = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        top = len(pivots)
        rows[top], rows[hit] = rows[hit], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    kernel = []
    for free in (col for col in range(n) if col not in pivots):
        v = [field.zero] * n
        v[free] = field.one
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        kernel.append(v)
    return Subspace(field, n, kernel)
