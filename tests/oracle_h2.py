"""Independent brute-force oracle for second cohomology dimensions.

Deliberately naive: the full constraint matrix is assembled by explicit
triple loops over all basis triples (no sparsity, no row dropping) and the
nullity is found by a plain dense Gaussian elimination written here from
scratch.  Nothing in this file shares code with the package's solver beyond
scalar arithmetic.
"""

from extraspecial.algebra import IdentityKind


def naive_rank(field, rows):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def naive_constraint_row(a, theory, i, j, k):
    """The dense cocycle constraint row of `theory` on the basis triple (i, j, k)."""
    n = a.dim

    def c(i, j, k):
        return a.structure_constant(i, j, k)

    row = [a.field.zero] * (n * n)
    if theory is IdentityKind.ASSOCIATIVE:
        # f(x_i x_j, x_k) - f(x_i, x_j x_k)
        for m in range(n):
            row[m * n + k] = row[m * n + k] + c(i, j, m)
            row[i * n + m] = row[i * n + m] - c(j, k, m)
    elif theory is IdentityKind.LEIBNIZ_LEFT:
        # f(x_i, x_j x_k) - f(x_i x_j, x_k) + f(x_i x_k, x_j)
        for m in range(n):
            row[i * n + m] = row[i * n + m] + c(j, k, m)
            row[m * n + k] = row[m * n + k] - c(i, j, m)
            row[m * n + j] = row[m * n + j] + c(i, k, m)
    elif theory is IdentityKind.LEIBNIZ_RIGHT:
        # f(x_i x_j, x_k) - f(x_i, x_j x_k) + f(x_j, x_i x_k)
        for m in range(n):
            row[m * n + k] = row[m * n + k] + c(i, j, m)
            row[i * n + m] = row[i * n + m] - c(j, k, m)
            row[j * n + m] = row[j * n + m] + c(i, k, m)
    else:
        raise ValueError(theory)
    return row


def naive_h2_dim(a, theory):
    """Multiplier dimension via the full dense triple-loop constraint matrix."""
    n = a.dim
    field = a.field
    zero = field.zero

    def c(i, j, k):
        return a.structure_constant(i, j, k)

    rows = [naive_constraint_row(a, theory, i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    z2_dim = n * n - naive_rank(field, rows)
    boundary_rows = []
    for k in range(n):
        row = [zero] * (n * n)
        for i in range(n):
            for j in range(n):
                row[i * n + j] = c(i, j, k)
        boundary_rows.append(row)
    b2_dim = naive_rank(field, boundary_rows)
    return z2_dim - b2_dim
