"""Independent brute-force oracle for the identity checks.

Deliberately naive: every identity is written out by hand as products of
dense coordinate vectors and evaluated on all dim^3 basis triples in
lexicographic order, with no sparsity and no shared term table.  Nothing in
this file shares code with the package beyond scalar arithmetic and reading
the structure tensors.
"""


def _left(table, vec, k):
    """(vec) * x_k, with vec in coordinates."""
    out = [table.field.zero] * table.dim
    for m, x in enumerate(vec):
        if x:
            for t, y in enumerate(table.product(m, k)):
                out[t] = out[t] + x * y
    return out


def _right(table, i, vec):
    """x_i * (vec), with vec in coordinates."""
    out = [table.field.zero] * table.dim
    for m, x in enumerate(vec):
        if x:
            for t, y in enumerate(table.product(i, m)):
                out[t] = out[t] + x * y
    return out


def _defect(a, kind, i, j, k):
    ij, jk, ik = a.product(i, j), a.product(j, k), a.product(i, k)
    if kind == "assoc":
        # (x_i x_j) x_k - x_i (x_j x_k)
        return [p - q for p, q in zip(_left(a, ij, k), _right(a, i, jk))]
    if kind == "leibniz-left":
        # x_i (x_j x_k) - (x_i x_j) x_k + (x_i x_k) x_j
        terms = zip(_right(a, i, jk), _left(a, ij, k), _left(a, ik, j))
    elif kind == "leibniz-right":
        # (x_i x_j) x_k - x_i (x_j x_k) + x_j (x_i x_k)
        terms = zip(_left(a, ij, k), _right(a, i, jk), _right(a, j, ik))
    else:
        raise ValueError(kind)
    return [p - q + r for p, q, r in terms]


def naive_identity_violation(a, kind):
    """First basis triple (i, j, k) on which identity `kind` fails, or None.

    `kind` is the identity's name: "assoc", "leibniz-left" or "leibniz-right".
    """
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if any(_defect(a, kind, i, j, k)):
                    return (i, j, k)
    return None


#: The five dialgebra axioms, (label, lhs, rhs) with lhs(x, y, z) and
#: rhs(x, y, z) written out for the left table L and right table R.
_AXIOMS = (
    ("(x-|y)-|z = x-|(y-|z)",
     lambda L, R, i, j, k: _left(L, L.product(i, j), k),
     lambda L, R, i, j, k: _right(L, i, L.product(j, k))),
    ("(x-|y)-|z = x-|(y|-z)",
     lambda L, R, i, j, k: _left(L, L.product(i, j), k),
     lambda L, R, i, j, k: _right(L, i, R.product(j, k))),
    ("(x|-y)-|z = x|-(y-|z)",
     lambda L, R, i, j, k: _left(L, R.product(i, j), k),
     lambda L, R, i, j, k: _right(R, i, L.product(j, k))),
    ("(x-|y)|-z = x|-(y|-z)",
     lambda L, R, i, j, k: _left(R, L.product(i, j), k),
     lambda L, R, i, j, k: _right(R, i, R.product(j, k))),
    ("(x|-y)|-z = x|-(y|-z)",
     lambda L, R, i, j, k: _left(R, R.product(i, j), k),
     lambda L, R, i, j, k: _right(R, i, R.product(j, k))),
)


def naive_diassociativity_violation(d):
    """First failing (axiom label, basis triple) in axiom order, or None."""
    n = d.dim
    for label, lhs, rhs in _AXIOMS:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    args = (d.left, d.right, i, j, k)
                    if any(p - q for p, q in zip(lhs(*args), rhs(*args))):
                        return (label, (i, j, k))
    return None
