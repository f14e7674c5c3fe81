"""The scalar root check, kept as an oracle for `linalg.roots_in_field`.

`roots_in_field` tests each candidate root u/v on the integer polynomial and
divides it out by v t - u.  This is the check it replaced: a Horner
evaluation (`poly_eval`) and a synthetic division by t - r (`deflate`) on
field scalars, as often as the candidate is a root.  Both take their
candidates from the same `_roots_mod` / `_rational_roots` search, so the
two must agree on the roots, their order and multiplicities, and the
rootless cofactor.
"""

from fractions import Fraction
from math import lcm

from extraspecial.linalg import _rational_roots, _roots_mod, poly_eval, poly_trim
from extraspecial.scalars import Fp


def poly_degree(p) -> int:
    return len(p) - 1 if p else -1


def deflate(field, p, root):
    """Divide p by (t - root) via synthetic division; root must be exact."""
    n = poly_degree(p)
    out = [field.zero] * n
    acc = p[n]
    out[n - 1] = acc
    for k in range(n - 1, 0, -1):
        acc = p[k] + root * acc
        out[k - 1] = acc
    return poly_trim(out)


def oracle_roots_in_field(field, poly):
    p = poly_trim(list(poly))
    if poly_degree(p) <= 0:
        return [], p
    if field.p:
        candidates = [Fp(r, field.p) for r in sorted(_roots_mod([c.value for c in p], field.p))]
    else:
        den = lcm(*(c.denominator for c in p))
        ints = [c.numerator * (den // c.denominator) for c in p]
        candidates = [Fraction(u, v) for u, v in sorted(_rational_roots(ints))]
    roots = []
    for r in candidates:
        count = 0
        while poly_degree(p) > 0 and not poly_eval(field, p, r):
            p = deflate(field, p, r)
            count += 1
        if count:
            roots.append((r, count))
    return roots, p
