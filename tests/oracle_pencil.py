"""Fraction-free elimination over F[t], kept as an oracle for `linalg.pencil_minor`.

`pencil_minor` packs each pencil entry a + tb into one integer a + b 2^s and
eliminates on integers.  This route keeps a polynomial in every entry: an
ascending list of ints, reduced mod p over GF(p) and over Z after clearing
each row's denominators over Q.  Bareiss's fraction-free elimination keeps
every entry a minor of the pencil, so each division by the previous pivot
is exact.  The pivot is the entry of lowest degree in its column, the lowest
row on ties, and the last pivot is the minor on the pivot rows and columns.
"""

from itertools import zip_longest
from math import lcm

from extraspecial.scalars import Fp


def _trim(f, p):
    f = [x % p for x in f] if p else list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return _trim(out, p)


def _exact_div(f, g, p):
    """f / g over GF(p)[t], or over Z[t] when g divides f exactly."""
    rem, d = list(f), len(g) - 1
    inv = pow(g[-1], -1, p) if p else None
    quot = [0] * max(0, len(rem) - d)
    for shift in range(len(rem) - 1 - d, -1, -1):
        c = rem[shift + d] * inv % p if p else rem[shift + d] // g[-1]
        quot[shift] = c
        for i, y in enumerate(g):
            rem[shift + i] -= c * y
    assert not _trim(rem, p), "a Bareiss division left a remainder"
    return _trim(quot, p)


def _as_int(x, den):
    if x is None:
        return 0
    return x.value if isinstance(x, Fp) else x.numerator * (den // x.denominator)


def oracle_pencil_minor(field, a_rows, b_rows):
    """(normal rank r of A + tB, one nonzero r x r minor as field scalars)."""
    p = field.p
    rows = []
    for a, b in zip(a_rows, b_rows):
        den = 1 if p else lcm(*(x.denominator for x in (*a.values(), *b.values())))
        row = {j: _trim([_as_int(a.get(j), den), _as_int(b.get(j), den)], p) for j in a.keys() | b.keys()}
        rows.append({j: f for j, f in row.items() if f})
    n = len(rows)
    rank, prev = 0, [1]
    for c in range(n):
        live = [i for i in range(rank, n) if c in rows[i]]
        if not live:
            continue
        top = min(live, key=lambda i: len(rows[i][c]))
        rows[rank], rows[top] = rows[top], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row.pop(c)
        for i in range(rank + 1, n):
            row = rows[i]
            lead = row.pop(c, None)
            new = {}
            for j in row.keys() | pivot_row.keys():
                x = _mul(pivot, row.get(j, ()), p)
                if lead:
                    y = _mul(lead, pivot_row.get(j, ()), p)
                    x = _trim([u - v for u, v in zip_longest(x, y, fillvalue=0)], p)
                if x:
                    new[j] = _exact_div(x, prev, p)
            rows[i] = new
        prev = pivot
        rank += 1
    return rank, [field.coerce(x) for x in prev]
