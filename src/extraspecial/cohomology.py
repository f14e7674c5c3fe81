"""Second cohomology with trivial coefficients, covers, Z*, and capability.

A 2-cocycle is a bilinear map f on the algebra, stored as the length-n^2
coordinate vector (f(x_i, x_j))_{ij}.  The cocycle condition is the
linearization of the defining identity of the chosen theory: the terms of
`algebra.IDENTITY_TERMS` with their outer product replaced by f, one
constraint row per basis triple.  Coboundaries are the maps g(x_i x_j) for
linear functionals g.  The quotient dimension is the Schur multiplier
dimension, and a cover is the central extension built from a complement of
the coboundaries inside the cocycles.

The rows are read only up to their rank.  Each term of a row brackets a
product, so a row is a functional f -> sum f(u, v) over pairs with u in A^2 or
v in A^2: the rows lie in A^2 (x) A + A (x) A^2, which has dimension d(2n - d),
d = dim A^2, in every basis and for any bilinear product.  Once rank R reaches
d(2n - d), R spans every unread row.  Their int echelon store R is what a
`CocycleSpace` keeps: h2 = n^2 - rank R - d, the coboundary audit is
R b2^T = 0, and z2 = ker R, n^2 - rank R vectors, is never built: `cover`
builds only the part outside b2.  The rows come brackets of adjacent factors
first, as the Leibniz term on the outer pair mostly repeats them.  The order
cannot change R: reduced, with primitive rows, R is unique for its row space,
A^2 (x) A + A (x) A^2 if the bound is reached and that of all rows if not.

b2 is spanned by d rows: the coboundaries g o mu, mu the product, of the
coordinate functionals g at the pivots of A^2's reduced echelon basis.  g o mu
reads g only on A^2, where those d functionals restrict to a basis of (A^2)*,
so their coboundaries are independent and span b2.

The rows are read on any product, and the coboundary audit is the identity
check: no walk of the identity comes first.  Put f = g o mu, g the k-th
coordinate functional.  The constraint row of a basis triple t, applied to f,
is coordinate k of the identity's defect at t.  The defect lies in A^2, so it
is zero exactly when its coordinates at A^2's pivots are, and the g o mu at
those pivots span b2.  R spans every constraint row: the bounded read stops
only once R spans A^2 (x) A + A (x) A^2, which holds every row, and otherwise
reads every row.  So R b2^T = 0 holds exactly when the identity does.  A
failed audit is told apart by `identity_violation`: a violating triple means
the input breaks the identity, none means a bug.

Z* (Beyl, Felgner & Schmid, J. Algebra 1979), the cover's center projected
to A, needs no cover: the cover's product is A's product plus the complement
cocycles f_l in central new coordinates, so (u, s) is central iff u
annihilates A and f_l(u, x_j) = f_l(x_j, u) = 0 for all l and j.  The
coboundaries g(x_i x_j) in z2 already force u x_j = x_j u = 0, so Z* is the
set of u on which f(u, x_j) and f(x_j, u) vanish for every f in z2.  A
functional vanishes on z2 = ker R exactly when it reduces to 0 modulo R, so
Z* is one kernel in dim A unknowns whose rows are the remainders of
f -> f(u, x_j) and f -> f(x_j, u) for each j, and z2 is never built.  A
column that no row of R touches is its own remainder: it forces its u_i = 0.

A read that reaches its bound needs no remainder: Z* = A^2.  R then spans
A^2 (x) A + A (x) A^2, so z2 = ker R is exactly the forms that vanish
whenever either argument lies in A^2, the forms pulled back from
A/A^2 x A/A^2.  Each vanishes on A^2, so A^2 lies in Z*.  For u outside A^2
take phi = 0 on A^2 with phi(u) = 1: f(x, y) = phi(x) phi(y) is in z2 and
f(u, u) = 1, so u is not in Z*.  (If A = A^2, z2 = 0 and Z* = A = A^2; if
d = 0, the bound is 0 and Z* = 0 = A^2.)  Z* lies in the center in theory;
both routes audit it.

Two Leibniz orientations are implemented.  The orientation whose multiplier
dimensions match the published low-dimensional Leibniz values is
LEIBNIZ_LEFT (x(yz) = (xy)z - (xz)y); the test suite re-derives that choice
empirically rather than trusting this constant.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import itemgetter

from .algebra import (
    IDENTITY_TERMS, Algebra, IdentityKind, center, derived_ideal, identity_violation,
)
from .errors import IdentityViolated, InternalCheckFailure, NotAssociative, StemFailure
from .linalg import Subspace, _clear_pivots, kernel_basis, kernel_of, reduce_ints

#: The Leibniz orientation that reproduces the published multiplier
#: dimensions (J2 -> 4, H2(-1) -> 5); fixed empirically by the test suite.
VALIDATED_LEIBNIZ = IdentityKind.LEIBNIZ_LEFT


class CocycleSpace(namedtuple("CocycleSpace", "constraints b2 h2_dim")):
    """R (`constraints`), the int echelon store of the constraint rows, column c held as n^2 - 1 - c;
    the coboundaries b2 (a `Subspace` spanned by the d = dim A^2 coboundaries of the coordinate
    functionals at A^2's pivots); h2 = n^2 - rank R - d.  z2 = ker R is never built."""

    __slots__ = ()


class CoverExtension(namedtuple("CoverExtension", "total base_dim kernel")):
    """A maximal stem extension: total `Algebra`, base size, central kernel (a `Subspace`)."""

    __slots__ = ()


def _cocycle_rows(a: Algebra, theory: IdentityKind):
    """Yield the int constraint rows of the cocycle system, one per basis triple.

    Variables are flattened as f(x_i, x_j) -> i * dim + j.  Each row is the
    theory's identity on one basis triple, every term summed, with its outer
    product replaced by f (the linearization of the identity table), read on
    the algebra's ints: residues mod p over GF(p), zeros dropped.  The
    triples come product by product: each nonzero x_u x_v in each term's
    bracket slot, with every x_r as the third factor, each triple once: the
    terms bracketing adjacent factors first, then the Leibniz term on the outer
    pair, whose rows mostly repeat theirs, so a bounded read stops sooner.
    """
    n, p, table, get, seen, plan, walks = a.dim, a.field.p, a._table, a._table.get, set(), [], ([], [])
    for sign, nesting, (x, y, z) in IDENTITY_TERMS[theory]:
        # (x y) z: x_m in x y gives f(x_m, x_z); x (y z): x_m in y z gives f(x_x, x_m)
        plan.append((sign, x, y, z, 1, n) if nesting == "L" else (sign, y, z, x, n, 1))
        # triple entry s is entry slot[s] of (u, v, r), x_u x_v the bracket and x_r the third factor;
        # a term whose third factor is the middle one brackets the outer pair: it walks second
        slot = (0, 1, 2) if nesting == "L" else (2, 0, 1)
        walks[plan[-1][3] == 1].append(itemgetter(*(slot[(x, y, z).index(s)] for s in range(3))))
    for walk in walks:
        for u, v in table:
            for triple_of in walk:
                for r in range(n):
                    if (t := triple_of((u, v, r))) in seen:
                        continue
                    seen.add(t)
                    row = {}
                    for sign, i, j, k, scale, step in plan:
                        w = get((t[i], t[j]))
                        if w:
                            base = t[k] * scale
                            for m, c in w.items():
                                row[base + m * step] = row.get(base + m * step, 0) + sign * c
                    yield {col: c for col, x in row.items() if (c := x % p if p else x)}


def cocycle_space(a: Algebra, theory: IdentityKind) -> CocycleSpace:
    """Cocycles and coboundaries of the chosen theory, with h2 = z2/b2.

    The rows are read until rank R = d(2n - d), d = dim A^2: each row
    evaluates f at pairs (u, v) with u or v in A^2, so the rows lie in
    A^2 (x) A + A (x) A^2, of that dimension in every basis, and a read that
    reaches it has R spanning every unread row.  Short of it, every row is read.

    b2 is spanned by the d coboundaries g o mu of the coordinate functionals g
    at A^2's pivots, so h2 = n^2 - rank R - d.  The coboundaries are audited as
    R b2^T = 0 on b2's d echelon rows, that is z2 >= b2, and the audit is the
    identity check (see the module docstring): the constraint row of a basis
    triple, applied to the coboundary g o mu of the k-th coordinate g, is
    coordinate k of the identity's defect there, which lies in A^2, and R spans
    every row.  When the audit fails, `identity_violation` tells the two causes
    apart: a violating triple raises `IdentityViolated`, naming the least one,
    and no triple raises `InternalCheckFailure`.
    """
    n, p, pivots = a.dim, a.field.p, derived_ideal(a)._rows
    last, d = n * n - 1, len(pivots)
    # R holds column c as last - c, as `kernel_of` reads a store; every row lies in
    # A^2 (x) A + A (x) A^2, of dimension d(2n - d) in every basis
    r = reduce_ints({}, ({last - c: x for c, x in row.items()} for row in _cocycle_rows(a, theory)), p, d * (2 * n - d))
    # b2 is spanned by the coboundaries f(x_i, x_j) = c[i][j][k] of the coordinate functionals at A^2's pivots
    b2 = Subspace._span(a.field, n * n, ({i * n + j: w[k] for (i, j), w in a._table.items() if k in w} for k in pivots))
    for g in b2._rows.values():  # R b2^T = 0, on b2's echelon rows
        dots = (sum(x * g.get(last - c, 0) for c, x in row.items()) for row in r.values())
        if any(dot % p if p else dot for dot in dots):
            if (triple := identity_violation(a, theory)) is None:
                raise InternalCheckFailure("a coboundary failed the cocycle condition")
            raise IdentityViolated(f"algebra does not satisfy {theory.value} at {triple}")
    return CocycleSpace(r, b2, n * n - len(r) - d)


def associative_cocycle_space(a: Algebra) -> CocycleSpace:
    """The associative `cocycle_space`, refusing other algebras with `NotAssociative`."""
    try:
        return cocycle_space(a, IdentityKind.ASSOCIATIVE)
    except IdentityViolated:
        raise NotAssociative("covers are defined for associative algebras") from None


def multiplier_dim(a: Algebra, theory: IdentityKind) -> int:
    """Dimension of the Schur multiplier in the chosen theory."""
    return cocycle_space(a, theory).h2_dim


def cover(a: Algebra) -> CoverExtension:
    """Maximal stem extension of an associative algebra.

    The extension is built from a deterministic choice of cocycles spanning
    a complement of the coboundaries: the z2 basis rows, read off R, whose
    pivot is not a b2 pivot.  Covers are unique up to isomorphism,
    so the echelon choice is only a normalization.  The total algebra on
    A + F^m has the product (u, s)(v, t) = (uv, f_1(u, v), ..., f_m(u, v)),
    built as its canonical int table.  The stem condition (kernel inside
    center and derived ideal of the total algebra) is checked, not assumed;
    a failure raises `StemFailure`.
    """
    cs = associative_cocycle_space(a)
    n, m = a.dim, cs.h2_dim
    complement = kernel_of(a.field, n * n, cs.constraints, cs.b2._rows)._rows
    if len(complement) != m:
        raise InternalCheckFailure("echelon complement has the wrong dimension")
    # a primitive row over Q is its scalar row, 1 at the pivot, times its lead (over GF(p) leads are 1),
    # so over den, the lcm of the leads and of A's denominator, f_l is row l times den // its lead
    den = lcm(a._den, *(f[c] for c, f in complement.items()))
    table = {ij: {k: x * (den // a._den) for k, x in row.items()} for ij, row in a._table.items()}
    for l, (pc, f) in enumerate(complement.items()):
        for c, x in f.items():
            table.setdefault(divmod(c, n), {})[n + l] = x * (den // f[pc])
    names = [*a.basis_names, *(f"m{l + 1}" for l in range(m))]
    total = Algebra._canonical(a.field, n + m, dict(sorted(table.items())), den, names)
    kernel = Subspace._echelon(a.field, n + m, {n + l: {n + l: 1} for l in range(m)})
    # kernel inside the center: no product involves a kernel coordinate as a
    # factor, which is exactly the two-sided annihilator condition
    for i, j in total._table:
        if i >= n or j >= n:
            raise StemFailure("a kernel coordinate acts nontrivially")
    if not derived_ideal(total).contains_subspace(kernel):
        raise StemFailure("cover kernel escapes the derived ideal")
    return CoverExtension(total, n, kernel)


def z_star(a: Algebra) -> Subspace:
    """Image of the cover's center under the covering projection.

    This is the intersection of the central images over all central
    extensions, read from the associative cocycle space by reduction modulo
    its constraint rows (see the module docstring): neither the cover nor
    z2 nor a free presentation is built.  When the associative read reaches
    its bound d(2n - d), d = dim A^2, z2 is the forms pulled back from
    A/A^2 x A/A^2 and Z* = A^2, with no reduction.
    """
    return cocycle_z_star(a, associative_cocycle_space(a))


def cocycle_z_star(a: Algebra, cs: CocycleSpace) -> Subspace:
    """Z* of `a` read from its associative cocycle space `cs`, as `z_star` does: the u for which,
    for every j, f -> f(u, x_j) and f -> f(x_j, u) reduce to 0 modulo R.

    A read that reaches its bound, rank R = d(2n - d), d = dim A^2, gives Z* = A^2 with no
    reduction: R spans A^2 (x) A + A (x) A^2, so every f in z2 vanishes when either argument is
    in A^2, and for u outside A^2, f = phi (x) phi with phi = 0 on A^2 and phi(u) = 1 has
    f(u, u) = 1.  A read short of it takes the remainders.  Either way Z* is audited to lie in
    the center, a theorem, so a failure means the read is wrong."""
    a2 = derived_ideal(a)
    zs = a2 if len(cs.constraints) == a2.dim * (2 * a.dim - a2.dim) else _reduced_z_star(a, cs.constraints)
    if not center(a).contains_subspace(zs):
        raise InternalCheckFailure("Z* escaped the center; cocycle reduction bug")
    return zs


def _reduced_z_star(a: Algebra, r: dict) -> Subspace:
    """Z* as the kernel of the remainders modulo R of f -> f(u, x_j) and f -> f(x_j, u), each j."""
    n, p = a.dim, a.field.p
    last = n * n - 1  # f(x_i, x_j) is column last - i * n - j of R
    touched = {last - c for row in r.values() for c in row}
    # an untouched column i * n + j is its own remainder, so it forces u_i = 0 and u_j = 0
    live = {i for i in range(n) if all(i * n + j in touched and j * n + i in touched for j in range(n))}
    rows = [{i: 1} for i in range(n) if i not in live]
    for j in range(n) if live else ():
        for columns in ({i: last - i * n - j for i in live}, {i: last - j * n - i for i in live}):
            # the remainder of e_c is its lead in R (1 if c is no pivot) times the true one
            leads = {i: r[c][c] if c in r else 1 for i, c in columns.items()}
            scale, remainder = lcm(*leads.values()), {}
            for i, c in columns.items():
                for f, x in _clear_pivots(r, {c: 1}, p).items():
                    remainder.setdefault(f, {})[i] = x * (scale // leads[i])
            rows += remainder.values()
    return kernel_basis(a.field, n, rows)


def is_capable(a: Algebra) -> bool:
    """True iff the algebra is a central quotient K/Z(K), i.e. Z* = 0."""
    return z_star(a).dim == 0


def is_unicentral(a: Algebra) -> bool:
    """True iff Z* equals the center."""
    return z_star(a) == center(a)
