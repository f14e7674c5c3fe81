"""Second cohomology with trivial coefficients, covers, Z*, and capability.

A 2-cocycle is a bilinear map f on the algebra, stored as the length-n^2
coordinate vector (f(x_i, x_j))_{ij}.  The cocycle condition is the
linearization of the defining identity of the chosen theory: the terms of
`algebra.IDENTITY_TERMS` with their outer product replaced by f, one
constraint row per basis triple.  Coboundaries are the maps g(x_i x_j) for
linear functionals g.  The quotient dimension is the Schur multiplier
dimension, and a cover is the central extension built from a complement of
the coboundaries inside the cocycles.

The rows are read only up to their rank.  Every row lies in the columns
f(x_m, x_r) and f(x_r, x_m), m in M, the union of the product supports; once
|M x A u A x M| pivots are found they span every unread row.  Their int
echelon store R is what a `CocycleSpace` keeps: h2 = n^2 - rank R - dim b2,
the coboundary audit is R b2^T = 0, and z2 = ker R, n^2 - rank R vectors,
is built only when read; `cover` builds only the part outside b2.  The rows
come brackets of adjacent factors first, as the Leibniz term on the outer pair
mostly repeats them.  The order cannot change R: reduced, with primitive rows,
R is unique for its row space, the touchable columns if the bound is reached
and all rows if not.

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

Two Leibniz orientations are implemented.  The orientation whose multiplier
dimensions match the published low-dimensional Leibniz values is
LEIBNIZ_LEFT (x(yz) = (xy)z - (xz)y); the test suite re-derives that choice
empirically rather than trusting this constant.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import lcm
from operator import itemgetter

from .algebra import (
    IDENTITY_TERMS, Algebra, IdentityKind, center, check_identity, derived_ideal,
)
from .errors import IdentityViolated, InternalCheckFailure, NotAssociative, StemFailure
from .linalg import Subspace, _clear_pivots, _sparse_row, kernel_basis, kernel_of, reduce_ints

#: The Leibniz orientation that reproduces the published multiplier
#: dimensions (J2 -> 4, H2(-1) -> 5); fixed empirically by the test suite.
VALIDATED_LEIBNIZ = IdentityKind.LEIBNIZ_LEFT


class CocycleSpace(namedtuple("CocycleSpace", "algebra_dim constraints b2 h2_dim")):
    """R (`constraints`), the int echelon store of the constraint rows, column c held as n^2 - 1 - c;
    the coboundaries b2 (a `Subspace`); h2 = n^2 - rank R - dim b2.  z2 = ker R is built on first read."""

    @cached_property
    def z2(self) -> Subspace:
        return kernel_of(self.b2.field, self.algebra_dim ** 2, self.constraints)


class CoverExtension(namedtuple("CoverExtension", "total base_dim kernel")):
    """A maximal stem extension: total `Algebra`, base size, central kernel (a `Subspace`)."""

    __slots__ = ()

    def project(self, vec) -> tuple:
        """Apply the defining projection (drop kernel coordinates)."""
        return tuple(vec[: self.base_dim])


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

    The algebra must satisfy the identity of the theory, otherwise the
    "cocycle condition" would not even be closed under the products it
    references.  The coboundaries are audited as R b2^T = 0, that is z2 >= b2.
    """
    if not check_identity(a, theory):
        raise IdentityViolated(f"algebra does not satisfy {theory.value}")
    n, p, nestings = a.dim, a.field.p, len({nesting for _, nesting, _ in IDENTITY_TERMS[theory]})
    # the columns a row can touch: |M x A u A x M|, M the union of the product supports
    d = len({m for w in a._table.values() for m in w})
    last, bound = n * n - 1, d * (nestings * n - (nestings - 1) * d)
    # R holds column c as last - c, as `kernel_of` reads a store
    r = reduce_ints({}, ({last - c: x for c, x in row.items()} for row in _cocycle_rows(a, theory)), p, bound)
    # row k is the coboundary of the k-th dual functional: f(x_i, x_j) = c[i][j][k]
    coboundary_rows = {}
    for (i, j), w in a._table.items():
        for k, x in w.items():
            coboundary_rows.setdefault(k, {})[i * n + j] = x
    for g in coboundary_rows.values():  # R b2^T = 0, on the rows that span b2
        dots = (sum(x * g.get(last - c, 0) for c, x in row.items()) for row in r.values())
        if any(dot % p if p else dot for dot in dots):
            raise InternalCheckFailure("a coboundary failed the cocycle condition")
    b2 = Subspace._span(a.field, n * n, coboundary_rows.values())
    return CocycleSpace(n, r, b2, n * n - len(r) - b2.dim)


def associative_cocycle_space(a: Algebra) -> CocycleSpace:
    """The associative `cocycle_space`, refusing other algebras with `NotAssociative`."""
    try:
        return cocycle_space(a, IdentityKind.ASSOCIATIVE)
    except IdentityViolated:
        raise NotAssociative("covers are defined for associative algebras") from None


def multiplier_dim(a: Algebra, theory: IdentityKind) -> int:
    """Dimension of the Schur multiplier in the chosen theory."""
    return cocycle_space(a, theory).h2_dim


def central_extension_by_cocycles(a: Algebra, cocycles) -> Algebra:
    """Total algebra on A + F^m with product (u,s)(v,t) = (uv, f_1(u,v), ...).

    Each cocycle is a sparse row {i * dim + j: f(x_i, x_j)} of a flattened
    bilinear map.  The new coordinates multiply to zero on both sides, so
    they are always central.
    """
    rows, den = a.field.ints([_sparse_row(a.dim * a.dim, f) for f in cocycles])
    return _extension(a, rows, den)


def _extension(a: Algebra, rows: list, den: int) -> Algebra:
    """`central_extension_by_cocycles` of int cocycle rows over `den`, their least common
    denominator (1 over GF(p)), built as its canonical int table."""
    n, total_den = a.dim, lcm(a._den, den)
    table = {ij: {k: x * (total_den // a._den) for k, x in row.items()} for ij, row in a._table.items()}
    for l, f in enumerate(rows):
        for c, x in f.items():
            table.setdefault(divmod(c, n), {})[n + l] = x * (total_den // den)
    names = [*a.basis_names, *(f"m{l + 1}" for l in range(len(rows)))]
    return Algebra._canonical(a.field, n + len(rows), dict(sorted(table.items())), total_den, names)


def cover(a: Algebra) -> CoverExtension:
    """Maximal stem extension of an associative algebra.

    The extension is built from a deterministic choice of cocycles spanning
    a complement of the coboundaries: the z2 basis rows, read off R, whose
    pivot is not a b2 pivot.  Covers are unique up to isomorphism,
    so the echelon choice is only a normalization.  The stem condition
    (kernel inside center and derived ideal of the total algebra) is
    checked, not assumed; a failure raises `StemFailure`.
    """
    cs = associative_cocycle_space(a)
    n, m = a.dim, cs.h2_dim
    complement = kernel_of(a.field, n * n, cs.constraints, skip=cs.b2._rows)._rows
    if len(complement) != m:
        raise InternalCheckFailure("echelon complement has the wrong dimension")
    # a primitive row over Q is its scalar row, 1 at the pivot, times its lead; over GF(p) leads are 1
    den = lcm(*(f[c] for c, f in complement.items()))
    rows = [{c: x * (den // f[pc]) for c, x in f.items()} for pc, f in complement.items()]
    total = _extension(a, rows, den)
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
    z2 nor a free presentation is built.
    """
    return cocycle_z_star(a, associative_cocycle_space(a))


def cocycle_z_star(a: Algebra, cs: CocycleSpace, z=None) -> Subspace:
    """Z* of `a` read from its associative cocycle space `cs`, as `z_star` does: the u for which,
    for every j, f -> f(u, x_j) and f -> f(x_j, u) reduce to 0 modulo R; `z` is the center, if known."""
    n, p, r = a.dim, a.field.p, cs.constraints
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
    zs = kernel_basis(a.field, n, rows)
    if not (center(a) if z is None else z).contains_subspace(zs):
        raise InternalCheckFailure("Z* escaped the center; cocycle reduction bug")
    return zs


def is_capable(a: Algebra) -> bool:
    """True iff the algebra is a central quotient K/Z(K), i.e. Z* = 0."""
    return z_star(a).dim == 0


def is_unicentral(a: Algebra) -> bool:
    """True iff Z* equals the center."""
    return z_star(a) == center(a)
