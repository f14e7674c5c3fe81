"""Structure-constant algebras: products, identity checkers, center, derived ideal.

An `Algebra` is a finite-dimensional vector space with a bilinear product
given by a structure tensor, held sparse: every reader walks the rows
{k: nonzero scalar} of `nonzero_products()`, which keeps the large central
extensions built by the cohomology layer cheap to create and scan.  Dense
vectors appear only at the edges: dense constructor input, `product(i, j)`
(the dense view, built on demand), `basis_vector` and `multiply`.

Each defining identity is written once, as the signed terms of
`IDENTITY_TERMS`, read by the identity walk (on ints: residues over GF(p),
cleared denominators over Q), the cocycle rows and the dialgebra axioms.

The center used throughout is the two-sided annihilator
{z : za = az = 0 for all a} - not the set of commuting elements.  Every
result downstream (extra special recognition, multipliers, capability)
depends on this choice.
"""

from __future__ import annotations

from enum import Enum
from math import lcm

from .errors import DimensionMismatch, FieldMismatch
from .linalg import Subspace, _sparse_row, kernel_basis
from .scalars import Field


class IdentityKind(Enum):
    """Which defining identity a product is measured against (see `IDENTITY_TERMS`)."""

    ASSOCIATIVE = "assoc"
    LEIBNIZ_LEFT = "leibniz-left"
    LEIBNIZ_RIGHT = "leibniz-right"


class Algebra:
    """A finite-dimensional algebra presented by structure constants.

    The structure tensor is held sparse, as {(i, j): {k: nonzero scalar}}
    with the pairs in (i, j) order and each row in increasing k.
    """

    __slots__ = ("field", "dim", "basis_names", "_products")

    def __init__(self, field: Field, dim: int, products, basis_names=None):
        """`products` maps (i, j) pairs to the coordinates of basis products.

        Each value is read by `linalg._sparse_row`, as `Subspace` reads its
        vectors: a sparse row {k: scalar} with every k in range, or a dense
        vector of length `dim`; non-scalars are coerced and zeros dropped.
        Unlisted products are zero.
        """
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.field = field
        self.dim = dim
        if basis_names is None:
            basis_names = [f"e{i + 1}" for i in range(dim)]
        if len(basis_names) != dim:
            raise ValueError("need one basis name per dimension")
        self.basis_names = tuple(basis_names)
        table = {}
        for (i, j), vec in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"product index ({i}, {j}) out of range")
            row = {k: x for k, x in sorted(_sparse_row(field, dim, vec).items()) if x}
            if row:
                table[(i, j)] = row
        self._products = dict(sorted(table.items()))

    @classmethod
    def zero(cls, field: Field, dim: int, basis_names=None) -> "Algebra":
        return cls(field, dim, {}, basis_names)

    def product(self, i: int, j: int) -> tuple:
        """Dense coordinates of (basis i) * (basis j), built on demand."""
        vec = [self.field.zero] * self.dim
        for k, x in self._products.get((i, j), {}).items():
            vec[k] = x
        return tuple(vec)

    def structure_constant(self, i: int, j: int, k: int):
        return self._products.get((i, j), {}).get(k, self.field.zero)

    def nonzero_products(self):
        """Yield (i, j, sparse row) for every nonzero basis product, in (i, j) order.

        The rows are the algebra's own; readers must not mutate them.
        """
        for (i, j), row in self._products.items():
            yield i, j, row

    def same_field(self, other: "Algebra") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"algebras over {self.field} and {other.field}")

    def basis_vector(self, i: int) -> tuple:
        vec = [self.field.zero] * self.dim
        vec[i] = self.field.one
        return tuple(vec)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self._products == other._products
        )

    def __hash__(self):
        rows = tuple((key, tuple(row.items())) for key, row in self._products.items())
        return hash((self.field, self.dim, rows))

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, {len(self._products)} nonzero products)"


def multiply(a: Algebra, u, v) -> tuple:
    """Bilinear extension of the structure tensor: (u . v)."""
    if len(u) != a.dim or len(v) != a.dim:
        raise DimensionMismatch("vectors must match the algebra dimension")
    u = [a.field.coerce(x) for x in u]
    v = [a.field.coerce(x) for x in v]
    out = [a.field.zero] * a.dim
    for i, j, row in a.nonzero_products():
        c = u[i] * v[j]
        if c:
            for k, x in row.items():
                out[k] = out[k] + c * x
    return tuple(out)


#: Each identity as signed bracketed monomials that sum to zero on every
#: basis triple (x_i, x_j, x_k).  A term (sign, nesting, order) is
#: sign * (x_a x_b) x_c for nesting "L" and sign * x_a (x_b x_c) for "R",
#: where `order` picks (a, b, c) by position: (0, 2, 1) is (i, k, j).
IDENTITY_TERMS = {
    # (x_i x_j) x_k - x_i (x_j x_k)
    IdentityKind.ASSOCIATIVE: ((1, "L", (0, 1, 2)), (-1, "R", (0, 1, 2))),
    # x_i (x_j x_k) - (x_i x_j) x_k + (x_i x_k) x_j
    IdentityKind.LEIBNIZ_LEFT: ((1, "R", (0, 1, 2)), (-1, "L", (0, 1, 2)), (1, "L", (0, 2, 1))),
    # (x_i x_j) x_k - x_i (x_j x_k) + x_j (x_i x_k)
    IdentityKind.LEIBNIZ_RIGHT: ((1, "L", (0, 1, 2)), (-1, "R", (0, 1, 2)), (1, "R", (1, 0, 2))),
}


def expand_term(inner: dict, term, partners):
    """Yield (triple, u, v, coef) over the nonzero products of `inner`, a table of `outer_index`.

    coef * outer(x_u, x_v) is the term's value on that basis triple; the
    outer product is left open for the caller to multiply out.  r runs over
    the `partners` of the outer table: only where x_u x_v != 0.
    """
    sign, nesting, order = term
    i_slot, j_slot, k_slot = (order.index(position) for position in range(3))
    for (p, q), w in inner.items():
        for m, x in w.items():
            coef = x if sign > 0 else -x
            for r in partners.get((nesting, m), ()):
                # bracket slots left to right, and the outer factors
                slots, u, v = ((p, q, r), m, r) if nesting == "L" else ((r, p, q), r, m)
                yield (slots[i_slot], slots[j_slot], slots[k_slot]), u, v, coef


def outer_index(*algebras):
    """Yield each algebra's product rows as ints and its `expand_term` partners.

    Kept are the rows a walk reads: x_u x_v with u or v in some product's
    support, or whose own support meets a product's factor.  Over Q an entry
    is D times itself, D the lcm of the denominators kept, so each defect is
    D^2 times the true one; over GF(p) it is its residue.
    """
    p = algebras[0].field.p
    support = set().union(*(row for a in algebras for row in a._products.values()))
    factors = {i for a in algebras for ij in a._products for i in ij}
    kept = [{ij: row for ij, row in a._products.items() if support & {*ij} or factors & row.keys()}
            for a in algebras]
    den = 1 if p else lcm(*(x.denominator for rows in kept for row in rows.values() for x in row.values()))
    for rows in kept:
        partners = {}
        for i, j in rows:
            partners.setdefault(("L", i), []).append(j)  # x_m x_r != 0 for m = i, r = j
            partners.setdefault(("R", j), []).append(i)  # x_r x_m != 0 for r = i, m = j
        yield {ij: {t: y.value if p else y.numerator * (den // y.denominator) for t, y in row.items()}
               for ij, row in rows.items()}, partners


def first_violation(expansions, p=None) -> tuple | None:
    """Least basis triple whose terms do not cancel, or None.

    `expansions` yields (outer, inner, term) from one `outer_index`: each entry
    of the term on the inner table adds coef * (x_u x_v in the outer table) to
    its triple's int defect.  Over GF(p) (`p` given) it is tested mod p at the end.
    """
    defects = {}
    for (table, partners), (inner, _), term in expansions:
        for triple, u, v, coef in expand_term(inner, term, partners):
            acc = defects.setdefault(triple, {})
            for t, y in table[u, v].items():
                acc[t] = acc[t] + coef * y if t in acc else coef * y
    live = any if p is None else (lambda acc: any(x % p for x in acc))
    return min((t for t, acc in defects.items() if live(acc.values())), default=None)


def identity_violation(a: Algebra, kind: IdentityKind) -> tuple | None:
    """First basis triple (i, j, k) violating the identity, or None.

    Checking basis triples is exhaustive: the defect is trilinear, so
    vanishing on all basis triples forces vanishing everywhere.  Every term
    is a product of two products, so only triples on which both are
    nonzero are visited.
    """
    if kind not in IDENTITY_TERMS:
        raise ValueError(f"unknown identity kind {kind}")
    (index,) = outer_index(a)
    return first_violation(((index, index, term) for term in IDENTITY_TERMS[kind]), a.field.p)


def check_identity(a: Algebra, kind: IdentityKind) -> bool:
    return identity_violation(a, kind) is None


def derived_ideal(a: Algebra) -> Subspace:
    """A^2, the span of all products.

    The span is already an ideal of any bilinear product: for v in A^2 the
    products vx and xv are themselves products.
    """
    return Subspace(a.field, a.dim, [row for _, _, row in a.nonzero_products()])


def annihilator(field: Field, n: int, products) -> Subspace:
    """Two-sided annihilator {v in F^n : v x_j = 0 and x_i v = 0} of a bilinear map.

    `products` yields (i, j, row): the value on (x_i, x_j) as a sparse row,
    in any coordinates k.  Solved as one kernel computation whose
    constraint rows come straight from the nonzero entries.
    """
    rows: dict[tuple, dict] = {}
    for i, j, row in products:
        for k, x in row.items():
            # v . x_j = 0, coordinate k: sum_i v_i c[i][j][k]
            rows.setdefault(("L", j, k), {})[i] = x
            # x_i . v = 0, coordinate k: sum_j v_j c[i][j][k]
            rows.setdefault(("R", i, k), {})[j] = x
    return kernel_basis(field, n, rows.values())


def center(a: Algebra) -> Subspace:
    """Two-sided annihilator {v : v x_i = 0 and x_i v = 0 for all i}."""
    return annihilator(a.field, a.dim, a.nonzero_products())


def extra_special_center(a: Algebra, z=None, d=None) -> Subspace | None:
    """The center if it is a line equal to the derived ideal, else None; a caller
    that holds the center `z` or the derived ideal `d` already passes it."""
    z = center(a) if z is None else z
    return z if z.dim == 1 and z == (derived_ideal(a) if d is None else d) else None


def is_extra_special(a: Algebra) -> bool:
    """True iff the center equals the derived ideal and both are lines."""
    return extra_special_center(a) is not None
