"""Structure-constant algebras: products, identity checkers, center, derived ideal.

An `Algebra` is a finite-dimensional vector space with a bilinear product
given by a structure tensor, held sparse and once as ints: residues over
GF(p), over Q numerators over one denominator.  The identity walk, the
center, the derived ideal, the cocycle rows and the form read those ints;
scalars are built only at the edges: `nonzero_products()`, `product(i, j)`,
`structure_constant`, `basis_vector` and `multiply`.

Each defining identity is written once, as the signed terms of
`IDENTITY_TERMS`, read by the identity walk, the cocycle rows and the
dialgebra axioms.

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

    The structure tensor is `_table`, {(i, j): {k: nonzero int}} with the
    pairs in (i, j) order and each row in increasing k, over the int
    denominator `_den`: the constants are the ints over `_den`.  `_den` is 1
    over GF(p) and the lcm of the constants' denominators over Q, so the
    table is canonical.
    """

    __slots__ = ("field", "dim", "basis_names", "_table", "_den", "_memo")

    def __init__(self, field: Field, dim: int, products, basis_names=None):
        """`products` maps (i, j) pairs to the coordinates of basis products.

        Each value is read as `Subspace` reads its vectors: a sparse row
        {k: scalar} with every k in range, or a dense vector of length `dim`;
        entries are coerced and zeros dropped (`Field.ints`).  Unlisted
        products are zero.
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
        for i, j in products:
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"product index ({i}, {j}) out of range")
        rows, self._den = field.ints([_sparse_row(dim, vec) for vec in products.values()])
        self._table = {ij: dict(sorted(row.items())) for ij, row in sorted(zip(products, rows)) if row}
        self._memo = {}  # this object's own center and A^2 once solved; `==` and `hash` ignore it

    @classmethod
    def _canonical(cls, field: Field, dim: int, table: dict, den: int, basis_names) -> "Algebra":
        alg = cls.__new__(cls)  # `table` and `den` must be canonical already, as `__init__` leaves them
        alg.field, alg.dim, alg.basis_names, alg._table, alg._den = field, dim, tuple(basis_names), table, den
        alg._memo = {}
        return alg

    @classmethod
    def zero(cls, field: Field, dim: int, basis_names=None) -> "Algebra":
        return cls(field, dim, {}, basis_names)

    def product(self, i: int, j: int) -> tuple:
        """Dense coordinates of (basis i) * (basis j), built on demand."""
        return tuple(self.structure_constant(i, j, k) for k in range(self.dim))

    def structure_constant(self, i: int, j: int, k: int):
        return self.field.scalar(self._table.get((i, j), {}).get(k, 0), self._den)

    def nonzero_products(self):
        """Yield (i, j, sparse scalar row) for every nonzero basis product, in (i, j) order."""
        scalar, den = self.field.scalar, self._den
        for (i, j), row in self._table.items():
            yield i, j, {k: scalar(x, den) for k, x in row.items()}

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
            and self._den == other._den
            and self._table == other._table
        )

    def __hash__(self):
        rows = tuple((key, tuple(row.items())) for key, row in self._table.items())
        return hash((self.field, self.dim, self._den, rows))

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, {len(self._table)} nonzero products)"


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
    """Yield each algebra's int product rows and its `expand_term` partners.

    Every product is kept: `expand_term` visits only the partners of an
    inner product's coordinate, so a row no walk reads yields no triple.  The
    tables are read over one denominator D, the lcm of theirs, so each defect
    is D^2 times the true one; over GF(p) D = 1 and the entries are residues.
    """
    den = lcm(*(a._den for a in algebras))
    for a in algebras:
        scale = den // a._den
        rows = {ij: row if scale == 1 else {t: y * scale for t, y in row.items()} for ij, row in a._table.items()}
        partners = {}
        for i, j in rows:
            partners.setdefault(("L", i), []).append(j)  # x_m x_r != 0 for m = i, r = j
            partners.setdefault(("R", j), []).append(i)  # x_r x_m != 0 for r = i, m = j
        yield rows, partners


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
    products vx and xv are themselves products.  Solved once per object.
    """
    if "derived_ideal" not in a._memo:
        a._memo["derived_ideal"] = Subspace._span(a.field, a.dim, map(dict, a._table.values()))
    return a._memo["derived_ideal"]


def center(a: Algebra) -> Subspace:
    """Two-sided annihilator {v : v x_i = 0 and x_i v = 0 for all i}.

    Solved once per object, as one kernel computation whose constraint rows
    come straight from the nonzero structure constants, read only at the
    pivots of A^2's reduced echelon basis: for each j, sum_i v_i x_i x_j lies
    in A^2, and a vector w of A^2 is zero exactly when it is zero at those
    pivots, as w = sum_p (w[p] / lead_p) row_p.  So at most 2n d rows,
    d = dim A^2, in any basis.
    """
    if "center" not in a._memo:
        rows: dict[tuple, dict] = {}
        pivots = derived_ideal(a)._rows
        for (i, j), row in a._table.items():
            for k in pivots.keys() & row.keys():
                # v . x_j = 0, coordinate k: sum_i v_i c[i][j][k]
                rows.setdefault(("L", j, k), {})[i] = row[k]
                # x_i . v = 0, coordinate k: sum_j v_j c[i][j][k]
                rows.setdefault(("R", i, k), {})[j] = row[k]
        a._memo["center"] = kernel_basis(a.field, a.dim, rows.values())
    return a._memo["center"]


def extra_special_center(a: Algebra) -> Subspace | None:
    """The center if it is a line equal to the derived ideal, else None."""
    return z if (z := center(a)).dim == 1 and z == derived_ideal(a) else None


def is_extra_special(a: Algebra) -> bool:
    """True iff the center equals the derived ideal and both are lines."""
    return extra_special_center(a) is not None
