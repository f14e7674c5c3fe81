"""Diassociative algebras: the five-axiom checker and the induced bracket.

A dialgebra carries two products, written left (-|) and right (|-), tied by
five associativity-like axioms.  Any associative algebra embeds by using
its product for both, and every dialgebra induces a Leibniz algebra via
x * y = x -| y  -  y |- x.

The center and derived ideal of a dialgebra admit several inequivalent
candidate definitions (two-sided annihilator of either product, of both, or
of the induced bracket); none is adopted here, so no extra special
predicate is offered for dialgebras.  Only the axioms, the embedding, and
the induced bracket are implemented.
"""

from __future__ import annotations

from .algebra import IDENTITY_TERMS, Algebra, IdentityKind, check_identity, first_violation, outer_index
from .errors import DimensionMismatch, NotAssociative, NotDiassociative
from .scalars import Field


class Dialgebra:
    """Two structure tensors over one field: left (-|) and right (|-)."""

    __slots__ = ("field", "dim", "basis_names", "left", "right")

    def __init__(self, field: Field, dim: int, left_products, right_products, basis_names=None):
        self.field = field
        self.dim = dim
        self.left = Algebra(field, dim, left_products, basis_names)
        self.right = Algebra(field, dim, right_products, basis_names)
        self.basis_names = self.left.basis_names

    def __eq__(self, other):
        return (
            isinstance(other, Dialgebra)
            and self.left == other.left
            and self.right == other.right
        )

    def __repr__(self):
        return f"Dialgebra(dim {self.dim} over {self.field})"


#: The five defining axioms as (label, lhs, rhs); each side is a pair
#: (outer, inner) of product tags for one of the two associativity terms:
#: lhs is outer(inner(x, y), z), rhs is outer(x, inner(y, z)).
_AXIOMS = (
    ("(x-|y)-|z = x-|(y-|z)", ("L", "L"), ("L", "L")),
    ("(x-|y)-|z = x-|(y|-z)", ("L", "L"), ("L", "R")),
    ("(x|-y)-|z = x|-(y-|z)", ("L", "R"), ("R", "L")),
    ("(x-|y)|-z = x|-(y|-z)", ("R", "L"), ("R", "R")),
    ("(x|-y)|-z = x|-(y|-z)", ("R", "R"), ("R", "R")),
)


def diassociativity_violation(d: Dialgebra) -> tuple | None:
    """First failing (axiom label, basis triple), or None when all five hold."""
    index = dict(zip("LR", outer_index(d.left, d.right)))  # one call: one D, one row rule for both
    for label, *sides in _AXIOMS:
        triple = first_violation(
            ((index[outer], index[inner], term)
             for term, (outer, inner) in zip(IDENTITY_TERMS[IdentityKind.ASSOCIATIVE], sides)), d.field.p)
        if triple is not None:
            return (label, triple)
    return None


def is_diassociative(d: Dialgebra) -> bool:
    return diassociativity_violation(d) is None


def embed_associative(a: Algebra) -> Dialgebra:
    """View an associative algebra as a dialgebra with both products equal."""
    if not check_identity(a, IdentityKind.ASSOCIATIVE):
        raise NotAssociative("only associative algebras embed as dialgebras")
    products = {(i, j): vec for i, j, vec in a.nonzero_products()}
    return Dialgebra(a.field, a.dim, products, products, a.basis_names)


def induced_leibniz(d: Dialgebra) -> Algebra:
    """The Leibniz algebra with product x * y = x -| y - y |- x."""
    if not is_diassociative(d):
        raise NotDiassociative("the induced bracket needs the five axioms")
    zero = d.field.zero
    products = {(i, j): dict(row) for i, j, row in d.left.nonzero_products()}
    for j, i, row in d.right.nonzero_products():
        acc = products.setdefault((i, j), {})
        for k, x in row.items():
            acc[k] = acc.get(k, zero) - x
    return Algebra(d.field, d.dim, products, d.basis_names)
