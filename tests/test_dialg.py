"""Dialgebra axioms, the associative embedding, and the induced bracket."""

import random
from fractions import Fraction

import pytest

from extraspecial.algebra import Algebra, IdentityKind, check_identity, multiply
from extraspecial.catalog import BlockDescriptor, central_sum, make_canonical
from extraspecial.dialg import (
    Dialgebra,
    diassociativity_violation,
    embed_associative,
    induced_leibniz,
    is_diassociative,
)
from extraspecial.cohomology import VALIDATED_LEIBNIZ
from extraspecial.errors import NotAssociative, NotDiassociative
from extraspecial.scalars import Field

Q = Field.rationals()


def test_embedded_associative_is_diassociative():
    a = make_canonical(BlockDescriptor("j", 3), Q)
    assert is_diassociative(embed_associative(a))


def test_zero_dialgebra_is_diassociative():
    assert is_diassociative(Dialgebra(Q, 3, {}, {}))


def test_broken_dialgebra_reports_axiom_and_triple():
    bad = Dialgebra(Q, 3, {(0, 1): (0, 0, 1)}, {(1, 1): (1, 0, 0)}, ["x", "y", "z"])
    violation = diassociativity_violation(bad)
    assert violation is not None
    axiom, triple = violation
    assert isinstance(axiom, str) and len(triple) == 3


def test_embed_rejects_non_associative():
    bad = Algebra(Q, 2, {(0, 1): (1, 0)})
    with pytest.raises(NotAssociative):
        embed_associative(bad)


def test_induced_bracket_of_j1_vanishes():
    lb = induced_leibniz(embed_associative(make_canonical(BlockDescriptor("j", 1), Q)))
    assert list(lb.nonzero_products()) == []


def test_induced_bracket_of_h2_lambda():
    a = make_canonical(BlockDescriptor("h", 1, 3), Q)
    lb = induced_leibniz(embed_associative(a))
    prods = {(i, j): lb.product(i, j) for i, j, _ in lb.nonzero_products()}
    assert prods == {
        (0, 1): (Fraction(0), Fraction(0), Fraction(-2)),
        (1, 0): (Fraction(0), Fraction(0), Fraction(2)),
    }


def test_induced_bracket_of_zero_dialgebra():
    lb = induced_leibniz(Dialgebra(Q, 2, {}, {}))
    assert list(lb.nonzero_products()) == []


def test_induced_leibniz_requires_axioms():
    bad = Dialgebra(Q, 3, {(0, 1): (0, 0, 1)}, {(1, 1): (1, 0, 0)})
    with pytest.raises(NotDiassociative):
        induced_leibniz(bad)


def test_commutator_bracket_satisfies_both_orientations():
    for args in [("j", 2), ("gamma", 2), ("h", 1, -1), ("h", 2, 3)]:
        a = make_canonical(BlockDescriptor(*args), Q)
        lb = induced_leibniz(embed_associative(a))
        assert check_identity(lb, IdentityKind.LEIBNIZ_LEFT)
        assert check_identity(lb, IdentityKind.LEIBNIZ_RIGHT)


def test_commutator_matches_direct_computation():
    rng = random.Random(2)
    a = central_sum(
        make_canonical(BlockDescriptor("j", 2), Q),
        make_canonical(BlockDescriptor("h", 1, 2), Q),
    )
    lb = induced_leibniz(embed_associative(a))
    for _ in range(20):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(a.dim)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(a.dim)]
        uv = multiply(a, u, v)
        vu = multiply(a, v, u)
        commutator = tuple(x - y for x, y in zip(uv, vu))
        assert multiply(lb, u, v) == commutator


def test_induced_bracket_passes_validated_orientation():
    for args in [("j", 3), ("gamma", 3), ("h", 1, 5)]:
        a = make_canonical(BlockDescriptor(*args), Q)
        lb = induced_leibniz(embed_associative(a))
        assert check_identity(lb, VALIDATED_LEIBNIZ)
