"""Canonical family constructors and central sums."""

from fractions import Fraction

import pytest

from extraspecial import algebra
from extraspecial.algebra import Algebra, IdentityKind, center, check_identity, is_extra_special
from extraspecial.catalog import (
    BlockDescriptor,
    central_sum,
    make_canonical,
    make_from_text,
    normalize_lambda,
    parse_descriptor,
)
from extraspecial.errors import FieldMismatch, InvalidDescriptor, NotExtraSpecial
from extraspecial.scalars import Field, Fp

Q = Field.rationals()
GF7 = Field.gf(7)


def products_of(a):
    return {(i, j): a.product(i, j) for i, j, _ in a.nonzero_products()}


def z_vec(dim, coeff=1):
    vec = [Fraction(0)] * dim
    vec[dim - 1] = Fraction(coeff)
    return tuple(vec)


def test_j2_single_product():
    a = make_canonical(BlockDescriptor("j", 2), Q)
    assert a.dim == 3
    assert products_of(a) == {(0, 1): z_vec(3)}


def test_j1_square():
    a = make_canonical(BlockDescriptor("j", 1), Q)
    assert products_of(a) == {(0, 0): z_vec(2)}


def test_gamma2_products():
    a = make_canonical(BlockDescriptor("gamma", 2), Q)
    assert products_of(a) == {
        (1, 0): z_vec(3),
        (0, 1): z_vec(3, -1),
        (1, 1): z_vec(3),
    }


def test_gamma3_full_tensor():
    a = make_canonical(BlockDescriptor("gamma", 3), Q)
    assert products_of(a) == {
        (2, 0): z_vec(4),       # x3 x1 = z
        (1, 1): z_vec(4, -1),   # x2 x2 = -z
        (0, 2): z_vec(4),       # x1 x3 = z
        (2, 1): z_vec(4),       # x3 x2 = z
        (1, 2): z_vec(4, -1),   # x2 x3 = -z
    }


def test_gamma4_full_tensor():
    a = make_canonical(BlockDescriptor("gamma", 4), Q)
    assert products_of(a) == {
        (3, 0): z_vec(5),       # x4 x1 = z
        (2, 1): z_vec(5, -1),   # x3 x2 = -z
        (1, 2): z_vec(5),       # x2 x3 = z
        (0, 3): z_vec(5, -1),   # x1 x4 = -z
        (3, 1): z_vec(5),       # x4 x2 = z
        (2, 2): z_vec(5, -1),   # x3 x3 = -z
        (1, 3): z_vec(5),       # x2 x4 = z
    }


def test_h2_lambda_products():
    a = make_canonical(BlockDescriptor("h", 1, 3), Q)
    assert products_of(a) == {(0, 1): z_vec(3), (1, 0): z_vec(3, 3)}


def test_h4_products():
    a = make_canonical(BlockDescriptor("h", 2, 5), Q)
    assert a.dim == 5
    assert products_of(a) == {
        (0, 2): z_vec(5),
        (1, 3): z_vec(5),
        (2, 0): z_vec(5, 5),
        (3, 1): z_vec(5, 5),
        (2, 1): z_vec(5),
    }


@pytest.mark.parametrize(
    "descriptor",
    [
        BlockDescriptor("j", 0),
        BlockDescriptor("gamma", 1),
        BlockDescriptor("h", 1, 0),
        BlockDescriptor("h", 1, 1),
        BlockDescriptor("h", 2, -1),  # (-1)^(n+1) = -1 at n = 2
        BlockDescriptor("h", 3, 1),   # (-1)^(n+1) = 1 at n = 3
    ],
)
def test_invalid_descriptors(descriptor):
    with pytest.raises(InvalidDescriptor):
        make_canonical(descriptor, Q)


def test_h2_minus_one_is_allowed():
    a = make_canonical(BlockDescriptor("h", 1, -1), Q)
    assert is_extra_special(a)


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_family_is_extra_special_and_associative(n):
    a = make_canonical(BlockDescriptor("gamma", n), Q)
    assert check_identity(a, IdentityKind.ASSOCIATIVE)
    assert is_extra_special(a)


def test_catalog_over_prime_field():
    a = make_canonical(BlockDescriptor("h", 1, Fp(3, 7)), GF7)
    assert is_extra_special(a)
    assert a.field == GF7


# -- every family against the paper's blocks ---------------------------------------
#
# The canonical matrices of the congruence blocks, written densely and
# independently of `catalog`: the algebra of a form M has x_i x_j = M_ij z.

FIELDS = [Q, Field.gf(3), Field.gf(5), GF7]  # p <= dim occurs up to n = 8


def j_matrix(n):
    """J1 = [1]; J_n with ones on the superdiagonal."""
    if n == 1:
        return [[1]]
    return [[int(j == i + 1) for j in range(n)] for i in range(n)]


def gamma_matrix(n):
    """Gamma_n: entries (i, n+1-i) and (i, n+2-i), 1-based, both signed (-1)^(n-i)."""
    m = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in (n + 1 - i, n + 2 - i):
            if j <= n:
                m[i - 1][j - 1] = (-1) ** (n - i)
    return m


def h_matrix(n, lam):
    """H_2n(lambda) = [[0, I_n], [J_n(lambda), 0]], J_n(lambda) the upper Jordan block."""
    top = [[0] * n + [int(j == i) for j in range(n)] for i in range(n)]
    bottom = [[lam if j == i else int(j == i + 1) for j in range(n)] + [0] * n for i in range(n)]
    return top + bottom


def block_sum(*matrices):
    size = sum(map(len, matrices))
    out, at = [[0] * size for _ in range(size)], 0
    for m in matrices:
        for i, row in enumerate(m):
            out[at + i][at : at + len(row)] = row
        at += len(m)
    return out


def assert_algebra_of_form(a, field, m, names):
    """`a` is x_i x_j = m[i][j] z on `names` plus a final z, and nothing else."""
    z = len(m)
    assert a.field == field and a.dim == z + 1
    assert a.basis_names == (*names, "z")
    expected = {
        (i, j): {z: field.coerce(x)}
        for i, row in enumerate(m) for j, x in enumerate(row) if field.coerce(x)
    }
    assert {(i, j): row for i, j, row in a.nonzero_products()} == expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_family_is_its_canonical_form(field):
    for n in range(1, 9):
        names = [f"x{i + 1}" for i in range(n)]
        assert_algebra_of_form(make_canonical(BlockDescriptor("j", n), field), field, j_matrix(n), names)
        if n >= 2:
            a = make_canonical(BlockDescriptor("gamma", n), field)
            assert_algebra_of_form(a, field, gamma_matrix(n), names)
        for lam in (2, 3, -1):
            d = BlockDescriptor("h", n, lam)
            value = field.coerce(lam)
            if not value or value == field.coerce((-1) ** (n + 1)):
                with pytest.raises(InvalidDescriptor):
                    make_canonical(d, field)
                continue
            assert d.algebra_dim == 2 * n + 1
            a = make_canonical(d, field)
            assert_algebra_of_form(a, field, h_matrix(n, lam), [f"x{i + 1}" for i in range(2 * n)])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_three_part_sum_is_the_block_sum_of_the_forms(field):
    s = make_from_text("j:2+gamma:3+h2n:2:-2", field)
    names = ["a_a_x1", "a_a_x2", "a_b_x1", "a_b_x2", "a_b_x3", "b_x1", "b_x2", "b_x3", "b_x4"]
    assert_algebra_of_form(s, field, block_sum(j_matrix(2), gamma_matrix(3), h_matrix(2, -2)), names)


# -- central sums -----------------------------------------------------------------


def test_central_sum_of_two_j1():
    a = make_canonical(BlockDescriptor("j", 1), Q)
    s = central_sum(a, a)
    assert s.dim == 3
    assert products_of(s) == {(0, 0): z_vec(3), (1, 1): z_vec(3)}
    assert is_extra_special(s)


def test_central_sum_j2_h2_is_extra_special():
    s = central_sum(
        make_canonical(BlockDescriptor("j", 2), Q),
        make_canonical(BlockDescriptor("h", 1, 3), Q),
    )
    assert s.dim == 5
    assert is_extra_special(s)


def test_central_sum_dimension_formula():
    a = make_canonical(BlockDescriptor("gamma", 3), Q)
    b = make_canonical(BlockDescriptor("h", 2, 2), Q)
    assert central_sum(a, b).dim == a.dim + b.dim - 1


def test_central_sum_rejects_non_extra_special():
    with pytest.raises(NotExtraSpecial):
        central_sum(Algebra.zero(Q, 2), make_canonical(BlockDescriptor("j", 1), Q))


def test_central_sum_requires_canonical_center_position():
    # extra special, but the center sits in the first coordinate
    shuffled = Algebra(Q, 3, {(1, 2): (1, 0, 0)}, ["z", "x1", "x2"])
    with pytest.raises(NotExtraSpecial, match="central_sum expects the center spanned by the last basis vector"):
        central_sum(shuffled, make_canonical(BlockDescriptor("j", 1), Q))


def test_central_sum_solves_each_center_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return center(a)

    monkeypatch.setattr(algebra, "center", counted)
    a, b = make_canonical(BlockDescriptor("j", 2), Q), make_canonical(BlockDescriptor("gamma", 2), Q)
    central_sum(a, b)
    assert calls == [a, b]
    calls.clear()
    with pytest.raises(NotExtraSpecial, match="central_sum needs extra special summands"):
        central_sum(a, Algebra.zero(Q, 2))
    assert calls == [a, Algebra.zero(Q, 2)]


def test_central_sum_rejects_field_mixes():
    with pytest.raises(FieldMismatch):
        central_sum(
            make_canonical(BlockDescriptor("j", 1), Q),
            make_canonical(BlockDescriptor("j", 1), GF7),
        )


def test_central_sum_cross_products_vanish():
    s = central_sum(
        make_canonical(BlockDescriptor("j", 2), Q),
        make_canonical(BlockDescriptor("gamma", 2), Q),
    )
    prods = products_of(s)
    # J2 occupies coordinates 0..1, Gamma2 coordinates 2..3, z is 4
    for (i, j) in prods:
        assert (i < 2) == (j < 2)


# -- descriptor text ------------------------------------------------------------


def test_parse_descriptor_round_trip():
    for text in ["j:1", "j:4", "gamma:3", "h2:3/2", "h2n:2:5"]:
        d = parse_descriptor(text, Q)
        assert d.text(Q) == text


def test_parse_descriptor_rejects_junk():
    for text in ["j", "gamma:x", "h2n:2", "q:3", "h2:1"]:
        with pytest.raises(InvalidDescriptor):
            parse_descriptor(text, Q)


def test_make_from_text_sum():
    s = make_from_text("j:2+h2:3", Q)
    assert s.dim == 5
    assert is_extra_special(s)


def test_normalize_lambda():
    assert normalize_lambda(Q, Fraction(3)) == Fraction(1, 3)
    assert normalize_lambda(Q, Fraction(1, 3)) == Fraction(1, 3)
    assert normalize_lambda(Q, Fraction(-1)) == Fraction(-1)
    assert normalize_lambda(Q, Fraction(-2)) == Fraction(-2)  # (-2,1) < (-1,2)
    assert normalize_lambda(GF7, Fp(3, 7)) == Fp(3, 7)  # inverse of 3 is 5
    assert normalize_lambda(GF7, Fp(5, 7)) == Fp(3, 7)
