"""Products, identity checks, center, derived ideal, extra special predicate."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from extraspecial.algebra import (
    Algebra,
    IdentityKind,
    center,
    check_identity,
    derived_ideal,
    extra_special_center,
    identity_violation,
    is_extra_special,
    multiply,
)
from extraspecial.catalog import BlockDescriptor, make_canonical
from extraspecial.cohomology import cover
from extraspecial.dialg import Dialgebra, diassociativity_violation
from extraspecial.errors import DimensionMismatch, FieldMismatch
from extraspecial.linalg import Matrix, Subspace
from extraspecial.scalars import Field, Fp
from oracle_identity import naive_diassociativity_violation, naive_identity_violation

Q = Field.rationals()


def j(n):
    return make_canonical(BlockDescriptor("j", n), Q)


def gamma(n):
    return make_canonical(BlockDescriptor("gamma", n), Q)


def h(n, lam):
    return make_canonical(BlockDescriptor("h", n, lam), Q)


def cover_of_j1():
    # 3-dimensional algebra with xx = z, xz = zx = m
    return Algebra(
        Q,
        3,
        {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1), (1, 0): (0, 0, 1)},
        ["x", "z", "m"],
    )


# -- the sparse structure tensor ------------------------------------------------


@pytest.mark.parametrize("field", [Q, Field.gf(7)], ids=str)
def test_dense_and_sparse_input_build_the_same_algebra(field):
    one, zero = field.one, field.zero
    dense = Algebra(field, 3, {(1, 0): (0, 0, -1), (0, 1): (2, 0, 1), (1, 1): (0, 0, 0)})
    sparse = Algebra(field, 3, {(0, 1): {2: one, 0: one + one, 1: zero}, (1, 0): {2: -one}, (2, 2): {}})
    assert dense == sparse and hash(dense) == hash(sparse)
    # zero entries and all-zero rows are dropped; pairs and rows are ordered
    assert list(sparse.nonzero_products()) == [(0, 1, {0: one + one, 2: one}), (1, 0, {2: -one})]
    assert sparse.product(1, 1) == (zero, zero, zero)
    assert sparse.product(0, 1) == (one + one, zero, one)
    assert sparse.structure_constant(1, 0, 2) == -one and sparse.structure_constant(2, 2, 0) == zero


def test_int_entries_of_sparse_rows_are_coerced_exactly():
    # ints in a sparse row used to stay ints, and 2 / 3 came out a float
    d = derived_ideal(Algebra(Q, 3, {(0, 1): {0: 3, 2: 2}}))
    assert d.pivots == {0: {0: Q.one, 2: Fraction(2, 3)}}
    assert all(type(x) is Fraction for row in d.pivots.values() for x in row.values())
    gf7 = Field.gf(7)
    a = Algebra(gf7, 3, {(0, 1): {0: 7, 2: 3}, (1, 0): {2: -4}})
    assert list(a.nonzero_products()) == [(0, 1, {2: gf7.coerce(3)}), (1, 0, {2: gf7.coerce(3)})]


def test_an_element_of_another_prime_field_is_refused():
    # Fp(1, 5) is no scalar of GF(7): a residue kernel would read it mod 7
    with pytest.raises(FieldMismatch):
        derived_ideal(Algebra(Field.gf(7), 2, {(0, 0): {1: Fp(1, 5)}}))
    with pytest.raises(FieldMismatch):
        Algebra(Field.gf(7), 2, {(0, 0): {0: Field.gf(7).one, 1: Fp(1, 5)}})


@pytest.mark.parametrize(
    "products",
    [{(0, 1): {3: Q.one}}, {(0, 1): {-1: Q.one}}, {(0, 1): (0, 1)}, {(0, 1): (0, 0, 1, 0)}, {(3, 0): {0: Q.one}}],
    ids=["sparse k = dim", "sparse k < 0", "dense too short", "dense too long", "pair out of range"],
)
def test_out_of_range_products_are_refused(products):
    with pytest.raises(DimensionMismatch):
        Algebra(Q, 3, products)


# -- multiply -----------------------------------------------------------------


def test_multiply_j1_square():
    a = j(1)
    assert multiply(a, [1, 0], [1, 0]) == (Fraction(0), Fraction(1))


def test_multiply_by_zero_vector():
    a = gamma(3)
    zero = [0] * a.dim
    assert multiply(a, zero, [1] * a.dim) == tuple([Q.zero] * a.dim)


def test_multiply_h2_lambda():
    a = h(1, 3)
    # x2 * x1 = 3 z
    assert multiply(a, [0, 1, 0], [1, 0, 0]) == (Fraction(0), Fraction(0), Fraction(3))


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(j(1), [1, 0, 0], [1, 0])


# -- identity checks ------------------------------------------------------------


def test_catalog_algebra_is_associative():
    assert check_identity(j(5), IdentityKind.ASSOCIATIVE)


def test_zero_algebra_satisfies_everything():
    a = Algebra.zero(Q, 3)
    for kind in IdentityKind:
        assert check_identity(a, kind)


def test_violating_algebra_reports_first_triple():
    # dim 2 with x*y = x only: (xy)y = x but x(yy) = 0
    a = Algebra(Q, 2, {(0, 1): (1, 0)}, ["x", "y"])
    assert identity_violation(a, IdentityKind.ASSOCIATIVE) == (0, 1, 1)


def test_leibniz_orientations_are_genuinely_different():
    # x*x = y, x*y = z: x(xx) = z but (xx)x = 0, so only the left identity fails
    left_breaker = Algebra(Q, 3, {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1)}, ["x", "y", "z"])
    assert not check_identity(left_breaker, IdentityKind.LEIBNIZ_LEFT)
    assert check_identity(left_breaker, IdentityKind.LEIBNIZ_RIGHT)
    # x*x = y, y*x = z: (xx)x = z but x(xx) = 0, mirrored situation
    right_breaker = Algebra(Q, 3, {(0, 0): (0, 1, 0), (1, 0): (0, 0, 1)}, ["x", "y", "z"])
    assert check_identity(right_breaker, IdentityKind.LEIBNIZ_LEFT)
    assert not check_identity(right_breaker, IdentityKind.LEIBNIZ_RIGHT)
    assert identity_violation(right_breaker, IdentityKind.LEIBNIZ_RIGHT) == (0, 0, 0)


def _random_products(rng, dim, entries):
    products = {}
    for _ in range(entries):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        vec = list(products.get((i, j), [0] * dim))
        vec[k] = rng.choice((-2, -1, 1, 2, 3))
        products[(i, j)] = vec
    return products


@pytest.mark.parametrize(
    "products,kind,q_triple",
    [
        ({(1, 0): [0, 1], (0, 1): [0, 2]}, IdentityKind.LEIBNIZ_RIGHT, (1, 0, 0)),
        ({(2, 0): [1, 0, 0], (0, 2): [2, 0, 0]}, IdentityKind.LEIBNIZ_LEFT, (2, 2, 0)),
    ],
    ids=["leibniz-right", "leibniz-left"],
)
def test_identity_that_holds_only_mod_p(products, kind, q_triple):
    # the defect at q_triple is 3 times a basis vector: nonzero over Q, zero
    # over GF(3), so the residue sums must be reduced mod p before the test
    dim = len(next(iter(products.values())))
    over_q, over_gf3 = Algebra(Q, dim, products), Algebra(Field.gf(3), dim, products)
    assert identity_violation(over_q, kind) == q_triple == naive_identity_violation(over_q, kind.value)
    assert identity_violation(over_gf3, kind) is None
    assert naive_identity_violation(over_gf3, kind.value) is None


@pytest.mark.parametrize("field", [Q, Field.gf(3), Field.gf(5), Field.gf(7)], ids=str)
def test_identity_checks_agree_with_oracle(field):
    # 25 random algebras and 25 random dialgebras per field; the densities
    # make about half of them violate, so both answers and the reported
    # first triple (or axiom) are compared
    violations = []
    for seed in range(25):
        rng = random.Random(f"identity oracle {field} {seed}")
        dim = rng.randint(2, 4)
        a = Algebra(field, dim, _random_products(rng, dim, rng.randint(1, 2)))
        for kind in IdentityKind:
            expected = naive_identity_violation(a, kind.value)
            assert identity_violation(a, kind) == expected, (seed, kind)
            violations.append(expected is not None)
        left = _random_products(rng, dim, 1)
        right = dict(left) if rng.randrange(3) else _random_products(rng, dim, 1)
        d = Dialgebra(field, dim, left, right)
        expected = naive_diassociativity_violation(d)
        assert diassociativity_violation(d) == expected, seed
        violations.append(expected is not None)
    assert 0.25 < sum(violations) / len(violations) < 0.75


def _sink_products(rng, dim, sinks, entries):
    """Random products of the first dim - sinks basis vectors, mostly landing on the rest.

    The last `sinks` basis vectors have no products of their own, so any
    outer product with one of them is zero: the terms the identity checks skip.
    """
    products, sources = {}, dim - sinks
    for _ in range(entries):
        i, j = rng.randrange(sources), rng.randrange(sources)
        k = rng.randrange(sources) if rng.random() < 0.2 else rng.randrange(sources, dim)
        vec = list(products.get((i, j), [0] * dim))
        vec[k] = rng.choice((-2, -1, 1, 2, 3))
        products[(i, j)] = vec
    return products


@pytest.mark.parametrize("field", [Q, Field.gf(3), Field.gf(7)], ids=str)
def test_identity_checks_skipping_zero_outer_products_agree_with_oracle(field):
    # dim 5-7 with most products on sink vectors, where the checks visit
    # only the nonzero outer products; 20 algebras and 20 dialgebras per field
    violations = []
    for seed in range(20):
        rng = random.Random(f"sink oracle {field} {seed}")
        dim, sinks = rng.randint(5, 7), rng.randint(2, 3)
        a = Algebra(field, dim, _sink_products(rng, dim, sinks, rng.randint(3, 6)))
        for kind in IdentityKind:
            expected = naive_identity_violation(a, kind.value)
            assert identity_violation(a, kind) == expected, (seed, kind)
            violations.append(expected is not None)
        left = _sink_products(rng, dim, sinks, rng.randint(3, 5))
        right = dict(left) if rng.randrange(3) else _sink_products(rng, dim, sinks, rng.randint(3, 5))
        d = Dialgebra(field, dim, left, right)
        expected = naive_diassociativity_violation(d)
        assert diassociativity_violation(d) == expected, seed
        violations.append(expected is not None)
    assert 0.25 < sum(violations) / len(violations) < 0.75


def _rational_basis(rng, dim):
    """An invertible P over Q with entries like 7/3 and -5/8: rows are the new basis."""
    while True:
        p = Matrix(Q, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)] for _ in range(dim)])
        if p.rank() == dim:
            return p


def _moved(p, product, dim):
    """The bilinear map `product` (dense e-coordinates in and out) in the basis f_r = row r of P."""
    to_new = p.inverse().transpose()
    return {(r, s): to_new.apply(product(p.rows[r], p.rows[s])) for r in range(dim) for s in range(dim)}


def _upper_triangular():
    """The upper triangular 2 x 2 matrices on E11, E12, E22: associative, and not nilpotent."""
    return Algebra(Q, 3, {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (1, 2): [0, 1, 0], (2, 2): [0, 0, 1]})


def _perturbed(rng, products):
    """A copy of `products` with one entry changed by a non-integral amount."""
    out = {key: list(vec) for key, vec in products.items()}
    vec = out[rng.choice(sorted(out))]
    vec[rng.randrange(len(vec))] += Fraction(rng.randint(1, 10**6), rng.randint(2, 10**6))
    return out


def test_identity_checks_over_q_with_non_integral_tables_agree_with_oracle():
    # algebras that satisfy identities, moved to a basis with denominators;
    # each also perturbed by one entry, plus random tables of 20-digit fractions
    holding = [_upper_triangular(), j(2), h(2, Fraction(-7, 3)), gamma(2)]
    checked = violated = 0
    for seed in range(12):
        rng = random.Random(f"rational identity oracle {seed}")
        base = holding[seed % len(holding)]
        moved = _moved(_rational_basis(rng, base.dim), lambda u, v: multiply(base, u, v), base.dim)
        dim = base.dim
        scalars = [Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**6)) for _ in range(3)]
        noisy = {(rng.randrange(dim), rng.randrange(dim)): {rng.randrange(dim): x} for x in scalars}
        for products in (moved, _perturbed(rng, moved), noisy):
            a = Algebra(Q, dim, products)
            assert any(x.denominator > 1 for _, _, row in a.nonzero_products() for x in row.values())
            for kind in IdentityKind:
                expected = naive_identity_violation(a, kind.value)
                assert identity_violation(a, kind) == expected, (seed, kind)
                checked, violated = checked + 1, violated + (expected is not None)
    assert 0.25 < violated / checked < 0.75


def test_diassociativity_over_q_with_two_denominators_agrees_with_oracle():
    # x -| y = x phi(y) and x |- y = phi(x) y, phi the diagonal part of an upper
    # triangular matrix (an idempotent homomorphism), satisfy all five axioms;
    # in the basis s E11, w E12, E22 + t E12 only the right table holds t, so
    # the two have different denominators, and a defect that mixes them
    # cancels only when both are read with one scale
    t2 = _upper_triangular()

    def phi(u):
        return [u[0], 0, u[2]]

    verdicts = []
    for seed in range(8):
        rng = random.Random(f"two denominators {seed}")
        s, w = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9)) for _ in range(2))
        t = Fraction(rng.randint(1, 10), 11)
        p = Matrix(Q, [[s, 0, 0], [0, w, 0], [0, t, 1]])
        left = _moved(p, lambda u, v: multiply(t2, u, phi(v)), 3)
        right = _moved(p, lambda u, v: multiply(t2, phi(u), v), 3)
        d = Dialgebra(Q, 3, left, right)
        dens = [lcm(*(x.denominator for _, _, row in t.nonzero_products() for x in row.values())) for t in (d.left, d.right)]
        assert dens[0] != dens[1] and min(dens) > 1, dens
        assert diassociativity_violation(d) is None is naive_diassociativity_violation(d)
        for broken in (Dialgebra(Q, 3, _perturbed(rng, left), right), Dialgebra(Q, 3, left, _perturbed(rng, right))):
            expected = naive_diassociativity_violation(broken)
            assert diassociativity_violation(broken) == expected, seed
            verdicts.append(expected is not None)
    assert all(verdicts)


# -- derived ideal ----------------------------------------------------------------


def test_derived_ideal_j2_is_center_line():
    d = derived_ideal(j(2))
    assert d.dim == 1
    assert d.contains([0, 0, 1])


def test_derived_ideal_zero_algebra():
    assert derived_ideal(Algebra.zero(Q, 2)).dim == 0


def test_derived_ideal_of_j1_cover():
    d = derived_ideal(cover_of_j1())
    assert d.dim == 2
    assert d.contains([0, 1, 0]) and d.contains([0, 0, 1])


def _naive_ideal_closure(a):
    """The ideal generated by all products, by dense brute force.

    Starts from every product x_i x_j and multiplies the span's basis by
    every basis vector on both sides until nothing new appears.
    """
    units = [a.basis_vector(i) for i in range(a.dim)]
    span = Subspace(a.field, a.dim, [multiply(a, x, y) for x in units for y in units])
    while True:
        fresh = [
            w
            for v in span.basis
            for x in units
            for w in (multiply(a, v, x), multiply(a, x, v))
            if not span.contains(w)
        ]
        if not fresh:
            return span
        span = Subspace(a.field, a.dim, list(span.basis) + fresh)


def _random_tensor(field, seed):
    rng = random.Random(f"derived oracle {field} {seed}")
    dim = rng.randint(3, 5)
    return Algebra(field, dim, _random_products(rng, dim, rng.randint(2, 6)))


@pytest.mark.parametrize("field", [Q, Field.gf(3), Field.gf(5)], ids=str)
def test_derived_ideal_agrees_with_closure_oracle(field):
    # 20 random tensors that satisfy none of the identities, so nothing in
    # the comparison leans on associativity or the Leibniz rule
    drawn = (_random_tensor(field, seed) for seed in itertools.count())
    lawless = (a for a in drawn if not any(check_identity(a, kind) for kind in IdentityKind))
    proper = 0
    for a in itertools.islice(lawless, 20):
        expected = _naive_ideal_closure(a)
        assert derived_ideal(a) == expected, a
        proper += 0 < expected.dim < a.dim
    assert proper >= 5


def test_derived_ideal_of_cover_total_agrees_with_closure_oracle():
    total = cover(make_canonical(BlockDescriptor("h", 1, 3), Field.gf(5))).total
    assert derived_ideal(total) == _naive_ideal_closure(total)


# -- center ------------------------------------------------------------------------


def test_center_h2_is_z_line():
    c = center(h(1, 3))
    assert c.dim == 1
    assert c.contains([0, 0, 1])


def test_center_zero_algebra_is_everything():
    assert center(Algebra.zero(Q, 2)).dim == 2


def test_center_of_j1_cover_excludes_z():
    # z * x = m is nonzero, so only m survives the annihilator solve
    c = center(cover_of_j1())
    assert c.dim == 1
    assert c.contains([0, 0, 1])
    assert not c.contains([0, 1, 0])


# -- extra special -----------------------------------------------------------------


def test_gamma4_is_extra_special():
    assert is_extra_special(gamma(4))


def test_zero_algebra_is_not_extra_special():
    assert not is_extra_special(Algebra.zero(Q, 2))


def test_extra_special_center_is_the_center_line_or_none():
    a = gamma(4)
    assert extra_special_center(a) == center(a) == derived_ideal(a)
    # the center is a line other than A^2 (twice), or a plane
    for b in (Algebra.zero(Q, 1), Algebra(Q, 2, {(0, 0): (1, 0)}), Algebra.zero(Q, 2)):
        assert extra_special_center(b) is None


def test_unglued_direct_sum_is_not_extra_special():
    # two copies of J1 with separate central lines: center is 2-dimensional
    a = Algebra(
        Q,
        4,
        {(0, 0): (0, 1, 0, 0), (2, 2): (0, 0, 0, 1)},
        ["x1", "z1", "x2", "z2"],
    )
    assert center(a).dim == 2
    assert not is_extra_special(a)


# -- structural invariants -----------------------------------------------------------


CATALOG_SAMPLE = [
    BlockDescriptor("j", 1),
    BlockDescriptor("j", 3),
    BlockDescriptor("gamma", 2),
    BlockDescriptor("gamma", 4),
    BlockDescriptor("h", 1, -1),
    BlockDescriptor("h", 1, 3),
    BlockDescriptor("h", 2, 2),
]


@pytest.mark.parametrize("descriptor", CATALOG_SAMPLE, ids=lambda d: d.text(Q))
def test_catalog_satisfies_all_three_identities(descriptor):
    a = make_canonical(descriptor, Q)
    for kind in IdentityKind:
        assert check_identity(a, kind)
    assert is_extra_special(a)


@pytest.mark.parametrize("descriptor", CATALOG_SAMPLE, ids=lambda d: d.text(Q))
def test_triple_products_vanish(descriptor):
    a = make_canonical(descriptor, Q)
    for i, jdx, k in itertools.product(range(a.dim), repeat=3):
        left = multiply(a, a.product(i, jdx), a.basis_vector(k))
        right = multiply(a, a.basis_vector(i), a.product(jdx, k))
        assert not any(left) and not any(right)


def test_center_and_derived_invariant_under_basis_permutation():
    rng = random.Random(3)
    a = h(2, 3)
    perm = list(range(a.dim))
    rng.shuffle(perm)
    inv = [perm.index(i) for i in range(a.dim)]
    products = {}
    for i, jdx, _ in a.nonzero_products():
        vec = a.product(i, jdx)
        moved = [Q.zero] * a.dim
        for k, x in enumerate(vec):
            moved[inv[k]] = x
        products[(inv[i], inv[jdx])] = tuple(moved)
    permuted = Algebra(Q, a.dim, products)
    assert center(permuted).dim == center(a).dim
    assert derived_ideal(permuted).dim == derived_ideal(a).dim
    assert is_extra_special(permuted) == is_extra_special(a)
