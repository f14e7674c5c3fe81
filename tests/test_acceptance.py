"""Acceptance suite: the toolkit's headline guarantees, one criterion per test.

Every check is exact (integer and field-element equality; no tolerances).
Each test prints a single PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from extraspecial.algebra import (
    Algebra,
    IdentityKind,
    center,
    check_identity,
    derived_ideal,
    multiply,
)
from extraspecial.catalog import BlockDescriptor, central_sum, make_canonical
from extraspecial.cohomology import (
    VALIDATED_LEIBNIZ,
    cover,
    is_capable,
    is_unicentral,
    multiplier_dim,
    z_star,
)
from extraspecial.forms import BlockDecomposition, algebra_from_form, classify, form_of
from extraspecial.linalg import Matrix
from extraspecial.errors import Singular
from extraspecial.scalars import Field

from oracle_h2 import naive_h2_dim

Q = Field.rationals()
GF7 = Field.gf(7)

LAMBDAS = [Fraction(2), Fraction(3), Fraction(-1), Fraction(5)]


def _sweep_descriptors():
    """J1..J8, Gamma2..Gamma8, H2(lambda), H2n(lambda) for n in {2, 3, 4}."""
    out = [BlockDescriptor("j", n) for n in range(1, 9)]
    out += [BlockDescriptor("gamma", n) for n in range(2, 9)]
    out += [BlockDescriptor("h", 1, lam) for lam in LAMBDAS]
    for n in (2, 3, 4):
        excluded = Q.one if (n + 1) % 2 == 0 else -Q.one
        out += [BlockDescriptor("h", n, lam) for lam in LAMBDAS if lam != excluded]
    return out


SUM_PAIRS = [
    ("j:1", ("j", 1), ("j", 1)),
    ("j:1+j:2", ("j", 1), ("j", 2)),
    ("j:2+j:2", ("j", 2), ("j", 2)),
    ("j:2+h2:3", ("j", 2), ("h", 1, Fraction(3))),
    ("j:2+gamma:2", ("j", 2), ("gamma", 2)),
    ("gamma:2+gamma:2", ("gamma", 2), ("gamma", 2)),
    ("gamma:2+h2:2", ("gamma", 2), ("h", 1, Fraction(2))),
    ("h2:2+h2:3", ("h", 1, Fraction(2)), ("h", 1, Fraction(3))),
    ("j:3+j:2", ("j", 3), ("j", 2)),
    ("gamma:3+h2:-1", ("gamma", 3), ("h", 1, Fraction(-1))),
]


def _sweep_instances():
    instances = []
    for d in _sweep_descriptors():
        instances.append((d.text(Q), make_canonical(d, Q), d))
    for name, left, right in SUM_PAIRS:
        a = make_canonical(BlockDescriptor(*left), Q)
        b = make_canonical(BlockDescriptor(*right), Q)
        instances.append((f"{name}(sum)", central_sum(a, b), None))
    return instances


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_associative_multiplier_dimension():
    with criterion(1, "associative multiplier dimension (dim-1)^2 - 1, J1 -> 1"):
        for name, alg, descriptor in _sweep_instances():
            is_j1 = descriptor is not None and descriptor == BlockDescriptor("j", 1)
            expected = 1 if is_j1 else (alg.dim - 1) ** 2 - 1
            got = multiplier_dim(alg, IdentityKind.ASSOCIATIVE)
            assert got == expected, f"{name}: multiplier {got}, expected {expected}"


def test_criterion_2_leibniz_multiplier_dimension():
    with criterion(2, "Leibniz multiplier dimensions with exceptions J1, J2, H2(-1)"):
        exceptions = {
            BlockDescriptor("j", 1): 1,
            BlockDescriptor("j", 2): 4,
            BlockDescriptor("h", 1, Fraction(-1)): 5,
        }
        for name, alg, descriptor in _sweep_instances():
            expected = exceptions.get(descriptor, (alg.dim - 1) ** 2 - 1)
            got = multiplier_dim(alg, VALIDATED_LEIBNIZ)
            assert got == expected, f"{name}: Leibniz multiplier {got}, expected {expected}"
        # the chosen orientation constant is one that reproduces the numbers
        assert VALIDATED_LEIBNIZ in (IdentityKind.LEIBNIZ_LEFT, IdentityKind.LEIBNIZ_RIGHT)


def test_criterion_3_capability_dichotomy():
    with criterion(3, "capable exactly for J1; every other instance unicentral"):
        for name, alg, descriptor in _sweep_instances():
            is_j1 = descriptor is not None and descriptor == BlockDescriptor("j", 1)
            zs = z_star(alg)
            if is_j1:
                assert zs.dim == 0, f"{name}: Z* should vanish"
                assert is_capable(alg) and not is_unicentral(alg)
            else:
                assert zs == center(alg), f"{name}: Z* should equal the center"
                assert is_unicentral(alg) and not is_capable(alg)


def test_criterion_4_classification_round_trips():
    with criterion(4, "classify round trips, congruence invariance, sum additivity"):
        rng = random.Random(20240816)
        for d in _sweep_descriptors():
            alg = make_canonical(d, Q)
            assert classify(alg) == BlockDecomposition(Q, [d]), d.text(Q)
        # congruence scrambles on every sweep algebra of dimension <= 7
        for d in _sweep_descriptors():
            if d.algebra_dim > 7:
                continue
            f = form_of(make_canonical(d, Q)).m
            expected = BlockDecomposition(Q, [d])
            n = f.nrows
            for _ in range(20):
                while True:
                    p = Matrix(Q, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                    try:
                        p.inverse()
                        break
                    except Singular:
                        continue
                scrambled = algebra_from_form(p.transpose().matmul(f).matmul(p))
                assert classify(scrambled) == expected, d.text(Q)
        # sums decompose as multiset unions
        for name, left, right in SUM_PAIRS:
            a = make_canonical(BlockDescriptor(*left), Q)
            b = make_canonical(BlockDescriptor(*right), Q)
            union = BlockDecomposition(Q, list(classify(a).blocks) + list(classify(b).blocks))
            assert classify(central_sum(a, b)) == union, name


def test_criterion_5_trivial_triple_products():
    with criterion(5, "all identities hold and 3-products vanish on the sweep"):
        for name, alg, _ in _sweep_instances():
            for kind in IdentityKind:
                assert check_identity(alg, kind), f"{name}: {kind.value} fails"
            for i in range(alg.dim):
                for j in range(alg.dim):
                    prod = alg.product(i, j)
                    if not any(prod):
                        continue
                    for k in range(alg.dim):
                        left = multiply(alg, prod, alg.basis_vector(k))
                        right = multiply(alg, alg.basis_vector(k), prod)
                        assert not any(left) and not any(right), name


def test_criterion_6_cover_integrity():
    with criterion(6, "covers are stem, have the right size, and project back"):
        for name, alg, _ in _sweep_instances():
            ext = cover(alg)
            m = multiplier_dim(alg, IdentityKind.ASSOCIATIVE)
            assert ext.total.dim == alg.dim + m, name
            c = center(ext.total)
            d = derived_ideal(ext.total)
            for v in ext.kernel.basis:
                assert c.contains(v) and d.contains(v), f"{name}: not stem"
            for i in range(alg.dim):
                for j in range(alg.dim):
                    assert ext.project(ext.total.product(i, j)) == alg.product(i, j), name
        # the J1 cover has the hallmark shape: x z = z x spans the kernel
        j1 = make_canonical(BlockDescriptor("j", 1), Q)
        ext = cover(j1)
        assert ext.total.dim == 3 and ext.kernel.dim == 1
        xz = ext.total.product(0, 1)
        zx = ext.total.product(1, 0)
        assert xz == zx and any(xz)
        assert ext.kernel.contains(xz)
        # the cover of the 1-dimensional zero algebra is J1 up to isomorphism
        ext0 = cover(Algebra.zero(Q, 1))
        assert ext0.total.dim == 2
        prods = list(ext0.total.nonzero_products())
        assert len(prods) == 1
        i, j, _ = prods[0]
        vec = ext0.total.product(i, j)
        assert (i, j) == (0, 0) and not vec[0] and vec[1]


def test_criterion_7_oracle_equivalence():
    with criterion(7, "naive cocycle oracle agrees; rank-nullity on 200 random matrices"):
        fixtures = [
            make_canonical(BlockDescriptor("j", 1), Q),
            make_canonical(BlockDescriptor("j", 2), Q),
            make_canonical(BlockDescriptor("gamma", 2), Q),
            make_canonical(BlockDescriptor("h", 1, Fraction(2)), Q),
            make_canonical(BlockDescriptor("h", 1, Fraction(-1)), Q),
            make_canonical(BlockDescriptor("h", 1, Fraction(5)), Q),
            central_sum(
                make_canonical(BlockDescriptor("j", 1), Q),
                make_canonical(BlockDescriptor("j", 1), Q),
            ),
            Algebra.zero(Q, 1),
            Algebra.zero(Q, 2),
            Algebra.zero(Q, 3),
            Algebra(Q, 3, {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1), (1, 0): (0, 0, 1)}),
            make_canonical(BlockDescriptor("j", 2), GF7),
            make_canonical(BlockDescriptor("h", 1, GF7.coerce(3)), GF7),
        ]
        for alg in fixtures:
            assert alg.dim <= 3
            for theory in IdentityKind:
                if not check_identity(alg, theory):
                    continue
                assert multiplier_dim(alg, theory) == naive_h2_dim(alg, theory)
        rng = random.Random(123)
        for field in (Q, GF7):
            for _ in range(200):
                nrows = rng.randint(1, 6)
                ncols = rng.randint(1, 6)
                m = Matrix(
                    field,
                    [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)],
                )
                assert m.rank() + m.nullspace().dim == ncols
