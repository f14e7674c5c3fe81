"""Cocycle spaces, multiplier dimensions, covers, Z*, capability."""

import collections
import itertools
import random
import re
from fractions import Fraction

import pytest

from extraspecial import algebra, cli, cohomology, linalg
from extraspecial.algebra import (
    Algebra,
    IdentityKind,
    center,
    check_identity,
    derived_ideal,
    identity_violation,
    is_extra_special,
)
from extraspecial.catalog import BlockDescriptor, central_sum, make_canonical, make_from_text
from extraspecial.cohomology import (
    VALIDATED_LEIBNIZ,
    cocycle_space,
    cover,
    is_capable,
    is_unicentral,
    multiplier_dim,
    z_star,
)
from extraspecial.errors import IdentityViolated, InternalCheckFailure, NotAssociative
from extraspecial.forms import algebra_from_form, form_of
from extraspecial.linalg import Subspace
from extraspecial.scalars import Field
from oracle_h2 import naive_constraint_row, naive_h2_dim
from oracle_zstar import cover_z_star
from test_algebra import _random_products
from test_basis_invariance import CASES, _field, _in_basis, _random_basis
from test_forms import scrambled

Q = Field.rationals()
FIELDS = [Q, Field.gf(3), Field.gf(5), Field.gf(7)]


def j(n):
    return make_canonical(BlockDescriptor("j", n), Q)


def gamma(n):
    return make_canonical(BlockDescriptor("gamma", n), Q)


def h(n, lam):
    return make_canonical(BlockDescriptor("h", n, lam), Q)


def _z2(a, cs):
    """The cocycles z2 = ker R of `a`'s cocycle space `cs`, which the program never builds."""
    return linalg.kernel_of(a.field, a.dim ** 2, cs.constraints, ())


def _extension_by(a, cocycles):
    """The algebra on A + F^m with product (u, s)(v, t) = (uv, f_1(u, v), ..., f_m(u, v)), through
    the `Algebra` constructor; each cocycle f_l is a sparse row {i * dim + j: f_l(x_i, x_j)}."""
    products = {(i, jj): row for i, jj, row in a.nonzero_products()}
    for l, f in enumerate(cocycles):
        for c, x in f.items():
            products.setdefault(divmod(c, a.dim), {})[a.dim + l] = x
    names = [*a.basis_names, *(f"m{l + 1}" for l in range(len(cocycles)))]
    return Algebra(a.field, len(names), products, names)


# -- cocycle spaces -------------------------------------------------------------


def test_j1_cocycle_dimensions():
    # hand solve: constraints force f(z,z) = 0 and f(x,z) = f(z,x)
    cs = cocycle_space(j(1), IdentityKind.ASSOCIATIVE)
    assert (_z2(j(1), cs).dim, cs.b2.dim, cs.h2_dim) == (2, 1, 1)


def test_one_dimensional_zero_algebra_cocycles():
    a = Algebra.zero(Q, 1)
    cs = cocycle_space(a, IdentityKind.ASSOCIATIVE)
    assert (_z2(a, cs).dim, cs.b2.dim, cs.h2_dim) == (1, 0, 1)


def test_j2_associative_multiplier():
    assert multiplier_dim(j(2), IdentityKind.ASSOCIATIVE) == 3


def test_b2_dim_equals_derived_dim():
    for a in [j(1), j(3), gamma(2), h(1, 3), central_sum(j(2), j(2))]:
        cs = cocycle_space(a, IdentityKind.ASSOCIATIVE)
        assert cs.b2.dim == derived_ideal(a).dim


def test_int_row_algebra_over_gf7_has_the_multipliers_of_its_scalar_twin():
    gf7 = Field.gf(7)
    a = central_sum(
        make_canonical(BlockDescriptor("gamma", 2), gf7),
        make_canonical(BlockDescriptor("h", 1, gf7.coerce(3)), gf7),
    )
    # the same tensor with int entries, some of them not reduced mod 7
    ints = {
        (i, j): {k: x.value - 7 * (k % 2) for k, x in row.items()} for i, j, row in a.nonzero_products()
    }
    b = Algebra(gf7, a.dim, ints)
    assert b == a
    for theory in (IdentityKind.ASSOCIATIVE, VALIDATED_LEIBNIZ):
        assert multiplier_dim(b, theory) == multiplier_dim(a, theory)


def test_cocycle_space_rejects_wrong_theory():
    bad = Algebra(Q, 2, {(0, 1): (1, 0)})  # not associative
    with pytest.raises(IdentityViolated, match=r"^algebra does not satisfy assoc at \(0, 1, 1\)$"):
        cocycle_space(bad, IdentityKind.ASSOCIATIVE)


# not associative; its assoc rows reach their bound after 12 of 19, before the audit fails
EARLY_FAILURE = {(0, 1): {1: 2, 2: 2}, (1, 0): {1: 2}, (1, 2): {0: 2}, (2, 2): {1: 2}}


@pytest.mark.parametrize("field", [Q, Field.gf(3), Field.gf(7)], ids=str)
def test_the_coboundary_audit_is_the_identity_check(field, monkeypatch):
    # no identity walk precedes the solve: it raises IdentityViolated, naming the least
    # violating triple, exactly when identity_violation finds one, and otherwise its h2 is
    # the oracle's.  Random tables of one or two entries break many of the identities;
    # seeded associative algebras in dense bases and the holds-only-mod-3 tables join them
    rng, rows, read = random.Random(f"audit {field}"), cohomology._cocycle_rows, []

    def counted(a, kind):
        for row in rows(a, kind):
            read.append(row)
            yield row

    monkeypatch.setattr(cohomology, "_cocycle_rows", counted)
    inputs = [Algebra(field, 3, EARLY_FAILURE), Algebra(field, 2, {(1, 0): [0, 1], (0, 1): [0, 2]}),
              Algebra(field, 3, {(2, 0): [1, 0, 0], (0, 2): [2, 0, 0]})]
    inputs += [_seeded_associative(rng, field, kind) for kind in ("class 2", "nilpotent", "idempotent")]
    for _ in range(20):
        dim = rng.randint(2, 4)
        inputs.append(Algebra(field, dim, _random_products(rng, dim, rng.randint(1, 2))))
    outcomes = collections.Counter()
    for a in inputs:
        for kind in IdentityKind:
            read.clear()
            triple = identity_violation(a, kind)
            if triple is None:
                assert cocycle_space(a, kind).h2_dim == naive_h2_dim(a, kind), (a, kind)
                outcomes["holds"] += 1
                continue
            message = f"^algebra does not satisfy {kind.value} at {re.escape(str(triple))}$"
            with pytest.raises(IdentityViolated, match=message):
                cocycle_space(a, kind)
            outcomes["early" if len(read) < len(list(rows(a, kind))) else "full"] += 1
    assert min(outcomes["holds"], outcomes["early"], outcomes["full"]) >= 10, outcomes


@pytest.mark.parametrize("field", [Q, Field.gf(3)], ids=str)
def test_a_successful_solve_walks_no_identity(field, monkeypatch):
    # the coboundary audit decides the identity: identity_violation runs only once it fails
    calls = []

    def counted(a, kind):
        calls.append(kind)
        return identity_violation(a, kind)

    monkeypatch.setattr(algebra, "identity_violation", counted)
    monkeypatch.setattr(cohomology, "identity_violation", counted)
    parts = (BlockDescriptor("j", 2), BlockDescriptor("gamma", 2))
    assert cli._sweep_row("j:2+gamma:2", make_from_text("j:2+gamma:2", field), parts, field).ok
    a = _in_basis(make_from_text("j:3", field), _random_basis(random.Random(f"walk {field}"), field, 4))
    assert multiplier_dim(a, IdentityKind.ASSOCIATIVE) == cover(a).kernel.dim == 8
    assert multiplier_dim(a, VALIDATED_LEIBNIZ) == multiplier_dim(make_from_text("j:3", field), VALIDATED_LEIBNIZ)
    assert z_star(a) == center(a) and not is_capable(a) and is_unicentral(a)
    assert calls == []
    with pytest.raises(IdentityViolated):
        multiplier_dim(Algebra(field, 2, {(0, 1): (1, 0)}), IdentityKind.ASSOCIATIVE)
    assert calls == [IdentityKind.ASSOCIATIVE]


@pytest.mark.parametrize("field", [Q, Field.gf(5)], ids=str)
@pytest.mark.parametrize("text", ["j:4", "gamma:5", "h2:3"])
def test_cocycle_space_z2_is_already_reduced(text, field):
    # the kernel of R comes from `kernel_of` without a second reduction, as
    # `cover` reads its complement; reducing it again must give the same pivot rows
    a = make_from_text(text, field)
    for kind in IdentityKind:
        z2 = _z2(a, cocycle_space(a, kind))
        assert z2.pivots == Subspace(field, z2.ambient_dim, list(z2.pivots.values())).pivots
        assert list(z2.pivots) == sorted(z2.pivots)


@pytest.mark.parametrize("field", [Q, Field.gf(5)], ids=str)
def test_kernel_basis_passes_no_emptied_row_to_sparse_reduce(field, monkeypatch):
    # the singleton presolve of an unbounded kernel_basis (the center's) empties
    # rows, two of them on gamma:2+h2n:2:1; those are no constraint and must not be
    # reduced.  kernel_basis and sparse_reduce both hand their rows to
    # reduce_ints, which consumes them, so copies are kept
    seen, reduce = [], linalg.reduce_ints

    def recording(work, rows, p=None, rank=None):
        rows = list(rows)
        seen.extend(map(dict, rows))
        return reduce(work, rows, p, rank)

    monkeypatch.setattr(linalg, "reduce_ints", recording)
    for text in ("gamma:5", "gamma:2+h2n:2:1"):
        a = make_from_text(text, field)
        seen.clear()
        assert center(a) == derived_ideal(a)
        assert seen and all(any(row.values()) for row in seen)


# -- the cocycle system read up to its rank ---------------------------------------


def _full_incidence_algebra(field, points=4):
    """e_xy for x <= y on a chain, e_xy e_yz = e_xz: associative, not nilpotent."""
    basis = [(x, y) for x in range(points) for y in range(x, points)]
    index = {pair: n for n, pair in enumerate(basis)}
    products = {(index[x, y], index[w, z]): {index[x, z]: 1} for x, y in basis for w, z in basis if y == w}
    return Algebra(field, len(basis), products)


def _bound(a):
    """d(2n - d), d = dim A^2: the dimension of A^2 (x) A + A (x) A^2."""
    d = derived_ideal(a).dim
    return d * (2 * a.dim - d)


def _assert_early_stop_reads_the_whole_system(a):
    """The kernel of the bounded R of every theory `a` satisfies is the kernel of
    all its rows, and Z* = A^2 where the associative rows reach their bound;
    returns, per theory, whether the rows reached their bound."""
    n, reached = a.dim, []
    # A^2 (x) A + A (x) A^2 as vectors f(x_i, x_j) -> i * n + j, built from A^2's basis
    tensors = (
        {m * n + r if left else r * n + m: x for m, x in w.items()}
        for w in derived_ideal(a)._rows.values() for r in range(n) for left in (True, False)
    )
    held = Subspace._span(a.field, n * n, tensors)
    assert held.dim == _bound(a), a
    for kind in IdentityKind:
        if not check_identity(a, kind):
            continue
        rows = list(cohomology._cocycle_rows(a, kind))
        assert held.contains_subspace(Subspace._span(a.field, n * n, map(dict, rows))), (a, kind)
        full = linalg.kernel_basis(a.field, n * n, rows)
        cs = cocycle_space(a, kind)
        # h2 is read off R, and the kernel of R is the z2 of all the rows
        assert cs.h2_dim == full.dim - cs.b2.dim, (a, kind)
        z2 = _z2(a, cs)
        assert z2 == full and z2.pivots == full.pivots, (a, kind)
        assert n * n - full.dim <= _bound(a)
        reached.append(n * n - full.dim == _bound(a))
        if kind is IdentityKind.ASSOCIATIVE and reached[-1]:
            # R spans A^2 (x) A + A (x) A^2, so z2 is its annihilator and Z* = A^2
            assert z_star(a) == derived_ideal(a), a
    return reached


LAZY_TEXTS = [
    "j:1", "j:2", "h2:-1", "j:4", "gamma:3", "gamma:5",
    "j:1+gamma:3", "j:2+h2:-1", "gamma:2+h2n:2:1",
]


@pytest.mark.parametrize("field", FIELDS + [Field.gf(10007)], ids=str)
def test_an_early_stop_read_equals_a_full_read(field):
    rng = random.Random(f"early stop {field}")
    for text in LAZY_TEXTS:
        a = make_from_text(text, field)
        # J1, J2 and H2(-1) have an exceptional multiplier, so their rows fall
        # short of the bound in some theory; every other extra special reaches it
        reached = _assert_early_stop_reads_the_whole_system(a)
        assert all(reached) is (text not in ("j:1", "j:2", "h2:-1")), text
        _assert_early_stop_reads_the_whole_system(algebra_from_form(scrambled(rng, form_of(a).m)))
    for kind in ("class 2", "class 2", "nilpotent"):
        _assert_early_stop_reads_the_whole_system(_seeded_associative(rng, field, kind))
    assert _assert_early_stop_reads_the_whole_system(_full_incidence_algebra(field)) == [False]


@pytest.mark.parametrize("flag,text", CASES, ids=[f"{f} {t}" for f, t in CASES])
def test_an_early_stop_read_equals_a_full_read_in_a_dense_basis(flag, text):
    # the bound is d(2n - d) in every basis, so a dense basis stops where the catalog basis does
    field = _field(flag)
    a = make_from_text(text, field)
    reached = _assert_early_stop_reads_the_whole_system(
        _in_basis(a, _random_basis(random.Random(f"basis {flag} {text}"), field, a.dim)))
    assert all(reached) is (text not in ("j:1", "j:2", "h2:-1")), text


def _rows_read(a, kind, monkeypatch):
    """The cocycle space of `kind` on `a`, and the constraint rows its solve read."""
    read, rows = [], cohomology._cocycle_rows

    def counted(a, kind):
        for row in rows(a, kind):
            read.append(row)
            yield row

    monkeypatch.setattr(cohomology, "_cocycle_rows", counted)
    return cocycle_space(a, kind), read


@pytest.mark.parametrize("field", [Q, Field.gf(7)], ids=str)
def test_the_assoc_solve_of_gamma18_reads_at_most_three_times_its_bound_in_rows(field, monkeypatch):
    rows, a = cohomology._cocycle_rows, make_from_text("gamma:18", field)
    cs, read = _rows_read(a, IdentityKind.ASSOCIATIVE, monkeypatch)
    bound = _bound(a)
    assert bound == 2 * a.dim - 1 == a.dim ** 2 - _z2(a, cs).dim
    assert len(read) <= 3 * bound < len(list(rows(a, IdentityKind.ASSOCIATIVE)))


@pytest.mark.parametrize("field", [Q, Field.gf(7)], ids=str)
def test_the_leibniz_solve_of_gamma18_reads_at_most_60_rows(field, monkeypatch):
    # the walk reads the brackets of adjacent factors before (x_i x_k) x_j, whose rows
    # mostly repeat theirs: 56 rows reach the bound of 37, where 73 did in the order of the terms
    a = make_from_text("gamma:18", field)
    cs, read = _rows_read(a, IdentityKind.LEIBNIZ_LEFT, monkeypatch)
    assert _bound(a) == 2 * a.dim - 1 == a.dim ** 2 - _z2(a, cs).dim
    assert len(read) <= 60


@pytest.mark.parametrize("flag", ["Q", "GF:7"])
@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda kind: kind.value)
def test_a_dense_gamma12_solve_reads_at_most_five_rows_past_its_rank(kind, flag, monkeypatch):
    # the bound d(2n - d) = 25 holds in every basis: in a seeded dense basis, where every
    # product touches every coordinate, the read still stops once the rank reaches it
    field = _field(flag)
    a = make_from_text("gamma:12", field)
    a = _in_basis(a, _random_basis(random.Random(f"dense row {flag} gamma:12"), field, a.dim))
    cs, read = _rows_read(a, kind, monkeypatch)
    assert len(cs.constraints) == _bound(a) == 25
    assert len(read) <= len(cs.constraints) + 5


#: x1 x2 = z1, x2 x3 = z2, x3 x1 = z1 + z2: dim 5, d = dim A^2 = 2
CYCLIC = {(0, 1): {3: 1}, (1, 2): {4: 1}, (2, 0): {3: 1, 4: 1}}


@pytest.mark.parametrize("flag,text", [("Q", "gamma:12"), ("GF:7", "gamma:12"), ("Q", "cyclic"), ("GF:3", "cyclic")])
def test_the_center_and_b2_read_only_the_pivots_of_a2_in_a_dense_basis(flag, text, monkeypatch):
    # in a seeded dense basis the products touch n or n - 1 coordinates, but the center's
    # kernel gets at most 2n d rows and b2 is spanned from exactly d rows, d = dim A^2:
    # the coordinates at A^2's pivots (a read of every coordinate gives dense gamma:12 338 over Q)
    field = _field(flag)
    a = make_from_text(text, field) if text != "cyclic" else Algebra(field, 5, CYCLIC)
    a = _in_basis(a, _random_basis(random.Random(f"dense row {flag} {text}"), field, a.dim))
    n, d, kernel, span = a.dim, derived_ideal(a).dim, algebra.kernel_basis, Subspace._span.__func__
    assert len(set().union(*a._table.values())) >= n - 1  # the coordinates the products touch
    center_rows, b2_rows = [], []

    def counted_kernel(field, ncols, rows):
        rows = list(rows)
        center_rows.append(len(rows))
        return kernel(field, ncols, rows)

    def counted_span(cls, field, ambient_dim, rows):
        rows = list(rows)
        if ambient_dim == n * n:
            b2_rows.append(len(rows))
        return span(cls, field, ambient_dim, rows)

    monkeypatch.setattr(algebra, "kernel_basis", counted_kernel)
    monkeypatch.setattr(Subspace, "_span", classmethod(counted_span))
    assert center(a).dim == (1 if text == "gamma:12" else 2)
    assert center_rows and center_rows[0] <= 2 * n * d
    for kind in IdentityKind:
        cs = cocycle_space(a, kind)
        assert cs.b2.dim == d and cs.h2_dim == n * n - len(cs.constraints) - d
    assert b2_rows == [d] * len(IdentityKind)


@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda kind: kind.value)
def test_the_walk_yields_one_row_per_triple_that_a_bracket_touches(kind):
    # brute force over all n^3 triples: a triple has a row iff one of its term's brackets
    # is a nonzero product, and the row is the oracle's linearized identity on it, in ints
    rng, gf3 = random.Random("walk"), Field.gf(3)
    scramble = algebra_from_form(scrambled(rng, form_of(make_from_text("j:1+gamma:3", gf3)).m))
    for a in (make_from_text("j:2+gamma:2+h2:3", Q), scramble, _full_incidence_algebra(Q)):
        n, field, expected = a.dim, a.field, collections.Counter()
        for i, j, k in itertools.product(range(n), repeat=3):
            brackets = [(i, j), (j, k)] + ([(i, k)] if kind is not IdentityKind.ASSOCIATIVE else [])
            if any(any(a.product(*pair)) for pair in brackets):
                dense = naive_constraint_row(a, kind, i, j, k)
                (row,), den = field.ints([{c: x * field.scalar(a._den) for c, x in enumerate(dense) if x}])
                assert den == 1
                expected[frozenset(row.items())] += 1
        walked = collections.Counter(frozenset(row.items()) for row in cohomology._cocycle_rows(a, kind))
        assert walked == expected, (a, kind)


def _oracle_inputs():
    gf3, gf5 = Field.gf(3), Field.gf(5)
    rng = random.Random("oracle dims 4-7")
    for text in ["j:3", "gamma:3", "j:4", "h2n:2:2", "j:2+h2:-1", "gamma:5", "j:6", "gamma:6"]:
        yield make_from_text(text, Q)
    # p <= dim: congruence scrambles and dense bases over GF(3) and GF(5)
    for field, text in [(gf3, "gamma:3"), (gf3, "j:1+gamma:3"), (gf5, "j:4"), (gf5, "gamma:2+h2n:2:1")]:
        a = make_from_text(text, field)
        yield algebra_from_form(scrambled(rng, form_of(a).m))
        yield _in_basis(a, _random_basis(rng, field, a.dim))
    for field in (Q, gf3, gf5):
        for kind in ("class 2", "nilpotent", "idempotent"):
            yield _seeded_associative(rng, field, kind)
    # dim A^2 = d >= 2 in a dense basis: CYCLIC reaches the bound d(2n - d) = 16 in every
    # theory; the covers of J2 and H2(-1), with d = 4, fall short
    yield _in_basis(Algebra(Q, 5, CYCLIC), _random_basis(rng, Q, 5))
    for a in (Algebra(gf3, 5, CYCLIC), *(cover(make_from_text(text, gf3)).total for text in ("j:2", "h2:-1"))):
        yield _in_basis(a, _random_basis(rng, gf3, a.dim))


def test_multiplier_matches_the_naive_oracle_in_dims_4_to_7():
    checked, reached = 0, set()
    for a in _oracle_inputs():
        if not 4 <= a.dim <= 7:
            continue
        for kind in IdentityKind:
            if check_identity(a, kind):
                cs = cocycle_space(a, kind)
                assert cs.h2_dim == naive_h2_dim(a, kind), (a, kind)
                checked += 1
                if derived_ideal(a).dim >= 2 and len(cs.constraints) == _bound(a):
                    reached.add(kind)
    # an early stop with d >= 2 is checked in every theory
    assert checked >= 40 and reached == set(IdentityKind)


# -- multiplier dimensions -------------------------------------------------------


def test_gamma3_multiplier_is_eight():
    assert multiplier_dim(gamma(3), IdentityKind.ASSOCIATIVE) == 8


def test_leibniz_exceptional_values():
    assert multiplier_dim(h(1, -1), VALIDATED_LEIBNIZ) == 5
    assert multiplier_dim(j(2), VALIDATED_LEIBNIZ) == 4
    assert multiplier_dim(j(1), VALIDATED_LEIBNIZ) == 1


def test_leibniz_orientation_is_fixed_empirically():
    """Both orientations must reproduce the published low-dimensional values
    on the probes that could distinguish them; the exported constant has to
    be one of the validated orientations."""
    probes = {
        j(1): 1,
        j(2): 4,
        h(1, -1): 5,
        j(3): 8,
        gamma(2): 3,
        h(1, 3): 3,
    }
    validated = []
    for kind in (IdentityKind.LEIBNIZ_LEFT, IdentityKind.LEIBNIZ_RIGHT):
        if all(multiplier_dim(a, kind) == want for a, want in probes.items()):
            validated.append(kind)
    assert VALIDATED_LEIBNIZ in validated


# -- covers ---------------------------------------------------------------------


def test_cover_of_j1_shape():
    ext = cover(j(1))
    assert ext.total.dim == 3
    prods = {(i, jj): ext.total.product(i, jj) for i, jj, _ in ext.total.nonzero_products()}
    z, m = (0, 1, 0), (0, 0, 1)
    assert prods == {
        (0, 0): tuple(Fraction(x) for x in z),
        (0, 1): tuple(Fraction(x) for x in m),
        (1, 0): tuple(Fraction(x) for x in m),
    }
    assert center(ext.total).basis == ((Fraction(0), Fraction(0), Fraction(1)),)


def test_cover_of_j2():
    ext = cover(j(2))
    total = ext.total
    assert total.dim == 6
    assert ext.kernel.dim == 3
    # x_i z = z x_i = 0 in the total algebra
    for i in range(3):
        assert not any(total.product(i, 2)) and not any(total.product(2, i))
    # the three kernel coordinates are realized by squares and the reversed product
    realized = {
        (i, jj) for i, jj, _ in total.nonzero_products() if any(total.product(i, jj)[3:])
    }
    assert realized == {(0, 0), (1, 0), (1, 1)}


def test_cover_dimension_formula():
    for a in [j(1), j(3), gamma(2), h(1, 3), central_sum(j(1), j(2))]:
        ext = cover(a)
        assert ext.total.dim == a.dim + multiplier_dim(a, IdentityKind.ASSOCIATIVE)


def test_cover_is_stem():
    for a in [j(1), j(2), gamma(2), h(1, -1)]:
        ext = cover(a)
        c = center(ext.total)
        d = derived_ideal(ext.total)
        for v in ext.kernel.basis:
            assert c.contains(v)
            assert d.contains(v)


def test_cover_quotient_reproduces_input():
    for a in [j(2), gamma(3), h(1, 3)]:
        ext = cover(a)
        for i in range(a.dim):
            for jj in range(a.dim):
                assert ext.total.product(i, jj)[: ext.base_dim] == a.product(i, jj)


def test_cover_total_is_associative_on_small_inputs():
    for a in [j(1), j(2), Algebra.zero(Q, 1)]:
        assert check_identity(cover(a).total, IdentityKind.ASSOCIATIVE)


def test_cover_of_zero_algebra_is_j1():
    ext = cover(Algebra.zero(Q, 1))
    assert ext.total.dim == 2
    prods = list(ext.total.nonzero_products())
    assert len(prods) == 1
    i, jj, _ = prods[0]
    vec = ext.total.product(i, jj)
    assert (i, jj) == (0, 0)
    assert not vec[0] and vec[1]


def test_cover_requires_associativity():
    bad = Algebra(Q, 2, {(0, 1): (1, 0)})
    with pytest.raises(NotAssociative):
        cover(bad)


def test_cover_class_invariant_under_coboundary_shift():
    """Shifting the chosen complement by coboundaries must not change any
    dimension data of the extension (covers are unique up to isomorphism)."""
    rng = random.Random(77)
    for a in [j(2), gamma(2), h(1, 3)]:
        cs = cocycle_space(a, IdentityKind.ASSOCIATIVE)
        complement = [
            v
            for v in _z2(a, cs).basis
            if next(i for i, x in enumerate(v) if x)
            not in {next(i for i, x in enumerate(w) if x) for w in cs.b2.basis}
        ]
        shifted = []
        for v in complement:
            acc = list(v)
            for w in cs.b2.basis:
                coef = Fraction(rng.randint(-3, 3))
                acc = [x + coef * y for x, y in zip(acc, w)]
            shifted.append({c: x for c, x in enumerate(acc) if x})
        reference = cover(a).total
        candidate = _extension_by(a, shifted)
        assert candidate.dim == reference.dim
        assert center(candidate).dim == center(reference).dim
        assert derived_ideal(candidate).dim == derived_ideal(reference).dim
        # quotient structure constants agree with the input either way
        for i in range(a.dim):
            for jj in range(a.dim):
                assert candidate.product(i, jj)[: a.dim] == a.product(i, jj)


# -- Z*, capability ---------------------------------------------------------------


def test_z_star_values():
    assert z_star(j(1)).dim == 0
    zs = z_star(j(2))
    assert zs.basis == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert zs == center(j(2))
    assert z_star(Algebra.zero(Q, 1)).dim == 0


def test_z_star_contained_in_center():
    for a in [j(1), j(4), gamma(2), h(1, -1), Algebra.zero(Q, 2)]:
        assert center(a).contains_subspace(z_star(a))


def _assert_cover_route_agrees(a):
    expected = cover_z_star(a)
    assert z_star(a) == expected, a
    assert is_capable(a) == (expected.dim == 0), a
    assert is_unicentral(a) == (expected == center(a)), a
    return expected


def _seeded_associative(rng, field, kind):
    """A seeded associative algebra of the given kind, in a seeded dense basis.

    "class 2": V + W with a random product V x V -> W and every other
    product zero, so every triple product vanishes.  Otherwise a subalgebra
    of the incidence algebra of a seeded poset on four points: e_xy for
    x < y, plus one idempotent e_xx unless `kind` is "nilpotent"; e_xy e_yz
    = e_xz.
    """
    if kind == "class 2":
        v, w = rng.randint(2, 3), rng.randint(1, 3)
        products = {
            (i, j): {v + k: rng.randint(-2, 2) for k in range(w)} for i in range(v) for j in range(v)
        }
        return _in_basis(Algebra(field, v + w, products), _random_basis(rng, field, v + w))
    less = {(x, y) for x in range(4) for y in range(x + 1, 4) if rng.random() < 0.6}
    for k in range(4):  # transitive closure (Warshall)
        less |= {(x, z) for x, y in less for w, z in less if y == k == w}
    basis = sorted(less)
    if kind != "nilpotent":
        basis.append((rng.randrange(4),) * 2)
    index = {pair: n for n, pair in enumerate(basis)}
    products = {
        (index[x, y], index[w, z]): {index[x, z]: 1} for x, y in basis for w, z in basis if y == w
    }
    a = Algebra(field, len(basis), products)
    return _in_basis(a, _random_basis(rng, field, a.dim)) if a.dim else a


CATALOG_TEXTS = [
    "j:1", "j:2", "j:4", "gamma:2", "gamma:3", "gamma:5", "h2:-1", "h2n:2:1",
    "j:1+j:1", "j:1+gamma:3", "j:2+h2:-1", "gamma:2+h2n:2:1",
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_z_star_agrees_with_the_cover_route_on_catalog_and_zero_algebras(field):
    for text in CATALOG_TEXTS:
        _assert_cover_route_agrees(make_from_text(text, field))
    for dim in (1, 2, 4):
        assert _assert_cover_route_agrees(Algebra.zero(field, dim)).dim == 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", ["nilpotent", "idempotent", "class 2"])
def test_z_star_agrees_with_the_cover_route_on_seeded_associative_algebras(field, kind):
    rng = random.Random(f"z_star {field} {kind}")
    drawn = (_seeded_associative(rng, field, kind) for _ in itertools.count())
    shapes = set()
    for a in itertools.islice((a for a in drawn if not is_extra_special(a)), 6):
        assert check_identity(a, IdentityKind.ASSOCIATIVE)
        shapes.add((a.dim, center(a).dim, _assert_cover_route_agrees(a).dim))
    assert len(shapes) >= 3


@pytest.mark.parametrize("flag,text", CASES, ids=[f"{f} {t}" for f, t in CASES])
def test_z_star_agrees_with_the_cover_route_in_a_dense_basis(flag, text):
    field = _field(flag)
    a = make_from_text(text, field)
    _assert_cover_route_agrees(_in_basis(a, _random_basis(random.Random(f"basis {flag} {text}"), field, a.dim)))


def _annihilator_of_z2(a):
    """Z* as the two-sided annihilator of every basis cocycle of the full z2."""
    n, rows = a.dim, {}
    for l, f in enumerate(_z2(a, cocycle_space(a, IdentityKind.ASSOCIATIVE))._rows.values()):
        for c, x in f.items():
            i, jj = divmod(c, n)
            rows.setdefault(("L", l, jj), {})[i] = x  # f(u, x_jj) = sum_i u_i f(x_i, x_jj)
            rows.setdefault(("R", l, i), {})[jj] = x  # f(x_i, u) = sum_jj u_jj f(x_i, x_jj)
    return linalg.kernel_basis(a.field, n, rows.values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_z_star_by_reduction_equals_the_annihilator_of_z2_and_the_cover_route(field):
    # p <= dim in GF(3) and GF(5); scrambled forms, dense bases and algebras with
    # a center larger than A^2, where Z* sits strictly between 0 and the center
    rng = random.Random(f"z_star reduction {field}")
    inputs = [make_from_text(text, field) for text in CATALOG_TEXTS]
    inputs += [algebra_from_form(scrambled(rng, form_of(a).m)) for a in inputs[1:6]]
    inputs += [_in_basis(a, _random_basis(rng, field, a.dim)) for a in inputs[2:7]]
    inputs += [_seeded_associative(rng, field, kind) for kind in ("class 2", "nilpotent", "idempotent") * 2]
    inputs += [_full_incidence_algebra(field), Algebra.zero(field, 3)]
    shapes, reached = set(), set()
    for a in inputs:
        zs = _assert_cover_route_agrees(a)
        assert zs == _annihilator_of_z2(a), a
        shapes.add((zs.dim > 0, zs == center(a)))
        reached.add(len(cocycle_space(a, IdentityKind.ASSOCIATIVE).constraints) == _bound(a))
    assert shapes >= {(False, False), (False, True), (True, True)}
    # Z* = A^2 with no reduction at the bound, by remainders short of it: both routes are checked
    assert reached == {False, True}


def _no_remainder(*args):
    raise AssertionError("a remainder was reduced")


@pytest.mark.parametrize("field", [Q, Field.gf(3)], ids=str)
def test_z_star_is_a2_with_no_remainder_once_the_read_reaches_its_bound(field, monkeypatch):
    dense = make_from_text("gamma:12", Q)
    dense = _in_basis(dense, _random_basis(random.Random("dense row Q gamma:12"), Q, dense.dim))
    inputs = [make_from_text(text, field) for text in ("gamma:4", "j:3+gamma:2")] + [dense, Algebra.zero(Q, 3)]
    monkeypatch.setattr(cohomology, "_clear_pivots", _no_remainder)
    for a in inputs:
        assert len(cocycle_space(a, IdentityKind.ASSOCIATIVE).constraints) == _bound(a), a
        assert z_star(a) == derived_ideal(a), a


def test_a_read_short_of_its_bound_takes_the_remainders(monkeypatch):
    # j:1 reads rank 2 < d(2n - d) = 3: Z* = 0 though A^2 = span(z), by reduction
    a = j(1)
    assert len(cocycle_space(a, IdentityKind.ASSOCIATIVE).constraints) == 2 < _bound(a) == 3
    assert z_star(a).dim == 0 < derived_ideal(a).dim
    monkeypatch.setattr(cohomology, "_clear_pivots", _no_remainder)
    with pytest.raises(AssertionError, match="remainder"):
        z_star(a)


def test_each_audit_can_fail(monkeypatch):
    # a constraint row that kills a coboundary trips the audit R b2^T = 0
    a, rows = j(2), cohomology._cocycle_rows
    monkeypatch.setattr(cohomology, "_cocycle_rows", lambda a, kind: itertools.chain([{1: 1}], rows(a, kind)))
    with pytest.raises(InternalCheckFailure, match="coboundary"):
        cocycle_space(a, IdentityKind.ASSOCIATIVE)
    monkeypatch.undo()
    # a Z* that is not inside the center trips the Z* audit on either route: on a read short
    # of its bound (j:1), the remainders' kernel solves all n unknowns
    monkeypatch.setattr(cohomology, "kernel_basis", lambda field, n, rows: Subspace(field, n, [[1] * n]))
    with pytest.raises(InternalCheckFailure, match="center"):
        z_star(j(1))
    monkeypatch.undo()
    # at the bound (gamma:3), Z* = A^2 meets the audit against a center with nothing in it
    monkeypatch.setattr(cohomology, "center", lambda a: Subspace(a.field, a.dim, []))
    with pytest.raises(InternalCheckFailure, match="Z\\* escaped the center"):
        z_star(gamma(3))


@pytest.mark.parametrize("flag,text", CASES, ids=[f"{f} {t}" for f, t in CASES])
def test_cover_built_on_ints_equals_the_scalar_build(flag, text):
    # the complement's scalar rows, 1 at the pivot, through the Algebra constructor
    # give the canonical total algebra that `cover` builds on ints
    field = _field(flag)
    a = make_from_text(text, field)
    a = _in_basis(a, _random_basis(random.Random(f"cover {flag} {text}"), field, a.dim))
    cs = cocycle_space(a, IdentityKind.ASSOCIATIVE)
    complement = [row for c, row in _z2(a, cs).pivots.items() if c not in cs.b2._rows]
    total = cover(a).total
    assert total == _extension_by(a, complement)
    assert total.basis_names == (*a.basis_names, *(f"m{l + 1}" for l in range(len(complement))))


@pytest.mark.parametrize("fn", [z_star, is_capable, is_unicentral])
def test_z_star_refuses_a_non_associative_algebra(fn):
    bad = Algebra(Q, 2, {(0, 1): (1, 0)})
    with pytest.raises(NotAssociative, match="^covers are defined for associative algebras$"):
        fn(bad)


def test_z_star_and_the_sweep_build_no_cover(monkeypatch):
    def no_cover(a):
        raise AssertionError("a cover was built")

    monkeypatch.setattr(cohomology, "cover", no_cover)
    monkeypatch.setattr(cli, "cover", no_cover)
    assert z_star(j(2)) == center(j(2))
    assert is_capable(j(1)) and is_unicentral(gamma(3))
    rows = cli.verify_theorems(2, [Q.coerce(3)], Q, pair_dim_cap=5)
    assert rows and all(r.ok for r in rows)


def test_capability_dichotomy():
    assert is_capable(j(1)) and not is_unicentral(j(1))
    for a in [j(2), j(4), gamma(2), h(1, -1), central_sum(j(2), j(2))]:
        assert not is_capable(a)
        assert is_unicentral(a)


def test_multiplier_matches_central_sum_formula():
    s = central_sum(j(2), j(2))
    assert multiplier_dim(s, IdentityKind.ASSOCIATIVE) == 15  # (5-1)^2 - 1
