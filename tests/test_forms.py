"""Form extraction, cosquares, regularization, and block classification."""

import random
from fractions import Fraction

import pytest

from extraspecial import algebra, forms
from extraspecial.algebra import Algebra, center
from extraspecial.catalog import (
    BlockDescriptor,
    central_sum,
    make_canonical,
    make_from_text,
    parse_descriptor,
)
from extraspecial.errors import (
    DegenerateVector,
    DoesNotSplit,
    NotExtraSpecial,
    Singular,
    UnpairedEigenvalue,
    Unsupported,
)
from extraspecial.forms import (
    BilinearForm,
    BlockDecomposition,
    _pair_cosquare_blocks,
    algebra_from_form,
    classify,
    cosquare,
    form_of,
    regularize,
)
from extraspecial.linalg import Matrix
from extraspecial.scalars import Field
from oracle_cosquare import cosquare_blocks

Q = Field.rationals()
GF3 = Field.gf(3)
GF5 = Field.gf(5)
GF7 = Field.gf(7)
GF10007 = Field.gf(10007)
GF100003 = Field.gf(100003)


def alg(descriptor_args):
    return make_canonical(BlockDescriptor(*descriptor_args), Q)


def form_matrix(rows, field=Q):
    return BilinearForm(Matrix(field, rows))


def random_invertible(rng, field, n):
    while True:
        p = Matrix(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            p.inverse()
            return p
        except Singular:
            continue


def scrambled(rng, m):
    p = random_invertible(rng, m.field, m.nrows)
    return p.transpose().matmul(m).matmul(p)


# -- form extraction ----------------------------------------------------------


def test_form_of_j2():
    f = form_of(alg(("j", 2)))
    assert f.m.rows == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))


def test_form_of_h2_lambda():
    f = form_of(alg(("h", 1, 3)))
    assert f.m.rows == ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(0)))


def test_form_of_gamma2():
    f = form_of(alg(("gamma", 2)))
    assert f.m.rows == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(1)))


def test_form_of_j1():
    assert form_of(alg(("j", 1))).m.rows == ((Fraction(1),),)


def test_form_of_rejects_non_extra_special():
    with pytest.raises(NotExtraSpecial):
        form_of(Algebra.zero(Q, 2))


def test_classify_solves_the_center_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return center(a)

    # forms reads the center through algebra.extra_special_center
    monkeypatch.setattr(algebra, "center", counted)
    for shape, field in [("j:3+h2:2", Q), ("gamma:3+j:1", GF5), ("h2n:2:3", GF7)]:
        a = make_from_text(shape, field)
        calls.clear()
        classify(a)
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(NotExtraSpecial, match="forms are defined for extra special algebras"):
        classify(Algebra.zero(Q, 2))
    assert len(calls) == 1


def test_a_sweep_row_solves_the_center_once(monkeypatch):
    # _sweep_row hands the center it solves to Z* and to classify
    from extraspecial import cli, cohomology

    calls = []

    def counted(a):
        calls.append(a)
        return center(a)

    for module in (algebra, cli, cohomology):
        monkeypatch.setattr(module, "center", counted)
    for name, field in [("j:3+h2:2", Q), ("gamma:3+j:1", GF5), ("h2n:2:3", GF7), ("j:1", Q)]:
        parts = [parse_descriptor(p, field) for p in name.split("+")]
        a = make_from_text(name, field)
        calls.clear()
        row = cli._sweep_row(name, a, tuple(parts), field)
        assert row.ok and row.detail["classify_ok"]
        assert len(calls) == 1


def test_form_has_no_degenerate_index():
    for args in [("j", 4), ("gamma", 3), ("h", 2, 2)]:
        f = form_of(alg(args))
        n = f.m.nrows
        for i in range(n):
            row_zero = not any(f.m.rows[i])
            col_zero = not any(f.m.rows[r][i] for r in range(n))
            assert not (row_zero and col_zero)


# -- cosquare -------------------------------------------------------------------


def test_cosquare_of_unit_form():
    assert cosquare(form_matrix([[1]])).rows == ((Fraction(1),),)


def test_cosquare_of_h2_form_is_diagonal():
    lam = Fraction(5)
    c = cosquare(form_matrix([[0, 1], [lam, 0]]))
    assert c.rows == ((lam, Fraction(0)), (Fraction(0), Fraction(1) / lam))


def test_cosquare_of_gamma2_form():
    c = cosquare(form_matrix([[0, -1], [1, 1]]))
    assert c.rows == ((Fraction(-1), Fraction(-2)), (Fraction(0), Fraction(-1)))


def test_cosquare_rejects_singular():
    with pytest.raises(Singular):
        cosquare(form_matrix([[0, 1], [0, 0]]))


# -- regularize -------------------------------------------------------------------


def test_regularize_pure_singular_block():
    regular, sizes = regularize(form_matrix([[0, 1], [0, 0]]))
    assert regular == []
    assert sizes == (2,)


def test_regularize_already_invertible():
    regular, sizes = regularize(form_matrix([[1]]))
    assert sizes == ()
    assert regular == [BlockDescriptor("j", 1)]


def test_regularize_j3_plus_h2():
    s = central_sum(alg(("j", 3)), alg(("h", 1, 3)))
    regular, sizes = regularize(form_of(s))
    assert sizes == (3,)
    assert regular == [BlockDescriptor("h", 1, Fraction(1, 3))]


def test_regularize_rejects_degenerate_vector():
    with pytest.raises(DegenerateVector):
        regularize(form_matrix([[0, 0], [0, 1]]))


def test_regularize_handles_odd_even_chain_mix():
    # J5 + J4 and J6 + J3 have the same two-sided nullity sequences; the
    # chain/pencil combination must still tell them apart
    a = central_sum(alg(("j", 5)), alg(("j", 4)))
    b = central_sum(alg(("j", 6)), alg(("j", 3)))
    _, sizes_a = regularize(form_of(a))
    _, sizes_b = regularize(form_of(b))
    assert sizes_a == (4, 5)
    assert sizes_b == (3, 6)


def test_regularize_preserves_rank_and_cosquare_class():
    # the regular descriptors name the cosquare class of the invertible part
    rng = random.Random(99)
    s = central_sum(alg(("gamma", 2)), alg(("j", 3)))
    f = form_of(s)
    regular0, sizes0 = regularize(f)
    assert regular0 == [BlockDescriptor("gamma", 2)]
    for _ in range(5):
        g = BilinearForm(scrambled(rng, f.m))
        assert g.m.rank() == f.m.rank()
        assert regularize(g) == (regular0, sizes0)


# -- classify ---------------------------------------------------------------------


SWEEP = [
    ("j", 1),
    ("j", 2),
    ("j", 5),
    ("j", 8),
    ("gamma", 2),
    ("gamma", 5),
    ("gamma", 8),
    ("h", 1, Fraction(2)),
    ("h", 1, Fraction(3)),
    ("h", 1, Fraction(-1)),
    ("h", 1, Fraction(5)),
    ("h", 2, Fraction(2)),
    ("h", 3, Fraction(3)),
    ("h", 3, Fraction(-1)),
    ("h", 4, Fraction(5)),
]


@pytest.mark.parametrize("args", SWEEP, ids=lambda a: ":".join(map(str, a)))
def test_classify_round_trip(args):
    d = BlockDescriptor(*args)
    assert classify(make_canonical(d, Q)) == BlockDecomposition(Q, [d])


def test_classify_accepts_inverted_lambda():
    a = make_canonical(BlockDescriptor("h", 1, Fraction(3)), Q)
    got = classify(a)
    assert got == BlockDecomposition(Q, [BlockDescriptor("h", 1, Fraction(3))])
    assert got == BlockDecomposition(Q, [BlockDescriptor("h", 1, Fraction(1, 3))])


def test_classify_scramble_recovery():
    rng = random.Random(4)
    s = central_sum(alg(("gamma", 3)), alg(("j", 2)))
    f = form_of(s).m
    expected = BlockDecomposition(
        Q, [BlockDescriptor("gamma", 3), BlockDescriptor("j", 2)]
    )
    for _ in range(5):
        a2 = algebra_from_form(scrambled(rng, f))
        assert classify(a2) == expected


def test_classify_distributes_over_central_sum():
    pairs = [
        (("j", 2), ("h", 1, Fraction(3))),
        (("gamma", 2), ("gamma", 2)),
        (("h", 2, Fraction(2)), ("j", 1)),
    ]
    for left, right in pairs:
        a, b = alg(left), alg(right)
        got = classify(central_sum(a, b))
        want = BlockDecomposition(
            Q, list(classify(a).blocks) + list(classify(b).blocks)
        )
        assert got == want


def test_classify_central_sum_is_commutative():
    a, b = alg(("j", 3)), alg(("h", 1, Fraction(2)))
    assert classify(central_sum(a, b)) == classify(central_sum(b, a))


def test_classify_central_sum_is_associative():
    a, b, c = alg(("j", 2)), alg(("gamma", 2)), alg(("h", 1, Fraction(3)))
    left = central_sum(central_sum(a, b), c)
    right = central_sum(a, central_sum(b, c))
    assert classify(left) == classify(right)
    union = BlockDecomposition(
        Q,
        list(classify(a).blocks) + list(classify(b).blocks) + list(classify(c).blocks),
    )
    assert classify(left) == union


def test_classify_unsupported_when_cosquare_does_not_split():
    # cosquare of [[1, 1], [-1, 1]] is a rotation with char poly t^2 + 1
    a = algebra_from_form(Matrix(Q, [[1, 1], [-1, 1]]))
    with pytest.raises(Unsupported):
        classify(a)


def test_classify_over_prime_field():
    d = BlockDescriptor("h", 1, GF7.coerce(3))
    a = make_canonical(d, GF7)
    assert classify(a) == BlockDecomposition(GF7, [d])


def test_classify_unsupported_over_prime_field():
    # -1 is not a square mod 7, so the rotation cosquare cannot split
    a = algebra_from_form(Matrix(GF7, [[1, 1], [-1, 1]]))
    with pytest.raises(Unsupported):
        classify(a)


def test_classify_scramble_recovery_over_prime_field():
    rng = random.Random(31)
    s = central_sum(
        make_canonical(BlockDescriptor("gamma", 2), GF7),
        make_canonical(BlockDescriptor("j", 2), GF7),
    )
    f = form_of(s).m
    expected = classify(s)
    for _ in range(5):
        a2 = algebra_from_form(scrambled(rng, f))
        assert classify(a2) == expected


def test_inverse_lambda_constructions_classify_equal():
    a = make_canonical(BlockDescriptor("h", 2, Fraction(2)), Q)
    b = make_canonical(BlockDescriptor("h", 2, Fraction(1, 2)), Q)
    assert classify(a) == classify(b)


def test_classify_with_center_away_from_last_coordinate():
    # J2 with basis order (z, x1, x2): products x1 x2 = z in slot 0
    a = Algebra(Q, 3, {(1, 2): (1, 0, 0)}, ["z", "x1", "x2"])
    assert classify(a) == BlockDecomposition(Q, [BlockDescriptor("j", 2)])


def test_classify_fractional_congruence_scramble():
    rng = random.Random(12)
    s = central_sum(alg(("h", 1, Fraction(3))), alg(("j", 2)))
    f = form_of(s).m
    n = f.nrows
    expected = classify(s)
    for _ in range(3):
        while True:
            p = Matrix(
                Q,
                [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ],
            )
            try:
                p.inverse()
                break
            except Singular:
                continue
        a2 = algebra_from_form(p.transpose().matmul(f).matmul(p))
        assert classify(a2) == expected


def test_classify_gamma_pair_vs_excluded_h_block():
    # a central sum of two Gamma_2 blocks occupies the lambda value the
    # H4 family excludes; classification must report the Gamma pair
    s = central_sum(alg(("gamma", 2)), alg(("gamma", 2)))
    assert classify(s) == BlockDecomposition(
        Q, [BlockDescriptor("gamma", 2), BlockDescriptor("gamma", 2)]
    )


@pytest.mark.parametrize(
    "blocks",
    [[(Fraction(2), 1), (Fraction(2), 1), (Fraction(1, 2), 1)], [(Fraction(-1), 1)]],
    ids=["no partner at 1/mu", "one half of H2(-1)"],
)
def test_unpaired_cosquare_blocks_are_refused(blocks):
    # the cosquare data of a form always pair up; anything else is a bug upstream
    with pytest.raises(UnpairedEigenvalue, match="has no partner"):
        _pair_cosquare_blocks(Q, blocks)


def test_block_decomposition_text_ordering():
    dec = BlockDecomposition(
        Q,
        [
            BlockDescriptor("h", 1, Fraction(3)),
            BlockDescriptor("j", 2),
            BlockDescriptor("gamma", 3),
            BlockDescriptor("j", 1),
        ],
    )
    assert dec.text() == "j:1+j:2+gamma:3+h2:1/3"


# -- cosquare oracle ----------------------------------------------------------------


# invertible forms only; over GF(3) and GF(5) every shape has p <= dim
INVERTIBLE_SHAPES = [
    (Q, "j:1"),
    (Q, "gamma:5"),
    (Q, "h2n:3:-1"),
    (Q, "gamma:2+gamma:2"),
    (Q, "j:1+gamma:4+h2:2"),
    (Q, "gamma:3+h2n:2:5"),
    (GF7, "gamma:6"),
    (GF7, "h2n:3:2"),
    (GF7, "j:1+j:1+gamma:3+h2:6"),
    (GF3, "gamma:3"),
    (GF3, "gamma:4"),
    (GF3, "h2n:2:1"),
    (GF3, "j:1+gamma:2+h2:2"),
    (GF5, "gamma:5"),
    (GF5, "h2n:3:2"),
    (GF5, "j:1+gamma:4+h2:2"),
    (Q, "j:1+gamma:3+h2n:4:5"),
    (Q, "j:1+j:1+j:1+gamma:3+gamma:3+h2:2+h2:3+h2n:3:2"),
]


@pytest.mark.parametrize(
    "field,shape", INVERTIBLE_SHAPES, ids=lambda x: str(x) if isinstance(x, Field) else x
)
def test_classify_agrees_with_cosquare_oracle(field, shape):
    a = make_from_text(shape, field)
    expected = BlockDecomposition(field, [parse_descriptor(p, field) for p in shape.split("+")])
    assert cosquare_blocks(a) == classify(a) == expected
    rng = random.Random(f"{field} {shape}")
    m = form_of(a).m
    for _ in range(2):
        a2 = algebra_from_form(scrambled(rng, m))
        assert cosquare_blocks(a2) == classify(a2) == expected


def fractional_scramble(rng, m):
    """P^T M P for a seeded invertible P with entries in {a/b : |a| <= 4, 1 <= b <= 3}."""
    n = m.nrows
    while True:
        p = Matrix(Q, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        try:
            p.inverse()
            return p.transpose().matmul(m).matmul(p)
        except Singular:
            continue


# forms of dims 6-10 whose pencils have Jordan chains longer than one step
INT_ROUTE_SHAPES = [
    (Q, "h2n:3:-1"),
    (Q, "gamma:3+h2n:2:5"),
    (Q, "j:1+gamma:4+h2:2"),
    (Q, "gamma:2+gamma:2+h2n:2:3"),
    (Q, "gamma:2+h2n:4:2"),
    (Q, "j:1+gamma:5+h2n:2:-2"),
    (GF3, "gamma:4+h2n:2:1"),
    (GF3, "j:1+gamma:3+gamma:3"),
    (GF5, "gamma:5+h2n:2:2"),
    (GF5, "j:1+h2n:3:-1"),
]


@pytest.mark.parametrize(
    "field,shape", INT_ROUTE_SHAPES, ids=lambda x: str(x) if isinstance(x, Field) else x
)
def test_classify_on_the_int_form_agrees_with_cosquare_oracle(field, shape, monkeypatch):
    # over Q the scrambles have non-integral entries, and the elimination of
    # some P(t0) must meet a pivot lead other than 1, which the int route
    # scales by; over GF(3) and GF(5), p <= dim
    leads = set()
    reduce = forms.reduce_ints

    def recording(work, rows, p=None, rank=None):
        touched = reduce(work, rows, p, rank)
        leads.update(row[c] for c, row in touched.items())
        return touched

    monkeypatch.setattr(forms, "reduce_ints", recording)
    a = make_from_text(shape, field)
    expected = BlockDecomposition(field, [parse_descriptor(p, field) for p in shape.split("+")])
    rng = random.Random(f"int route {field} {shape}")
    m = form_of(a).m
    assert 6 <= m.nrows <= 10
    for _ in range(2):
        g = fractional_scramble(rng, m) if field == Q else scrambled(rng, m)
        assert field != Q or any(x.denominator > 1 for row in g.rows for x in row)
        a2 = algebra_from_form(g)
        assert classify(a2) == cosquare_blocks(a2) == expected
    assert (field == Q) == any(lead != 1 for lead in leads)


# every element of GF(3) (and infinity) is an eigenvalue of the first pencil,
# so no evaluation point is free of regular blocks; the other two mix odd J
# blocks with even J, Gamma and H blocks
EDGE_SHAPES = [
    (GF3, "j:2+j:1+gamma:2"),
    (Q, "j:3+j:5+h2:2"),
    (GF5, "j:3+j:2+gamma:3+h2:2"),
]


@pytest.mark.parametrize(
    "field,shape", EDGE_SHAPES, ids=lambda x: str(x) if isinstance(x, Field) else x
)
def test_classify_edge_shapes_canonical_and_scrambled(field, shape):
    a = make_from_text(shape, field)
    expected = BlockDecomposition(field, [parse_descriptor(p, field) for p in shape.split("+")])
    assert classify(a) == expected
    rng = random.Random(f"edge {field} {shape}")
    m = form_of(a).m
    for _ in range(2):
        assert classify(algebra_from_form(scrambled(rng, m))) == expected


@pytest.mark.parametrize("field,shape", [
    (Q, "j:3+h2:2"), (Q, "gamma:4+h2n:2:3"), (GF3, "j:2+j:1+gamma:2"), (GF5, "gamma:3+h2:2"), (GF7, "j:4+h2n:2:3"),
], ids=lambda x: str(x) if isinstance(x, Field) else x)
def test_classify_on_the_int_form_equals_regularize_of_form_of(field, shape):
    # classify reads the form as int rows straight from the table: they must be
    # `Field.ints` of form_of's scalars, also in a dense basis, where over Q the
    # center row and the table carry denominators
    from test_basis_invariance import _in_basis, _random_basis

    rng = random.Random(f"int form {field} {shape}")
    a = make_from_text(shape, field)
    inputs = [a, _in_basis(a, _random_basis(rng, field, a.dim))]
    inputs += [algebra_from_form(scrambled(rng, form_of(b).m)) for b in inputs for _ in range(2)]
    for b in inputs:
        f = form_of(b)
        rows, den = forms._form_rows(b)
        assert rows == field.ints(map(dict, map(enumerate, f.m.rows)))[0]
        assert f.m.rows == tuple(tuple(field.scalar(row.get(c, 0), den) for c in range(len(rows))) for row in rows)
        regular, sizes = regularize(f)
        assert classify(b) == BlockDecomposition(field, [BlockDescriptor("j", s) for s in sizes] + regular)


def test_classify_names_the_rootless_factor_of_a_singular_pencil():
    # J5 beside a rotation over Q: the pencil is singular, and only t^2 + 1
    # of the invariant factors fails to split, whatever the basis
    rows = [[0] * 7 for _ in range(7)]
    for i in range(4):
        rows[i][i + 1] = 1
    rows[5][5], rows[5][6], rows[6][5], rows[6][6] = 1, 1, -1, 1
    rng = random.Random(5)
    m = Matrix(Q, rows)
    for g in (m, scrambled(rng, m), scrambled(rng, m)):
        with pytest.raises(DoesNotSplit) as exc:
            classify(algebra_from_form(g))
        assert exc.value.factor == [Fraction(1), Fraction(0), Fraction(1)]


def _dense_minimal_indices(field, a_rows, b_rows, count):
    """eps read from the nullities N_k of T_k, built densely: N_k - N_(k-1) = #{eps < k}.

    T_k has k block columns and k + 1 block rows, A in block (b, b) and B in block (b + 1, b).
    """
    n, zero = len(a_rows), field.zero
    eps, nullity, below = [], 0, 0
    for k in range(1, n + 1):
        t = [[zero] * (k * n) for _ in range((k + 1) * n)]
        for b in range(k):
            for i in range(n):
                for j, x in a_rows[i].items():
                    t[b * n + i][b * n + j] = field.coerce(x)
                for j, x in b_rows[i].items():
                    t[(b + 1) * n + i][b * n + j] = field.coerce(x)
        nullity, step = k * n - Matrix(field, t).rank(), nullity
        eps += [k - 1] * (nullity - step - below)
        below = nullity - step
        if len(eps) == count:
            return eps
    raise AssertionError("the nullities never reach the odd block count")


ODD_SHAPES = ["j:3+j:5+j:7", "j:9+gamma:8", "j:1+j:3+h2:2", "j:3+j:3+j:9"]


def _odd_index_cases(field, shape, seed):
    """(form, its int pencil rows a_rows and b_rows, the eps of its odd J blocks), canonical and scrambled."""
    expected = sorted((n - 1) // 2 for part in shape.split("+") if (n := int(part.split(":")[1])) % 2 and n > 1)
    rng = random.Random(f"{seed} {field} {shape}")
    m = form_of(make_from_text(shape, field)).m
    for g in (m, scrambled(rng, m), scrambled(rng, m)):
        b_rows = field.ints(map(dict, map(enumerate, g.rows)))[0]
        a_rows = [{j: row[i] for j, row in enumerate(b_rows) if i in row} for i in range(len(b_rows))]
        yield g, a_rows, b_rows, expected


@pytest.mark.parametrize("field", [Q, GF3, GF7], ids=str)
@pytest.mark.parametrize("shape", ODD_SHAPES)
def test_odd_indices_agree_with_dense_nullities(field, shape):
    # `_odd_indices` numbers the newest block's columns first; the rank of each T_k, and so
    # eps, must not depend on that order, canonical or scrambled, also when p <= dim
    for _, a_rows, b_rows, expected in _odd_index_cases(field, shape, "odd indices"):
        eps = forms._odd_indices(field.p, a_rows, b_rows, len(expected))
        assert eps == _dense_minimal_indices(field, a_rows, b_rows, len(expected)) == expected


def _spy_on_routes(monkeypatch) -> list:
    """Record [route] for every eps that `_regularize` reads, on either route, and eps once read."""
    seen = []
    for name, route in (("_chain_indices", "chain"), ("_odd_indices", "odd")):
        def spy(*args, read=getattr(forms, name), route=route):
            seen.append([route])
            seen[-1].append(read(*args))
            return seen[-1][1]
        monkeypatch.setattr(forms, name, spy)
    return seen


@pytest.mark.parametrize("field", [Q, GF3, GF7, GF10007, GF100003], ids=str)
@pytest.mark.parametrize("shape", ODD_SHAPES)
def test_chain_indices_agree_with_dense_nullities(field, shape, monkeypatch):
    # `regularize` reads eps off the kernel-preimage chain at the least t0 = 0, 1, 2, ...
    # that is no root of the minor.  Only over GF(3) may a scramble's minor have every
    # residue as a root, which leaves the ranks of T_k
    seen = _spy_on_routes(monkeypatch)
    for k, (g, a_rows, b_rows, expected) in enumerate(_odd_index_cases(field, shape, "chain indices")):
        seen.clear()
        _, sizes = regularize(BilinearForm(g))
        ((route, eps),) = seen
        assert eps == _dense_minimal_indices(field, a_rows, b_rows, len(expected)) == expected
        assert route == "chain" or (field == GF3 and k > 0)
        assert [s for s in sizes if s % 2] == [2 * e + 1 for e in expected]


def test_small_field_route_ranks_the_block_bidiagonal_matrices(monkeypatch):
    # over GF(3) every residue is a root of the minor of j:3+j:2+j:1+gamma:2, in
    # the catalog basis and scrambled, so no t0 is free of eigenvalues and eps
    # comes from the ranks of T_k; scrambles of j:3+j:2+gamma:2 land on either
    # route, and every one classifies the same
    seen = _spy_on_routes(monkeypatch)
    for shape, routes in (("j:3+j:2+j:1+gamma:2", {"odd"}), ("j:3+j:2+gamma:2", {"odd", "chain"})):
        a = make_from_text(shape, GF3)
        expected = BlockDecomposition(GF3, [parse_descriptor(p, GF3) for p in shape.split("+")])
        rng = random.Random(f"small field {shape}")
        seen.clear()
        assert classify(a) == expected
        for _ in range(8):
            assert classify(algebra_from_form(scrambled(rng, form_of(a).m))) == expected
        assert {route for route, _ in seen} == routes and all(eps == [1] for _, eps in seen)


@pytest.mark.parametrize("field,shape,route", [
    (Q, "j:3", "chain"), (GF7, "j:3", "chain"), (GF3, "j:3", "chain"), (GF3, "j:3+j:2+j:1+gamma:2", "odd"),
], ids=str)
def test_both_routes_refuse_a_degenerate_vector(field, shape, route, monkeypatch):
    # the form plus a zero row and column has eps = 0, whichever route reads eps
    seen = _spy_on_routes(monkeypatch)
    rows = form_of(make_from_text(shape, field)).m.rows
    m = Matrix(field, [[*row, 0] for row in rows] + [[0] * (len(rows) + 1)])
    rng = random.Random(f"degenerate {field} {shape}")
    for g in (m, scrambled(rng, m), scrambled(rng, m)):
        seen.clear()
        with pytest.raises(DegenerateVector):
            regularize(BilinearForm(g))
        assert seen == [[route]]


@pytest.mark.parametrize("field", [Q, GF7], ids=str)
@pytest.mark.parametrize("shape", ["gamma:80", "j:81", "gamma:40+h2n:20:3"])
def test_classify_of_large_canonical_forms(field, shape):
    # banded forms of size 80: the pencil minor's cost follows their fill-in, not n^3
    expected = BlockDecomposition(field, [parse_descriptor(p, field) for p in shape.split("+")])
    assert classify(make_from_text(shape, field)) == expected
