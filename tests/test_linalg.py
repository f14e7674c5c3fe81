"""Exact linear algebra: echelon forms, kernels, char polys, Jordan data."""

import random
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest

from extraspecial.catalog import BlockDescriptor, make_from_text
from extraspecial.errors import (
    DimensionMismatch,
    DoesNotSplit,
    FieldMismatch,
    InputError,
    InvalidDescriptor,
    NotSquare,
    Singular,
)
from extraspecial.forms import form_of
from extraspecial.linalg import (
    Matrix,
    Subspace,
    _idivmod,
    _imul,
    _ipowmod,
    kernel_basis,
    kernel_of,
    pencil_minor,
    poly_divmod,
    poly_mul,
    reduce_ints,
    roots_in_field,
    sparse_reduce,
)
from extraspecial.scalars import Field, Fp
from oracle_pencil import _as_int, oracle_pencil_minor
from oracle_roots import oracle_roots_in_field

Q = Field.rationals()
GF7 = Field.gf(7)


def M(rows, field=Q):
    return Matrix(field, rows)


# -- nullspace ---------------------------------------------------------------


def test_nullspace_identity_is_zero():
    assert Matrix.identity(Q, 2).nullspace().dim == 0


def test_nullspace_zero_matrix_is_everything():
    assert Matrix.zeros(Q, 2, 2).nullspace().dim == 2


def test_nullspace_single_row():
    ns = M([[1, 1]]).nullspace()
    assert ns.dim == 1
    assert ns.contains([1, -1])
    assert not ns.contains([1, 1])


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for field in (Q, GF7):
        for _ in range(60):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            m = Matrix(
                field,
                [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)],
            )
            assert m.rank() + m.nullspace().dim == ncols


# -- characteristic polynomial ----------------------------------------------


def test_char_poly_identity_2x2():
    assert Matrix.identity(Q, 2).char_poly() == [Fraction(1), Fraction(-2), Fraction(1)]


def test_char_poly_nilpotent():
    assert M([[0, 1], [0, 0]]).char_poly() == [Fraction(0), Fraction(0), Fraction(1)]


def test_char_poly_diag_lambda_inverse():
    # expand (t - 3)(t - 1/3) by hand: t^2 - (10/3) t + 1
    m = M([[3, 0], [0, Fraction(1, 3)]])
    assert m.char_poly() == [Fraction(1), Fraction(-10, 3), Fraction(1)]


def test_char_poly_not_square():
    with pytest.raises(NotSquare):
        M([[1, 2, 3]]).char_poly()


def test_char_poly_similarity_invariant():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = Matrix(Q, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = _random_invertible(rng, Q, n)
        conj = p.inverse().matmul(a).matmul(p)
        assert conj.char_poly() == a.char_poly()


def test_char_poly_over_small_prime_field():
    # division-free recursion must survive p <= n
    gf3 = Field.gf(3)
    poly = Matrix.identity(gf3, 4).char_poly()
    expect = [gf3.one]
    for _ in range(4):
        expect = poly_mul(gf3, expect, [-gf3.one, gf3.one])  # times (t - 1)
    assert poly == expect


# -- jordan structure ---------------------------------------------------------


def test_jordan_identity():
    js = Matrix.identity(Q, 2).jordan_structure()
    assert js.blocks == ((Fraction(1), 1), (Fraction(1), 1))


def test_jordan_single_block():
    js = M([[1, 1], [0, 1]]).jordan_structure()
    assert js.blocks == ((Fraction(1), 2),)


def test_jordan_negative_block():
    # rank(m + I) = 1 forces one block of size 2
    js = M([[-1, -2], [0, -1]]).jordan_structure()
    assert js.blocks == ((Fraction(-1), 2),)


def test_jordan_does_not_split():
    with pytest.raises(DoesNotSplit) as info:
        M([[0, 1], [-1, 0]]).jordan_structure()
    assert len(info.value.factor) == 3  # t^2 + 1 survives


def _jordan_block(field, mu, size):
    rows = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = field.coerce(mu)
        if i + 1 < size:
            rows[i][i + 1] = field.one
    return rows


def _random_invertible(rng, field, n):
    while True:
        p = Matrix(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            p.inverse()
            return p
        except Singular:
            continue


@pytest.mark.parametrize("field", [Q, GF7])
def test_jordan_recovers_conjugated_blocks(field):
    rng = random.Random(23)
    eigen_pool = [-1, 0, 1, 2, 3]
    for _ in range(25):
        blocks = []
        total = 0
        while total < rng.randint(2, 8):
            size = rng.randint(1, 3)
            mu = rng.choice(eigen_pool)
            blocks.append((field.coerce(mu), size))
            total += size
        n = total
        rows = [[field.zero] * n for _ in range(n)]
        off = 0
        for mu, size in blocks:
            blk = _jordan_block(field, mu, size)
            for i in range(size):
                for j in range(size):
                    rows[off + i][off + j] = blk[i][j]
            off += size
        m = Matrix(field, rows)
        p = _random_invertible(rng, field, n)
        conj = p.inverse().matmul(m).matmul(p)
        got = sorted(conj.jordan_structure().blocks, key=repr)
        want = sorted(blocks, key=repr)
        assert got == want


def test_jordan_exhaustive_roots_over_gf():
    m = Matrix(GF7, [[2, 1], [0, 4]])
    js = m.jordan_structure()
    assert sorted((mu.value, s) for mu, s in js.blocks) == [(2, 1), (4, 1)]


# -- inverse -----------------------------------------------------------------


def test_inverse_round_trip():
    m = M([[1, 2], [3, 5]])
    assert m.matmul(m.inverse()) == Matrix.identity(Q, 2)


def test_inverse_singular():
    with pytest.raises(Singular):
        M([[1, 2], [2, 4]]).inverse()


# -- subspaces ----------------------------------------------------------------


def _is_reduced_echelon(sub):
    pivots = []
    for v in sub.basis:
        lead = next(i for i, x in enumerate(v) if x)
        if v[lead] != sub.field.one or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return list(sub.pivots) == pivots and all(
        not v[p] for i, v in enumerate(sub.basis) for j, p in enumerate(pivots) if i != j
    )


def test_subspace_canonical_equality():
    s1 = Subspace(Q, 3, [[1, 1, 0], [0, 0, 1]])
    s2 = Subspace(Q, 3, [[1, 1, 1], [0, 0, 2]])
    assert s1 == s2
    assert s1.contains([2, 2, 5])
    assert not s1.contains([1, 0, 0])
    # one span in ambient dim 6 > 3: shuffled, rescaled, combined, dense or sparse
    span = [[1, 2, 0, 0, 1, 0], [0, 0, 1, 2, 0, 1], [0, 1, 0, 1, 1, 1]]
    for field in (Q, Field.gf(3)):
        rng = random.Random(f"span over {field}")
        vecs = [[field.coerce(x) for x in v] for v in span]
        reference = Subspace(field, 6, vecs)
        assert reference.dim == 3 and _is_reduced_echelon(reference)
        for _ in range(5):
            mixed = [list(v) for v in vecs]
            rng.shuffle(mixed)
            scale = field.coerce(rng.choice((2, -1)))
            mixed[0] = [x * scale for x in mixed[0]]
            mixed[1] = [x + y for x, y in zip(mixed[1], mixed[2])]
            mixed.append([x + y for x, y in zip(mixed[0], mixed[1])])
            sparse = [{i: x for i, x in enumerate(v) if x} for v in mixed]
            for form in (mixed, sparse, mixed[:2] + sparse[2:]):
                sub = Subspace(field, 6, form)
                assert sub == reference and hash(sub) == hash(reference)
                assert sub.basis == reference.basis
        assert not reference.contains([1, 0, 0, 0, 0, 0])
        assert reference.contains({0: field.one, 1: field.coerce(2), 4: field.one})


@pytest.mark.parametrize("field", [Q, Field.gf(3), GF7], ids=str)
def test_subspace_hash_reads_the_int_store_not_scalars(field, monkeypatch):
    # equal spans from different spanning sets, one built row-reversed so its
    # store rows hold their entries in another order; hashing builds no scalar
    rng = random.Random(f"hash over {field}")
    span = [{c: field.coerce(rng.randint(-4, 4) or 1) for c in rng.sample(range(9), 4)} for _ in range(4)]
    combined = [{c: row.get(c, field.zero) - other.get(c, field.zero) for c in row.keys() | other.keys()}
                for row, other in zip(span, span[1:] + span[:1])]
    reference = Subspace(field, 9, span)
    twins = [Subspace(field, 9, combined + span[:1]), Subspace(field, 9, span[::-1])]
    twins[1]._rows = {c: dict(reversed(row.items())) for c, row in twins[1]._rows.items()}

    def no_scalar(self, n, d=1):
        raise AssertionError("a scalar was built")

    monkeypatch.setattr(Field, "scalar", no_scalar)
    for twin in twins:
        assert twin == reference and hash(twin) == hash(reference)
    assert hash(reference) != hash(Subspace(field, 9, span[1:]))


def test_subspace_coerces_int_entries_of_sparse_rows():
    assert Subspace(Q, 3, [{0: 3, 2: 2}]).pivots == {0: {0: Q.one, 2: Fraction(2, 3)}}
    sub = Subspace(GF7, 3, [{0: 7, 1: 2}, {1: 1, 2: 3}])
    assert sub.pivots == {1: {1: GF7.one}, 2: {2: GF7.one}}
    assert sub.contains({1: 5, 2: 14}) and not sub.contains({0: 1, 1: 0})


def test_subspace_refuses_an_element_of_another_prime_field():
    # an Fp of another modulus is no scalar of GF(7): it must not be read as a residue mod 7
    with pytest.raises(FieldMismatch):
        Subspace(GF7, 3, [{0: Fp(2, 5), 1: Fp(1, 7)}])
    with pytest.raises(FieldMismatch):
        Subspace(GF7, 3, [{0: Fp(2, 5)}])
    # so is a subspace over another field: its int rows would be read as residues mod 7
    for other in (Field.gf(5), Q):
        with pytest.raises(FieldMismatch):
            Subspace(GF7, 3, [[1, 0, 0]]).contains_subspace(Subspace(other, 3, [[1, 0, 0]]))


# the last two are dense vectors of the wrong length
@pytest.mark.parametrize("row", [{3: 1}, {5: 1}, {-1: 1}, {0: 1, 7: 1}, [1, 0], [0, 0, 0, 1]], ids=str)
def test_subspace_refuses_sparse_columns_out_of_range(row):
    with pytest.raises(DimensionMismatch):
        Subspace(Q, 3, [row])
    with pytest.raises(DimensionMismatch):
        Subspace(Q, 3, [{0: 1}]).contains(row)
    assert issubclass(DimensionMismatch, InputError)


def test_subspace_sum_and_intersection():
    a = Subspace(Q, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(Q, 3, [[0, 1, 0], [0, 0, 1]])
    assert a.contains([0, 1, 0]) and b.contains([0, 1, 0])


def test_kernel_basis_sparse_rows():
    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2)}]
    kernel = kernel_basis(Q, 3, [_ints(Q, row) for row in rows])
    assert kernel.dim == 1
    assert kernel.basis == ((Fraction(1), Fraction(0), Fraction(1)),)


def _dense_rref(field, ncols, rows):
    """{pivot column: sparse row} of the reduced echelon form, by dense Gauss-Jordan."""
    mat = [[row.get(c, field.zero) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        top = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if top is None:
            continue
        mat[r], mat[top] = mat[top], mat[r]
        inv = field.one / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        support = [j for j, y in enumerate(mat[r]) if y]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                for j in support:
                    mat[i][j] = mat[i][j] - f * mat[r][j]
        pivots.append(c)
    return {c: {j: x for j, x in enumerate(mat[i]) if x} for i, c in enumerate(pivots)}


def _random_sparse_rows(rng, field, ncols):
    """Up to 2 ncols rows of density 0.05-0.4, some zero entries, some dependent rows."""
    density = rng.uniform(0.05, 0.4)
    rows = []
    for _ in range(rng.randint(1, 2 * ncols)):
        if len(rows) >= 2 and rng.random() < 0.2:
            a, b = rng.sample(rows, 2)
            k = field.coerce(rng.choice((1, -1, 2)))
            zero = field.zero
            # may hold zeros where entries cancel
            rows.append({c: a.get(c, zero) + k * b.get(c, zero) for c in a.keys() | b.keys()})
            continue
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                # zero now and then: input rows may hold zeros
                x = rng.randint(0, 6) if field.p else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                row[c] = field.coerce(x)
        rows.append(row)
    return rows


def _ints(field, row):
    """A scalar row as `reduce_ints` takes it: residues, or over Q times the lcm of its denominators."""
    if field.p:
        return {c: x.value for c, x in row.items() if x}
    den = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}


def _scalars(field, store):
    """An int echelon store of `reduce_ints` as field scalars, each row divided by its lead."""
    return {
        pc: {c: field.coerce(x) / field.coerce(row[pc]) for c, x in row.items()}
        for pc, row in store.items()
    }


def _assert_field_scalars(field, pivots):
    """Every entry is a scalar of `field`.

    `Fp.__eq__` accepts ints, so comparing with an expected result alone
    would not see a raw residue leak out of the GF(p) kernel.
    """
    for row in pivots.values():
        for x in row.values():
            if field.p:
                assert type(x) is Fp and x.p == field.p, repr(x)
            else:
                assert type(x) is Fraction, repr(x)


@pytest.mark.parametrize(
    "field", [Q, Field.gf(3), GF7, Field.gf(10007), Field.gf(2**61 - 1)], ids=str
)
def test_sparse_reduce_agrees_with_dense_rref(field):
    outside = 0
    for seed in range(40):
        rng = random.Random(f"sparse_reduce {field} {seed}")
        ncols = rng.randint(5, 40)
        rows = _random_sparse_rows(rng, field, ncols)
        snapshot = [dict(r) for r in rows]
        expected = _dense_rref(field, ncols, rows)
        reduced = sparse_reduce(field, rows)
        assert reduced == expected, seed
        _assert_field_scalars(field, reduced)
        assert rows == snapshot, "input rows were mutated"
        # three chunks through reduce_ints, one int store extended in place
        cuts = sorted(rng.randint(0, len(rows)) for _ in range(2))
        store = {}
        for chunk in (rows[: cuts[0]], rows[cuts[0] : cuts[1]], rows[cuts[1] :]):
            reduce_ints(store, [_ints(field, row) for row in chunk], field.p)
        assert _scalars(field, store) == expected, seed
        # Subspace.contains runs the pivot sweep on the int store: a vector is
        # inside exactly when it leaves the rank unchanged
        sub = Subspace(field, ncols, rows)
        for _ in range(4):
            inside = {}
            for row in rng.sample(rows, min(3, len(rows))):
                k = field.coerce(rng.randint(1, 5))
                for c, x in row.items():
                    inside[c] = inside.get(c, field.zero) + k * x
            other = {c: field.coerce(rng.randint(1, 6)) for c in rng.sample(range(ncols), rng.randint(1, 3))}
            assert sub.contains(inside), seed
            in_span = len(_dense_rref(field, ncols, [*expected.values(), other])) == len(expected)
            assert sub.contains(other) == in_span, seed
            outside += not in_span
        kernel = kernel_basis(field, ncols, [_ints(field, row) for row in rows])
        _assert_field_scalars(field, kernel.pivots)
        assert kernel.dim == ncols - len(expected)
        for v in kernel.pivots.values():
            for row in rows:
                assert not sum((x * v[c] for c, x in row.items() if c in v), field.zero)
    assert outside >= 40, "too few vectors outside the span"


def _hard_rational_rows(rng, ncols):
    """Q rows whose integer forms are hard: denominators up to 10^6, 20-digit numerators.

    Some rows have a negative lead, some are integer rows with a common factor
    (content > 1), some are rational combinations of earlier rows, and some
    hold a single entry or an explicit zero.
    """
    def scalar():
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**6))

    rows = []
    for _ in range(rng.randint(2, 2 * ncols)):
        shape = rng.random()
        if len(rows) >= 2 and shape < 0.25:
            a, b = rng.sample(rows, 2)
            k = scalar()
            rows.append({c: a.get(c, 0) + k * b.get(c, 0) for c in a.keys() | b.keys()})
            continue
        support = sorted(rng.sample(range(ncols), rng.randint(1, min(ncols, 6))))
        if shape < 0.45:
            factor = rng.choice((6, 10**9 + 7, 2**40))
            row = {c: Fraction(factor * rng.choice((-3, -1, 1, 2, 5))) for c in support}
        else:
            row = {c: scalar() for c in support}
        if shape > 0.7:
            row[support[0]] = -abs(row[support[0]])  # a negative lead
        if rng.random() < 0.1:
            row[rng.randrange(ncols)] = Fraction(0)
        rows.append(row)
    return rows


def _integer_content(row):
    """The gcd of the entries of an integral row, else 0."""
    if any(x.denominator != 1 for x in row.values()):
        return 0
    return gcd(*(x.numerator for x in row.values()))


def test_sparse_reduce_over_q_with_large_denominators():
    negative_leads = contents = stopped = 0
    for seed in range(30):
        rng = random.Random(f"hard rationals {seed}")
        ncols = rng.randint(3, 14)
        rows = _hard_rational_rows(rng, ncols)
        negative_leads += sum(1 for row in rows if row and row[min(row)] < 0)
        contents += sum(1 for row in rows if len(row) > 1 and _integer_content(row) > 1)
        snapshot = [dict(r) for r in rows]
        expected = _dense_rref(Q, ncols, rows)
        reduced = sparse_reduce(Q, rows)
        assert reduced == expected, seed
        _assert_field_scalars(Q, reduced)
        assert rows == snapshot, "input rows were mutated"
        # an int store carried into reduce_ints: a dense rref with non-integral
        # entries, cleared of denominators and extended in place
        cut = rng.randint(0, len(rows))
        carried = {pc: _ints(Q, row) for pc, row in _dense_rref(Q, ncols, rows[:cut]).items()}
        reduce_ints(carried, [_ints(Q, row) for row in rows[cut:]])
        assert _scalars(Q, carried) == expected, seed
        assert rows == snapshot
        # a rank= stop of reduce_ints holds the reduced basis of the rows read so far
        bound = rng.randint(1, max(1, len(expected)))
        consumed, partial = [], {}
        reduce_ints(partial, (consumed.append(row) or _ints(Q, row) for row in rows), rank=bound)
        assert len(partial) == min(bound, len(expected))
        assert _scalars(Q, partial) == _dense_rref(Q, ncols, consumed), seed
        stopped += len(consumed) < len(rows)
    assert negative_leads >= 30 and contents >= 10 and stopped >= 10


def _singleton_heavy_rows(rng, field, ncols):
    """Rows shaped like a cocycle system: mostly repeated single entries, a few longer rows.

    Fixed columns get duplicated singletons with different scalars, some
    padded with explicit zeros; a single zero entry fixes nothing; some
    longer rows lie inside the fixed columns, so the presolve empties them.
    """
    zero, fixed, rows = field.zero, rng.sample(range(ncols), rng.randint(1, ncols // 2)), []
    for c in fixed:
        for _ in range(rng.randint(1, 3)):
            rows.append({c: field.coerce(rng.choice((1, 2, -1, -2)))})
        if rng.random() < 0.3:
            rows.append({c: field.coerce(rng.choice((1, -1))), rng.randrange(ncols): zero})
        if rng.random() < 0.3:
            rows.append({rng.randrange(ncols): zero})  # fixes nothing
    for _ in range(rng.randint(0, ncols // 2)):
        pool = fixed if rng.random() < 0.3 else range(ncols)
        support = rng.sample(pool, min(len(pool), rng.randint(2, 4)))
        rows.append({c: field.coerce(rng.choice((0, 1, 2, -1, 3))) for c in support})
    rng.shuffle(rows)
    return rows


def _dense_kernel(field, ncols, rows):
    """The kernel, read from the dense reduced echelon form in plain column order."""
    reduced = _dense_rref(field, ncols, rows)
    vectors = []
    for f in (f for f in range(ncols) if f not in reduced):
        vec = {f: field.one}
        vec.update({pc: -row[f] for pc, row in reduced.items() if f in row})
        vectors.append(vec)
    return Subspace(field, ncols, vectors)


@pytest.mark.parametrize("field", [Q, Field.gf(3), GF7, Field.gf(2**61 - 1)], ids=str)
def test_kernel_basis_returns_the_canonical_basis(field):
    # kernel_basis hands its vectors to Subspace unreduced, so they must
    # already be the reduced echelon basis: pivots increasing, each row
    # starting at its pivot, and a second reduction changing nothing
    one = field.one
    systems = [(6, []), (4, [{0: one}, {0: one + one, 1: one}, {1: one, 2: one}, {3: -one, 2: one}])]
    for seed in range(30):
        rng = random.Random(f"kernel_basis {field} {seed}")
        ncols = rng.randint(3, 30)
        systems.append((ncols, _singleton_heavy_rows(rng, field, ncols)))
    for ncols, rows in systems:
        kernel = kernel_basis(field, ncols, [_ints(field, row) for row in rows])
        assert kernel.pivots == Subspace(field, ncols, list(kernel.pivots.values())).pivots
        assert list(kernel.pivots) == sorted(kernel.pivots)
        assert all(min(row) == c for c, row in kernel.pivots.items())
        assert kernel == _dense_kernel(field, ncols, rows), (ncols, rows)
        _assert_field_scalars(field, kernel.pivots)
        # read lazily up to the number of columns the rows touch, no presolve, as
        # `cohomology.cocycle_space` reads its rows before `kernel_of` reads z2
        touched = {c for row in rows for c, x in row.items() if x}
        flipped = ({ncols - 1 - c: x for c, x in _ints(field, row).items()} for row in rows)
        bounded = kernel_of(field, ncols, reduce_ints({}, flipped, field.p, rank=len(touched)))
        assert bounded.pivots == kernel.pivots, (ncols, rows)
        _assert_field_scalars(field, bounded.pivots)
    ncols, rows = systems[1]
    assert kernel_basis(field, 6, []).dim == 6 and kernel_basis(field, ncols, [_ints(field, row) for row in rows]).dim == 0


# -- polynomial helpers --------------------------------------------------------


def test_poly_divmod_and_roots():
    # (t - 1)^2 (t + 2) = t^3 - 3t + 2
    poly = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
    roots, rem = roots_in_field(Q, poly)
    assert rem == [Fraction(1)] or len(rem) == 1
    assert sorted(roots) == [(Fraction(-2), 1), (Fraction(1), 2)]
    q, r = poly_divmod(Q, poly, [Fraction(-1), Fraction(1)])
    assert r == []
    assert poly_mul(Q, q, [Fraction(-1), Fraction(1)]) == poly


def test_rational_roots_with_denominators():
    # (2t - 1)(3t + 2) = 6t^2 + t - 2
    poly = [Fraction(-2), Fraction(1), Fraction(6)]
    roots, rem = roots_in_field(Q, poly)
    assert sorted(roots) == [(Fraction(-2, 3), 1), (Fraction(1, 2), 1)]


def test_roots_over_gf():
    gf5 = Field.gf(5)
    # t^2 - 1 over GF(5): roots 1 and 4
    poly = [gf5.coerce(-1), gf5.zero, gf5.one]
    roots, rem = roots_in_field(gf5, poly)
    assert sorted((r.value, m) for r, m in roots) == [(1, 1), (4, 1)]


def _brute_roots(field, poly):
    """Roots by trying every residue, each divided out while it divides."""
    rest, roots = list(poly), []
    for x in range(field.p):
        r, count = field.coerce(x), 0
        while len(rest) > 1:
            q, rem = poly_divmod(field, rest, [-r, field.one])
            if rem:
                break
            rest, count = q, count + 1
        if count:
            roots.append((r, count))
    return roots, rest


# the fields below 256 are scanned, 257 and 263 run Cantor-Zassenhaus
@pytest.mark.parametrize("p", [3, 5, 7, 101, 251, 257, 263])
def test_roots_over_gf_agree_with_brute_force(p):
    field = Field.gf(p)
    rng = random.Random(f"roots mod {p}")
    polys = []
    for _ in range(50):
        poly = [field.coerce(rng.randrange(p)) for _ in range(rng.randint(0, 6))]
        poly.append(field.coerce(rng.randrange(1, p)))
        for _ in range(rng.randint(0, 4)):
            poly = poly_mul(field, poly, [field.coerce(rng.randrange(p)), field.one])
        polys.append(poly)
    if p < 7:  # degree >= p: (t^p - t) g has every residue as a root
        every = [field.zero, -field.one] + [field.zero] * (p - 2) + [field.one]
        polys += [poly_mul(field, every, g) for g in polys[:10]]
    for poly in polys:
        # same roots, multiplicities, residue order and rootless cofactor
        assert roots_in_field(field, poly) == _brute_roots(field, poly)


@pytest.mark.parametrize("p", [3, 257, 10007])
def test_linear_powers_agree_with_repeated_products(p):
    # (t + a)^e mod m, one product by t + a and one reduction at a time: the same
    # polynomial of degree < deg m, whatever the bits of e
    rng = random.Random(f"linear powers mod {p}")
    for _ in range(20):
        m = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [rng.randrange(1, p)]
        a, e = rng.randrange(p), rng.randrange(1, 200)
        want = [1]
        for _ in range(e):
            want = _idivmod(_imul(want, [a, 1], p), m, p)[1]
        assert _ipowmod(a, e, m, p) == want


def test_rational_roots_with_twenty_digit_parts():
    rng = random.Random("twenty digits")
    for _ in range(10):
        poly, want = [Fraction(1), Fraction(0), Fraction(1)], []
        for _ in range(rng.randint(1, 5)):
            r = Fraction(rng.randrange(10**19, 10**20), rng.randrange(10**19, 10**20))
            r *= rng.choice((1, -1))
            poly = poly_mul(Q, poly, [-r, Fraction(1)])
            want.append(r)
        roots, rest = roots_in_field(Q, poly)
        expected = sorted(set(want), key=lambda r: (r.numerator, r.denominator))
        assert [r for r, _ in roots] == expected
        assert [m for _, m in roots] == [want.count(r) for r in expected]
        assert rest == [Fraction(1), Fraction(0), Fraction(1)]


def test_roots_over_a_61_bit_prime_field():
    field = Field.gf(2**61 - 1)
    a, b = field.coerce(12345678901234567), field.coerce(-5)
    poly = poly_mul(field, [-a, field.one], [-b, field.one])
    poly = poly_mul(field, poly, [-a, field.one])
    # -1 is not a square modulo 2^61 - 1, which is 3 mod 4
    poly = poly_mul(field, poly, [field.one, field.zero, field.one])
    roots, rest = roots_in_field(field, poly)
    assert roots == [(a, 2), (b, 1)]
    assert rest == [field.one, field.zero, field.one]


def _divisors(n):
    n, out, d = abs(n), {1}, 2
    while d * d <= n:
        while n % d == 0:
            out |= {x * d for x in out}
            n //= d
        d += 1
    return out | {x * n for x in out} if n > 1 else out


def _brute_rational_roots(coeffs):
    """{root: multiplicity} over all u/v with u | a0 and v | lc, a0 the lowest nonzero coefficient."""
    a0 = next(c for c in coeffs if c)
    candidates = {Fraction(s * u, v) for u in _divisors(a0) for v in _divisors(coeffs[-1]) for s in (1, -1)}
    candidates |= {Fraction(0)} if not coeffs[0] else set()
    roots = {}
    for r in candidates:
        # the multiplicity is the number of derivatives, the 0th included, that
        # vanish at r = u/v, that is sum of c_k u^k v^(deg - k) = 0
        f, u, v = list(coeffs), r.numerator, r.denominator
        while f and not sum(c * u**k * v ** (len(f) - k) for k, c in enumerate(f)):
            roots[r] = roots.get(r, 0) + 1
            f = [k * c for k, c in enumerate(f)][1:]
    return roots


def test_rational_roots_agree_with_brute_force():
    # roots r and r + 105 meet mod 3, 5 and 7, so none of those primes keeps the
    # square-free part square-free; every other case has 105 | lc, which rules
    # them out by the leading coefficient
    rng = random.Random("rational roots")
    for case in range(40):
        r = rng.choice([x for x in range(-12, 13) if x])
        factors = [[-r, 1], [-r - 105, 1], [rng.choice([-2, -1, 1, 2, 4]), 3]]
        factors += [[-rng.randint(-9, 9), rng.randint(1, 2)] for _ in range(rng.randint(0, 2))]
        factors += [[rng.randint(1, 5), 0, 1]] * rng.randint(0, 1)  # no rational root
        factors += [factors[rng.randrange(len(factors))]] * rng.randint(0, 1)  # a repeated factor
        poly = [Fraction(105 if case % 2 else rng.randint(1, 2))]
        for f in factors:
            poly = poly_mul(Q, poly, [Fraction(c) for c in f])
        roots, rest = roots_in_field(Q, poly)
        expected = _brute_rational_roots([int(c) for c in poly])
        assert dict(roots) == expected
        assert _times_roots(Q, rest, roots) == poly


def _times_roots(field, rest, roots):
    """The cofactor `rest` times the product of (t - r)^m over the roots."""
    for r, m in roots:
        for _ in range(m):
            rest = poly_mul(field, rest, [-r, field.one])
    return rest


def _random_root(rng, field):
    """A seeded scalar: a residue, or over Q a fraction whose parts reach 20 digits."""
    if field.p:
        return field.coerce(rng.randrange(field.p))
    top = rng.choice([10, 10**6, 10**20])
    return Fraction(rng.randint(-top, top), rng.randint(1, rng.choice([1, 7, 10**6, 10**20])))


@pytest.mark.parametrize("field", [Q, Field.gf(3), Field.gf(5), Field.gf(101), Field.gf(2**61 - 1)], ids=str)
def test_root_cofactor_is_exact(field):
    # poly = rest * prod (t - r)^m exactly, and the int route agrees with the
    # scalar Horner check and synthetic division it replaced
    rng = random.Random(f"cofactor {field}")
    for case in range(40):
        # a scalar content, possibly with a large denominator, times linear
        # factors (some repeated, 0 among them) and factors t^2 + c, rootless over Q
        poly = [_random_root(rng, field) or field.one]
        roots = [_random_root(rng, field) for _ in range(rng.randint(0, 5))]
        roots += [field.zero] * (case % 3 == 0) + roots[:rng.randint(0, 2)]
        for r in roots:
            poly = poly_mul(field, poly, [-r, field.one])
        for _ in range(rng.randint(0, 2)):
            poly = poly_mul(field, poly, [field.coerce(rng.randint(1, 9)), field.zero, field.one])
        found, rest = roots_in_field(field, poly)
        assert _times_roots(field, rest, found) == poly
        assert (found, rest) == oracle_roots_in_field(field, poly)
        assert all(type(x) is type(field.one) for r, _ in found for x in (r, *rest))
        if not field.p:
            assert sum(m for _, m in found) == len(roots)
    for poly in ([], [field.coerce(2)]):
        assert roots_in_field(field, poly) == oracle_roots_in_field(field, poly) == ([], poly)


def _int_rows(field, a_rows, b_rows):
    """A pencil's scalar rows as the int rows `pencil_minor` reads, by the oracle's rule.

    Over GF(p) the residues; over Q row i of A and of B times the lcm of their denominators.
    """
    lifted = []
    for a, b in zip(a_rows, b_rows):
        den = 1 if field.p else lcm(*(x.denominator for x in (*a.values(), *b.values())))
        lifted.append([{j: _as_int(x, den) for j, x in row.items()} for row in (a, b)])
    return [a for a, _ in lifted], [b for _, b in lifted]


def test_pencil_minor_reads_rank_and_a_nonzero_minor():
    # J3's pencil M^T + tM has normal rank 2; any 2 x 2 minor is a monomial
    m = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    a_rows, b_rows = _pencil_of(m)
    rank, minor = pencil_minor(Q, a_rows, b_rows)
    assert rank == 2
    assert len(minor) >= 1 and all(not c for c in minor[:-1])
    assert (rank, minor) == oracle_pencil_minor(Q, a_rows, b_rows)
    # a regular pencil: the minor is the determinant, up to a constant
    rank, minor = pencil_minor(GF7, [{0: 1}, {1: 1}], [{1: 1}, {0: 1}])
    assert rank == 2 and minor == [GF7.one, GF7.zero, GF7.coerce(-1)]


def _pencil_of(m):
    """The sparse rows of A = M^T and B = M, as `forms.regularize` builds them."""
    n = len(m)
    return (
        [{j: m[j][i] for j in range(n) if m[j][i]} for i in range(n)],
        [{j: x for j, x in enumerate(row) if x} for row in m],
    )


def _block_form(field, sizes, lam):
    """A singular form: J blocks of the given sizes, then a Gamma_3 and an H_2(lam) block."""
    n = sum(sizes) + 5
    m = [[field.zero] * n for _ in range(n)]
    at = 0
    for size in sizes:
        for i in range(at, at + size - 1):
            m[i][i + 1] = field.one
        at += size
    m[at][at + 2] = field.one
    m[at + 1][at + 1], m[at + 1][at + 2] = -field.one, -field.one
    m[at + 2][at], m[at + 2][at + 1] = field.one, field.one
    m[at + 3][at + 4], m[at + 4][at + 3] = field.one, field.coerce(lam)
    return m


def _congruent(rng, field, m):
    p = _random_invertible(rng, field, len(m))
    return [list(row) for row in p.transpose().matmul(Matrix(field, m)).matmul(p).rows]


def _h_text(field, n):
    """H_2n(lam) for the first of lam = 2, 3, 1 that the family admits over `field`."""
    for lam in (2, 3, 1):
        try:
            BlockDescriptor("h", n, lam).validate(field)
        except InvalidDescriptor:
            continue
        return f"h2n:{n}:{lam}"


def _canonical_texts(field):
    """Every canonical family up to a form size of 20, and 2- and 3-part central sums."""
    h = partial(_h_text, field)
    yield from (f"j:{n}" for n in range(1, 21))
    yield from (f"gamma:{n}" for n in range(2, 21))
    yield from (h(n) for n in range(1, 11))
    yield from ("j:3+gamma:4", f"gamma:5+{h(2)}", f"j:9+{h(4)}", "j:2+j:5+gamma:6", f"{h(1)}+gamma:7+j:4")


def _idle_row_pencil(field, rng, n):
    """A lower triangle of entries a + tb, row i holding column i and maybe one column j <= i - 3.

    Such a row takes part in step j, then sits idle under the pivots of the steps up to i.
    """
    def entry():
        return field.coerce(rng.choice((-3, -2, -1, 1, 2, 3))), field.coerce(rng.randint(-3, 3))

    a_rows, b_rows = [], []
    for i in range(n):
        held = {i} | ({rng.randrange(i - 2)} if i >= 3 and rng.random() < 0.7 else set())
        entries = {j: entry() for j in held}
        a_rows.append({j: a for j, (a, _) in entries.items() if a})
        b_rows.append({j: b for j, (_, b) in entries.items() if b})
    return a_rows, b_rows


def _wrapped_column_pencil(field, rng):
    """A 6 x 6 pencil over GF(p) whose column 2 is zero mod p, but not over the ints, at step 2.

    With x = (p - 1) / 2, rows 0 to 2 of A hold [1, 0, x], [1, 1, 2x] and [0, 1, x] in columns 0 to 2;
    2x lifts to -1, so the 3 x 3 minor is 2x + 1 = p.  No other row holds column 2, and every row
    holds entries a + tb in columns 3 to 5, so the skipped column's ints ride along to later steps.
    """
    x = field.coerce((field.p - 1) // 2)
    one, n = field.one, 6
    a_rows = [{0: one, 2: x}, {0: one, 1: one, 2: x + x}, {1: one, 2: x}] + [{} for _ in range(3)]
    b_rows = [{} for _ in range(n)]
    for i in range(n):
        for j in rng.sample(range(3, n), 2):
            a_rows[i][j], b_rows[i][j] = field.coerce(rng.choice((1, 2))), field.coerce(rng.choice((1, 2)))
    return a_rows, b_rows


def _pencil_cases(field, rng):
    for sizes in [(3,), (2,), (1, 3), (2, 4), (3, 5, 2), (1, 1, 2)]:
        m = _block_form(field, sizes, 2)
        yield _pencil_of(m)
        yield _pencil_of(_congruent(rng, field, m))
    for n in (1, 4, 7, 12):
        # zero rows and columns among dense random ones, then the last row a copy of the first
        m = [[field.coerce(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for k in rng.sample(range(n), n // 3):
            m[k] = [field.zero] * n
            for row in m:
                row[k] = field.zero
        yield _pencil_of(m)
        a_rows, b_rows = _pencil_of(m)
        yield a_rows[:-1] + a_rows[:1], b_rows[:-1] + b_rows[:1]
    for n in (10, 14, 18):
        m = _block_form(field, (n - 5,), 3)
        yield _pencil_of(_congruent(rng, field, m))
    for text in _canonical_texts(field):
        yield _pencil_of(form_of(make_from_text(text, field)).m.rows)
    for n in (6, 9, 13):
        yield _idle_row_pencil(field, rng, n)
    if field.p:
        yield _wrapped_column_pencil(field, rng)
    if field.p is None:
        for n in (3, 6, 9):
            # every row with its own large denominators
            m = [
                [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**15)) if rng.random() < 0.7 else Fraction(0)
                 for _ in range(n)]
                for _ in range(n)
            ]
            yield _pencil_of(m)


@pytest.mark.parametrize(
    "field", [Q, Field.gf(3), Field.gf(5), GF7, Field.gf(10007), Field.gf(2**61 - 1)], ids=str
)
def test_pencil_minor_agrees_with_polynomial_elimination(field):
    rng = random.Random(f"pencil {field}")
    for case in _pencil_cases(field, rng):
        a_rows, b_rows = _int_rows(field, *case)
        expected = oracle_pencil_minor(field, a_rows, b_rows)
        assert pencil_minor(field, a_rows, b_rows) == expected
        assert expected[1] and expected[1][-1]
