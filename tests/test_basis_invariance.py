"""Every invariant is a property of the algebra, not of its basis.

Each case takes a sweep algebra or central sum, picks one seeded invertible
P (its rows are the new basis in old coordinates, with the central z mixed
into every x), rewrites the structure tensor in that basis, and checks that
nothing the toolkit reports about the algebra moves.  GF(3) and GF(5)
include shapes with p <= dim.
"""

import random

import pytest

from extraspecial import cli
from extraspecial.algebra import Algebra, IdentityKind, center, derived_ideal, is_extra_special, multiply
from extraspecial.catalog import make_from_text
from extraspecial.cohomology import VALIDATED_LEIBNIZ, is_capable, is_unicentral, multiplier_dim, z_star
from extraspecial.forms import classify
from extraspecial.linalg import Matrix, Subspace
from extraspecial.scalars import Field

CASES = [
    ("Q", "j:1"),
    ("Q", "j:3"),
    ("Q", "gamma:3"),
    ("Q", "h2:3"),
    ("Q", "h2n:2:2"),
    ("Q", "j:2+h2:-1"),
    ("GF:7", "j:4"),
    ("GF:7", "gamma:4"),
    ("GF:7", "h2n:2:3"),
    ("GF:7", "j:1+gamma:3"),
    ("GF:3", "j:2+gamma:2"),
    ("GF:3", "gamma:3"),
    ("GF:5", "j:1+h2:2+j:2"),
    ("GF:5", "gamma:3+j:1"),
    ("GF:3", "j:4+gamma:4"),
    ("GF:7", "j:2+h2n:3:3"),
    ("GF:7", "gamma:12"),
    ("GF:5", "gamma:4+h2n:3:2"),
]

Q = Field.rationals()


def _field(flag: str) -> Field:
    return Field.rationals() if flag == "Q" else Field.gf(int(flag.split(":")[1]))


def _random_basis(rng: random.Random, field: Field, dim: int) -> Matrix:
    """Invertible P with entries in -2..2 whose z column is nonzero on every x row."""
    while True:
        p = Matrix(field, [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if p.rank() == dim and all(row[-1] for row in p.rows[:-1]):
            return p


def _in_basis(a: Algebra, p: Matrix) -> Algebra:
    """The algebra with basis f_r = sum_i P[r][i] e_i: f_r f_s in f coordinates."""
    to_new = p.inverse().transpose()  # e-coordinates w -> f-coordinates w P^-1
    products = {
        (r, s): to_new.apply(multiply(a, p.rows[r], p.rows[s]))
        for r in range(a.dim)
        for s in range(a.dim)
    }
    return Algebra(a.field, a.dim, products)


def _invariants(a: Algebra) -> dict:
    return {
        "center_dim": center(a).dim,
        "derived_dim": derived_ideal(a).dim,
        "extra_special": is_extra_special(a),
        "multiplier_assoc": multiplier_dim(a, IdentityKind.ASSOCIATIVE),
        "multiplier_leibniz": multiplier_dim(a, VALIDATED_LEIBNIZ),
        "capable": is_capable(a),
        "unicentral": is_unicentral(a),
        "classify": classify(a).text(),
    }


@pytest.mark.parametrize("flag,text", CASES, ids=[f"{f} {t}" for f, t in CASES])
def test_invariants_survive_a_change_of_basis(flag, text):
    field = _field(flag)
    a = make_from_text(text, field)
    p = _random_basis(random.Random(f"basis {flag} {text}"), field, a.dim)
    moved = _in_basis(a, p)
    assert moved != a  # the tensor really moved
    assert _invariants(moved) == _invariants(a)
    # the subspaces move with the basis: w in e-coordinates is w P^-1 in f-coordinates
    to_new = p.inverse().transpose()
    for space in (center, derived_ideal, z_star):
        carried = Subspace(field, a.dim, [to_new.apply(v) for v in space(a).basis])
        assert space(moved) == carried, space.__name__


def test_a_dense_basis_with_a_huge_lambda_changes_nothing():
    # over Q the kernels clear denominators: in a dense basis a 21-digit
    # lambda reaches every row they read
    a = make_from_text("h2n:3:123456789012345678901/7", Q)
    p = _random_basis(random.Random("basis Q h2n:3:huge"), Q, a.dim)
    moved = _in_basis(a, p)
    assert max(abs(x.numerator) for _, _, row in moved.nonzero_products() for x in row.values()) > 10**20
    assert classify(moved) == classify(a)
    for theory in (IdentityKind.ASSOCIATIVE, VALIDATED_LEIBNIZ):
        assert multiplier_dim(moved, theory) == multiplier_dim(a, theory)
    # Z* moves with the basis: w in e-coordinates is w P^-1 in f-coordinates
    to_new = p.inverse().transpose()
    assert z_star(moved) == Subspace(Q, a.dim, [to_new.apply(v) for v in z_star(a).basis]) != z_star(a)


def _sweep_rows(max_n: int, field: Field) -> list:
    """(name, algebra, parts) of each row of the `--max-n max_n` sweep over `field`."""
    rows = []

    def capture(name, alg, parts, field):
        rows.append((name, alg, parts))
        return cli.SweepRow(name, alg.dim, True, {})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_sweep_row", capture)
        cli.verify_theorems(max_n, [2, 3, -1, 5], field)
    return rows


def _odd_j(rows: list) -> list:
    """The rows whose parts hold a J block of odd size >= 3."""
    return [row for row in rows if any(d.kind == "j" and d.n % 2 and d.n > 1 for d in row[2])]


@pytest.mark.parametrize("flag,subset", [("GF:3", None), ("GF:7", 10)], ids=["GF:3", "GF:7"])
def test_odd_j_sweep_rows_survive_a_dense_basis(flag, subset):
    # sweep rows, each in a seeded dense basis: every sweep quantity, classify
    # among them, is the catalog basis's.  GF(3) takes all 116 rows of the
    # `--max-n 8` sweep; GF(7) the 39 `--max-n 6` rows whose pencils have odd
    # singular blocks, of which a seeded 10 keep the test short
    field = _field(flag)
    rows = _sweep_rows(8, field) if flag == "GF:3" else _odd_j(_sweep_rows(6, field))
    assert len(rows) == {"GF:3": 116, "GF:7": 39}[flag]
    if subset:
        rows = random.Random(f"dense rows {flag}").sample(rows, subset)
    for name, a, parts in rows:
        moved = _in_basis(a, _random_basis(random.Random(f"dense row {flag} {name}"), field, a.dim))
        assert moved != a
        assert cli._sweep_row(name, moved, parts, field) == cli._sweep_row(name, a, parts, field), name
