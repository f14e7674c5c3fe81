"""Bilinear forms of extra special algebras and their block classification.

An extra special algebra is determined by the bilinear form M with
x_i x_j = M[i][j] z on a complement of the center, up to congruence
M -> P^T M P.  Classification therefore reduces to the congruence canonical
blocks J_n, Gamma_n and H_2n(lambda) of Horn & Sergeichuk (LAA 2006), read
from the Kronecker structure of the pencil P(t) = A + tB, A = M^T, B = M,
through scalar kernel computations only (the rank-sequence view of Van
Dooren, LAA 27, 1979):

* Bareiss elimination on one integer matrix, a lift of A + 2^s B (P(t)
  packed at t = 2^s), gives the normal rank r of P(t) and one nonzero
  r x r minor, a multiple of the invariant factors' product;
* the candidate eigenvalues are the minor's roots in the field.  At t0
  the kernel-preimage chain V1 = ker P(t0), V_{s+1} = {v : P(t0) v in
  B V_s} (a Wong sequence: Berger, Ilchmann & Trenn, SIAM J. Matrix Anal.
  Appl. 33, 2012) holds only the odd singular blocks J_(2 eps + 1) and the
  Jordan blocks at t0, so at the least t0 = 0, 1, 2, ... that is no root
  it gives the n - r minimal indices eps (over a GF(p) whose every residue
  is a root, the nullities of [A; B A; ...; B] count them instead);
* at each root t0 the chain, less the odd blocks' share, gives the Jordan
  sizes e: at t0 = 0 the even singular blocks J_2e, elsewhere the
  cosquare Jordan data (mu = -t0, size e).  A block at mu = (-1)^(e+1) is
  Gamma_e (J1 when e = 1), and the others pair up as {mu, 1/mu} into
  H_2e(mu).  A candidate with no rank drop is dropped.

All of it runs on one int form, `Field.ints` of the form (the residues over
GF(p), over Q the form times the lcm of its denominators), which keeps the
Kronecker data and the roots: P(t0) at a root u/v is v A + u B, and the
echelon forms stay int rows.  `classify` reads that form straight from the
algebra's int table; scalars are only the roots and lambdas going out, and
the form of `form_of` and `regularize`.

These descriptors are the answer.  The pieces must tile the form exactly,
so an internal disagreement raises instead of misclassifying; blocks left
over mean eigenvalues outside the base field, reported (`DoesNotSplit`)
with the rootless factor of the invariant factors.  The cosquare
M^(-T) M of an invertible form and its Jordan structure stay available
(`cosquare`) as an independent route to the same blocks, which the tests
use as an oracle.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import gcd, lcm

from .algebra import Algebra, extra_special_center
from .catalog import BlockDescriptor, form_algebra, normalize_descriptor
from .errors import (
    DegenerateVector,
    DoesNotSplit,
    InternalCheckFailure,
    NotExtraSpecial,
    Singular,
    UnpairedEigenvalue,
)
from .linalg import (
    Matrix,
    pencil_minor,
    poly_degree,
    poly_divmod,
    poly_monic,
    reduce_ints,
    roots_in_field,
)
from .scalars import Field


class BilinearForm(namedtuple("BilinearForm", "m")):
    """Square `Matrix` m of z-coefficients."""

    __slots__ = ()


class BlockDecomposition:
    """Multiset of canonical blocks, with lambda normalized up to inversion."""

    __slots__ = ("field", "blocks")

    def __init__(self, field: Field, descriptors):
        self.field = field
        normalized = [normalize_descriptor(field, d) for d in descriptors]
        normalized.sort(key=lambda d: self._key(d))
        self.blocks = tuple(normalized)

    def _key(self, d: BlockDescriptor):
        kind_order = {"j": 0, "gamma": 1, "h": 2}[d.kind]
        lam_key = (0, 0) if d.lam is None else self.field.ratio(d.lam)
        return (kind_order, d.n, lam_key)

    def text(self) -> str:
        return "+".join(d.text(self.field) for d in self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, BlockDecomposition)
            and self.field == other.field
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.field, self.blocks))

    def __repr__(self):
        return f"BlockDecomposition({self.text()})"


# ---------------------------------------------------------------------------
# form extraction
# ---------------------------------------------------------------------------


def form_of(a: Algebra, z=None) -> BilinearForm:
    """Bilinear form of an extra special algebra on a complement of the center: `_form_rows` as scalars."""
    rows, den = _form_rows(a, z)
    scalar, n = a.field.scalar, len(rows)
    return BilinearForm(Matrix(a.field, [[scalar(row.get(c, 0), den) for c in range(n)] for row in rows]))


def _form_rows(a: Algebra, z=None) -> tuple[list, int]:
    """The form as sparse int rows over their least common denominator, and it (`Field.ints` of it).

    The spanning central vector is the echelon basis vector of the center
    (`z`, if the caller holds it); the complement consists of the remaining
    coordinate axes.  x_i x_j lies on the line of the int center row exactly
    when lead * row is row[pivot] * that row.
    """
    z = extra_special_center(a, z)
    if z is None:
        raise NotExtraSpecial("forms are defined for extra special algebras")
    ((pivot, zrow),) = z._rows.items()
    position = {i: r for r, i in enumerate(i for i in range(a.dim) if i != pivot)}
    rows = [{} for _ in position]
    p, lead, line = a.field.p, zrow[pivot], zrow.items()
    for (i, j), row in a._table.items():
        if i == pivot or j == pivot:
            continue
        coef = row.get(pivot)
        if not coef or {k: lead * x for k, x in row.items()} != {k: _mod(coef * y, p) for k, y in line}:
            raise InternalCheckFailure("a product escapes the center line")
        rows[position[i]][position[j]] = coef
    g = gcd(a._den, *(x for row in rows for x in row.values()))
    return [{c: x // g for c, x in row.items()} for row in rows] if g != 1 else rows, a._den // g


def algebra_from_form(m: Matrix) -> Algebra:
    """Algebra on n+1 coordinates with x_i x_j = M[i][j] z (z last), by `catalog.form_algebra`."""
    if not m.is_square:
        raise ValueError("a bilinear form matrix must be square")
    form = {(i, j): x for i, row in enumerate(m.rows) for j, x in enumerate(row) if x}
    return form_algebra(m.field, form, [f"x{i + 1}" for i in range(m.nrows)])


def cosquare(f: BilinearForm) -> Matrix:
    """Inverse-transpose times the matrix; congruence invariant up to similarity.

    `classify` does not use it: the pencil invariants already carry the
    cosquare's Jordan data, and the tests check the two routes agree.
    """
    try:
        inv = f.m.inverse()
    except Singular:
        raise Singular("cosquare needs an invertible form") from None
    return inv.transpose().matmul(f.m)


# ---------------------------------------------------------------------------
# pencil invariants
# ---------------------------------------------------------------------------


def _odd_indices(p, a_rows, b_rows, count: int) -> list[int]:
    """Minimal indices eps of the odd singular blocks J_(2 eps + 1), with no evaluation point.

    The route of a GF(p) whose every residue is a root of the minor, where
    `_chain_indices` has no point to walk at.  N_k, the nullity of the
    (k+1)n x kn block-bidiagonal matrix T_k with A on the diagonal and B
    below it, counts the polynomial kernel vectors of P(t) = A + tB of
    degree < k, so N_k - N_(k-1) = #{eps < k}.  The columns of T_k are
    those of T_(k-1) and n more; each step feeds the new ones as rows,
    newest block first, to one `reduce_ints` call, which resumes the
    generator only once the last row is reduced, so it reads the rank of
    T_k there and either stops or makes the rows of T_(k+1).  `count` = n -
    normal rank is the number of odd blocks.  eps = 0 would be a vector
    with zero row and zero column, which is refused.

    Entry r of block b is column -(b n + r) - 1, so a new row's pivot lands
    in its A part, which no earlier step's row holds: back-substitution
    reaches those rows only when a row's A part clears.
    """
    n = len(a_rows)
    eps, pivots = [], {}

    def steps():
        k = 0
        while len(eps) < count:
            if 2 * k + 1 > n - sum(2 * e + 1 for e in eps):
                raise InternalCheckFailure("odd singular blocks do not fit the form")
            before = len(pivots)
            for j in range(n):
                yield (
                    {-k * n - r - 1: x for r, x in b_rows[j].items()}
                    | {-(k + 1) * n - r - 1: x for r, x in a_rows[j].items()}
                )
            k += 1
            below = n - (len(pivots) - before)
            if k == 1 and below:
                raise DegenerateVector("the form has a vector with zero row and zero column")
            eps.extend([k - 1] * (below - len(eps)))

    reduce_ints(pivots, steps(), p)
    return eps


def _jordan_sizes(p, p_rows, b_columns, eps, bound: int, exact: bool) -> list[int]:
    """Jordan block sizes of the pencil at a root t0 of the minor, from its `_chain`.

    Less the odd share, dim V_s is j_s = sum of min(s, e); the chain stops
    when j_s stops growing or reaches `bound`, the multiplicity of t0 as a
    root of a multiple of the invariant factors.  So a first drop of 0 (no
    blocks at t0) or of `bound` (blocks of size 1), read off the rank of
    P(t0), ends it at once.  When `bound` is `exact`, t0's multiplicity in
    the invariant factors, a simple root is one block of size 1 and a first
    drop of 1 is one block of size `bound`.
    """
    n = len(p_rows)
    if exact and bound == 1:
        return [1]
    drop = n - len(reduce_ints({}, map(dict, p_rows), p)) - len(eps)
    if drop in (0, bound):
        return [1] * drop
    if exact and drop == 1:
        return [bound]
    drops = [0]
    for s, dim in enumerate(_chain(p, p_rows, b_columns), 1):
        drop = dim - sum(min(s, e + 1) for e in eps)
        if drop == drops[-1]:
            break
        drops.append(drop)
        if drop == bound:
            break
    drops.append(drops[-1])
    sizes = []
    for s in range(1, len(drops) - 1):
        sizes += [s] * (2 * drops[s] - drops[s - 1] - drops[s + 1])
    return sizes


def _chain(p, p_rows, b_columns):
    """dim V_s for s = 1, 2, ..., while it grows, of the kernel-preimage chain at a point t0.

    V_1 = ker P(t0) and V_(s+1) = {v : P(t0) v in B V_s}.  A Jordan block
    of size e at t0 adds min(s, e) to dim V_s, an odd block J_(2 eps + 1)
    adds min(s, eps + 1), and every other block adds nothing.

    One reduction of [P(t0) | I] gives ker P(t0), the cokernel rows L and
    the pivot rows' combinations R: P(t0) v = y is solvable exactly when
    L y = 0, and then v = R y (zero on the free columns) solves it.  So
    V_(s+1) = ker P(t0) + {R B u : u in V_s, L B u = 0}: each step's new
    vectors u enter one echelon form once, as the rows [L B u | R B u], and
    its new pivot rows whose L part clears are the next step's new vectors.
    On int rows a pivot row has a lead, so R and the kernel vectors are
    taken times their lcm.
    """
    n = len(p_rows)
    reduced = reduce_ints({}, ({**row, n + i: 1} for i, row in enumerate(p_rows)), p)
    scale = lcm(*(row[c] for c, row in reduced.items() if c < n))
    new = [
        {f: scale} | {c: _mod(-row[f] * (scale // row[c]), p) for c, row in reduced.items() if f in row}
        for f in range(n) if f not in reduced
    ]
    columns = [{} for _ in range(n)]  # of [L; R], so [L y | R y] reads only y's support
    for c, row in reduced.items():
        i, times = (c - n, 1) if c >= n else (n + c, scale // row[c])
        for k, x in _shifted(row, -n, times).items():
            columns[k][i] = x
    dim, store = 0, {}
    while new:
        dim += len(new)
        yield dim
        before = set(store)
        reduce_ints(store, (_combine(p, columns, _combine(p, b_columns, v)) for v in new), p)
        new = [_shifted(store[c], -n) for c in store.keys() - before if c >= n]


def _chain_indices(dims, count: int, n: int) -> list[int]:
    """Minimal indices eps from the `_chain` dims at a t0 that is no eigenvalue.

    There V_s holds only the `count` = n - normal rank odd blocks and grows at
    step s by #{eps >= s - 1}.  eps = 0, a vector with zero row and zero column, is refused.
    """
    dims = [0, *dims]
    growth = [b - a for a, b in zip(dims, dims[1:])]
    eps = [sum(g >= i for g in growth) - 1 for i in range(max(growth, default=0), 0, -1)]
    if 0 in eps:
        raise DegenerateVector("the form has a vector with zero row and zero column")
    if len(eps) != count or sum(2 * e + 1 for e in eps) > n:
        raise InternalCheckFailure("odd singular blocks do not fit the form")
    return eps


def _shifted(row: dict, offset: int, times: int = 1) -> dict:
    """A sparse row with every column moved by `offset`, dropping those left below 0, times an int."""
    return {c + offset: x * times for c, x in row.items() if c + offset >= 0}


def _mod(x: int, p) -> int:
    return x % p if p else x


def _combine(p, columns, v: dict) -> dict:
    """The sparse int vector sum of v[j] * columns[j], mod p when p is given."""
    out = {}
    for j, c in v.items():
        for i, x in columns[j].items():
            out[i] = out.get(i, 0) + c * x
    return {i: r for i, x in out.items() if (r := _mod(x, p))}


def _pencil_at(p, a_rows, b_rows, u: int, v: int) -> list[dict]:
    """Int rows of v A + u B, the pencil at t0 = u/v times v."""
    return [
        {j: x for j in a.keys() | b.keys() if (x := _mod(v * a.get(j, 0) + u * b.get(j, 0), p))}
        for a, b in zip(a_rows, b_rows)
    ]


def _pair_cosquare_blocks(field: Field, blocks) -> list[BlockDescriptor]:
    """Map cosquare Jordan data to Gamma / H / J1 descriptors.

    A block of size s at eigenvalue (-1)^(s+1) stands alone (Gamma_s, or J1
    when s = 1); any other pairs with a block of its size at 1/mu (a second
    copy if mu = 1/mu) into H_2s(mu), or raises `UnpairedEigenvalue`.
    Taken least first, mu already is the normalized lambda of {mu, 1/mu}.
    """
    blocks = sorted(blocks, key=lambda b: (b[1], field.ratio(b[0])))
    descriptors = []
    while blocks:
        mu, size = blocks.pop(0)
        if mu == (field.one if size % 2 else -field.one):
            descriptors.append(BlockDescriptor("j", 1) if size == 1 else BlockDescriptor("gamma", size))
            continue
        partner = (field.one / mu, size)
        if partner not in blocks:
            raise UnpairedEigenvalue(f"cosquare block of size {size} at {mu} has no partner")
        blocks.remove(partner)
        descriptors.append(BlockDescriptor("h", size, mu))
    return descriptors


def regularize(f: BilinearForm) -> tuple[list[BlockDescriptor], tuple[int, ...]]:
    """Split a form into regular block descriptors and singular canonical sizes.

    Returns `(regular_descriptors, singular_sizes)`: the descriptors are the
    J1, Gamma and H blocks of the invertible part, paired from the pencil's
    cosquare data, and the sizes (all >= 2) are the chain algebras Jn hiding
    in the form.
    """
    return _regularize(f.m.field, f.m.field.ints(map(dict, map(enumerate, f.m.rows)))[0])


def _regularize(field: Field, b_rows: list) -> tuple[list[BlockDescriptor], tuple[int, ...]]:
    """`regularize` of the form held as sparse int rows, one int multiple of it over Q."""
    n, p = len(b_rows), field.p
    if n == 0:
        return [], ()
    a_rows = [{j: row[i] for j, row in enumerate(b_rows) if i in row} for i in range(n)]
    rank, minor = pencil_minor(field, a_rows, b_rows)
    roots, rest = roots_in_field(field, minor)
    # the least t0 = 0, 1, 2, ... off the minor's roots is no eigenvalue; a small GF(p) may have none
    taken = {field.ratio(root) for root, _ in roots}
    t0 = next((t for t in range(p or len(taken) + 1) if (t, 1) not in taken), None)
    if rank == n:
        eps = []
    elif t0 is None:
        eps = _odd_indices(p, a_rows, b_rows, n - rank)
    else:
        eps = _chain_indices(_chain(p, _pencil_at(p, a_rows, b_rows, t0, 1), a_rows), n - rank, n)
    # The minor is the invariant factors' product times a spurious factor,
    # which is 1 for a regular pencil.  The product has degree
    # n - sum(2 eps + 1) - m0, m0 being the size at 0 (the same size sits at
    # infinity).  With the root 0 taken first, `slack` is the spurious
    # degree not yet met at a root; once it is 0, every multiplicity left
    # is exact.
    roots.sort(key=lambda root: bool(root[0]))
    slack = poly_degree(minor) - n + sum(2 * e + 1 for e in eps)
    even_sizes, cosquare_blocks = [], []
    for t0, mult in roots:
        # B = M, so column j of B is row j of A = M^T
        u, v = field.ratio(t0)
        exact = slack == 0 if t0 else rank == n
        found = _jordan_sizes(p, _pencil_at(p, a_rows, b_rows, u, v), a_rows, eps, mult, exact)
        if t0:
            cosquare_blocks += [(-t0, e) for e in found]
            slack -= mult - sum(found)
        else:
            even_sizes = [2 * e for e in found]
            slack += 2 * sum(found) - mult
    sizes = tuple(sorted(even_sizes + [2 * e + 1 for e in eps]))
    missing = n - sum(sizes) - sum(e for _, e in cosquare_blocks)
    if missing > 0 and poly_degree(rest) >= missing:
        raise DoesNotSplit(_rootless_part(field, a_rows, b_rows, rank, rest, missing))
    if missing:
        raise InternalCheckFailure("block dimensions do not fill the form")
    return _pair_cosquare_blocks(field, cosquare_blocks), sizes


def _rootless_part(field: Field, a_rows, b_rows, rank: int, rest, missing: int) -> list:
    """The monic rootless factor of the invariant factors' product, of degree `missing`.

    `rest`, the rootless part of one r x r minor, is a multiple of it.  By
    Cauchy-Binet det(U P(t) V), for U (r x n) and V (n x r), is a
    combination of all r x r minors, whose gcd is the invariant factors'
    product; gcds with a few seeded compressions strip the rest.
    """
    n, p, rng = len(a_rows), field.p, random.Random(0)
    for _ in range(20):
        if poly_degree(rest) == missing:
            return poly_monic(field, rest)
        u = [{j: rng.randint(-3, 3) for j in range(n)} for _ in range(rank)]
        v = [{c: rng.randint(-3, 3) for c in range(rank)} for _ in range(n)]
        # row k of U X V combines the rows of X V by row k of U
        squeezed = [
            [_combine(p, [_combine(p, v, x) for x in rows], w) for w in u]
            for rows in (a_rows, b_rows)
        ]
        full, c = pencil_minor(field, *squeezed)
        while full == rank and c:
            rest, c = c, poly_divmod(field, rest, c)[1]
    raise InternalCheckFailure("the rootless factor does not match the missing blocks")


def classify(a: Algebra, z=None) -> BlockDecomposition:
    """Canonical central-sum decomposition of an extra special algebra.

    Singular canonical blocks become J(n) descriptors and the regular blocks
    come from the pencil invariants (see `regularize`).  Raises
    `Unsupported` (via `DoesNotSplit`) when the data does not split over
    the base field, and `UnpairedEigenvalue` if the cosquare data cannot be
    matched into blocks, which signals a bug or a broken input; `z` as in `form_of`.
    """
    regular, sizes = _regularize(a.field, _form_rows(a, z)[0])
    return BlockDecomposition(a.field, [BlockDescriptor("j", s) for s in sizes] + regular)
