"""Bilinear forms of extra special algebras and their block classification.

An extra special algebra is determined by the bilinear form M with
x_i x_j = M[i][j] z on a complement of the center, up to congruence
M -> P^T M P.  Classification therefore reduces to the congruence canonical
blocks J_n, Gamma_n and H_2n(lambda) of Horn & Sergeichuk (LAA 2006), read
straight from two congruence invariants:

* invariant factors of the pencil M^T + t M give the even singular sizes
  (divisor t^k  <->  singular block J_2k) and the cosquare Jordan data of
  the regular part (elementary divisor (t - t0)^e  <->  block (mu = -t0,
  size e)); a block at mu = (-1)^(e+1) is Gamma_e (J1 when e = 1), and the
  others pair up as {mu, 1/mu} into H_2e(mu);
* kernel-preimage chains V1 = ker M, V_{s+1} = {v : Mv in M^T V_s} give the
  odd singular sizes: a singular block of size m contributes min(s, ceil(m/2))
  to dim V_s and regular blocks contribute nothing.

These descriptors are the answer.  The pieces must tile the form exactly,
so an internal disagreement raises instead of misclassifying.  The cosquare
M^(-T) M of an invertible form and its Jordan structure stay available
(`cosquare`) as an independent route to the same blocks, which the tests
use as an oracle.

Everything is fully determined over the algebraic closure; over the base
field itself, classification is reported whenever the pencil data splits
and refused (`Unsupported`) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, center, is_extra_special
from .catalog import BlockDescriptor, normalize_descriptor
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
    poly_degree,
    poly_divmod,
    poly_monic,
    poly_mul,
    poly_sub,
    poly_trim,
    preimage_of_columnspace,
    roots_in_field,
    scalar_sort_key,
)
from .scalars import Field


@dataclass(frozen=True)
class BilinearForm:
    """Square matrix of z-coefficients."""

    m: Matrix


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
        lam_key = (0, 0) if d.lam is None else scalar_sort_key(self.field.coerce(d.lam))
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


def form_of(a: Algebra) -> BilinearForm:
    """Bilinear form of an extra special algebra on a complement of the center.

    The spanning central vector is the echelon basis vector of the center;
    the complement consists of the remaining coordinate axes.
    """
    if not is_extra_special(a):
        raise NotExtraSpecial("forms are defined for extra special algebras")
    ((pivot, zrow),) = center(a).pivots.items()
    complement = [i for i in range(a.dim) if i != pivot]
    position = {i: r for r, i in enumerate(complement)}
    rows = [[a.field.zero] * len(complement) for _ in complement]
    for i, j, row in a.nonzero_products():
        if i == pivot or j == pivot:
            continue
        coef = row.get(pivot)
        if not coef or row != {k: coef * x for k, x in zrow.items()}:
            raise InternalCheckFailure("a product escapes the center line")
        rows[position[i]][position[j]] = coef
    matrix = Matrix(a.field, rows) if rows else Matrix.zeros(a.field, 0, 0)
    return BilinearForm(matrix)


def algebra_from_form(m: Matrix, basis_names=None) -> Algebra:
    """Algebra on n+1 coordinates with x_i x_j = M[i][j] z (z last)."""
    n = m.nrows
    if not m.is_square:
        raise ValueError("a bilinear form matrix must be square")
    products = {(i, j): {n: x} for i, row in enumerate(m.rows) for j, x in enumerate(row) if x}
    if basis_names is None:
        basis_names = [f"x{i + 1}" for i in range(n)] + ["z"]
    return Algebra(m.field, n + 1, products, basis_names)


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


def _pencil_diagonal(field: Field, m: Matrix) -> list:
    """Diagonalize the polynomial pencil M^T + t M by unimodular operations.

    Returns the nonzero diagonal entries.  Any diagonalization reached by
    row/column elimination has the same multiset of prime-power factors as
    the Smith normal form, which is all the caller consumes.
    """
    n = m.nrows
    mat = [
        [poly_trim([m.rows[j][i], m.rows[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    diag = []
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    p = mat[i][j]
                    if p and (best is None or len(p) < len(mat[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return diag
            i0, j0 = best
            if i0 != t:
                mat[i0], mat[t] = mat[t], mat[i0]
            if j0 != t:
                for row in mat:
                    row[j0], row[t] = row[t], row[j0]
            remainder_seen = False
            pivot = mat[t][t]
            for i in range(t + 1, n):
                if mat[i][t]:
                    q, _ = poly_divmod(field, mat[i][t], pivot)
                    for j in range(t, n):
                        mat[i][j] = poly_sub(field, mat[i][j], poly_mul(field, q, mat[t][j]))
                    if mat[i][t]:
                        remainder_seen = True
            for j in range(t + 1, n):
                if mat[t][j]:
                    q, _ = poly_divmod(field, mat[t][j], pivot)
                    for i in range(t, n):
                        mat[i][j] = poly_sub(field, mat[i][j], poly_mul(field, q, mat[i][t]))
                    if mat[t][j]:
                        remainder_seen = True
            if not remainder_seen:
                break
        diag.append(poly_monic(field, mat[t][t]))
    return diag


def _pencil_invariants(field: Field, m: Matrix):
    """Even singular sizes and regular cosquare blocks from the pencil.

    Returns `(even_sizes, cosquare_blocks)` where cosquare_blocks is a list
    of (eigenvalue, size) pairs.  Raises `DoesNotSplit` when the regular
    data does not split over the base field.
    """
    even_sizes = []
    cosquare_blocks = []
    for entry in _pencil_diagonal(field, m):
        k = 0
        while k < len(entry) and not entry[k]:
            k += 1
        if k:
            even_sizes.append(2 * k)
            entry = entry[k:]
        if poly_degree(entry) <= 0:
            continue
        roots, remainder = roots_in_field(field, entry)
        if poly_degree(remainder) > 0:
            raise DoesNotSplit(remainder)
        for t0, mult in roots:
            cosquare_blocks.append((-t0, mult))
    return even_sizes, cosquare_blocks


def _odd_singular_sizes(field: Field, m: Matrix, even_sizes) -> list[int]:
    """Odd singular block sizes from the kernel-preimage chain dimensions.

    With V_1 = ker M and V_{s+1} = {v : Mv in M^T V_s}, a singular block of
    size k contributes min(s, ceil(k/2)) to dim V_s and a regular block
    contributes nothing.  Subtracting the even blocks (already known from
    the pencil) leaves the odd size multiset.
    """
    mt = m.transpose()
    current = m.nullspace()
    dims = [current.dim]
    while True:
        image = [mt.apply(v) for v in current.basis]
        bigger = preimage_of_columnspace(m, image)
        if bigger.dim == current.dim:
            break
        current = bigger
        dims.append(current.dim)

    def dim_v(s: int) -> int:
        if s <= 0:
            return 0
        return dims[min(s, len(dims)) - 1]

    odd = []
    for s in range(1, len(dims) + 1):
        # blocks whose half-length is exactly s
        eq = (dim_v(s) - dim_v(s - 1)) - (dim_v(s + 1) - dim_v(s))
        even_eq = sum(1 for e in even_sizes if e // 2 == s)
        count = eq - even_eq
        if count < 0:
            raise InternalCheckFailure("chain dimensions disagree with pencil data")
        if count:
            if s == 1:
                raise InternalCheckFailure("size-1 singular block after degeneracy check")
            odd.extend([2 * s - 1] * count)
    return odd


def _pair_cosquare_blocks(field: Field, blocks) -> list[BlockDescriptor]:
    """Map cosquare Jordan data to Gamma / H / J1 descriptors.

    A block of size s at eigenvalue (-1)^(s+1) stands alone (Gamma_s, or J1
    when s = 1); everything else must pair up as {mu, 1/mu} with equal
    sizes.
    """
    counts: dict[tuple, int] = {}
    for mu, size in blocks:
        counts[(mu, size)] = counts.get((mu, size), 0) + 1
    descriptors = []
    for (mu, size), _ in sorted(
        counts.items(), key=lambda kv: (kv[0][1], scalar_sort_key(kv[0][0]))
    ):
        cnt = counts[(mu, size)]
        if cnt == 0:
            continue
        gamma_sign = field.one if (size + 1) % 2 == 0 else -field.one
        if mu == gamma_sign:
            kind = BlockDescriptor("j", 1) if size == 1 else BlockDescriptor("gamma", size)
            descriptors.extend([kind] * cnt)
            counts[(mu, size)] = 0
            continue
        if not mu:
            raise UnpairedEigenvalue("cosquare has eigenvalue zero")
        inv = field.one / mu
        if inv == mu:
            if cnt % 2:
                raise UnpairedEigenvalue(
                    f"odd number of self-paired blocks at {mu} of size {size}"
                )
            descriptors.extend([BlockDescriptor("h", size, mu)] * (cnt // 2))
            counts[(mu, size)] = 0
            continue
        other = counts.get((inv, size), 0)
        if other != cnt:
            raise UnpairedEigenvalue(
                f"blocks of size {size} at {mu} and {inv} do not pair up"
            )
        descriptors.extend([BlockDescriptor("h", size, mu)] * cnt)
        counts[(mu, size)] = 0
        counts[(inv, size)] = 0
    return [normalize_descriptor(field, d) for d in descriptors]


def regularize(f: BilinearForm) -> tuple[list[BlockDescriptor], tuple[int, ...]]:
    """Split a form into regular block descriptors and singular canonical sizes.

    Returns `(regular_descriptors, singular_sizes)`: the descriptors are the
    J1, Gamma and H blocks of the invertible part, paired from the pencil's
    cosquare data, and the sizes (all >= 2) are the chain algebras Jn hiding
    in the form.
    """
    field = f.m.field
    n = f.m.nrows
    if n == 0:
        return [], ()
    # vectors with zero row and zero column: ker M meet ker M^T, the kernel
    # of M stacked on M^T
    degenerate = Matrix(field, f.m.rows + f.m.transpose().rows).nullspace()
    if degenerate.dim:
        raise DegenerateVector(
            "the form has a vector with zero row and zero column"
        )
    even_sizes, cosquare_blocks = _pencil_invariants(field, f.m)
    odd_sizes = _odd_singular_sizes(field, f.m, even_sizes)
    sizes = tuple(sorted(even_sizes + odd_sizes))
    regular_dim = sum(size for _, size in cosquare_blocks)
    if regular_dim + sum(sizes) != n:
        raise InternalCheckFailure("block dimensions do not fill the form")
    return _pair_cosquare_blocks(field, cosquare_blocks), sizes


def classify(a: Algebra) -> BlockDecomposition:
    """Canonical central-sum decomposition of an extra special algebra.

    Singular canonical blocks become J(n) descriptors and the regular blocks
    come from the pencil invariants (see `regularize`).  Raises
    `Unsupported` (via `DoesNotSplit`) when the data does not split over
    the base field, and `UnpairedEigenvalue` if the cosquare data cannot be
    matched into blocks, which signals a bug or a broken input.
    """
    regular, sizes = regularize(form_of(a))
    return BlockDecomposition(a.field, [BlockDescriptor("j", s) for s in sizes] + regular)
