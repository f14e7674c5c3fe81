"""Exact linear algebra over the rationals and GF(p).

Everything is computed exactly: ranks, kernels, inverses,
characteristic polynomials (Berkowitz's division-free scheme, so small prime
fields are safe), and Jordan block data via rank sequences.  One sparse
row-reduction engine backs every elimination; the hot callers
(annihilator and cocycle systems) produce rows that are mostly zero, and the
sparse path keeps those cheap without changing any result.

A `Subspace` is held in the engine's own format: the map {pivot column:
sparse row} of its reduced echelon basis, which `sparse_reduce` returns.
Dense vectors appear only at the edges: `Matrix` rows, dense input to
`Subspace`, and its `basis` property.

Polynomials appear as ascending coefficient lists (index = degree) with no
trailing zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DoesNotSplit, NotSquare, Singular
from .scalars import Field, Fp

# ---------------------------------------------------------------------------
# sparse row reduction
# ---------------------------------------------------------------------------


def sparse_reduce(field: Field, rows) -> dict:
    """Fully reduce sparse rows; returns {pivot column: reduced row dict}.

    Rows are dicts mapping column index to a nonzero scalar.  Every returned
    pivot row is normalized (pivot entry 1) and carries no support on any
    other pivot column, so the collection is a reduced echelon basis of the
    row space.  That invariant is what makes kernel extraction a plain read.
    """
    pivots: dict[int, dict] = {}
    zero, one = field.zero, field.one
    for incoming in rows:
        row = _clear_pivots(pivots, {c: v for c, v in incoming.items() if v}, zero)
        if not row:
            continue
        c = min(row)
        lead = row.pop(c)
        if lead != one:
            row = {cc: vv / lead for cc, vv in row.items()}
        row[c] = one
        for existing in pivots.values():
            coef = existing.get(c)
            if coef:
                del existing[c]
                for cc, vv in row.items():
                    if cc == c:
                        continue
                    nv = existing.get(cc, zero) - coef * vv
                    if nv:
                        existing[cc] = nv
                    else:
                        existing.pop(cc, None)
        pivots[c] = row
    return pivots


def _clear_pivots(pivots: dict, row: dict, zero) -> dict:
    """Subtract pivot rows from `row`, in place, until no pivot column is left.

    Reductions only add non-pivot support, so one sweep over the initial
    hits suffices.  The returned remainder is empty exactly when the row
    lies in the span of the pivot rows.
    """
    for c in [c for c in row if c in pivots]:
        coef = row.pop(c, None)
        if not coef:
            continue
        for cc, vv in pivots[c].items():
            if cc == c:
                continue
            nv = row.get(cc, zero) - coef * vv
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
    return row


def kernel_basis(field: Field, ncols: int, rows) -> "Subspace":
    """The subspace {v : row . v = 0 for every constraint row} of F^ncols.

    Each free column f gives the kernel vector e_f - sum of prow[f] e_pc
    over the pivot rows; those rows are not echelon in column order, so the
    `Subspace` reduces them once more.
    """
    pivots = sparse_reduce(field, rows)
    kernel = {f: {f: field.one} for f in range(ncols) if f not in pivots}
    for pc, prow in pivots.items():
        for f, coef in prow.items():
            if f != pc:
                kernel[f][pc] = -coef
    return Subspace(field, ncols, kernel.values())


def scalar_sort_key(x):
    """Total order on scalars of one field, for deterministic output."""
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    if isinstance(x, Fp):
        return (x.value, 1)
    raise TypeError(f"not a field scalar: {x!r}")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix with entries in one exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, [{body}])"

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, [[] for _ in range(self.ncols)] if self.ncols else [], ncols=0)
        return Matrix(self.field, list(zip(*self.rows)))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, [[x * c for x in r] for r in self.rows], ncols=self.ncols)

    def add(self, other: "Matrix") -> "Matrix":
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.rows)) if other.rows else []
        zero = self.field.zero
        out = []
        for r in self.rows:
            out.append(
                [sum((a * b for a, b in zip(r, c) if a and b), zero) for c in cols]
            )
        return Matrix(self.field, out, ncols=other.ncols)

    def apply(self, vec) -> tuple:
        """Matrix-vector product M.v."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero
        return tuple(
            sum((a * b for a, b in zip(r, vec) if a and b), zero) for r in self.rows
        )

    def rank(self) -> int:
        pivots = sparse_reduce(
            self.field, ({j: x for j, x in enumerate(r) if x} for r in self.rows)
        )
        return len(pivots)

    def nullspace(self) -> "Subspace":
        """Right kernel {v : M v = 0}."""
        return kernel_basis(
            self.field,
            self.ncols,
            ({j: x for j, x in enumerate(r) if x} for r in self.rows),
        )

    def inverse(self) -> "Matrix":
        """Inverse, read from the reduced echelon basis of the rows of [M | I]."""
        if not self.is_square:
            raise NotSquare("inverse of a non-square matrix")
        n = self.nrows
        one = self.field.one
        rows = []
        for i, r in enumerate(self.rows):
            row = {j: x for j, x in enumerate(r) if x}
            row[n + i] = one
            rows.append(row)
        pivots = sparse_reduce(self.field, rows)
        if any(c not in pivots for c in range(n)):
            raise Singular("matrix is singular")
        zero = self.field.zero
        return Matrix(
            self.field,
            [[pivots[i].get(n + j, zero) for j in range(n)] for i in range(n)],
            ncols=n,
        )

    def char_poly(self) -> list:
        """Monic characteristic polynomial det(tI - M), ascending coefficients.

        Berkowitz's division-free recursion; no division means small prime
        fields (p <= dimension) behave the same as the rationals.
        """
        if not self.is_square:
            raise NotSquare("characteristic polynomial of a non-square matrix")
        n = self.nrows
        one, zero = self.field.one, self.field.zero
        coeffs = [one]  # descending coefficients for the empty leading block
        for k in range(n):
            a = self.rows[k][k]
            row_left = self.rows[k][:k]
            v = [self.rows[i][k] for i in range(k)]
            toeplitz_col = [one, -a]
            for t in range(k):
                dot = sum((x * y for x, y in zip(row_left, v) if x and y), zero)
                toeplitz_col.append(-dot)
                if t < k - 1:
                    v = [
                        sum((self.rows[i][j] * v[j] for j in range(k) if v[j]), zero)
                        for i in range(k)
                    ]
            new = []
            for i in range(k + 2):
                acc = zero
                for j, cj in enumerate(coeffs):
                    d = i - j
                    if 0 <= d < len(toeplitz_col) and cj:
                        acc = acc + toeplitz_col[d] * cj
                new.append(acc)
            coeffs = new
        return list(reversed(coeffs))

    def jordan_structure(self) -> "JordanStructure":
        """Eigenvalues with Jordan block sizes, from ranks of powers of M - mu I.

        Raises `DoesNotSplit` (carrying the rootless factor) when the
        characteristic polynomial has no full set of roots in the base field.
        """
        if not self.is_square:
            raise NotSquare("Jordan structure of a non-square matrix")
        n = self.nrows
        poly = self.char_poly()
        roots, remainder = roots_in_field(self.field, poly)
        if poly_degree(remainder) > 0:
            raise DoesNotSplit(remainder)
        blocks = []
        for mu, mult in roots:
            shifted = self.sub(Matrix.identity(self.field, n).scale(mu))
            ranks = [n]
            power = shifted
            while True:
                r = power.rank()
                ranks.append(r)
                if r == n - mult or len(ranks) > mult + 1:
                    break
                power = power.matmul(shifted)
            ge = [ranks[t - 1] - ranks[t] for t in range(1, len(ranks))] + [0]
            for size in range(1, len(ge)):
                count = ge[size - 1] - ge[size]
                blocks.extend([(mu, size)] * count)
        total = sum(size for _, size in blocks)
        if total != n:
            raise AssertionError("Jordan block sizes do not add up; rank sequence bug")
        blocks.sort(key=lambda b: (scalar_sort_key(b[0]), -b[1]))
        return JordanStructure(tuple(blocks))


@dataclass(frozen=True)
class JordanStructure:
    """Multiset of (eigenvalue, block size) pairs, canonically ordered."""

    blocks: tuple


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of F^n held as its reduced echelon basis, row-sparse.

    `pivots` maps each pivot column, in increasing order, to its basis row
    {column: nonzero scalar}: the output of `sparse_reduce`.  Each row has a
    1 in its own pivot column and nothing in the others.  That basis is
    unique, so equality is structural and containment is one sweep.

    `vectors` may mix sparse rows (dicts of field scalars, taken as they
    are) and dense vectors of length `ambient_dim` (coerced into the field).
    """

    __slots__ = ("field", "ambient_dim", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        rows = (_sparse_row(field, ambient_dim, v) for v in vectors)
        self.pivots = dict(sorted(sparse_reduce(field, rows).items()))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple:
        """The reduced echelon basis as dense tuples, in pivot order."""
        zero = self.field.zero
        out = []
        for row in self.pivots.values():
            vec = [zero] * self.ambient_dim
            for c, x in row.items():
                vec[c] = x
            out.append(tuple(vec))
        return tuple(out)

    def contains(self, vec) -> bool:
        row = dict(_sparse_row(self.field, self.ambient_dim, vec))
        return not _clear_pivots(self.pivots, row, self.field.zero)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.pivots.values())

    def sum(self, other: "Subspace") -> "Subspace":
        rows = list(self.pivots.values()) + list(other.pivots.values())
        return Subspace(self.field, self.ambient_dim, rows)

    def project(self, n: int) -> "Subspace":
        """Image in F^n under dropping every coordinate >= n."""
        rows = [{c: x for c, x in row.items() if c < n} for row in self.pivots.values()]
        return Subspace(self.field, n, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.pivots == other.pivots
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


def _sparse_row(field: Field, ambient_dim: int, vec) -> dict:
    """A sparse row as it is, or a dense vector coerced into a sparse row."""
    if isinstance(vec, dict):
        return vec
    if len(vec) != ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    return {i: x for i, x in enumerate(map(field.coerce, vec)) if x}


def preimage_of_columnspace(m: Matrix, column_vectors) -> Subspace:
    """{v : M v lies in the span of the given column vectors}."""
    n = m.ncols
    extra = list(column_vectors)
    rows = []
    for i in range(m.nrows):
        row = {j: m.rows[i][j] for j in range(n) if m.rows[i][j]}
        for l, w in enumerate(extra):
            if w[i]:
                row[n + l] = -w[i]
        if row:
            rows.append(row)
    return kernel_basis(m.field, n + len(extra), rows).project(n)


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient lists)
# ---------------------------------------------------------------------------


def poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def poly_degree(p) -> int:
    return len(p) - 1 if p else -1


def poly_sub(field: Field, p, q) -> list:
    n = max(len(p), len(q))
    zero = field.zero
    out = [
        (p[i] if i < len(p) else zero) - (q[i] if i < len(q) else zero)
        for i in range(n)
    ]
    return poly_trim(out)


def poly_mul(field: Field, p, q) -> list:
    if not p or not q:
        return []
    zero = field.zero
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(field: Field, p, q) -> tuple[list, list]:
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    poly_trim(rem)
    quot = [field.zero] * max(0, len(rem) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q):
        shift = len(rem) - len(q)
        c = rem[-1] / lead
        quot[shift] = c
        for i, b in enumerate(q):
            rem[shift + i] = rem[shift + i] - c * b
        poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), rem


def poly_eval(field: Field, p, x):
    acc = field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_monic(field: Field, p) -> list:
    if not p:
        return []
    lead = p[-1]
    if lead == field.one:
        return list(p)
    return [c / lead for c in p]


def _deflate(field: Field, p, root) -> list:
    """Divide p by (t - root) via synthetic division; root must be exact."""
    n = poly_degree(p)
    out = [field.zero] * n
    acc = p[n]
    out[n - 1] = acc
    for k in range(n - 1, 0, -1):
        acc = p[k] + root * acc
        out[k - 1] = acc
    return poly_trim(out)


def _factor_int(n: int) -> dict[int, int]:
    """Trial-division factorization; sound for cofactors below 1e12."""
    n = abs(n)
    factors: dict[int, int] = {}
    for d in (2, 3):
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    d = 5
    while d * d <= n and d <= 1_000_000:
        for cand in (d, d + 2):
            while n % cand == 0:
                factors[cand] = factors.get(cand, 0) + 1
                n //= cand
        d += 6
    if n > 1:
        if n >= 10**12:
            raise ArithmeticError(f"integer {n} too large to factor for root search")
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisors(n: int) -> list[int]:
    divs = [1]
    for prime, exp in _factor_int(n).items():
        divs = [d * prime**e for d in divs for e in range(exp + 1)]
    return sorted(divs)


def roots_in_field(field: Field, poly) -> tuple[list, list]:
    """All roots of `poly` in the field, with multiplicities.

    Returns `(roots, remainder)`: roots is a list of (root, multiplicity)
    pairs and remainder is the rootless cofactor (constant exactly when the
    polynomial splits into linear factors).  Over GF(p) the search is
    exhaustive; over the rationals it runs on numerator/denominator divisor
    candidates of the primitive integer form.
    """
    p = poly_trim(list(poly))
    if poly_degree(p) <= 0:
        return [], p
    roots = []

    def take_root(r):
        nonlocal p
        count = 0
        while poly_degree(p) > 0 and not poly_eval(field, p, r):
            p = _deflate(field, p, r)
            count += 1
        if count:
            roots.append((r, count))

    if field.kind == "GF":
        for x in range(field.p):
            take_root(field.coerce(x))
            if poly_degree(p) <= 0:
                break
        return roots, p

    take_root(Fraction(0))
    if poly_degree(p) > 0:
        denom_lcm = 1
        for c in p:
            g = _gcd(denom_lcm, c.denominator)
            denom_lcm = denom_lcm * (c.denominator // g)
        ints = [int(c * denom_lcm) for c in p]
        content = 0
        for c in ints:
            content = _gcd(content, c)
        ints = [c // content for c in ints]
        num_divs = _divisors(ints[0])
        den_divs = _divisors(ints[-1])
        for num in num_divs:
            if poly_degree(p) <= 0:
                break
            for den in den_divs:
                take_root(Fraction(num, den))
                take_root(Fraction(-num, den))
    return roots, p


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a
