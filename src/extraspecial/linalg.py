"""Exact linear algebra over the rationals and GF(p).

Everything is computed exactly: ranks, kernels, inverses, characteristic
polynomials (Berkowitz's division-free scheme, so small prime fields are
safe), and Jordan block data via rank sequences.  One sparse row-reduction
loop, `reduce_ints`, backs every elimination over both fields, on int rows:
residues mod p (Dumas & Villard, CASC 2002) or cleared denominators over Q;
a column index (`holders`) sends each back-substitution only to the rows
that need it.  `kernel_basis`, the subspaces of `algebra` and `cohomology`
and the classification in `forms` hand it int rows; `sparse_reduce` wraps it
for scalar rows, which `Field.ints` lifts.  A kernel eliminates its rows in
reversed column order, so the kernel vectors that `kernel_of` reads off the
store already are a reduced echelon basis; `kernel_basis` first drops the
columns that single-entry rows fix to zero.

A `Subspace` is held in the engine's own format: the int store {pivot
column: sparse int row} of its reduced echelon basis that `reduce_ints`
builds.  Scalars and dense vectors appear only at the edges: `Matrix`,
input to `Subspace`, and its `pivots` and `basis` views.

Polynomials appear as ascending coefficient lists (index = degree) with no
trailing zeros; the zero polynomial is the empty list.  `roots_in_field`
finds roots at the cost of the field (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 14-15): over GF(p) with p below 256, by evaluating
f at every residue; over a larger prime, gcd(f, t^p - t), with t^p taken
mod f one bit at a time, split by seeded Cantor-Zassenhaus; over Q, the
roots of the square-free part modulo a small prime that keeps it
square-free, Hensel-lifted and reconstructed; each candidate u/v is then
checked exactly by dividing out v t - u.  That work runs on integer
coefficient lists.  `pencil_minor` takes the pencil as int rows, packs
each entry a + tb into the integer a + b 2^s (Kronecker substitution,
ibid. 8.4) and runs Bareiss's fraction-free elimination on those ints,
over Q and GF(p) alike.  A row with no entry in the pivot column is not
touched: it keeps the step it was last brought up to date at and is
scaled once, when it next holds a pivot column, so a banded pencil costs
its fill-in, not n^3.  Over GF(p) an entry's degree is read from its top
digit down.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import count
from math import gcd, lcm

from .errors import DimensionMismatch, DoesNotSplit, FieldMismatch, NotSquare, Singular
from .scalars import Field, _is_prime

# ---------------------------------------------------------------------------
# sparse row reduction
# ---------------------------------------------------------------------------


def sparse_reduce(field: Field, rows) -> dict:
    """Fully reduce sparse rows; returns {pivot column: reduced row dict}.

    Rows are dicts mapping column index to a scalar; zeros are dropped.
    Every returned pivot row is normalized (pivot entry 1) and carries no
    support on any other pivot column, so the collection is a reduced
    echelon basis of the row space.  The rows are lifted once
    (`Field.ints`), reduced by `reduce_ints`, and read back as scalars.
    """
    return _scalar_rows(field, reduce_ints({}, field.ints(rows)[0], field.p))


def _scalar_rows(field: Field, store: dict) -> dict:
    """An int echelon store as scalar rows, each divided by its lead."""
    scalar = field.scalar
    return {pc: {c: scalar(x, row[pc]) for c, x in row.items()} for pc, row in store.items()}


def reduce_ints(work: dict, rows, p=None, rank=None) -> dict:
    """The int loop of `sparse_reduce`: reduce int rows into the echelon store `work`, in place.

    A store row holds its pivot's lead and no other pivot column.  Over GF(p)
    entries are residues and leads are 1; over Q (Bareiss, *Math. Comp.* 22,
    1968) rows are primitive with positive leads, and an update scales its
    target by the pivot's lead, then divides out the content.  `holders`
    sends each new pivot only to the rows that hold its column (Davis,
    *Direct Methods for Sparse Linear Systems*, ch. 3).  Incoming rows are
    consumed; given `rank`, it stops at that many pivots.  Returns {pivot
    column: row} of the rows it created or changed.
    """
    holders, touched = {}, {}
    for pc, prow in work.items():
        for cc in prow:
            if cc != pc:
                holders.setdefault(cc, set()).add(pc)
    for row in rows:
        row = _clear_pivots(work, row, p)
        if not row:
            continue
        c = min(row)
        lead = row.pop(c)
        if p and lead != 1:
            inv, lead = pow(lead, -1, p), 1
            row = {cc: vv * inv % p for cc, vv in row.items()}
        elif not p and (g := gcd(lead, *row.values()) * (-1 if lead < 0 else 1)) != 1:
            lead, row = lead // g, {cc: vv // g for cc, vv in row.items()}
        for cc in row:
            holders.setdefault(cc, set()).add(c)
        for pc in holders.pop(c, ()):
            existing = work[pc]
            coef = existing.pop(c)
            if lead != 1:  # over Q only
                existing = {cc: vv * lead for cc, vv in existing.items()}
            for cc, vv in row.items():
                nv = existing.get(cc, 0) - coef * vv
                if p:
                    nv %= p
                if nv:
                    existing[cc] = nv
                    holders[cc].add(pc)
                else:
                    del existing[cc]
                    holders[cc].discard(pc)
            g = 1 if p else gcd(*existing.values())
            work[pc] = touched[pc] = existing if g == 1 else {cc: vv // g for cc, vv in existing.items()}
        row[c] = lead
        work[c] = touched[c] = row
        if len(work) == rank:
            break
    return touched


def _clear_pivots(pivots: dict, row: dict, p=None) -> dict:
    """Subtract int pivot rows from the int `row` until no pivot column is left.

    Reductions only add non-pivot support, so one sweep over the initial
    hits suffices.  The returned remainder is empty exactly when the row
    lies in the span of the pivot rows.  Given `p`, updates are mod p;
    over Q a pivot entry other than 1 scales `row` first.
    """
    for c in [c for c in row if c in pivots]:
        coef = row.pop(c, None)
        if not coef:
            continue
        if not p and (lead := pivots[c][c]) != 1:
            row = {cc: vv * lead for cc, vv in row.items()}
        for cc, vv in pivots[c].items():
            if cc == c:
                continue
            nv = row[cc] - coef * vv if cc in row else -coef * vv
            if p:
                nv %= p
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
    return row


def kernel_basis(field: Field, ncols: int, rows) -> "Subspace":
    """The subspace {v : row . v = 0 for every constraint row} of F^ncols.

    `rows` are int rows with no zero entry: residues over GF(p), any int
    multiple of a scalar row over Q.  A presolve first reads every row: a
    one-entry row fixes v_c = 0, and c leaves the other rows.  The rest are
    reduced in reversed column order (c -> ncols - 1 - c), and `kernel_of`
    reads the kernel off the store.
    """
    rows, last = list(rows), ncols - 1
    fixed = {c for row in rows if len(row) == 1 for c in row}
    rest = ({last - c: x for c, x in row.items() if c not in fixed} for row in rows if len(row) > 1)
    return kernel_of(field, ncols, reduce_ints({}, (row for row in rest if row), field.p), fixed)


def kernel_of(field: Field, ncols: int, pivots: dict, skip=()) -> "Subspace":
    """The kernel of the echelon store `pivots` of rows in reversed column order, less the free
    columns in `skip`.  e_f - sum of (prow[f] / lead) e_pc, the vector of a free column f, starts
    at f, so the vectors already are a reduced echelon basis.  Over Q each is taken times the lcm
    of the leads it meets, made primitive only when one of them is not 1."""
    last, p = ncols - 1, field.p
    kernel = {f: {f: 1} for f in range(ncols) if f not in skip and last - f not in pivots}
    for pc, prow in pivots.items():
        for f, x in prow.items():
            if f != pc and last - f in kernel:
                kernel[last - f][last - pc] = -x % p if p else -x
    leads = {} if p else {last - pc: lead for pc, prow in pivots.items() if (lead := prow[pc]) != 1}
    for f, vec in kernel.items():
        if leads and (met := [leads[c] for c in vec if c in leads]):
            scale = lcm(*met)
            vec = {c: x * (scale // leads.get(c, 1)) for c, x in vec.items()}
            g = gcd(*vec.values())
            kernel[f] = {c: x // g for c, x in vec.items()}
    return Subspace._echelon(field, ncols, kernel)


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
        return len(reduce_ints({}, self.field.ints(map(dict, map(enumerate, self.rows)))[0], self.field.p))

    def nullspace(self) -> "Subspace":
        """Right kernel {v : M v = 0}."""
        return kernel_basis(self.field, self.ncols, self.field.ints(map(dict, map(enumerate, self.rows)))[0])

    def inverse(self) -> "Matrix":
        """Inverse, read from the reduced echelon basis of the rows of [M | I]."""
        if not self.is_square:
            raise NotSquare("inverse of a non-square matrix")
        n = self.nrows
        pivots = sparse_reduce(self.field, (dict(enumerate(r)) | {n + i: 1} for i, r in enumerate(self.rows)))
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
        blocks.sort(key=lambda b: (self.field.ratio(b[0]), -b[1]))
        return JordanStructure(tuple(blocks))


class JordanStructure(namedtuple("JordanStructure", "blocks")):
    """Multiset of (eigenvalue, block size) pairs, canonically ordered, as the tuple `blocks`."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of F^n held as its reduced echelon basis, row-sparse, on ints.

    `_rows` maps each pivot column, in increasing order, to its basis row
    {column: nonzero int}: the store of `reduce_ints`, residues with lead 1
    over GF(p), primitive rows with a positive lead over Q.  Each row is
    zero in the other pivot columns.  That basis is unique, so equality is
    structural and containment is one sweep.  `pivots` and `basis` are its
    scalar views, each row divided by its lead.

    `vectors` may mix sparse rows (dicts) and dense vectors of length
    `ambient_dim`; their entries are coerced into the field.
    """

    __slots__ = ("field", "ambient_dim", "_rows")

    def __init__(self, field: Field, ambient_dim: int, vectors=()):
        rows, _ = field.ints([_sparse_row(ambient_dim, v) for v in vectors])
        self.field, self.ambient_dim = field, ambient_dim
        self._rows = dict(sorted(reduce_ints({}, rows, field.p).items()))

    @classmethod
    def _echelon(cls, field: Field, ambient_dim: int, rows: dict) -> "Subspace":
        # `rows` must already be the int store of the reduced echelon basis, keys increasing
        sub = cls.__new__(cls)
        sub.field, sub.ambient_dim, sub._rows = field, ambient_dim, rows
        return sub

    @classmethod
    def _span(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of int rows, as `kernel_basis` takes them; the rows are consumed."""
        return cls._echelon(field, ambient_dim, dict(sorted(reduce_ints({}, rows, field.p).items())))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> dict:
        """{pivot column: basis row {column: nonzero scalar}} with 1 at the pivot, in pivot order."""
        return _scalar_rows(self.field, self._rows)

    @property
    def basis(self) -> tuple:
        """The reduced echelon basis as dense tuples, in pivot order."""
        zero = self.field.zero
        return tuple(tuple(row.get(c, zero) for c in range(self.ambient_dim)) for row in self.pivots.values())

    def contains(self, vec) -> bool:
        (row,), _ = self.field.ints([_sparse_row(self.ambient_dim, vec)])
        return not _clear_pivots(self._rows, row, self.field.p)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.field != self.field:
            raise FieldMismatch(f"subspaces over {self.field} and {other.field}")
        return not any(_clear_pivots(self._rows, dict(row), self.field.p) for row in other._rows.values())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self):  # of the int store that `__eq__` compares, whatever the order of its entries
        rows = frozenset((c, frozenset(row.items())) for c, row in self._rows.items())
        return hash((self.field, self.ambient_dim, rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


def _sparse_row(ambient_dim: int, vec) -> dict:
    """A sparse row with its columns checked, or a dense vector of length `ambient_dim` as one."""
    if isinstance(vec, dict):
        if not all(0 <= c < ambient_dim for c in vec):
            raise DimensionMismatch("vector coordinate out of range")
        return vec
    if len(vec) != ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    return dict(enumerate(vec))


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


def roots_in_field(field: Field, poly) -> tuple[list, list]:
    """All roots of `poly` in the field, with multiplicities.

    Returns `(roots, remainder)`: roots is a list of (root, multiplicity)
    pairs in `Field.ratio` order and remainder is the rootless cofactor
    (constant exactly when the polynomial splits into linear factors).
    Candidates u/v come from `_roots_mod` over GF(p) and `_rational_roots`
    over Q.  The check runs on the integer polynomial: each candidate is
    divided out by v t - u, exactly over Z (Gauss's lemma) or mod p, as
    often as it divides; the roots and the cofactor become scalars once.
    """
    p = poly_trim(list(poly))
    if poly_degree(p) <= 0:
        return [], p
    q, scale = field.p, 1
    (lifted,), den = field.ints([dict(enumerate(p))])
    f = [lifted.get(i, 0) for i in range(len(p))]
    roots, candidates = [], [(r, 1) for r in _roots_mod(f, q)] if q else _rational_roots(f)
    for u, v in sorted(candidates):
        count = 0
        while len(f) > 1 and (quot := _idivide_linear(f, u, v, q)) is not None:
            f, count = quot, count + 1
        if count:
            roots.append((field.scalar(u, v), count))
            scale *= v**count
    return roots, [field.scalar(x * scale, den) for x in f]


def _idivide_linear(f, u: int, v: int, p=None):
    """f / (v t - u) for an int polynomial f, over Z or mod p (v = 1); None if it does not divide.

    Synthetic division from the top: out gets q_(k-1) = (f_k + u q_k) / v,
    down to q_(-1), which is 0 exactly when the remainder is.
    """
    out = [0]
    for c in reversed(f):
        q, r = divmod(c + u * out[-1], v)
        if r:
            return None
        out.append(q % p if p else q)
    return None if out[-1] else out[-2:0:-1]


# timed in-process on 40 seeded monic polynomials of degree 1-18 per cell, the scan
# costs 0.8-1.4x what Cantor-Zassenhaus does at p = 257 and 1.0-2.4x at p = 401
_SCAN_BELOW = 256


def _roots_mod(f, p: int) -> list[int]:
    """Distinct roots in 0..p-1 of an integer polynomial read mod p.

    Below `_SCAN_BELOW` the field is scanned: p Horner evaluations cost less
    than the powers mod f below.  Above it, gcd(f, t^p - t), with t^p taken
    by `_ipowmod` mod f, is the product of the distinct linear factors of f;
    Cantor-Zassenhaus splitting, seeded by p, then separates them by the
    quadratic character of t + a.
    """
    f = _ipoly(f, p)
    if len(f) < 2:
        return []
    if p < _SCAN_BELOW:
        return [r for r in range(p) if not _ieval(f, r, p)]
    x = _ipowmod(0, p, f, p) + [0, 0]
    x[1] -= 1
    rng = random.Random(p)
    roots, stack = [], [_igcd_mod(f, _ipoly(x, p), p)]
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            w = _ipowmod(rng.randrange(p), (p - 1) // 2, g, p) or [0]
            w[0] -= 1
            d = _igcd_mod(g, _ipoly(w, p), p)
            stack += [d, _idivmod(g, d, p)[0]] if 1 < len(d) < len(g) else [g]
    return roots


def _rational_roots(f) -> list:
    """Candidate rational roots u/v (pairs in lowest terms, v > 0) of a nonzero integer polynomial.

    The roots of its square-free part g modulo a small prime that keeps g
    square-free are Hensel-lifted until p^k > 2|lc(g) g(0)|.  A rational
    root u/v has u | g(0) and v | lc(g), so lc(g) u/v is the symmetric
    residue of lc(g) times the lift.  Candidates still need an exact check.
    """
    candidates = []
    if not f[0]:
        candidates.append((0, 1))
        while not f[0]:
            f = f[1:]
    g = _idivmod(f, _igcd(f, _derivative(f)))[0]
    if len(g) < 2:
        return candidates
    dg = _derivative(g)
    p = 3
    while g[-1] % p == 0 or len(_igcd_mod(g, _ipoly(dg, p), p)) > 1:
        p = next(q for q in count(p + 2, 2) if _is_prime(q))
    bound = 2 * abs(g[0] * g[-1])
    for a in _roots_mod(g, p):
        q = p
        while q <= bound:
            q *= q
            a = (a - _ieval(g, a, q) * pow(_ieval(dg, a, q), -1, q)) % q
        b = g[-1] * a % q
        b -= q if 2 * b > q else 0
        d = gcd(b, g[-1]) * (-1 if g[-1] < 0 else 1)
        candidates.append((b // d, g[-1] // d))
    return candidates


# Integer polynomials: ascending int lists with no trailing zeros, reduced
# mod p when a modulus is given (GF(p)[t]) and over Z when it is None.


def _ipoly(f, p=None) -> list:
    return poly_trim([x % p for x in f] if p else list(f))


def _imul(f, g, p=None) -> list:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return _ipoly(out, p)


def _idivmod(f, g, p=None) -> tuple[list, list]:
    """Quotient and remainder by g over GF(p); over Z, g must divide f exactly."""
    rem, d = list(f), len(g) - 1
    inv = pow(g[-1], -1, p) if p else None
    quot = [0] * max(0, len(rem) - d)
    for shift in range(len(rem) - 1 - d, -1, -1):
        c = rem[shift + d] * inv % p if p else rem[shift + d] // g[-1]
        quot[shift] = c
        for i, y in enumerate(g):
            rem[shift + i] -= c * y
    return _ipoly(quot, p), _ipoly(rem[:d], p)


def _igcd_mod(f, g, p: int) -> list:
    """Monic gcd over GF(p) of f (leading coefficient a unit mod p) and g."""
    while g:
        f, g = g, _idivmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _igcd(f, g) -> list:
    """The primitive gcd over Z[t] (deg f > deg g), by primitive pseudo-remainders."""
    while g:
        f, g = g, _primitive(_idivmod([x * g[-1] ** (len(f) - len(g) + 1) for x in f], g)[1])
    return _primitive(f)


def _primitive(f) -> list:
    content = gcd(*f)
    return [x // content for x in f] if f else f


def _ipowmod(a: int, e: int, m, p: int) -> list:
    """(t + a)^e mod m over GF(p), deg m >= 1, from the top bit of e down.

    Each bit squares and reduces; a set bit then multiplies by t + a, one
    shift and one scaled add, which raise the degree by at most one, so one
    division step by m brings it back below deg m.
    """
    d, inv, out = len(m) - 1, pow(m[-1], -1, p), [1]
    for bit in bin(e)[2:]:
        out = _idivmod(_imul(out, out, p), m, p)[1]
        if bit == "1":
            out = [x + a * y for x, y in zip([0, *out], [*out, 0])]
            if len(out) > d:
                c = out.pop() * inv
                out = [x - c * y for x, y in zip(out, m)]
            out = _ipoly(out, p)
    return out


def _ieval(f, x: int, q: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


def _derivative(f) -> list:
    return [i * x for i, x in enumerate(f)][1:]


# ---------------------------------------------------------------------------
# matrix pencils
# ---------------------------------------------------------------------------


def pencil_minor(field: Field, a_rows, b_rows) -> tuple[int, list]:
    """Normal rank r of the square pencil A + tB and one nonzero r x r minor.

    The sparse rows of A and B hold ints: over Q the entries of a pencil
    whose denominators the caller cleared, over GF(p) residues in [0, p),
    read as symmetric residues.  H, the product over rows of
    max(1, sum of |a_ij| + |b_ij|), bounds every coefficient of every minor
    of these ints, so at s = H.bit_length() + 2 the entry a_ij + t b_ij is
    packed as a_ij + b_ij 2^s (Kronecker substitution) and a minor is read
    back from its signed base-2^s digits.  Bareiss runs on the packed ints:
    t -> 2^s is a ring map Z[t] -> Z, so each division by the previous pivot
    stays exact.  The pivot is the live entry of lowest degree in t, the
    lowest row on ties; over GF(p) both are read from the digits mod p
    (`_live_degree`, from the top digit down), which replays the
    elimination over GF(p)[t], since a minor of the ints reduces mod p to
    the same minor.  The last pivot is the minor, read out by `_digits`.

    Bareiss's update of a row with no entry in the pivot column only scales
    it by pivot / prev, and those factors telescope.  So with pivots[k] the
    pivot of step k (pivots[0] = 1) and at[i] the step row i was last
    brought up to date at, its true value at step k is
    rows[i] * pivots[k] // pivots[at[i]], and the division is exact because
    the true entries are minors.  A row is brought up to date only when it
    holds the column being eliminated: the degree scan reads that entry,
    and the pivot row is one of those rows.  Every other row is skipped.
    """
    p, lifted, bound = field.p, [], 1
    for a, b in zip(a_rows, b_rows):
        if p:  # the symmetric residue is the least int in absolute value
            a, b = ({j: x - p if 2 * x > p else x for j, x in r.items()} for r in (a, b))
        lifted.append((a, b))
        bound *= max(1, sum(map(abs, (*a.values(), *b.values()))))
    s = bound.bit_length() + 2
    rows = [{j: x for j in a.keys() | b.keys() if (x := a.get(j, 0) + (b.get(j, 0) << s))} for a, b in lifted]
    n, rank, pivots, at = len(rows), 0, [1], [0] * len(rows)
    offset = (1 << (s - 1)) * (((1 << (s * (n + 2))) - 1) // ((1 << s) - 1))
    for c in range(n):
        # rows holding c are brought up to step `rank`; then (1 + degree in t, row) of each
        # entry that is not 0 in the field.  A column with none is skipped, and its entries,
        # still minors of the ints, are not read
        prev, live = pivots[rank], []
        for i in range(rank, n):
            if (x := rows[i].get(c)) is None:
                continue
            if at[i] != rank:
                rows[i] = {j: y * prev // pivots[at[i]] for j, y in rows[i].items()}
                x, at[i] = rows[i][c], rank
            if d := (_live_degree(x, s, p, offset) if p else abs(x).bit_length() // s + 1):
                live.append((d, i))
        if not live:
            continue
        top = min(live)[1]
        rows[rank], rows[top] = rows[top], rows[rank]
        at[rank], at[top] = at[top], at[rank]
        pivot_row = rows[rank]
        pivot = pivot_row.pop(c)
        for i in range(rank + 1, n):
            row = rows[i]
            if (lead := row.pop(c, None)) is None:
                continue  # Bareiss would only scale it by pivot / prev: `at` holds that back
            rows[i] = {
                j: x for j in row.keys() | pivot_row.keys()
                if (x := (pivot * row.get(j, 0) - lead * pivot_row.get(j, 0)) // prev)
            }
            at[i] = rank + 1
        pivots.append(pivot)
        rank += 1
    return rank, [field.coerce(x) for x in _digits(pivots[rank], s, p)]


def _live_degree(x: int, s: int, p: int, offset: int) -> int:
    """1 + the degree mod p of the packed entry x, 0 when x is 0 mod p, read from the top.

    `offset` holds 2^(s-1) in each of the digits 0..n+1, which covers every
    digit of an entry of an n x n pencil: x + offset holds each signed digit
    of x plus 2^(s-1), unsigned, so digit k is one shift and mask away.  The
    coefficients are below 2^(s-2), so the top digit of x is
    x.bit_length() // s, and the shifts from there down stay short until a
    digit is not 0 mod p.
    """
    y, half, mask = x + offset, 1 << (s - 1), (1 << s) - 1
    for k in range(x.bit_length() // s, -1, -1):
        if (((y >> (s * k)) & mask) - half) % p:
            return k + 1
    return 0


def _digits(x: int, s: int, p=None) -> list:
    """The signed base-2^s digits of x, lowest first, read mod p when p is given."""
    out, half, mask = [], 1 << (s - 1), (1 << s) - 1
    while x:
        out.append(d := ((x + half) & mask) - half)
        x = (x - d) >> s
    return _ipoly(out, p)
