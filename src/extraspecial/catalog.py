"""Constructors for the canonical extra special families and central sums.

Five families generate everything: the one-generator square J1, the chain
algebras Jn, the alternating-sign algebras Gamma_n, and the lambda family
H2n(lambda), whose n = 1 member is H2(lambda).  Every extra special algebra
is a central sum of these blocks, which is exactly what the classification
in `forms` recovers.  Each family and each sum writes only its bilinear
form (x_i x_j = M_ij z), and `form_algebra` builds the algebra from it.

Block descriptors carry a compact text syntax used by the CLI and by
serialized decompositions: `j:4`, `gamma:3`, `h2:3/2`, `h2n:2:5`, and sums
like `j:2+h2:3`.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Algebra, extra_special_center
from .errors import InvalidDescriptor, NotExtraSpecial
from .linalg import scalar_sort_key
from .scalars import Field


class BlockDescriptor(namedtuple("BlockDescriptor", "kind n lam", defaults=(None,))):
    """One canonical block: kind "j", "gamma", or "h" with parameters.

    For H blocks, `n` follows the convention of the family name: the
    algebra H2n(lambda) has dimension 2n + 1, and n = 1 is H2(lambda).
    `lam` is the scalar of an H block, None for the others.
    """

    __slots__ = ()

    def validate(self, field: Field) -> None:
        if self.kind == "j":
            if self.n < 1:
                raise InvalidDescriptor("J blocks need n >= 1")
            if self.lam is not None:
                raise InvalidDescriptor("J blocks take no parameter")
        elif self.kind == "gamma":
            if self.n < 2:
                raise InvalidDescriptor("Gamma blocks need n >= 2")
            if self.lam is not None:
                raise InvalidDescriptor("Gamma blocks take no parameter")
        elif self.kind == "h":
            if self.n < 1:
                raise InvalidDescriptor("H blocks need n >= 1")
            lam = field.coerce(self.lam)
            if not lam:
                raise InvalidDescriptor("H blocks need a nonzero parameter")
            if self.n == 1 and lam == field.one:
                raise InvalidDescriptor("H2(lambda) requires lambda != 1")
            if self.n >= 2 and lam == _sign_element(field, self.n + 1):
                raise InvalidDescriptor(
                    f"H{2 * self.n}(lambda) requires lambda != (-1)^{self.n + 1}"
                )
        else:
            raise InvalidDescriptor(f"unknown block kind {self.kind!r}")

    @property
    def algebra_dim(self) -> int:
        if self.kind in ("j", "gamma"):
            return self.n + 1
        return 2 * self.n + 1

    def text(self, field: Field) -> str:
        if self.kind == "j":
            return f"j:{self.n}"
        if self.kind == "gamma":
            return f"gamma:{self.n}"
        if self.n == 1:
            return f"h2:{field.format(self.lam)}"
        return f"h2n:{self.n}:{field.format(self.lam)}"


def _sign_element(field: Field, exponent: int):
    """(-1)^exponent as a field element."""
    return field.one if exponent % 2 == 0 else -field.one


def normalize_lambda(field: Field, lam):
    """Pick the canonical representative of {lambda, 1/lambda}.

    The smaller element under a fixed total order wins: (numerator,
    denominator) lexicographically for rationals, the smaller residue for
    GF(p).  Decompositions compare equal iff they agree after this choice.
    """
    lam = field.coerce(lam)
    if not lam:
        raise InvalidDescriptor("lambda must be nonzero")
    inv = field.one / lam
    return lam if scalar_sort_key(lam) <= scalar_sort_key(inv) else inv


def normalize_descriptor(field: Field, d: BlockDescriptor) -> BlockDescriptor:
    d.validate(field)
    if d.kind != "h":
        return d
    return BlockDescriptor("h", d.n, normalize_lambda(field, d.lam))


def form_algebra(field: Field, form: dict, names) -> Algebra:
    """The algebra on `names` plus a final central z, with x_i x_j = form[(i, j)] z.

    `form` is a sparse bilinear form {(i, j): scalar} on the x's.
    """
    z = len(names)
    return Algebra(field, z + 1, {ij: {z: x} for ij, x in form.items()}, [*names, "z"])


def make_canonical(d: BlockDescriptor, field: Field) -> Algebra:
    """Build the canonical algebra of a block descriptor, x1..xm and z, from its family's form."""
    d.validate(field)
    n, one = d.n, field.one
    if d.kind == "j":
        form = {(0, 0): one} if n == 1 else {(i, i + 1): one for i in range(n - 1)}
    elif d.kind == "gamma":
        # antidiagonal x_i x_{n-i+1} and superantidiagonal x_i x_{n-i+2},
        # both with sign (-1)^(n-i); 1-based indices i
        form = {(i - 1, n - i): _sign_element(field, n - i) for i in range(1, n + 1)}
        form |= {(i - 1, n + 1 - i): _sign_element(field, n - i) for i in range(2, n + 1)}
    else:
        # [[0, I_n], [J_n(lambda), 0]]
        lam = field.coerce(d.lam)
        form = {(i, n + i): one for i in range(n)}
        form |= {(n + i, i): lam for i in range(n)}
        form |= {(n + i, i + 1): one for i in range(n - 1)}
    return form_algebra(field, form, [f"x{i + 1}" for i in range(d.algebra_dim - 1)])


def central_sum(a: Algebra, b: Algebra) -> Algebra:
    """Glue two extra special algebras along their centers.

    Both inputs must be extra special with their center spanned by the last
    basis vector (the layout every constructor here produces).  The sum is
    the block sum of their forms: the non-central bases side by side, one
    shared z, and zero cross products.
    """
    a.same_field(b)
    for alg in (a, b):
        z = extra_special_center(alg)
        if z is None:
            raise NotExtraSpecial("central_sum needs extra special summands")
        # a one-dimensional reduced echelon basis pivoting on the last
        # column is exactly the last basis vector
        if tuple(z.pivots) != (alg.dim - 1,):
            raise NotExtraSpecial(
                "central_sum expects the center spanned by the last basis vector"
            )
    form = {}
    for alg, offset in ((a, 0), (b, a.dim - 1)):
        for i, j, row in alg.nonzero_products():
            form[(offset + i, offset + j)] = row[alg.dim - 1]
    names = [f"a_{n}" for n in a.basis_names[:-1]] + [f"b_{n}" for n in b.basis_names[:-1]]
    return form_algebra(a.field, form, names)


# ---------------------------------------------------------------------------
# descriptor text syntax
# ---------------------------------------------------------------------------


def parse_descriptor(text: str, field: Field) -> BlockDescriptor:
    """Parse one block descriptor: `j:N`, `gamma:N`, `h2:LAM`, `h2n:N:LAM`."""
    parts = text.strip().lower().split(":")
    try:
        if parts[0] == "j" and len(parts) == 2:
            d = BlockDescriptor("j", int(parts[1]))
        elif parts[0] == "gamma" and len(parts) == 2:
            d = BlockDescriptor("gamma", int(parts[1]))
        elif parts[0] == "h2" and len(parts) == 2:
            d = BlockDescriptor("h", 1, field.parse(parts[1]))
        elif parts[0] == "h2n" and len(parts) == 3:
            d = BlockDescriptor("h", int(parts[1]), field.parse(parts[2]))
        else:
            raise InvalidDescriptor(f"cannot parse block descriptor {text!r}")
    except ValueError as exc:
        raise InvalidDescriptor(f"cannot parse block descriptor {text!r}: {exc}") from exc
    d.validate(field)
    return d


def make_from_text(text: str, field: Field) -> Algebra:
    """Build an algebra from a descriptor sum such as `j:2+h2:3`."""
    parts = [p for p in text.split("+") if p.strip()]
    if not parts:
        raise InvalidDescriptor("empty descriptor")
    algebras = [make_canonical(parse_descriptor(p, field), field) for p in parts]
    out = algebras[0]
    for nxt in algebras[1:]:
        out = central_sum(out, nxt)
    return out
