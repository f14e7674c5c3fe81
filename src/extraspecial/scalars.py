"""Exact field arithmetic over the rationals and odd prime fields.

Rational scalars are plain `fractions.Fraction` objects (always in lowest
terms with positive denominator).  Prime-field scalars are `Fp` instances
carrying their modulus, so that arithmetic between different fields fails
loudly instead of silently reducing.  Other modules use the `Field` handle
(`zero`, `one`, `coerce`, `parse`, `format`).

The program computes on ints: residues over GF(p), and over Q numerators
over one common denominator.  `Field` alone knows how a scalar becomes ints
and back: `ints` lifts sparse rows, `ratio` reads one scalar as (n, d), the
total order on scalars, and `scalar` builds n/d.  No other module reads a
numerator, a denominator or a residue, or builds a `Fraction` or an `Fp`.
`Field.parse` echoes at most 40 characters of a text it refuses.

Fields of characteristic 2 are rejected outright; the whole theory assumes
2 is invertible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import FieldMismatch, UnsupportedField


#: Miller-Rabin with the prime bases up to 41 is deterministic below this
#: bound (Sorenson and Webster, 2015); larger moduli are refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """An element of GF(p), stored as the residue in 0..p-1.

    Immutable; arithmetic only combines with other `Fp` of the same modulus.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _check(self, other) -> "Fp":
        if not isinstance(other, Fp):
            raise FieldMismatch(f"cannot combine GF({self.p}) with {type(other).__name__}")
        if other.p != self.p:
            raise FieldMismatch(f"cannot combine GF({self.p}) with GF({other.p})")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Fp(self.value + other.value, self.p)

    def __sub__(self, other):
        other = self._check(other)
        return Fp(self.value - other.value, self.p)

    def __mul__(self, other):
        other = self._check(other)
        return Fp(self.value * other.value, self.p)

    def __truediv__(self, other):
        other = self._check(other)
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


class Field:
    """Handle for a base field: the rationals, or GF(p) with p an odd prime.

    Read-only, compared and hashed by `kind` and `p`.  A plain class, not a
    named tuple: the elimination loops read `kind` and `p`, and an instance
    attribute reads faster than a tuple field.
    """

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise UnsupportedField("the rational field takes no modulus")
        elif kind == "GF":
            if p is not None and p >= _MR_BOUND:
                raise UnsupportedField(f"GF modulus {p} is too large to certify as prime")
            if p is None or not _is_prime(p):
                raise UnsupportedField(f"GF modulus must be prime, got {p}")
            if p == 2:
                raise UnsupportedField("GF(2) is out of scope: 2 must be invertible")
        else:
            raise UnsupportedField(f"unknown field kind {kind!r}")
        self.__dict__.update(kind=kind, p=p)  # "Q" or "GF"; the modulus, or None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Field.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Field.{name}")

    def __eq__(self, other):
        if other.__class__ is not Field:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field(kind={self.kind!r}, p={self.p!r})"

    @classmethod
    def rationals(cls) -> "Field":
        return cls("Q")

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls("GF", p)

    # built once per handle; equality and hashing stay on `kind` and `p`
    @cached_property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else Fp(0, self.p)

    @cached_property
    def one(self):
        return Fraction(1) if self.kind == "Q" else Fp(1, self.p)

    def coerce(self, x):
        """Bring an int, Fraction, Fp, or scalar string into this field; floats and the rest are refused."""
        if isinstance(x, str):
            return self.parse(x)
        if self.kind == "Q":
            if isinstance(x, (int, Fraction)):
                # a Fraction is immutable: kept as is, like an Fp of this field below
                return x if type(x) is Fraction else Fraction(x)
            if isinstance(x, Fp):
                raise FieldMismatch("cannot coerce a GF(p) element into the rationals")
            raise FieldMismatch(f"cannot coerce {x!r} into {self}")
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatch(f"element of GF({x.p}) used in GF({self.p})")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return Fp(x.numerator, self.p) / Fp(x.denominator, self.p)
        if isinstance(x, int):
            return Fp(x, self.p)
        raise FieldMismatch(f"cannot coerce {x!r} into {self}")

    def ints(self, rows) -> tuple[list, int]:
        """Sparse rows {column: scalar} as int rows over one common denominator d, and d.

        Entries are coerced and zeros dropped.  Over GF(p) the ints are
        residues and d = 1; over Q, d is the lcm of the entries' denominators.
        """
        p = self.p
        if p:  # an Fp of another modulus goes through `coerce`, which refuses it
            rows = [{c: x if type(x) is Fp and x.p == p else self.coerce(x) for c, x in row.items()}
                    for row in rows]
            return [{c: x.value for c, x in row.items() if x} for row in rows], 1
        rows = [{c: x if type(x) is Fraction else self.coerce(x) for c, x in row.items()} for row in rows]
        d = lcm(*(x.denominator for row in rows for x in row.values()))
        return [{c: x.numerator * (d // x.denominator) for c, x in row.items() if x} for row in rows], d

    def ratio(self, x) -> tuple[int, int]:
        """A scalar as ints (n, d), d > 0 and in lowest terms: (residue, 1) over GF(p).

        Also the total order on the scalars of one field, for deterministic output.
        """
        x = self.coerce(x)
        return (x.value, 1) if self.p else (x.numerator, x.denominator)

    def scalar(self, n: int, d: int = 1):
        """The scalar n/d built from ints; d must be nonzero in the field."""
        if self.p:
            return Fp(n if d == 1 else n * pow(d, -1, self.p), self.p)
        return Fraction(n, d)

    def parse(self, text: str):
        """Parse "n" or "n/d" through `int` (no exponent, no decimal point), in either field."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.coerce(Fraction(int(num), int(den)))
            return self.coerce(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            shown, reason = repr(text), str(exc)
            if len(text) > 40:  # a long text, and the reason that may quote it, are cut
                shown, reason = f"{text[:40]!r}... ({len(text)} characters)", f"{reason[:40]}..."
            raise UnsupportedField(f"cannot parse scalar {shown} over {self}: {reason}") from exc

    def format(self, x) -> str:
        return str(self.coerce(x))

    def __str__(self):
        return "Q" if self.kind == "Q" else f"GF({self.p})"
