"""Field arithmetic: exactness, normalization, and field separation."""

import random
import time
from fractions import Fraction

import pytest

from extraspecial.errors import FieldMismatch, UnsupportedField
from extraspecial.scalars import Field, Fp, _is_prime

Q = Field.rationals()
GF5 = Field.gf(5)
GF7 = Field.gf(7)


def test_rational_addition_is_exact():
    assert Q.parse("1/2") + Q.parse("1/3") == Fraction(5, 6)


def test_gf5_multiplication_wraps():
    assert Fp(3, 5) * Fp(4, 5) == Fp(2, 5)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Q.one / Q.zero
    with pytest.raises(ZeroDivisionError):
        GF5.one / GF5.zero


def test_mixed_fields_are_rejected():
    with pytest.raises(FieldMismatch):
        Fp(1, 5) + Fraction(1)
    with pytest.raises(FieldMismatch):
        Fp(1, 5) + Fp(1, 7)
    with pytest.raises(FieldMismatch):
        Fp(1, 5) * Fp(1, 7)


def test_characteristic_two_and_composites_rejected():
    with pytest.raises(UnsupportedField):
        Field.gf(2)
    with pytest.raises(UnsupportedField):
        Field.gf(9)
    with pytest.raises(UnsupportedField):
        Field.gf(1)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if _is_prime(n)] == [n for n in range(10**5) if trial(n)]


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,  # Carmichael numbers
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_pseudoprime_moduli_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(UnsupportedField):
        Field.gf(n)


def test_large_prime_field_builds_fast():
    start = time.perf_counter()
    field = Field.gf(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert field.coerce(-1) * field.coerce(-1) == field.one


def test_modulus_beyond_certified_range_refused():
    # 2^89 - 1 is prime, but above the range where the test is deterministic
    with pytest.raises(UnsupportedField, match="too large"):
        Field.gf(2**89 - 1)


def test_rationals_always_in_lowest_terms():
    x = Q.parse("2/4")
    assert x == Fraction(1, 2)
    assert (x.numerator, x.denominator) == (1, 2)
    y = Q.parse("-6/4")
    assert (y.numerator, y.denominator) == (-3, 2)
    # normalization is idempotent by construction
    assert Q.coerce(y) == y
    # a Fraction comes back as it is, as an Fp of its own field does
    assert Q.coerce(y) is y and GF5.coerce(GF5.one) is GF5.one


def test_parse_format_round_trip():
    for text in ["3", "-1/2", "7/3", "0"]:
        assert Q.format(Q.parse(text)) == str(Fraction(text))
    for text in ["0", "1", "4"]:
        assert GF5.format(GF5.parse(text)) == text
    assert GF5.parse("7") == Fp(2, 5)
    assert GF5.parse("1/2") == Fp(3, 5)  # 2 * 3 = 6 = 1 mod 5


@pytest.mark.parametrize("field", [Q, GF7], ids=str)
def test_parse_reads_integers_and_integer_quotients_only(field):
    assert field.parse("3") == field.coerce(3)
    assert field.parse("-1/2") == field.coerce(Fraction(-1, 2))
    assert field.parse(" 7 ") == field.coerce(7)
    for text in ["2.5", "1e5", "1e10000000", "1/2.5", "3/", "/2", "", "1/0", "x"]:
        start = time.perf_counter()
        with pytest.raises(UnsupportedField):
            field.parse(text)
        assert time.perf_counter() - start < 0.1


def test_parse_refusal_echoes_at_most_40_characters_of_the_text():
    with pytest.raises(UnsupportedField) as short:
        Q.parse("x" * 40)
    assert str(short.value) == f"cannot parse scalar {'x' * 40!r} over Q: invalid literal for int() with base 10: {'x' * 40!r}"
    with pytest.raises(UnsupportedField) as long:
        GF7.parse("1/" + "7" * 1000)
    assert str(long.value).startswith(f"cannot parse scalar {'1/' + '7' * 38!r}... (1002 characters) over GF(7): ")
    assert len(str(long.value)) < 200


@pytest.mark.parametrize("field", [Q, GF5, GF7])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(20240815)

    def rand():
        if field.kind == "Q":
            return Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        return field.coerce(rng.randint(0, field.p - 1))

    for _ in range(120):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if b:
            assert b * (field.one / b) == field.one
        assert a * field.one == a
