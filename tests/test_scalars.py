import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seacurves import scalars
from seacurves.forms import MAX_DEGREE
from seacurves.scalars import (
    ONE,
    ZERO,
    DivisionByZeroError,
    FieldMixError,
    OutputTooLargeError,
    Scalar,
    ScalarParseError,
    parse_scalar,
    rational,
    sqrt_ext,
)

rats = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def quad(a, b):
    return Scalar(a, b, -3)


def test_canonical_representation():
    assert rational(2, 4) == rational(1, 2)
    assert rational(-3, -6) == rational(1, 2)
    assert str(rational(-3, 6)) == "-1/2"
    assert Scalar(Fraction(7, 1)) == Scalar(7)


def test_radical_collapses_to_rational():
    s = quad(1, 2) - sqrt_ext(2, -3)
    assert s == ONE and s.disc == 0 and s.is_rational


def test_discriminant_validation():
    with pytest.raises(ValueError):
        Scalar(0, 1, 12)  # not squarefree
    with pytest.raises(ValueError):
        Scalar(0, 1, 1)
    Scalar(0, 1, -3)
    Scalar(0, 1, 5)


def test_field_mixing_rejected():
    with pytest.raises(FieldMixError):
        sqrt_ext(1, -3) + sqrt_ext(1, 5)
    with pytest.raises(FieldMixError):
        sqrt_ext(1, -3) * sqrt_ext(1, 2)
    # rationals embed into any extension
    assert sqrt_ext(1, -3) + ONE == quad(1, 1)


def test_quadratic_arithmetic():
    s = quad(1, 2)
    t = quad(3, -1)
    assert s * t == quad(1 * 3 + 2 * (-1) * (-3), 1 * (-1) + 2 * 3)
    assert s * s.inverse() == ONE
    assert (s / t) * t == s
    assert sqrt_ext(1, -3) ** 2 == Scalar(-3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(rats, rats)
def test_field_axioms_rational(x, y):
    a, b = Scalar(x), Scalar(y)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero:
        assert (a * b) / b == a


@given(rats, rats, rats, rats)
def test_quadratic_ring_axioms(p, q, r, s):
    a = Scalar(p, q, -3) if q else Scalar(p)
    b = Scalar(r, s, -3) if s else Scalar(r)
    c = quad(1, 1)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero:
        assert (a / b) * b == a


def test_pow():
    assert rational(2) ** 10 == Scalar(1024)
    assert rational(1, 2) ** -2 == Scalar(4)
    assert quad(0, 1) ** 3 == quad(0, -3)
    assert quad(1, 1) ** -2 == (quad(1, 1) * quad(1, 1)).inverse()
    with pytest.raises(DivisionByZeroError):
        ZERO ** -1


def _refuse_work(monkeypatch):
    """Patch the power kernel and the quotient to fail if called, so that a
    missing bound fails the test instead of running the power."""
    def refuse(*args):
        raise AssertionError("the power ran past its bound")

    monkeypatch.setattr(scalars, "_pow", refuse)
    monkeypatch.setattr(scalars, "_quotient", refuse)


@pytest.mark.parametrize("base,n", [
    (Scalar(2), 10 ** 100), (Scalar(2), -10 ** 100), (rational(1, 3), 10 ** 5000),
    (Scalar(10 ** 4299, 1, 5), 147), (Scalar(10 ** 4299, 1, 5), -147),
    (ONE, scalars._MAX_POWER_BITS + 1), (-ONE, -scalars._MAX_POWER_BITS - 1),
    (ZERO, -scalars._MAX_POWER_BITS - 1),
], ids=["huge", "huge_negative", "past_the_digit_limit", "quadratic", "quadratic_negative",
        "one", "minus_one_negative", "zero_negative"])
def test_pow_past_its_bound_is_refused_before_any_work(monkeypatch, base, n):
    """|n| times the bit length of the largest of den, a and b past
    ``_MAX_POWER_BITS`` is OutputTooLargeError, raised before any power or
    inverse is computed."""
    _refuse_work(monkeypatch)
    with pytest.raises(OutputTooLargeError, match="power too large"):
        base ** n


def test_pow_bound_admits_the_package_uses():
    """The bound is inclusive, and admits x ** MAX_DEGREE on a numeral at the
    digit limit, the largest power ``forms.evaluate`` takes of such a value."""
    assert ONE ** scalars._MAX_POWER_BITS == ONE
    assert (-ONE) ** -scalars._MAX_POWER_BITS == ONE
    x = Scalar(10 ** 4299 + 7)  # 4300 digits, the interpreter's default digit limit
    assert MAX_DEGREE * x.a.numerator.bit_length() <= scalars._MAX_POWER_BITS
    assert x ** MAX_DEGREE == Scalar((10 ** 4299 + 7) ** MAX_DEGREE)


def test_rational_pow_takes_no_gcd(monkeypatch):
    """A power of a rational in lowest terms is in lowest terms, so it is
    built without the content gcd."""
    def refuse(*args):
        raise AssertionError("a rational power took a gcd")

    x, y, z = rational(-6, 35), rational(7), rational(2 ** 80 + 1, 3 ** 40)
    monkeypatch.setattr(scalars, "_content", refuse)
    assert x ** 3 == Fraction(-216, 42875) and y ** 2 == 49 and z ** 0 == 1
    assert ZERO ** 5 == 0 and ZERO ** 0 == 1 and (-ONE) ** 7 == -1
    assert z ** 2 == Fraction((2 ** 80 + 1) ** 2, 3 ** 80)


parts = st.one_of(st.just(0), st.integers(-50, 50), rats)


@given(st.sampled_from([0, 5, -3]).flatmap(lambda disc: st.tuples(
    st.just(disc), parts, parts if disc else st.just(0), st.integers(-7, 7))))
def test_pow_matches_the_canonical_route(args):
    """Every base, rational or not, of either sign, integer or zero, to every
    small n gives the Scalar that the canonical gcd of the plain power gives."""
    disc, a, b, n = args
    x = Scalar(a, b, disc)
    if n < 0 and x.is_zero:
        return
    y = x.inverse() if n < 0 else x
    num = scalars._pow((y._a, y._b), abs(n), y.disc)
    assert x ** n == scalars._scalar(y._den ** abs(n), *num, y.disc)
    if not disc:
        assert x ** n == Fraction(a) ** n


@pytest.mark.parametrize("text,value", [
    ("3", Scalar(3)),
    ("-7/2", rational(-7, 2)),
    ("sqrt(-3)", sqrt_ext(1, -3)),
    ("2*sqrt(-3)", sqrt_ext(2, -3)),
    ("-1/2*sqrt(5)", sqrt_ext(rational(-1, 2), 5)),
    ("3/4+2/5*sqrt(-3)", Scalar(rational(3, 4).a, rational(2, 5).a, -3)),
    (" 1 - sqrt(-3) ", Scalar(1, -1, -3)),
    ("2sqrt(5)", sqrt_ext(2, 5)),
    ("sqrt(5)+1", Scalar(1, 1, 5)),
    ("2 sqrt(5)", sqrt_ext(2, 5)),
])
def test_parse(text, value):
    assert parse_scalar(text) == value


@given(rats, rats)
def test_parse_roundtrip(x, y):
    for s in (Scalar(x), Scalar(x, y, -3) if y else Scalar(x), sqrt_ext(1, 7) * Scalar(x)):
        assert parse_scalar(str(s)) == s


@pytest.mark.parametrize("bad", ["", "x", "1+1+1", "sqrt(-3)+sqrt(5)", "3/0", "1//2",
                                 "sqrt(100000000000000000039)",
                                 # one * joins a rational to the radical, none dangles
                                 "2**sqrt(5)", "*sqrt(5)", "1+*sqrt(5)",
                                 # numerals past the interpreter's int-string digit limit
                                 pytest.param("1" * 5000, id="5000-digit-integer"),
                                 pytest.param("sqrt(" + "1" * 5000 + ")", id="5000-digit-radicand"),
                                 pytest.param("1/" + "1" * 5000, id="5000-digit-denominator"),
                                 # one rational part and one radical part at most
                                 "1+1", "1/2+1/3", "sqrt(5)+sqrt(5)", "sqrt(5)-sqrt(5)",
                                 # digits are ASCII, and whitespace splits no numeral
                                 "\u0663", "sqrt(\u0665)", "1 2", "sqrt(1 3)",
                                 # sqrt(D) is checked even when its multiplier is 0
                                 "0*sqrt(4)", "0*sqrt(99999999999999999999)"])
def test_parse_rejects(bad):
    with pytest.raises(ScalarParseError):
        parse_scalar(bad)


@pytest.mark.parametrize("call", [lambda: Scalar("1.5"), lambda: Scalar("3e2"),
                                  lambda: Scalar(1, "1/2", 5), lambda: rational("1/2"),
                                  lambda: rational(1, "2"), lambda: Scalar(1.5),
                                  lambda: Scalar(2) ** 0.5])
def test_text_and_floats_are_not_scalars(call):
    """Text reaches a Scalar through parse_scalar alone."""
    with pytest.raises(TypeError):
        call()


def test_printing_past_the_digit_limit_is_a_typed_error():
    """A part is printed in lowest terms; one over the interpreter's
    integer-string digit limit is OutputTooLargeError, which the CLI maps to
    exit 2, and the limit is left as it is."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter prints integers of any length")
    assert str(Scalar(10 ** limit - 1)) == "9" * limit
    assert str(rational(10 ** (limit + 100), 10 ** (limit + 99))) == "10"
    for big in (Scalar(10 ** limit), rational(1, 10 ** limit), sqrt_ext(10 ** (limit + 700), 5),
                Scalar(1, rational(1, 3 ** (2 * limit + 500)), -3)):
        with pytest.raises(OutputTooLargeError, match=f"exceeds {limit} digits"):
            str(big)
    assert sys.get_int_max_str_digits() == limit


def test_interpreter_floor_has_the_digit_limit():
    """Every numeral bound in ``scalars`` reads ``sys.get_int_max_str_digits``,
    which first shipped in Python 3.10.7: on an older interpreter nothing is
    refused, so the package declares 3.10.7 as its floor."""
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text("utf-8")
    floor = re.search(r'^requires-python = ">=([0-9.]+)"$', pyproject, re.MULTILINE)
    assert tuple(map(int, floor.group(1).split("."))) >= (3, 10, 7)
