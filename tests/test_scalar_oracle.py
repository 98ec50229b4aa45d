"""Differential oracle for :class:`seacurves.scalars.Scalar`.

The package's Scalar holds one cleared value of Python ints,
(a + b*sqrt(disc)) / den.  ``reference.RefScalar`` models it as a pair of
Fractions: hypothesis draws values over Q, Q(sqrt -3) and Q(sqrt 5) with
components of up to 60 digits, and every operation, every comparison, hash
and printed byte of the package's Scalar must agree with the model's.

The absolute invariants are Scalar quotients of products of powers; they
must agree with ``reference.ref_ratios`` on random sextics, octavics and
general forms over Q and Q(sqrt 5).  A last test counts ``Fraction``
constructions: invariant work shaped like the benchmark's gate builds none.

The package's radicand test divides only up to the cube root of |D|; it
must agree with ``reference.ref_is_squarefree``, trial division up to
sqrt|D|.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions_built
from reference import RefScalar, assert_ratios, ref_is_squarefree
from seacurves import invariants as inv
from seacurves import scalars
from seacurves.cli import _invariants_doc
from seacurves.catalog.templates import parse_template
from seacurves.forms import BinaryForm, Matrix2, dehomogenize, moebius_act, poly_to_string
from seacurves.scalars import DivisionByZeroError, FieldMixError, _is_squarefree
from seacurves.transvection import transvect

# -- strategies ------------------------------------------------------------------

BIG = 10 ** 60
PARTS = st.one_of(
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),  # cancellation, equal dens
    st.integers(-BIG, BIG).map(Fraction),
    st.just(Fraction(0)),
)
FIELDS = st.sampled_from([0, -3, 5])
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@st.composite
def values(draw, disc):
    """(package Scalar, model scalar) of one value of Q(sqrt(disc)); one in
    three is rational."""
    a = draw(PARTS)
    b = draw(PARTS) if disc and draw(st.integers(0, 2)) else 0
    return scalars.Scalar(a, b, disc), RefScalar(a, b, disc)


def _agree(new, ref):
    """new, a package Scalar, is the value ref of the model, byte for byte."""
    assert type(new) is scalars.Scalar
    assert str(new) == str(ref) and repr(new) == repr(ref)
    assert (new.a, new.b, new.disc) == (ref.a, ref.b, ref.disc)
    assert type(new.a) is Fraction and type(new.b) is Fraction
    assert bool(new) == bool(ref) and new.is_zero == ref.is_zero
    assert scalars.parse_scalar(str(new)) == new
    if not new.disc:
        assert new == ref.a and hash(new) == hash(ref) == hash(ref.a)
        if ref.a.denominator == 1:
            assert new == ref.a.numerator and hash(new) == hash(ref.a.numerator)


def _same(new_call, ref_call):
    """Both calls return agreeing values, or both raise the same typed error."""
    try:
        ref = ref_call()
    except (DivisionByZeroError, FieldMixError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            new_call()
        return
    _agree(new_call(), ref)


# -- Scalar against the model -------------------------------------------------


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_arithmetic_agrees_with_fraction_scalar(data):
    disc = data.draw(FIELDS)
    (x, X), (y, Y) = data.draw(values(disc)), data.draw(values(disc))
    q, n = data.draw(PARTS), data.draw(st.integers(-BIG, BIG))
    _agree(x, X)
    _same(lambda: -x, lambda: -X)
    _same(x.inverse, X.inverse)
    for op in OPS:
        _same(lambda: op(x, y), lambda: op(X, Y))
        for other in (q, n, 0):
            _same(lambda: op(x, other), lambda: op(X, other))
            _same(lambda: op(other, x), lambda: op(other, X))
    for e in range(-3, 6):
        _same(lambda: x ** e, lambda: X ** e)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_comparison_and_hash_agree_with_fraction_scalar(data):
    disc = data.draw(FIELDS)
    (x, X), (y, Y) = data.draw(values(disc)), data.draw(values(disc))
    q, n = data.draw(PARTS), data.draw(st.integers(-BIG, BIG))
    assert (x == y) == (X == Y) and (x != y) == (X != Y)
    assert (x == x + 0) and hash(x) == hash(x + 0)
    for other in (q, n, X.a, str(x), 1.5):
        assert (x == other) == (X == other)
    assert scalars.Scalar(n) == n and hash(scalars.Scalar(n)) == hash(n) == hash(RefScalar(n))
    assert hash(scalars.Scalar(q)) == hash(q) == hash(RefScalar(q))


def test_hash_of_denominators_at_the_hash_modulus():
    """Fraction hashes a denominator divisible by the hash modulus to the
    hash infinity; so does the package."""
    p = sys.hash_info.modulus
    for num, den in [(1, p), (-1, p), (3, 2 * p), (-5, p * p), (p - 1, p + 1), (-1, p - 1)]:
        assert hash(scalars.rational(num, den)) == hash(Fraction(num, den)) \
            == hash(RefScalar(num) / den)


def test_hash_of_an_integer_is_the_ints():
    """An integral Scalar hashes as its int, which equals the Fraction's hash
    by Python's numeric hash rule, at the hash modulus and far past it."""
    p = sys.hash_info.modulus  # 2^61 - 1 on 64-bit builds
    big = int("7" * 4000)
    for n in (0, 1, -1, 2, -2, p, -p, big, -big):
        assert hash(scalars.Scalar(n)) == hash(n) == hash(Fraction(n))


def test_fields_do_not_mix():
    x, X = scalars.sqrt_ext(1, -3), RefScalar(0, 1, -3)
    y, Y = scalars.sqrt_ext(2, 5), RefScalar(0, 2, 5)
    for op in OPS:
        _same(lambda: op(x, y), lambda: op(X, Y))


# -- radicands against trial division up to the square root ------------------------

# primes near 10^6, whose squares and products are radicands near the 10^12
# bound, and near 10^4, its cube root, where the trial division stops
_P6 = (999983, 1000003)
_P4 = (9967, 9973, 10007)
_NEAR_BOUND = [999999999989, 10 ** 12, *(p * q for p in _P6 for q in _P6),
               *(2 * p * p for p in _P6), _P4[0] * _P4[1] * _P4[2], 3 * _P4[2] ** 2,
               *(p ** 3 for p in _P4), *(p * p * q for p in _P4 for q in _P4 if p != q)]


@pytest.mark.parametrize("n", _NEAR_BOUND)
def test_squarefree_matches_trial_division_near_the_bound(n):
    assert _is_squarefree(n) == ref_is_squarefree(n)


@given(st.integers(1, 12).flatmap(lambda k: st.integers(-(10 ** k), 10 ** k)))
@settings(max_examples=300, deadline=None)
def test_squarefree_matches_trial_division(n):
    assert _is_squarefree(n) == ref_is_squarefree(n)


def test_squarefree_matches_trial_division_on_small_radicands():
    assert [n for n in range(-5000, 5000) if _is_squarefree(n) != ref_is_squarefree(n)] == []


# -- absolute invariants against the model ------------------------------------------

SYSTEMS = [
    ("sextic", inv.sextic_invariants, inv._SEXTIC_ABSOLUTE, 6),
    ("octavic", inv.octavic_invariants, inv._OCTAVIC_ABSOLUTE, 8),
    ("general", inv.general_invariants, inv._GENERAL_ABSOLUTE, 12),
]
SMALL = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=5))


@pytest.mark.parametrize("disc", [0, 5])
@pytest.mark.parametrize("kind, system, table, degree", SYSTEMS)
@given(st.data())
@settings(max_examples=12, deadline=None)
def test_ratios_agree_with_hand_divided_reference(kind, system, table, degree, disc, data):
    coeffs = [scalars.Scalar(data.draw(SMALL), data.draw(SMALL) if disc else 0, disc)
              for _ in range(degree + 1)]
    v = system(BinaryForm(degree, coeffs))
    got = inv._ratios(v, table)
    assert got.kind == kind  # read from the vector
    assert_ratios(got, v.scalars(), table)


def test_ratios_mark_a_vanished_denominator_undefined():
    """x^6 has J10 = 0: every sextic ratio is undefined in both."""
    v = inv.sextic_invariants(BinaryForm(6, [0] * 6 + [1]))
    got = inv._ratios(v, table := inv._SEXTIC_ABSOLUTE)
    assert_ratios(got, v.scalars(), table)
    assert got.undefined == set(table)


# -- no Fraction in gate-shaped work ---------------------------------------------------


def test_gate_shaped_work_builds_no_fraction(monkeypatch):
    """Invariants, their absolute invariants and the printed values of every
    one of them, on forms over Q and Q(sqrt 5) acted on by a matrix, build no
    Fraction: the kernel is the cleared integers alone.  Nor do the texts of
    those forms, of their polynomials and of a Q(sqrt 5) template."""
    template = parse_template("(x^2 + (1+sqrt(5))*x + a1)*(x^3 - 2*sqrt(5))")
    built = fractions_built(monkeypatch)
    M = Matrix2(scalars.rational(1, 2), 3, -2, scalars.rational(5, 3))
    for disc in (0, 5):
        for kind, degree in (("sextic", 6), ("octavic", 8), ("general", 12)):
            coeffs = [scalars.Scalar(scalars.rational(i * i - 7, i + 2), i % 3 if disc else 0, disc)
                      for i in range(degree + 1)]
            f = moebius_act(M, BinaryForm(degree, coeffs))
            doc = _invariants_doc(kind, f)
            assert doc["invariants"] and doc["absolute"]
            covariants = getattr(inv, f"{kind}_invariants")(f).covariants
            assert all(covariants[name].to_json() for name in covariants)
            assert transvect(f, f, 2).to_json() and repr(f)
            assert poly_to_string(dehomogenize(f)) and repr(dehomogenize(f))
    assert template.to_string() == "(x^2 + (1+sqrt(5))*x + a1)*(x^3 - 2*sqrt(5))"
    assert built == []
