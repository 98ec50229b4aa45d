"""Differential oracle for :class:`seacurves.scalars.Scalar`.

The package's Scalar holds one cleared value of Python ints,
(a + b*sqrt(disc)) / den.  The Scalar it replaced held two Fractions; that
class is kept here verbatim (with its helpers ``_as_rat``, ``_raw`` and
``_coerce``) as the reference.  Hypothesis draws values over Q, Q(sqrt -3)
and Q(sqrt 5) with components of up to 60 digits, and every operation, every
comparison, hash and printed byte of the package's Scalar must agree with
the reference.

The absolute invariants were divided by hand over Z[sqrt(D)] before they
became plain Scalar quotients; that ``_ratios`` is kept here too, and checked
against the package's on random sextics, octavics and general forms over Q
and Q(sqrt 5).  A last test counts ``Fraction`` constructions: invariant
work shaped like the benchmark's gate builds none.

The radicand test ``ref_is_squarefree`` is the trial division up to
sqrt|D| that the package ran before it divided only up to the cube root; the
reference Scalar uses it, and the package's test must agree with it.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seacurves import invariants as inv
from seacurves import scalars
from seacurves.cli import _invariants_doc
from seacurves.forms import BinaryForm, Matrix2, _clear, _over, _to_scalars, moebius_act
from seacurves.invariants import AbsoluteInvariants
from seacurves.scalars import (
    _MAX_RADICAND,
    DivisionByZeroError,
    FieldMixError,
    RadicandError,
    _is_squarefree,
    _join_field,
    _mul,
    _pow,
)
from seacurves.transvection import transvect

_R0 = Fraction(0)
_R1 = Fraction(1)


# -- the Fraction Scalar, verbatim --------------------------------------------


def ref_is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def _as_rat(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Scalar) and x.disc == 0:
        return x.a
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Scalar:
    """An element a + b*sqrt(disc) of Q or Q(sqrt(disc)), immutable.

    ``disc`` is 0 exactly when the value is rational (``b == 0``); otherwise it
    is a squarefree integer other than 1.  Two scalars are equal iff their
    canonical components are equal.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b=0, disc: int = 0):
        a = _as_rat(a)
        b = _as_rat(b)
        if b == 0:
            disc = 0
        elif abs(disc) > _MAX_RADICAND:
            raise RadicandError(f"radicand {disc} is outside the supported range |D| <= 10^12")
        elif disc in (0, 1) or not ref_is_squarefree(disc):
            raise RadicandError(f"discriminant must be squarefree and != 0, 1, got {disc}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def is_rational(self) -> bool:
        return self.disc == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.disc == 0 and other.disc == 0:
            return _raw(self.a + other.a, _R0, 0)
        d = _join_field(self.disc, other.disc)
        return _raw(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.disc == 0 and other.disc == 0:
            return _raw(self.a - other.a, _R0, 0)
        d = _join_field(self.disc, other.disc)
        return _raw(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.disc == 0 and other.disc == 0:
            return _raw(self.a * other.a, _R0, 0)
        d = _join_field(self.disc, other.disc)
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + b1 b2 D + (a1 b2 + a2 b1) s
        return _raw(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if self.is_zero:
            raise DivisionByZeroError("scalar division by zero")
        if self.disc == 0:
            return _raw(_R1 / self.a, _R0, 0)
        # 1/(a + b s) = (a - b s)/(a^2 - b^2 D); the norm is nonzero because
        # D is not a rational square.
        norm = self.a * self.a - self.b * self.b * self.disc
        return _raw(self.a / norm, -self.b / norm, self.disc)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square beyond the top bit
                base = base * base
        return result

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.disc == other.disc

    def __hash__(self):
        if self.disc == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.disc))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- presentation ------------------------------------------------------------

    def __str__(self):
        if self.disc == 0:
            return str(self.a)
        radical = f"sqrt({self.disc})"
        b = self.b
        bpart = radical if b == 1 else (f"-{radical}" if b == -1 else f"{b}*{radical}")
        if self.a == 0:
            return bpart
        sep = "" if bpart.startswith("-") else "+"
        return f"{self.a}{sep}{bpart}"

    def __repr__(self):
        return f"Scalar({str(self)!r})"


def _raw(a, b, disc: int) -> Scalar:
    # Internal constructor: components are already backend rationals and disc
    # was validated upstream; only the b == 0 canonicalization is re-applied.
    s = Scalar.__new__(Scalar)
    object.__setattr__(s, "a", a)
    if b == 0:
        object.__setattr__(s, "b", _R0)
        object.__setattr__(s, "disc", 0)
    else:
        object.__setattr__(s, "b", b)
        object.__setattr__(s, "disc", disc)
    return s


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(_as_rat(x), _R0, 0)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)


def rational(p, q=None) -> Scalar:
    """Scalar p/q (q defaults to 1)."""
    if q is None:
        return Scalar(p)
    return Scalar(_as_rat(p) / _as_rat(q))


def sqrt_ext(b, disc: int) -> Scalar:
    """Scalar b*sqrt(disc)."""
    return Scalar(0, b, disc)


# -- the hand-divided absolute invariants, verbatim ----------------------------


def _power_product(elements: dict, factors: dict, disc: int):
    """prod elements[n]^e over factors n -> e, in Z[sqrt(disc)]."""
    x = (1, 0)
    for n, e in factors.items():
        x = _mul(x, _pow(elements[n], e, disc), disc)
    return x


def _ratios(kind, v: InvariantVector, table) -> AbsoluteInvariants:
    """Absolute invariants of ``v`` from ``table``: name -> (numerator,
    denominator), each a map invariant name -> exponent.

    A ratio's ingredients are cleared together to elements of Z[sqrt(D)]
    over one denominator d; its numerator and denominator are products of
    their powers, and the quotient is divided once."""
    values, undefined, unavailable = {}, set(), set()
    for name, (num, den) in table.items():
        ingredients = (*num, *den)
        if not all(v.available(n) for n in ingredients):
            unavailable.add(name)
            continue
        d, a, b, disc = _clear([v[n] for n in ingredients])
        elements = dict(zip(ingredients, zip(a, b or [0] * len(a))))
        bottom = _power_product(elements, den, disc)
        if bottom == (0, 0):
            undefined.add(name)
            continue
        top = _power_product(elements, num, disc)
        # (top / d^|num|) / (bottom / d^|den|) = top d^|den| conj(bottom) / (N(bottom) d^|num|)
        lift = d ** sum(den.values())
        pair, norm = _over(([top[0] * lift], [top[1] * lift]), bottom, disc)
        values[name] = _to_scalars(pair, norm * d ** sum(num.values()), disc)[0]
    return AbsoluteInvariants(kind, table, values, undefined, unavailable)


# -- strategies ------------------------------------------------------------------

BIG = 10 ** 60
PARTS = st.one_of(
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),  # cancellation, equal dens
    st.integers(-BIG, BIG).map(Fraction),
    st.just(_R0),
)
FIELDS = st.sampled_from([0, -3, 5])
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@st.composite
def values(draw, disc):
    """(package Scalar, reference Scalar) of one value of Q(sqrt(disc)); one
    in three is rational."""
    a = draw(PARTS)
    b = draw(PARTS) if disc and draw(st.integers(0, 2)) else _R0
    return scalars.Scalar(a, b, disc), Scalar(a, b, disc)


def _agree(new, ref):
    """new, a package Scalar, is the value ref of the reference, byte for byte."""
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


# -- Scalar against the reference -------------------------------------------------


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
    assert scalars.Scalar(n) == n and hash(scalars.Scalar(n)) == hash(n) == hash(Scalar(n))
    assert hash(scalars.Scalar(q)) == hash(q) == hash(Scalar(q))


def test_hash_of_denominators_at_the_hash_modulus():
    """Fraction hashes a denominator divisible by the hash modulus to the
    hash infinity; so does the package."""
    p = sys.hash_info.modulus
    for num, den in [(1, p), (-1, p), (3, 2 * p), (-5, p * p), (p - 1, p + 1), (-1, p - 1)]:
        assert hash(scalars.rational(num, den)) == hash(Fraction(num, den)) == hash(Scalar(Fraction(num, den)))


def test_fields_do_not_mix():
    x, X = scalars.sqrt_ext(1, -3), sqrt_ext(1, -3)
    y, Y = scalars.sqrt_ext(2, 5), sqrt_ext(2, 5)
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


# -- absolute invariants against the hand-divided reference ------------------------

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
    got, want = inv._ratios(kind, v, table), _ratios(kind, v, table)
    assert got == want
    assert [(n, str(x)) for n, x in got.defined_items()] == \
        [(n, str(x)) for n, x in want.defined_items()]


def test_ratios_mark_a_vanished_denominator_undefined():
    """x^6 has J10 = 0: every sextic ratio is undefined in both."""
    v = inv.sextic_invariants(BinaryForm(6, [0] * 6 + [1]))
    got, want = inv._ratios("sextic", v, table := inv._SEXTIC_ABSOLUTE), _ratios("sextic", v, table)
    assert got == want and got.undefined == set(table)


# -- no Fraction in gate-shaped work ---------------------------------------------------


def test_gate_shaped_work_builds_no_fraction(monkeypatch):
    """Invariants, their absolute invariants and the printed values of every
    one of them, on forms over Q and Q(sqrt 5) acted on by a matrix, build no
    Fraction: the kernel is the cleared integers alone."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and built == [(1, 2)]  # the count sees a construction
    built.clear()
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
    assert built == []
