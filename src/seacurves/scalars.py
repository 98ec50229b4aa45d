"""Exact scalar arithmetic over Q and quadratic extensions Q(sqrt(D)).

Every coefficient in this package is a :class:`Scalar`: a value
``(a + b*sqrt(D)) / den`` held as one cleared value of Python ints, with
``den > 0``, ``gcd(den, a, b) == 1`` and ``D`` a squarefree integer;
``D == 0``, exactly when ``b == 0``, marks a plain rational.  Arithmetic
never rounds and the value is canonical, so ``==`` is exact equality (a
rational equals, and hashes as, the equal ``int`` or ``Fraction``).  Scalars
of different nonzero discriminants do not mix: :class:`FieldMixError`.

Every error the package raises on bad input derives from
:class:`SeacurvesError` (a ``ValueError``), which the CLI maps to exit code 2.

This is the one arithmetic kernel of the package: forms and polynomials
hold the same cleared value for a whole coefficient vector
(:mod:`seacurves.forms`), and Scalars, those vectors and the subresultant
PRS share the helpers on elements ``(a, b)`` of Z[sqrt(D)] below (``_mul``,
``_pow``, ``_conj``, ``_norm``, and ``_content``, the signed gcd that makes
a cleared value canonical) and one field rule, ``_join_field``.  A Fraction
is accepted as input, and built only by the read-only views :attr:`Scalar.a`
and :attr:`Scalar.b`.

:func:`parse_scalar` reads the text :meth:`Scalar.__str__` writes, and is
the only way from text to a Scalar: the constructor takes no strings.  Its
pieces are the text grammar of the whole package: ``_split_top`` splits at
depth-0 signs or products, ``_strip_sign`` folds leading signs and
``_parse_int`` reads every numeral.  Equation templates
(:mod:`seacurves.catalog.templates`) parse with the same three, so one
numeral or parenthesis rule holds in both grammars.  A numeral longer than
``sys.get_int_max_str_digits()`` digits is refused both ways: as input by
``_parse_int`` and as output by ``_rat_str`` (:class:`OutputTooLargeError`);
``_int_str`` prints such an int in a message as "(too large to print)".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm

_RAT = Fraction  # the type of the .a/.b views; the benchmark records it as the backend

__all__ = [
    "Scalar",
    "SeacurvesError",
    "FieldMixError",
    "ScalarParseError",
    "RadicandError",
    "DivisionByZeroError",
    "OutputTooLargeError",
    "ZERO",
    "ONE",
    "rational",
    "sqrt_ext",
    "parse_scalar",
]


class SeacurvesError(ValueError):
    """Base of every error the package raises on input it cannot accept."""


class FieldMixError(SeacurvesError):
    """Raised when scalars from distinct quadratic extensions meet."""


class ScalarParseError(SeacurvesError):
    """Raised on malformed scalar strings."""


class RadicandError(SeacurvesError):
    """The radicand of sqrt(D) is 0, 1, not squarefree or out of range."""


class DivisionByZeroError(SeacurvesError, ZeroDivisionError):
    """Division of a scalar by zero."""


class OutputTooLargeError(SeacurvesError):
    """A value has a numeral longer than ``sys.get_int_max_str_digits()``
    digits, which the interpreter refuses to print."""

    def __init__(self):
        super().__init__("value too large to print: a numeral exceeds "
                         f"{sys.get_int_max_str_digits()} digits")


# _is_squarefree trial-divides up to the cube root of |D|: ~5*10^3 steps below this bound
_MAX_RADICAND = 10 ** 12


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0 or n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    p = 3
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 2
    # every prime factor of the cofactor n exceeds its cube root: n has at
    # most two, so it is squarefree unless it is the square of a prime
    return n == 1 or isqrt(n) ** 2 != n


def _join_field(d1: int, d2: int) -> int:
    """The field of values over Q(sqrt(d1)) and Q(sqrt(d2)), 0 meaning Q: the
    one field check, for scalars and vectors alike (FieldMixError on two)."""
    if d1 and d2 and d1 != d2:
        raise FieldMixError(f"cannot mix sqrt({d1}) and sqrt({d2})")
    return d1 or d2


# -- elements (a, b) = a + b*sqrt(disc) of Z[sqrt(disc)] ----------------------


def _mul(x, y, disc: int):
    """x * y for elements x, y of Z[sqrt(disc)]."""
    return x[0] * y[0] + disc * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pow(x, e: int, disc: int):
    """x^e for an element x of Z[sqrt(disc)] and e >= 0, by repeated squaring."""
    r = (1, 0)
    while e:
        if e & 1:
            r = _mul(r, x, disc)
        e >>= 1
        if e:
            x = _mul(x, x, disc)
    return r


def _conj(x):
    """a - b*sqrt(disc) for x = a + b*sqrt(disc)."""
    return x[0], -x[1]


def _norm(x, disc: int) -> int:
    """x * conj(x) = a^2 - disc*b^2, nonzero for x != 0 as disc is no square."""
    return x[0] * x[0] - disc * x[1] * x[1]


def _content(den: int, *xs: int) -> int:
    """gcd(den, *xs) with the sign of den: the cleared value (den, *xs) over it is canonical."""
    g = gcd(den, *xs)
    return -g if den < 0 else g


def _binary(fn):
    """The operator fn(x, y) on Scalars, taking an int or Fraction for y."""
    def op(x, y):
        y = _coerce(y)
        return NotImplemented if y is NotImplemented else fn(x, y)
    return op


def _sum(x, y, sign: int):
    """x + sign*y for sign = 1 or -1."""
    disc = _join_field(x.disc, y.disc)
    d1, d2 = x._den, y._den
    return _scalar(d1 * d2, x._a * d2 + sign * y._a * d1, x._b * d2 + sign * y._b * d1, disc)


def _product(x, y):
    """x * y for Scalars x and y."""
    disc = _join_field(x.disc, y.disc)
    a, b = _mul((x._a, x._b), (y._a, y._b), disc)
    return _scalar(x._den * y._den, a, b, disc)


class Scalar:
    """An element (a + b*sqrt(disc)) / den of Q or Q(sqrt(disc)), immutable.

    ``disc`` is 0 exactly when the value is rational (``b == 0``); otherwise it
    is a squarefree integer other than 1.  The properties ``a`` and ``b`` read
    the rational and radical parts as Fractions.
    """

    __slots__ = ("_den", "_a", "_b", "disc")

    def __new__(cls, a, b=0, disc: int = 0):
        an, ad = _rational(a)
        bn, bd = _rational(b)
        if not bn:
            disc = 0
        elif abs(disc) > _MAX_RADICAND:
            raise RadicandError(
                f"radicand {_int_str(disc)} is outside the supported range |D| <= 10^12")
        elif disc in (0, 1) or not _is_squarefree(disc):
            raise RadicandError(f"discriminant must be squarefree and != 0, 1, got {disc}")
        # an/ad and bn/bd are in lowest terms, so over their lcm the content is 1
        den = ad if ad == bd else lcm(ad, bd)
        return _new(den, an * (den // ad), bn * (den // bd), disc)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def a(self) -> Fraction:  # the rational part
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:  # the coefficient of sqrt(disc)
        return Fraction(self._b, self._den)

    @property
    def is_rational(self) -> bool:
        return self.disc == 0

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- arithmetic: an int or Fraction operand is coerced ----------------------

    __add__ = __radd__ = _binary(lambda x, y: _sum(x, y, 1))
    __sub__ = _binary(lambda x, y: _sum(x, y, -1))
    __rsub__ = _binary(lambda x, y: _sum(y, x, -1))
    __mul__ = __rmul__ = _binary(_product)
    __truediv__ = _binary(lambda x, y: _product(x, y.inverse()))
    __rtruediv__ = _binary(lambda x, y: _product(y, x.inverse()))

    def __neg__(self):
        return _new(self._den, -self._a, -self._b, self.disc)

    def inverse(self) -> Scalar:
        if self.is_zero:
            raise DivisionByZeroError("scalar division by zero")
        den, x, disc = self._den, (self._a, self._b), self.disc
        if not disc:
            return _scalar(x[0], den, 0, 0)
        # den/(a + b s) = den (a - b s)/N(a + b s)
        a, b = _conj(x)
        return _scalar(_norm(x, disc), den * a, den * b, disc)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        a, b = _pow((self._a, self._b), n, self.disc)
        return _scalar(self._den ** n, a, b, self.disc)

    # -- comparison / hashing --------------------------------------------------

    __eq__ = _binary(lambda x, y: x._a == y._a and x._den == y._den
                     and x._b == y._b and x.disc == y.disc)

    def __hash__(self):
        if self.disc == 0:
            return _rational_hash(self._a, self._den)
        return hash((self._den, self._a, self._b, self.disc))

    def __bool__(self):
        return not self.is_zero

    # -- presentation ------------------------------------------------------------

    def __str__(self):
        den, a, b, disc = self._den, self._a, self._b, self.disc
        if disc == 0:
            return _rat_str(a, den)
        radical = f"sqrt({disc})"
        bpart = radical if b == den else (f"-{radical}" if b == -den else
                                          f"{_rat_str(b, den)}*{radical}")
        if not a:
            return bpart
        sep = "" if bpart.startswith("-") else "+"
        return f"{_rat_str(a, den)}{sep}{bpart}"

    def __repr__(self):
        return f"Scalar({str(self)!r})"


_SETTERS = tuple(Scalar.__dict__[name].__set__ for name in Scalar.__slots__)


def _new(den: int, a: int, b: int, disc: int) -> Scalar:
    # Internal constructor: (den, a, b, disc) is already canonical and disc
    # was validated upstream.
    s = object.__new__(Scalar)
    set_den, set_a, set_b, set_disc = _SETTERS
    set_den(s, den)
    set_a(s, a)
    set_b(s, b)
    set_disc(s, disc)
    return s


def _scalar(den: int, a: int, b: int, disc: int) -> Scalar:
    """The canonical Scalar (a + b*sqrt(disc)) / den, for den != 0 and a disc
    validated upstream; a vanished b drops its field."""
    if not b:
        disc = 0
    g = _content(den, a, b)
    if g != 1:
        den //= g
        a //= g
        b //= g
    return _new(den, a, b, disc)


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of an int, a Fraction or a
    rational Scalar; text goes through parse_scalar, not here."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, Scalar) and not x.disc:
        return x._a, x._den
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _new(x.denominator, x.numerator, 0, 0)
    return NotImplemented


def _rational_hash(num: int, den: int) -> int:
    """hash(Fraction(num, den)) for num/den in lowest terms, den > 0."""
    try:  # hash(n) for an int n is n mod the modulus, signed
        return hash(num * pow(den, -1, sys.hash_info.modulus))
    except ValueError:  # den is a multiple of the modulus
        return sys.hash_info.inf if num > 0 else -sys.hash_info.inf


def _rat_str(num: int, den: int) -> str:
    """The text of num/den in lowest terms, as Fraction prints it; a numeral
    over the interpreter's digit limit raises OutputTooLargeError (the limit
    guards CPython's quadratic int-to-str, so it is never lifted)."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise OutputTooLargeError() from None


def _int_str(n: int) -> str:
    """The text of n, or "(too large to print)" past the interpreter's digit
    limit: for messages and reports, which must not fail on the numbers they
    describe."""
    try:
        return str(n)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        return "(too large to print)"


ZERO = _new(1, 0, 0, 0)
ONE = _new(1, 1, 0, 0)


def rational(p, q=None) -> Scalar:
    """Scalar p/q (q defaults to 1) for ints, Fractions or rational Scalars."""
    return Scalar(p) if q is None else Scalar(p) / Scalar(q)


def sqrt_ext(b, disc: int) -> Scalar:
    """Scalar b*sqrt(disc)."""
    return Scalar(0, b, disc)


_SQRT_RE = re.compile(r"sqrt\((-?\d+)\)")
_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p/q+r/s*sqrt(D)", "sqrt(-3)", "-2*sqrt(5)", etc.

    Whitespace-insensitive; inverse of :meth:`Scalar.__str__`.  The radicand
    D must satisfy |D| <= 10^12 (its squarefreeness is checked by trial
    division); a larger one raises ScalarParseError.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ScalarParseError("empty scalar")
    parts = _split_top(s, "+-")
    if len(parts) > 2:
        raise ScalarParseError(f"too many terms in scalar {text!r}")

    a = b = ZERO
    disc = 0
    for part in parts:
        sign, part = _strip_sign(part)
        if not part:
            raise ScalarParseError(f"dangling sign in {text!r}")
        m = _SQRT_RE.search(part)
        if m:
            d = _parse_int(m.group(1))
            if disc and d != disc:
                raise ScalarParseError(f"two different radicals in {text!r}")
            coeff_txt = part[: m.start()].rstrip("*")
            if part[m.end():]:
                raise ScalarParseError(f"unexpected trailing text in {text!r}")
            coeff = ONE if not coeff_txt else _parse_rat(coeff_txt, text)
            b += coeff if sign > 0 else -coeff
            disc = d
        else:
            coeff = _parse_rat(part, text)
            a += coeff if sign > 0 else -coeff
    try:
        return Scalar(a, b, disc)
    except RadicandError as exc:
        raise ScalarParseError(str(exc)) from None


def _parse_rat(part: str, whole: str) -> Scalar:
    if not _RATIONAL_RE.match(part):
        raise ScalarParseError(f"bad rational {part!r} in {whole!r}")
    num, _, den = part.partition("/")
    q = _parse_int(den) if den else 1
    if not q:
        raise ScalarParseError(f"zero denominator in {whole!r}")
    return _scalar(q, _parse_int(num), 0, 0)


# -- the text grammar shared with catalog templates ---------------------------


def _parse_int(digits: str) -> int:
    """The one numeral parser of scalar and template text."""
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's integer-string digit limit
        raise ScalarParseError(f"numeral too long ({len(digits)} characters)") from None


def _split_top(s: str, seps: str) -> list[str]:
    """Split s at the separators in seps that sit at paren depth 0.

    A + or - stays attached to the part it starts, and splits only after a
    character that can end an operand (not an operator or "("), so signs
    in "2*-3" or "x^-1" are unary.  A * separator is dropped.  Unbalanced
    parentheses and empty parts raise ScalarParseError.
    """
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ScalarParseError(f"unbalanced parentheses in {s!r}")
        elif depth == 0 and ch in seps and i > start and s[i - 1] not in "+-*/^(":
            parts.append(s[start:i])
            start = i if ch in "+-" else i + 1
    if depth:
        raise ScalarParseError(f"unbalanced parentheses in {s!r}")
    parts.append(s[start:])
    if "" in parts:
        raise ScalarParseError(f"empty factor in {s!r}")
    return parts


def _strip_sign(text: str) -> tuple[int, str]:
    """(+1 or -1, rest): the parity of the leading signs of text, and the rest."""
    sign = 1
    while text and text[0] in "+-":
        if text[0] == "-":
            sign = -sign
        text = text[1:]
    return sign, text
