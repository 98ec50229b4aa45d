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
``_pow``, ``_conj``, ``_norm``, the exact division ``_quo``, and
``_content``, the signed gcd that makes a cleared value canonical) and one
field rule, ``_join_field``.  One quotient, ``_quotient``, divides two
cleared values into a canonical Scalar: Scalar division and inverse, and
the absolute invariants (:mod:`seacurves.invariants`), each side of which
is a ``_power_product`` of Scalars.  Only this module and
:mod:`seacurves.forms` read a Scalar's parts.  A Fraction is accepted as
input, and built only by the read-only views :attr:`Scalar.a` and
:attr:`Scalar.b` and by the hash of a rational that is not an integer.

:func:`parse_scalar` reads the text :meth:`Scalar.__str__` writes, and is
the only way from text to a Scalar: the constructor takes no strings.  Its
pieces are the text grammar of the whole package: ``_split_top`` splits at
depth-0 signs or products, ``_strip_sign`` folds leading signs,
``_RATIONAL_RE`` is the one pattern of an unsigned rational numeral, in
ASCII digits, and ``_parse_int`` reads every numeral.  Equation templates
(:mod:`seacurves.catalog.templates`) parse with the same four, so one
numeral or parenthesis rule holds in both grammars.  A numeral longer than
``sys.get_int_max_str_digits()`` digits is refused both ways: as input by
``_parse_int`` and as output by ``_rat_str`` (:class:`OutputTooLargeError`);
``_int_str`` prints such a number in a message as the placeholder
``_TOO_LARGE``, and ``_repr_str`` any value holding one.

An integer parameter of the Python API (a level, a degree, an order, a
genus) is checked by ``_require_int`` at the entry point: a value of another
type raises a ``TypeError`` naming the parameter, and a bool counts as an
int.
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
    """A value past a size bound: a numeral longer than
    ``sys.get_int_max_str_digits()`` digits, which the interpreter refuses to
    print, or a power ``Scalar ** n`` past ``_MAX_POWER_BITS``."""

    def __init__(self, message=None):
        super().__init__(message or "value too large to print: a numeral exceeds "
                         f"{sys.get_int_max_str_digits()} digits")


# Scalar ** n refuses |n| times the bit length of its largest part past this
# bound, above the 1.43 * 10^6 of x ** 100 on a 4300-digit x (forms.evaluate
# at MAX_DEGREE on values at the digit limit)
_MAX_POWER_BITS = 2 ** 21


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


def _check_radicand(disc: int) -> None:
    """The one check of the D of sqrt(D): RadicandError unless D is a
    squarefree integer other than 0 and 1 with |D| <= 10^12."""
    if abs(disc) > _MAX_RADICAND:
        raise RadicandError(
            f"radicand {_int_str(disc)} is outside the supported range |D| <= 10^12")
    if disc in (0, 1) or not _is_squarefree(disc):
        raise RadicandError(f"discriminant must be squarefree and != 0, 1, got {disc}")


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


def _power_product(values, powers):
    """(den, x, disc) with prod values[n]^e = x / den over powers {n: e}, for
    Scalars values[n]: x an element of Z[sqrt(disc)], disc their joint field."""
    den, x, disc = 1, (1, 0), 0
    for n, e in powers.items():
        s = values[n]
        disc = _join_field(disc, s.disc)
        den *= s._den ** e
        x = _mul(x, _pow((s._a, s._b), e, disc), disc)
    return den, x, disc


def _conj(x):
    """a - b*sqrt(disc) for x = a + b*sqrt(disc)."""
    return x[0], -x[1]


def _norm(x, disc: int) -> int:
    """x * conj(x) = a^2 - disc*b^2, nonzero for x != 0 as disc is no square."""
    return x[0] * x[0] - disc * x[1] * x[1]


def _quo(x, y, disc: int):
    """x / y for elements x, y of Z[sqrt(disc)] where y divides x: x conj(y)
    over the norm of y, each part an exact division."""
    if not y[1]:
        return x[0] // y[0], x[1] // y[0]
    a, b = _mul(x, _conj(y), disc)
    n = _norm(y, disc)
    return a // n, b // n


def _quotient(xden: int, x, yden: int, y, disc: int) -> Scalar:
    """The canonical Scalar (x / xden) / (y / yden) for elements x and y != 0
    of Z[sqrt(disc)]: x conj(y) yden over xden N(y), made canonical once; a
    rational y divides as itself, not through its square norm."""
    if not y[1]:
        return _scalar(xden * y[0], x[0] * yden, x[1] * yden, disc)
    a, b = _mul(x, _conj(y), disc)
    return _scalar(xden * _norm(y, disc), a * yden, b * yden, disc)


def _content(den: int, *xs: int) -> int:
    """gcd(den, *xs) with the sign of den: the cleared value (den, *xs) over it is canonical."""
    g = gcd(den, *xs)
    return -g if den < 0 else g


def _binary(fn):
    """The operator fn(x, y) on Scalars, taking an int or Fraction for y."""
    def op(x, y):
        if isinstance(y, Scalar):
            return fn(x, y)
        if isinstance(y, (int, Fraction)):
            return fn(x, _new(y.denominator, y.numerator, 0, 0))
        return NotImplemented
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


def _divide(x, y):
    """x / y for Scalars x and y."""
    if y.is_zero:
        raise DivisionByZeroError("scalar division by zero")
    return _quotient(x._den, (x._a, x._b), y._den, (y._a, y._b), _join_field(x.disc, y.disc))


class Scalar:
    """An element (a + b*sqrt(disc)) / den of Q or Q(sqrt(disc)), immutable.

    ``disc`` is 0 exactly when the value is rational (``b == 0``); otherwise it
    is a squarefree integer other than 1.  The properties ``a`` and ``b`` read
    the rational and radical parts as Fractions.

    Unlike the package's other values it is not a frozen dataclass: the
    constructor's arguments are not its stored state, which ``_new`` writes
    on the hot paths, so ``__reduce__`` rebuilds a copy through ``_new``.
    """

    __slots__ = ("_den", "_a", "_b", "disc")

    def __new__(cls, a, b=0, disc: int = 0):
        an, ad = _rational(a)
        bn, bd = _rational(b)
        if not bn:
            disc = 0
        else:
            _check_radicand(disc)
        # an/ad and bn/bd are in lowest terms, so over their lcm the content is 1
        den = ad if ad == bd else lcm(ad, bd)
        return _new(den, an * (den // ad), bn * (den // bd), disc)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _new, (self._den, self._a, self._b, self.disc)

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
    __truediv__ = _binary(_divide)
    __rtruediv__ = _binary(lambda x, y: _divide(y, x))

    def __neg__(self):
        return _new(self._den, -self._a, -self._b, self.disc)

    def inverse(self) -> Scalar:
        return _divide(ONE, self)

    def __pow__(self, n):
        """self^n; OutputTooLargeError, before any work, when |n| times the
        bit length of the largest part passes ``_MAX_POWER_BITS``."""
        if not isinstance(n, int):
            return NotImplemented
        e = abs(n)
        bits = max(self._den.bit_length(), self._a.bit_length(), self._b.bit_length())
        if e * bits > _MAX_POWER_BITS:
            raise OutputTooLargeError(f"power too large: exponent {_int_str(n)} on a {bits}-bit "
                                      f"value passes {_MAX_POWER_BITS} bits")
        x = self.inverse() if n < 0 else self
        a, b = _pow((x._a, x._b), e, x.disc)
        if x.disc:
            return _scalar(x._den ** e, a, b, x.disc)
        return _new(x._den ** e, a, 0, 0)  # gcd(den, a) = 1 gives gcd(den^e, a^e) = 1

    # -- comparison / hashing --------------------------------------------------

    __eq__ = _binary(lambda x, y: x._a == y._a and x._den == y._den
                     and x._b == y._b and x.disc == y.disc)

    def __hash__(self):
        if self.disc:
            return hash((self._den, self._a, self._b, self.disc))
        # an integer's hash, the int's, equals its Fraction's by Python's numeric hash rule
        return hash(self._a) if self._den == 1 else hash(Fraction(self._a, self._den))

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
    raise TypeError(f"cannot interpret {_repr_str(x)} as an exact rational")


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


_TOO_LARGE = "(too large to print)"


def _int_str(n) -> str:
    """The text of n, an int or a Scalar, or ``_TOO_LARGE`` past the
    interpreter's digit limit: for messages and reports, which must not fail
    on the numbers they describe."""
    try:
        return str(n)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        return _TOO_LARGE


def _repr_str(value) -> str:
    """repr(value), or ``_TOO_LARGE`` when it holds an int past the digit
    limit: for messages quoting a caller's value of the wrong type."""
    try:
        return repr(value)
    except ValueError:  # an int beyond sys.get_int_max_str_digits()
        return _TOO_LARGE


def _require_int(value, what: str) -> None:
    """The one check of an integer parameter: a TypeError naming ``what``
    unless value is an int (a bool counts)."""
    if not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {_repr_str(value)}")


ZERO = _new(1, 0, 0, 0)
ONE = _new(1, 1, 0, 0)


def rational(p, q=None) -> Scalar:
    """Scalar p/q (q defaults to 1) for ints, Fractions or rational Scalars."""
    return Scalar(p) if q is None else Scalar(p) / Scalar(q)


def sqrt_ext(b, disc: int) -> Scalar:
    """Scalar b*sqrt(disc)."""
    return Scalar(0, b, disc)


# an unsigned numeral p or p/q in ASCII digits: the rational text every grammar reads
_RATIONAL_RE = re.compile(r"[0-9]+(?:/[0-9]+)?")
# a radical part: sqrt(D), after a rational multiplier joined by at most one *
_RADICAL_RE = re.compile(rf"(?:({_RATIONAL_RE.pattern})\*?)?sqrt\((-?[0-9]+)\)")


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p/q+r/s*sqrt(D)", "sqrt(-3)", "-2*sqrt(5)", etc.

    The inverse of :meth:`Scalar.__str__`: at most one rational part and at
    most one radical part, in either order, each with its signs, in ASCII
    digits; whitespace may sit between tokens but not inside a numeral or a
    name.  A multiplier of sqrt(D) is a rational joined to it by at most one
    ``*`` (``2**sqrt(5)`` and ``*sqrt(5)`` are refused).  The radicand D must
    be squarefree, other than 0 and 1, and satisfy |D| <= 10^12 (its
    squarefreeness is checked by trial division), even when its multiplier
    is 0; any other raises ScalarParseError.
    """
    if _RATIONAL_RE.fullmatch(text):  # one unsigned rational, most of the catalog's constants
        return _parse_rat(text, text)
    s = _strip_space(text)
    if not s:
        raise ScalarParseError("empty scalar")
    parts = {}  # "rational" or "radical" -> its signed rational coefficient
    disc = 0
    try:
        for part in _split_top(s, "+-"):
            sign, part = _strip_sign(part)
            m = _RADICAL_RE.fullmatch(part)
            kind = "radical" if m else "rational"
            if kind in parts:
                raise ScalarParseError(f"two {kind} parts in {text!r}")
            if m:
                part, disc = m[1] or "1", _parse_int(m[2])
            coeff = _parse_rat(part, text)
            if m and not coeff:  # Scalar() checks D under a nonzero multiplier only
                _check_radicand(disc)
            parts[kind] = coeff if sign > 0 else -coeff
        return Scalar(parts.get("rational", 0), parts.get("radical", 0), disc)
    except RadicandError as exc:
        raise ScalarParseError(str(exc)) from None


def _parse_rat(part: str, whole: str) -> Scalar:
    if not _RATIONAL_RE.fullmatch(part):
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


# whitespace splitting a numeral or a name: between two digits, or after a
# letter or _ and before a letter, digit or _
_SPLIT_TOKEN_RE = re.compile(r"[0-9]\s+[0-9]|[A-Za-z_]\s+[A-Za-z0-9_]")


def _strip_space(text: str) -> str:
    """text less its whitespace, which may sit between tokens but not inside one."""
    if _SPLIT_TOKEN_RE.search(text):
        raise ScalarParseError(f"whitespace inside a numeral or name in {text!r}")
    return "".join(text.split())


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
