"""Exact scalar arithmetic over Q and quadratic extensions Q(sqrt(D)).

Every coefficient in this package is a :class:`Scalar`: a value ``a + b*sqrt(D)``
with ``a``, ``b`` rational and ``D`` a squarefree integer.  ``D == 0`` (forced
whenever ``b == 0``) marks a plain rational.  Arithmetic never rounds; the
representation is canonical, so ``==`` is exact value equality.

Scalars of different nonzero discriminants must not be mixed; doing so raises
:class:`FieldMixError` rather than silently coercing.

Every error the package raises on bad input derives from
:class:`SeacurvesError` (a ``ValueError``), which the CLI maps to exit code 2.

The components are ``fractions.Fraction`` values; there is no other rational
backend.  Binary forms, polynomials and the work on them do not use
Fraction: both carry their coefficients cleared to one integer vector over
Z[sqrt(D)] with one denominator (:mod:`seacurves.forms`), products, sums,
substitutions, resultants and transvectant chains run on Python ints, and
the Scalar coefficients are built only when they are read.  Absolute
invariants are products of cleared elements of Z[sqrt(D)], divided into one
Scalar each.  Scalars and vectors join their fields by one rule,
``_join_field``.

:func:`parse_scalar` reads the text :meth:`Scalar.__str__` writes.  Its
pieces are the text grammar of the whole package: ``_split_top`` splits at
depth-0 signs or products, ``_strip_sign`` folds leading signs and
``_parse_int`` reads every numeral.  Equation templates
(:mod:`seacurves.catalog.templates`) parse with the same three, so one
numeral or parenthesis rule holds in both grammars.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RAT = Fraction  # the one rational type; the benchmark records it as the backend
_R0 = Fraction(0)
_R1 = Fraction(1)

__all__ = [
    "Scalar",
    "SeacurvesError",
    "FieldMixError",
    "ScalarParseError",
    "RadicandError",
    "DivisionByZeroError",
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


# _is_squarefree trial-divides up to sqrt|D|: at most ~5*10^5 steps below this bound
_MAX_RADICAND = 10 ** 12


def _is_squarefree(n: int) -> bool:
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


def _join_field(d1: int, d2: int) -> int:
    """The field of values over Q(sqrt(d1)) and Q(sqrt(d2)), 0 meaning Q.

    The one field check of the package, for scalars and for the cleared
    vectors of forms alike; two different radicals raise FieldMixError.
    """
    if d1 and d2 and d1 != d2:
        raise FieldMixError(f"cannot mix sqrt({d1}) and sqrt({d2})")
    return d1 or d2


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
        elif disc in (0, 1) or not _is_squarefree(disc):
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

    a = _R0
    b = _R0
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
            coeff = _R1 if not coeff_txt else _parse_rat(coeff_txt, text)
            b += sign * coeff
            disc = d
        else:
            a += sign * _parse_rat(part, text)
    try:
        return Scalar(a, b, disc)
    except RadicandError as exc:
        raise ScalarParseError(str(exc)) from None


def _parse_rat(part: str, whole: str):
    if not _RATIONAL_RE.match(part):
        raise ScalarParseError(f"bad rational {part!r} in {whole!r}")
    num, _, den = part.partition("/")
    if den and _parse_int(den) == 0:
        raise ScalarParseError(f"zero denominator in {whole!r}")
    return Fraction(_parse_int(num), _parse_int(den)) if den else Fraction(_parse_int(num))


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
