"""A naive model of the package's algebra, written from the definitions.

The differential tests (``test_*_oracle.py``) check the package against it.
It computes with ints and Fractions alone and imports no private name of
``seacurves``; public names serve only to read and build package values.  So
a fault in the integer kernel cannot hide behind a reference built on that
kernel.  An implementation that a change replaces is checked against
this model; it is not kept as a second copy.

- Scalars: :class:`RefScalar`, a + b*sqrt(D) for rationals a and b.
- Forms and polynomials: tuples of model scalars, ascending in the power of
  X (or x); a form of degree d has d + 1 entries, a polynomial no trailing
  zero (the zero polynomial is ``()``).  Schoolbook products, a template
  expanded factor by factor at given parameter values, partial
  derivatives one order per pass, and the transvectant from its
  partial-derivative definition (Olver, *Classical Invariant Theory*, 1999,
  ch. 5).
- GL2 substitution f(aX + bZ, cX + dZ) by Horner's rule over a table of
  powers.
- The Sylvester determinant by Gaussian elimination, the Euclidean
  remainder sequence, and the discriminant on the model's own derivative
  (Cohen, *A Course in Computational Algebraic Number Theory*, 1993, 3.3).
- Riemann-Hurwitz on Fractions, absolute-invariant ratios, and the reprs of
  forms and polynomials.

Helpers read package values through public attributes only (``to_model``),
convert scalars to sympy, and give the hypothesis strategies the
differential tests share.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from hypothesis import strategies as st

from seacurves.curves import CurveDataError
from seacurves.scalars import DivisionByZeroError, FieldMixError, Scalar, rational

# -- scalars -------------------------------------------------------------------------------


def ref_is_squarefree(n: int) -> bool:
    """No square of a prime divides n != 0: trial division up to sqrt|n|."""
    n = abs(n)
    if n == 0 or n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


class RefScalar:
    """a + b*sqrt(disc) for rationals a and b (ints or Fractions); disc is 0
    exactly when b is 0, and otherwise a squarefree integer other than 1.
    An integral part is kept as an int, so arithmetic on integral parts is
    int arithmetic."""

    __slots__ = ("a", "b", "disc")

    def __init__(self, a=0, b=0, disc: int = 0):
        self.a = a.numerator if a.denominator == 1 else a
        self.b = b.numerator if b.denominator == 1 else b
        self.disc = disc if b else 0

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def _with(self, other):
        """(other as a model scalar, the field of both), or (NotImplemented, 0)."""
        if isinstance(other, (int, Fraction)):
            return RefScalar(other), self.disc
        if not isinstance(other, RefScalar):
            return NotImplemented, 0
        if self.disc and other.disc and self.disc != other.disc:
            raise FieldMixError(f"cannot mix sqrt({self.disc}) and sqrt({other.disc})")
        return other, self.disc or other.disc

    # products and sums skip a part that is 0: the model runs in every differential test

    def __add__(self, other):
        y, disc = self._with(other)
        if y is NotImplemented:
            return y
        return RefScalar(self.a + y.a, self.b + y.b if self.b and y.b else self.b or y.b, disc)

    __radd__ = __add__

    def __neg__(self):
        return RefScalar(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        y, disc = self._with(other)
        if y is NotImplemented:
            return y
        return RefScalar(self.a - y.a, self.b - y.b if self.b and y.b else self.b or -y.b, disc)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return RefScalar(self.a * other, self.b and self.b * other, self.disc)
        y, disc = self._with(other)
        if y is NotImplemented:
            return y
        a1, b1, a2, b2 = self.a, self.b, y.a, y.b
        if not b2:
            return RefScalar(a1 * a2, b1 and b1 * a2, disc)
        if not b1:
            return RefScalar(a1 * a2, a1 * b2, disc)
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + b1 b2 D + (a1 b2 + b1 a2) s
        return RefScalar(a1 * a2 + b1 * b2 * disc, a1 * b2 + b1 * a2, disc)

    __rmul__ = __mul__

    def inverse(self) -> RefScalar:
        """1/(a + b s) = (a - b s)/(a^2 - b^2 D); the norm is not 0, since D
        is not the square of a rational."""
        if self.is_zero:
            raise DivisionByZeroError("scalar division by zero")
        norm = Fraction(self.a * self.a - self.b * self.b * self.disc)
        return RefScalar(self.a / norm, -self.b / norm, self.disc)

    def __truediv__(self, other):
        y, _ = self._with(other)
        return y if y is NotImplemented else self * y.inverse()

    def __rtruediv__(self, other):
        return RefScalar(other) * self.inverse()

    def __pow__(self, n: int):
        base, n, out = (self if n >= 0 else self.inverse()), abs(n), ONE
        while n:  # square and multiply
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base if n else base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefScalar(other)
        if not isinstance(other, RefScalar):
            return NotImplemented
        return (self.a, self.b, self.disc) == (other.a, other.b, other.disc)

    def __hash__(self):
        return hash(self.a) if not self.disc else hash((self.a, self.b, self.disc))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if not self.disc:
            return str(self.a)
        radical = f"sqrt({self.disc})"
        b = self.b
        bpart = radical if b == 1 else f"-{radical}" if b == -1 else f"{b}*{radical}"
        if not self.a:
            return bpart
        return f"{self.a}{'' if bpart.startswith('-') else '+'}{bpart}"

    def __repr__(self):
        return f"Scalar({str(self)!r})"


ZERO, ONE = RefScalar(0), RefScalar(1)


def to_model(x):
    """The model of a package value, read through public attributes: a
    scalar from ``.a``, ``.b`` and ``.disc``, a form or polynomial from
    ``.coeffs``, a sequence or dict entry by entry; ints and Fractions are
    rational scalars."""
    if isinstance(x, (int, Fraction)):
        return RefScalar(x)
    if isinstance(x, (tuple, list)):
        return tuple(map(to_model, x))
    if isinstance(x, dict):
        return {k: to_model(v) for k, v in x.items()}
    if hasattr(x, "coeffs"):
        return to_model(x.coeffs)
    return RefScalar(x.a, x.b, x.disc)


def from_model(coeffs) -> list:
    """Package Scalars with the values of model scalars."""
    return [Scalar(c.a, c.b, c.disc) for c in coeffs]


# -- forms and polynomials -----------------------------------------------------------------


def ref_product(u, v) -> tuple:
    """The product of two coefficient tuples, term by term; () times anything is ()."""
    if not u or not v:
        return ()
    out = [ZERO] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    out[i + j] = out[i + j] + x * y
    return tuple(out)


def ref_expand(template, values: dict) -> tuple:
    """A template's polynomial at model parameter values: each value
    substituted into each factor's terms, read through ``all_terms``, and
    the factors multiplied by :func:`ref_product`."""
    product = (ONE,)
    for factor in template.factors:
        coeffs = [ZERO] * (factor.degree + 1)
        for t in factor.all_terms():
            c = to_model(t.const)
            coeffs[t.exp] = c if t.param is None else c * values[t.param]
        product = ref_product(product, tuple(coeffs))
    return product


def ref_partial(f, var: str) -> tuple:
    """d f / dX or d f / dZ of sum f_i X^i Z^(d-i), one order."""
    d = len(f) - 1
    if var == "X":
        return tuple(i * f[i] for i in range(1, d + 1))
    return tuple((d - i) * f[i] for i in range(d))


def ref_partial_derivative(f, var: str, order: int = 1) -> tuple:
    """The order-th partial derivative, one order per pass; past the degree
    it is the zero form of degree 0, as the package defines it."""
    if order > len(f) - 1:
        return (ZERO,)
    for _ in range(order):
        f = ref_partial(f, var)
    return f


def _integral(f) -> tuple:
    """(e, e*f) for the least e > 0 that gives every entry of f integer parts."""
    e = lcm(*(x.denominator for c in f for x in (c.a, c.b)))
    return e, tuple(c * e for c in f)


def ref_transvect(f, g, r: int) -> tuple:
    """(f, g)^r = (m-r)! (n-r)! / (n! m!) sum_k (-1)^k C(r, k)
    d^r f / dX^(r-k) dZ^k * d^r g / dX^k dZ^(r-k), for degrees n and m.

    The transvectant is bilinear: the sum runs on ef f and eg g, whose
    entries have integer parts, in int arithmetic, and is divided by ef eg."""
    n, m = len(f) - 1, len(g) - 1
    assert 0 <= r <= min(n, m)
    (ef, f), (eg, g) = _integral(f), _integral(g)
    fx, gx = [f], [g]  # X-derivatives of orders 0 .. r
    for _ in range(r):
        fx.append(ref_partial(fx[-1], "X"))
        gx.append(ref_partial(gx[-1], "X"))
    out = [ZERO] * (n + m - 2 * r + 1)
    for k in range(r + 1):
        term = ref_product(ref_partial_derivative(fx[r - k], "Z", k),
                           ref_partial_derivative(gx[k], "Z", r - k))
        c = (-1) ** k * comb(r, k)
        out = [x + c * y for x, y in zip(out, term)]
    pref = Fraction(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m) * ef * eg)
    return tuple(pref * x for x in out)


def ref_moebius_act(M, f) -> tuple:
    """f(aX + bZ, cX + dZ) = sum_i f_i (aX + bZ)^i (cX + dZ)^(d-i) for the
    matrix M = (a, b, c, d), by Horner's rule in aX + bZ over a table of
    powers of cX + dZ: from acc = f_d, acc becomes
    acc (aX + bZ) + f_i (cX + dZ)^(d-i) for i = d - 1 .. 0, O(d^2) products.

    f is homogeneous of degree d, so f(eM) = e^d f(M): the linear forms are
    those of the matrix eM, whose entries have integer parts, so their
    powers are built in int arithmetic."""
    e, (a, b, c, d) = _integral(M)
    deg = len(f) - 1
    pow2 = [(ONE,)]
    for _ in range(deg):
        pow2.append(ref_product(pow2[-1], (d, c)))
    acc = (f[deg],)
    for i in range(deg - 1, -1, -1):
        acc = ref_product(acc, (b, a))
        if f[i]:
            acc = tuple(x + f[i] * y for x, y in zip(acc, pow2[deg - i]))
    return tuple(Fraction(1, e ** deg) * x for x in acc)


# -- resultants and gcds -------------------------------------------------------------------


def ref_det(rows) -> RefScalar:
    """Determinant by Gaussian elimination with a nonzero pivot."""
    m = [list(r) for r in rows]
    n = len(m)
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    if m[col][c]:
                        m[r][c] = m[r][c] - factor * m[col][c]
    return det


def ref_resultant(p, q) -> RefScalar:
    """Res(p, q) as the determinant of the Sylvester matrix: deg q shifted
    rows of p, then deg p shifted rows of q, coefficients descending."""
    m, n = len(p) - 1, len(q) - 1
    rows = [[ZERO] * s + list(reversed(p)) + [ZERO] * (n - 1 - s) for s in range(n)]
    rows += [[ZERO] * s + list(reversed(q)) + [ZERO] * (m - 1 - s) for s in range(m)]
    return ref_det(rows)


def euclid_mod(a, b) -> tuple:
    """The remainder of a on division by b != 0."""
    out = list(a)
    while len(out) >= len(b):
        factor = out[-1] / b[-1]
        shift = len(out) - len(b)
        for i, c in enumerate(b):
            out[shift + i] = out[shift + i] - factor * c
        out.pop()
        while out and not out[-1]:
            out.pop()
    return tuple(out)


def ref_monic(p) -> tuple:
    """p divided by its leading coefficient; the zero polynomial stays zero."""
    inv = p and p[-1].inverse()
    return tuple(c * inv for c in p)


def euclid_resultant(p, q) -> RefScalar:
    """Res(p, q) by the Euclidean remainder sequence.

    With r = p mod q, Res(p, q) = (-1)^(deg p deg q) lc(q)^(deg p - deg r)
    Res(q, r), and Res(q, c r) = c^(deg q) Res(q, r) makes every remainder
    monic.
    """
    if not p or not q:
        raise ValueError("resultant of the zero polynomial is undefined")
    res = ONE
    while len(q) > 1:
        r = euclid_mod(p, q)
        if not r:
            return ZERO
        m, n = len(p) - 1, len(q) - 1
        res = res * q[-1] ** (m - len(r) + 1) * r[-1] ** n
        if m * n % 2:
            res = -res
        p, q = q, ref_monic(r)
    return res * q[-1] ** (len(p) - 1)


def euclid_gcd(p, q) -> tuple:
    """The monic gcd by the Euclidean algorithm, each remainder made monic."""
    while q:
        p, q = q, ref_monic(euclid_mod(p, q))
    return ref_monic(p)


def ref_poly_is_squarefree(p) -> bool:
    """p of degree >= 1 has no repeated root: the Euclidean gcd of p and p'
    is a constant."""
    return len(euclid_gcd(p, ref_partial(p, "X"))) == 1


def ref_discriminant(p, resultant=ref_resultant) -> RefScalar:
    """disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lc(p) for p of degree d >= 1."""
    d = len(p) - 1
    sign = -1 if d * (d - 1) // 2 % 2 else 1
    return sign * resultant(p, ref_partial(p, "X")) / p[-1]


# -- Riemann-Hurwitz -----------------------------------------------------------------------


def ref_rh_residual(g: int, group_order: int, pairs) -> Fraction:
    """2(g-1)/|G| - [-2 + sum mult (1 - 1/e)] over the (index e, multiplicity)
    pairs of a signature; every index must divide |G|."""
    if group_order < 1:
        raise CurveDataError("group order must be positive")
    for e, _ in pairs:
        if group_order % e:
            raise CurveDataError(f"index {e} does not divide group order {group_order}")
    return Fraction(2 * (g - 1), group_order) + 2 - sum(
        (mult * (1 - Fraction(1, e)) for e, mult in pairs), Fraction(0))


def ref_complete_signature(g: int, group_order: int, pairs) -> tuple:
    """(status, completed pairs, added index): the printed signature is
    complete when the residual is 0; otherwise one index e with
    1 - 1/e = residual completes it, if e >= 2 divides |G|."""
    res = ref_rh_residual(g, group_order, pairs)
    if res == 0:
        return "already_complete", tuple(pairs), None
    if not 0 < res < 1:
        return "failed", None, None
    e = 1 / (1 - res)  # > 1
    if e.denominator != 1 or group_order % e.numerator:
        return "failed", None, None
    e = e.numerator
    counts = Counter(dict(pairs))
    counts[e] += 1
    return "completed", tuple(sorted(counts.items())), e


# -- absolute invariants -------------------------------------------------------------------


def ref_ratios(entries: dict, table: dict) -> tuple:
    """(values, undefined, unavailable) of a ratio table name -> (numerator,
    denominator), each a map invariant name -> exponent, over the model
    scalars ``entries`` of the available invariants."""
    values, undefined, unavailable = {}, set(), set()
    for name, (num, den) in table.items():
        if not all(n in entries for n in (*num, *den)):
            unavailable.add(name)
            continue
        bottom, top = ONE, ONE
        for n, e in den.items():
            bottom = bottom * entries[n] ** e
        for n, e in num.items():
            top = top * entries[n] ** e
        if bottom:
            values[name] = top / bottom
        else:
            undefined.add(name)
    return values, undefined, unavailable


def assert_ratios(got, entries: dict, table: dict) -> None:
    """The package's absolute invariants ``got`` of the invariant values
    ``entries`` are the model's ``ref_ratios``, by value and printed text."""
    values, undefined, unavailable = ref_ratios(to_model(entries), table)
    assert [(n, to_model(x), str(x)) for n, x in got.defined_items()] == \
        [(n, x, str(x)) for n, x in values.items()]
    assert (got.undefined, got.unavailable) == (undefined, unavailable)


# -- printed forms -------------------------------------------------------------------------


def _terms(coeffs, monomial) -> str:
    """The sum of the nonzero terms, " + " between them and " - " for a
    leading minus; a coefficient 1 or -1 folds into the sign of its monomial,
    and a + b*sqrt(D) with a, b != 0 is parenthesised."""
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mono = monomial(i)
        text = f"({c})" if c.disc and c.a else str(c)
        if mono and text in ("1", "-1"):
            terms.append(text[:-1] + mono)
        else:
            terms.append(f"{text}{'*' if mono else ''}{mono}")
    return " + ".join(terms).replace("+ -", "- ")


def _power(var: str, e: int) -> str:
    return f"{var}^{e}" if e > 1 else var if e == 1 else ""


def ref_form_repr(f) -> str:
    d = len(f) - 1
    return f"BinaryForm<{d}>({_terms(f, lambda i: _power('X', i) + _power('Z', d - i)) or '0'})"


def ref_poly_repr(p) -> str:
    return f"UnivariatePoly({_terms(p, lambda i: _power('x', i)) or '0'})"


def to_sympy(c, field=None):
    """A scalar (model or package) as the sympy number a + b*sqrt(D), or as
    an element of the sympy domain ``field``, QQ or QQ<sqrt(D)>."""
    import sympy

    a, b = (sympy.Rational(x.numerator, x.denominator) for x in (c.a, c.b))
    if field is None:
        return a + b * sympy.sqrt(c.disc)
    return field.convert(a) + field.convert(b) * _sqrt_in(field, c.disc) if c.disc \
        else field.convert(a)


@lru_cache
def _sqrt_in(field, disc: int):
    """sqrt(disc) as an element of the sympy domain ``field``."""
    import sympy

    return field.from_sympy(sympy.sqrt(disc))


# -- hypothesis strategies -----------------------------------------------------------------

# (field of the first operand, field of the second): Q, both extensions, and a
# rational operand meeting an extension one in either order
FIELD_PAIRS = [(0, 0), (-3, -3), (5, 5), (0, -3), (5, 0)]


def coefficients(disc: int, height: int):
    """Package scalars over Q(sqrt disc): zero often, so that any coefficient
    (leading and constant ones too) and whole forms vanish; rationals n/d
    with d <= 12 and n small or up to ``height``, so that numerators reach
    multi-limb integers and common denominators are not trivial; and
    a + b*sqrt(disc) with two such rationals."""
    rats = st.builds(rational, st.one_of(st.integers(-30, 30), st.integers(-height, height)),
                     st.integers(1, 12))
    zero = st.just(Scalar(0))
    if disc == 0:
        return st.one_of(zero, rats)
    return st.one_of(zero, rats, st.builds(lambda a, b: Scalar(a.a, b.a, disc), rats, rats))
