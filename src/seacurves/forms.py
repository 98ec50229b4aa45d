"""Binary forms, univariate polynomials and exact GL2 substitution.

A :class:`BinaryForm` of degree d is F(X, Z) = sum a_i X^i Z^(d-i) with the
coefficients stored ascending in the X-power (a_0 .. a_d).  Forms keep their
declared degree even when leading coefficients vanish; the all-zero form is a
legal value of any degree.

A form and a :class:`UnivariatePoly` hold their coefficients the same way,
in one private base class: the cleared integer vector
``vec = (den, A, B, disc)``, a_i = (A[i] + B[i]*sqrt(disc)) / den, with
den > 0, gcd(den, A, B) = 1, and B None (and disc 0) exactly when every
coefficient is rational; a polynomial's vector has no trailing zero.  This is
the cleared value of a :class:`~seacurves.scalars.Scalar` for a whole vector,
on the element helpers of :mod:`seacurves.scalars`.  The vector is canonical,
so ``==`` and ``hash`` compare it, and the degree is its length minus one.
One step, ``_Cleared._canonical``, writes every vector: a value built from
Scalars is cleared (``_clear``) and passed through it once, when it is
constructed, and keeps only its vector; its Scalar tuple ``coeffs`` is built
on each read.  Sums, products, scaling, the GL2 substitution, derivatives,
``monic``, (de)homogenization and the transvectant read vectors and return
values built from vectors (``_from_vec``, through the same step), on Python
ints over Z[sqrt(D)]; fields join by
:func:`seacurves.scalars._join_field`, and every operation reads its
operands as (A, B) pairs over the joint field through one lift, ``_lift``,
which gives a rational vector over Q(sqrt(D)) its zero B.  Products convolve
(A, B) pairs (``_pair_product``).  The GL2 substitution is two shears, each
a Taylor shift between diagonal scalings, and runs each shift's Horner pass
on Kronecker-packed integers, one fixed-width slot per coefficient, the
width bounded from the inputs (``_taylor_shift``).  A partial derivative
scales each coefficient by a product of falling factorials
(``_falling_products``, built by a ratio recurrence), and the same products,
summed over k, are the weights of the transvectant's cached tables
(:mod:`seacurves.transvection`).

Resultants, discriminants and gcds all run on one subresultant
pseudo-remainder sequence, ``_subresultant_prs``, on the same vectors,
entered through one function, ``_prs``, that lifts both operands to their
joint field and orders them by degree: every division in the sequence is
exact in Z[sqrt(D)], and an exact division of one element by another is
:func:`seacurves.scalars._quo`, as in the GL2 substitution's last scaling.
The squarefree test first tries a certificate modulo one word-size prime
(``_squarefree_mod_prime``) and runs the sequence only when that fails.
One renderer, ``_render``, writes the text of polynomials and the reprs of
forms and polynomials.
No operation here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from math import isqrt, lcm, perm
from operator import add, mul
from typing import Iterable, Sequence

from .scalars import (ZERO, Scalar, SeacurvesError, _conj, _content, _int_str, _join_field,
                      _mul, _norm, _pow, _quo, _repr_str, _require_int, _scalar, parse_scalar)

__all__ = [
    "BinaryForm",
    "UnivariatePoly",
    "Matrix2",
    "DegreeError",
    "SingularMatrixError",
    "make_form",
    "partial_derivative",
    "moebius_act",
    "evaluate",
    "homogenize",
    "dehomogenize",
    "resultant",
    "discriminant",
    "is_squarefree",
    "poly_gcd",
    "poly_to_string",
]


class DegreeError(SeacurvesError):
    """Degree preconditions violated (wrong length, mismatch, too small)."""


class SingularMatrixError(SeacurvesError):
    """Substitution by a matrix with zero determinant."""


def _scal(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


# Degree bound on input from outside the program (CLI forms, templates): the
# paper's genus <= 48 needs degree <= 2g + 2 = 98.
MAX_DEGREE = 100


def _join_coeff_field(coeffs: Iterable[Scalar]) -> int:
    disc = 0
    for c in coeffs:
        if c.disc:
            disc = _join_field(disc, c.disc)
    return disc


def _clear(coeffs: Sequence[Scalar]):
    """(den, A, B, disc) with coeffs[i] == (A[i] + B[i]*sqrt(disc)) / den, den
    the lcm of the Scalars' denominators and disc their field; B is None when
    every coefficient is rational."""
    disc = _join_coeff_field(coeffs)
    den = lcm(*(c._den for c in coeffs))
    a = [c._a * (den // c._den) for c in coeffs]
    if not disc:
        return den, a, None, disc
    return den, a, [c._b * (den // c._den) for c in coeffs], disc


def _clear_each(values: dict):
    """(den, {key: (A, B, disc)}) with values[key] == (A + B*sqrt(disc)) / den:
    den the lcm of the Scalars' denominators, each value over its own field
    (B is 0 over Q)."""
    den = lcm(*(v._den for v in values.values()))
    return den, {k: (v._a * (den // v._den), v._b * (den // v._den), v.disc)
                 for k, v in values.items()}


def _lift(vec, disc: int):
    """The (A, B) pair of a cleared vector read over the field disc, the join
    of its own field with another: B is None over Q, and zeros for a
    rational vector over Q(sqrt(disc))."""
    _, a, b, _ = vec
    return a, ((0,) * len(a) if disc and b is None else b)


def _convolve(acc: list, u: list, v: list) -> None:
    """acc[i + j] += u[i] * v[j] over ints, skipping zeros."""
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    acc[i + j] += x * y


def _pair_product(f, g, disc: int):
    """The (A, B) pair of f * g for nonempty (A, B) pairs over Z[sqrt(disc)].

    (a1 + b1 s)(a2 + b2 s) = a1 a2 + disc b1 b2 + (a1 b2 + b1 a2) s; a B of
    None is the zero vector.
    """
    (a1, b1), (a2, b2) = f, g
    size = len(a1) + len(a2) - 1
    acc = ([0] * size, [0] * size)
    _convolve(acc[0], a1, a2)
    if not disc:  # every B is zero over Q
        return acc
    if b1 and b2:
        _convolve(acc[0], b1, [disc * y for y in b2])
    if b2:
        _convolve(acc[1], a1, b2)
    if b1:
        _convolve(acc[1], b1, a2)
    return acc


def _falling_products(n: int, p: int, k: int) -> list:
    """P(i + p, p) * P(n - i - p, k) for i = 0 .. n - p - k, P(x, j) = x!/(x-j)!.

    The weight d^(p+k) / dX^p dZ^k puts on coefficient i + p of a degree-n
    form, built by the ratio recurrence in i: from i - 1 to i, P(i + p, p)
    gains (i + p)/i and P(n - i - p, k) gains (n - i - p - k + 1)/(n - i - p + 1),
    and the division is exact because both sides are integers.  Empty when
    p + k > n.
    """
    if p + k > n:
        return []
    w = perm(p) * perm(n - p, k)
    out = [w]
    for i in range(1, n - p - k + 1):
        w = w * (i + p) * (n - i - p - k + 1) // (i * (n - i - p + 1))
        out.append(w)
    return out


def _partial(vec, n: int, p: int, k: int):
    """d^(p+k) / dX^p dZ^k of the degree-n form with ascending coefficients vec."""
    if vec is None:
        return None
    return [x * w for x, w in zip(vec[p:], _falling_products(n, p, k))]


def _to_scalars(acc, den: int, disc: int) -> list[Scalar]:
    """The canonical Scalars (A[i] + B[i]*sqrt(disc)) / den of an (A, B) pair."""
    a, b = acc
    return [_scalar(den, x, y, disc) for x, y in zip(a, b or repeat(0))]


def _power(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _term(coeff: str, mono: str) -> str:
    """The text of coeff*mono; a coefficient 1 or -1 folds into the sign.

    The one term renderer of form and polynomial reprs and of template text.
    """
    if not mono:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + mono
    return f"{coeff}*{mono}"


def _join_terms(terms: Iterable[str]) -> str:
    """Terms joined by " + ", a leading - turned into " - "; "0" for none."""
    return " + ".join(terms).replace("+ -", "- ") or "0"


def _const_to_string(const: Scalar) -> str:
    # a + b*sqrt(D) with both parts nonzero is one coefficient: keep it whole
    text = str(const)
    return f"({text})" if const.disc and const._a else text


def _render(terms) -> str:
    """The text of (monomial, coefficient) pairs, zero coefficients left out:
    the one renderer of polynomial strings and of form and polynomial reprs."""
    return _join_terms(_term(_const_to_string(c), mono) for mono, c in terms if not c.is_zero)


def poly_to_string(p: UnivariatePoly) -> str:
    """Canonical descending-power string for a concrete polynomial."""
    return _render((_power("x", e), c) for e, c in reversed(list(enumerate(p.coeffs))))


@dataclass(frozen=True, init=False, repr=False)
class _Cleared:
    """Coefficients a_0 .. a_d held as one canonical cleared vector.

    ``vec`` is (den, A, B, disc), coefficient i being
    (A[i] + B[i]*sqrt(disc)) / den; it is set once, at construction, and is
    the only state.  Both constructors, ``__init__`` on Scalars and
    ``_from_vec`` on a vector, write it through one step, ``_canonical``,
    which a subclass may extend (a polynomial strips trailing zeros first).
    The Scalar tuple ``coeffs`` is built from it on each read.  A frozen
    dataclass on ``vec``: the vector is canonical, so equality and hashing
    compare it, and the degree is its length minus one.  The slot
    is declared by hand (under ``slots=True`` assigning a new name raises
    TypeError), so copies and pickles are rebuilt through ``_from_vec``.
    """

    __slots__ = ("vec",)
    vec: tuple

    def __init__(self, coeffs: tuple):
        object.__setattr__(self, "vec", self._canonical(*_clear(coeffs)))

    @staticmethod
    def _canonical(den: int, a, b, disc: int) -> tuple:
        """The canonical vector of (A + B*sqrt(disc)) / den for den != 0.

        A B that vanished (a form times its conjugate, say) is dropped with
        its field, and the content gcd(den, A, B) is divided out with the
        sign that makes den positive (a norm from ``_over`` can be negative).
        """
        if b is None or not any(b):
            b, disc = None, 0
        g = _content(den, *a) if b is None else _content(den, *a, *b)
        if g != 1:
            den //= g
            a = [x // g for x in a]
            b = b and [x // g for x in b]
        return den, tuple(a), b and tuple(b), disc

    @classmethod
    def _from_vec(cls, den: int, a, b, disc: int):
        """The value (A + B*sqrt(disc)) / den for den != 0, made canonical."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "vec", cls._canonical(den, a, b, disc))
        return obj

    def __reduce__(self):
        return type(self)._from_vec, self.vec

    @property
    def coeffs(self) -> tuple:
        """The coefficients a_0 .. a_d as Scalars, built from ``vec``."""
        den, a, b, disc = self.vec
        return tuple(_to_scalars((a, b), den, disc))

    @property
    def degree(self) -> int:
        return len(self.vec[1]) - 1

    @property
    def is_zero(self) -> bool:
        return self.vec[2] is None and not any(self.vec[1])

    def __mul__(self, other):
        if type(other) is not type(self):
            return self.scale(other)
        uden, ua, ub, udisc = self.vec
        vden, va, vb, vdisc = other.vec
        disc = _join_field(udisc, vdisc)
        a, b = _pair_product((ua, ub), (va, vb), disc)
        return self._from_vec(uden * vden, a, b, disc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _scal(c)
        disc = _join_field(self.vec[3], c.disc)
        a, b = _pair_scale(_lift(self.vec, disc), (c._a, c._b), disc)
        return self._from_vec(self.vec[0] * c._den, a, b, disc)


def _check_degree(degree) -> None:
    """A form's degree is an int and nonnegative."""
    _require_int(degree, "degree")
    if degree < 0:
        raise DegreeError("degree must be nonnegative")


class BinaryForm(_Cleared):
    """Homogeneous bivariate polynomial of a fixed degree."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: Sequence):
        _check_degree(degree)
        cs = tuple(_scal(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise DegreeError(f"degree {_int_str(degree)} needs {_int_str(degree + 1)} "
                              f"coefficients, got {len(cs)}")
        super().__init__(cs)

    @classmethod
    def zero(cls, degree: int) -> BinaryForm:
        _check_degree(degree)
        return cls._from_vec(1, (0,) * (degree + 1), None, 0)

    def __add__(self, other: BinaryForm) -> BinaryForm:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        disc = _join_field(self.vec[3], other.vec[3])
        (ua, ub), (va, vb) = _lift(self.vec, disc), _lift(other.vec, disc)
        uden, vden = self.vec[0], other.vec[0]
        den = lcm(uden, vden)
        s, t = den // uden, den // vden
        a = [s * x + t * y for x, y in zip(ua, va)]
        b = ub and [s * x + t * y for x, y in zip(ub, vb)]
        return BinaryForm._from_vec(den, a, b, disc)

    def __sub__(self, other: BinaryForm) -> BinaryForm:
        return self + (-other)

    def __neg__(self) -> BinaryForm:
        return self.scale(-1)

    def constant_value(self) -> Scalar:
        """The scalar value of a degree-0 form."""
        if self.degree != 0:
            raise DegreeError(f"form has degree {self.degree}, not 0")
        return self.coeffs[0]

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, doc: dict) -> BinaryForm:
        return cls(doc["degree"], [parse_scalar(c) for c in doc["coeffs"]])

    def __repr__(self):
        d = self.degree
        body = _render((_power("X", i) + _power("Z", d - i), c) for i, c in enumerate(self.coeffs))
        return f"BinaryForm<{d}>({body})"


def make_form(degree: int, coeffs: Sequence) -> BinaryForm:
    """The form sum a_i X^i Z^(degree-i); rejects wrong-length input."""
    return BinaryForm(degree, coeffs)


def partial_derivative(f: BinaryForm, var: str, order: int = 1) -> BinaryForm:
    """Iterated exact formal partial derivative in "X" or "Z".

    The degree drops by ``order``; differentiating past the degree gives the
    zero form of degree 0.
    """
    if var not in ("X", "Z"):
        raise SeacurvesError(f"var must be 'X' or 'Z', got {_repr_str(var)}")
    _require_int(order, "order")
    if order < 0:
        raise DegreeError("order must be nonnegative")
    n = f.degree
    if order > n:
        return BinaryForm.zero(0)
    p, k = (order, 0) if var == "X" else (0, order)
    den, a, b, disc = f.vec
    return BinaryForm._from_vec(den, _partial(a, n, p, k), _partial(b, n, p, k), disc)


def evaluate(f: BinaryForm, x, z) -> Scalar:
    """Exact value F(x, z)."""
    x, z = _scal(x), _scal(z)
    d = f.degree
    return sum((c * x ** i * z ** (d - i) for i, c in enumerate(f.coeffs) if c), ZERO)


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over Scalar, acting on (X, Z) by substitution.

    A frozen dataclass on the entries a, b, c, d, coerced to Scalars.  Like
    every value but Scalar and the forms, it keeps no hand-declared slots, so
    it is compared, hashed, copied and pickled without a method of its own.
    """

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _scal(getattr(self, name)))

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: Matrix2) -> Matrix2:
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"Matrix2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def moebius_act(M: Matrix2, f: BinaryForm) -> BinaryForm:
    """Substituted form f(aX + bZ, cX + dZ); requires det(M) != 0.

    Composition order: acting by M then by N equals acting by N @ M once,
    matching the contravariance of substitution actions.

    M is cleared once to integers a, b, c, d over the denominator e, with
    t = ad - bc, and f read as its vector F.  With the pivot d != 0 (else
    the rows of M are swapped and F reversed, which leaves the result alone,
    and then b != 0 is the pivot), cX + dZ = W and d(aX + bZ) = tX + bW, so
    d^n f(aX + bZ, cX + dZ) is F(tX + bW, dW) at W = cX + dZ: two shears,
    each a Taylor shift (:func:`_taylor_shift`) between diagonal scalings.

    * G(x) = sum_i F_i d^(n-i) (x + b)^i: F scaled by d (:func:`_scale`),
      then shifted by b;
    * R(y) = sum_j G_j t^j (y + c)^(n-j): G reversed, scaled by t as F was
      by d, then shifted by c.  d^n f(aX + bZ, cX + dZ) is R(dZ) at X = 1,
      so result coefficient i is R_(n-i) / d^i, an exact division
      (:func:`seacurves.scalars._quo`).

    The result is over the denominator den(f) * e^n.  An M that is not a
    :class:`Matrix2` is a TypeError naming it.
    """
    if not isinstance(M, Matrix2):
        raise TypeError(f"matrix M must be a Matrix2, got {_repr_str(M)}")
    e, ma, mb, mdisc = _clear((M.a, M.b, M.c, M.d))
    a, b, c, d = zip(ma, mb or repeat(0))
    ad, bc = _mul(a, d, mdisc), _mul(b, c, mdisc)
    det = ad[0] - bc[0], ad[1] - bc[1]
    if det == (0, 0):
        raise SingularMatrixError("substitution matrix must be invertible")
    disc = _join_field(mdisc, f.vec[3])
    vec = _lift(f.vec, disc)
    if d == (0, 0):  # f(aX + bZ, cX + dZ) = f'(cX + dZ, aX + bZ) for f' = f reversed
        vec = _reversed(vec)
        a, b, c, d, det = c, d, a, b, (-det[0], -det[1])
    g = _taylor_shift(_scale(vec, d, disc), b, disc)
    r = _taylor_shift(_scale(_reversed(g), det, disc), c, disc)
    return BinaryForm._from_vec(f.vec[0] * e ** f.degree, *_unscale(_reversed(r), d, disc), disc)


def _reversed(f):
    """The (A, B) pair f with its coefficients in reverse order."""
    return f[0][::-1], f[1] and f[1][::-1]


def _powers(y, n: int, disc: int) -> list:
    """y^0 .. y^n for an element y of Z[sqrt(disc)], as ints when y is rational."""
    if not y[1]:
        return list(accumulate(repeat(y[0], n), mul, initial=1))
    return list(accumulate(repeat(y, n), lambda p, q: _mul(p, q, disc), initial=(1, 0)))


def _scale(f, y, disc: int):
    """The (A, B) pair with coefficient i of f times y^(n-i), n = deg f, for
    an element y of Z[sqrt(disc)]."""
    a, b = f
    ps = _powers(y, len(a) - 1, disc)[::-1]
    if not y[1]:
        return [x * p for x, p in zip(a, ps)], b and [x * p for x, p in zip(b, ps)]
    out = [_mul(x, p, disc) for x, p in zip(zip(a, b), ps)]
    return [x for x, _ in out], [x for _, x in out]


def _unscale(f, y, disc: int):
    """The (A, B) pair with coefficient i of f divided by y^i, which divides it."""
    a, b = f
    ps = _powers(y, len(a) - 1, disc)
    if not y[1]:
        return [x // p for x, p in zip(a, ps)], b and [x // p for x, p in zip(b, ps)]
    out = [_quo(x, p, disc) for x, p in zip(zip(a, b), ps)]
    return [x for x, _ in out], [x for _, x in out]


def _taylor_shift(f, v, disc: int):
    """The (A, B) pair of sum_i f_i (x + v)^i, by Kronecker substitution.

    Each coefficient gets a slot of k bytes of one integer, so that a
    polynomial p is the integer p(2^(8k)), and one Horner step,
    p = (p << 8k) + v p + f_i, is a shift, a product by the small v and two
    sums, whatever the degree.  A rational v shifts A and B apart; otherwise
    the step runs on (A, B) pairs of packed integers.  The slots are read
    back once, at the end, and :func:`_slot_bytes` sizes them.
    """
    a, b = f
    if not v[1]:
        return _shift(a, v[0]), b and _shift(b, v[0])
    n = len(a) - 1
    r = 1 + isqrt(abs(disc) - 1)  # ceil(sqrt|D|), so r^2 >= |D|
    k = _slot_bytes((a, [r * x for x in b]), 1 + abs(v[0]) + r * abs(v[1]))
    acc, shift = (a[n], b[n]), 8 * k
    for i in range(n - 1, -1, -1):
        lo = _mul(acc, v, disc)
        acc = (acc[0] << shift) + lo[0] + a[i], (acc[1] << shift) + lo[1] + b[i]
    return _unpack(acc[0], n, k), _unpack(acc[1], n, k)


def _shift(a, v: int) -> list:
    """sum_i a_i (x + v)^i over Z, the one-part case of :func:`_taylor_shift`."""
    n = len(a) - 1
    k = _slot_bytes((a,), 1 + abs(v))
    acc, shift = a[n], 8 * k
    for i in range(n - 1, -1, -1):
        acc = (acc << shift) + acc * v + a[i]
    return _unpack(acc, n, k)


def _slot_bytes(parts, growth: int) -> int:
    """Bytes k per slot that hold sum_i f_i (x + v)^i for f with the
    coefficient parts ``parts`` (A over Z; A and r B over Z[sqrt(D)]) and
    growth >= 1 + h(v).

    With h(x) = |x| over Z and h(x) = |x_0| + r |x_1| over Z[sqrt(D)],
    r = ceil(sqrt|D|), h(xy) <= h(x) h(y), as r^2 >= |D| bounds the term
    D x_1 y_1 of xy.  So every coefficient of f_i (x + v)^i has h at most
    h(f_i) growth^i, and every coefficient of the sum, with each of its
    parts, at most n + 1 times the largest such term.  The slots keep two
    bits more than that bound, one of them for the sign.
    """
    n = len(parts[0]) - 1
    step = growth.bit_length()
    offsets = range(0, step * (n + 1), step)
    # h(f_i) < 2^bits(A_i) for one part; for two, h(f_i) is at most twice the larger part
    top = max(max(map(add, map(int.bit_length, p), offsets)) for p in parts) + len(parts) - 1
    return (top + (n + 1).bit_length() + 9) // 8


def _unpack(x: int, n: int, k: int) -> list:
    """The n + 1 signed k-byte slots of x = sum x_i 2^(8ki), |x_i| < 2^(8k-1).

    A bias of 2^(8k-1) in every slot makes each one a byte string of the
    sum, read without a division.
    """
    bias = int.from_bytes((bytes(k - 1) + b"\x80") * (n + 1), "little")
    data, half = (x + bias).to_bytes(k * (n + 1), "little"), 1 << (8 * k - 1)
    return [int.from_bytes(data[i:i + k], "little") - half for i in range(0, len(data), k)]


class UnivariatePoly(_Cleared):
    """Dense univariate polynomial over Scalar, ascending coefficients.

    Trailing zeros are stripped; the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        super().__init__(tuple(_scal(c) for c in coeffs))

    @staticmethod
    def _canonical(den: int, a, b, disc: int) -> tuple:
        """As for forms, with trailing zero coefficients stripped first."""
        return _Cleared._canonical(den, *_trim((a, b)), disc)

    def leading(self) -> Scalar:
        if self.is_zero:
            raise DegreeError("zero polynomial has no leading coefficient")
        den, a, b, disc = self.vec
        return _scalar(den, a[-1], b[-1] if b else 0, disc)

    def derivative(self) -> UnivariatePoly:
        """d/dx, the d/dX of :func:`partial_derivative` on the same vector."""
        den, a, b, disc = self.vec
        n = self.degree
        return UnivariatePoly._from_vec(den, _partial(a, n, 1, 0), _partial(b, n, 1, 0), disc)

    def monic(self) -> UnivariatePoly:
        if self.is_zero:
            return self
        den, a, b, disc = self.vec
        return _monic((a, b), disc)

    def __repr__(self):
        body = _render((_power("x", i), c) for i, c in enumerate(self.coeffs))
        return f"UnivariatePoly({body})"


def homogenize(p: UnivariatePoly, degree: int) -> BinaryForm:
    """sum c_i x^i -> sum c_i X^i Z^(degree-i); requires degree >= deg p."""
    _require_int(degree, "degree")
    if degree < p.degree:
        raise DegreeError(f"cannot homogenize degree-{p.degree} poly at degree {_int_str(degree)}")
    den, a, b, disc = p.vec
    pad = (0,) * (degree - p.degree)
    return BinaryForm._from_vec(den, a + pad, b and b + pad, disc)


def dehomogenize(f: BinaryForm) -> UnivariatePoly:
    """Set Z = 1."""
    return UnivariatePoly._from_vec(*f.vec)


def _elt(f, i: int):
    """Coefficient i of an (A, B) pair as an element (a, b) of Z[sqrt(disc)]."""
    return f[0][i], f[1][i] if f[1] else 0


def _head(f, n: int):
    """The (A, B) pair of the coefficients of f below degree n."""
    return f[0][:n], f[1] and f[1][:n]


def _pair_scale(f, y, disc: int):
    """y * f for an (A, B) pair f and an element y of Z[sqrt(disc)]."""
    (a, b), (y0, y1) = f, y
    if not y1:
        return [y0 * x for x in a], b and [y0 * x for x in b]
    return ([y0 * x + disc * y1 * z for x, z in zip(a, b)],
            [y0 * z + y1 * x for x, z in zip(a, b)])


def _over(f, y, disc: int):
    """(f * conj(y), N(y)): the pair f / y over one integer denominator."""
    if not y[1]:
        return f, y[0]
    return _pair_scale(f, _conj(y), disc), _norm(y, disc)


def _divexact(f, y, disc: int):
    """f / y for an (A, B) pair f that y divides in Z[sqrt(disc)]."""
    (a, b), n = _over(f, y, disc)
    return [x // n for x in a], b and [x // n for x in b]


def _prem(f, g, disc: int):
    """lc(g)^(deg f - deg g + 1) f mod g for (A, B) pairs, deg f >= deg g >= 1.

    Trailing zeros of the remainder are stripped; the zero remainder has
    empty vectors.
    """
    n = len(g[0]) - 1
    lead, low = _elt(g, n), _head(g, n)
    r = f
    for k in range(len(f[0]) - 1 - n, -1, -1):
        c = _elt(r, n + k)
        r = _pair_scale(_head(r, n + k), lead, disc)
        if c[0] or c[1]:
            for u, v in zip(r, _pair_scale(low, c, disc)):
                if v is not None:  # both B are None over Q
                    for j, y in enumerate(v):
                        u[k + j] -= y
    return _trim(r)


def _trim(f):
    """The (A, B) pair f with trailing zero coefficients stripped."""
    m = len(f[0])
    while m and not f[0][m - 1] and not (f[1] and f[1][m - 1]):
        m -= 1
    return _head(f, m)


def _next_h(lead, h, delta: int, disc: int):
    """h^(1 - delta) lead^delta, which is exact in Z[sqrt(disc)]."""
    if not delta:
        return h
    return _quo(_pow(lead, delta, disc), _pow(h, delta - 1, disc), disc)


def _subresultant_prs(f, g, disc: int):
    """The subresultant PRS of (A, B) pairs with deg f >= deg g >= 0.

    Collins (1967), Brown and Traub (1971); Cohen, *A Course in Computational
    Algebraic Number Theory*, Algorithm 3.3.7 without content removal.  Each
    pseudo-remainder after the first is divided exactly by lc(f) h^delta, f
    its dividend, so the members are the subresultants: they stay in
    Z[sqrt(disc)], with coefficients the size of a determinant.  Runs until the
    remainder has degree <= 0 and returns (f, g, h, s): the last two members
    of the sequence (g with empty vectors when it vanished), Cohen's h, and
    the sign s = prod (-1)^(deg f deg g) over the steps.
    """
    lead, h, s = (1, 0), (1, 0), 1
    while len(g[0]) > 1:
        m, n = len(f[0]) - 1, len(g[0]) - 1
        if m & n & 1:
            s = -s
        r = _divexact(_prem(f, g, disc), _mul(lead, _pow(h, m - n, disc), disc), disc)
        f, g = g, r
        lead = _elt(f, n)
        h = _next_h(lead, h, m - n, disc)
    return f, g, h, s


def _prs(p: UnivariatePoly, q: UnivariatePoly):
    """(f, g, h, s, disc): :func:`_subresultant_prs` of p and q, lifted to
    (A, B) pairs over their joint field, the one of larger degree first; s
    includes the sign of that swap, so it is the sign of Res(p, q)."""
    disc = _join_field(p.vec[3], q.vec[3])
    f, g = _lift(p.vec, disc), _lift(q.vec, disc)
    if p.degree < q.degree:  # Res(q, p) = (-1)^(deg p deg q) Res(p, q)
        f, g, h, s = _subresultant_prs(g, f, disc)
        return f, g, h, -s if p.degree & q.degree & 1 else s, disc
    return (*_subresultant_prs(f, g, disc), disc)


def resultant(p: UnivariatePoly, q: UnivariatePoly) -> Scalar:
    """Res(p, q), the Sylvester determinant with the rows of p first.

    p and q are cleared once each to integer pairs P = den_p p and Q = den_q q
    over Z[sqrt(D)], and Res(P, Q) is the last subresultant of
    :func:`_subresultant_prs` (Cohen, Algorithm 3.3.7), run by :func:`_prs`.
    Then Res(p, q) = Res(P, Q) / (den_p^(deg q) den_q^(deg p)), divided once.
    A constant operand c gives c^(degree of the other); the zero polynomial
    raises :class:`DegreeError`.
    """
    if p.is_zero or q.is_zero:
        raise DegreeError("resultant of the zero polynomial is undefined")
    f, g, h, s, disc = _prs(p, q)
    if not g[0]:
        return ZERO
    r0, r1 = _next_h(_elt(g, 0), h, len(f[0]) - 1, disc)
    return _scalar(p.vec[0] ** q.degree * q.vec[0] ** p.degree, s * r0, s * r1, disc)


def discriminant(p: UnivariatePoly) -> Scalar:
    """(-1)^(d(d-1)/2) * res(p, p') / lc(p); requires deg p >= 1."""
    d = p.degree
    if d < 1:
        raise DegreeError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading()


def is_squarefree(p: UnivariatePoly) -> bool:
    """True iff p has no repeated root (discriminant nonzero); requires deg p >= 1.

    A certificate modulo one prime (:func:`_squarefree_mod_prime`) settles
    almost every squarefree p in time independent of its coefficient size;
    the rest, p with a repeated root among them, take the exact
    :func:`discriminant`.
    """
    return p.degree >= 1 and _squarefree_mod_prime(p) or not discriminant(p).is_zero


# The largest primes P = 3 mod 4 below 2^30, then the largest P = 5 mod 8, at
# which -1 is a square too: each residue is one digit of a Python int.
_PRIMES = (1073741783, 1073741723, 1073741719, 1073741671,
           1073741663, 1073741651, 1073741567, 1073741527,
           1073741789, 1073741741, 1073741717, 1073741621,
           1073741477, 1073741381, 1073741309, 1073741237)


def _sqrt_mod(d: int, P: int) -> int:
    """A root s of s^2 = d mod P, for d a nonzero square modulo a listed P:
    d^((P + 1)/4) when P = 3 mod 4, else Atkin's d v (2 d v^2 - 1) with
    v = (2d)^((P - 5)/8), as 2d v^2 is a root of -1 when P = 5 mod 8."""
    if P % 4 == 3:
        return pow(d, (P + 1) // 4, P)
    v = pow(2 * d, (P - 5) // 8, P)
    return d * v * (2 * d * v * v - 1) % P


def _squarefree_mod_prime(p: UnivariatePoly) -> bool:
    """True when p, of degree >= 1, is squarefree by a certificate modulo a prime.

    The prime P is the first of ``_PRIMES`` (over Q(sqrt D), the first at
    which D is a nonzero square, with root s).  Reducing mod P, with
    sqrt(D) -> s, is a ring map from Z[sqrt D]; when it keeps the leading
    coefficient of p's cleared integer pair F, it takes Res(F, F') to
    Res(F mod P, F' mod P), which is nonzero when the two are coprime in
    F_P[x] (Brown 1971; von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 6).  Then disc(p) != 0.  False proves nothing: P may
    divide the leading coefficient or the discriminant, p may have a
    repeated root, or D may be a square modulo none of the primes.
    """
    _, a, b, disc = p.vec
    for P in _PRIMES:
        if not disc or pow(disc, (P - 1) // 2, P) == 1:  # Euler's criterion
            break
    else:
        return False
    s = disc and _sqrt_mod(disc, P)
    f = [x % P for x in a] if b is None else [(x + s * y) % P for x, y in zip(a, b)]
    if not f[-1]:
        return False
    # the lead of F' is deg(p) lc(F), nonzero mod P > deg(p)
    return _coprime_mod(f, [i * x % P for i, x in enumerate(f)][1:], P)


def _coprime_mod(f: list, g: list, P: int) -> bool:
    """gcd(f, g) = 1 in F_P[x], by Euclid, for residue lists f and g (ascending,
    g with a nonzero lead, deg f >= deg g); f is overwritten."""
    while g:
        n = len(g) - 1
        inv = pow(g[n], -1, P)
        for k in range(len(f) - 1 - n, -1, -1):
            c = f[n + k] * inv % P
            if c:
                for j in range(n):
                    f[k + j] = (f[k + j] - c * g[j]) % P
        del f[n:]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) == 1


def poly_gcd(p: UnivariatePoly, q: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd: the last nonzero member of the subresultant PRS, made monic.

    The sequence is the one :func:`resultant` runs, by :func:`_prs` (Brown
    and Traub 1971; Cohen, Algorithm 3.3.7); its members are associates of
    the Euclidean remainders in K[x] whose integer coefficients stay the
    size of a determinant.
    The gcd with the zero polynomial is the other operand made monic.
    """
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).monic()
    f, g, _, _, disc = _prs(p, q)
    return _monic(g if g[0] else f, disc)


def _monic(f, disc: int) -> UnivariatePoly:
    """The monic polynomial of a nonzero (A, B) pair: f divided by its lead."""
    (a, b), den = _over(f, _elt(f, len(f[0]) - 1), disc)
    return UnivariatePoly._from_vec(den, a, b, disc)
