"""Binary forms, univariate polynomials and exact GL2 substitution.

A :class:`BinaryForm` of degree d is F(X, Z) = sum a_i X^i Z^(d-i) with the
coefficients stored ascending in the X-power (a_0 .. a_d).  Forms keep their
declared degree even when leading coefficients vanish; the all-zero form is a
legal value of any degree.

Coefficients are :class:`~seacurves.scalars.Scalar` values.  Every product
of coefficient sequences (form and polynomial products, and through them
template expansion), the GL2 substitution, the partial derivatives and the
transvectant run on one integer kernel: each operand is cleared once to
integer vectors over Z[sqrt(D)] with one common denominator, the vectors are
differentiated and convolved as Python ints, and the result is divided once.
Resultants, discriminants (hence the squarefree test) and gcds all run on one
Euclidean remainder sequence, ``_poly_mod``.
No operation here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from typing import Iterable, Sequence

from .scalars import _R0, ONE, ZERO, FieldMixError, Scalar, _raw, parse_scalar

__all__ = [
    "BinaryForm",
    "UnivariatePoly",
    "Matrix2",
    "DegreeError",
    "SingularMatrixError",
    "make_form",
    "form_add",
    "form_mul",
    "partial_derivative",
    "moebius_act",
    "evaluate",
    "homogenize",
    "dehomogenize",
    "resultant",
    "discriminant",
    "is_squarefree",
    "poly_gcd",
]


class DegreeError(ValueError):
    """Degree preconditions violated (wrong length, mismatch, too small)."""


class SingularMatrixError(ValueError):
    """Substitution by a matrix with zero determinant."""


def _scal(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


# Degree bound on input from outside the program (CLI forms, templates): the
# paper's genus <= 48 needs degree <= 2g + 2 = 98.
MAX_DEGREE = 100


def _join_coeff_field(coeffs: Iterable[Scalar], disc: int = 0) -> int:
    for c in coeffs:
        if c.disc:
            if disc and c.disc != disc:
                raise FieldMixError(
                    f"cannot mix sqrt({disc}) and sqrt({c.disc}) coefficients"
                )
            disc = c.disc
    return disc


def _clear(coeffs: Sequence[Scalar], disc: int = 0):
    """(den, A, B, disc) with coeffs[i] == (A[i] + B[i]*sqrt(disc)) / den.

    den is the lcm of all denominators and A, B are integer vectors; B is None
    when every coefficient is rational.  The returned disc is the field of the
    coefficients joined with the given one (FieldMixError on two radicals).
    """
    disc = _join_coeff_field(coeffs, disc)
    den = lcm(*(c.a.denominator for c in coeffs), *(c.b.denominator for c in coeffs))
    a = [c.a.numerator * (den // c.a.denominator) for c in coeffs]
    if not any(c.disc for c in coeffs):
        return den, a, None, disc
    return den, a, [c.b.numerator * (den // c.b.denominator) for c in coeffs], disc


def _convolve(acc: list, u: list, v: list, scale: int) -> None:
    """acc[i + j] += scale * u[i] * v[j] over ints, skipping zeros."""
    for i, x in enumerate(u):
        if x:
            x *= scale
            for j, y in enumerate(v):
                if y:
                    acc[i + j] += x * y


def _pair_convolve(acc, f, g, disc: int, scale: int = 1) -> None:
    """acc += scale * f * g for (A, B) pairs of vectors over Z[sqrt(disc)].

    (a1 + b1 s)(a2 + b2 s) = a1 a2 + disc b1 b2 + (a1 b2 + b1 a2) s; a B of
    None is the zero vector.
    """
    (a1, b1), (a2, b2) = f, g
    _convolve(acc[0], a1, a2, scale)
    if not disc:  # every B is zero over Q
        return
    if b1 and b2:
        _convolve(acc[0], b1, b2, scale * disc)
    if b2:
        _convolve(acc[1], a1, b2, scale)
    if b1:
        _convolve(acc[1], b1, a2, scale)


def _pair_product(f, g, disc: int):
    """The (A, B) pair of f * g for nonempty (A, B) pairs over Z[sqrt(disc)]."""
    size = len(f[0]) + len(g[0]) - 1
    acc = ([0] * size, [0] * size)
    _pair_convolve(acc, f, g, disc)
    return acc


def _partial(vec, n: int, p: int, k: int):
    """d^(p+k) / dX^p dZ^k of the degree-n form with ascending coefficients vec."""
    if vec is None:
        return None
    return [vec[i + p] * perm(i + p, p) * perm(n - i - p, k) for i in range(n - p - k + 1)]


def _to_scalars(acc, den: int, disc: int) -> list[Scalar]:
    """The canonical Scalars (A[i] + B[i]*sqrt(disc)) / den of an (A, B) pair."""
    a, b = acc
    return [_raw(Fraction(x, den), Fraction(y, den) if y else _R0, disc)
            for x, y in zip(a, b or [0] * len(a))]


def _product(u: Sequence[Scalar], v: Sequence[Scalar]) -> list[Scalar]:
    """Coefficients of the product of two nonempty coefficient sequences."""
    uden, ua, ub, disc = _clear(u)
    vden, va, vb, disc = _clear(v, disc)
    return _to_scalars(_pair_product((ua, ub), (va, vb), disc), uden * vden, disc)


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


class BinaryForm:
    """Homogeneous bivariate polynomial of a fixed degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence):
        if degree < 0:
            raise DegreeError("degree must be nonnegative")
        cs = tuple(_scal(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise DegreeError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}"
            )
        _join_coeff_field(cs)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    @classmethod
    def zero(cls, degree: int) -> BinaryForm:
        return cls(degree, (ZERO,) * (degree + 1))

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other: BinaryForm) -> BinaryForm:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: BinaryForm) -> BinaryForm:
        return self + (-other)

    def __neg__(self) -> BinaryForm:
        return BinaryForm(self.degree, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            return BinaryForm(self.degree + other.degree, _product(self.coeffs, other.coeffs))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> BinaryForm:
        c = _scal(c)
        return BinaryForm(self.degree, [c * a for a in self.coeffs])

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
        body = _join_terms(_term(str(c), _power("X", i) + _power("Z", d - i))
                           for i, c in enumerate(self.coeffs) if not c.is_zero)
        return f"BinaryForm<{d}>({body})"


def make_form(degree: int, coeffs: Sequence) -> BinaryForm:
    """The form sum a_i X^i Z^(degree-i); rejects wrong-length input."""
    return BinaryForm(degree, coeffs)


def form_add(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    return f + g


def form_mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    return f * g


def partial_derivative(f: BinaryForm, var: str, order: int = 1) -> BinaryForm:
    """Iterated exact formal partial derivative in "X" or "Z".

    The degree drops by ``order``; differentiating past the degree gives the
    zero form of degree 0.
    """
    if var not in ("X", "Z"):
        raise ValueError(f"var must be 'X' or 'Z', got {var!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = f.degree
    if order > n:
        return BinaryForm.zero(0)
    p, k = (order, 0) if var == "X" else (0, order)
    den, a, b, disc = _clear(f.coeffs)
    coeffs = _to_scalars((_partial(a, n, p, k), _partial(b, n, p, k)), den, disc)
    return BinaryForm(n - order, coeffs)


def evaluate(f: BinaryForm, x, z) -> Scalar:
    """Exact value F(x, z)."""
    x = _scal(x)
    z = _scal(z)
    acc = ZERO
    xp = ONE
    zpows = [ONE]
    for _ in range(f.degree):
        zpows.append(zpows[-1] * z)
    for i, c in enumerate(f.coeffs):
        if not c.is_zero:
            acc = acc + c * xp * zpows[f.degree - i]
        if i < f.degree:
            xp = xp * x
    return acc


class Matrix2:
    """2x2 matrix over Scalar, acting on (X, Z) by substitution."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", _scal(a))
        object.__setattr__(self, "b", _scal(b))
        object.__setattr__(self, "c", _scal(c))
        object.__setattr__(self, "d", _scal(d))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix2 is immutable")

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: Matrix2) -> Matrix2:
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Matrix2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def moebius_act(M: Matrix2, f: BinaryForm) -> BinaryForm:
    """Substituted form f(aX + bZ, cX + dZ); requires det(M) != 0.

    Composition order: acting by M then by N equals acting by N @ M once,
    matching the contravariance of substitution actions.  M and f are each
    cleared once; the Horner pass runs on integer pairs, divided once at the
    end by den(f) * e^d.
    """
    if M.det().is_zero:
        raise SingularMatrixError("substitution matrix must be invertible")
    # e*M is integral; lin1 = e(aX + bZ) and lin2 = e(cX + dZ) as (A, B) pairs
    e, ma, mb, disc = _clear((M.b, M.a, M.d, M.c))
    fden, fa, fb, disc = _clear(f.coeffs, disc)
    lin1, lin2 = (ma[:2], mb and mb[:2]), (ma[2:], mb and mb[2:])
    d = f.degree
    # Horner in lin1: after coefficient i, acc = sum_{j>=i} F_j lin1^(j-i) lin2^(d-j)
    acc, power = ([fa[d]], fb and [fb[d]]), ([1], None)
    for i in range(d - 1, -1, -1):
        power = _pair_product(power, lin2, disc)
        acc = _pair_product(acc, lin1, disc)
        _pair_convolve(acc, power, ([fa[i]], fb and [fb[i]]), disc)
    return BinaryForm(d, _to_scalars(acc, fden * e ** d, disc))


class UnivariatePoly:
    """Dense univariate polynomial over Scalar, ascending coefficients.

    Trailing zeros are stripped; the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_scal(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        _join_coeff_field(cs)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UnivariatePoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, UnivariatePoly):
            if self.is_zero or other.is_zero:
                return UnivariatePoly(())
            return UnivariatePoly(_product(self.coeffs, other.coeffs))
        return UnivariatePoly([_scal(other) * c for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> UnivariatePoly:
        return UnivariatePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> UnivariatePoly:
        if self.is_zero:
            return self
        lc = self.leading()
        return UnivariatePoly([c / lc for c in self.coeffs])

    def __repr__(self):
        return "UnivariatePoly(" + _join_terms(
            _term(str(c), _power("x", i)) for i, c in enumerate(self.coeffs) if not c.is_zero
        ) + ")"


def homogenize(p: UnivariatePoly, degree: int) -> BinaryForm:
    """sum c_i x^i -> sum c_i X^i Z^(degree-i); requires degree >= deg p."""
    if degree < p.degree:
        raise DegreeError(f"cannot homogenize degree-{p.degree} poly at degree {degree}")
    cs = list(p.coeffs) + [ZERO] * (degree + 1 - len(p.coeffs))
    return BinaryForm(degree, cs)


def dehomogenize(f: BinaryForm) -> UnivariatePoly:
    """Set Z = 1."""
    return UnivariatePoly(f.coeffs)


def resultant(p: UnivariatePoly, q: UnivariatePoly) -> Scalar:
    """Res(p, q), the Sylvester determinant with the rows of p first.

    Computed by the Euclidean remainder sequence: with r = p mod q,
    Res(p, q) = (-1)^(deg p deg q) lc(q)^(deg p - deg r) Res(q, r), and
    Res(q, c r) = c^(deg q) Res(q, r) makes every remainder monic.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    res = ONE
    while q.degree > 0:
        r = _poly_mod(p, q)
        if r.is_zero:
            return ZERO
        m, n = p.degree, q.degree
        res = res * q.leading() ** (m - r.degree) * r.leading() ** n
        if m * n % 2:
            res = -res
        p, q = q, r.monic()
    return res * q.leading() ** p.degree


def discriminant(p: UnivariatePoly) -> Scalar:
    """(-1)^(d(d-1)/2) * res(p, p') / lc(p); requires deg p >= 1."""
    d = p.degree
    if d < 1:
        raise DegreeError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading()


def is_squarefree(p: UnivariatePoly) -> bool:
    """True iff p has no repeated root (discriminant nonzero)."""
    return not discriminant(p).is_zero


def poly_gcd(p: UnivariatePoly, q: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd by the Euclidean algorithm.

    Each remainder is made monic, as in :func:`resultant`: without it the
    coefficients of the remainders grow, a degree-100 gcd by orders of
    magnitude.
    """
    a, b = p, q
    while not b.is_zero:
        a, b = b, _poly_mod(a, b).monic()
    return a.monic()


def _poly_mod(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    out = list(a.coeffs)
    bl = b.leading()
    bd = b.degree
    while len(out) - 1 >= bd and out:
        if out[-1].is_zero:
            out.pop()
            continue
        factor = out[-1] / bl
        shift = len(out) - 1 - bd
        for i, c in enumerate(b.coeffs):
            out[shift + i] = out[shift + i] - factor * c
        out.pop()
    return UnivariatePoly(out)
