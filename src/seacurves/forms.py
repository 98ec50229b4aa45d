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
so ``==`` and ``hash`` compare it, and the degree is its length minus one.  A
value built from Scalars is cleared once, when it is constructed, and keeps
only its vector: its Scalar tuple ``coeffs`` is built on each read.  Sums,
products, scaling, the GL2 substitution, derivatives, ``monic``,
(de)homogenization and the transvectant read vectors and return values built
from vectors (``_from_vec``), on Python ints over Z[sqrt(D)]; fields join by
:func:`seacurves.scalars._join_field`.

Resultants, discriminants (hence the squarefree test) and gcds all run on
one subresultant pseudo-remainder sequence, ``_subresultant_prs``, on the
same vectors: every division in it is exact in Z[sqrt(D)].
No operation here ever touches floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, perm
from typing import Iterable, Sequence

from .scalars import (ZERO, Scalar, SeacurvesError, _conj, _content, _int_str, _join_field,
                      _mul, _norm, _pow, _scalar, parse_scalar)

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
    if not any(c.disc for c in coeffs):
        return den, a, None, disc
    return den, a, [c._b * (den // c._den) for c in coeffs], disc


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


@lru_cache(maxsize=1024)
def _partial_weights(n: int, p: int, k: int) -> tuple:
    """The factors (i + p)!/i! * (n - i - p)!/(n - i - p - k)! of _partial."""
    return tuple(perm(i + p, p) * perm(n - i - p, k) for i in range(n - p - k + 1))


def _partial(vec, n: int, p: int, k: int):
    """d^(p+k) / dX^p dZ^k of the degree-n form with ascending coefficients vec."""
    if vec is None:
        return None
    return [x * w for x, w in zip(vec[p:], _partial_weights(n, p, k))]


def _to_scalars(acc, den: int, disc: int) -> list[Scalar]:
    """The canonical Scalars (A[i] + B[i]*sqrt(disc)) / den of an (A, B) pair."""
    a, b = acc
    return [_scalar(den, x, y, disc) for x, y in zip(a, b or [0] * len(a))]


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


def poly_to_string(p: UnivariatePoly) -> str:
    """Canonical descending-power string for a concrete polynomial."""
    return _join_terms(_term(_const_to_string(c), _power("x", e))
                       for e, c in reversed(list(enumerate(p.coeffs))) if not c.is_zero)


class _Cleared:
    """Coefficients a_0 .. a_d held as one canonical cleared vector.

    ``vec`` is (den, A, B, disc), coefficient i being
    (A[i] + B[i]*sqrt(disc)) / den; it is set once, at construction, and is
    the only state.  The Scalar tuple ``coeffs`` is built from it on each
    read.  The vector is canonical, so equality and hashing compare it, and
    the degree is its length minus one.
    """

    __slots__ = ("vec",)

    def __init__(self, coeffs: tuple):
        den, a, b, disc = _clear(coeffs)
        object.__setattr__(self, "vec", (den, tuple(a), b and tuple(b), disc))

    @classmethod
    def _from_vec(cls, den: int, a, b, disc: int):
        """The value (A + B*sqrt(disc)) / den for den != 0, made canonical.

        The content gcd(den, A, B) is divided out with the sign that makes den
        positive (a norm from ``_over`` can be negative), and a B that
        vanished (a form times its conjugate, say) is dropped with its field.
        """
        if b is None or not any(b):
            b, disc = None, 0
        g = _content(den, *a) if b is None else _content(den, *a, *b)
        if g != 1:
            den //= g
            a = [x // g for x in a]
            b = b and [x // g for x in b]
        obj = cls.__new__(cls)
        object.__setattr__(obj, "vec", (den, tuple(a), b and tuple(b), disc))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

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
        den, a, b, disc = self.vec
        disc = _join_field(disc, c.disc)
        if c.disc and b is None:
            b = (0,) * len(a)
        a, b = _pair_scale((a, b), (c._a, c._b), disc)
        return self._from_vec(den * c._den, a, b, disc)


class BinaryForm(_Cleared):
    """Homogeneous bivariate polynomial of a fixed degree."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: Sequence):
        if degree < 0:
            raise DegreeError("degree must be nonnegative")
        cs = tuple(_scal(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise DegreeError(f"degree {_int_str(degree)} needs {_int_str(degree + 1)} "
                              f"coefficients, got {len(cs)}")
        super().__init__(cs)

    @classmethod
    def zero(cls, degree: int) -> BinaryForm:
        if degree < 0:
            raise DegreeError("degree must be nonnegative")
        return cls._from_vec(1, (0,) * (degree + 1), None, 0)

    def __add__(self, other: BinaryForm) -> BinaryForm:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        (uden, ua, ub, udisc), (vden, va, vb, vdisc) = self.vec, other.vec
        disc = _join_field(udisc, vdisc)
        den = lcm(uden, vden)
        s, t = den // uden, den // vden
        a = [s * x + t * y for x, y in zip(ua, va)]
        b = None
        if disc:
            zero = (0,) * len(a)
            b = [s * x + t * y for x, y in zip(ub or zero, vb or zero)]
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
        body = _join_terms(_term(_const_to_string(c), _power("X", i) + _power("Z", d - i))
                           for i, c in enumerate(self.coeffs) if not c.is_zero)
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
        raise SeacurvesError(f"var must be 'X' or 'Z', got {var!r}")
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
    matching the contravariance of substitution actions.  M is cleared once
    and f read as its vector; the Horner pass runs on integer pairs, over the
    denominator den(f) * e^d of the result.
    """
    if M.det().is_zero:
        raise SingularMatrixError("substitution matrix must be invertible")
    # e*M is integral; lin1 = e(aX + bZ) and lin2 = e(cX + dZ) as (A, B) pairs
    e, ma, mb, mdisc = _clear((M.b, M.a, M.d, M.c))
    fden, fa, fb, fdisc = f.vec
    disc = _join_field(mdisc, fdisc)
    lin1, lin2 = (ma[:2], mb and mb[:2]), (ma[2:], mb and mb[2:])
    d = f.degree
    # Horner in lin1: after coefficient i, acc = sum_{j>=i} F_j lin1^(j-i) lin2^(d-j)
    acc, power = ([fa[d]], fb and [fb[d]]), ([1], None)
    for i in range(d - 1, -1, -1):
        power = _pair_product(power, lin2, disc)
        acc = _pair_product(acc, lin1, disc)
        _pair_convolve(acc, power, ([fa[i]], fb and [fb[i]]), disc)
    return BinaryForm._from_vec(fden * e ** d, acc[0], acc[1], disc)


class UnivariatePoly(_Cleared):
    """Dense univariate polynomial over Scalar, ascending coefficients.

    Trailing zeros are stripped; the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        cs = [_scal(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        super().__init__(tuple(cs))

    @classmethod
    def _from_vec(cls, den: int, a, b, disc: int) -> UnivariatePoly:
        """As for forms, with trailing zero coefficients stripped first."""
        a, b = _trim((a, b))
        return super()._from_vec(den, a, b, disc)

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
        return "UnivariatePoly(" + _join_terms(
            _term(_const_to_string(c), _power("x", i))
            for i, c in enumerate(self.coeffs) if not c.is_zero
        ) + ")"


def homogenize(p: UnivariatePoly, degree: int) -> BinaryForm:
    """sum c_i x^i -> sum c_i X^i Z^(degree-i); requires degree >= deg p."""
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
    x = _pow(lead, delta, disc)
    return _elt(_divexact(([x[0]], [x[1]]), _pow(h, delta - 1, disc), disc), 0)


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


def _clear_pairs(p: UnivariatePoly, q: UnivariatePoly):
    """(den_p, f, den_q, g, disc): p = f / den_p and q = g / den_q.

    f and g are the (A, B) pairs of the vectors of p and q over their joint
    field; B is a vector exactly when disc != 0.
    """
    pden, pa, pb, pdisc = p.vec
    qden, qa, qb, qdisc = q.vec
    disc = _join_field(pdisc, qdisc)
    if disc:  # a rational operand over Q(sqrt disc) gets a zero B
        pb, qb = pb or (0,) * len(pa), qb or (0,) * len(qa)
    return pden, (pa, pb), qden, (qa, qb), disc


def resultant(p: UnivariatePoly, q: UnivariatePoly) -> Scalar:
    """Res(p, q), the Sylvester determinant with the rows of p first.

    p and q are cleared once each to integer pairs P = den_p p and Q = den_q q
    over Z[sqrt(D)], and Res(P, Q) is the last subresultant of
    :func:`_subresultant_prs` (Cohen, Algorithm 3.3.7).  Then
    Res(p, q) = Res(P, Q) / (den_p^(deg q) den_q^(deg p)), divided once.
    A constant operand c gives c^(degree of the other); the zero polynomial
    raises :class:`DegreeError`.
    """
    if p.is_zero or q.is_zero:
        raise DegreeError("resultant of the zero polynomial is undefined")
    pden, f, qden, g, disc = _clear_pairs(p, q)
    m, n = p.degree, q.degree
    if m < n:
        f, g = g, f
    f, g, h, s = _subresultant_prs(f, g, disc)
    if not g[0]:
        return ZERO
    if m < n and m & n & 1:  # Res(q, p) = (-1)^(deg p deg q) Res(p, q)
        s = -s
    r0, r1 = _next_h(_elt(g, 0), h, len(f[0]) - 1, disc)
    return _scalar(pden ** n * qden ** m, s * r0, s * r1, disc)


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
    """Monic gcd: the last nonzero member of the subresultant PRS, made monic.

    The sequence is the one :func:`resultant` runs (Brown and Traub 1971;
    Cohen, Algorithm 3.3.7); its members are associates of the Euclidean
    remainders in K[x] whose integer coefficients stay the size of a
    determinant.
    The gcd with the zero polynomial is the other operand made monic.
    """
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).monic()
    _, f, _, g, disc = _clear_pairs(p, q)
    if p.degree < q.degree:
        f, g = g, f
    f, g, _, _ = _subresultant_prs(f, g, disc)
    return _monic(g if g[0] else f, disc)


def _monic(f, disc: int) -> UnivariatePoly:
    """The monic polynomial of a nonzero (A, B) pair: f divided by its lead."""
    (a, b), den = _over(f, _elt(f, len(f[0]) - 1), disc)
    return UnivariatePoly._from_vec(den, a, b, disc)
