"""Differential tests of ``resultant``, ``discriminant`` and ``poly_gcd``.

``resultant`` and ``poly_gcd`` run the subresultant pseudo-remainder sequence
on integer pairs over Z[sqrt D].  Two references check them:

- the determinant of the Sylvester matrix (rows of p, descending, first) by
  Gaussian elimination in ``Scalar`` arithmetic, up to degree 12;
- the Euclidean remainder sequence in ``Scalar`` arithmetic, with each
  remainder made monic by ``ref_monic`` (the implementation the subresultant
  sequence replaced), up to degree 30 and once at degree 100.

``ref_monic``, division by the leading coefficient in ``Scalar`` arithmetic,
is also the reference for ``monic``, which divides the cleared vector once
by its leading element over Z[sqrt D].

They must agree exactly over Q, Q(sqrt -3) and Q(sqrt 5): with vanishing
leading and constant terms, half-integral coordinates (a + b sqrt D) / 2,
degree gaps greater than one inside the sequence (polynomials in x^k),
either operand of larger degree, constant operands, and forced common and
repeated factors.  sympy, when importable, is a third, independent check.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seacurves import forms
from seacurves.forms import (
    BinaryForm,
    UnivariatePoly,
    dehomogenize,
    discriminant,
    is_squarefree,
    poly_gcd,
    resultant,
)
from seacurves.scalars import ONE, ZERO, Scalar, rational

MAX_DEG = 12


def ref_det(rows: list) -> Scalar:
    """Exact determinant by Gaussian elimination with nonzero pivoting."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor.is_zero:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def ref_resultant(p: UnivariatePoly, q: UnivariatePoly) -> Scalar:
    """Determinant of the Sylvester matrix, rows of p (descending) first."""
    m, n = p.degree, q.degree
    size = m + n
    pd = list(reversed(p.coeffs))
    qd = list(reversed(q.coeffs))
    rows = [[ZERO] * s + pd + [ZERO] * (size - s - m - 1) for s in range(n)]
    rows += [[ZERO] * s + qd + [ZERO] * (size - s - n - 1) for s in range(m)]
    return ref_det(rows)


def euclid_mod(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
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


def ref_monic(p: UnivariatePoly) -> UnivariatePoly:
    """p divided by its leading coefficient in Scalar arithmetic.

    The ``monic`` of the package before polynomials held cleared vectors.
    """
    if p.is_zero:
        return p
    lc = p.coeffs[-1]
    return UnivariatePoly([c / lc for c in p.coeffs])


def euclid_resultant(p: UnivariatePoly, q: UnivariatePoly) -> Scalar:
    """Res(p, q) by the Euclidean remainder sequence.

    With r = p mod q, Res(p, q) = (-1)^(deg p deg q) lc(q)^(deg p - deg r)
    Res(q, r), and Res(q, c r) = c^(deg q) Res(q, r) makes every remainder
    monic.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    res = ONE
    while q.degree > 0:
        r = euclid_mod(p, q)
        if r.is_zero:
            return ZERO
        m, n = p.degree, q.degree
        res = res * q.leading() ** (m - r.degree) * r.leading() ** n
        if m * n % 2:
            res = -res
        p, q = q, ref_monic(r)
    return res * q.leading() ** p.degree


def euclid_gcd(p: UnivariatePoly, q: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd by the Euclidean algorithm, each remainder made monic."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, ref_monic(euclid_mod(a, b))
    return ref_monic(a)


def ref_discriminant(p: UnivariatePoly) -> Scalar:
    d = p.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * ref_resultant(p, p.derivative()) / p.leading()


# numerators up to 10^12 (not 10^20 as for the products) keep the cubic-time
# Sylvester reference fast at degree 12 + 12
_RATS = st.builds(
    rational,
    st.one_of(st.integers(-30, 30), st.integers(-10 ** 12, 10 ** 12)),
    st.integers(1, 12),
)


def scalars(disc: int):
    # zero is drawn often so that leading and constant terms vanish
    zero = st.just(Scalar(0))
    if disc == 0:
        return st.one_of(zero, _RATS)
    return st.one_of(zero, _RATS, st.builds(lambda a, b: Scalar(a.a, b.a, disc), _RATS, _RATS))


@st.composite
def polys(draw, disc: int, min_deg: int = 0, max_deg: int = MAX_DEG, coeffs=scalars):
    """A polynomial of degree min_deg..max_deg over Q(sqrt disc).

    Zero top entries of the drawn coefficient list (a vanishing leading
    term) lower the degree.
    """
    p = UnivariatePoly(draw(st.lists(coeffs(disc), min_size=min_deg + 1, max_size=max_deg + 1)))
    assume(p.degree >= min_deg)
    return p


@st.composite
def poly_pairs(draw):
    """(p, q) over one field; sometimes both carry a common factor h."""
    disc = draw(st.sampled_from([0, -3, 5]))
    if draw(st.booleans()):
        h = draw(polys(disc, 1, 3))
        p = draw(polys(disc, 0, MAX_DEG - h.degree))
        q = draw(polys(disc, 0, MAX_DEG - h.degree))
        return p * h, q * h
    return draw(polys(disc)), draw(polys(disc))


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_resultant_matches_sylvester(pair):
    p, q = pair
    assert resultant(p, q) == ref_resultant(p, q)
    assert resultant(q, p) == ref_resultant(q, p)


@st.composite
def disc_polys(draw):
    """p of degree >= 1; half the time with a repeated factor h^2."""
    disc = draw(st.sampled_from([0, -3, 5]))
    if draw(st.booleans()):
        h = draw(polys(disc, 1, 2))
        return draw(polys(disc, 0, MAX_DEG - 2 * h.degree)) * h * h
    return draw(polys(disc, 1))


@given(disc_polys())
@settings(max_examples=100, deadline=None)
def test_discriminant_matches_sylvester(p):
    expected = ref_discriminant(p)
    assert discriminant(p) == expected
    assert is_squarefree(p) == (not expected.is_zero)


def test_constant_operands():
    c, p = Scalar(3, 1, 5), UnivariatePoly([1, 2, 0, rational(1, 3)])
    one = UnivariatePoly([c])
    assert resultant(one, one) == ONE == ref_resultant(one, one)
    assert resultant(p, one) == c ** 3 == ref_resultant(p, one)
    assert resultant(one, p) == c ** 3 == ref_resultant(one, p)


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_against_sympy(disc):
    """sympy's field arithmetic as an independent check of both functions.

    The resultant is compared with sympy's determinant of the Sylvester
    matrix rather than with ``sympy.resultant``: over Q(sqrt -3), sympy 1.14's
    ``resultant`` returns the negated value for some pairs, which its own
    Sylvester determinant and a numerical product over the roots of p both
    contradict.
    """
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    x = sp.Symbol("x")
    field = sp.QQ.algebraic_field(sp.sqrt(disc)) if disc else sp.QQ
    root = field.from_sympy(sp.sqrt(disc)) if disc else field.zero
    rng = random.Random(disc)

    def to_field(c: Scalar):
        return field.convert(sp.Rational(str(c.a))) + field.convert(sp.Rational(str(c.b))) * root

    def rand_poly():
        cs = [Scalar(rational(rng.randint(-9, 9), rng.randint(1, 4)),
                     rng.randint(-3, 3) if disc else 0, disc)
              for _ in range(rng.randint(1, 8))]
        return UnivariatePoly(cs + [rng.randint(1, 5)])

    def sylvester_det(p: UnivariatePoly, q: UnivariatePoly):
        m, n = p.degree, q.degree
        pd = [to_field(c) for c in reversed(p.coeffs)]
        qd = [to_field(c) for c in reversed(q.coeffs)]
        zero = [field.zero]
        rows = [zero * s + pd + zero * (n - 1 - s) for s in range(n)]
        rows += [zero * s + qd + zero * (m - 1 - s) for s in range(m)]
        return DomainMatrix(rows, (m + n, m + n), field).det()

    for _ in range(12):
        p, q = rand_poly(), rand_poly()
        assert to_field(resultant(p, q)) == sylvester_det(p, q)
        f = sp.Poly([field.to_sympy(to_field(c)) for c in reversed(p.coeffs)], x, domain=field)
        assert to_field(discriminant(p)) == field.from_sympy(f.discriminant().as_expr())


EUCLID_MAX_DEG = 30


def small_scalars(disc: int):
    """Small coefficients, zero often; over Q(sqrt disc) also half-integral
    ones (a + b sqrt(disc)) / 2 with a and b odd, which Z[sqrt disc] lacks."""
    zero = st.just(Scalar(0))
    rats = st.builds(rational, st.integers(-30, 30), st.integers(1, 4))
    if disc == 0:
        return st.one_of(zero, rats)
    half = st.builds(lambda a, b: Scalar(rational(2 * a + 1, 2), rational(2 * b + 1, 2), disc),
                     st.integers(-15, 15), st.integers(-15, 15))
    return st.one_of(zero, rats, half, st.builds(lambda a, b: Scalar(a.a, b.a, disc), rats, rats))


def in_x_power(p: UnivariatePoly, k: int) -> UnivariatePoly:
    """p(x^k): every member of a remainder sequence of such polynomials is
    one too, so each degree gap in it is a multiple of k."""
    return UnivariatePoly([c for a in p.coeffs for c in [a] + [ZERO] * (k - 1)])


@st.composite
def euclid_pairs(draw):
    """(p, q) over one field with deg p, deg q <= EUCLID_MAX_DEG: independent,
    with a common factor h, or with a common h and a repeated h^2 in p."""
    disc = draw(st.sampled_from([0, -3, 5]))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    top = EUCLID_MAX_DEG // k
    shape = draw(st.sampled_from(["free", "common", "repeated"]))
    if shape == "free":
        p = draw(polys(disc, 0, top, small_scalars))
        q = draw(polys(disc, 0, top, small_scalars))
    else:
        h = draw(polys(disc, 1, 3, small_scalars))
        hp = h * h if shape == "repeated" else h
        p = draw(polys(disc, 0, top - hp.degree, small_scalars)) * hp
        q = draw(polys(disc, 0, top - h.degree, small_scalars)) * h
    return in_x_power(p, k), in_x_power(q, k)


def euclid_discriminant(p: UnivariatePoly) -> Scalar:
    d = p.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * euclid_resultant(p, p.derivative()) / p.leading()


def assert_matches_euclidean(p: UnivariatePoly, q: UnivariatePoly) -> None:
    assert resultant(p, q) == euclid_resultant(p, q)
    assert resultant(q, p) == euclid_resultant(q, p)
    assert poly_gcd(p, q) == euclid_gcd(p, q)
    if p.degree >= 1:
        assert discriminant(p) == euclid_discriminant(p)


@given(euclid_pairs())
@settings(max_examples=150, deadline=None)
def test_resultant_and_gcd_match_euclidean(pair):
    assert_matches_euclidean(*pair)


def _x(*coeffs):
    return UnivariatePoly(list(coeffs))


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_euclidean_edge_cases(disc):
    """Constant operands, large degree gaps either way, sequences whose every
    gap is even, and common factors, with half-integral coordinates."""
    w = Scalar(rational(1, 2), rational(1, 2), disc) if disc else rational(1, 2)
    c = Scalar(3, -1, disc) if disc else Scalar(3)
    p = _x(1, w, 0, -2, 0, 0, w, 1, 0, 3)  # degree 9
    q = _x(w, 0, c)  # degree 2
    cases = [
        (_x(c), _x(w)),
        (_x(c), p),
        (p, q),
        (_x(c, 0, w, 1), p),  # degrees 3 and 9, both odd
        (in_x_power(p, 2), in_x_power(q, 2)),
        (in_x_power(p * q, 2), in_x_power(q * q, 2)),
        (in_x_power(_x(w, 1) * q, 3), in_x_power(q, 3)),
    ]
    for a, b in cases:
        assert_matches_euclidean(a, b)
        assert_matches_euclidean(b, a)


def test_degree_100_pair_matches_euclidean():
    rng = random.Random(101)

    def poly(d):
        return UnivariatePoly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)])

    p, q = poly(100), poly(97)
    assert resultant(p, q) == euclid_resultant(p, q)
    assert resultant(q, p) == euclid_resultant(q, p)


def test_resultant_clears_each_operand_once(monkeypatch):
    """p and q are cleared once each, not once per remainder."""
    calls = []
    clear = forms._clear

    def counting(*args):
        calls.append(len(args[0]))
        return clear(*args)

    monkeypatch.setattr(forms, "_clear", counting)
    p = UnivariatePoly([rational(i - 11, i % 5 + 1) for i in range(23)])
    q = UnivariatePoly([Scalar(i, i % 3, 5) for i in range(-8, 12)])
    resultant(p, q)
    assert calls == [23, 20]


def test_discriminant_clears_only_polys_built_from_scalars(monkeypatch):
    """A polynomial built from Scalars is cleared once; its derivative and a
    polynomial the kernel built are read as vectors and never cleared."""
    h = BinaryForm(3, [Scalar(i, 1, 5) for i in range(1, 5)]) * BinaryForm(
        5, [rational(i, 3) for i in range(1, 7)])
    calls = []
    clear = forms._clear

    def counting(*args):
        calls.append(len(args[0]))
        return clear(*args)

    monkeypatch.setattr(forms, "_clear", counting)
    p = UnivariatePoly([rational(i - 11, i % 5 + 1) for i in range(23)])
    assert calls == [23]
    discriminant(p)
    assert calls == [23]
    calls.clear()
    discriminant(dehomogenize(h))
    assert calls == []


def leads(disc: int):
    """Nonzero leading coefficients; the fixed ones are negative rationals
    and, over Q(sqrt 5), elements of negative norm such as 1 + sqrt 5."""
    fixed = [rational(-3), rational(-2, 7)]
    if disc:
        fixed += [Scalar(1, 1, disc), Scalar(rational(1, 2), rational(-3, 2), disc),
                  Scalar(0, -1, disc)]
    return st.one_of(st.sampled_from(fixed), scalars(disc).filter(lambda c: not c.is_zero))


@st.composite
def led_polys(draw, disc: int, max_deg: int):
    body = draw(st.lists(scalars(disc), max_size=max_deg))
    return UnivariatePoly(body + [draw(leads(disc))])


@st.composite
def monic_cases(draw):
    """(p, q) over one field with a common factor whose lead is drawn from leads()."""
    disc = draw(st.sampled_from([0, -3, 5]))
    h = draw(led_polys(disc, 3))
    return draw(led_polys(disc, 5)) * h, draw(polys(disc, 0, 6)) * h


@given(monic_cases())
@settings(max_examples=100, deadline=None)
def test_monic_and_gcd_match_scalar_monic(case):
    p, q = case
    for a in (p, q, p * q):
        m, expected = a.monic(), ref_monic(a)  # built from vectors / from Scalars
        assert m == expected and hash(m) == hash(expected)
        assert m.coeffs == expected.coeffs and m.vec[0] > 0
    assert poly_gcd(p, q) == ref_monic(euclid_gcd(p, q))
    assert poly_gcd(p, UnivariatePoly(())) == ref_monic(p) == poly_gcd(UnivariatePoly(()), p)
    # a sqrt part that cancels leaves a rational polynomial, equal to its Scalar twin
    norm = p * UnivariatePoly([Scalar(c.a, -c.b, c.disc) for c in p.coeffs])
    twin = UnivariatePoly(norm.coeffs)
    assert norm == twin and hash(norm) == hash(twin) and norm.vec[2] is None
