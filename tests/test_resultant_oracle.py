"""Differential tests of ``resultant`` and ``discriminant`` against references.

The reference below is the determinant of the Sylvester matrix (rows of p,
descending, first) by Gaussian elimination in ``Scalar`` arithmetic;
``resultant`` runs the Euclidean remainder sequence instead.  The two must
agree exactly over Q, Q(sqrt -3) and Q(sqrt 5), with vanishing leading and
constant terms and with forced common factors.  sympy, when importable, is a
third, independent check.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seacurves.forms import UnivariatePoly, discriminant, is_squarefree, resultant
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
def polys(draw, disc: int, min_deg: int = 0, max_deg: int = MAX_DEG):
    """A polynomial of degree min_deg..max_deg over Q(sqrt disc).

    Zero top entries of the drawn coefficient list (a vanishing leading
    term) lower the degree.
    """
    p = UnivariatePoly(draw(st.lists(scalars(disc), min_size=min_deg + 1, max_size=max_deg + 1)))
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
