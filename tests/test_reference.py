"""The model of ``reference`` against sympy, on fixed inputs.

An oracle written from the definitions is only as good as its own check.
Over Q, Q(sqrt -3) and Q(sqrt 5): the model's transvectant against sympy's
differentiation in the definition of (f, g)^r, its GL2 substitution against
``expand``, its Sylvester resultant against the determinant of sympy's
``sylvester`` matrix, and its discriminant against the ``discriminant`` of
a sympy polynomial over the field.  Not against sympy's ``resultant``: in
sympy 1.14 it negates some resultants, over Q too; it gives -2175 for
Res(3x - 2, 3x^5 + 3/4 x^4 - 5x^3 + 8x^2 + 2x + 5), whose Sylvester
determinant and 3^5 times the second polynomial at 2/3 are both 2175.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from reference import (RefScalar, ref_discriminant, ref_moebius_act, ref_resultant,
                       ref_transvect, to_sympy)

sp = pytest.importorskip("sympy")
X, Z, x = sp.symbols("X Z x")
FIELDS = [0, -3, 5]


def _coeffs(disc: int, seed: int, count: int) -> tuple:
    """``count`` fixed model scalars over Q(sqrt disc), none of them zero."""
    rng = random.Random(seed)
    return tuple(RefScalar(Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 4)),
                           rng.randint(-3, 3) if disc else 0, disc) for _ in range(count))


def _same(expr, value) -> bool:
    """The sympy number expr is the model scalar value."""
    return sp.expand(sp.radsimp(expr - to_sympy(value))) == 0


def _form(f):
    d = len(f) - 1
    return sum(to_sympy(c) * X ** i * Z ** (d - i) for i, c in enumerate(f))


def _poly(p):
    return sum(to_sympy(c) * x ** i for i, c in enumerate(p))


def _agree(expr, f) -> bool:
    """The sympy form expr in X, Z is the model form f."""
    d = len(f) - 1
    poly = sp.Poly(sp.expand(expr), X, Z)
    return all(_same(poly.coeff_monomial(X ** i * Z ** (d - i)), c) for i, c in enumerate(f))


@pytest.mark.parametrize("disc", FIELDS)
def test_transvectant_matches_sympy_differentiation(disc):
    f, g = _coeffs(disc, 1, 5), _coeffs(disc, 2, 4)
    n, m = 4, 3
    for r in range(m + 1):
        expected = sum((-1) ** k * comb(r, k) * sp.diff(_form(f), X, r - k, Z, k)
                       * sp.diff(_form(g), X, k, Z, r - k) for k in range(r + 1))
        pref = sp.Rational(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m))
        assert _agree(pref * expected, ref_transvect(f, g, r)), r


@pytest.mark.parametrize("disc", FIELDS)
def test_substitution_matches_sympy_expand(disc):
    a, b, c, d = M = _coeffs(disc, 3, 4)
    f = _coeffs(disc, 4, 6)
    u, v = to_sympy(a) * X + to_sympy(b) * Z, to_sympy(c) * X + to_sympy(d) * Z
    expected = sum(to_sympy(fi) * u ** i * v ** (5 - i) for i, fi in enumerate(f))
    assert _agree(expected, ref_moebius_act(M, f))


def _field(disc: int):
    return sp.QQ.algebraic_field(sp.sqrt(disc)) if disc else sp.QQ


@pytest.mark.parametrize("disc", FIELDS)
def test_sylvester_resultant_matches_sympy(disc):
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester

    p, q = _coeffs(disc, 10, 4), _coeffs(disc, 20, 4)  # odd degrees: the row order counts
    det = DomainMatrix.from_Matrix(sylvester(_poly(p), _poly(q), x)).convert_to(_field(disc)).det()
    assert _same(_field(disc).to_sympy(det), ref_resultant(p, q))


@pytest.mark.parametrize("disc", FIELDS)
def test_discriminant_matches_sympy(disc):
    for seed in range(2):
        p = _coeffs(disc, 30 + seed, 4 + seed)
        poly = sp.Poly(_poly(p), x, domain=_field(disc))
        assert _same(poly.discriminant(), ref_discriminant(p)), seed
