"""Differential tests of ``moebius_act`` against the model.

``reference.ref_moebius_act`` builds the power tables (aX + bZ)^i and
(cX + dZ)^j and sums the d + 1 full-degree products
a_i (aX + bZ)^i (cX + dZ)^(d-i) in Fraction-pair arithmetic;
``moebius_act`` instead runs two shears, each a Taylor shift whose Horner
pass runs on Kronecker-packed integers with a slot width bounded from the
inputs.  The two must agree exactly over Q (non-integer rationals
included), Q(sqrt -3) and Q(sqrt 5), at degrees 0-22 and MAX_DEGREE, with
zero coefficients anywhere in the form, for every pattern of zero entries
of an invertible M (d = 0 moves the pivot to b), and on inputs where no
sum cancels, whose coefficients come nearest the slot bound.  sympy, when
importable, checks the substitution itself.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_sparse, spy
from reference import coefficients, ref_moebius_act, to_model, to_sympy
from seacurves import forms
from seacurves.forms import MAX_DEGREE, BinaryForm, Matrix2, SingularMatrixError, moebius_act
from seacurves.scalars import FieldMixError, Scalar, rational, sqrt_ext

MAX_DEG = 22


HEIGHT = 10 ** 12


def assert_matches_model(M: Matrix2, f: BinaryForm) -> None:
    assert to_model(moebius_act(M, f)) == ref_moebius_act(to_model((M.a, M.b, M.c, M.d)),
                                                          to_model(f))


@st.composite
def cases(draw):
    """(M, f) over one field, det(M) != 0, deg f in 0..MAX_DEG."""
    disc = draw(st.sampled_from([0, -3, 5]))
    M = Matrix2(*(draw(coefficients(disc, HEIGHT)) for _ in range(4)))
    assume(not M.det().is_zero)
    d = draw(st.integers(0, MAX_DEG))
    f = BinaryForm(d, draw(st.lists(coefficients(disc, HEIGHT), min_size=d + 1, max_size=d + 1)))
    return M, f


@given(cases())
@settings(max_examples=100, deadline=None)
def test_moebius_act_matches_power_tables(case):
    assert_matches_model(*case)


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_moebius_act_every_degree(disc):
    """Every degree 0..MAX_DEG and MAX_DEGREE once, half the coefficients zero."""
    rng = random.Random(disc)

    def scalar():
        return rand_sparse(rng, disc, 0.5)

    for d in [*range(MAX_DEG + 1), MAX_DEGREE]:
        M = Matrix2(scalar(), scalar(), scalar(), scalar())
        while M.det().is_zero:
            M = Matrix2(scalar(), scalar(), scalar(), scalar())
        assert_matches_model(M, BinaryForm(d, [scalar() for _ in range(d + 1)]))


# every pattern of zero entries of M that leaves det(M) = ad - bc nonzero
# whatever the other entries: d = 0 alone puts the pivot on b, (a, d) is the
# antidiagonal, (b, c) the diagonal
ZERO_PATTERNS = [("a",), ("b",), ("c",), ("d",), ("a", "d"), ("b", "c")]


@pytest.mark.parametrize("zeros", ZERO_PATTERNS, ids="".join)
@pytest.mark.parametrize("disc", [0, -3, 5])
def test_moebius_act_every_zero_pattern(disc, zeros):
    rng = random.Random(f"{disc}{zeros}")
    for d in (0, 1, 2, 7, MAX_DEG, MAX_DEGREE):
        M = Matrix2(*(Scalar(0) if name in zeros else rand_sparse(rng, disc, 0)
                      for name in "abcd"))
        assert_matches_model(M, BinaryForm(d, [rand_sparse(rng, disc, 0.3)
                                               for _ in range(d + 1)]))


@pytest.mark.parametrize("disc, shear", [(0, False), (5, False), (3, True)],
                         ids=["0", "5", "3-shear"])
def test_moebius_act_without_cancellation(disc, shear):
    """Every coefficient, matrix entry and radical part positive at HEIGHT,
    with ad > bc part by part: no sum cancels, so the result's coefficients
    come near the slot bound of the packed Horner steps.

    With ``shear``, M is (1, b sqrt(disc), 0, 1) for b at HEIGHT, so the
    largest coefficients are those of the highest powers of b: there the
    bound rests on r = ceil(sqrt|D|) in the height |x_0| + r |x_1| of
    Z[sqrt D], which a floor (r = 1 for D = 3) no longer bounds."""
    rng = random.Random(disc)

    def positive(low, high):
        return Scalar(rng.randint(low, high), rng.randint(low, high) if disc else 0, disc)

    big, small = (HEIGHT // 2, HEIGHT), (1, HEIGHT // 2)
    if shear:
        M = Matrix2(1, Scalar(0, rng.randint(*big), disc), 0, 1)
    else:
        M = Matrix2(positive(*big), positive(*small), positive(*small), positive(*big))
    f = BinaryForm(MAX_DEGREE, [positive(*big) for _ in range(MAX_DEGREE + 1)])
    assert_matches_model(M, f)


def test_moebius_act_rejects_mixed_fields():
    f = BinaryForm(2, [1, sqrt_ext(1, 5), 2])
    with pytest.raises(FieldMixError):
        moebius_act(Matrix2(sqrt_ext(1, -3), 0, 0, 1), f)
    with pytest.raises(FieldMixError):  # the entries of M alone span two fields
        moebius_act(Matrix2(sqrt_ext(1, -3), 0, 0, sqrt_ext(1, 5)), BinaryForm(2, [1, 2, 3]))


def test_moebius_act_singular_before_field_mix():
    """A singular M is reported as such before its field meets f's."""
    f = BinaryForm(2, [1, sqrt_ext(1, 5), 2])
    r = sqrt_ext(1, -3)
    with pytest.raises(SingularMatrixError):
        moebius_act(Matrix2(r, r * 2, 1, 2), f)


def test_moebius_act_clears_each_operand_once(monkeypatch):
    """M and f are cleared once each, not once per shear or Horner step."""
    calls = spy(monkeypatch, forms, "_clear")
    f = BinaryForm(22, [rational(i - 11, i % 5 + 1) for i in range(23)])
    moebius_act(Matrix2(rational(1, 2), 3, -2, rational(5, 3)), f)
    assert [len(coeffs) for coeffs, in calls] == [23, 4]


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_against_sympy(disc):
    """f(aX + bZ, cX + dZ) multiplied out by sympy's ``expand``."""
    sp = pytest.importorskip("sympy")
    X, Z = sp.symbols("X Z")
    rng = random.Random(100 + disc)

    def scalar():
        b = rng.randint(-3, 3) if disc else 0
        return Scalar(rational(rng.randint(-9, 9), rng.randint(1, 4)), b, disc)

    for d in (0, 1, 2, 5, 8):
        M = Matrix2(scalar(), scalar(), scalar(), scalar())
        while M.det().is_zero:
            M = Matrix2(scalar(), scalar(), scalar(), scalar())
        f = BinaryForm(d, [scalar() for _ in range(d + 1)])
        x = to_sympy(M.a) * X + to_sympy(M.b) * Z
        z = to_sympy(M.c) * X + to_sympy(M.d) * Z
        expected = sp.Poly(sp.expand(sum(to_sympy(c) * x ** i * z ** (d - i)
                                         for i, c in enumerate(f.coeffs))), X, Z)
        got = moebius_act(M, f)
        for i, c in enumerate(got.coeffs):
            assert sp.expand(to_sympy(c) - expected.coeff_monomial(X ** i * Z ** (d - i))) == 0
