"""Differential tests of ``moebius_act`` against references.

The reference below builds the power tables (aX + bZ)^i and (cX + dZ)^j and
sums the d + 1 full-degree products a_i (aX + bZ)^i (cX + dZ)^(d-i);
``moebius_act`` runs one Horner pass in (aX + bZ) instead.  The two must
agree exactly over Q (non-integer rationals included), Q(sqrt -3) and
Q(sqrt 5), at degrees 0-22 and MAX_DEGREE, with zero coefficients anywhere
in the form.  sympy, when importable, checks the substitution itself.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seacurves import forms
from seacurves.forms import MAX_DEGREE, BinaryForm, Matrix2, moebius_act
from seacurves.scalars import ONE, FieldMixError, Scalar, rational, sqrt_ext

MAX_DEG = 22


def ref_moebius_act(M: Matrix2, f: BinaryForm) -> BinaryForm:
    """sum_i a_i (aX + bZ)^i (cX + dZ)^(d-i) from tables of powers."""
    d = f.degree
    lin1 = BinaryForm(1, (M.b, M.a))
    lin2 = BinaryForm(1, (M.d, M.c))
    pow1 = [BinaryForm(0, (ONE,))]
    pow2 = [BinaryForm(0, (ONE,))]
    for _ in range(d):
        pow1.append(pow1[-1] * lin1)
        pow2.append(pow2[-1] * lin2)
    acc = BinaryForm.zero(d)
    for i, c in enumerate(f.coeffs):
        if not c.is_zero:
            acc = acc + (pow1[i] * pow2[d - i]).scale(c)
    return acc


_RATS = st.builds(
    rational,
    st.one_of(st.integers(-30, 30), st.integers(-10 ** 12, 10 ** 12)),
    st.integers(1, 12),
)


def scalars(disc: int):
    # zero is drawn often so that any coefficient, leading ones too, vanishes
    zero = st.just(Scalar(0))
    if disc == 0:
        return st.one_of(zero, _RATS)
    return st.one_of(zero, _RATS, st.builds(lambda a, b: Scalar(a.a, b.a, disc), _RATS, _RATS))


@st.composite
def cases(draw):
    """(M, f) over one field, det(M) != 0, deg f in 0..MAX_DEG."""
    disc = draw(st.sampled_from([0, -3, 5]))
    M = Matrix2(*(draw(scalars(disc)) for _ in range(4)))
    assume(not M.det().is_zero)
    d = draw(st.integers(0, MAX_DEG))
    f = BinaryForm(d, draw(st.lists(scalars(disc), min_size=d + 1, max_size=d + 1)))
    return M, f


@given(cases())
@settings(max_examples=100, deadline=None)
def test_moebius_act_matches_power_tables(case):
    M, f = case
    assert moebius_act(M, f) == ref_moebius_act(M, f)


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_moebius_act_every_degree(disc):
    """Every degree 0..MAX_DEG and MAX_DEGREE once, half the coefficients zero."""
    rng = random.Random(disc)

    def scalar():
        if rng.random() < 0.5:
            return Scalar(0)
        b = rational(rng.randint(-9, 9), rng.randint(1, 5)) if disc else 0
        return Scalar(rational(rng.randint(-9, 9), rng.randint(1, 5)), b, disc)

    for d in [*range(MAX_DEG + 1), MAX_DEGREE]:
        M = Matrix2(scalar(), scalar(), scalar(), scalar())
        while M.det().is_zero:
            M = Matrix2(scalar(), scalar(), scalar(), scalar())
        f = BinaryForm(d, [scalar() for _ in range(d + 1)])
        assert moebius_act(M, f) == ref_moebius_act(M, f)


def test_moebius_act_rejects_mixed_fields():
    f = BinaryForm(2, [1, sqrt_ext(1, 5), 2])
    with pytest.raises(FieldMixError):
        moebius_act(Matrix2(sqrt_ext(1, -3), 0, 0, 1), f)


def test_moebius_act_clears_each_operand_once(monkeypatch):
    """M and f are cleared once each, not once per Horner step."""
    calls = []
    clear = forms._clear

    def counting(*args):
        calls.append(len(args[0]))
        return clear(*args)

    monkeypatch.setattr(forms, "_clear", counting)
    f = BinaryForm(22, [rational(i - 11, i % 5 + 1) for i in range(23)])
    moebius_act(Matrix2(rational(1, 2), 3, -2, rational(5, 3)), f)
    assert calls == [23, 4]


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_against_sympy(disc):
    """f(aX + bZ, cX + dZ) multiplied out by sympy's ``expand``."""
    sp = pytest.importorskip("sympy")
    X, Z = sp.symbols("X Z")
    root = sp.sqrt(disc) if disc else 0
    rng = random.Random(100 + disc)

    def scalar():
        b = rng.randint(-3, 3) if disc else 0
        return Scalar(rational(rng.randint(-9, 9), rng.randint(1, 4)), b, disc)

    def to_sympy(c: Scalar):
        return sp.Rational(str(c.a)) + sp.Rational(str(c.b)) * root

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
