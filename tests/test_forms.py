import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import invertible_matrix, rand_form, unimodular_matrix
from seacurves.forms import (
    BinaryForm,
    DegreeError,
    Matrix2,
    SingularMatrixError,
    UnivariatePoly,
    dehomogenize,
    discriminant,
    evaluate,
    homogenize,
    is_squarefree,
    make_form,
    moebius_act,
    partial_derivative,
    poly_gcd,
    resultant,
)
from seacurves.scalars import FieldMixError, Scalar, rational, sqrt_ext
from seacurves.transvection import transvect

X6_MINUS_Z6 = make_form(6, [-1, 0, 0, 0, 0, 0, 1])


def test_make_form():
    f = make_form(6, [-1, 0, 0, 0, 0, 0, 1])
    assert f.degree == 6 and not f.is_zero
    assert dehomogenize(f) == UnivariatePoly([-1, 0, 0, 0, 0, 0, 1])

    z = make_form(2, [0, 0, 0])
    assert z.is_zero and z.degree == 2
    assert make_form(True, [1, 2]) == make_form(1, [1, 2])  # a bool is an int

    with pytest.raises(DegreeError):
        make_form(3, [1, 0, 0])  # needs d+1 coefficients
    with pytest.raises(DegreeError):
        BinaryForm(-1, [])
    with pytest.raises(DegreeError):
        f.constant_value()  # only a degree-0 form is a constant


def test_form_add():
    a = make_form(2, [1, 0, 1])   # Z^2 + X^2
    b = make_form(2, [-1, 0, 1])  # X^2 - Z^2
    assert a + b == make_form(2, [0, 0, 2])
    assert a + BinaryForm.zero(2) == a
    with pytest.raises(DegreeError):
        a + make_form(4, [1, 0, 0, 0, 1])
    with pytest.raises(TypeError):
        a + 1  # a number is not a form of any degree


def test_form_mul():
    x2 = make_form(2, [0, 0, 1])
    z2 = make_form(2, [1, 0, 0])
    assert x2 * z2 == make_form(4, [0, 0, 1, 0, 0])
    assert (x2 * BinaryForm.zero(3)).is_zero
    assert (x2 * BinaryForm.zero(3)).degree == 5
    xpz = make_form(1, [1, 1])
    xmz = make_form(1, [-1, 1])
    assert xpz * xmz == make_form(2, [-1, 0, 1])
    assert x2 * 2 == 2 * x2 == make_form(2, [0, 0, 2])  # a scalar factor scales
    assert x2 * rational(1, 2) == make_form(2, [0, 0, rational(1, 2)])


def test_partial_derivative():
    f = make_form(6, [1, 0, 0, 0, 0, 0, 1])  # X^6 + Z^6
    assert partial_derivative(f, "X", 2) == make_form(4, [0, 0, 0, 0, 30])
    d6 = partial_derivative(f, "X", 6)
    assert d6.degree == 0 and d6.constant_value() == Scalar(720)  # 6!
    assert partial_derivative(f, "X", 0) == f
    assert partial_derivative(f, "Z", 9).is_zero


def test_partials_commute():
    rng = random.Random(5)
    f = rand_form(rng, 7)
    a = partial_derivative(partial_derivative(f, "X"), "Z")
    b = partial_derivative(partial_derivative(f, "Z"), "X")
    assert a == b


def test_evaluate():
    f = X6_MINUS_Z6
    assert evaluate(f, 1, 1) == Scalar(0)
    assert evaluate(f, 2, 0) == Scalar(64)
    assert evaluate(BinaryForm.zero(4), 3, 7) == Scalar(0)


def test_moebius_identity_and_swap():
    f = make_form(6, [1, 0, 0, 0, 0, 0, 1])
    assert moebius_act(Matrix2(1, 0, 0, 1), f) == f
    swap = Matrix2(0, 1, 1, 0)
    assert moebius_act(swap, f) == f  # palindromic form fixed by X <-> Z
    assert moebius_act(Matrix2(2, 0, 0, 1), make_form(2, [0, 0, 1])) \
        == make_form(2, [0, 0, 4])  # (2X)^2


def test_moebius_rejects_singular():
    with pytest.raises(SingularMatrixError):
        moebius_act(Matrix2(1, 2, 2, 4), X6_MINUS_Z6)


def test_moebius_group_action():
    # acting by M then N composes as the product N @ M
    rng = random.Random(11)
    for _ in range(25):
        f = rand_form(rng, rng.randint(1, 6))
        m = invertible_matrix(rng)
        n = unimodular_matrix(rng)
        assert moebius_act(m, moebius_act(n, f)) == moebius_act(n @ m, f)


@given(st.integers(0, 6), st.integers(0, 6),
       st.lists(st.integers(-9, 9), min_size=7, max_size=7),
       st.lists(st.integers(-9, 9), min_size=7, max_size=7))
@settings(max_examples=60)
def test_ring_properties(d1, d2, c1, c2):
    f = BinaryForm(d1, c1[: d1 + 1])
    g = BinaryForm(d2, c2[: d2 + 1])
    assert (f * g).degree == f.degree + g.degree
    assert f * g == g * f
    if d1 == d2:
        assert (f + g) - g == f


def test_homogenize_dehomogenize():
    p = UnivariatePoly([1] + [0] * 10 + [1])  # x^11 + 1
    F = homogenize(p, 11)
    assert F == make_form(11, [1] + [0] * 10 + [1])
    assert dehomogenize(F) == p

    padded = homogenize(UnivariatePoly([1, 0, 1]), 4)  # X^2 Z^2 + Z^4
    assert padded == make_form(4, [1, 0, 1, 0, 0])

    with pytest.raises(DegreeError):
        homogenize(p, 10)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9))
def test_homogenize_roundtrip(coeffs):
    p = UnivariatePoly(coeffs)
    if p.is_zero or p.coeffs[0].is_zero:
        return  # roundtrip identity needs p(0) != 0
    assert dehomogenize(homogenize(p, p.degree)) == p


def test_resultant_fixtures():
    x2p1 = UnivariatePoly([1, 0, 1])
    x2m1 = UnivariatePoly([-1, 0, 1])
    # prod (alpha_i - beta_j) over roots +-i of x^2+1 and +-1 of x^2-1:
    # (i-1)(i+1)(-i-1)(-i+1) = 4
    assert resultant(x2p1, x2m1) == Scalar(4)
    assert resultant(x2p1, x2p1) == Scalar(0)
    # 2x2 Sylvester with rows of p first: det [[1, -1], [1, -2]] = -1
    assert resultant(UnivariatePoly([-1, 1]), UnivariatePoly([-2, 1])) == Scalar(-1)
    # typed errors that stay ValueErrors, so CLI exit codes hold
    assert issubclass(DegreeError, ValueError)
    with pytest.raises(DegreeError):
        resultant(UnivariatePoly([]), x2p1)
    with pytest.raises(DegreeError):
        resultant(x2p1, UnivariatePoly([0, 0]))
    with pytest.raises(DegreeError):
        UnivariatePoly([]).leading()
    assert UnivariatePoly([]).monic() == UnivariatePoly([])  # zero stays zero


def test_discriminant_fixtures():
    assert discriminant(UnivariatePoly([1, 0, 1])) == Scalar(-4)  # -4c for x^2+c
    assert discriminant(UnivariatePoly([1, -2, 1])) == Scalar(0)  # (x-1)^2
    x11 = UnivariatePoly([1] + [0] * 10 + [1])
    assert is_squarefree(x11)  # 11th roots of -1 are distinct
    with pytest.raises(DegreeError):
        discriminant(UnivariatePoly([5]))


def test_resultant_classical_identities():
    # multiplicativity res(pq, r) = res(p, r) res(q, r), the swap sign
    # res(p, q) = (-1)^(deg p deg q) res(q, p), and
    # disc(pq) = disc(p) disc(q) res(p, q)^2
    rng = random.Random(29)
    trials = 0
    while trials < 25:
        p = UnivariatePoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        q = UnivariatePoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        r = UnivariatePoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        if p.is_zero or q.is_zero or r.is_zero:
            continue
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)
        if p.degree >= 1 and q.degree >= 1:
            assert discriminant(p * q) == \
                discriminant(p) * discriminant(q) * resultant(p, q) ** 2
        trials += 1


@given(st.lists(st.integers(-8, 8), min_size=3, max_size=8))
@settings(max_examples=80)
def test_squarefree_matches_gcd(coeffs):
    p = UnivariatePoly(coeffs)
    if p.degree < 1:
        return
    g = poly_gcd(p, p.derivative())
    assert is_squarefree(p) == (g.degree == 0)


def test_gcd_recovers_planted_factor_at_degree_100():
    # gcd(g u, g v) = g for coprime u and v; the remainders of this pair grow
    # to thousands of digits unless each is made monic
    rng = random.Random(100)

    def poly(d):
        return UnivariatePoly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)])

    g, u, v = poly(10), poly(90), poly(89)
    assert not resultant(u, v).is_zero
    assert poly_gcd(g * u, g * v) == g.monic()


def test_monomial_product_recovers_factor():
    # exactness: multiplying by c X^a Z^b shifts and scales the coefficients,
    # so each one of f's coefficients is recoverable by exact division
    rng = random.Random(23)
    for _ in range(15):
        f = rand_form(rng, rng.randint(0, 6))
        a = rng.randint(0, 3)
        b = rng.randint(0, 3)
        c = Scalar(rng.choice([1, -1, 2, 3, -5]))
        mono = [Scalar(0)] * (a + b + 1)
        mono[a] = c
        g = BinaryForm(a + b, mono)
        prod = f * g
        for i, coeff in enumerate(f.coeffs):
            assert prod.coeffs[i + a] / c == coeff


def test_form_json_roundtrip():
    f = make_form(2, [rational(1, 2), Scalar(0, 2, -3), Scalar(-3)])
    doc = f.to_json()
    assert doc["degree"] == 2 and doc["coeffs"][0] == "1/2"
    assert BinaryForm.from_json(doc) == f


def test_vector_operations_reject_mixed_radicals():
    """Forms over Q(sqrt -3) and Q(sqrt 5) never meet, whether built from
    Scalars or by another operation."""
    s3, s5 = sqrt_ext(1, -3), sqrt_ext(1, 5)
    f = make_form(2, [s3, Scalar(1) + s3, rational(1, 2)])
    g = make_form(2, [rational(2, 3), s5, Scalar(2) + s5])
    M = Matrix2(s5, 1, 0, 1)
    built = (f * make_form(0, [s3]), g * make_form(0, [3]))
    for u, v in ((f, g), built, (f.scale(2), g.scale(s5))):
        for a, b in ((u, v), (v, u)):
            for r in range(3):
                with pytest.raises(FieldMixError):
                    transvect(a, b, r)
            for op in (a.__mul__, a.__add__, a.__sub__):
                with pytest.raises(FieldMixError):
                    op(b)
        with pytest.raises(FieldMixError):
            v.scale(s3)
        with pytest.raises(FieldMixError):
            u.scale(s5)
        with pytest.raises(FieldMixError):
            moebius_act(M, u)
