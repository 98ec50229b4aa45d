"""Differential tests of ``resultant``, ``discriminant``, ``poly_gcd`` and ``monic``.

``resultant`` and ``poly_gcd`` run the subresultant pseudo-remainder sequence
on integer pairs over Z[sqrt D].  Two models of ``reference`` check them:

- ``ref_resultant``, the determinant of the Sylvester matrix by Gaussian
  elimination, and ``ref_discriminant`` on it, up to degree 12;
- ``euclid_resultant`` and ``euclid_gcd``, the Euclidean remainder sequence
  with each remainder made monic by ``ref_monic``, and the discriminant on
  them, up to degree 30 and once at degree 100.

``ref_monic``, division by the leading coefficient, is also the model of
``monic``, which divides the cleared vector once by its leading element over
Z[sqrt D].

``is_squarefree`` first tries a certificate modulo one prime and falls
back to the discriminant.  Its verdict is checked against the discriminant
and against ``ref_poly_is_squarefree`` (the Euclidean gcd of p and p'),
over Q, Q(sqrt -3), Q(sqrt 5), Q(sqrt -1) (a root of -1 only modulo the
primes P = 5 mod 8) and Q(sqrt 7427), where no listed prime has a root of
7427, with repeated factors; fixed cases take the fallback where the
residues mislead.

The projective squarefree verdict ``form_is_squarefree`` is checked against
the Sylvester resultant of the two partial derivatives of the form: by
Euler's identity d*f = X*f_X + Z*f_Z, a common root of f_X and f_Z is a
repeated root of f, the root [1:0] included.

They must agree exactly over Q, Q(sqrt -3) and Q(sqrt 5), and with a
rational operand meeting either field in either argument order: with vanishing
leading and constant terms, half-integral coordinates (a + b sqrt D) / 2,
degree gaps greater than one inside the sequence (polynomials in x^k),
either operand of larger degree, constant operands, and forced common and
repeated factors.  sympy, when importable, is a third, independent check.
"""

import random
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import spy
from reference import (FIELD_PAIRS, coefficients, euclid_gcd, euclid_resultant, from_model,
                       ref_discriminant, ref_monic, ref_partial, ref_poly_is_squarefree,
                       ref_resultant, to_model, to_sympy)
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
from seacurves.invariants import form_is_squarefree
from seacurves.scalars import Scalar, rational

MAX_DEG = 12


# numerators up to 10^12 (not 10^20 as for the products) keep the cubic-time
# Sylvester model fast at degree 12 + 12
HEIGHT = 10 ** 12


@st.composite
def polys(draw, disc: int, min_deg: int = 0, max_deg: int = MAX_DEG, small: bool = False):
    """A polynomial of degree min_deg..max_deg over Q(sqrt disc), with
    ``small_scalars`` coefficients if ``small``.

    Zero top entries of the drawn coefficient list (a vanishing leading
    term) lower the degree.
    """
    coeffs = small_scalars(disc) if small else coefficients(disc, HEIGHT)
    p = UnivariatePoly(draw(st.lists(coeffs, min_size=min_deg + 1, max_size=max_deg + 1)))
    assume(p.degree >= min_deg)
    return p


@st.composite
def poly_pairs(draw):
    """(p, q) over the fields of one of ``FIELD_PAIRS``; sometimes both carry
    a common factor h, rational when the fields differ."""
    dp, dq = draw(st.sampled_from(FIELD_PAIRS))
    if draw(st.booleans()):
        h = draw(polys(dp if dp == dq else 0, 1, 3))
        p = draw(polys(dp, 0, MAX_DEG - h.degree))
        q = draw(polys(dq, 0, MAX_DEG - h.degree))
        return p * h, q * h
    return draw(polys(dp)), draw(polys(dq))


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_resultant_matches_sylvester(pair):
    p, q = pair
    expected = ref_resultant(to_model(p), to_model(q))
    assert to_model(resultant(p, q)) == expected
    # Res(q, p) = (-1)^(deg p deg q) Res(p, q): the rows of q move past those of p
    assert to_model(resultant(q, p)) == (-1) ** (p.degree * q.degree) * expected


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
    expected = ref_discriminant(to_model(p))
    assert to_model(discriminant(p)) == expected
    assert is_squarefree(p) == (not expected.is_zero)


# 7427 = 7 * 1061 is a square modulo none of the listed primes, so over
# Q(sqrt 7427) the certificate never applies and every verdict comes from the
# discriminant
NO_ROOT_DISC = 7427


@st.composite
def squarefree_cases(draw):
    """p of degree >= 1 over Q, Q(sqrt -3), Q(sqrt 5), Q(sqrt -1) or
    Q(sqrt NO_ROOT_DISC); half the time times h^2 or h^3, so that a root
    repeats."""
    disc = draw(st.sampled_from([0, -3, 5, -1, NO_ROOT_DISC]))
    if draw(st.booleans()):
        h = draw(polys(disc, 1, 3))
        k = draw(st.sampled_from([2, 3]))
        p = draw(polys(disc, 0, MAX_DEG - k * h.degree))
        for _ in range(k):
            p = p * h
        return p
    return draw(polys(disc, 1))


I = Scalar(0, 1, -1)


def square_times(h, k):
    """h^2 k for ascending coefficient lists h and k."""
    h, k = UnivariatePoly(h), UnivariatePoly(k)
    return h * h * k


@given(squarefree_cases())
@settings(max_examples=200, deadline=None)
# Gaussian inputs with a repeated root, whatever the draw: a wrong root of -1
# modulo the primes P = 5 mod 8 certifies each of them as squarefree
@example(square_times([-I, 1], [3, 1]))
@example(square_times([-1 - 2 * I, 1], [-I, 1]))
@example(square_times([1, I, 1], [1]))
def test_squarefree_certificate_matches_discriminant(p):
    expected = not discriminant(p).is_zero
    assert ref_poly_is_squarefree(to_model(p)) == expected
    assert is_squarefree(p) == expected
    certified = forms._squarefree_mod_prime(p)
    assert expected or not certified  # a certificate is a proof
    if p.vec[3] == NO_ROOT_DISC:
        assert not certified


@st.composite
def linear_products(draw):
    """A form of degree 2..9 over Q(sqrt disc): a nonzero constant times 0, 1
    or 2 factors Z (roots at [1:0]) and factors X - rZ whose roots r are
    drawn from a pool of distinct roots, as many as the factors half the
    time and fewer otherwise, so that roots repeat."""
    disc = draw(st.sampled_from([0, -3, 5]))
    d = draw(st.integers(2, 9))
    at_infinity = draw(st.integers(0, 2))
    finite = d - at_infinity
    distinct = finite if draw(st.booleans()) else draw(st.integers(min(1, finite), finite))
    pool = draw(st.lists(small_scalars(disc), min_size=distinct, max_size=distinct, unique=True))
    roots = pool + [draw(st.sampled_from(pool)) for _ in range(finite - distinct)]
    f = BinaryForm(0, [draw(small_scalars(disc).filter(lambda c: not c.is_zero))])
    for r in roots:
        f = f * BinaryForm(1, [-r, 1])
    for _ in range(at_infinity):
        f = f * BinaryForm(1, [1, 0])
    return f


@given(linear_products())
@example(BinaryForm(4, [-1, 0, 1, 0, 0]))  # Z^2 (X^2 - Z^2): a double root at [1:0]
@example(BinaryForm(3, [-5, 0, 1, 0]))  # Z (X^2 - 5 Z^2): a simple root at [1:0]
@example(BinaryForm(2, [1, 0, 0]))  # Z^2
@settings(max_examples=200, deadline=None)
def test_form_squarefree_matches_sylvester_of_partials(f):
    """``form_is_squarefree(f)`` is Res(f_X, f_Z) != 0, both partials taken
    as forms of declared degree d - 1."""
    F = to_model(f)
    assert form_is_squarefree(f) == (not ref_resultant(ref_partial(F, "X"),
                                                       ref_partial(F, "Z")).is_zero)


def test_constant_operands():
    c, p = Scalar(3, 1, 5), UnivariatePoly([1, 2, 0, rational(1, 3)])
    one, P, C = UnivariatePoly([c]), to_model(p), to_model([c])
    assert resultant(one, one) == 1 and ref_resultant(C, C) == 1
    assert resultant(p, one) == c ** 3 and to_model(c ** 3) == ref_resultant(P, C)
    assert resultant(one, p) == c ** 3 and to_model(c ** 3) == ref_resultant(C, P)


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_against_sympy(disc):
    """sympy's field arithmetic as an independent check of both functions.

    The resultant is compared with sympy's determinant of the Sylvester
    matrix rather than with ``sympy.resultant``: sympy 1.14's ``resultant``
    returns the negated value for some pairs, over Q too (see
    ``test_reference``), which its own Sylvester determinant and a numerical
    product over the roots of p both contradict.
    """
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    x = sp.Symbol("x")
    field = sp.QQ.algebraic_field(sp.sqrt(disc)) if disc else sp.QQ
    rng = random.Random(disc)

    def rand_poly():
        cs = [Scalar(rational(rng.randint(-9, 9), rng.randint(1, 4)),
                     rng.randint(-3, 3) if disc else 0, disc)
              for _ in range(rng.randint(1, 8))]
        return UnivariatePoly(cs + [rng.randint(1, 5)])

    def sylvester_det(p: UnivariatePoly, q: UnivariatePoly):
        m, n = p.degree, q.degree
        pd = [to_sympy(c, field) for c in reversed(p.coeffs)]
        qd = [to_sympy(c, field) for c in reversed(q.coeffs)]
        zero = [field.zero]
        rows = [zero * s + pd + zero * (n - 1 - s) for s in range(n)]
        rows += [zero * s + qd + zero * (m - 1 - s) for s in range(m)]
        return DomainMatrix(rows, (m + n, m + n), field).det()

    for _ in range(12):
        p, q = rand_poly(), rand_poly()
        assert to_sympy(resultant(p, q), field) == sylvester_det(p, q)
        f = sp.Poly([to_sympy(c) for c in reversed(p.coeffs)], x, domain=field)
        assert to_sympy(discriminant(p), field) == field.from_sympy(f.discriminant().as_expr())


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
    return UnivariatePoly([c for a in p.coeffs for c in [a] + [0] * (k - 1)])


@st.composite
def euclid_pairs(draw):
    """(p, q) over the fields of one of ``FIELD_PAIRS`` with deg p, deg q <=
    EUCLID_MAX_DEG: independent, with a common factor h, or with a common h
    and a repeated h^2 in p; h is rational when the fields differ."""
    dp, dq = draw(st.sampled_from(FIELD_PAIRS))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    top = EUCLID_MAX_DEG // k
    shape = draw(st.sampled_from(["free", "common", "repeated"]))
    if shape == "free":
        p = draw(polys(dp, 0, top, small=True))
        q = draw(polys(dq, 0, top, small=True))
    else:
        h = draw(polys(dp if dp == dq else 0, 1, 3, small=True))
        hp = h * h if shape == "repeated" else h
        p = draw(polys(dp, 0, top - hp.degree, small=True)) * hp
        q = draw(polys(dq, 0, top - h.degree, small=True)) * h
    return in_x_power(p, k), in_x_power(q, k)


def assert_matches_euclidean(p: UnivariatePoly, q: UnivariatePoly) -> None:
    P, Q = to_model(p), to_model(q)
    expected = euclid_resultant(P, Q)
    assert to_model(resultant(p, q)) == expected
    assert to_model(resultant(q, p)) == (-1) ** (p.degree * q.degree) * expected
    assert to_model(poly_gcd(p, q)) == euclid_gcd(P, Q)
    if p.degree >= 1:
        assert to_model(discriminant(p)) == ref_discriminant(P, euclid_resultant)


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


def test_certificate_primes():
    """Each listed prime is a prime P = 3 mod 4 or P = 5 mod 8 below 2^30
    (trial division), and its root of each radicand D that is a nonzero
    square mod P squares to D."""
    radicands = [d for d in range(-40, 41) if d] + [NO_ROOT_DISC, -10 ** 12 + 1, 10 ** 12 - 11]
    for P in forms._PRIMES:
        assert (P % 4 == 3 or P % 8 == 5) and P < 2 ** 30
        assert all(P % q for q in range(2, isqrt(P) + 1))
        for d in radicands:
            if pow(d, (P - 1) // 2, P) == 1:
                assert forms._sqrt_mod(d, P) ** 2 % P == d % P
    assert not any(pow(NO_ROOT_DISC, (P - 1) // 2, P) == 1 for P in forms._PRIMES)


def test_squarefree_falls_back_where_the_residues_mislead(monkeypatch):
    """(P x + 1)^2 (x - 1) reduces mod P to the squarefree x - 1, as its lead
    vanishes; x^2 - P is squarefree but reduces to x^2, as P divides its
    discriminant 4P.  Both verdicts come from the subresultant sequence."""
    P = forms._PRIMES[0]
    calls = spy(monkeypatch, forms, "_subresultant_prs")
    lead_vanishes = _x(1, P) * _x(1, P) * _x(-1, 1)
    assert not is_squarefree(lead_vanishes) and len(calls) == 1
    assert is_squarefree(_x(-P, 0, 1)) and len(calls) == 2


def test_degree_100_pair_matches_euclidean():
    rng = random.Random(101)

    def poly(d):
        return UnivariatePoly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)])

    p, q = poly(100), poly(97)
    P, Q = to_model(p), to_model(q)
    assert to_model(resultant(p, q)) == euclid_resultant(P, Q)
    assert to_model(resultant(q, p)) == euclid_resultant(Q, P)


def test_resultant_clears_each_operand_once(monkeypatch):
    """p and q are cleared once each, not once per remainder."""
    calls = spy(monkeypatch, forms, "_clear")
    p = UnivariatePoly([rational(i - 11, i % 5 + 1) for i in range(23)])
    q = UnivariatePoly([Scalar(i, i % 3, 5) for i in range(-8, 12)])
    resultant(p, q)
    assert [len(coeffs) for coeffs, in calls] == [23, 20]


def test_discriminant_clears_only_polys_built_from_scalars(monkeypatch):
    """A polynomial built from Scalars is cleared once; its derivative and a
    polynomial the kernel built are read as vectors and never cleared."""
    h = BinaryForm(3, [Scalar(i, 1, 5) for i in range(1, 5)]) * BinaryForm(
        5, [rational(i, 3) for i in range(1, 7)])
    calls = spy(monkeypatch, forms, "_clear")
    p = UnivariatePoly([rational(i - 11, i % 5 + 1) for i in range(23)])
    assert [len(coeffs) for coeffs, in calls] == [23]
    discriminant(p)
    assert len(calls) == 1
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
    return st.one_of(st.sampled_from(fixed), coefficients(disc, HEIGHT).filter(lambda c: not c.is_zero))


@st.composite
def led_polys(draw, disc: int, max_deg: int):
    body = draw(st.lists(coefficients(disc, HEIGHT), max_size=max_deg))
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
        m, expected = a.monic(), ref_monic(to_model(a))
        built = UnivariatePoly(from_model(expected))  # from Scalars, m from vectors
        assert to_model(m) == expected and m == built and hash(m) == hash(built)
        assert m.vec[0] > 0
    P = to_model(p)
    assert to_model(poly_gcd(p, q)) == euclid_gcd(P, to_model(q))
    zero = UnivariatePoly(())
    assert to_model(poly_gcd(p, zero)) == ref_monic(P) == to_model(poly_gcd(zero, p))
    # a sqrt part that cancels leaves a rational polynomial, equal to its Scalar twin
    norm = p * UnivariatePoly([Scalar(c.a, -c.b, c.disc) for c in p.coeffs])
    twin = UnivariatePoly(norm.coeffs)
    assert norm == twin and hash(norm) == hash(twin) and norm.vec[2] is None
