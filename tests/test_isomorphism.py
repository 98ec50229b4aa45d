"""Absolute-invariant isomorphism criteria for sextics and octavics."""

import random
from math import comb, factorial

import pytest

from conftest import invertible_matrix, rand_form, unimodular_matrix
from seacurves.forms import make_form, moebius_act
from seacurves.invariants import (
    InconclusiveError,
    form_is_squarefree,
    genus2_isomorphic,
    genus3_isomorphic,
    octavic_invariants,
    sextic_absolute,
    sextic_invariants,
)
from seacurves.scalars import Scalar, rational


def sample_sextic(rng):
    while True:
        f = rand_form(rng, 6)
        if form_is_squarefree(f) and not sextic_invariants(f)["J10"].is_zero:
            return f


def sample_octavic(rng):
    while True:
        f = rand_form(rng, 8)
        v = octavic_invariants(f)
        if form_is_squarefree(f) and all(
            not v[n].is_zero for n in ("J2", "J3", "J4", "J5")
        ):
            return f


def test_genus2_negation_invariance():
    f = sample_sextic(random.Random(0))
    assert genus2_isomorphic(f, -f)


def test_genus2_moebius_pairs():
    rng = random.Random(1)
    for _ in range(8):
        f = sample_sextic(rng)
        assert genus2_isomorphic(f, moebius_act(invertible_matrix(rng), f))


def test_genus2_scaling():
    f = sample_sextic(random.Random(2))
    assert genus2_isomorphic(f, f.scale(rational(7, 3)))


def test_genus2_distinct_pair():
    rng = random.Random(3)
    f, g = sample_sextic(rng), sample_sextic(rng)
    expected = sextic_absolute(f) == sextic_absolute(g)
    assert genus2_isomorphic(f, g) == expected


def test_genus2_inconclusive_on_j10_zero():
    # x^6 - 1 and x(x^4 - 1) are squarefree but sit on the J10 = 0 locus,
    # where the t-invariants are undefined: the criterion must not answer
    f = make_form(6, [-1, 0, 0, 0, 0, 0, 1])
    g = make_form(6, [0, -1, 0, 0, 0, 1, 0])
    assert sextic_invariants(f)["J10"].is_zero
    assert sextic_invariants(g)["J10"].is_zero
    with pytest.raises(InconclusiveError):
        genus2_isomorphic(f, g)
    with pytest.raises(InconclusiveError):
        genus2_isomorphic(f, -f)


def test_genus2_inconclusive_on_repeated_root():
    xpz = make_form(1, [1, 1])
    f = xpz * xpz * make_form(4, [1, 1, 1, 1, 1])
    g = sample_sextic(random.Random(4))
    with pytest.raises(InconclusiveError):
        genus2_isomorphic(f, g)


def _float_transvectant_j10_like(f):
    """Independent floating-point evaluation of the J10 chain (oracle only)."""

    def partials(c, n, r, k):
        p = r - k
        out = []
        for i in range(n - r + 1):
            mult = 1.0
            for t in range(p):
                mult *= i + p - t
            for t in range(k):
                mult *= n - i - p - t
            out.append(c[i + p] * mult)
        return out

    def tv(fc, gc, r):
        n, m = len(fc) - 1, len(gc) - 1
        pref = factorial(m - r) * factorial(n - r) / (factorial(n) * factorial(m))
        acc = [0.0] * (n + m - 2 * r + 1)
        for k in range(r + 1):
            sgn = comb(r, k) * (-1) ** k
            a = partials(fc, n, r, k)
            b = partials(gc, m, r, r - k)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    acc[i + j] += sgn * ai * bj
        return [pref * v for v in acc]

    def mul(a, b):
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    fc = [float(c.a) for c in f.coeffs]
    i = tv(fc, fc, 4)
    l = tv(i, fc, 4)
    l3 = mul(mul(l, l), l)
    return tv(fc, l3, 6)[0]


def test_genus2_float_oracle_agrees():
    # dual-path check: exact J10 against an independent float evaluation
    rng = random.Random(5)
    for _ in range(5):
        f = rand_form(rng, 6, height=6)
        j10 = sextic_invariants(f)["J10"]
        assert j10.is_rational
        exact = float(j10.a)
        approx = _float_transvectant_j10_like(f)
        scale = max(abs(exact), abs(approx), 1.0)
        assert abs(exact - approx) / scale < 1e-9
    # and on the degenerate pair above, the float path also finds ~0
    f = make_form(6, [-1, 0, 0, 0, 0, 0, 1])
    assert abs(_float_transvectant_j10_like(f)) < 1e-9


def test_genus2_family_symmetry():
    # in the family y^2 = x^6 + a x^3 + 1, the substitution x -> -x carries
    # the member at a onto the member at -a, so those two are isomorphic;
    # members at unrelated parameter values are not
    def member(a):
        return make_form(6, [1, 0, 0, a, 0, 0, 1])

    for a in (3, 5, rational(7, 2)):
        f, g = member(Scalar(a)), member(-Scalar(a))
        if sextic_invariants(f)["J10"].is_zero:
            continue
        assert genus2_isomorphic(f, g)
    assert genus2_isomorphic(member(Scalar(3)), member(Scalar(5))) is False


def test_genus3_moebius_pairs():
    rng = random.Random(6)
    for _ in range(6):
        f = sample_octavic(rng)
        assert genus3_isomorphic(f, moebius_act(invertible_matrix(rng), f))


def test_genus3_perturbation_distinct():
    f = sample_octavic(random.Random(7))
    g = f + make_form(8, [0, 0, 0, 0, 1, 0, 0, 0, 0])  # f + X^4 Z^4
    if not all(not octavic_invariants(g)[n].is_zero for n in ("J2", "J3", "J4", "J5")):
        pytest.skip("perturbed form left the criterion's domain")
    assert genus3_isomorphic(f, g) is False


def test_genus3_inconclusive_not_false():
    # X^8 has every transvectant zero, so J2 = 0: hypotheses unmet
    degenerate = make_form(8, [0] * 8 + [1])
    healthy = sample_octavic(random.Random(8))
    with pytest.raises(InconclusiveError):
        genus3_isomorphic(degenerate, healthy)


def test_genus3_unimodular_scaling():
    rng = random.Random(9)
    f = sample_octavic(rng)
    assert genus3_isomorphic(f, f.scale(Scalar(-2)))
    assert genus3_isomorphic(f, moebius_act(unimodular_matrix(rng), f))
