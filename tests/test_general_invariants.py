"""Even-degree system, availability rules, and the degree-22 special case."""

import random

import pytest

from conftest import rand_form, unimodular_matrix
from seacurves.forms import DegreeError, make_form, moebius_act
from seacurves.invariants import (
    Genus10CaseError,
    general_absolute,
    general_invariants,
    genus10_special,
)
from seacurves.scalars import Scalar, rational


def palindromic(d):
    return make_form(d, [1] + [0] * (d - 1) + [1])


def test_general_fixture_d12():
    v = general_invariants(palindromic(12))
    assert v["I2"] == Scalar(2)
    assert v["I4p"] == rational(2, 35)
    a = general_absolute(v)
    assert a["i1"] == rational(1, 70)  # regression pin: I4p / I2^2


def test_rejects_bad_degrees():
    with pytest.raises(DegreeError):
        general_invariants(rand_form(random.Random(0), 7))
    with pytest.raises(DegreeError):
        general_invariants(rand_form(random.Random(0), 4))


def test_availability_by_degree():
    v6 = general_invariants(rand_form(random.Random(1), 6))
    assert v6.unavailable == {"I3", "I4p", "I6p", "I6star", "I12"}
    assert v6.available("I2") and v6.available("I4") and v6.available("I6")
    with pytest.raises(KeyError, match="unavailable"):
        v6["I4p"]
    with pytest.raises(KeyError, match="I2"):
        v6.covariants["I2"]  # an invariant, not a covariant
    a6 = general_absolute(v6)  # every ratio reads an entry missing at degree 6
    with pytest.raises(KeyError, match="unavailable"):
        a6["i1"]
    assert repr(a6) == "AbsoluteInvariants[general](" + ", ".join(
        f"{name}=unavailable" for name in a6.names) + ")"

    v8 = general_invariants(rand_form(random.Random(2), 8))
    assert v8.unavailable == {"I6star", "I12"}
    assert v8.available("I3")  # 4 | 8

    v10 = general_invariants(rand_form(random.Random(3), 10))
    assert v10.unavailable == {"I3", "I6star"}
    assert v10.available("I12") and "M" in v10.covariants

    v14 = general_invariants(rand_form(random.Random(4), 14))
    assert v14.unavailable == {"I3"}  # 4j = 14 has no integer solution

    v12 = general_invariants(rand_form(random.Random(5), 12))
    assert v12.unavailable == set()


def test_covariant_orders():
    d = 12
    v = general_invariants(rand_form(random.Random(6), d))
    g = (d - 2) // 2
    for j in range(1, g + 1):
        assert v.covariants[f"J{4 * j}"].degree == 4 * j
    assert v.covariants["M"].degree == 8


def test_unimodular_invariance_spot():
    rng = random.Random(7)
    # rational forms of degree 12 and 14, then degree 12 over Q(sqrt -3), Q(sqrt 5)
    for d, disc in ((12, 0), (14, 0), (12, -3), (12, 5)):
        f = rand_form(rng, d, height=3 if disc else 5, disc=disc)
        v = general_invariants(f)
        w = general_invariants(moebius_act(unimodular_matrix(rng), f))
        assert v.scalars() == w.scalars()
        assert disc == 0 or not all(x.is_rational for x in v.scalars().values())


def test_absolute_availability_and_masks():
    # d = 14: I3 unavailable, so every ratio through I3 is unavailable too
    a = general_absolute(rand_form(random.Random(8), 14))
    assert {"i2", "i3", "j1", "j2", "v2", "v4"} <= a.unavailable

    pure = make_form(12, [0] * 12 + [1])  # X^12: every self-transvectant vanishes
    a = general_absolute(pure)
    assert {"i1", "i2"} <= a.undefined  # I2 = 0 denominators


def test_absolute_invariance_excluding_v4():
    rng = random.Random(9)
    f = rand_form(rng, 12, height=4)
    a = general_absolute(f)
    b = general_absolute(moebius_act(unimodular_matrix(rng), f))
    for name in a.names:
        if name == "v4":
            continue  # degree anomaly: not scaling-invariant as defined
        assert a.defined(name) == b.defined(name)
        if a.defined(name):
            assert a[name] == b[name]


def test_v4_degree_anomaly_documented():
    # v4 = (I6*)^2 / I3^3 mixes coefficient-degrees 12 and 9: under f -> c f
    # it scales by c^(12-9) = c^3 rather than staying fixed
    f = rand_form(random.Random(10), 12, height=3)
    a = general_absolute(f)
    if not a.defined("v4"):
        pytest.skip("v4 undefined on sample")
    c = Scalar(2)
    b = general_absolute(f.scale(c))
    assert b["v4"] == a["v4"] * c ** 3
    for name in ("i1", "i2", "i3", "j1", "j2", "s1", "s2", "v1", "v2", "v3"):
        if a.defined(name):
            assert b[name] == a[name]


PAL22 = make_form(22, [1] + [0] * 21 + [1])


def test_genus10_special_fixture():
    # X^22 + Z^22 lies on the I12 = 0 locus; values pinned by exact computation
    assert general_invariants(PAL22)["I12"].is_zero
    res = genus10_special(PAL22)
    assert res.invariants["I6star_g10"].is_zero
    assert res.invariants["I12star"] == rational(448, 5773481195625)
    assert res.invariants.covariants["S"].degree == 4
    assert res.absolute.defined("v5") and res.absolute["v5"].is_zero


def test_genus10_special_refusals():
    with pytest.raises(DegreeError):
        genus10_special(palindromic(20))
    bumped = make_form(22, [1] + [0] * 10 + [1] + [0] * 10 + [1])
    with pytest.raises(Genus10CaseError):
        genus10_special(bumped)  # I12 != 0 here
    # an I12 over the digit limit still names the locus, not OutputTooLargeError
    rng = random.Random(1)
    huge = make_form(22, [rng.randrange(10**399, 10**400) for _ in range(23)])
    with pytest.raises(Genus10CaseError, match=r"^I12 = \(too large to print\) != 0; .* locus$"):
        genus10_special(huge)


def test_genus10_special_invariance():
    M = unimodular_matrix(random.Random(11))
    res1 = genus10_special(PAL22)
    res2 = genus10_special(moebius_act(M, PAL22))
    assert res1.invariants.scalars() == res2.invariants.scalars()


def test_genus10_degenerate_input():
    # X^22 kills every transvectant, so the gate I12 = 0 passes trivially
    f = make_form(22, [0] * 22 + [1])
    res = genus10_special(f)
    assert res.invariants["I12star"].is_zero
    assert "v5" in res.absolute.undefined
