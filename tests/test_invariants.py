"""Fixed-degree systems: sextic, octavic, decimic."""

import random

import pytest

from conftest import rand_form, unimodular_matrix
from seacurves.forms import BinaryForm, DegreeError, Matrix2, make_form, moebius_act
from seacurves.invariants import (
    decimic_invariants,
    form_is_squarefree,
    general_absolute,
    general_invariants,
    genus2_isomorphic,
    genus3_isomorphic,
    genus10_special,
    octavic_absolute,
    octavic_invariants,
    sextic_absolute,
    sextic_invariants,
)
from seacurves.scalars import Scalar, rational
from seacurves.transvection import transvect

X6P = make_form(6, [1, 0, 0, 0, 0, 0, 1])
X6M = make_form(6, [-1, 0, 0, 0, 0, 0, 1])


def test_sextic_fixtures():
    assert sextic_invariants(X6P)["J2"] == Scalar(2)
    assert sextic_invariants(X6M)["J2"] == Scalar(-2)
    zero = sextic_invariants(BinaryForm.zero(6))
    assert all(v.is_zero for _, v in zero.items())


def test_sextic_wrong_degree():
    with pytest.raises(DegreeError):
        sextic_invariants(make_form(4, [1, 0, 0, 0, 1]))


@pytest.mark.parametrize("call", [
    lambda v: sextic_invariants(v), lambda v: sextic_absolute(v),
    lambda v: genus2_isomorphic(v, X6P), lambda v: genus2_isomorphic(X6P, v),
    lambda v: octavic_invariants(v), lambda v: octavic_absolute(v),
    lambda v: genus3_isomorphic(v, v), lambda v: decimic_invariants(v),
    lambda v: genus10_special(v), lambda v: general_invariants(v),
    lambda v: general_absolute(v), lambda v: transvect(v, X6P, 1),
    lambda v: transvect(X6P, v, 1), lambda v: moebius_act(Matrix2(1, 0, 0, 1), v),
], ids=["sextic", "sextic_absolute", "genus2-first", "genus2-second", "octavic",
        "octavic_absolute", "genus3", "decimic", "genus10_special", "general",
        "general_absolute", "transvect-first", "transvect-second", "moebius_act"])
@pytest.mark.parametrize("value", [1, [1, 0, 0, 0, 0, 0, 1], "x^6+1"], ids=["int", "list", "str"])
def test_a_value_that_is_not_a_form_is_a_type_error(call, value):
    # every entry point that takes a form checks its type before its degree
    with pytest.raises(TypeError, match=r"^form must be a BinaryForm, got "):
        call(value)


def test_sextic_covariant_orders():
    v = sextic_invariants(rand_form(random.Random(0), 6))
    assert v.covariants["H"].degree == 8
    assert v.covariants["i"].degree == 4
    assert v.covariants["l"].degree == 2


def test_sextic_recomputation_matches():
    # recompute one entry from its defining transvectant chain independently
    f = rand_form(random.Random(1), 6)
    v = sextic_invariants(f)
    i = transvect(f, f, 4)
    assert v["J4"] == transvect(i, i, 4).constant_value()
    assert v.definition_of("J4") == "(i,i)^4"
    assert v.degree_of("J10") == 10


def test_sextic_degenerate_symmetric_forms():
    # the covariant l vanishes identically on these squarefree forms, so
    # J6 = J10 = 0 and the absolute invariants are undefined; J10 is
    # consequently *not* the discriminant (which is nonzero here)
    for f in (X6M, X6P, make_form(6, [0, -1, 0, 0, 0, 1, 0])):  # x^6-1, x^6+1, x^5-x
        v = sextic_invariants(f)
        assert v.covariants["l"].is_zero
        assert v["J10"].is_zero and v["J6"].is_zero
        absolute = sextic_absolute(v)
        assert absolute.undefined == {"t1", "t2", "t3"}


def test_squarefree_at_low_degree():
    # [1:0] is a root of the zero form, of every multiplicity
    assert not form_is_squarefree(BinaryForm.zero(6))
    assert not form_is_squarefree(BinaryForm.zero(1))
    assert form_is_squarefree(make_form(0, [3]))  # no root at all
    assert form_is_squarefree(make_form(1, [1, 2]))  # one simple root


def test_sextic_double_root_fixture():
    # (X-Z)^2 (X^4+Z^4): J10 does not vanish at this double root, so the
    # absolute invariants stay defined; pinned by exact computation
    f = make_form(1, [-1, 1]) * make_form(1, [-1, 1]) * make_form(4, [1, 0, 0, 0, 1])
    assert not form_is_squarefree(f)
    v = sextic_invariants(f)
    assert v["J10"] == rational(-229376, 2373046875)
    assert sextic_absolute(v).defined("t1")


def test_sextic_absolute_invariance():
    rng = random.Random(2)
    # ten rational sextics, then three over each of Q(sqrt -3) and Q(sqrt 5),
    # scaled there by c + sqrt(D)
    for disc, count in ((0, 10), (-3, 3), (5, 3)):
        for _ in range(count):
            f = rand_form(rng, 6, height=3 if disc else 10, disc=disc)
            a = sextic_absolute(f)
            if a.undefined:
                continue
            M = unimodular_matrix(rng)
            assert sextic_absolute(moebius_act(M, f)) == a
            c = Scalar(rng.choice([2, -3, 5]), 1 if disc else 0, disc)
            assert sextic_absolute(f.scale(c)) == a


OCT = make_form(8, [1, 0, 0, 0, 0, 0, 0, 0, 1])


def test_octavic_fixtures():
    v = octavic_invariants(OCT)
    # (f, f)^8 = 2 (only k = 0, 8 survive), prefactor 2^2*5*7
    assert v["J2"] == Scalar(280)
    assert v["J4"] == Scalar(2458624)
    assert v["J10"] == Scalar(23695741335633920)
    # palindromic symmetry kills the odd-degree invariants
    for name in ("J3", "J5", "J7", "J9"):
        assert v[name].is_zero


def test_octavic_homogeneity():
    rng = random.Random(6)
    f = rand_form(rng, 8)
    v = octavic_invariants(f)
    c = Scalar(3)
    w = octavic_invariants(f.scale(c))
    for k, name in enumerate(("J2", "J3", "J4", "J5", "J6", "J7", "J8", "J9", "J10"), start=2):
        assert w[name] == c ** k * v[name]
        assert v.degree_of(name) == k


def test_octavic_nonvanishing_on_squarefree():
    rng = random.Random(8)
    found = 0
    while found < 15:
        f = rand_form(rng, 8)
        if not form_is_squarefree(f):
            continue
        found += 1
        v = octavic_invariants(f)
        assert not all(v[n].is_zero for n in ("J2", "J3", "J4", "J5", "J6", "J7"))


def test_octavic_absolute_undefined_on_zero_j2():
    # every t_i has J2 in its denominator, so J2 = 0 undefines them all;
    # X^8 alone has every transvectant zero
    a = octavic_absolute(make_form(8, [0] * 8 + [1]))
    for t in ("t1", "t2", "t6"):
        assert t in a.undefined
        with pytest.raises(KeyError, match="undefined"):
            a[t]
    assert not a.defined_items()
    with pytest.raises(KeyError, match="t7"):
        a["t7"]  # not an octavic absolute invariant
    assert repr(a) == ("AbsoluteInvariants[octavic](t1=undefined, t2=undefined, t3=undefined, "
                       "t4=undefined, t5=undefined, t6=undefined)")


def test_octavic_absolute_invariance():
    rng = random.Random(10)
    for disc in (0, -3, 5):  # over Q, Q(sqrt -3) and Q(sqrt 5)
        f = rand_form(rng, 8, height=3 if disc else 10, disc=disc)
        a = octavic_absolute(f)
        M = unimodular_matrix(rng)
        assert octavic_absolute(moebius_act(M, f)) == a
        assert octavic_absolute(f.scale(rational(3, 2))) == a


DEC = make_form(10, [1] + [0] * 9 + [1])


def test_decimic_fixtures():
    v = decimic_invariants(DEC)
    assert v["J2"] == Scalar(2)
    assert v["J4"] == rational(2, 3)
    assert v["J14"] == rational(4, 12353145)
    assert v["J14_plus_A14"] == v["J14"] + v["A14"]


def test_decimic_covariant_orders():
    v = decimic_invariants(rand_form(random.Random(12), 10))
    expected = {"k": 4, "q": 8, "m": 6, "r": 2, "k_q": 4, "k_m": 4, "m_q": 4}
    for name, order in expected.items():
        assert v.covariants[name].degree == order


def test_decimic_homogeneity():
    f = rand_form(random.Random(14), 10, height=5)
    v = decimic_invariants(f)
    c = Scalar(-2)
    w = decimic_invariants(f.scale(c))
    for name in ("J2", "J4", "A6", "C6", "J8", "J9", "J10", "J14", "A14"):
        assert w[name] == c ** v.degree_of(name) * v[name]


def test_decimic_unimodular_invariance():
    rng = random.Random(16)
    for disc in (0, -3, 5):  # over Q, Q(sqrt -3) and Q(sqrt 5)
        f = rand_form(rng, 10, height=3 if disc else 6, disc=disc)
        v = decimic_invariants(f)
        w = decimic_invariants(moebius_act(unimodular_matrix(rng), f))
        assert v.scalars() == w.scalars()
        assert disc == 0 or not all(x.is_rational for x in v.scalars().values())


def test_cross_system_consistency():
    # the sextic J2 and the general-system I2 are the same transvectant at d = 6
    from seacurves.invariants import general_invariants

    f = rand_form(random.Random(18), 6)
    assert sextic_invariants(f)["J2"] == general_invariants(f)["I2"]
