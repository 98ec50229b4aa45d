import dataclasses
from fractions import Fraction
from math import gcd

import pytest

from conftest import packaged_catalog
from seacurves.catalog import CatalogError, FamilyRecord
from seacurves.curves import (
    CurveDataError,
    LevelError,
    NotSquarefreeError,
    ReducedGroup,
    Signature,
    complete_signature,
    full_group_order,
    genus_formula,
    hurwitz_bound,
    make_curve,
    rh_residual,
)
from seacurves.forms import (BinaryForm, DegreeError, UnivariatePoly, homogenize, make_form,
                             partial_derivative)
from seacurves.scalars import (ZERO, DivisionByZeroError, RadicandError, Scalar,
                               SeacurvesError, rational)
from seacurves.transvection import TransvectionError, transvect

H = 10 ** 5000  # past the interpreter's int-to-str digit limit
TOO_LARGE = "(too large to print)"


def _row():
    return packaged_catalog()["g5-c1-1"]


def poly(*ascending):
    return UnivariatePoly(ascending)


def test_make_curve():
    c = make_curve(2, poly(1, *([0] * 10), 1))  # x^11 + 1
    assert c.genus == 5 and not c.is_low_genus

    c = make_curve(13, poly(1, 0, 1))  # x^2 + 1 at level 13
    assert c.genus == 6

    with pytest.raises(NotSquarefreeError):
        make_curve(2, poly(2, -3, 0, 1))  # (x-1)^2 (x+2)
    with pytest.raises(ValueError):
        make_curve(1, poly(1, 0, 1))


def test_make_curve_typed_errors():
    for n in (1, 0, -2):
        with pytest.raises(LevelError, match=f"level must be >= 2, got {n}"):
            make_curve(n, poly(1, 0, 1))
        with pytest.raises(LevelError):
            full_group_order(n, ReducedGroup("Cm", 3))
    for f in (poly(2), poly(1, 1), poly()):
        with pytest.raises(DegreeError, match=f"need deg f >= 2, got {f.degree}"):
            make_curve(2, f)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ReducedGroup("Q"), CurveDataError, "unknown reduced group kind 'Q'"),
    (lambda: ReducedGroup("Cm", 0), CurveDataError, "Cm needs a positive parameter m"),
    (lambda: ReducedGroup("A4", 3), CurveDataError, "A4 takes no parameter m"),
    (lambda: Signature([2.0]), CurveDataError, "branch index 2.0 is not an integer"),
    (lambda: Signature([1]), CurveDataError, "branch index must be >= 2, got 1"),
    (lambda: Signature([(2, 0)]), CurveDataError, "multiplicity must be >= 1, got 0"),
    (lambda: genus_formula(1, 5), LevelError, "need n >= 2 and d >= 2, got n=1, d=5"),
    (lambda: genus_formula(2, 1), DegreeError, "need n >= 2 and d >= 2, got n=2, d=1"),
    (lambda: hurwitz_bound(1), CurveDataError, "Hurwitz bound needs genus >= 2, got 1"),
    (lambda: rh_residual(5, 0, Signature([2])), CurveDataError, "group order must be positive"),
    (lambda: rh_residual(5, 10, Signature([3])), CurveDataError,
     "index 3 does not divide group order 10"),
    (lambda: partial_derivative(make_form(2, [1, 0, 1]), "Y"), SeacurvesError,
     "var must be 'X' or 'Z', got 'Y'"),
    (lambda: partial_derivative(make_form(2, [1, 0, 1]), "X", -1), DegreeError,
     "order must be nonnegative"),
    (lambda: Scalar(0, 1, 10 ** 13), RadicandError,
     "radicand 10000000000000 is outside the supported range |D| <= 10^12"),
    (lambda: Scalar(0, 1, 12), RadicandError,
     "discriminant must be squarefree and != 0, 1, got 12"),
    (lambda: ZERO.inverse(), DivisionByZeroError, "scalar division by zero"),
    pytest.param(lambda: rational(1, 0), DivisionByZeroError, "scalar division by zero",
                 id="rational-zero-denominator"),
    (lambda: ReducedGroup("Cm", 2.5), CurveDataError, "Cm parameter m 2.5 is not an integer"),
    (lambda: ReducedGroup("D2m", True), CurveDataError, "D2m parameter m True is not an integer"),
    pytest.param(lambda: dataclasses.replace(_row(), n=-H), CatalogError,
                 f"n {TOO_LARGE} on g5-c1-1 is below 2", id="row-n"),
    pytest.param(lambda: dataclasses.replace(_row(), delta=-H), CatalogError,
                 f"delta {TOO_LARGE} on g5-c1-1 is below 0", id="row-delta"),
    pytest.param(lambda: FamilyRecord.from_json({**_row().to_json(), "m": H}), CatalogError,
                 f"m {TOO_LARGE} on g5-c1-1 is not the reduced group's m", id="row-m"),
    pytest.param(lambda: Signature([-H]), CurveDataError,
                 f"branch index must be >= 2, got {TOO_LARGE}", id="signature-index"),
    pytest.param(lambda: Signature([(2, -H)]), CurveDataError,
                 f"multiplicity must be >= 1, got {TOO_LARGE}", id="signature-multiplicity"),
    pytest.param(lambda: genus_formula(-H, 3), LevelError,
                 f"need n >= 2 and d >= 2, got n={TOO_LARGE}, d=3", id="genus-formula"),
    pytest.param(lambda: hurwitz_bound(-H), CurveDataError,
                 f"Hurwitz bound needs genus >= 2, got {TOO_LARGE}", id="hurwitz-bound"),
    pytest.param(lambda: full_group_order(-H, ReducedGroup("Cm", 2)), LevelError,
                 f"level must be >= 2, got {TOO_LARGE}", id="full-group-order"),
    pytest.param(lambda: make_curve(-H, poly(1, 0, 1)), LevelError,
                 f"level must be >= 2, got {TOO_LARGE}", id="make-curve"),
    pytest.param(lambda: BinaryForm(H, [1]), DegreeError,
                 f"degree {TOO_LARGE} needs {TOO_LARGE} coefficients, got 1", id="form-degree"),
    pytest.param(lambda: transvect(make_form(2, [1, 0, 1]), make_form(2, [1, 0, 1]), H),
                 TransvectionError,
                 f"transvection order {TOO_LARGE} out of range for degrees (2, 2)",
                 id="transvect-order"),
    pytest.param(lambda: homogenize(poly(1, 0, 1), -H), DegreeError,
                 f"cannot homogenize degree-2 poly at degree {TOO_LARGE}", id="homogenize"),
    pytest.param(lambda: Scalar(0, 1, H), RadicandError,
                 f"radicand {TOO_LARGE} is outside the supported range |D| <= 10^12",
                 id="radicand"),
])
def test_precondition_errors_are_typed(call, error, message):
    """Each precondition of curves, forms, transvection, scalars and catalog
    rows raises a SeacurvesError subclass; the messages are those of the
    untyped raises they replace, with an int past the digit limit printed as
    "(too large to print)" whatever its size."""
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, SeacurvesError) and str(exc.value) == message


def test_low_genus_flag():
    c = make_curve(2, poly(1, 1, 0, 1))  # elliptic: genus 1
    assert c.genus == 1 and c.is_low_genus


@pytest.mark.parametrize("n,d,g", [
    (2, 12, 5), (2, 11, 5), (3, 7, 6), (2, 3, 1), (13, 2, 6), (3, 9, 7),
    (2, 20, 9), (6, 5, 10), (11, 3, 10),
])
def test_genus_formula(n, d, g):
    assert genus_formula(n, d) == g


def test_genus_formula_coprime_and_symmetry():
    for n in range(2, 51):
        for d in range(2, 51):
            g = genus_formula(n, d)
            if gcd(n, d) == 1:
                assert g == (n - 1) * (d - 1) // 2
            assert g == genus_formula(d, n)


def test_hurwitz_bound():
    assert hurwitz_bound(2) == 84
    assert hurwitz_bound(5) == 336
    assert hurwitz_bound(10) == 756
    with pytest.raises(ValueError):
        hurwitz_bound(1)


def test_rh_residual_fixtures():
    # genus-5 order-120 cover with indices (2, 3, 10):
    # (2/120)*4 = 1/15 = -2 + 1/2 + 2/3 + 9/10
    assert rh_residual(5, 120, Signature([2, 3, 10])) == 0
    assert rh_residual(2, 2, Signature([(2, 6)])) == 0
    assert rh_residual(5, 22, Signature([11, 22])) != 0
    with pytest.raises(ValueError):
        rh_residual(5, 10, Signature([3]))  # 3 does not divide 10


def test_complete_signature():
    res = complete_signature(5, 4, Signature([(2, 7)]))
    assert res.status == "completed" and res.added_index == 2
    assert res.signature == Signature([(2, 8)])

    res = complete_signature(5, 8, Signature([(2, 6)]))
    assert res.status == "already_complete"
    assert res.signature == Signature([(2, 6)])

    res = complete_signature(6, 26, Signature([13, 26]))
    assert res.status == "completed" and res.added_index == 2

    # residual that no single index can absorb
    res = complete_signature(5, 4, Signature([(2, 2)]))
    assert res.status == "failed" and res.signature is None


def test_completion_residual_is_zero():
    res = complete_signature(5, 4, Signature([(2, 7)]))
    assert rh_residual(5, 4, res.signature) == Fraction(0)


def test_reduced_groups():
    assert ReducedGroup("Cm", 11).order == 11
    assert ReducedGroup("D2m", 5).order == 10
    assert ReducedGroup("A4").order == 12
    assert ReducedGroup("S4").order == 24
    assert ReducedGroup("A5").order == 60
    assert ReducedGroup("D2m", 2).label() == "D_4"
    with pytest.raises(ValueError):
        ReducedGroup("A4", 3)
    with pytest.raises(ValueError):
        ReducedGroup("Cm")


def test_full_group_order():
    assert full_group_order(2, ReducedGroup("Cm", 11)) == 22
    assert full_group_order(2, ReducedGroup("A5")) == 120
    assert full_group_order(3, ReducedGroup("S4")) == 72
    assert rh_residual(5, 120, Signature([2, 3, 10])) == 0


def test_signature_json_and_compact():
    sig = Signature([(2, 3), (7, 1)])
    assert sig.compact() == "2^3,7"
    assert Signature.from_json(sig.to_json()) == sig
    assert sig.point_count == 4
    with pytest.raises(ValueError):
        Signature([1, 2])


def test_curve_json():
    c = make_curve(2, poly(1, *([0] * 10), 1))
    assert c.to_json() == {"n": 2, "f": "x^11 + 1", "genus": 5}
