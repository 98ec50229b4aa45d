import dataclasses
from fractions import Fraction
from math import gcd

import pytest

from conftest import packaged_catalog
from seacurves.catalog import CatalogError, FamilyRecord, load_catalog
from seacurves.catalog.templates import SumBlock, TemplateError
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
                             moebius_act, partial_derivative)
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
    pytest.param(lambda: genus_formula(1, 5), LevelError, "level must be >= 2, got 1",
                 id="genus-formula-level"),
    pytest.param(lambda: genus_formula(2, 1), DegreeError, "need deg f >= 2, got 1",
                 id="genus-formula-degree"),
    (lambda: hurwitz_bound(1), CurveDataError, "Hurwitz bound needs genus >= 2, got 1"),
    # a bool is an int, so it reaches the range checks
    (lambda: hurwitz_bound(True), CurveDataError, "Hurwitz bound needs genus >= 2, got True"),
    (lambda: hurwitz_bound(2.5), TypeError, "genus g must be an int, got 2.5"),
    (lambda: make_form(1.5, [1, 2]), TypeError, "degree must be an int, got 1.5"),
    (lambda: BinaryForm.zero(2.0), TypeError, "degree must be an int, got 2.0"),
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
                 f"level must be >= 2, got {TOO_LARGE}", id="genus-formula"),
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
    pytest.param(lambda: transvect(make_form(2, [1, 0, 1]), make_form(2, [1, 0, 1]), 1.0),
                 TypeError, "transvection order r must be an int, got 1.0",
                 id="transvect-order-type"),
    pytest.param(lambda: homogenize(poly(1, 0, 1), -H), DegreeError,
                 f"cannot homogenize degree-2 poly at degree {TOO_LARGE}", id="homogenize"),
    pytest.param(lambda: Scalar(0, 1, H), RadicandError,
                 f"radicand {TOO_LARGE} is outside the supported range |D| <= 10^12",
                 id="radicand"),
    # a value of the wrong type is quoted by repr, which fails past the limit
    pytest.param(lambda: dataclasses.replace(_row(), id=H), CatalogError,
                 f"id {TOO_LARGE} does not end in -<digits>", id="row-id-type"),
    pytest.param(lambda: dataclasses.replace(_row(), genus=[H]), CatalogError,
                 f"genus {TOO_LARGE} on g5-c1-1 is not an integer", id="row-genus-type"),
    pytest.param(lambda: dataclasses.replace(_row(), full_group=H), CatalogError,
                 f"full_group {TOO_LARGE} on g5-c1-1 is not a string", id="row-full-group-type"),
    pytest.param(lambda: dataclasses.replace(_row(), status=H), CatalogError,
                 f"unknown status {TOO_LARGE} on g5-c1-1", id="row-status-type"),
    pytest.param(lambda: Signature([(H, 1.5)]), CurveDataError,
                 f"branch index {TOO_LARGE} is not an integer", id="signature-index-type"),
    pytest.param(lambda: ReducedGroup(H), CurveDataError,
                 f"unknown reduced group kind {TOO_LARGE}", id="reduced-kind-type"),
    pytest.param(lambda: ReducedGroup("Cm", [H]), CurveDataError,
                 f"Cm parameter m {TOO_LARGE} is not an integer", id="reduced-m-type"),
    pytest.param(lambda: partial_derivative(make_form(2, [1, 0, 1]), H), SeacurvesError,
                 f"var must be 'X' or 'Z', got {TOO_LARGE}", id="derivative-var-type"),
    pytest.param(lambda: load_catalog()[H], CatalogError,
                 f"no record with id {TOO_LARGE}", id="catalog-id-type"),
    pytest.param(lambda: SumBlock(H, 1, 1, 0), TemplateError,
                 f"bad sum block bounds {TOO_LARGE}", id="sum-block-type"),
    pytest.param(lambda: Scalar([H]), TypeError,
                 f"cannot interpret {TOO_LARGE} as an exact rational", id="scalar-type"),
    pytest.param(lambda: make_form([H], [1]), TypeError,
                 f"degree must be an int, got {TOO_LARGE}", id="form-degree-type"),
    pytest.param(lambda: hurwitz_bound([H]), TypeError,
                 f"genus g must be an int, got {TOO_LARGE}", id="hurwitz-bound-type"),
    # an exact function returns no float, and a level, degree or order of the
    # wrong type is named at the entry, not met by the first operation on it
    pytest.param(lambda: full_group_order(2.0, ReducedGroup("A5")), TypeError,
                 "level n must be an int, got 2.0", id="full-group-order-type"),
    pytest.param(lambda: make_curve(2.0, poly(1, 0, 1)), TypeError,
                 "level n must be an int, got 2.0", id="make-curve-type"),
    pytest.param(lambda: make_curve("2", poly(1, 0, 1)), TypeError,
                 "level n must be an int, got '2'", id="make-curve-str"),
    pytest.param(lambda: genus_formula(2.0, 5), TypeError,
                 "level n must be an int, got 2.0", id="genus-formula-type"),
    pytest.param(lambda: genus_formula(2, 5.0), TypeError,
                 "degree d must be an int, got 5.0", id="genus-formula-degree-type"),
    pytest.param(lambda: homogenize(poly(1, 0, 1), 2.0), TypeError,
                 "degree must be an int, got 2.0", id="homogenize-type"),
    pytest.param(lambda: partial_derivative(make_form(2, [1, 0, 1]), "X", 1.0), TypeError,
                 "order must be an int, got 1.0", id="derivative-order-type"),
    pytest.param(lambda: genus_formula(True, 5), LevelError, "level must be >= 2, got True",
                 id="genus-formula-bool"),
    pytest.param(lambda: moebius_act((1, 0, 0, 1), make_form(2, [1, 0, 1])), TypeError,
                 "matrix M must be a Matrix2, got (1, 0, 0, 1)", id="moebius-matrix-type"),
])
def test_precondition_errors_are_typed(call, error, message):
    """Each precondition of curves, forms, transvection, scalars and catalog
    rows raises a SeacurvesError subclass (a TypeError for a Scalar built
    from a value of no numeric type, for an integer parameter that is not
    an int, a bool counting as one, and for a matrix that is not a
    Matrix2); the messages are those of the untyped
    raises they replace, with an int past the digit limit printed as
    "(too large to print)" whatever its size."""
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, SeacurvesError) != (error is TypeError)
    assert str(exc.value) == message


def test_curve_prints_a_level_past_the_digit_limit():
    c = make_curve(H, poly(1, 0, 1))
    assert repr(c) == str(c) == f"SuperellipticCurve(y^{TOO_LARGE} = {c.f!r}, genus {TOO_LARGE})"
    assert repr(make_curve(3, poly(1, 0, 1))) == \
        "SuperellipticCurve(y^3 = UnivariatePoly(1 + x^2), genus 1)"


def test_reduced_group_prints_an_m_past_the_digit_limit():
    g = ReducedGroup("Cm", H)
    assert repr(g) == str(g) == f"ReducedGroup(kind='Cm', m={TOO_LARGE})"
    assert g.label() == f"C_{TOO_LARGE}"
    assert (repr(ReducedGroup("D2m", 3)), ReducedGroup("D2m", 3).label()) == \
        ("ReducedGroup(kind='D2m', m=3)", "D_6")
    assert repr(ReducedGroup("A5")) == "ReducedGroup(kind='A5', m=None)"


def test_transvection_order_may_be_a_bool():
    f = make_form(2, [1, 2, 3])
    g = make_form(3, [1, 0, -1, 2])
    assert transvect(f, g, True) == transvect(f, g, 1)


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
    assert [ReducedGroup("Cm", 11).label(), ReducedGroup("D2m", 2).label(),
            ReducedGroup("A4").label(), ReducedGroup("S4").label(),
            ReducedGroup("A5").label()] == ["C_11", "D_4", "A_4", "S_4", "A_5"]
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
