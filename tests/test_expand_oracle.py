"""Differential tests of ``EquationTemplate.expand`` against the model.

``expand`` clears the parameter values once, builds one integer vector per
factor and multiplies the vectors (``forms._pair_product``); the model,
``reference.ref_expand``, substitutes each value into each factor over
:class:`~reference.RefScalar` and multiplies the factors with
``ref_product``.  Templates are drawn over Q, Q(sqrt -3) and Q(sqrt 5),
with sum blocks, zero constants, radical multiples of a parameter and
parameters shared between factors; values have denominators, and radicals
of the template's field (of any one field over Q).  Values of two fields
join as the product is built: a value from another field that must meet a
radical constant raises FieldMixError naming both fields, and a product
whose radical part cancels is rational, so a later factor may bring another
field.  The fixed cases pin which field the message names first (the first
field met, factor by factor, each factor from its constant term up) and
products that cancel, catalog row g5-c4-1 among them."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import ref_expand, to_model
from seacurves.catalog.templates import (EquationTemplate, Factor, SumBlock, Term, parse_poly_string,
                                        parse_template)
from seacurves.scalars import ONE, FieldMixError, Scalar, parse_scalar

_RATS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
_NAMES = ("a1", "a2", "a3")


def _scalars(disc: int):
    """Rationals with denominators; over Q(sqrt disc) also a + b*sqrt(disc)."""
    rats = _RATS.map(Scalar)
    return rats | st.builds(lambda a, b: Scalar(a, b, disc), _RATS, _RATS) if disc else rats


@st.composite
def _factor(draw, disc: int):
    """A nonzero constant lead, then constants (zero allowed), multiples of a
    parameter from a pool of three (zero allowed, radical now and then) and
    at most one sum block."""
    top, *rest = sorted(draw(st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True)),
                        reverse=True)
    items = [Term(draw(_scalars(disc).filter(lambda c: not c.is_zero)), None, top)]
    if top >= 3 and draw(st.booleans()):
        items.append(SumBlock(1, 2, 1, top - 3))  # a1*x^(top-2) + a2*x^(top-1)
        rest = [e for e in rest if e < top - 2]
    for e in rest:
        if draw(st.booleans()):
            items.append(Term(draw(_scalars(disc)), None, e))
        else:
            coeff = draw(_scalars(disc) if draw(st.integers(0, 4)) == 0 else _RATS.map(Scalar))
            items.append(Term(coeff, draw(st.sampled_from(_NAMES)), e))
    return Factor(tuple(items))


@st.composite
def _cases(draw, discs=(0, -3, 5)):
    """(template, field of its constants, parameter values in random order)."""
    disc = draw(st.sampled_from(discs))
    template = EquationTemplate(draw(st.lists(_factor(disc), min_size=1, max_size=3)))
    field = disc or draw(st.sampled_from((0, -3, 5)))  # values over Q may share any one field
    names = draw(st.permutations(template.param_names()))
    return template, disc, {name: draw(_scalars(field)) for name in names}


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_expand_matches_the_model(case):
    template, _, values = case
    assert to_model(template.expand(values)) == ref_expand(template, to_model(values))


def _must_clash(template, name: str) -> bool:
    """Whether a value of another field named name meets a radical constant
    in its own factor: it multiplies one, or a nonzero constant in a factor
    with a radical constant term."""
    for factor in template.factors:
        terms = factor.all_terms()
        radical = any(t.const.disc for t in terms if t.param is None)
        if any(t.param == name and not t.const.is_zero and (radical or t.const.disc)
               for t in terms):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(_cases(discs=(-3, 5)), st.data())
def test_a_value_from_another_field_is_refused(case, data):
    """A template over Q(sqrt D), and one value over the other extension
    where it meets a radical constant within a factor."""
    template, disc, values = case
    names = [n for n in values if _must_clash(template, n)]
    assume(names)
    other = 5 if disc == -3 else -3
    values[data.draw(st.sampled_from(names))] = Scalar(data.draw(_RATS), 1, other)
    with pytest.raises(FieldMixError) as exc:
        template.expand(values)
    assert str(exc.value) in (f"cannot mix sqrt({disc}) and sqrt({other})",
                              f"cannot mix sqrt({other}) and sqrt({disc})")


F1 = "x^12 - a1*x^10 - 33*x^8 + 2*a1*x^6 - 33*x^4 - a1*x^2 + 1"

_MIXED = {
    "value-factor-first": ("(x^2 + a1*x + 1)*(x^2 + sqrt(-3))", {"a1": "sqrt(5)"},
                           "cannot mix sqrt(5) and sqrt(-3)"),
    "constant-factor-first": ("(x^2 + sqrt(-3))*(x^2 + a1*x + 1)", {"a1": "sqrt(5)"},
                              "cannot mix sqrt(-3) and sqrt(5)"),
    "constant-below": ("x^4 + a1*x^3 + sqrt(-3)*x + 1", {"a1": "sqrt(5)"},
                       "cannot mix sqrt(-3) and sqrt(5)"),
    "value-below": ("x^4 + sqrt(-3)*x^3 + a1*x + 1", {"a1": "sqrt(5)"},
                    "cannot mix sqrt(5) and sqrt(-3)"),
    # the values listed from a5 down; the x^2 coefficient a1 is met first
    "sum-block": ("x^12 + sum(i=1..5, a_i*x^(2*i)) + 1",
                  {"a5": "sqrt(5)", "a4": "0", "a3": "1/2", "a2": "0", "a1": "sqrt(-3)"},
                  "cannot mix sqrt(-3) and sqrt(5)"),
    "catalog-row": (f"(x^4 + 2*sqrt(-3)*x^2 + 1)*({F1})", {"a1": "1+sqrt(5)"},
                    "cannot mix sqrt(-3) and sqrt(5)"),
    "two-values": ("(x + a2)*(x^2 + a1*x + 1)", {"a1": "sqrt(-3)", "a2": "2*sqrt(5)"},
                   "cannot mix sqrt(5) and sqrt(-3)"),
    # (x + sqrt(5))*(x + sqrt(-3)) is met before sqrt(5) cancels
    "cancels-too-late": ("(x + sqrt(5))*(x + a1)*(x - sqrt(5))", {"a1": "sqrt(-3)"},
                         "cannot mix sqrt(5) and sqrt(-3)"),
    # a rational factor keeps the product's radical: it neither cancels nor resets it
    "across-a-rational-factor": ("(x + sqrt(5))*(x^2 + 1)*(x + a1)", {"a1": "sqrt(-3)"},
                                 "cannot mix sqrt(5) and sqrt(-3)"),
}


@pytest.mark.parametrize("text,params,message", _MIXED.values(), ids=_MIXED.keys())
def test_mixed_fields_name_the_first_field_met(text, params, message):
    values = {name: parse_scalar(v) for name, v in params.items()}
    with pytest.raises(FieldMixError) as exc:
        parse_template(text).expand(values)
    assert str(exc.value) == message


def test_a_radical_multiple_meets_its_value_after_its_constant():
    """sqrt(5)*a1, built directly (the grammar writes rational multiples of
    a parameter only): the constant's field is named first, and at
    a1 = sqrt(5) the coefficient is rational, so the factor's other
    coefficients may lie in Q(sqrt -3)."""
    t = EquationTemplate([Factor((Term(ONE, None, 2), Term(Scalar(0, 1, 5), "a1", 1),
                                  Term(ONE, "a2", 0)))])
    with pytest.raises(FieldMixError) as exc:
        t.expand({"a1": Scalar(0, 1, -3), "a2": ONE})
    assert str(exc.value) == "cannot mix sqrt(5) and sqrt(-3)"
    assert t.expand({"a1": Scalar(0, 1, 5), "a2": Scalar(0, 1, -3)}) == \
        parse_poly_string("x^2 + 5*x + sqrt(-3)")


_CANCELS = {
    # the first two factors multiply to x^8 - 3*x^4 + 1
    "g5-c4-1": ("(x^4 + a1*x^2 + 1)*(x^4 + a2*x^2 + 1)*(x^4 + a3*x^2 + 1)",
                {"a1": "sqrt(5)", "a2": "-sqrt(5)", "a3": "sqrt(-3)"},
                "(x^8 - 3*x^4 + 1)*(x^4 + sqrt(-3)*x^2 + 1)"),
    "constant-factors": ("(x + sqrt(5))*(x - sqrt(5))*(x + a1)", {"a1": "sqrt(-3)"},
                         "(x^2 - 5)*(x + sqrt(-3))"),
    "denominators": ("(x + sqrt(5))*(x - sqrt(5))*(x^2 + a1*x + a2)",
                     {"a1": "1/3", "a2": "sqrt(-3)"}, "(x^2 - 5)*(x^2 + 1/3*x + sqrt(-3))"),
    # a rational factor between the cancellation and the other field
    "rational-between": ("(x + sqrt(5))*(x - sqrt(5))*(x^2 + 1)*(x + a1)", {"a1": "sqrt(-3)"},
                         "(x^2 - 5)*(x^2 + 1)*(x + sqrt(-3))"),
}


@pytest.mark.parametrize("text,params,expected", _CANCELS.values(), ids=_CANCELS.keys())
def test_a_product_whose_radical_cancels_is_rational(text, params, expected):
    values = {name: parse_scalar(v) for name, v in params.items()}
    assert parse_template(text).expand(values) == parse_poly_string(expected)


_TWO_FIELDS = st.sampled_from([
    Scalar(0, 1, 5), Scalar(0, -1, 5), Scalar(1, 1, 5), Scalar(1, -1, 5), Scalar(0, Fraction(1, 2), 5),
    Scalar(0, Fraction(-1, 2), 5), Scalar(0, 1, -3), Scalar(0, -1, -3), Scalar(Fraction(1, 3), 1, -3),
    Scalar(Fraction(1, 3), -1, -3), Scalar(2), Scalar(Fraction(1, 2)), Scalar(0)])


@settings(max_examples=200, deadline=None)
@given(_cases(), st.data())
def test_values_of_two_fields_expand_as_the_model(case, data):
    """Values of Q(sqrt 5) and Q(sqrt -3), conjugates among them: where
    ``expand`` does not raise FieldMixError it gives the model's polynomial
    (so where the model raises, it raises)."""
    template, _, values = case
    values = {name: data.draw(_TWO_FIELDS) for name in values}
    try:
        got = to_model(template.expand(values))
    except FieldMixError:
        return
    assert got == ref_expand(template, to_model(values))


def test_a_value_that_meets_only_zero_constants_joins_no_field():
    t = parse_template("x^2 + 0*a1*x + sqrt(-3)")
    assert t.expand({"a1": parse_scalar("sqrt(5)")}) == t.expand({"a1": 0})
    t = parse_template("x^2 + 0*a1*x + a2")
    for a1, a2 in (("sqrt(5)", "sqrt(-3)"), ("sqrt(-3)", "sqrt(5)")):
        assert t.expand({"a1": parse_scalar(a1), "a2": parse_scalar(a2)}) == \
            t.expand({"a1": 0, "a2": parse_scalar(a2)})
