import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seacurves.catalog.templates import (
    EquationTemplate,
    Factor,
    SumBlock,
    Term,
    TemplateError,
    TemplateParamError,
    parse_poly_string,
    parse_template,
    poly_to_string,
)
from seacurves.forms import UnivariatePoly
from seacurves.scalars import ONE, Scalar, rational, sqrt_ext

F1 = "x^12 - a1*x^10 - 33*x^8 + 2*a1*x^6 - 33*x^4 - a1*x^2 + 1"


def test_parse_simple_poly():
    p = parse_poly_string("x^11+1")
    assert p == UnivariatePoly([1] + [0] * 10 + [1])
    assert parse_poly_string("x^2 - 1") == UnivariatePoly([-1, 0, 1])
    assert parse_poly_string("3/2*x - 7") == UnivariatePoly([-7, rational(3, 2)])


def test_parse_radical_coefficient():
    p = parse_poly_string("x^4 + 2*sqrt(-3)*x^2 + 1")
    assert p.coeffs[2] == sqrt_ext(2, -3)


def test_poly_string_roundtrip():
    for text in ("x^11 + 1", "x^2 - 1", "x^12 - 33*x^8 - 33*x^4 + 1",
                 "x^20 - 228*x^15 + 494*x^10 + 228*x^5 + 1"):
        p = parse_poly_string(text)
        assert poly_to_string(p) == text
        assert parse_poly_string(poly_to_string(p)) == p


def test_sum_block_template():
    t = parse_template("x^12 + sum(i=1..5, a_i*x^(2*i)) + 1")
    assert t.degree == 12
    assert t.param_names() == ("a1", "a2", "a3", "a4", "a5")
    p = t.expand({"a1": 1, "a2": 0, "a3": 2, "a4": 0, "a5": -1})
    assert p.coeffs[2] == Scalar(1) and p.coeffs[6] == Scalar(2)
    assert p.coeffs[10] == Scalar(-1) and p.degree == 12


def test_product_template():
    t = parse_template("x*(x^4 + a1*x^2 + 1)*(x^4 + a2*x^2 + 1)")
    assert t.degree == 9
    assert t.param_names() == ("a1", "a2")
    p = t.expand({"a1": 2, "a2": -2})
    assert p.degree == 9 and p.coeffs[0].is_zero


def test_param_mismatch():
    t = parse_template("x^12 + a1*x^6 + 1")
    with pytest.raises(TemplateParamError):
        t.expand({})
    with pytest.raises(TemplateParamError):
        t.expand({"a1": 1, "a2": 2})


def test_to_string_canonical_roundtrip():
    for text in (F1,
                 "x*(x^10 + sum(i=1..9, a_i*x^i) + 1)",
                 "x^12 + sum(i=1..3, a_i*x^(3*i)) + 1",
                 "(x^4 + 2*sqrt(-3)*x^2 + 1)*(" + F1 + ")",
                 "x^12 + a2*x^8 + a1*x^4 + 1"):
        t = parse_template(text)
        assert t.to_string() == text
        assert parse_template(t.to_string()) == t


def test_to_string_parenthesizes_one_term_factors():
    for text, expected in (("(2*x^3)*x", "(2*x^3)*x"),
                           ("(-(1-sqrt(5))*x)*x", "((-1+sqrt(5))*x)*x"),
                           ("(2*x^3)", "(2*x^3)"), ("(sqrt(5)*x)*(x^2 + 1)", None),
                           ("-x^3*x*(x + 1)", "-x^3*x*(x + 1)")):
        t = parse_template(text)
        assert len(t.factors[0].all_terms()) == 1
        assert t.to_string() == (expected or text)
        assert parse_template(t.to_string()) == t


_RATS = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_NONZERO = _RATS.filter(bool).map(Scalar)


@st.composite
def templates(draw):
    """Templates of one to three factors over Q, Q(sqrt -3) or Q(sqrt 5):
    each factor leads with a nonzero constant and may carry constant terms,
    parameter terms with rational multipliers and one sum block."""
    disc = draw(st.sampled_from((0, -3, 5)))
    consts = _NONZERO
    if disc:
        consts = _NONZERO | st.builds(lambda a, b: Scalar(a, b, disc), _RATS, _RATS.filter(bool))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        top, *rest = sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4,
                                          unique=True)), reverse=True)
        items = [Term(draw(consts), None, top)]
        if top >= 4 and draw(st.booleans()):
            items.append(SumBlock(1, draw(st.integers(1, 2)), 1, top - 3))  # x^(top-2), x^(top-1)
            rest = [e for e in rest if e < top - 2]
        for e in rest:
            if draw(st.booleans()):
                items.append(Term(draw(consts), None, e))
            else:
                items.append(Term(draw(_NONZERO), f"a{draw(st.integers(1, 12))}", e))
        factors.append(Factor(tuple(items)))
    return EquationTemplate(factors)


@settings(max_examples=400, deadline=None)
@given(templates())
def test_to_string_roundtrip(template):
    assert parse_template(template.to_string()) == template


def test_f1_expansion():
    t = parse_template(F1)
    assert t.param_names() == ("a1",)
    p = t.expand({"a1": 0})
    assert poly_to_string(p) == "x^12 - 33*x^8 - 33*x^4 + 1"


def test_symbolic_cancellation():
    # (x^6 - 1)(x^6 + a1 x^3 + 1): the x^6 coefficient cancels identically
    t = parse_template("(x^6 - 1)*(x^6 + a1*x^3 + 1)")
    support = t.support_classification()
    assert 6 not in support
    assert support[9] == "param" and support[3] == "param"
    assert support[12] == ("const", Scalar(1))
    assert support[0] == ("const", Scalar(-1))


def test_declared_degree_stable_under_params():
    t = parse_template("(x^6 + a1*x^3 + 1)*(x^6 + a2*x^3 + 1)")
    for vals in ({"a1": 0, "a2": 0}, {"a1": 5, "a2": -5}, {"a1": 100, "a2": 1}):
        assert t.expand(vals).degree == t.degree == 12


def test_factor_keeps_its_own_order():
    """A factor sorts its items, so the leading-term rule sees the leading
    term whatever order the items are given in."""
    with pytest.raises(TemplateError, match="leading coefficient"):
        EquationTemplate([Factor((Term(ONE, None, 0), Term(ONE, "a1", 5)))])
    unsorted = Factor((Term(ONE, None, 0), Term(rational(2), None, 3), Term(ONE, None, 7)))
    assert unsorted == Factor((Term(ONE, None, 7), Term(rational(2), None, 3),
                               Term(ONE, None, 0)))
    template = EquationTemplate([unsorted])
    assert template.to_string() == "x^7 + 2*x^3 + 1"
    assert parse_template(template.to_string()) == template


def test_rejects_malformed():
    for bad in ("", "x^2 +", "x^2 + )", "sum(i=5..1, a_i*x^i)", "x^2 & 1",
                "x^2*", "(x+1)*(x-1)*",  # a dangling * is an empty factor
                "sum(i=1..1000000, a_i*x^i)",  # degree beyond MAX_DEGREE
                "x^" + "1" * 5000, "sum(i=1.." + "1" * 5000 + ", a_i*x^i)",  # long numerals
                # every factor's leading coefficient must be a nonzero constant
                "a1*x^3 + 1", "0*x^3 + x", "0*a1*x^3 + 1", "sum(i=1..3, a_i*x^i) + 1",
                "(x^2 + 1)*(a1*x + 1)",
                "x^3 - sum(i=1..2, a_i*x^i) + 1",  # a sum block cannot be negated
                # one term per exponent in a factor, a sum block's included
                "x^2 + x^2 + 1", "x^3 + sum(i=1..2, a_i*x^i) + x + 1",
                # one quadratic field per template
                "(x + sqrt(-3))*(x + sqrt(5))", "x^2 + sqrt(-3)*x + sqrt(5)",
                # digits are ASCII, and whitespace splits no numeral or name
                "x^\u0662 + 1", "x^1 1 + 1", "x^2 + a 1*x + 1"):
        with pytest.raises(TemplateError):
            parse_template(bad)
    with pytest.raises(TemplateError, match="template needs at least one factor"):
        EquationTemplate(())
    for bad in ("x^2 + a1*x + 1", "x^2 + a" + "1" * 5000 + "*x + 1"):
        with pytest.raises(TemplateError):
            parse_poly_string(bad)  # parameters are not concrete


def test_degree_is_checked_before_any_sum_block_term_is_built(monkeypatch):
    """A sum block past MAX_DEGREE is refused from its bounds alone: its
    terms, one per index, are never enumerated."""
    def refuse(block):
        raise AssertionError(f"terms of {block} built")

    monkeypatch.setattr(SumBlock, "terms", refuse)
    message = "template degree 1000000 exceeds 100"
    with pytest.raises(TemplateError, match=message):
        parse_template("sum(i=1..1000000, a_i*x^i) + 1")
    with pytest.raises(TemplateError, match=message):
        EquationTemplate([Factor((SumBlock(1, 1_000_000, 1, 0), Term(ONE, None, 0)))])


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: Factor((Term(ONE, None, 2), Term(ONE, None, -1))), TemplateError,
                 "negative exponent -1", id="negative-exponent"),
    pytest.param(lambda: Factor((Term(ONE, None, 2), Term(ONE, "zz", 1))), TemplateError,
                 "parameter name 'zz' is not 'a' followed by digits", id="param-name"),
    pytest.param(lambda: Factor((Term(ONE, None, 2), Term(ONE, "a1b", 1))), TemplateError,
                 "parameter name 'a1b'", id="param-name-suffix"),
    pytest.param(lambda: Factor(()), TemplateError, "empty factor", id="empty-factor"),
    pytest.param(lambda: Factor(("x",)), TemplateError,
                 "factor item 'x' is not a Term or SumBlock", id="item-type"),
    pytest.param(lambda: Factor((Term(1, None, 2),)), TypeError,
                 "term constant must be a Scalar, got 1", id="int-constant"),
    pytest.param(lambda: Factor((Term(ONE, None, 2.0),)), TypeError,
                 "term exponent must be an int, got 2.0", id="float-exponent"),
    pytest.param(lambda: Factor((Term(ONE, None, "2"), Term(ONE, None, 1))), TypeError,
                 "term exponent must be an int, got '2'", id="str-exponent"),
    pytest.param(lambda: SumBlock(1, 2.0, 1, 0), TypeError,
                 "sum block bound must be an int, got 2.0", id="sum-block-bound"),
])
def test_malformed_parts_are_refused(build, error, message):
    """A part built through the Python API that the grammar could not write
    back is refused when its factor is built, not met later by ``expand``
    or ``to_string``: x^-1 would overwrite the x^2 slot, and ``zz*x`` would
    print text that does not parse."""
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_a_cloned_template_expands_prints_and_names_as_the_original():
    """The term tuples and names stored at construction travel with a copy,
    and ``dataclasses.replace`` builds them afresh."""
    values = {"a1": rational(1, 2), "a2": -3, "a3": sqrt_ext(2, 5)}
    for warm in (False, True):
        t = parse_template("(x^4 + sqrt(5)*x + a3)*(x^6 + sum(i=1..2, a_i*x^(2*i)) + 1)")
        if warm:  # the cleared form and the support map built before the copy
            t.expand(values), t.support_classification()
        clones = (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t),
                  dataclasses.replace(t), dataclasses.replace(t, factors=list(t.factors)))
        for clone in clones:
            assert clone == t and hash(clone) == hash(t)
            assert clone.to_string() == t.to_string() and repr(clone) == repr(t)
            assert clone.param_names() == t.param_names() == ("a1", "a2", "a3")
            assert clone.expand(values) == t.expand(values)
            assert clone.support_classification() == t.support_classification()
