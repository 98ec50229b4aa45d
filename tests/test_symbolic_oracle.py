"""Differential tests of ``EquationTemplate.symbolic`` against a reference.

The reference below is the nested expansion the package used before: each
factor grouped into exp -> {monomial: coefficient}, multiplied in a
four-level loop over exponents and monomials, then two cleanup passes that
drop zero coefficients and emptied exponents.  ``symbolic`` keeps one flat
map (exp, monomial) -> coefficient instead.  The two must return equal
dicts on every templated catalog row and on generated templates over Q,
Q(sqrt -3) and Q(sqrt 5) with sum blocks, zero constants, coefficients that
cancel and parameters shared between factors.  The same inputs check that
no support map holds a zero constant, which ``catalog._specializes`` needs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packaged_catalog
from seacurves.catalog.templates import EquationTemplate, Factor, SumBlock, Term, parse_template
from seacurves.scalars import ONE, Scalar


def ref_symbolic(template: EquationTemplate) -> dict:
    acc = {0: {(): ONE}}
    for factor in template.factors:
        fmap = {}
        for term in factor.all_terms():
            mono = (term.param,) if term.param else ()
            slot = fmap.setdefault(term.exp, {})
            slot[mono] = slot.get(mono, Scalar(0)) + term.const
        new = {}
        for e1, poly1 in acc.items():
            for e2, poly2 in fmap.items():
                target = new.setdefault(e1 + e2, {})
                for m1, c1 in poly1.items():
                    for m2, c2 in poly2.items():
                        mono = tuple(sorted(m1 + m2))
                        target[mono] = target.get(mono, Scalar(0)) + c1 * c2
        acc = {e: {m: c for m, c in poly.items() if not c.is_zero} for e, poly in new.items()}
        acc = {e: poly for e, poly in acc.items() if poly}
    return acc


def zero_free_support(template: EquationTemplate) -> bool:
    """catalog._specializes reads an exponent missing from a support map as
    a zero coefficient, which is sound only while no map has a ("const", 0)
    entry."""
    support = template.support_classification()
    return all(c == "param" or not c[1].is_zero for c in support.values())


def test_symbolic_matches_reference_on_every_catalog_row():
    rows = [r for r in packaged_catalog() if r.template is not None]
    assert len(rows) == 208
    for r in rows:
        assert r.template.symbolic() == ref_symbolic(r.template), r.id
        assert zero_free_support(r.template), r.id


_CASES = {
    "sum_block": "x^12 + sum(i=1..5, a_i*x^(2*i)) + 1",
    "sum_block_product": "x*(x^10 + sum(i=1..4, a_i*x^(2*i)) + 1)*(x^2 - 1)",
    "constants_q": "(3/2*x^4 - 1/3*x + 7)*(x^2 + a1*x - 5/4)",
    "constants_sqrt_m3": "(x^4 + 2*sqrt(-3)*x^2 + 1)*(x^6 - a1*x^3 + (1-sqrt(-3)))",
    "constants_sqrt_5": "((2+sqrt(5))*x^4 + a1*x^2 + sqrt(5))*(x^2 - sqrt(5)*x + a2)",
    "cancelling": "(x^6 - 1)*(x^6 + a1*x^3 + 1)",
    "shared_param": "(x^2 + a1*x + 1)*(x^2 + a1*x - 1)",
    "params_out_of_order": "(x^2 + a2*x + 1)*(x^2 + a1*x + 1)",
    "zero_constants": "(x^4 + 0*x^2 + 0*a1*x + 1)*(x^3 + 0*x + a2)",
}


@pytest.mark.parametrize("text", _CASES.values(), ids=_CASES.keys())
def test_symbolic_matches_reference(text):
    t = parse_template(text)
    assert t.symbolic() == ref_symbolic(t)
    assert zero_free_support(t)


def test_symbolic_cancels_and_sorts_monomials():
    # the x^6 coefficient of (x^6 - 1)(x^6 + a1 x^3 + 1) vanishes identically
    assert 6 not in parse_template(_CASES["cancelling"]).symbolic()
    # a monomial is a sorted tuple whichever factor contributes each name
    assert parse_template(_CASES["params_out_of_order"]).symbolic()[2] == {
        (): Scalar(2), ("a1", "a2"): ONE}
    assert parse_template(_CASES["shared_param"]).symbolic()[2] == {("a1", "a1"): ONE}


_RATS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def templates(draw):
    """One to three factors over one field; after the nonzero constant lead
    each term is a constant (zero allowed), a multiple (zero allowed) of a
    parameter from a pool of three, so factors share parameters, or a
    sum block."""
    disc = draw(st.sampled_from((0, -3, 5)))
    consts = _RATS.map(Scalar)
    if disc:
        consts = consts | st.builds(lambda a, b: Scalar(a, b, disc), _RATS, _RATS)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        top, *rest = sorted(draw(st.lists(st.integers(0, 7), min_size=1, max_size=5,
                                          unique=True)), reverse=True)
        items = [Term(draw(consts.filter(lambda c: not c.is_zero)), None, top)]
        if top >= 3 and draw(st.booleans()):
            items.append(SumBlock(1, 2, 1, top - 3))  # x^(top-2), x^(top-1)
            rest = [e for e in rest if e < top - 2]
        for e in rest:
            if draw(st.booleans()):
                items.append(Term(draw(consts), None, e))
            else:
                items.append(Term(draw(_RATS.map(Scalar)), f"a{draw(st.integers(1, 3))}", e))
        factors.append(Factor(tuple(items)))
    return EquationTemplate(factors)


@settings(max_examples=300, deadline=None)
@given(templates())
def test_symbolic_matches_reference_on_generated_templates(template):
    assert template.symbolic() == ref_symbolic(template)
    assert zero_free_support(template)
