"""Differential tests of every form product against the model.

``transvect`` and both ``__mul__`` methods clear denominators and convolve
integers; ``reference.ref_product`` multiplies coefficient by coefficient
and ``reference.ref_transvect`` sums the r + 1 products of partial
derivatives that define (f, g)^r.  The two must agree exactly over Q, over
Q(sqrt -3) and Q(sqrt 5), and when a rational operand meets an extension
one.  ``transvect`` is one weighted sum over a cached table of weights per
(n, m, r): a self-transvectant ``(f, f)^r`` is zero for odd r, built from no
table, and reads the symmetric half-table for even r > 0; operands that
are equal only up to a scalar read the full table; at r = 0 every
transvectant is the product ``f * g`` and reads no table.  No transvectant
takes a partial derivative (``forms._partial``).
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import seacurves.forms
from reference import (FIELD_PAIRS, coefficients, ref_form_repr, ref_product, ref_transvect,
                       to_model)
from seacurves import transvection
from seacurves.forms import BinaryForm, UnivariatePoly
from seacurves.scalars import FieldMixError, Scalar, rational, sqrt_ext
from seacurves.transvection import transvect

MAX_DEG = 12


HEIGHT = 10 ** 20  # numerators reach multi-limb integers


def forms(disc: int, degree: int):
    return st.lists(coefficients(disc, HEIGHT), min_size=degree + 1, max_size=degree + 1).map(
        lambda cs: BinaryForm(degree, cs)
    )


@st.composite
def form_pairs(draw, max_deg: int = MAX_DEG):
    df, dg = draw(st.sampled_from(FIELD_PAIRS))
    f = draw(forms(df, draw(st.integers(0, max_deg))))
    g = draw(forms(dg, draw(st.integers(0, max_deg))))
    return f, g


@given(form_pairs())
@settings(max_examples=60, deadline=None)
def test_transvect_matches_reference_for_every_r(pair):
    f, g = pair
    rf, rg = to_model(f), to_model(g)
    for r in range(min(f.degree, g.degree) + 1):
        assert to_model(transvect(f, g, r)) == ref_transvect(rf, rg, r)


@contextmanager
def _table_reads():
    """Spy on the weight tables ``transvect`` reads; the spy returns the
    kinds of the tables read so far ("full" or "half", the flag of the cache
    key) and the number of ``forms._partial`` calls."""
    with mock.patch.object(transvection, "_cached", wraps=transvection._cached) as tables, \
            mock.patch.object(seacurves.forms, "_partial",
                              wraps=seacurves.forms._partial) as partial:
        yield lambda: (["half" if c.args[0][3] else "full" for c in tables.call_args_list],
                       partial.call_count)


def _one_field_forms():
    return st.sampled_from([0, -3, 5]).flatmap(
        lambda disc: st.integers(0, MAX_DEG).flatmap(lambda d: forms(disc, d)))


@given(_one_field_forms())
@settings(max_examples=40, deadline=None)
def test_self_transvectant_matches_reference(f):
    # (f, f)^r is zero for odd r, with no table, reads the half-table for
    # even r > 0 and no table at r = 0; an equal form built from distinct
    # Scalars takes the same path
    copy = BinaryForm(f.degree, [Scalar(c.a, c.b, c.disc) for c in f.coeffs])
    rf = to_model(f)
    for r in range(f.degree + 1):
        expected = ref_transvect(rf, rf, r)
        for g in (f, copy):
            with _table_reads() as reads:
                out = transvect(f, g, r)
            assert to_model(out) == expected and repr(out) == ref_form_repr(expected)
            assert reads() == ([] if r % 2 or r == 0 else ["half"], 0)


# f and 2f (and f/2) clear to the same integer vector over other denominators
HALVES = BinaryForm(3, [Scalar(1), rational(1, 2), Scalar(0), rational(3, 2)])


@given(_one_field_forms())
@example(HALVES)
@settings(max_examples=30, deadline=None)
def test_near_equal_operands_take_the_full_sum(f):
    assume(not f.is_zero)
    for g in (f.scale(2), f.scale(rational(1, 2))):
        rf, rg = to_model(f), to_model(g)
        for r in range(f.degree + 1):
            with _table_reads() as reads:
                out = transvect(f, g, r)
            expected = ref_transvect(rf, rg, r)
            assert to_model(out) == expected and repr(out) == ref_form_repr(expected)
            assert reads() == ([] if r == 0 else ["full"], 0)


@given(form_pairs())
@settings(max_examples=80, deadline=None)
def test_form_product_matches_reference(pair):
    f, g = pair
    assert to_model(f * g) == ref_product(to_model(f), to_model(g))


@given(form_pairs())
@settings(max_examples=80, deadline=None)
def test_poly_product_matches_reference(pair):
    p, q = UnivariatePoly(pair[0].coeffs), UnivariatePoly(pair[1].coeffs)
    assert to_model(p * q) == ref_product(to_model(p), to_model(q))


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_zero_operands(disc):
    f = BinaryForm(4, [Scalar(1, 2, disc) if disc else rational(1, 3)] * 5)
    for z in (BinaryForm.zero(0), BinaryForm.zero(3), BinaryForm.zero(6)):
        assert (f * z).is_zero and (z * f).degree == 4 + z.degree
        for r in range(min(z.degree, 4) + 1):
            out = transvect(z, f, r)
            assert out.is_zero and to_model(out) == ref_transvect(to_model(z), to_model(f), r)
    p = UnivariatePoly(f.coeffs)
    assert p * UnivariatePoly(()) == UnivariatePoly(()) == UnivariatePoly(()) * p


def test_mixed_radicals_raise():
    s3, s5 = sqrt_ext(1, -3), sqrt_ext(1, 5)
    f = BinaryForm(2, [s3, Scalar(1) + s3, s3])
    g = BinaryForm(2, [s5, s5, Scalar(2) + s5])
    for r in range(3):
        with pytest.raises(FieldMixError):
            transvect(f, g, r)
    with pytest.raises(FieldMixError):
        f * g
    with pytest.raises(FieldMixError):
        UnivariatePoly(f.coeffs) * UnivariatePoly(g.coeffs)
