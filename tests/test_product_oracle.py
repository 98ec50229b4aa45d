"""Differential tests of every form product against schoolbook references.

The references below multiply coefficient by coefficient in ``Scalar``
arithmetic; ``transvect`` and both ``__mul__`` methods clear denominators and
convolve integers instead.  The two must agree exactly over Q, over
Q(sqrt -3) and Q(sqrt 5), and when a rational operand meets an extension one.
``ref_transvect`` is the r + 1-product algorithm ``transvect`` had before it
became one weighted sum over a cached table of weights per (n, m, r).  A
self-transvectant ``(f, f)^r`` is zero for odd r, built from no table, and
reads the symmetric half-table for even r; the reference sums all products,
and operands that are equal only up to a scalar must read the full table.
No transvectant takes a partial derivative (``forms._partial``).
"""

from contextlib import contextmanager
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import seacurves.forms
from seacurves import transvection
from seacurves.forms import BinaryForm, UnivariatePoly
from seacurves.scalars import FieldMixError, Scalar, rational, sqrt_ext
from seacurves.transvection import transvect

MAX_DEG = 12


def _falling(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def _partial(f: BinaryForm, r: int, k: int) -> list:
    """Coefficients of d^r f / dX^(r-k) dZ^k."""
    p = r - k
    n = f.degree
    return [
        f.coeffs[i + p] * (_falling(i + p, p) * _falling(n - i - p, k))
        for i in range(n - r + 1)
    ]


def ref_transvect(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    n, m = f.degree, g.degree
    deg = n + m - 2 * r
    tf = [_partial(f, r, k) for k in range(r + 1)]
    tg = [_partial(g, r, k) for k in range(r + 1)]
    acc = [Scalar(0)] * (deg + 1)
    for k in range(r + 1):
        sign_binom = comb(r, k) if k % 2 == 0 else -comb(r, k)
        for i, a in enumerate(tf[k]):
            if a.is_zero:
                continue
            for j, b in enumerate(tg[r - k]):
                if not b.is_zero:
                    acc[i + j] = acc[i + j] + sign_binom * a * b
    pref = rational(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m))
    return BinaryForm(deg, [pref * c for c in acc])


def ref_product(u, v) -> list:
    out = [Scalar(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a.is_zero:
            continue
        for j, b in enumerate(v):
            if not b.is_zero:
                out[i + j] = out[i + j] + a * b
    return out


# numerators up to 10^20 reach multi-limb integers; denominators up to 12
# make the common-denominator path non-trivial
_RATS = st.builds(
    rational,
    st.one_of(st.integers(-30, 30), st.integers(-10 ** 20, 10 ** 20)),
    st.integers(1, 12),
)


def scalars(disc: int):
    zero = st.just(Scalar(0))
    if disc == 0:
        return st.one_of(zero, _RATS)
    ext = st.builds(lambda a, b: Scalar(a.a, b.a, disc), _RATS, _RATS)
    return st.one_of(zero, _RATS, ext)


def forms(disc: int, degree: int):
    return st.lists(scalars(disc), min_size=degree + 1, max_size=degree + 1).map(
        lambda cs: BinaryForm(degree, cs)
    )


# (field of f, field of g): Q, both extensions, and rational x extension
FIELD_PAIRS = [(0, 0), (-3, -3), (5, 5), (0, -3), (5, 0)]


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
    for r in range(min(f.degree, g.degree) + 1):
        assert transvect(f, g, r) == ref_transvect(f, g, r)


@contextmanager
def _table_reads():
    """Spy on the weight tables ``transvect`` reads; the spy returns the
    builders of the tables read so far ("full" or "half") and the number of
    ``forms._partial`` calls."""
    names = {transvection._full_table: "full", transvection._half_table: "half"}
    with mock.patch.object(transvection, "_cached", wraps=transvection._cached) as tables, \
            mock.patch.object(seacurves.forms, "_partial",
                              wraps=seacurves.forms._partial) as partial:
        yield lambda: ([names[c.args[1]] for c in tables.call_args_list], partial.call_count)


def _one_field_forms():
    return st.sampled_from([0, -3, 5]).flatmap(
        lambda disc: st.integers(0, MAX_DEG).flatmap(lambda d: forms(disc, d)))


@given(_one_field_forms())
@settings(max_examples=40, deadline=None)
def test_self_transvectant_matches_reference(f):
    # (f, f)^r is zero for odd r, with no table, and reads the half-table for
    # even r; an equal form built from distinct Scalars takes the same path
    copy = BinaryForm(f.degree, [Scalar(c.a, c.b, c.disc) for c in f.coeffs])
    for r in range(f.degree + 1):
        expected = ref_transvect(f, f, r)
        for g in (f, copy):
            with _table_reads() as reads:
                out = transvect(f, g, r)
            assert out == expected and repr(out) == repr(expected)
            assert reads() == ([] if r % 2 else ["half"], 0)


# f and 2f (and f/2) clear to the same integer vector over other denominators
HALVES = BinaryForm(3, [Scalar(1), rational(1, 2), Scalar(0), rational(3, 2)])


@given(_one_field_forms())
@example(HALVES)
@settings(max_examples=30, deadline=None)
def test_near_equal_operands_take_the_full_sum(f):
    assume(not f.is_zero)
    for g in (f.scale(2), f.scale(rational(1, 2))):
        for r in range(f.degree + 1):
            with _table_reads() as reads:
                out = transvect(f, g, r)
            expected = ref_transvect(f, g, r)
            assert out == expected and repr(out) == repr(expected)
            assert reads() == (["full"], 0)


@given(form_pairs())
@settings(max_examples=80, deadline=None)
def test_form_product_matches_reference(pair):
    f, g = pair
    expected = BinaryForm(f.degree + g.degree, ref_product(f.coeffs, g.coeffs))
    assert f * g == expected


@given(form_pairs())
@settings(max_examples=80, deadline=None)
def test_poly_product_matches_reference(pair):
    p, q = UnivariatePoly(pair[0].coeffs), UnivariatePoly(pair[1].coeffs)
    expected = (
        UnivariatePoly(())
        if p.is_zero or q.is_zero
        else UnivariatePoly(ref_product(p.coeffs, q.coeffs))
    )
    assert p * q == expected


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_zero_operands(disc):
    f = BinaryForm(4, [Scalar(1, 2, disc) if disc else rational(1, 3)] * 5)
    for z in (BinaryForm.zero(0), BinaryForm.zero(3), BinaryForm.zero(6)):
        assert (f * z).is_zero and (z * f).degree == 4 + z.degree
        for r in range(min(z.degree, 4) + 1):
            out = transvect(z, f, r)
            assert out.is_zero and out == ref_transvect(z, f, r)
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
