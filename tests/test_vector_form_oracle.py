"""Differential tests of forms that carry their cleared vectors.

Forms keep ``(den, A, B, disc)`` and add, scale, multiply, substitute,
differentiate and transvect on those integer vectors.  Each result is
checked against the model of ``reference``, where a form is a tuple of
Fraction-pair scalars: products against ``ref_product``, the GL2
substitution against ``ref_moebius_act``, derivatives against
``ref_partial_derivative``, transvectants against ``ref_transvect``, sums
and scalings term by term, printing against ``ref_form_repr``, and the
absolute invariants against ``ref_ratios``.  Over Q (non-integer
rationals), Q(sqrt -3) and Q(sqrt 5), with zero forms and forms whose sqrt
part cancels, the package must agree with the model on ``repr``,
``coeffs``, ``to_json``, ``==`` and every operation, and equal forms must
hash equally however they were built.

The guard tests pin the kernel contract: ``transvect`` on kernel-built forms
never clears, and an invariant system builds Scalars once per entry.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import spy
from reference import (assert_ratios, coefficients, from_model, ref_form_repr, ref_moebius_act,
                       ref_partial_derivative, ref_product, ref_transvect, to_model)
from seacurves import forms
from seacurves import invariants as inv
from seacurves.forms import (BinaryForm, DegreeError, Matrix2, UnivariatePoly, moebius_act,
                             partial_derivative)
from seacurves.scalars import Scalar, rational
from seacurves.transvection import transvect

MAX_DEG = 8


# -- strategies ---------------------------------------------------------------------------------

HEIGHT = 10 ** 20  # numerators reach multi-limb integers


def coeff_lists(disc: int, degree: int):
    return st.lists(coefficients(disc, HEIGHT), min_size=degree + 1, max_size=degree + 1)


@st.composite
def cases(draw):
    """(disc, f, g, c, M): two coefficient lists over one field (one of
    them possibly rational), a scalar and an invertible matrix."""
    disc = draw(st.sampled_from([0, -3, 5]))
    n = draw(st.integers(0, MAX_DEG))
    m = draw(st.sampled_from([n, draw(st.integers(0, MAX_DEG))]))
    f = draw(coeff_lists(disc, n))
    g = draw(coeff_lists(draw(st.sampled_from([0, disc])), m))
    c = draw(coefficients(disc, HEIGHT))
    M = Matrix2(*(draw(coefficients(disc, HEIGHT)) for _ in range(4)))
    if M.det().is_zero:
        M = Matrix2(1, draw(coefficients(disc, HEIGHT)), 0, 1)
    return disc, f, g, c, M


def conj(s: Scalar) -> Scalar:
    return Scalar(s.a, -s.b, s.disc)


def agree(new: BinaryForm, ref: tuple):
    """new is the model form ref by every observable, and equals and hashes
    as the same form built from Scalars."""
    degree = len(ref) - 1
    assert isinstance(new, BinaryForm)
    assert repr(new) == ref_form_repr(ref)
    assert new.degree == degree and to_model(new) == ref
    assert new.to_json() == {"degree": degree, "coeffs": [str(c) for c in ref]}
    assert new.is_zero == (not any(ref))
    built = BinaryForm(degree, from_model(ref))
    assert new == built and hash(new) == hash(built)
    if degree == 0:
        assert to_model(new.constant_value()) == ref[0]


def both(coeffs):
    return BinaryForm(len(coeffs) - 1, coeffs), to_model(coeffs)


def add(u: tuple, v: tuple) -> tuple:
    return tuple(x + y for x, y in zip(u, v))


def scale(c, u: tuple) -> tuple:
    return tuple(c * x for x in u)


# -- the differential tests ---------------------------------------------------------------------


@given(cases())
@example((5, [Scalar(0)] * 4, [Scalar(0)] * 4, Scalar(0), Matrix2(1, 0, 0, 1)))
@example((-3, [Scalar(1, 2, -3), rational(1, 2), Scalar(0, rational(3, 4), -3)],
          [rational(2, 3)] * 3, Scalar(rational(1, 2), 1, -3), Matrix2(0, 1, 1, 0)))
@settings(max_examples=80, deadline=None)
def test_vector_forms_match_coefficient_forms(case):
    disc, fc, gc, c, M = case
    f, rf = both(fc)
    g, rg = both(gc)
    rc, rM = to_model(c), to_model((M.a, M.b, M.c, M.d))
    for new, ref in ((f, rf), (g, rg)):
        agree(new, ref)
        agree(-new, scale(-1, ref))
        agree(new.scale(c), scale(rc, ref))
        agree(c * new, scale(rc, ref))
        agree(moebius_act(M, new), ref_moebius_act(rM, ref))
        for var in ("X", "Z"):
            for order in range(new.degree + 2):
                agree(partial_derivative(new, var, order), ref_partial_derivative(ref, var, order))
    assert (f == g) == (rf == rg)
    agree(f * g, ref_product(rf, rg))
    if f.degree == g.degree:
        agree(f + g, add(rf, rg))
        agree(f - g, add(rf, scale(-1, rg)))
        agree(f - f, add(rf, scale(-1, rf)))
    # kernel-built operands: a chain that never read coeffs
    h, rh = f.scale(c) * g, ref_product(scale(rc, rf), rg)
    for r in range(min(f.degree, g.degree) + 1):
        agree(transvect(f, g, r), ref_transvect(rf, rg, r))
        agree(transvect(h, f, r), ref_transvect(rh, rf, r))
        agree(transvect(h, h, r), ref_transvect(rh, rh, r))


@given(st.sampled_from([-3, 5]).flatmap(
    lambda disc: st.integers(0, MAX_DEG).flatmap(lambda d: coeff_lists(disc, d))))
@settings(max_examples=40, deadline=None)
def test_sqrt_part_cancelling_leaves_a_rational_form(coeffs):
    """f times its conjugate is rational: its B vector and field are dropped."""
    f, rf = both(coeffs)
    fbar, rfbar = both([conj(s) for s in coeffs])
    out = f * fbar
    agree(out, ref_product(rf, rfbar))
    assert out.vec[2] is None and out.vec[3] == 0
    assert out == BinaryForm(out.degree, [Scalar(s.a) for s in out.coeffs])
    for r in range(f.degree + 1):
        agree(transvect(f, fbar, r) + transvect(fbar, f, r),
              add(ref_transvect(rf, rfbar, r), ref_transvect(rfbar, rf, r)))


def test_zero_forms_are_canonical():
    for d in range(4):
        zero = to_model([0] * (d + 1))
        z = BinaryForm.zero(d)
        assert z.vec == (1, (0,) * (d + 1), None, 0)
        agree(z, zero)
        f = BinaryForm(d, [Scalar(rational(1, 3), 2, 5)] * (d + 1))
        agree(f - f, zero)
        agree(f.scale(0), zero)
    with pytest.raises(DegreeError):
        BinaryForm.zero(-1)


def test_vectors_are_reduced_by_content():
    f = BinaryForm(2, [rational(2, 3), rational(4, 3), 2])
    assert f.vec == (3, (2, 4, 6), None, 0)
    g = f * BinaryForm(0, [rational(3, 2)])
    assert g.vec == (1, (1, 2, 3), None, 0) and g == BinaryForm(2, [1, 2, 3])
    h = BinaryForm(1, [Scalar(rational(1, 2), rational(1, 4), -3), 1])
    assert h.vec == (4, (2, 4), (1, 0), -3)


@st.composite
def scalar_lists(draw):
    """Coefficient lists over Q, Q(sqrt -3) or Q(sqrt 5), empty or not, with
    up to three trailing zeros and parts of up to 20 or 4300 digits."""
    disc = draw(st.sampled_from([0, -3, 5]))
    height = draw(st.sampled_from([HEIGHT, 10 ** 4300 - 1]))
    coeffs = draw(st.lists(coefficients(disc, height), max_size=MAX_DEG + 1))
    return coeffs + [Scalar(0)] * draw(st.integers(0, 3))


@given(scalar_lists())
@example([])
@example([Scalar(0)] * 3)
@example([Scalar(rational(10 ** 4299, 7), -(10 ** 4299 + 1), 5), Scalar(0, 3, 5), Scalar(0)])
@settings(max_examples=120, deadline=None)
def test_values_built_from_scalars_take_the_canonical_step(coeffs):
    """A form or polynomial built from Scalars holds the vector that
    ``_from_vec`` makes of the same Scalars cleared: one canonical step."""
    cleared = forms._clear(coeffs)
    built = [(UnivariatePoly(coeffs), UnivariatePoly._from_vec(*cleared))]
    if coeffs:
        built.append((BinaryForm(len(coeffs) - 1, coeffs), BinaryForm._from_vec(*cleared)))
    for new, via_vec in built:
        assert new.vec == via_vec.vec and new == via_vec and hash(new) == hash(via_vec)
    poly, n = built[0][0], built[0][0].degree + 1  # the polynomial has no trailing zero
    assert poly.coeffs == tuple(coeffs[:n]) and not any(coeffs[n:]) and (not n or coeffs[n - 1])


def _vector(kind, entries):
    return inv.InvariantVector(kind, {n: (v, 1, n) for n, v in entries.items()}, {}, frozenset())


@given(st.sampled_from([0, -3, 5]).flatmap(
    lambda disc: st.lists(coefficients(disc, HEIGHT), min_size=4, max_size=4)))
@example([Scalar(1), Scalar(2), Scalar(3), Scalar(0)])
@example([Scalar(0), Scalar(rational(1, 2), 1, 5), Scalar(0, 1, 5), Scalar(rational(-3, 7))])
@settings(max_examples=60, deadline=None)
def test_ratios_match_scalar_arithmetic(values):
    """Every table of the package on arbitrary entries; a zero denominator
    is undefined, a missing ingredient unavailable."""
    tables = (inv._SEXTIC_ABSOLUTE, inv._OCTAVIC_ABSOLUTE, inv._GENERAL_ABSOLUTE,
              inv._GENUS10_ABSOLUTE)
    for table in tables:
        names = sorted({n for parts in table.values() for part in parts for n in part})
        # every fifth name missing, so some ratios are unavailable
        entries = {n: values[i % 4] for i, n in enumerate(names) if i % 5 != 4}
        assert_ratios(inv._ratios(_vector("t", entries), table), entries, table)


def test_ratio_with_zero_denominator_is_undefined():
    entries = {"J2": Scalar(rational(1, 2), 3, -3), "J4": rational(2, 5),
               "J6": Scalar(0, 1, -3), "J10": Scalar(0)}
    got = inv._ratios(_vector("sextic", entries), inv._SEXTIC_ABSOLUTE)
    assert_ratios(got, entries, inv._SEXTIC_ABSOLUTE)
    assert got.undefined == {"t1", "t2", "t3"} and not got.defined_items()


@pytest.mark.parametrize("entries", [
    # J10, the denominator of every sextic ratio, a pure radical
    {"J2": rational(3, 2), "J4": Scalar(1, 2, -3), "J6": Scalar(5),
     "J10": Scalar(0, rational(2, 7), -3)},
    # J2 = 0: every numerator vanishes, so each value is 0 and defined
    {"J2": Scalar(0), "J4": Scalar(1, 1, -3), "J6": Scalar(4),
     "J10": Scalar(rational(1, 3), 1, -3)},
    # J10 with a rational and a radical part, over a real field (negative norm)
    {"J2": Scalar(1, 3, 5), "J4": rational(-2, 9), "J6": Scalar(0, 1, 5),
     "J10": Scalar(rational(1, 2), rational(-3, 4), 5)},
], ids=["radical-bottom", "zero-top", "mixed-bottom"])
def test_ratio_edge_cases(entries):
    got = inv._ratios(_vector("sextic", entries), inv._SEXTIC_ABSOLUTE)
    assert_ratios(got, entries, inv._SEXTIC_ABSOLUTE)
    assert not got.undefined and len(got.defined_items()) == 3


# -- guards on the kernel contract --------------------------------------------------------------


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_transvect_on_kernel_built_forms_never_clears(monkeypatch, disc):
    f = BinaryForm(6, [Scalar(rational(i - 3, i + 1), i % 2 if disc else 0, disc)
                       for i in range(7)])
    g = BinaryForm(6, [rational(5 - i, 2) for i in range(7)])
    h, k = transvect(f, g, 2), f * g
    calls = spy(monkeypatch, forms, "_clear")
    for r in range(7):
        transvect(h, h, r)
        transvect(h, k, r)
    transvect(transvect(h, k, 3), h, 4)
    assert calls == []


@pytest.mark.parametrize("system, degree", [
    (inv.sextic_invariants, 6), (inv.octavic_invariants, 8),
    (inv.decimic_invariants, 10), (inv.general_invariants, 12),
])
def test_invariant_systems_build_scalars_once_per_entry(monkeypatch, system, degree):
    f = BinaryForm(degree, [rational(i * i - 7, i + 2) for i in range(degree + 1)])
    calls = spy(monkeypatch, forms, "_to_scalars")
    v = system(f)
    assert len(calls) == len(v.names())
    assert all(len(acc[0]) == 1 for acc, *_ in calls)


def test_coeffs_are_built_only_when_read_once_per_read(monkeypatch):
    """A form keeps only its vector: no Scalar is built before coeffs is
    read, and each read builds one fresh tuple, equal to the last."""
    assert forms._Cleared.__slots__ == ("vec",)
    f = BinaryForm(3, [rational(1, 2), 0, Scalar(1, 1, 5), 2])
    calls = spy(monkeypatch, forms, "_to_scalars")
    g = transvect(f, f * f, 2)
    assert calls == []
    first, second = g.coeffs, g.coeffs
    assert first == second and first is not second and len(calls) == 2
    assert repr(g) and g.to_json() and len(calls) == 4

