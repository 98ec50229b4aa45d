"""Differential tests of forms that carry their cleared vectors.

``RefBinaryForm`` below is the coefficient-first ``BinaryForm`` the package
had before forms kept ``(den, A, B, disc)``: it stores Scalars, compares and
hashes them, and adds and scales in Scalar arithmetic.  ``ref_transvect``,
``ref_moebius_act`` and ``ref_partial_derivative`` are the kernels of that
time, which cleared each operand on every call and divided every output back
into Scalars; ``ref_ratios`` is the absolute-invariant step that multiplied
and divided Scalars.  Over Q (non-integer rationals), Q(sqrt -3) and
Q(sqrt 5), with zero forms and forms whose sqrt part cancels, the package
must agree with them on ``repr``, ``coeffs``, ``to_json``, ``==`` and every
operation, and equal forms must hash equally however they were built.

The guard tests pin the kernel contract: ``transvect`` on kernel-built forms
never clears, and an invariant system builds Scalars once per entry.
"""

from math import comb, factorial, perm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seacurves import forms
from seacurves import invariants as inv
from seacurves.forms import (
    BinaryForm,
    DegreeError,
    Matrix2,
    SingularMatrixError,
    _clear,
    _pair_convolve,
    _pair_product,
    _to_scalars,
    moebius_act,
    partial_derivative,
)
from seacurves.scalars import ZERO, Scalar, _join_field, rational
from seacurves.transvection import TransvectionError, transvect

MAX_DEG = 8


# -- the coefficient-first references ---------------------------------------------------------


def _clear_in(coeffs, disc):
    """``_clear(coeffs)`` with its field joined to ``disc``, as the references
    cleared a second operand in the field of the first."""
    den, a, b, own = _clear(coeffs)
    return den, a, b, _join_field(disc, own)


def _product(u, v):
    """Coefficients of the product of two nonempty coefficient sequences.

    The Scalar-level product ``forms`` kept for polynomials before they held
    cleared vectors: each operand cleared once, convolved, divided back.
    """
    uden, ua, ub, disc = _clear(u)
    vden, va, vb, disc = _clear_in(v, disc)
    return _to_scalars(_pair_product((ua, ub), (va, vb), disc), uden * vden, disc)


def _ref_coeff_text(c):
    """A coefficient's text in a term: a + b*sqrt(D) with a, b != 0 in parentheses."""
    return f"({c})" if c.disc and c.a else str(c)


class RefBinaryForm:
    """The Scalar-tuple form: coefficients a_0 .. a_d, compared as Scalars."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        if degree < 0:
            raise DegreeError("degree must be nonnegative")
        cs = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise DegreeError(f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        forms._join_coeff_field(cs)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coeffs)

    @classmethod
    def zero(cls, degree):
        return cls(degree, (ZERO,) * (degree + 1))

    def __eq__(self, other):
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeError(f"cannot add forms of degrees {self.degree} and {other.degree}")
        return RefBinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RefBinaryForm(self.degree, [-c for c in self.coeffs])

    def __mul__(self, other):
        return RefBinaryForm(self.degree + other.degree, _product(self.coeffs, other.coeffs))

    def scale(self, c):
        return RefBinaryForm(self.degree, [c * a for a in self.coeffs])

    def constant_value(self):
        if self.degree != 0:
            raise DegreeError(f"form has degree {self.degree}, not 0")
        return self.coeffs[0]

    def to_json(self):
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        d = self.degree
        body = forms._join_terms(
            forms._term(_ref_coeff_text(c), forms._power("X", i) + forms._power("Z", d - i))
            for i, c in enumerate(self.coeffs) if not c.is_zero)
        return f"BinaryForm<{d}>({body})"


def _ref_partial(vec, n, p, k):
    if vec is None:
        return None
    return [vec[i + p] * perm(i + p, p) * perm(n - i - p, k) for i in range(n - p - k + 1)]


def ref_transvect(f, g, r):
    n, m = f.degree, g.degree
    if r < 0 or r > min(n, m):
        raise TransvectionError(f"transvection order {r} out of range for degrees ({n}, {m})")
    deg = n + m - 2 * r
    fden, fa, fb, disc = _clear(f.coeffs)
    gden, ga, gb, disc = _clear_in(g.coeffs, disc)
    same = (fden, fa, fb) == (gden, ga, gb)
    if same and r % 2:
        return RefBinaryForm.zero(deg)
    pref_num = factorial(n - r) * factorial(m - r)
    acc = ([0] * (deg + 1), [0] * (deg + 1))
    for k in range(r // 2 + 1 if same else r + 1):
        weight = 2 if same and 2 * k < r else 1
        left = (_ref_partial(fa, n, r - k, k), _ref_partial(fb, n, r - k, k))
        right = (_ref_partial(ga, m, k, r - k), _ref_partial(gb, m, k, r - k))
        _pair_convolve(acc, left, right, disc, weight * (-1) ** k * comb(r, k) * pref_num)
    den = factorial(n) * factorial(m) * fden * gden
    return RefBinaryForm(deg, _to_scalars(acc, den, disc))


def ref_moebius_act(M, f):
    if M.det().is_zero:
        raise SingularMatrixError("substitution matrix must be invertible")
    e, ma, mb, disc = _clear((M.b, M.a, M.d, M.c))
    fden, fa, fb, disc = _clear_in(f.coeffs, disc)
    lin1, lin2 = (ma[:2], mb and mb[:2]), (ma[2:], mb and mb[2:])
    d = f.degree
    acc, power = ([fa[d]], fb and [fb[d]]), ([1], None)
    for i in range(d - 1, -1, -1):
        power = _pair_product(power, lin2, disc)
        acc = _pair_product(acc, lin1, disc)
        _pair_convolve(acc, power, ([fa[i]], fb and [fb[i]]), disc)
    return RefBinaryForm(d, _to_scalars(acc, fden * e ** d, disc))


def ref_partial_derivative(f, var, order=1):
    n = f.degree
    if order > n:
        return RefBinaryForm.zero(0)
    p, k = (order, 0) if var == "X" else (0, order)
    den, a, b, disc = _clear(f.coeffs)
    coeffs = _to_scalars((_ref_partial(a, n, p, k), _ref_partial(b, n, p, k)), den, disc)
    return RefBinaryForm(n - order, coeffs)


def ref_ratios(kind, v, table):
    values, undefined, unavailable = {}, set(), set()
    for name, (num, den) in table.items():
        if not all(v.available(n) for n in (*num, *den)):
            unavailable.add(name)
            continue
        den_value = prod(v[n] ** e for n, e in den.items())
        if den_value.is_zero:
            undefined.add(name)
        else:
            values[name] = prod(v[n] ** e for n, e in num.items()) / den_value
    return inv.AbsoluteInvariants(kind, table, values, undefined, unavailable)


# -- strategies ---------------------------------------------------------------------------------

# non-integer rationals with multi-limb numerators; zero is drawn often so that
# whole forms, and any coefficient of them, vanish
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


def coeff_lists(disc: int, degree: int):
    return st.lists(scalars(disc), min_size=degree + 1, max_size=degree + 1)


@st.composite
def cases(draw):
    """(disc, f, g, c, M): two coefficient lists over one field (one of
    them possibly rational), a scalar and an invertible matrix."""
    disc = draw(st.sampled_from([0, -3, 5]))
    n = draw(st.integers(0, MAX_DEG))
    m = draw(st.sampled_from([n, draw(st.integers(0, MAX_DEG))]))
    f = draw(coeff_lists(disc, n))
    g = draw(coeff_lists(draw(st.sampled_from([0, disc])), m))
    c = draw(scalars(disc))
    M = Matrix2(*(draw(scalars(disc)) for _ in range(4)))
    if M.det().is_zero:
        M = Matrix2(1, draw(scalars(disc)), 0, 1)
    return disc, f, g, c, M


def conj(s: Scalar) -> Scalar:
    return Scalar(s.a, -s.b, s.disc)


def agree(new: BinaryForm, ref: RefBinaryForm):
    """new and ref are the same form by every observable, and new equals
    and hashes as the same form built from Scalars."""
    assert isinstance(new, BinaryForm)
    assert repr(new) == repr(ref)
    assert new.degree == ref.degree and new.coeffs == ref.coeffs
    assert new.to_json() == ref.to_json() and new.is_zero == ref.is_zero
    built = BinaryForm(ref.degree, ref.coeffs)
    assert new == built and hash(new) == hash(built)
    if new.degree == 0:
        assert new.constant_value() == ref.constant_value()


def both(coeffs):
    return BinaryForm(len(coeffs) - 1, coeffs), RefBinaryForm(len(coeffs) - 1, coeffs)


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
    for new, ref in ((f, rf), (g, rg)):
        agree(new, ref)
        agree(-new, -ref)
        agree(new.scale(c), ref.scale(c))
        agree(c * new, ref.scale(c))
        agree(moebius_act(M, new), ref_moebius_act(M, ref))
        for var in ("X", "Z"):
            for order in range(new.degree + 2):
                agree(partial_derivative(new, var, order), ref_partial_derivative(ref, var, order))
    assert (f == g) == (rf == rg)
    agree(f * g, rf * rg)
    if f.degree == g.degree:
        agree(f + g, rf + rg)
        agree(f - g, rf - rg)
        agree(f - f, rf - rf)
    # kernel-built operands: a chain that never read coeffs
    h, rh = f.scale(c) * g, rf.scale(c) * rg
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
    agree(out, rf * rfbar)
    assert out.vec[2] is None and out.vec[3] == 0
    assert out == BinaryForm(out.degree, [Scalar(s.a) for s in out.coeffs])
    for r in range(f.degree + 1):
        agree(transvect(f, fbar, r) + transvect(fbar, f, r),
              ref_transvect(rf, rfbar, r) + ref_transvect(rfbar, rf, r))


def test_zero_forms_are_canonical():
    for d in range(4):
        z = BinaryForm.zero(d)
        assert z.vec == (1, (0,) * (d + 1), None, 0)
        agree(z, RefBinaryForm.zero(d))
        f = BinaryForm(d, [Scalar(rational(1, 3), 2, 5)] * (d + 1))
        agree(f - f, RefBinaryForm.zero(d))
        agree(f.scale(0), RefBinaryForm.zero(d))
    with pytest.raises(DegreeError):
        BinaryForm.zero(-1)


def test_vectors_are_reduced_by_content():
    f = BinaryForm(2, [rational(2, 3), rational(4, 3), 2])
    assert f.vec == (3, (2, 4, 6), None, 0)
    g = f * BinaryForm(0, [rational(3, 2)])
    assert g.vec == (1, (1, 2, 3), None, 0) and g == BinaryForm(2, [1, 2, 3])
    h = BinaryForm(1, [Scalar(rational(1, 2), rational(1, 4), -3), 1])
    assert h.vec == (4, (2, 4), (1, 0), -3)


def _vector(kind, entries):
    return inv.InvariantVector(kind, [(n, v, 1, n) for n, v in entries.items()], {})


@given(st.sampled_from([0, -3, 5]).flatmap(
    lambda disc: st.lists(scalars(disc), min_size=4, max_size=4)))
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
        v = _vector("t", {n: values[i % 4] for i, n in enumerate(names) if i % 5 != 4})
        got, want = inv._ratios("t", v, table), ref_ratios("t", v, table)
        assert got == want and repr(got) == repr(want)


def test_ratio_with_zero_denominator_is_undefined():
    v = _vector("sextic", {"J2": Scalar(rational(1, 2), 3, -3), "J4": rational(2, 5),
                           "J6": Scalar(0, 1, -3), "J10": Scalar(0)})
    got = inv._ratios("sextic", v, inv._SEXTIC_ABSOLUTE)
    assert got == ref_ratios("sextic", v, inv._SEXTIC_ABSOLUTE)
    assert got.undefined == {"t1", "t2", "t3"} and not got.defined_items()


# -- guards on the kernel contract --------------------------------------------------------------


def _counting(monkeypatch, name):
    calls = []
    original = getattr(forms, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(forms, name, counting)
    return calls


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_transvect_on_kernel_built_forms_never_clears(monkeypatch, disc):
    f = BinaryForm(6, [Scalar(rational(i - 3, i + 1), i % 2 if disc else 0, disc)
                       for i in range(7)])
    g = BinaryForm(6, [rational(5 - i, 2) for i in range(7)])
    h, k = transvect(f, g, 2), f * g
    calls = _counting(monkeypatch, "_clear")
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
    calls = _counting(monkeypatch, "_to_scalars")
    v = system(f)
    assert len(calls) == len(v.names())
    assert all(len(acc[0]) == 1 for acc, *_ in calls)


def test_coeffs_are_built_only_when_read_once_per_read(monkeypatch):
    """A form keeps only its vector: no Scalar is built before coeffs is
    read, and each read builds one fresh tuple, equal to the last."""
    assert forms._Cleared.__slots__ == ("vec",)
    f = BinaryForm(3, [rational(1, 2), 0, Scalar(1, 1, 5), 2])
    calls = _counting(monkeypatch, "_to_scalars")
    g = transvect(f, f * f, 2)
    assert calls == []
    first, second = g.coeffs, g.coeffs
    assert first == second and first is not second and len(calls) == 2
    assert repr(g) and g.to_json() and len(calls) == 4

