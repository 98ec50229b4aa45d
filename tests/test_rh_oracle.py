"""Differential tests of the integer Riemann-Hurwitz formula.

:mod:`seacurves.curves` computes |G| times the residual on integers.
``reference.ref_rh_residual`` and ``reference.ref_complete_signature`` are
the formula on Fractions: 2(g-1)/|G| and each 1 - 1/e accumulated as
Fractions, a signature completed by the one index e = 1/(1 - residual).  On
random genera, group orders and signatures (indices that divide |G| and
some that do not) and on every catalog row, the package must agree with
them: the same residual, as a Fraction, the same completion, or the same
exception type and message.  A guard pins that ``verify_all`` builds no
Fraction.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions_built, packaged_catalog
from reference import ref_complete_signature, ref_rh_residual
from seacurves.catalog import verify_all
from seacurves.curves import CurveDataError, Signature, complete_signature, rh_residual


# -- agreement ------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except CurveDataError as exc:
        return type(exc), str(exc)


def _completion(g, group_order, sig):
    result = complete_signature(g, group_order, sig)
    return result.status, result.signature and result.signature.pairs, result.added_index


def _assert_agree(g, group_order, sig):
    got = _outcome(rh_residual, g, group_order, sig)
    assert got == _outcome(ref_rh_residual, g, group_order, sig.pairs)
    assert type(got[1]) is (Fraction if got[0] == "ok" else str)
    assert (_outcome(_completion, g, group_order, sig)
            == _outcome(ref_complete_signature, g, group_order, sig.pairs))


@st.composite
def cases(draw):
    """(g, |G|, signature); most indices divide |G|, one in ten need not.

    When the drawn indices divide |G| and fit a genus in range, half the
    cases take that genus and drop one index, as a printed signature may.
    Half the group orders are at most 120, where such genera are common.
    """
    group_order = draw(st.one_of(st.integers(-1, 120), st.integers(-1, 5000)))
    divisors = [e for e in range(2, max(group_order, 0) + 1) if group_order % e == 0]
    index = st.integers(2, 100)
    if divisors:
        index = st.integers(0, 9).flatmap(lambda i: index if i == 0 else st.sampled_from(divisors))
    pairs = draw(st.lists(st.tuples(index, st.integers(1, 6)), max_size=6))
    g = draw(st.integers(-3, 60))
    # 2(g - 1) when pairs is the full signature of a cover
    twice = sum(m * (group_order - group_order // e) for e, m in pairs) - 2 * group_order
    if (pairs and all(group_order % e == 0 for e, _ in pairs) and twice % 2 == 0
            and -3 <= twice // 2 + 1 <= 60 and draw(st.booleans())):
        g = twice // 2 + 1
        e, m = pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        if m > 1:
            pairs.append((e, m - 1))
    return g, group_order, Signature(pairs)


@given(cases())
@settings(max_examples=600, deadline=None)
def test_integer_formula_matches_the_fraction_one(case):
    _assert_agree(*case)


def test_integer_formula_matches_on_every_catalog_row():
    rows = list(packaged_catalog())
    assert len(rows) == 210
    for r in rows:
        _assert_agree(r.genus, r.group_order, r.printed_signature)


def test_verify_builds_no_fraction(monkeypatch):
    catalog = packaged_catalog()
    built = fractions_built(monkeypatch)
    assert verify_all(catalog).rows
    assert built == []
