"""Differential test of ``catalog._specializes`` against a reference.

The reference below is the rule as the package first wrote it: a walk over
the union of both rows' exponents, reading a missing exponent as the
constant 0.  ``_specializes`` states the strict form of that rule, a
specializes b and b does not specialize a, as containment of the two sets
each template caches (``EquationTemplate._support``): the exponents and the
fixed pairs of a support map.  That holds because a support map never has
a zero entry (guarded in ``test_symbolic_oracle.py``).  The two must agree
on random zero-free support maps over exponents 0-12, with constants drawn
from a small pool of rationals and Q(sqrt -3) values so that equal and
unequal constants both occur, and on levels n in {2, 3} and deltas 0-4.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from seacurves.catalog import _specializes
from seacurves.scalars import ZERO, Scalar, rational


def ref_specializes(a, b, support: dict) -> bool:
    if a.n != b.n or a.delta > b.delta:
        return False
    ca, cb = support[a.id], support[b.id]
    zero = ("const", ZERO)
    for e in set(ca) | set(cb):
        here = ca.get(e, zero)
        there = cb.get(e, zero)
        if there == "param":
            continue
        if here == "param" or here[1] != there[1]:
            return False
    return True


def _sets(support: dict) -> tuple:
    """The exponents and the fixed (exp, ("const", c)) pairs of a support map."""
    return frozenset(support), frozenset(i for i in support.items() if i[1] != "param")


_POOL = (Scalar(1), Scalar(-1), rational(1, 2), Scalar(3), Scalar(0, 1, -3),
         Scalar(1, -1, -3), rational(-2, 3) + Scalar(0, 2, -3))
_ENTRIES = st.just("param") | st.sampled_from(_POOL).map(lambda c: ("const", c))
_SUPPORTS = st.dictionaries(st.integers(0, 12), _ENTRIES, max_size=8)


@st.composite
def _pair(draw):
    """Two zero-free support maps; half the time the first is b's with each
    entry kept, dropped or redrawn and a few entries added, so that
    specializations are common."""
    cb = draw(_SUPPORTS)
    if draw(st.booleans()):
        ca = draw(_SUPPORTS)
    else:
        ca = {}
        for e, c in cb.items():
            move = draw(st.sampled_from(("keep", "keep", "drop", "redraw")))
            if move != "drop":
                ca[e] = c if move == "keep" else draw(_ENTRIES)
        ca.update(draw(st.dictionaries(st.integers(0, 12), _ENTRIES, max_size=2)))
    rows = [SimpleNamespace(id=i, n=draw(st.sampled_from((2, 3))), delta=draw(st.integers(0, 4)))
            for i in ("a", "b")]
    return rows, {"a": ca, "b": cb}


@settings(max_examples=1000, deadline=None)
@given(_pair())
def test_specializes_matches_reference(pair):
    (a, b), support = pair
    sets = {key: _sets(value) for key, value in support.items()}
    forward, backward = ref_specializes(a, b, support), ref_specializes(b, a, support)
    assert _specializes(a, b, sets) == (forward and not backward)
    assert _specializes(b, a, sets) == (backward and not forward)
