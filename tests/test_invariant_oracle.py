"""Differential tests of the on-demand covariant chain, and of the work it does.

``eager_invariants`` below is the evaluator the package had before nodes
were computed on demand: it runs every node of a table in order, then
collects the entries and keeps every covariant.  On every system, over Q,
Q(sqrt -3) and Q(sqrt 5), the package must give the same entry values,
coefficient degrees, definitions and unavailable set, and the same
covariants: the same keys in the same order, with values read in any order.

The guard tests count ``transvect`` calls through ``seacurves.invariants``,
so a change that evaluates unread nodes again shows as a count.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seacurves import invariants as inv
from seacurves.forms import BinaryForm, make_form
from seacurves.scalars import Scalar, rational
from seacurves.transvection import transvect

PAL22 = make_form(22, [1] + [0] * 21 + [1])


# -- the eager reference --------------------------------------------------------------------------


def _evaluate(nodes, values: dict) -> dict:
    """Run a node table in order over ``values``, a map name -> (form,
    coefficient degree, formula) holding the leaf; extended in place."""
    for name, left, right, op, order in nodes:
        a, da, _ = values[left]
        b, db, _ = values[right]
        if op == "*":
            form, degree, formula = a * b, da + db, f"{left}*{right}"
        elif op == "+":
            form, degree, formula = a + b, da, f"{left}+{right}"
        else:
            form, degree, formula = transvect(a, b, op), da + db, f"({left},{right})^{op}"
        name = name or formula
        if form.degree != order:
            raise inv.OrderBookkeepingError(f"{name} has order {form.degree}, expected {order}")
        values[name] = (form, degree, formula)
    return values


def _system(kind, nodes, values, names, definitions=None, prefactors=None):
    values = _evaluate(nodes, values)
    entries = {}
    for name in names:
        if name not in values:
            continue
        form, degree, definition = values[name]
        value = form.constant_value()
        if definitions:
            definition = definitions[name]
        if prefactors:
            value = prefactors[name] * value
            definition = f"{prefactors[name]}*{definition}"
        entries[name] = (value, degree, definition)
    covariants = {name: values[name][0] for name, _, _, op, order in nodes
                  if name and isinstance(op, int) and order}
    unavailable = frozenset(name for name in names if name not in values)
    return inv.InvariantVector(kind, entries, covariants, unavailable)


def eager_invariants(system: str, f: BinaryForm) -> inv.InvariantVector:
    """The invariant vector of ``system`` on ``f``, every node evaluated."""
    if system == "sextic":
        return _system(system, inv._SEXTIC, {"f": (f, 1, "f")}, inv.SEXTIC_NAMES)
    if system == "octavic":
        return _system(system, inv._OCTAVIC, {"f": (f, 1, "f")}, inv.OCTAVIC_NAMES,
                       prefactors=inv._OCT_PREF)
    if system == "decimic":
        return _system(system, inv._DECIMIC, {"f": (f, 1, "f")}, inv.DECIMIC_NAMES)
    if system == "general":
        return _system(system, inv._general_nodes(f.degree), {"F": (f, 1, "F")},
                       inv.GENERAL_NAMES, definitions=inv._GENERAL_DEFINITIONS)
    assert system == "genus10"
    values = _evaluate(inv._general_nodes(22), {"F": (f, 1, "F")})
    assert values["I12"][0].constant_value().is_zero
    return _system(system, inv._GENUS10, values, ("I6star_g10", "I12star"))


# -- differential tests ---------------------------------------------------------------------------


def assert_same_vector(vec, expected, read_order):
    """``vec`` matches the eager ``expected`` on everything it exposes; its
    covariants are read in ``read_order``."""
    assert vec.kind == expected.kind
    assert vec.names() == expected.names()
    for name in expected.names():
        assert vec[name] == expected[name] and str(vec[name]) == str(expected[name])
        assert vec.degree_of(name) == expected.degree_of(name)
        assert vec.definition_of(name) == expected.definition_of(name)
    assert vec.unavailable == expected.unavailable
    assert list(vec.covariants) == list(expected.covariants)
    assert len(vec.covariants) == len(expected.covariants)
    assert sorted(read_order) == sorted(expected.covariants)
    for name in read_order:
        assert name in vec.covariants
        assert vec.covariants[name] == expected.covariants[name]
    assert dict(vec.covariants) == expected.covariants


_SYSTEM_DEGREES = [("sextic", 6), ("octavic", 8), ("decimic", 10)] + [
    ("general", d) for d in range(6, 23, 2)]


def _coeff(disc):
    rat = st.builds(rational, st.integers(-4, 4), st.integers(1, 3))
    if not disc:
        return rat
    return st.one_of(rat, st.builds(lambda a, b: Scalar(a, b, disc),
                                    st.integers(-3, 3), st.integers(-3, 3)))


def _forms(degree):
    return st.sampled_from([0, -3, 5]).flatmap(
        lambda disc: st.lists(_coeff(disc), min_size=degree + 1, max_size=degree + 1)).map(
        lambda coeffs: BinaryForm(degree, coeffs))


@pytest.mark.parametrize("system,degree", _SYSTEM_DEGREES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_systems_match_eager_oracle(system, degree, data):
    f = data.draw(_forms(degree))
    rng = data.draw(st.randoms(use_true_random=False))
    vec = getattr(inv, f"{system}_invariants")(f)
    expected = eager_invariants(system, f)
    order = list(expected.covariants)
    rng.shuffle(order)
    assert_same_vector(vec, expected, order)


def test_general_at_degree_100_matches_eager_oracle():
    rng = random.Random(100)
    f = make_form(100, [rng.randint(-5, 5) for _ in range(100)] + [1])
    vec = inv.general_invariants(f)
    expected = eager_invariants("general", f)
    order = list(expected.covariants)
    rng.shuffle(order)
    assert_same_vector(vec, expected, order)


def test_genus10_special_matches_eager_oracle():
    res = inv.genus10_special(PAL22)
    expected = eager_invariants("genus10", PAL22)
    assert_same_vector(res.invariants, expected, ["S"])
    assert res.absolute == inv._ratios(expected, inv._GENUS10_ABSOLUTE)


# -- work done ------------------------------------------------------------------------------------


@pytest.fixture
def transvect_calls(monkeypatch):
    calls = []

    def counted(f, g, r):
        calls.append((f.degree, g.degree, r))
        return transvect(f, g, r)

    monkeypatch.setattr(inv, "transvect", counted)
    return calls


def test_general_computes_only_what_its_entries_read(transvect_calls):
    vec = inv.general_invariants(PAL22)
    assert len(transvect_calls) == 14
    for _ in range(2):  # every covariant, then again from the cache
        for form in vec.covariants.values():
            assert form.degree > 0
        assert len(transvect_calls) == 21


def test_sextic_computes_H_only_when_read(transvect_calls):
    vec = inv.sextic_invariants(make_form(6, [1, -2, 0, 3, 0, 1, 1]))
    assert len(transvect_calls) == 6
    assert "H" in vec.covariants and len(transvect_calls) == 6
    assert vec.covariants["H"].degree == 8
    assert len(transvect_calls) == 7


def test_genus10_evaluates_no_node_twice(transvect_calls):
    inv.genus10_special(PAL22)
    assert len(transvect_calls) == 13


def test_fixed_systems_build_no_plan(monkeypatch):
    """The sextic, octavic, decimic and genus-10 plans are built at import,
    so a call only evaluates nodes."""
    built, plan = [], inv._Plan

    def spy(*args, **kwargs):
        built.append(args[0])
        return plan(*args, **kwargs)

    monkeypatch.setattr(inv, "_Plan", spy)
    inv.sextic_invariants(make_form(6, [1, -2, 0, 3, 0, 1, 1]))
    inv.octavic_invariants(make_form(8, [1, 0, 2, 0, -1, 0, 0, 3, 1]))
    inv.decimic_invariants(make_form(10, [1] + [0] * 4 + [2] + [0] * 4 + [1]))
    inv.genus10_special(PAL22)
    assert built == []


def _with_order(nodes, name, order):
    return tuple(node[:4] + (order,) if node[0] == name else node for node in nodes)


def _sextic_plan_with_order(name, order):
    return inv._Plan("sextic", _with_order(inv._SEXTIC, name, order), inv.SEXTIC_NAMES)


def test_wrong_order_on_a_needed_node_raises_at_call_time(monkeypatch):
    monkeypatch.setattr(inv, "_SEXTIC_PLAN", _sextic_plan_with_order("i", 3))
    with pytest.raises(inv.OrderBookkeepingError, match="i has order 4, expected 3"):
        inv.sextic_invariants(make_form(6, [1, 0, 0, 0, 0, 0, 1]))


def test_wrong_order_on_an_unread_covariant_raises_when_read(monkeypatch):
    monkeypatch.setattr(inv, "_SEXTIC_PLAN", _sextic_plan_with_order("H", 7))
    vec = inv.sextic_invariants(make_form(6, [1, 0, 0, 0, 0, 0, 1]))
    assert vec.covariants["i"].degree == 4
    with pytest.raises(inv.OrderBookkeepingError, match="H has order 8, expected 7"):
        vec.covariants["H"]
