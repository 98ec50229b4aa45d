"""Invariant and covariant systems of binary forms built from transvectants.

The systems provided are:

* sextics (degree 6): J2, J4, J6, J10 and absolute invariants t1..t3,
* octavics (degree 8): J2..J10 with their integer prefactors and t1..t6,
* decimics (degree 10): J2, J4, A6, C6, J8, J9, J10, J14, A14,
* general even degree d >= 6: I2, I3, I4, I4', I6, I6', I6*, I12 over the
  covariants J_{4j} = (F, F)^(d-2j), with per-entry degree availability,
* the degree-22 special quantities I6*_g10, S, I12* and v5, defined only
  when I12 vanishes.

Each system is a table of nodes ``(name, left, right, op, expected_order)``.
``op`` is an int r for the transvectant ``(left, right)^r``, or ``"*"`` /
``"+"`` for a product / sum of forms; ``left`` and ``right`` name the input
form (``f``, or ``F`` in the general system) or another node.  A node named
``None`` is named by its formula, e.g. ``"(k,m)^1"`` or ``"k*k"``, and an
entry's definition is its node's formula: decimic J9 reads
``((k,m)^1,k*k)^8``.

Each system is one plan (``_Plan``), compiled once from its table: its kind,
its nodes by name, their coefficient degrees, the entries' final definitions
(prefactors included), the covariant names and the unavailable entries.  A
coefficient degree is fixed by the tree alone: the input form has degree 1,
a sum keeps its left degree, and degrees add under transvection and
product.  The sextic, octavic, decimic and genus-10 plans are built at
import; the general system's is built on the first call at each even degree
and kept, least recently used out first, for 48 degrees: as many as there
are even degrees 6 .. ``MAX_DEGREE``.

A call evaluates its plan over the input form in one chain (``_Chain``),
which holds only forms and computes a node, with the nodes it reads, the
first time an entry, another node or a reader of the covariants needs it,
and never twice.  The general system at degree d thus computes only the
J_{4j} its entries read, not all d/2 - 1 of them.  Each node computed has its
order checked against ``expected_order`` (0 for an invariant), raising
:class:`OrderBookkeepingError` on a mismatch.  Named transvectant nodes of
positive order are the covariants a system exposes; the chain is itself the
read-only mapping that computes a covariant when it is read.

Absolute invariants are tables too: name -> (numerator, denominator), each a
map from invariant name to exponent.  A ratio whose denominator vanishes is
*undefined* (a first-class state, never an exception and never zero), and a
ratio whose ingredients do not exist at the given degree is *unavailable*.
Each side of a ratio is one cleared element x / den of Z[sqrt(D)], the
product of its entries' integer powers, and the ratio is the package's one
quotient, made canonical once: the rule ``Scalar`` division follows
(:mod:`seacurves.scalars`).

The chain itself runs on the forms' cleared vectors (see
:mod:`seacurves.forms`); Scalars are built only for the entries, where
``constant_value`` reads them, and for the covariants a caller reads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache

from .forms import MAX_DEGREE, BinaryForm, DegreeError, dehomogenize, is_squarefree
from .scalars import (Scalar, SeacurvesError, _int_str, _join_field, _power_product, _quotient,
                      _repr_str, rational)
from .transvection import transvect

__all__ = [
    "InvariantVector",
    "AbsoluteInvariants",
    "Genus10Result",
    "OrderBookkeepingError",
    "InconclusiveError",
    "Genus10CaseError",
    "form_is_squarefree",
    "sextic_invariants",
    "sextic_absolute",
    "genus2_isomorphic",
    "octavic_invariants",
    "octavic_absolute",
    "genus3_isomorphic",
    "decimic_invariants",
    "general_invariants",
    "general_absolute",
    "genus10_special",
    "SEXTIC_NAMES",
    "OCTAVIC_NAMES",
    "DECIMIC_NAMES",
    "GENERAL_NAMES",
]


class OrderBookkeepingError(RuntimeError):
    """An intermediate covariant came out with the wrong order: internal bug."""


class InconclusiveError(SeacurvesError):
    """The isomorphism criterion's hypotheses fail; no verdict is possible."""


class Genus10CaseError(SeacurvesError):
    """The degree-22 special invariants are defined only when I12 = 0."""


SEXTIC_NAMES = ("J2", "J4", "J6", "J10")
OCTAVIC_NAMES = ("J2", "J3", "J4", "J5", "J6", "J7", "J8", "J9", "J10")
DECIMIC_NAMES = ("J2", "J4", "A6", "C6", "J8", "J9", "J10", "J14", "A14", "J14_plus_A14")
GENERAL_NAMES = ("I2", "I3", "I4", "I4p", "I6", "I6p", "I6star", "I12")


@dataclass(frozen=True, repr=False)
class InvariantVector:
    """Named invariant values of one system, with degree metadata and the
    intermediate covariants that produced them; frozen, like every value.

    ``_entries`` maps name -> (value, coefficient degree, definition).
    ``covariants`` is a read-only mapping name -> form; a covariant no entry
    needed is computed when it is first read, and equality never reads one.
    Holding mappings, an invariant vector is unhashable."""

    kind: str
    _entries: dict
    covariants: Mapping = field(compare=False)
    unavailable: frozenset
    __hash__ = None

    def names(self):
        return tuple(self._entries)

    def available(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Scalar:
        if name in self.unavailable:
            raise KeyError(f"{name} is unavailable for this degree")
        return self._entries[name][0]

    def degree_of(self, name: str) -> int:
        return self._entries[name][1]

    def definition_of(self, name: str) -> str:
        return self._entries[name][2]

    def scalars(self) -> dict:
        return {name: v[0] for name, v in self._entries.items()}

    def items(self):
        return [(name, v[0]) for name, v in self._entries.items()]

    def __repr__(self):
        vals = ", ".join(f"{n}={v[0]}" for n, v in self._entries.items())
        return f"InvariantVector[{self.kind}]({vals})"


@dataclass(frozen=True, repr=False)
class AbsoluteInvariants:
    """Ratios of invariants; entries are defined, undefined (zero
    denominator) or unavailable (ingredients missing at this degree).
    Frozen, like every value; holding a mapping, it is unhashable."""

    kind: str
    names: tuple
    _values: dict
    undefined: frozenset
    unavailable: frozenset
    __hash__ = None

    def defined(self, name: str) -> bool:
        return name in self._values

    def __getitem__(self, name: str) -> Scalar:
        if name in self._values:
            return self._values[name]
        if name in self.undefined:
            raise KeyError(f"{name} is undefined (denominator vanished)")
        if name in self.unavailable:
            raise KeyError(f"{name} is unavailable for this degree")
        raise KeyError(name)

    def defined_items(self):
        return [(name, self._values[name]) for name in self.names if name in self._values]

    def __repr__(self):
        bits = []
        for name in self.names:
            if name in self._values:
                bits.append(f"{name}={self._values[name]}")
            elif name in self.undefined:
                bits.append(f"{name}=undefined")
            else:
                bits.append(f"{name}=unavailable")
        return f"AbsoluteInvariants[{self.kind}](" + ", ".join(bits) + ")"


def _formula(left: str, right: str, op) -> str:
    if op in ("*", "+"):
        return f"{left}{op}{right}"
    return f"({left},{right})^{op}"


class _Plan:
    """An invariant system's node table, compiled once for every call.

    ``steps`` maps each node name to ``(left, right, op, order)`` and
    ``degrees`` each node, the leaf included, to its coefficient degree.  The
    leaf, the input form, is the first node's left operand, or the leaf of
    ``base`` when there is one; it has degree 1, a sum keeps its left
    degree, and a product or a transvectant adds both.  ``entries`` holds
    ``(name, degree, definition, prefactor or None)`` for each entry the
    table has, its definition final; ``covariants`` and ``unavailable`` are
    what every invariant vector of ``kind`` exposes.  The table ``nodes`` may
    extend the plan ``base``; its named transvectant nodes of positive order
    are the covariants, and an entry it lacks is unavailable.
    ``definitions`` overrides the nodes' formulas, ``prefactors`` scales
    entries.  A plain class, not a dataclass: defining a dataclass would
    cost every import.
    """

    def __init__(self, kind: str, nodes, names, base=None, definitions=None, prefactors=None):
        leaf = base.leaf if base else nodes[0][1]
        steps = dict(base.steps if base else ())
        degrees = dict(base.degrees if base else {leaf: 1})
        for name, left, right, op, order in nodes:
            name = name or _formula(left, right, op)
            steps[name] = (left, right, op, order)
            degrees[name] = degrees[left] + (0 if op == "+" else degrees[right])
        entries = []
        for name in names:
            if name in steps:
                definition = definitions[name] if definitions else _formula(*steps[name][:3])
                prefactor = prefactors[name] if prefactors else None
                if prefactor is not None:
                    definition = f"{prefactor}*{definition}"
                entries.append((name, degrees[name], definition, prefactor))
        self.kind = kind
        self.leaf = leaf
        self.steps = steps
        self.degrees = degrees
        self.entries = tuple(entries)
        self.covariants = tuple(name for name, _, _, op, order in nodes
                                if name and isinstance(op, int) and order)
        self.unavailable = frozenset(name for name in names if name not in steps)


class _Chain(Mapping):
    """A plan's nodes over one input form, computed on demand, and the
    read-only map name -> covariant that its invariant vector exposes.

    :meth:`_node` is the one node step: a node and the nodes it reads are
    computed the first time one is needed, and never twice, and every node
    computed has its order checked against the table.  Reading a covariant
    computes it; asking whether one is there computes nothing.
    """

    def __init__(self, plan: _Plan, form: BinaryForm):
        self._plan = plan
        self._forms = {plan.leaf: form}

    def _node(self, name: str) -> BinaryForm:
        form = self._forms.get(name)
        if form is None:
            left, right, op, order = self._plan.steps[name]
            a, b = self._node(left), self._node(right)
            form = a * b if op == "*" else a + b if op == "+" else transvect(a, b, op)
            if len(form.vec[1]) - 1 != order:
                raise OrderBookkeepingError(
                    f"{name} has order {len(form.vec[1]) - 1}, expected {order}")
            self._forms[name] = form
        return form

    def vector(self) -> InvariantVector:
        """The plan's invariant vector, computing only the nodes its entries read."""
        entries = {}
        for name, degree, definition, prefactor in self._plan.entries:
            value = self._node(name).constant_value()
            entries[name] = (value if prefactor is None else prefactor * value, degree, definition)
        return InvariantVector(self._plan.kind, entries, self, self._plan.unavailable)

    def __getitem__(self, name: str) -> BinaryForm:
        if name not in self._plan.covariants:
            raise KeyError(name)
        return self._node(name)

    def __contains__(self, name) -> bool:
        return name in self._plan.covariants

    def __iter__(self):
        return iter(self._plan.covariants)

    def __len__(self) -> int:
        return len(self._plan.covariants)


def _ratios(v: InvariantVector, table) -> AbsoluteInvariants:
    """Absolute invariants of ``v``, of its kind, from ``table``: name ->
    (numerator, denominator), each a map invariant name -> exponent.

    Each side is one cleared element x / den (``scalars._power_product``),
    and the ratio is the one quotient of the package, ``scalars._quotient``,
    the rule Scalar division uses too.
    """
    values, undefined, unavailable = {}, set(), set()
    for name, (num, den) in table.items():
        if not all(v.available(n) for n in (*num, *den)):
            unavailable.add(name)
            continue
        bden, bottom, bdisc = _power_product(v, den)
        if bottom == (0, 0):
            undefined.add(name)
            continue
        tden, top, tdisc = _power_product(v, num)
        values[name] = _quotient(tden, top, bden, bottom, _join_field(tdisc, bdisc))
    return AbsoluteInvariants(v.kind, tuple(table), values, frozenset(undefined),
                              frozenset(unavailable))


def _require_degree(f: BinaryForm, d: int):
    """f is a form of degree d: a TypeError naming any other value, else a
    DegreeError."""
    if not isinstance(f, BinaryForm):
        raise TypeError(f"form must be a BinaryForm, got {_repr_str(f)}")
    if f.degree != d:
        raise DegreeError(f"expected a degree-{d} form, got degree {f.degree}")


def form_is_squarefree(f: BinaryForm) -> bool:
    """No repeated projective root (the root at [1:0] included)."""
    if f.is_zero:
        return False
    d = f.degree
    if d <= 1:
        return True
    p = dehomogenize(f)
    if p.degree < d - 1:
        return False  # [1:0] is at least a double root
    return is_squarefree(p)  # degree >= d - 1 >= 1 here


# ---------------------------------------------------------------------------
# sextics
# ---------------------------------------------------------------------------

_SEXTIC = (
    ("H", "f", "f", 2, 8), ("i", "f", "f", 4, 4), ("l", "i", "f", 4, 2),
    ("J2", "f", "f", 6, 0), ("J4", "i", "i", 4, 0), ("J6", "l", "l", 2, 0),
    (None, "l", "l", "*", 4), ("l^3", "l*l", "l", "*", 6), ("J10", "f", "l^3", 6, 0),
)
_SEXTIC_PLAN = _Plan("sextic", _SEXTIC, SEXTIC_NAMES)

_SEXTIC_ABSOLUTE = {
    "t1": ({"J2": 5}, {"J10": 1}),
    "t2": ({"J2": 3, "J4": 1}, {"J10": 1}),
    "t3": ({"J2": 2, "J6": 1}, {"J10": 1}),
}


def sextic_invariants(f: BinaryForm) -> InvariantVector:
    """J2, J4, J6, J10 of a binary sextic, with the covariants H, i, l."""
    _require_degree(f, 6)
    return _Chain(_SEXTIC_PLAN, f).vector()


def sextic_absolute(f) -> AbsoluteInvariants:
    """t1 = J2^5/J10, t2 = J2^3*J4/J10, t3 = J2^2*J6/J10."""
    v = f if isinstance(f, InvariantVector) else sextic_invariants(f)
    return _ratios(v, _SEXTIC_ABSOLUTE)


def genus2_isomorphic(f1: BinaryForm, f2: BinaryForm) -> bool:
    """Equality of the sextic absolute invariants (t1, t2, t3).

    Both forms must be squarefree sextics with J10 != 0; otherwise the
    criterion does not apply and InconclusiveError is raised.
    """
    for label, f in (("first", f1), ("second", f2)):
        _require_degree(f, 6)
        if not form_is_squarefree(f):
            raise InconclusiveError(f"{label} sextic is not squarefree")
    a1 = sextic_absolute(f1)
    a2 = sextic_absolute(f2)
    if a1.undefined or a2.undefined:
        raise InconclusiveError("J10 vanishes; absolute invariants undefined")
    return a1 == a2


# ---------------------------------------------------------------------------
# octavics
# ---------------------------------------------------------------------------

_OCTAVIC = (
    ("g", "f", "f", 4, 8), ("k", "f", "f", 6, 4), ("h", "k", "k", 2, 4),
    ("m", "f", "k", 4, 4), ("n", "f", "h", 4, 4), ("p", "g", "k", 4, 4), ("q", "g", "h", 4, 4),
    ("J2", "f", "f", 8, 0), ("J3", "f", "g", 8, 0), ("J4", "k", "k", 4, 0),
    ("J5", "m", "k", 4, 0), ("J6", "k", "h", 4, 0), ("J7", "m", "h", 4, 0),
    ("J8", "p", "h", 4, 0), ("J9", "n", "h", 4, 0), ("J10", "q", "h", 4, 0),
)

_OCT_PREF = {
    "J2": rational(2 ** 2 * 5 * 7),
    "J3": rational(2 ** 4 * 5 ** 2 * 7 ** 3, 3),
    "J4": rational(2 ** 9 * 3 * 7 ** 4),
    "J5": rational(2 ** 9 * 5 * 7 ** 5),
    "J6": rational(2 ** 14 * 3 ** 2 * 7 ** 6),
    "J7": rational(2 ** 14 * 3 * 5 * 7 ** 7),
    "J8": rational(2 ** 17 * 3 * 5 ** 2 * 7 ** 9),
    "J9": rational(2 ** 19 * 3 ** 2 * 5 * 7 ** 9),
    "J10": rational(2 ** 22 * 3 ** 2 * 5 ** 2 * 7 ** 11),
}
_OCTAVIC_PLAN = _Plan("octavic", _OCTAVIC, OCTAVIC_NAMES, prefactors=_OCT_PREF)

_OCTAVIC_ABSOLUTE = {
    "t1": ({"J3": 2}, {"J2": 3}),
    "t2": ({"J4": 1}, {"J2": 2}),
    "t3": ({"J5": 1}, {"J2": 1, "J3": 1}),
    "t4": ({"J6": 1}, {"J2": 1, "J4": 1}),
    "t5": ({"J7": 1}, {"J2": 1, "J5": 1}),
    "t6": ({"J8": 1}, {"J2": 4}),
}


def octavic_invariants(f: BinaryForm) -> InvariantVector:
    """J2..J10 of a binary octavic, with their exact rational prefactors."""
    _require_degree(f, 8)
    return _Chain(_OCTAVIC_PLAN, f).vector()


def octavic_absolute(f) -> AbsoluteInvariants:
    """t1 = J3^2/J2^3, t2 = J4/J2^2, t3 = J5/(J2*J3), t4 = J6/(J2*J4),
    t5 = J7/(J2*J5), t6 = J8/J2^4."""
    v = f if isinstance(f, InvariantVector) else octavic_invariants(f)
    return _ratios(v, _OCTAVIC_ABSOLUTE)


def genus3_isomorphic(f1: BinaryForm, f2: BinaryForm) -> bool:
    """Equality of t1..t6 for octavics with J2, J3, J4, J5 all nonzero.

    When the hypothesis fails for either form the comparison is inconclusive
    (raises InconclusiveError), never true or false.
    """
    vs = []
    for label, f in (("first", f1), ("second", f2)):
        v = octavic_invariants(f)
        bad = [n for n in ("J2", "J3", "J4", "J5") if v[n].is_zero]
        if bad:
            raise InconclusiveError(
                f"{label} octavic has {', '.join(bad)} = 0; t-invariants not defined"
            )
        vs.append(v)
    return octavic_absolute(vs[0]) == octavic_absolute(vs[1])


# ---------------------------------------------------------------------------
# decimics
# ---------------------------------------------------------------------------

_DECIMIC = (
    ("k", "f", "f", 8, 4), ("q", "f", "f", 6, 8), ("m", "f", "k", 4, 6), ("r", "f", "q", 8, 2),
    ("k_q", "q", "q", 6, 4), ("k_m", "m", "m", 4, 4), ("m_q", "q", "k_q", 4, 4),
    (None, "k", "k", "*", 8), (None, "m", "m", 2, 8), (None, "k", "k", 2, 4),
    (None, "k", "m", 1, 8), (None, "k_q", "k_q", 2, 4),
    ("J2", "f", "f", 10, 0), ("J4", "k", "k", 4, 0), ("A6", "m", "m", 6, 0),
    ("C6", "r", "r", 2, 0), ("J8", "k", "k_m", 4, 0),
    ("J9", "(k,m)^1", "k*k", 8, 0), ("J10", "(m,m)^2", "k*k", 8, 0),
    ("J14", "(k_q,k_q)^2", "m_q", 4, 0),
    (None, "(k,k)^2", "(k,k)^2", "*", 8), ("A14", "(k,k)^2*(k,k)^2", "(m,m)^2", 8, 0),
    ("J14_plus_A14", "J14", "A14", "+", 0),
)
_DECIMIC_PLAN = _Plan("decimic", _DECIMIC, DECIMIC_NAMES)


def decimic_invariants(f: BinaryForm) -> InvariantVector:
    """J2, J4, A6, C6, J8, J9, J10, J14, A14 of a binary decimic.

    The covariant m is (f, k)^4 (order 6); with that choice every invariant
    has transvection order exactly 0, which is re-checked on each call.
    The combined J14 + A14 is exposed as the extra entry "J14_plus_A14".
    """
    _require_degree(f, 10)
    return _Chain(_DECIMIC_PLAN, f).vector()


# ---------------------------------------------------------------------------
# general even degree
# ---------------------------------------------------------------------------

def _general_nodes(d: int) -> tuple:
    """The general system's table at degree d; nodes whose index arithmetic
    fails at d are left out, so their entries are unavailable."""
    nodes = tuple((f"J{4 * j}", "F", "F", d - 2 * j, 4 * j) for j in range(1, d // 2))
    rows = (  # (available at d, *node)
        (True, "I2", "F", "F", d, 0), (d % 4 == 0, "I3", "F", f"J{d}", d, 0),
        (True, "I4", "J4", "J4", 4, 0), (d >= 8, "I4p", "J8", "J8", 8, 0),
        (True, None, "F", "J4", 4, d - 4), (True, "I6", "(F,J4)^4", "(F,J4)^4", d - 4, 0),
        (d >= 8, None, "F", "J8", 8, d - 8), (d >= 8, "I6p", "(F,J8)^8", "(F,J8)^8", d - 8, 0),
        (d >= 12, None, "F", "J12", 12, d - 12),
        (d >= 12, "I6star", "(F,J12)^12", "(F,J12)^12", d - 12, 0),
        (d >= 10, "M", "(F,J4)^4", "(F,J8)^8", d - 10, 8), (d >= 10, "I12", "M", "M", 8, 0),
    )
    return nodes + tuple(node for ok, *node in rows if ok)


@lru_cache(maxsize=(MAX_DEGREE - 4) // 2)
def _general_plan(d: int) -> _Plan:
    """The general system's plan at even degree d >= 6, compiled once per
    degree: the cache holds one plan for each of the 48 even degrees 6 ..
    ``MAX_DEGREE``, the least recently used leaving first past them."""
    return _Plan("general", _general_nodes(d), GENERAL_NAMES, definitions=_GENERAL_DEFINITIONS)


_GENERAL_DEFINITIONS = {
    "I2": "(F,F)^d",
    "I3": "(F,J_d)^d",
    "I4": "(J4,J4)^4",
    "I4p": "(J8,J8)^8",
    "I6": "((F,J4)^4,(F,J4)^4)^(d-4)",
    "I6p": "((F,J8)^8,(F,J8)^8)^(d-8)",
    "I6star": "((F,J12)^12,(F,J12)^12)^(d-12)",
    "I12": "(M,M)^8",
}

_GENERAL_ABSOLUTE = {
    "i1": ({"I4p": 1}, {"I2": 2}),
    "i2": ({"I3": 2}, {"I2": 3}),
    "i3": ({"I6star": 1}, {"I3": 2}),
    "j1": ({"I6p": 1}, {"I3": 2}),
    "j2": ({"I6": 1}, {"I3": 2}),
    "s1": ({"I6": 2}, {"I12": 1}),
    "s2": ({"I6p": 2}, {"I12": 1}),
    "v1": ({"I6": 1}, {"I6star": 1}),
    "v2": ({"I4p": 3}, {"I3": 4}),
    "v3": ({"I6": 1}, {"I6p": 1}),
    "v4": ({"I6star": 2}, {"I3": 3}),
}


def general_invariants(F: BinaryForm) -> InvariantVector:
    """The even-degree system over J_{4j} = (F,F)^(d-2j), j = 1..g.

    Entries whose index arithmetic does not work out at this degree are
    marked unavailable (never silently zero): I3 needs 4 | d, I4' and I6'
    need d >= 8, I6* needs d >= 12, M and I12 need d >= 10.
    """
    d = F.degree
    if d < 6 or d % 2:
        raise DegreeError(f"general invariants need even degree >= 6, got {d}")
    return _Chain(_general_plan(d), F).vector()


def general_absolute(F) -> AbsoluteInvariants:
    """i1 = I4'/I2^2, i2 = I3^2/I2^3, i3 = I6*/I3^2, j1 = I6'/I3^2,
    j2 = I6/I3^2, s1 = I6^2/I12, s2 = (I6')^2/I12, v1 = I6/I6*,
    v2 = (I4')^3/I3^4, v3 = I6/I6', v4 = (I6*)^2/I3^3.

    v4 mixes coefficient-degrees 12 and 9 as printed and is therefore not
    scaling-invariant; it is computed as printed and documented as such.
    """
    v = F if isinstance(F, InvariantVector) else general_invariants(F)
    return _ratios(v, _GENERAL_ABSOLUTE)


@dataclass(frozen=True)
class Genus10Result:
    invariants: InvariantVector       # I6star_g10, I12star (+ covariant S)
    absolute: AbsoluteInvariants      # v5 = I6star_g10 / I12star
    __hash__ = None                   # its fields are unhashable


_GENUS10 = (
    (None, "F", "J16", 16, 6), ("I6star_g10", "(F,J16)^16", "(F,J16)^16", 6, 0),
    ("S", "J12", "J16", 12, 4), (None, "J16", "S", 4, 12),
    ("I12star", "(J16,S)^4", "(J16,S)^4", 12, 0),
)
_GENUS10_PLAN = _Plan("genus10", _GENUS10, ("I6star_g10", "I12star"), base=_general_plan(22))

_GENUS10_ABSOLUTE = {"v5": ({"I6star_g10": 1}, {"I12star": 1})}


def genus10_special(F: BinaryForm) -> Genus10Result:
    """The auxiliary degree-22 quantities, defined only when I12(F) = 0."""
    _require_degree(F, 22)
    chain = _Chain(_GENUS10_PLAN, F)
    I12 = chain._node("I12").constant_value()
    if not I12.is_zero:
        raise Genus10CaseError(f"I12 = {_int_str(I12)} != 0; the special invariants are only "
                               "defined on the I12 = 0 locus")
    vec = chain.vector()
    return Genus10Result(vec, _ratios(vec, _GENUS10_ABSOLUTE))
