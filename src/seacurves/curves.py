"""Superelliptic curves y^n = f(x): genus, Hurwitz bound, ramification.

The Riemann-Hurwitz helpers work with the full automorphism group order
(written ``group_order`` everywhere, since the source convention overloads a
single letter for both the covering degree and the group order) and the
quotient P^1, on integers: ``_rh_excess`` is |G| times the residual.  Printed
signatures may lack their last entry, which :func:`complete_signature` restores.

Every curve's level and degree are checked by :func:`genus_formula`, which
``SuperellipticCurve`` computes first; the level rule (an int >= 2) is
stated once, in ``_check_level``, which :func:`full_group_order` reads too.
An integer parameter of the wrong type raises a ``TypeError`` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .forms import DegreeError, UnivariatePoly, is_squarefree, poly_to_string
from .scalars import SeacurvesError, _int_str, _repr_str, _require_int

__all__ = [
    "ReducedGroup",
    "Signature",
    "SuperellipticCurve",
    "CompletionResult",
    "NotSquarefreeError",
    "LevelError",
    "CurveDataError",
    "make_curve",
    "genus_formula",
    "hurwitz_bound",
    "rh_residual",
    "complete_signature",
    "full_group_order",
]


class NotSquarefreeError(SeacurvesError):
    """f has a repeated root, so y^n = f(x) is not a smooth model."""


class LevelError(SeacurvesError):
    """The level n of y^n = f(x) is below 2."""


class CurveDataError(SeacurvesError):
    """A reduced group, signature, group order or genus outside its range."""


# kind -> (order, per unit of m for C_m and D_2m; label, formatted with the order)
_REDUCED = {"Cm": (1, "C_{}"), "D2m": (2, "D_{}"), "A4": (12, "A_4"), "S4": (24, "S_4"),
            "A5": (60, "A_5")}
REDUCED_KINDS = tuple(_REDUCED)


@dataclass(frozen=True)
class ReducedGroup:
    """A finite subgroup of PGL2: C_m, D_2m (order 2m), A4, S4 or A5."""

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind not in REDUCED_KINDS:
            raise CurveDataError(f"unknown reduced group kind {_repr_str(self.kind)}")
        if self.kind in ("Cm", "D2m"):
            if self.m is not None and type(self.m) is not int:
                raise CurveDataError(
                    f"{self.kind} parameter m {_repr_str(self.m)} is not an integer")
            if self.m is None or self.m < 1:
                raise CurveDataError(f"{self.kind} needs a positive parameter m")
        elif self.m is not None:
            raise CurveDataError(f"{self.kind} takes no parameter m")

    @property
    def order(self) -> int:
        return _REDUCED[self.kind][0] * (self.m or 1)

    def label(self) -> str:
        return _REDUCED[self.kind][1].format(_int_str(self.order))

    def __repr__(self):
        return f"ReducedGroup(kind={self.kind!r}, m={_repr_str(self.m)})"


@dataclass(frozen=True)
class Signature:
    """A multiset of branch indices, kept as sorted (index, multiplicity) pairs.

    A frozen dataclass on ``pairs``: ``Signature(indices)`` takes any
    iterable of indices or (index, multiplicity) pairs and normalises it, so
    equal multisets are equal signatures.  Whether one was printed or
    completed is recorded by :class:`CompletionResult`, not here.
    """

    pairs: tuple

    def __post_init__(self):
        counts: dict[int, int] = {}
        for item in self.pairs:
            if isinstance(item, (tuple, list)):
                e, mult = item
            else:
                e, mult = item, 1
            if type(e) is not int or type(mult) is not int:
                raise CurveDataError(f"branch index {_repr_str(item)} is not an integer")
            if e < 2:
                raise CurveDataError(f"branch index must be >= 2, got {_int_str(e)}")
            if mult < 1:
                raise CurveDataError(f"multiplicity must be >= 1, got {_int_str(mult)}")
            counts[e] = counts.get(e, 0) + mult
        object.__setattr__(self, "pairs", tuple(sorted(counts.items())))

    @property
    def point_count(self) -> int:
        return sum(mult for _, mult in self.pairs)

    def compact(self) -> str:
        bits = []
        for e, mult in self.pairs:
            bits.append(f"{_int_str(e)}^{_int_str(mult)}" if mult > 1 else _int_str(e))
        return ",".join(bits)

    def to_json(self) -> dict:
        return {"indices": [[e, mult] for e, mult in self.pairs]}

    @classmethod
    def from_json(cls, doc: dict) -> Signature:
        return cls(doc["indices"])

    def __repr__(self):
        return f"Signature({self.compact()})"


def _check_level(n: int) -> None:
    """The level n of y^n = f(x) is an int >= 2."""
    _require_int(n, "level n")
    if n < 2:
        raise LevelError(f"level must be >= 2, got {_int_str(n)}")


def genus_formula(n: int, d: int) -> int:
    """Genus of y^n = f(x) with deg f = d and f squarefree:
    (n(d-1) - d - gcd(n, d))/2 + 1.

    When gcd(n, d) = 1 this equals (n-1)(d-1)/2; the two closed forms agree
    wherever both apply.
    """
    _check_level(n)
    _require_int(d, "degree d")
    if d < 2:
        raise DegreeError(f"need deg f >= 2, got {_int_str(d)}")
    num = n * (d - 1) - d - gcd(n, d)
    return num // 2 + 1


def hurwitz_bound(g: int) -> int:
    """84(g - 1), the automorphism-count bound for genus g >= 2."""
    _require_int(g, "genus g")
    if g < 2:
        raise CurveDataError(f"Hurwitz bound needs genus >= 2, got {_int_str(g)}")
    return 84 * (g - 1)


def _rh_excess(g: int, group_order: int, sig: Signature) -> int:
    """|G| times :func:`rh_residual`: 2(g-1) + 2|G| - sum mult*(|G| - |G|/e),
    an integer because every index must divide the group order."""
    if group_order < 1:
        raise CurveDataError("group order must be positive")
    x = 2 * (g - 1) + 2 * group_order
    for e, mult in sig.pairs:
        if group_order % e:
            raise CurveDataError(f"index {e} does not divide group order {_int_str(group_order)}")
        x -= mult * (group_order - group_order // e)
    return x


def rh_residual(g: int, group_order: int, sig: Signature) -> Fraction:
    """(2/|G|)(g-1) - [-2 + sum(1 - 1/e)] as an exact rational, for a cover of P^1.

    Zero means the data satisfies Riemann-Hurwitz.  Every index must divide
    the group order.
    """
    return Fraction(_rh_excess(g, group_order, sig), group_order)


@dataclass(frozen=True)
class CompletionResult:
    status: str                     # "already_complete" | "completed" | "failed"
    signature: Signature | None     # completed signature when status != failed
    added_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"


def complete_signature(g: int, group_order: int, printed: Signature) -> CompletionResult:
    """Restore the omitted final branch index, if any.

    With x = |G| * residual, the printed signature is complete when x = 0.
    Otherwise the one index e with 1 - 1/e = x/|G| is e = |G|/(|G| - x); it
    completes the signature exactly when 0 < x < |G| and |G| - x divides |G|,
    and then e >= 2 divides |G|.  Since 1 - 1/e is strictly monotone in e, a
    single omitted entry can never be ambiguous.
    """
    x = _rh_excess(g, group_order, printed)
    if x == 0:
        return CompletionResult("already_complete", printed)
    gap = group_order - x
    if not 0 < gap < group_order or group_order % gap:
        return CompletionResult("failed", None)
    e = group_order // gap
    return CompletionResult("completed", Signature(printed.pairs + ((e, 1),)), added_index=e)


def full_group_order(n: int, reduced: ReducedGroup) -> int:
    """|G| = n * |reduced|, the order of the full automorphism group."""
    _check_level(n)
    return n * reduced.order


@dataclass(frozen=True)
class SuperellipticCurve:
    """y^n = f(x) with f squarefree; genus is computed on construction.

    A frozen dataclass on n and f; the derived ``genus`` takes no part in
    equality or hashing.
    """

    n: int
    f: UnivariatePoly
    genus: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "genus", genus_formula(self.n, self.f.degree))
        if not is_squarefree(self.f):
            raise NotSquarefreeError("f has a repeated root (discriminant = 0)")

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def is_low_genus(self) -> bool:
        """Genus below 2: legal to build, but outside the catalog's range."""
        return self.genus < 2

    def to_json(self) -> dict:
        return {"n": self.n, "f": poly_to_string(self.f), "genus": self.genus}

    def __repr__(self):
        return (f"SuperellipticCurve(y^{_int_str(self.n)} = {self.f!r}, "
                f"genus {_int_str(self.genus)})")


def make_curve(n: int, f: UnivariatePoly) -> SuperellipticCurve:
    """Validated construction of y^n = f(x)."""
    return SuperellipticCurve(n, f)
