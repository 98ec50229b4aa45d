"""Parametric equation templates for catalog rows.

A template is a product of factors.  Each factor is a sparse polynomial in x
whose terms carry constant coefficients (rational or quadratic-extension),
parameter symbols a1..ak with an optional constant multiplier, or a
sum-block ``sum(i=lo..hi, a_i*x^(c*i+b))`` generating one fresh parameter per
index.  Each factor leads with a nonzero constant term, so (Q(sqrt D)[a1..ak]
being a domain) the product does too and a template has a fixed degree for
every parameter assignment.  All constants lie in one field, Q or a single
Q(sqrt D).  Both rules are checked without multiplying the template out.

The string grammar round-trips bit-exactly: ``parse_template(t.to_string())``
reproduces the template, and ``to_string`` output is canonical (terms sorted
by descending exponent, single spaces around + and -, none around *).

Parsing shares its splitter, sign folding and numeral parser with
:func:`~seacurves.scalars.parse_scalar`, and coefficients are scalar text;
every :class:`~seacurves.scalars.ScalarParseError` becomes a
:class:`TemplateError` at :func:`parse_template`.  Terms are rendered by the
term renderer of :mod:`seacurves.forms`, the one behind the reprs of forms
and polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..forms import MAX_DEGREE, UnivariatePoly, _join_coeff_field, _join_terms, _power, _term
from ..scalars import (ONE, ZERO, FieldMixError, Scalar, ScalarParseError, SeacurvesError,
                       _parse_int, _split_top, _strip_sign, parse_scalar)

__all__ = [
    "EquationTemplate",
    "Factor",
    "Term",
    "SumBlock",
    "TemplateError",
    "TemplateParamError",
    "parse_template",
    "parse_poly_string",
    "poly_to_string",
]


class TemplateError(SeacurvesError):
    """Malformed template text or structurally invalid template."""


class TemplateParamError(SeacurvesError):
    """Parameter assignment does not match the template's parameter set."""


@dataclass(frozen=True)
class Term:
    """coefficient * x^exp; the coefficient is const or const*param."""

    const: Scalar
    param: str | None
    exp: int

    @property
    def max_exp(self) -> int:
        return self.exp


@dataclass(frozen=True)
class SumBlock:
    """sum(i=lo..hi, a_i * x^(scale*i + offset))."""

    lo: int
    hi: int
    scale: int
    offset: int

    def __post_init__(self):
        if self.lo > self.hi or self.lo < 1 or self.scale < 1 or self.offset < 0:
            raise TemplateError(f"bad sum block bounds {self!r}")

    @property
    def max_exp(self) -> int:
        return self.scale * self.hi + self.offset

    def terms(self) -> list[Term]:
        return [
            Term(ONE, f"a{i}", self.scale * i + self.offset)
            for i in range(self.lo, self.hi + 1)
        ]


@dataclass(frozen=True)
class Factor:
    items: tuple  # Term | SumBlock, sorted by descending max_exp

    @property
    def degree(self) -> int:
        return max(item.max_exp for item in self.items)

    def all_terms(self) -> list[Term]:
        out = []
        for item in self.items:
            if isinstance(item, SumBlock):
                out.extend(item.terms())
            else:
                out.append(item)
        return out


def _numeral_key(digits: str) -> tuple[int, str]:
    """Sort key putting digit strings in numeric order; int() would refuse
    one past the interpreter's 4300-digit limit."""
    digits = digits.lstrip("0")
    return len(digits), digits


class EquationTemplate:
    """Product of factors; expands to a UnivariatePoly at a parameter map."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise TemplateError("template needs at least one factor")
        # before _validate enumerates sum-block terms or expands anything
        if self.degree > MAX_DEGREE:
            raise TemplateError(f"template degree {self.degree} exceeds {MAX_DEGREE}")
        self._validate()
        self._support = None  # filled by the first support_classification()

    def _validate(self):
        consts = []
        for factor in self.factors:
            terms = factor.all_terms()
            if len({t.exp for t in terms}) != len(terms):
                raise TemplateError("duplicate exponent inside a factor")
            lead = factor.items[0]
            if not isinstance(lead, Term) or lead.param is not None or lead.const.is_zero:
                raise TemplateError("template leading coefficient must be a nonzero constant")
            consts += [t.const for t in terms]
        try:
            _join_coeff_field(consts)
        except FieldMixError as exc:
            raise TemplateError(str(exc)) from None

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)

    def param_names(self) -> tuple[str, ...]:
        names = {t.param for factor in self.factors for t in factor.all_terms() if t.param}
        return tuple(sorted(names, key=lambda name: _numeral_key(name[1:])))

    def expand(self, params: dict | None = None) -> UnivariatePoly:
        """Substitute parameter values and multiply out, exactly."""
        params = {k: (v if isinstance(v, Scalar) else Scalar(v))
                  for k, v in (params or {}).items()}
        wanted = set(self.param_names())
        given = set(params)
        if wanted != given:
            missing = sorted(wanted - given)
            extra = sorted(given - wanted)
            raise TemplateParamError(
                f"parameter mismatch: missing {missing}, unexpected {extra}"
            )
        poly = UnivariatePoly((ONE,))
        for factor in self.factors:
            coeffs = [ZERO] * (factor.degree + 1)
            for term in factor.all_terms():
                value = term.const if term.param is None else term.const * params[term.param]
                coeffs[term.exp] = coeffs[term.exp] + value
            poly = poly * UnivariatePoly(coeffs)
        return poly

    def symbolic(self) -> dict:
        """Expanded coefficients as polynomials in the parameters, in one flat pass.

        Returns exp -> {monomial: Scalar} with monomial a sorted tuple of
        parameter names (with repetition).  Used by the inclusion DAG through
        :meth:`support_classification`; identically-zero coefficients are dropped.
        """
        acc = {(0, ()): ONE}
        for factor in self.factors:
            terms = factor.all_terms()
            new = {}
            for (e1, m1), c1 in acc.items():
                for t in terms:
                    key = (e1 + t.exp, tuple(sorted(m1 + (t.param,))) if t.param else m1)
                    new[key] = new.get(key, ZERO) + c1 * t.const
            acc = {key: c for key, c in new.items() if not c.is_zero}
        out = {}
        for (e, mono), c in acc.items():
            out.setdefault(e, {})[mono] = c
        return out

    def support_classification(self) -> dict:
        """exp -> ("const", Scalar) for parameter-free coefficients,
        exp -> "param" for parameter-dependent ones.  The template is expanded
        on the first call only; every call returns its own copy of the map."""
        if self._support is None:
            self._support = {e: ("const", poly[()]) if list(poly) == [()] else "param"
                             for e, poly in self.symbolic().items()}
        return dict(self._support)

    def to_string(self) -> str:
        """Canonical text.  A factor of several terms is parenthesized in a
        product, and a one-term factor whose coefficient is not 1 or -1
        always is, so that parsing splits no factor at its * or +."""
        bodies = []
        for factor in self.factors:
            body = _factor_to_string(factor)
            terms = factor.all_terms()
            if (len(terms) > 1 and len(self.factors) > 1
                    or len(terms) == 1 and terms[0].const not in (1, -1)):
                body = f"({body})"
            bodies.append(body)
        return "*".join(bodies)

    def __eq__(self, other):
        if not isinstance(other, EquationTemplate):
            return NotImplemented
        return self.factors == other.factors

    def __repr__(self):
        return f"EquationTemplate({self.to_string()!r})"


def _const_to_string(const: Scalar) -> str:
    # a + b*sqrt(D) with both parts nonzero is one coefficient: keep it whole
    text = str(const)
    return f"({text})" if const.disc and const.a else text


def _term_to_string(term: Term) -> str:
    coeff = _term(_const_to_string(term.const), term.param or "")
    return _term(coeff, _power("x", term.exp))


def _sumblock_to_string(block: SumBlock) -> str:
    if block.scale == 1 and block.offset == 0:
        expo = "x^i"
    elif block.offset == 0:
        expo = f"x^({block.scale}*i)"
    else:
        expo = f"x^({block.scale}*i+{block.offset})"
    return f"sum(i={block.lo}..{block.hi}, a_i*{expo})"


def _factor_to_string(factor: Factor) -> str:
    return _join_terms(_sumblock_to_string(item) if isinstance(item, SumBlock)
                       else _term_to_string(item) for item in factor.items)


# -- parsing ------------------------------------------------------------------

_SUM_RE = re.compile(
    r"^sum\(i=(\d+)\.\.(\d+),a_i\*x(?:\^(?:\((?:(\d+)\*)?i(?:\+(\d+))?\)|i))\)$"
)
_PARAM_COEFF_RE = re.compile(r"^(?:(?P<num>-?\d+(?:/\d+)?)\*)?(?P<param>a\d+)$")
_TERM_RE = re.compile(r"^(?:(?P<coeff>.+)\*)?x(?:\^(?P<exp>\d+))?$")


def _parse_term(text: str):
    sign, text = _strip_sign(text)
    if not text:
        raise TemplateError("empty term")
    m = _SUM_RE.match(text)
    if m:
        if sign < 0:
            raise TemplateError("sum blocks cannot be negated")
        lo, hi = _parse_int(m.group(1)), _parse_int(m.group(2))
        scale = _parse_int(m.group(3)) if m.group(3) else 1
        offset = _parse_int(m.group(4)) if m.group(4) else 0
        return SumBlock(lo, hi, scale, offset)
    m = _TERM_RE.match(text)
    if m:
        exp = _parse_int(m.group("exp")) if m.group("exp") else 1
        const, param = _parse_coeff(m.group("coeff")) if m.group("coeff") else (ONE, None)
    else:
        exp = 0
        const, param = _parse_coeff(text)
    return Term(const if sign > 0 else -const, param, exp)


def _parse_coeff(text: str):
    pm = _PARAM_COEFF_RE.match(text)
    if pm:
        num = pm.group("num")
        return (ONE if num is None else parse_scalar(num)), pm.group("param")
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return parse_scalar(text), None


def _unwrap(atom: str) -> str:
    # the parentheses round a whole factor; when the first one closes early
    # the inside is unbalanced, which _split_top rejects
    return atom[1:-1] if atom.startswith("(") and atom.endswith(")") else atom


def parse_template(text: str) -> EquationTemplate:
    """Parse the canonical template grammar (whitespace-insensitive).

    A top-level + or - makes the whole text one factor; otherwise it is a
    product of factors split at top-level *, each optionally parenthesized.
    Every malformed text raises TemplateError.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise TemplateError("empty template")
    try:
        terms = _split_top(s, "+-")
        factors = [terms] if len(terms) > 1 else [
            _split_top(_unwrap(atom), "+-") for atom in _split_top(s, "*")
        ]
        items = [sorted((_parse_term(t) for t in f), key=lambda item: -item.max_exp)
                 for f in factors]
    except ScalarParseError as exc:
        raise TemplateError(str(exc)) from None
    return EquationTemplate(Factor(tuple(f)) for f in items)


def parse_poly_string(text: str) -> UnivariatePoly:
    """Parse a concrete (parameter-free) polynomial like "x^11+1"."""
    template = parse_template(text)
    if template.param_names():
        raise TemplateError(
            f"expected a concrete polynomial, got parameters {template.param_names()}"
        )
    return template.expand({})


def poly_to_string(p: UnivariatePoly) -> str:
    """Canonical descending-power string for a concrete polynomial."""
    return _join_terms(_term(_const_to_string(c), _power("x", e))
                       for e, c in reversed(list(enumerate(p.coeffs))) if not c.is_zero)
