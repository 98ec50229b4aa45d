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
by descending exponent, single spaces around + and -, none around *).  A
template built through the Python API is held to the same grammar when its
factors are built: a factor is a nonempty sum of Terms and SumBlocks, an
exponent or sum-block bound is an int (``TypeError`` otherwise), a constant
a Scalar (``TypeError``), an exponent is >= 0 and a parameter is named ``a``
followed by digits (:class:`TemplateError` otherwise).

Construction checks a template's terms: after the degree check, so that a
sum block past ``MAX_DEGREE`` is refused from its bounds, it enumerates each
factor's terms once, checks them and stores only the parameter names; the
factors are the one list of terms.  Arithmetic runs on the integer kernel of
:mod:`seacurves.forms`.  Each template builds, on first use, one cleared
form, enumerating each factor's terms once more: per factor, its constants
cleared by ``forms._clear`` into an integer scale and ``(exp, param, A, B)``
terms, each constant being (A + B*sqrt(D)) / scale.
:meth:`EquationTemplate.expand` is one pass for values of any fields: it
clears the values over one denominator, each over its own field, builds one
integer vector per factor, joining fields as Scalar arithmetic joins them,
and multiplies the vectors by ``forms._pair_product``, making the product
canonical once; :meth:`EquationTemplate.symbolic` accumulates integers per
exponent and monomial and builds a Scalar only for each entry that survives.

Parsing shares its splitter, sign folding and numeral parser with
:func:`~seacurves.scalars.parse_scalar`, and coefficients are scalar text;
every :class:`~seacurves.scalars.ScalarParseError` becomes a
:class:`TemplateError` at :func:`parse_template`.  Terms are rendered by the
term renderer of :mod:`seacurves.forms`, the one behind the reprs of forms
and polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat

from ..forms import (MAX_DEGREE, UnivariatePoly, _clear, _clear_each, _const_to_string,
                     _join_coeff_field, _join_terms, _pair_product, _power, _scal, _term,
                     poly_to_string)
from ..scalars import (_RATIONAL_RE, ONE, FieldMixError, Scalar, ScalarParseError,
                       SeacurvesError, _int_str, _join_field, _mul, _parse_int, _repr_str,
                       _require_int, _scalar, _split_top, _strip_sign, _strip_space,
                       parse_scalar)

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
        for bound in (self.lo, self.hi, self.scale, self.offset):
            _require_int(bound, "sum block bound")
        if self.lo > self.hi or self.lo < 1 or self.scale < 1 or self.offset < 0:
            raise TemplateError(f"bad sum block bounds {_repr_str(self)}")

    @property
    def max_exp(self) -> int:
        return self.scale * self.hi + self.offset

    def terms(self) -> list[Term]:
        return [
            Term(ONE, f"a{i}", self.scale * i + self.offset)
            for i in range(self.lo, self.hi + 1)
        ]


# a parameter name: the only names the grammar reads back
_PARAM_RE = re.compile(r"a[0-9]+")


def _check_term(term: Term) -> None:
    """The rules on a Term given to a Factor (a sum block's terms keep them
    by construction): an int exponent >= 0, a Scalar constant, and no
    parameter or one named as the grammar writes it."""
    _require_int(term.exp, "term exponent")
    if term.exp < 0:
        raise TemplateError(f"negative exponent {_int_str(term.exp)}")
    if not isinstance(term.const, Scalar):
        raise TypeError(f"term constant must be a Scalar, got {_repr_str(term.const)}")
    if term.param is not None and not (isinstance(term.param, str)
                                       and _PARAM_RE.fullmatch(term.param)):
        raise TemplateError(f"parameter name {_repr_str(term.param)} is not 'a' followed by digits")


@dataclass(frozen=True)
class Factor:
    """A nonempty sum of Terms and SumBlocks, kept sorted by descending
    ``max_exp`` (stably), so that its first item is its leading term; each
    Term is checked by ``_check_term``."""

    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise TemplateError("empty factor")
        for item in items:
            if isinstance(item, Term):
                _check_term(item)
            elif not isinstance(item, SumBlock):
                raise TemplateError(f"factor item {_repr_str(item)} is not a Term or SumBlock")
        object.__setattr__(self, "items", tuple(sorted(items, key=lambda i: -i.max_exp)))

    @property
    def degree(self) -> int:
        return self.items[0].max_exp

    def all_terms(self) -> tuple[Term, ...]:
        """The terms in item order, each sum block enumerated."""
        terms = []
        for item in self.items:
            terms += item.terms() if isinstance(item, SumBlock) else (item,)
        return tuple(terms)


# Term products one symbolic() expansion may make.  The packaged table needs at
# most 482 (g10-c5-1); a catalog file's template of degree <= MAX_DEGREE can
# need millions (nine copies of an 11-term factor need 1.5 million).
_MAX_PRODUCTS = 20_000


def _numeral_key(digits: str) -> tuple[int, str]:
    """Sort key putting digit strings in numeric order; int() would refuse
    one past the interpreter's 4300-digit limit."""
    digits = digits.lstrip("0")
    return len(digits), digits


@dataclass(frozen=True, repr=False)
class EquationTemplate:
    """Product of factors; expands to a UnivariatePoly at a parameter map.

    A frozen dataclass on ``factors`` (any iterable, kept as a tuple), which
    hold the terms.  Construction checks the terms and stores the parameter
    names; the cleared form, the one other reader of the terms, and the
    support the inclusion pair test reads are cached properties.
    """

    factors: tuple
    _names: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise TemplateError("template needs at least one factor")
        # before any sum-block term is enumerated
        if self.degree > MAX_DEGREE:
            raise TemplateError(f"template degree {_int_str(self.degree)} exceeds {MAX_DEGREE}")
        terms = tuple(factor.all_terms() for factor in self.factors)
        for factor, fterms in zip(self.factors, terms):
            if len({t.exp for t in fterms}) != len(fterms):
                raise TemplateError("duplicate exponent inside a factor")
            lead = factor.items[0]
            if not isinstance(lead, Term) or lead.param is not None or lead.const.is_zero:
                raise TemplateError("template leading coefficient must be a nonzero constant")
        try:
            _join_coeff_field(t.const for fterms in terms for t in fterms)
        except FieldMixError as exc:
            raise TemplateError(str(exc)) from None
        object.__setattr__(self, "_names", frozenset(
            t.param for fterms in terms for t in fterms if t.param))

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)

    @cached_property
    def _form(self) -> tuple:
        """The cleared form that :meth:`expand` and :meth:`symbolic` read:
        ``(disc, factors)``, with disc the field of the constants and per
        factor ``(scale, count, terms)``: its number of terms and the
        ``(exp, param, A, B)`` of each nonzero term in the factor's order,
        the leading term first, its constant being (A + B*sqrt(disc)) / scale.
        Each factor's constants are cleared once, by one ``_clear`` call."""
        disc, factors = 0, []
        for terms in map(Factor.all_terms, self.factors):
            scale, a, b, fdisc = _clear([t.const for t in terms])
            disc = _join_field(disc, fdisc)
            factors.append((scale, len(terms), tuple(
                (t.exp, t.param, x, y) for t, x, y in zip(terms, a, b or repeat(0)) if x or y)))
        return disc, tuple(factors)

    def param_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._names, key=lambda name: _numeral_key(name[1:])))

    def expand(self, params: dict | None = None) -> UnivariatePoly:
        """Substitute parameter values and multiply out, exactly, in one pass.

        The values are cleared over one denominator, each over its own field
        (``forms._clear_each``); each factor becomes one integer vector, and
        the vectors are multiplied by ``_pair_product`` and made canonical
        once.  Fields join as Scalar arithmetic joins them: each constant with
        its value, then a factor's coefficients from x^0 up, then the product
        so far with the factor, a product whose radical part vanished being
        rational.  So a FieldMixError names the first field met and the first
        other one, and (x + sqrt(5))*(x - sqrt(5))*(x + a1) expands at
        a1 = sqrt(-3).
        """
        values = {k: _scal(v) for k, v in (params or {}).items()}
        names = self._names
        if names != values.keys():
            missing = sorted(names - values.keys())
            extra = sorted(values.keys() - names)
            raise TemplateParamError(
                f"parameter mismatch: missing {missing}, unexpected {extra}"
            )
        disc, factors = self._form
        pden, value = _clear_each(values)
        den, acc, field = 1, ([1], [0]), 0
        for scale, _, terms in factors:
            size = terms[0][0] + 1  # the leading term's exponent, the factor's degree
            va, vb, fields = [0] * size, [0] * size, [0] * size
            for e, p, x, y in terms:
                d = disc if y else 0
                if p:
                    a, b, vdisc = value[p]
                    d = _join_field(d, vdisc)
                    va[e], vb[e] = _mul((x, y), (a, b), d)
                else:
                    va[e], vb[e] = x * pden, y * pden
                if vb[e]:
                    fields[e] = d
            fdisc = reduce(_join_field, filter(None, fields), 0)
            # a product whose B vanished is rational, and meets any field
            field = _join_field(field if any(acc[1]) else 0, fdisc)
            acc = _pair_product(acc, (va, vb), field)
            den *= scale * pden
        return UnivariatePoly._from_vec(den, *acc, field)

    def symbolic(self) -> dict:
        """Expanded coefficients as polynomials in the parameters, in one flat pass.

        Returns exp -> {monomial: Scalar} with monomial a sorted tuple of
        parameter names (with repetition).  Used by the inclusion DAG through
        the support it caches, ``_support``; identically-zero coefficients are
        dropped.
        The pass accumulates integer pairs (A, B), A + B*sqrt(disc), over the
        product of the factors' scales, and builds a Scalar for each entry that
        survives.  A template needing over ``_MAX_PRODUCTS`` term products
        raises :class:`TemplateError` before making them.
        """
        disc, factors = self._form
        acc = {(0, ()): (1, 0)}
        den = 1
        products = 0
        for scale, count, terms in factors:
            products += len(acc) * count
            if products > _MAX_PRODUCTS:
                raise TemplateError(f"symbolic expansion needs over {_MAX_PRODUCTS} term products")
            new = {}
            for (e1, m1), c1 in acc.items():
                for e2, p, x, y in terms:
                    key = (e1 + e2, tuple(sorted(m1 + (p,))) if p else m1)
                    a, b = _mul(c1, (x, y), disc)
                    old = new.get(key, (0, 0))
                    new[key] = (old[0] + a, old[1] + b)
            acc = {key: c for key, c in new.items() if c != (0, 0)}
            den *= scale
        out = {}
        for (e, mono), (a, b) in acc.items():
            out.setdefault(e, {})[mono] = _scalar(den, a, b, disc)
        return out

    @cached_property
    def _support(self) -> tuple[frozenset, frozenset]:
        """``(exponents, fixed)``: the exponents of the nonzero coefficients
        and the ``(exp, ("const", c))`` pair of each coefficient free of
        parameters.  The inclusion pair test is containment of these sets."""
        coeffs = self.symbolic()
        return frozenset(coeffs), frozenset(
            (e, ("const", poly[()])) for e, poly in coeffs.items() if list(poly) == [()])

    def support_classification(self) -> dict:
        """exp -> ("const", Scalar) for parameter-free coefficients,
        exp -> "param" for parameter-dependent ones, in ascending exponent
        order.  The template is expanded on the first call only; every call
        returns a new map."""
        fixed = dict(self._support[1])
        return {e: fixed.get(e, "param") for e in sorted(self._support[0])}

    def to_string(self) -> str:
        """Canonical text.  A factor of several terms is parenthesized in a
        product, and a one-term factor whose coefficient is not 1 or -1
        always is, so that parsing splits no factor at its * or +."""
        bodies = []
        for factor in self.factors:
            body, items = _factor_to_string(factor), factor.items
            # a factor of one item is one term: its lead, a nonzero constant
            if (len(items) > 1 and len(self.factors) > 1
                    or len(items) == 1 and items[0].const not in (1, -1)):
                body = f"({body})"
            bodies.append(body)
        return "*".join(bodies)

    def __repr__(self):
        return f"EquationTemplate({self.to_string()!r})"


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
    r"^sum\(i=([0-9]+)\.\.([0-9]+),a_i\*x(?:\^(?:\((?:([0-9]+)\*)?i(?:\+([0-9]+))?\)|i))\)$"
)
_PARAM_COEFF_RE = re.compile(
    rf"^(?:(?P<num>-?{_RATIONAL_RE.pattern})\*)?(?P<param>{_PARAM_RE.pattern})$")
_TERM_RE = re.compile(r"^(?:(?P<coeff>.+)\*)?x(?:\^(?P<exp>[0-9]+))?$")


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
    return parse_scalar(_unwrap(text)), None


def _unwrap(atom: str) -> str:
    # the parentheses round a whole factor or coefficient; when the first one
    # closes early the inside is unbalanced, which _split_top rejects
    return atom[1:-1] if atom.startswith("(") and atom.endswith(")") else atom


def parse_template(text: str) -> EquationTemplate:
    """Parse the canonical template grammar; whitespace may sit between
    tokens, not inside a numeral or a name.

    A top-level + or - makes the whole text one factor; otherwise it is a
    product of factors split at top-level *, each optionally parenthesized.
    Every malformed text raises TemplateError.
    """
    try:
        s = _strip_space(text)
        if not s:
            raise TemplateError("empty template")
        terms = _split_top(s, "+-")
        factors = [terms] if len(terms) > 1 else [
            _split_top(_unwrap(atom), "+-") for atom in _split_top(s, "*")
        ]
        items = [tuple(_parse_term(t) for t in f) for f in factors]
    except ScalarParseError as exc:
        raise TemplateError(str(exc)) from None
    return EquationTemplate(Factor(f) for f in items)


def parse_poly_string(text: str) -> UnivariatePoly:
    """Parse a concrete (parameter-free) polynomial like "x^11+1"."""
    template = parse_template(text)
    if template.param_names():
        raise TemplateError(
            f"expected a concrete polynomial, got parameters {template.param_names()}"
        )
    return template.expand({})
