"""Differential tests of the scalar and template text grammar.

The references below are the parsers and renderers the package had before
scalars and templates shared one depth-0 splitter, one numeral parser and
one term renderer: ``parse_scalar`` with its own splitter loop; the template
parser with its own splitter, top-level-sign walk and balanced-parentheses
walk and a two-regex term cascade; and the term renderer of template
text.  The reprs of forms and polynomials are checked against the model's
``reference.ref_form_repr`` and ``reference.ref_poly_repr``.

On every generated string and every catalog equation the package must give
the reference's verdict, exception type and value, and render byte for
byte the same text; a template it parses with no parameters expands to a
nonzero polynomial of the template's degree, which the CLI homogenizes at
that degree.

Intended differences from the old parsers:

- a malformed multiplier of a parameter (``1/0*a1``) used to escape
  ``parse_template`` as a bare ``ScalarParseError`` and is now a
  ``TemplateError`` (the comparison allows for it; the reference keeps the
  old behaviour);
- the radical's multiplier is a rational joined to ``sqrt(`` by at most one
  ``*``, where the old parser stripped every trailing ``*`` and so read
  ``2**sqrt(5)`` as ``2*sqrt(5)`` and ``*sqrt(5)`` as ``sqrt(5)``;
- a scalar holds at most one rational part and at most one radical part,
  where the old parser summed two of a kind (``1+1`` was 2 and
  ``sqrt(5)+sqrt(5)`` was ``2*sqrt(5)``, though ``1+1+1`` was refused);
- every numeral, exponent, bound and parameter index is read in ASCII
  digits, where the old patterns let any Unicode decimal digit through
  (``x^٢ + 1`` was x^2 + 1);
- whitespace may sit between tokens but not inside a numeral or a name,
  where the old parsers deleted it (``1 2`` was 12 and ``x^1 1`` was x^11);
- the radicand of a zero multiple of sqrt(D) is checked (``0*sqrt(4)`` was
  0).

The reference below makes each of the last five changes.  The template
renderer reference also parenthesizes every one-term factor whose
coefficient is not 1 or -1, as the package does since ``(2*x^3)*x`` stopped
rendering as ``2*x^3*x``, text that parses to three factors.
"""

import json
import re
import string
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ref_form_repr, ref_poly_repr, to_model
from seacurves.catalog.templates import (
    EquationTemplate,
    Factor,
    SumBlock,
    Term,
    TemplateError,
    parse_template,
    poly_to_string,
)
from seacurves.forms import BinaryForm, UnivariatePoly
from seacurves.scalars import ONE, Scalar, ScalarParseError, parse_scalar

# -- reference scalar parser ----------------------------------------------------------

_SQRT_RE = re.compile(r"sqrt\((-?[0-9]+)\)")
_RATIONAL_RE = re.compile(r"^[0-9]+(/[0-9]+)?$")


def _ref_int(digits, error):
    try:
        return int(digits)
    except ValueError:
        raise error(f"numeral too long ({len(digits)} characters)") from None


_NAME_CHARS = string.ascii_letters + "_"


def _ref_squeeze(text, error):
    """text without whitespace, refusing whitespace between two digits or
    after a letter or _ and before a letter, digit or _."""
    words = text.split()
    for left, right in zip(words, words[1:]):
        a, b = left[-1], right[0]
        if a in string.digits and b in string.digits or (
                a in _NAME_CHARS and b in _NAME_CHARS + string.digits):
            raise error(f"whitespace inside a token in {text!r}")
    return "".join(words)


def ref_parse_scalar(text):
    s = _ref_squeeze(text, ScalarParseError)
    if not s:
        raise ScalarParseError("empty scalar")
    parts = []
    start = 0
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start and s[i - 1] not in "+-*/(":
            parts.append(s[start:i])
            start = i
    parts.append(s[start:])
    if len(parts) > 2:
        raise ScalarParseError(f"too many terms in scalar {text!r}")
    a = b = Fraction(0)
    disc = 0
    kinds = set()
    for part in parts:
        sign = 1
        while part and part[0] in "+-":
            if part[0] == "-":
                sign = -sign
            part = part[1:]
        if not part:
            raise ScalarParseError(f"dangling sign in {text!r}")
        m = _SQRT_RE.search(part)
        kind = "radical" if m else "rational"
        if kind in kinds:
            raise ScalarParseError(f"two {kind} parts in {text!r}")
        kinds.add(kind)
        if m:
            d = _ref_int(m.group(1), ScalarParseError)
            head = part[: m.start()]
            if part[m.end():]:
                raise ScalarParseError(f"unexpected trailing text in {text!r}")
            coeff = _ref_rat(head.removesuffix("*"), text) if head else Fraction(1)
            b += sign * coeff
            disc = d
        else:
            a += sign * _ref_rat(part, text)
    try:  # sqrt(D) is built, and D checked, even when its multiplier is 0
        return Scalar(a) + (b * Scalar(0, 1, disc) if "radical" in kinds else 0)
    except ValueError as exc:
        raise ScalarParseError(str(exc)) from None


def _ref_rat(part, whole):
    if not _RATIONAL_RE.match(part):
        raise ScalarParseError(f"bad rational {part!r} in {whole!r}")
    num, _, den = part.partition("/")
    if den and _ref_int(den, ScalarParseError) == 0:
        raise ScalarParseError(f"zero denominator in {whole!r}")
    num = _ref_int(num, ScalarParseError)
    return Fraction(num, _ref_int(den, ScalarParseError)) if den else Fraction(num)


# -- reference template parser ------------------------------------------------------------

_SUM_RE = re.compile(
    r"^sum\(i=([0-9]+)\.\.([0-9]+),a_i\*x(?:\^(?:\((?:([0-9]+)\*)?i(?:\+([0-9]+))?\)|i))\)$"
)
_PARAM_COEFF_RE = re.compile(r"^(?:(?P<num>-?[0-9]+(?:/[0-9]+)?)\*)?(?P<param>a[0-9]+)$")
_MONO_RE = re.compile(r"^x(?:\^([0-9]+))?$")
_TERM_RE = re.compile(r"^(?P<coeff>.+)\*(?P<mono>x(?:\^[0-9]+)?)$")


def _ref_split_top(s, seps):
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise TemplateError(f"unbalanced parentheses in {s!r}")
        elif depth == 0 and ch in seps and i > start and s[i - 1] not in "+-*/^(":
            parts.append(s[start:i])
            start = i if ch in "+-" else i + 1
    if depth:
        raise TemplateError(f"unbalanced parentheses in {s!r}")
    parts.append(s[start:])
    if "" in parts:
        raise TemplateError(f"empty factor in {s!r}")
    return parts


def _ref_has_top_level_sign(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "+-*/^(":
            return True
    return False


def _ref_balanced_whole(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return False
    return True


def _ref_parse_term(text):
    sign = 1
    while text and text[0] in "+-":
        if text[0] == "-":
            sign = -sign
        text = text[1:]
    if not text:
        raise TemplateError("empty term")
    m = _SUM_RE.match(text)
    if m:
        if sign < 0:
            raise TemplateError("sum blocks cannot be negated")
        lo, hi = _ref_int(m.group(1), TemplateError), _ref_int(m.group(2), TemplateError)
        scale = _ref_int(m.group(3), TemplateError) if m.group(3) else 1
        offset = _ref_int(m.group(4), TemplateError) if m.group(4) else 0
        return SumBlock(lo, hi, scale, offset)
    mono = _MONO_RE.match(text)
    if mono:
        exp = _ref_int(mono.group(1), TemplateError) if mono.group(1) else 1
        return Term(Scalar(sign), None, exp)
    tm = _TERM_RE.match(text)
    if tm:
        coeff_txt = tm.group("coeff")
        exp_m = _MONO_RE.match(tm.group("mono"))
        exp = _ref_int(exp_m.group(1), TemplateError) if exp_m.group(1) else 1
    else:
        coeff_txt, exp = text, 0
    pm = _PARAM_COEFF_RE.match(coeff_txt)
    if pm:
        num = pm.group("num")
        const, param = (ONE if num is None else ref_parse_scalar(num)), pm.group("param")
    else:
        if coeff_txt.startswith("(") and coeff_txt.endswith(")"):
            coeff_txt = coeff_txt[1:-1]
        try:
            const, param = ref_parse_scalar(coeff_txt), None
        except ScalarParseError as exc:
            raise TemplateError(f"bad coefficient {coeff_txt!r}: {exc}") from None
    return Term(sign * const, param, exp)


def ref_parse_template(text):
    s = _ref_squeeze(text, TemplateError)
    if not s:
        raise TemplateError("empty template")
    atoms = [s] if _ref_has_top_level_sign(s) else _ref_split_top(s, "*")
    factors = []
    for atom in atoms:
        if atom.startswith("(") and atom.endswith(")") and _ref_balanced_whole(atom):
            atom = atom[1:-1]
        items = [_ref_parse_term(t) for t in _ref_split_top(atom, "+-")]
        items.sort(key=lambda item: -item.max_exp)
        factors.append(Factor(tuple(items)))
    return EquationTemplate(factors)


# -- reference renderers ----------------------------------------------------------------------


def _ref_coeff_to_string(const, param):
    if param is None:
        text = str(const)
        if const.disc != 0 and const.a != 0:
            text = f"({text})"
        return text
    if const == ONE:
        return param
    if const == -ONE:
        return f"-{param}"
    return f"{_ref_coeff_to_string(const, None)}*{param}"


def _ref_term_to_string(term):
    if term.exp == 0:
        return _ref_coeff_to_string(term.const, term.param)
    mono = "x" if term.exp == 1 else f"x^{term.exp}"
    if term.param is None and term.const == ONE:
        return mono
    if term.param is None and term.const == -ONE:
        return f"-{mono}"
    return f"{_ref_coeff_to_string(term.const, term.param)}*{mono}"


def _ref_sumblock_to_string(block):
    if block.scale == 1 and block.offset == 0:
        expo = "x^i"
    elif block.offset == 0:
        expo = f"x^({block.scale}*i)"
    else:
        expo = f"x^({block.scale}*i+{block.offset})"
    return f"sum(i={block.lo}..{block.hi}, a_i*{expo})"


def _ref_factor_to_string(factor):
    pieces = []
    for item in factor.items:
        text = (_ref_sumblock_to_string(item) if isinstance(item, SumBlock)
                else _ref_term_to_string(item))
        if not pieces:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append(f" - {text[1:]}")
        else:
            pieces.append(f" + {text}")
    return "".join(pieces)


def ref_to_string(template):
    bodies = []
    for factor in template.factors:
        body = _ref_factor_to_string(factor)
        terms = factor.all_terms()
        if len(terms) == 1:
            if terms[0].const not in (ONE, -ONE):
                body = f"({body})"
        elif len(template.factors) > 1:
            body = f"({body})"
        bodies.append(body)
    return "*".join(bodies)


def ref_poly_to_string(p):
    if p.is_zero:
        return "0"
    return _ref_factor_to_string(Factor(tuple(
        Term(c, None, e) for e, c in sorted(enumerate(p.coeffs), key=lambda t: -t[0])
        if not c.is_zero)))


# -- comparison ----------------------------------------------------------------------------------


def _outcome(parse, text):
    try:
        return parse(text), None
    except ValueError as exc:
        return None, type(exc)


def _check_scalar(text):
    want, want_exc = _outcome(ref_parse_scalar, text)
    got, got_exc = _outcome(parse_scalar, text)
    assert got_exc is want_exc, text
    if want is not None:
        assert got == want and str(got) == str(want), text


def _check_template(text):
    want, want_exc = _outcome(ref_parse_template, text)
    got, got_exc = _outcome(parse_template, text)
    # the reference let a bad parameter multiplier escape as ScalarParseError
    assert got_exc is (TemplateError if want_exc is ScalarParseError else want_exc), text
    if want is not None:
        assert got == want, text
        assert got.to_string() == ref_to_string(want), text
        if not got.param_names():  # every factor leads with a nonzero constant
            poly = got.expand()
            assert not poly.is_zero and poly.degree == got.degree, text


_SCALAR_TOKENS = ["0", "1", "2", "7", "12", "1/2", "3/4", "2/0", "/", "//", "+", "-", "*",
                  "(", ")", "sqrt(", "sqrt(-3)", "sqrt(5)", "sqrt(4)", "sqrt(1)", " ", "^",
                  "x", "a1", "9" * 5000]
_TEMPLATE_TOKENS = ["x", "x^2", "x^12", "^", "2", "3", "0", "1/2", "1/0", "-3", "/", "a1",
                    "a2", "a10", "*", "+", "-", "(", ")", " ", "sqrt(-3)", "sqrt(5)",
                    "sqrt(", "(1+sqrt(-3))", "sum(i=1..3, a_i*x^(2*i))",
                    "sum(i=1..2, a_i*x^i)", "sum(i=2..1, a_i*x^i)", "sum(i=1..2, a_i*x^(i+1))",
                    "sum(i=1..2, a_i*x^(3*i+2))", "x^" + "9" * 5000]


def _texts(tokens, size):
    return st.lists(st.sampled_from(tokens), max_size=size).map("".join)


@settings(max_examples=500, deadline=None)
@given(_texts(_SCALAR_TOKENS, 8))
def test_parse_scalar_matches_reference(text):
    _check_scalar(text)


@settings(max_examples=200, deadline=None)
@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.sampled_from([-3, 5, -1, 2]))
def test_parse_scalar_matches_reference_on_rendered_scalars(a, b, disc):
    _check_scalar(str(Scalar(a, b, disc)))


@settings(max_examples=1000, deadline=None)
@given(_texts(_TEMPLATE_TOKENS, 12))
def test_parse_template_matches_reference(text):
    _check_template(text)


_TERMS = st.tuples(
    st.sampled_from(["", "-", "+", "--"]),
    st.sampled_from(["", "2*", "-1*", "1/2*", "a1*", "3*a2*", "sqrt(5)*", "(1-sqrt(5))*",
                     "(-1/2+2*sqrt(5))*", "(3)*", "1/0*a1*"]),
    st.sampled_from(["x", "x^2", "x^3", "x^7", "1", "sqrt(5)", "a3", "(2)"]),
).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(_TERMS, min_size=1, max_size=4), min_size=1, max_size=3),
       st.booleans())
def test_parse_template_matches_reference_on_term_sums(factors, wrap):
    bodies = [" + ".join(f) for f in factors]
    if wrap or len(bodies) > 1:
        bodies = [f"({b})" for b in bodies]
    _check_template("*".join(bodies))


def _catalog_equations():
    path = resources.files("seacurves.catalog").joinpath("data/table.jsonl")
    rows = [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]
    return sorted({r["equation"] for r in rows if r["equation"] is not None})


def test_catalog_equations_match_reference():
    equations = _catalog_equations()
    assert len(equations) == 162
    for text in equations:
        _check_template(text)
        template = parse_template(text)
        assert parse_template(template.to_string()) == template


def test_bad_parameter_multiplier_is_a_template_error():
    text = "x^2 + 1/0*a1*x + 1"
    with pytest.raises(ScalarParseError):
        ref_parse_template(text)
    with pytest.raises(TemplateError, match="zero denominator"):
        parse_template(text)


_COEFFS = st.one_of(
    st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(-1, 2))]),
    st.builds(lambda a, b: Scalar(a, b, 5), st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(lambda a, b: Scalar(a, b, -3), st.fractions(max_denominator=4),
              st.fractions(max_denominator=4)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFFS, max_size=9), st.booleans())
def test_renderers_match_reference(coeffs, quadratic):
    field = 5 if quadratic else -3  # one field per coefficient list
    coeffs = [c if c.disc in (0, field) else Scalar(c.a) for c in coeffs]
    p = UnivariatePoly(coeffs)
    assert repr(p) == ref_poly_repr(to_model(p))
    assert poly_to_string(p) == ref_poly_to_string(p)
    if coeffs:
        f = BinaryForm(len(coeffs) - 1, coeffs)
        assert repr(f) == ref_form_repr(to_model(f))
