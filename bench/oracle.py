"""Independent re-checks with sympy, run after the timed region.

Each ``check_*`` returns ``None`` when the program's result agrees with
sympy and a reason string otherwise.  Catalog equations are read from the
dataset text and expanded here with sympy, not through the program's
template code.
"""

from __future__ import annotations

import json
import re

import sympy as sp

X, Z, x = sp.symbols("X Z x")


def to_sympy(c):
    value = sp.Rational(c.a.numerator, c.a.denominator)
    if c.disc:
        value += sp.Rational(c.b.numerator, c.b.denominator) * sp.sqrt(c.disc)
    return value


def _same(a, b):
    return sp.expand(a - b) == 0


def _poly(expr):
    return sp.Poly(sp.expand(expr), x, extension=True)


def check_moebius(M, f, g):
    """g must be f(aX + bZ, cX + dZ) for M = [[a, b], [c, d]]."""
    a, b, c, d = (to_sympy(e) for e in (M.a, M.b, M.c, M.d))
    n = f.degree
    subst = sum(to_sympy(coeff) * (a * X + b * Z) ** i * (c * X + d * Z) ** (n - i)
                for i, coeff in enumerate(f.coeffs))
    expanded = sp.Poly(sp.expand(subst), X, Z)
    for i, coeff in enumerate(g.coeffs):
        if not _same(expanded.coeff_monomial(X ** i * Z ** (n - i)), to_sympy(coeff)):
            return f"moebius_act coefficient {i} disagrees with sympy"
    return None


def _dehomogenized(f):
    return _poly(sum(to_sympy(c) * x ** i for i, c in enumerate(f.coeffs)))


def check_discriminant(f):
    from seacurves import forms

    ours = to_sympy(forms.discriminant(forms.dehomogenize(f)))
    if not _same(ours, _dehomogenized(f).discriminant()):
        return "discriminant disagrees with sympy"
    return None


def check_some_not_squarefree(pair):
    if all(_dehomogenized(f).is_sqf for f in pair):
        return "inconclusive although sympy finds every form squarefree"
    return None


def _expand_sums(text):
    """Rewrite each ``sum(i=lo..hi, body)`` block as an explicit sum."""
    out = []
    pos = 0
    while (start := text.find("sum(", pos)) != -1:
        depth = 0
        for end in range(start + 3, len(text)):
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            if depth == 0:
                break
        head, body = text[start + 4:end].split(",", 1)
        lo, hi = re.fullmatch(r"\s*i=(\d+)\.\.(\d+)\s*", head).groups()
        terms = [re.sub(r"\bi\b", str(v), body.replace("a_i", f"a{v}"))
                 for v in range(int(lo), int(hi) + 1)]
        out.append(text[pos:start] + "(" + " + ".join(terms) + ")")
        pos = end + 1
    out.append(text[pos:])
    return "".join(out)


def _parse(text):
    return sp.sympify(_expand_sums(text).replace("^", "**"), locals={"x": x})


def check_specialize(equation, params, genus, code, out, err):
    """Exit 0 needs a squarefree expansion printed exactly, with the row's
    genus; exit 2 needs sympy to find a repeated root."""
    values = {}
    for piece in filter(None, params.split(",")):
        name, value = piece.split("=")
        values[sp.Symbol(name)] = sp.Rational(value)
    expanded = sp.expand(_parse(equation).subs(values))
    squarefree = _poly(expanded).is_sqf
    if code == 2:
        if squarefree:
            return f"rejected ({err.strip()}) but sympy finds it squarefree"
        if "repeated root" not in err:
            return f"rejected for another reason: {err.strip()}"
        return None
    if not squarefree:
        return "accepted but sympy finds a repeated root"
    doc = json.loads(out)
    if doc["genus"] != genus:
        return f"genus {doc['genus']} != cataloged {genus}"
    if not _same(_parse(doc["f"]), expanded):
        return "printed polynomial differs from the sympy expansion"
    return None
