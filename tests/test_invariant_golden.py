"""Golden snapshot of every invariant system.

Each case runs one system (and its absolute invariants) on a fixed form and
renders everything the result exposes: entry names and order, values,
``degree_of``, ``definition_of``, ``unavailable``, covariant names and
coefficients, and the defined/undefined/unavailable state of every absolute
invariant.  ``tests/data/invariant_golden.json`` holds the snapshots; any
change in a value, a definition string or a covariant shows up as a diff.

Re-record (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_invariant_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from seacurves import invariants as inv
from seacurves.forms import BinaryForm, make_form
from seacurves.scalars import Scalar

GOLDEN = Path(__file__).with_name("data") / "invariant_golden.json"

# system -> (invariants, absolute invariants or None)
SYSTEMS = {
    "sextic": ("sextic_invariants", "sextic_absolute"),
    "octavic": ("octavic_invariants", "octavic_absolute"),
    "decimic": ("decimic_invariants", None),
    "general": ("general_invariants", "general_absolute"),
}


def _seeded_form(seed, degree, disc=0, height=6):
    # self-contained (no conftest helpers), so the snapshot can be checked
    # against older checkouts of the package as well
    rng = random.Random(f"golden:{seed}:{degree}:{disc}")
    while True:
        coeffs = [Scalar(rng.randint(-height, height),
                         rng.randint(-height, height) if disc else 0, disc)
                  for _ in range(degree + 1)]
        f = BinaryForm(degree, coeffs)
        if not f.is_zero:
            return f


def _palindromic(d):
    return make_form(d, [1] + [0] * (d - 1) + [1])


def _cases():
    """(case id, system, form) for every snapshot."""
    out = []
    for system, degree in (("sextic", 6), ("octavic", 8), ("decimic", 10)):
        for seed in (0, 1):
            out.append((f"{system}-q-{seed}", system, _seeded_form(seed, degree)))
        for disc in (-3, 5):
            out.append((f"{system}-sqrt{disc}", system, _seeded_form(0, degree, disc, 3)))
        out.append((f"{system}-palindromic", system, _palindromic(degree)))
        out.append((f"{system}-pure-power", system, make_form(degree, [0] * degree + [1])))
    for d in range(6, 23, 2):
        out.append((f"general-q-d{d}", "general", _seeded_form(0, d, height=4)))
    for disc in (-3, 5):
        for d in (8, 12):
            out.append((f"general-sqrt{disc}-d{d}", "general", _seeded_form(0, d, disc, 3)))
    out.append(("general-palindromic-d12", "general", _palindromic(12)))
    out.append(("genus10-palindromic", "genus10", _palindromic(22)))
    out.append(("genus10-pure-power", "genus10", make_form(22, [0] * 22 + [1])))
    out.append(("genus10-off-locus", "genus10",
                make_form(22, [1] + [0] * 10 + [1] + [0] * 10 + [1])))
    return out


def _coeffs(form):
    return [str(c) for c in form.coeffs]


def _vector_doc(vec):
    return {
        "kind": vec.kind,
        "entries": [[name, str(value), vec.degree_of(name), vec.definition_of(name)]
                    for name, value in vec.items()],
        "unavailable": sorted(vec.unavailable),
        "covariants": [[name, form.degree, _coeffs(form)]
                       for name, form in vec.covariants.items()],
    }


def _absolute_doc(absolute):
    states = []
    for name in absolute.names:
        if absolute.defined(name):
            states.append([name, "defined", str(absolute[name])])
        elif name in absolute.undefined:
            states.append([name, "undefined", None])
        else:
            states.append([name, "unavailable", None])
    return {"kind": absolute.kind, "states": states,
            "undefined": sorted(absolute.undefined),
            "unavailable": sorted(absolute.unavailable)}


def snapshot(system, form):
    """Everything one system exposes on ``form``, as JSON-ready data."""
    if system == "genus10":
        try:
            res = inv.genus10_special(form)
        except inv.Genus10CaseError as exc:
            return {"error": type(exc).__name__, "message": str(exc)}
        return {"invariants": _vector_doc(res.invariants),
                "absolute": _absolute_doc(res.absolute)}
    inv_name, abs_name = SYSTEMS[system]
    vec = getattr(inv, inv_name)(form)
    doc = {"invariants": _vector_doc(vec)}
    if abs_name is not None:
        absolute = getattr(inv, abs_name)(vec)
        assert absolute == getattr(inv, abs_name)(form)
        doc["absolute"] = _absolute_doc(absolute)
    return doc


def _record():
    doc = {case: {"system": system, "form": _coeffs(form), "snapshot": snapshot(system, form)}
           for case, system, form in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case,system,form", _cases(), ids=[c[0] for c in _cases()])
def test_invariant_snapshot(golden, case, system, form):
    expected = golden[case]
    assert expected["system"] == system and expected["form"] == _coeffs(form)
    # round-trip through JSON so tuples and lists compare alike
    assert json.loads(json.dumps(snapshot(system, form))) == expected["snapshot"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, _, _ in _cases())


if __name__ == "__main__":
    _record()
