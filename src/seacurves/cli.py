"""Batch command-line interface.

Exit codes: 0 success (or affirmative verdict), 1 negative verdict
(isomorphic: no; catalog verify: failures), 2 usage or precondition errors
(every :class:`~seacurves.scalars.SeacurvesError`, and any bad SEA_CATALOG
file, self-contradictory ones included), 3 a bookkeeping bug or any other
exception, reported on one stderr line without a traceback.  Stdout carries a
JSON document on exit codes 0 and 1 (except ``catalog list --csv``, which
emits CSV by request); diagnostics go to stderr.  Identical argv produces
byte-identical stdout.

The catalog subcommands read the embedded dataset unless the SEA_CATALOG
environment variable points at an alternative JSONL file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import (
    export_csv,
    inclusions,
    load_catalog,
    specialize,
    verify_all,
)
from .catalog.templates import TemplateParamError, parse_poly_string
from .curves import make_curve
from .forms import MAX_DEGREE, BinaryForm, DegreeError, UnivariatePoly, homogenize
from .invariants import (
    InconclusiveError,
    OrderBookkeepingError,
    decimic_invariants,
    general_absolute,
    general_invariants,
    genus2_isomorphic,
    genus3_isomorphic,
    genus10_special,
    octavic_absolute,
    octavic_invariants,
    sextic_absolute,
    sextic_invariants,
)
from .scalars import OutputTooLargeError, Scalar, SeacurvesError, parse_scalar
from .transvection import transvect

__all__ = ["main"]


def _parse_form(text: str) -> BinaryForm:
    """Ascending coefficient CSV, or a poly-string homogenized at its degree."""
    text = text.strip()
    if "x" in text:
        poly = parse_poly_string(text)
        if poly.is_zero:
            raise DegreeError("zero polynomial has no degree to homogenize at")
        return homogenize(poly, poly.degree)
    coeffs = _parse_csv(text)
    return BinaryForm(len(coeffs) - 1, coeffs)


def _parse_poly(text: str) -> UnivariatePoly:
    text = text.strip()
    if "x" in text:
        return parse_poly_string(text)
    return UnivariatePoly(_parse_csv(text))


def _parse_csv(text: str) -> list[Scalar]:
    """Ascending coefficient CSV of degree at most MAX_DEGREE."""
    tokens = text.split(",")
    if len(tokens) > MAX_DEGREE + 1:
        raise DegreeError(f"degree {len(tokens) - 1} exceeds {MAX_DEGREE}")
    return [parse_scalar(tok) for tok in tokens]


def _parse_params(text: str) -> dict[str, Scalar]:
    params = {}
    text = text.strip()
    if not text:
        return params
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            raise TemplateParamError(f"bad parameter assignment {piece!r}, expected name=value")
        if name in params:
            raise TemplateParamError(f"parameter {name!r} assigned twice")
        params[name] = parse_scalar(value)
    return params


def _emit(doc) -> None:
    try:
        text = json.dumps(doc, indent=2)
    except ValueError:  # on these documents, only an int past the digit limit
        raise OutputTooLargeError() from None
    sys.stdout.write(text + "\n")


# The dispatch tables are also the choices of --kind and isomorphic --genus, in
# help order.  Each entry reads the module's names when called, so a rebinding
# (bench/spans.py traces that way) is seen.  A kind gives (invariants, absolute
# invariants or None).
_KINDS = {
    "sextic": lambda f: (vec := sextic_invariants(f), sextic_absolute(vec)),
    "octavic": lambda f: (vec := octavic_invariants(f), octavic_absolute(vec)),
    "decimic": lambda f: (decimic_invariants(f), None),
    "general": lambda f: (vec := general_invariants(f), general_absolute(vec)),
    "genus10": lambda f: ((result := genus10_special(f)).invariants, result.absolute),
}
_ISOMORPHIC = {
    2: lambda f1, f2: genus2_isomorphic(f1, f2),
    3: lambda f1, f2: genus3_isomorphic(f1, f2),
}


def _invariants_doc(kind: str, form: BinaryForm) -> dict:
    vec, absolute = _KINDS[kind](form)
    availability = {name: True for name in vec.names()}
    for name in sorted(vec.unavailable):
        availability[name] = False
    abs_doc = {}
    if absolute is not None:
        for name in absolute.names:
            if absolute.defined(name):
                abs_doc[name] = str(absolute[name])
            elif name in absolute.undefined:
                abs_doc[name] = "undefined"
            else:
                availability[name] = False
    return {
        "kind": kind,
        "invariants": {name: str(value) for name, value in vec.items()},
        "absolute": abs_doc,
        "availability": availability,
    }


def _cmd_transvect(args) -> int:
    f = _parse_form(args.f)
    g = _parse_form(args.g)
    _emit(transvect(f, g, args.r).to_json())
    return 0


def _cmd_invariants(args) -> int:
    form = _parse_form(args.coeffs)
    _emit(_invariants_doc(args.kind, form))
    return 0


def _cmd_genus(args) -> int:
    curve = make_curve(args.n, _parse_poly(args.poly))
    _emit({"genus": curve.genus})
    return 0


def _cmd_isomorphic(args) -> int:
    f1 = _parse_form(args.f1)
    f2 = _parse_form(args.f2)
    verdict = _ISOMORPHIC[args.genus](f1, f2)
    _emit({"isomorphic": verdict})
    return 0 if verdict else 1


def _cmd_catalog_list(args) -> int:
    catalog = load_catalog()
    records = catalog.query(genus=args.genus, reduced_group=args.group)
    if args.csv:
        sys.stdout.write(export_csv(records))
    else:
        _emit([r.to_json() for r in records])
    return 0


def _cmd_catalog_verify(args) -> int:
    catalog = load_catalog()
    report = verify_all(catalog, genus=args.genus)
    _emit(report.summary())
    return 0 if report.ok else 1


def _cmd_catalog_specialize(args) -> int:
    catalog = load_catalog()
    record = catalog[args.id]
    curve = specialize(record, _parse_params(args.params))
    _emit(curve.to_json())
    return 0


def _cmd_catalog_inclusions(args) -> int:
    catalog = load_catalog()
    edges = inclusions(catalog, args.genus)
    _emit({"genus": args.genus, "edges": [list(e) for e in edges]})
    return 0


@functools.cache  # parse_args keeps no state on the parser, so main calls share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seacurves",
        description="Exact invariants of binary forms and the superelliptic "
                    "family catalog (genus 5-10).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transvect", help="r-transvection of two binary forms")
    p.add_argument("--f", required=True, help="form: ascending coeff CSV or poly-string")
    p.add_argument("--g", required=True, help="form: ascending coeff CSV or poly-string")
    p.add_argument("-r", type=int, required=True, help="transvection order")
    p.set_defaults(func=_cmd_transvect)

    p = sub.add_parser("invariants", help="invariant system of a binary form")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--coeffs", required=True,
                   help="form: ascending coeff CSV or poly-string")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("genus", help="genus of the superelliptic curve y^n = f(x)")
    p.add_argument("-n", type=int, required=True, help="level (exponent of y)")
    p.add_argument("--poly", required=True, help="f(x): poly-string or coeff CSV")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("isomorphic",
                       help="absolute-invariant isomorphism test (genus 2 or 3)")
    p.add_argument("--genus", type=int, required=True, choices=_ISOMORPHIC)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.set_defaults(func=_cmd_isomorphic)

    pc = sub.add_parser("catalog", help="query and verify the family table")
    csub = pc.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("list", help="list rows")
    p.add_argument("--genus", type=int)
    p.add_argument("--group", help="reduced group filter, e.g. A5 or D_4")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--csv", action="store_true", default=False)
    p.set_defaults(func=_cmd_catalog_list)

    p = csub.add_parser("verify", help="run the per-row consistency checks")
    p.add_argument("--genus", type=int)
    p.set_defaults(func=_cmd_catalog_verify)

    p = csub.add_parser("specialize", help="instantiate a row at parameter values")
    p.add_argument("--id", required=True)
    p.add_argument("--params", default="", help='assignments like "a1=2,a2=-1/3"')
    p.set_defaults(func=_cmd_catalog_specialize)

    p = csub.add_parser("inclusions", help="syntactic specialization DAG for one genus")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=_cmd_catalog_inclusions)

    return parser


_VALUE_FLAGS = {"--f", "--g", "--f1", "--f2", "--coeffs", "--poly", "--params"}


def _join_value_flags(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1,0,...,1" for flags; fold them into
    # --flag=value form so coefficient CSVs may start with a minus sign.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_join_value_flags(list(argv)))
    try:
        return args.func(args)
    except OrderBookkeepingError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (SeacurvesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: one line naming the exception, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
