"""The embedded table of superelliptic curve families, genus 5-10.

Each :class:`FamilyRecord` is one table row: reduced group (kind and
sub-order m, which the "m" column repeats), full automorphism group, level
n, printed signature (final entry possibly omitted), locus dimension delta,
and the parametric equation template.
Rows needing repair carry a non-"ok" status, with reasons in ``data/FLAGS.md``;
rows that contradict themselves raise :class:`CatalogError`.

Verification (:func:`verify_record` / :func:`verify_all`) re-derives, per
row: the genus from (n, deg f), the parameter count against delta, the
Riemann-Hurwitz completion of the signature, the dimension identity
delta = branch points - 3, and the 84(g-1) bound.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

from ..curves import (
    CompletionResult,
    CurveDataError,
    ReducedGroup,
    Signature,
    SuperellipticCurve,
    complete_signature,
    full_group_order,
    genus_formula,
    hurwitz_bound,
    make_curve,
)
from ..scalars import SeacurvesError, _int_str
from .templates import EquationTemplate, TemplateParamError, _numeral_key, parse_template

__all__ = [
    "FamilyRecord",
    "Catalog",
    "RowReport",
    "VerificationReport",
    "CatalogError",
    "STATUS_OK",
    "STATUS_ILLEGIBLE",
    "STATUS_CORRECTED",
    "STATUS_MISSING_EQUATION",
    "load_catalog",
    "specialize",
    "verify_record",
    "verify_all",
    "inclusions",
    "export_jsonl",
    "export_csv",
    "flags_text",
]

STATUS_OK = "ok"
STATUS_ILLEGIBLE = "flagged_illegible"
STATUS_CORRECTED = "flagged_corrected"
STATUS_MISSING_EQUATION = "missing_equation"
_STATUSES = (STATUS_OK, STATUS_ILLEGIBLE, STATUS_CORRECTED, STATUS_MISSING_EQUATION)

DATA_ENV_VAR = "SEA_CATALOG"
_ID = re.compile(r".*-[0-9]+")  # the trailing integer orders rows within a case


class CatalogError(SeacurvesError):
    """Bad queries, record references, or rows that contradict themselves."""


@dataclass(frozen=True)
class FamilyRecord:
    """One table row.  Its m is its reduced group's (None for A4, S4, A5):
    ``to_json`` and the CSV export repeat it as the "m" column, and
    ``from_json`` rejects a column that differs in type or value."""

    id: str
    genus: int
    case_nr: int
    reduced: ReducedGroup
    full_group: str | None
    n: int
    printed_signature: Signature
    delta: int
    equation: str | None
    status: str = STATUS_OK
    # derived from equation, so dataclasses.replace cannot leave it stale
    template: EquationTemplate | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not _ID.fullmatch(self.id):
            raise CatalogError(f"id {self.id!r} does not end in -<digits>")
        # smallest legal value of each integer field
        for name, least in (("genus", 2), ("case_nr", 1), ("n", 2), ("delta", 0)):
            value = getattr(self, name)
            key = name.removesuffix("_nr")  # the JSON key of case_nr is "case"
            if type(value) is not int:
                raise CatalogError(f"{key} {value!r} on {self.id} is not an integer")
            if value < least:
                raise CatalogError(f"{key} {_int_str(value)} on {self.id} is below {least}")
        if self.full_group is not None and not isinstance(self.full_group, str):
            raise CatalogError(f"full_group {self.full_group!r} on {self.id} is not a string")
        if self.status not in _STATUSES:
            raise CatalogError(f"unknown status {self.status!r} on {self.id}")
        object.__setattr__(self, "template",
                           None if self.equation is None else parse_template(self.equation))

    @property
    def m(self) -> int | None:
        return self.reduced.m

    @property
    def group_order(self) -> int:
        return full_group_order(self.n, self.reduced)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "genus": self.genus,
            "case": self.case_nr,
            "reduced_group": {"kind": self.reduced.kind, "m": self.reduced.m},
            "full_group": self.full_group,
            "n": self.n,
            "m": self.m,
            "signature": self.printed_signature.to_json(),
            "delta": self.delta,
            "equation": self.equation,
            "status": self.status,
        }

    @classmethod
    def from_json(cls, doc: dict) -> FamilyRecord:
        record = cls(
            id=doc["id"],
            genus=doc["genus"],
            case_nr=doc["case"],
            reduced=ReducedGroup(doc["reduced_group"]["kind"], doc["reduced_group"]["m"]),
            full_group=doc["full_group"],
            n=doc["n"],
            printed_signature=Signature.from_json(doc["signature"]),
            delta=doc["delta"],
            equation=doc["equation"],
            status=doc["status"],
        )
        m = doc["m"]  # the reduced group's m, repeated: same type and value
        if type(m) is not type(record.m) or m != record.m:
            shown = _int_str(m) if type(m) is int else repr(m)
            raise CatalogError(f"m {shown} on {record.id} is not the reduced group's m")
        return record


def _id_key(record: FamilyRecord):
    return (record.genus, record.case_nr, _numeral_key(record.id.rsplit("-", 1)[1]))


class Catalog:
    """Immutable sequence of records, kept in id order (genus, case, sequence
    number) whatever order they come in, with id lookup and filtering.

    :func:`load_catalog` hands one instance to every caller that reads the
    same dataset text, so the records are frozen and ``by_id`` is read-only.
    """

    def __init__(self, records):
        self.records = tuple(sorted(records, key=_id_key))
        self.by_id = MappingProxyType({r.id: r for r in self.records})
        if len(self.by_id) != len(self.records):
            raise CatalogError("duplicate record ids")

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, record_id: str) -> FamilyRecord:
        try:
            return self.by_id[record_id]
        except KeyError:
            raise CatalogError(f"no record with id {record_id!r}") from None

    def query(self, genus=None, reduced_group=None) -> list[FamilyRecord]:
        """Records matching each filter given (a reduced group by kind or label,
        as D2m or D_4), in the catalog's id order."""
        out = []
        for r in self.records:
            if genus is not None and r.genus != genus:
                continue
            if reduced_group not in (None, r.reduced.kind) and reduced_group != r.reduced.label():
                continue
            out.append(r)
        return out

    def genera(self) -> list[int]:
        return sorted({r.genus for r in self.records})


def _data_path():
    return resources.files(__package__).joinpath("data/table.jsonl")


def flags_text() -> str:
    """The FLAGS file shipped with the dataset."""
    return resources.files(__package__).joinpath("data/FLAGS.md").read_text("utf-8")


def load_catalog(path: str | None = None) -> Catalog:
    """Load the embedded dataset, or a JSONL override.

    Order of precedence: explicit ``path`` argument, then the SEA_CATALOG
    environment variable, then the packaged table.

    The source is read on every call, so an edited or swapped file is always
    seen, but the catalog is built once per distinct text and process: calls
    that read the same text get the same shared, read-only :class:`Catalog`.
    A malformed or non-UTF-8 text raises :class:`CatalogError` on every call.
    """
    if path is None:
        path = os.environ.get(DATA_ENV_VAR) or None
    if path is None:
        text = _data_path().read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise CatalogError(f"catalog {path} is not UTF-8: {exc}") from None
    return _build_catalog(text)


@functools.lru_cache(maxsize=1)  # a process reads one dataset text
def _build_catalog(text: str) -> Catalog:
    # lru_cache keeps no exception, so a bad text fails again on the next call
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(FamilyRecord.from_json(json.loads(line)))
        # json.loads raises RecursionError on JSON nested too deep
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CatalogError(f"bad catalog record on line {lineno}: {exc}") from None
    return Catalog(records)


def specialize(record: FamilyRecord, params: dict) -> SuperellipticCurve:
    """Instantiate the row's template at a parameter assignment.

    Enforces squarefreeness of the expanded polynomial and re-checks that the
    curve's genus equals the row's genus column.
    """
    if record.template is None:
        raise CatalogError(f"record {record.id} has no equation template")
    try:
        poly = record.template.expand(params)
    except TemplateParamError as exc:
        raise CatalogError(f"{record.id}: {exc}") from None
    curve = make_curve(record.n, poly)
    if curve.genus != record.genus:
        raise CatalogError(
            f"{record.id}: computed genus {_int_str(curve.genus)} != cataloged {record.genus}"
        )
    return curve


@dataclass(frozen=True)
class CheckResult:
    passed: bool | None          # None = not applicable for this row
    detail: str


@dataclass(frozen=True)
class RowReport:
    record_id: str
    status: str
    checks: dict
    completion: CompletionResult | None

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, c in self.checks.items() if c.passed is False]

    @property
    def passed(self) -> bool:
        return not self.failed_checks


def verify_record(record: FamilyRecord) -> RowReport:
    """Run the five consistency checks on one row; a check its data cannot evaluate fails."""
    checks = {}

    if record.template is not None:
        deg = record.template.degree
        got = genus_formula(record.n, deg) if deg >= 2 else "undefined (deg f < 2)"
        checks["genus"] = CheckResult(
            got == record.genus,
            f"genus_formula({record.n}, {deg}) = {_int_str(got)}, cataloged {record.genus}",
        )
        nparams = len(record.template.param_names())
        checks["param_count"] = CheckResult(
            nparams == record.delta,
            f"{nparams} free parameters, delta = {record.delta}",
        )
    else:
        checks["genus"] = CheckResult(None, "no equation template")
        checks["param_count"] = CheckResult(None, "no equation template")

    order = record.group_order
    shown = _int_str(order)
    failure = "no single-index completion exists"
    try:
        completion = complete_signature(record.genus, order, record.printed_signature)
    except CurveDataError as exc:
        completion, failure = CompletionResult("failed", None), str(exc)
    if completion.ok:
        mode = ("printed complete" if completion.status == "already_complete"
                else f"completed with index {_int_str(completion.added_index)}")
        checks["signature"] = CheckResult(
            True, f"|G| = {shown}; {mode}: {completion.signature.compact()}"
        )
        s = completion.signature.point_count
        checks["dimension"] = CheckResult(
            record.delta == s - 3,
            f"branch points {_int_str(s)}, s - 3 = {_int_str(s - 3)}, delta = {record.delta}",
        )
    else:
        checks["signature"] = CheckResult(False, f"|G| = {shown}; {failure}")
        checks["dimension"] = CheckResult(None, "signature completion failed")

    bound = hurwitz_bound(record.genus)
    checks["hurwitz"] = CheckResult(
        order <= bound, f"|G| = {shown} <= 84(g-1) = {_int_str(bound)}"
    )

    return RowReport(record.id, record.status,
                     checks, completion if completion.ok else None)


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple
    # Failures on clean rows break the build; flagged rows are documented
    # exceptions and only reported.

    @property
    def failures(self) -> list[RowReport]:
        return [r for r in self.rows if r.status == STATUS_OK and not r.passed]

    @property
    def flagged_failures(self) -> list[RowReport]:
        return [r for r in self.rows if r.status != STATUS_OK and not r.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        check_names = ("genus", "param_count", "signature", "dimension", "hurwitz")
        counts = {}
        for name in check_names:
            results = [r.checks[name].passed for r in self.rows]
            counts[name] = {
                "passed": sum(1 for p in results if p is True),
                "failed": sum(1 for p in results if p is False),
                "skipped": sum(1 for p in results if p is None),
            }
        return {
            "rows": len(self.rows),
            "ok": self.ok,
            "unflagged_failures": [r.record_id for r in self.failures],
            "flagged_rows": [r.record_id for r in self.rows if r.status != STATUS_OK],
            "flagged_failures": [r.record_id for r in self.flagged_failures],
            "checks": counts,
        }


def verify_all(catalog: Catalog, genus: int | None = None) -> VerificationReport:
    """Verify every row, or every row of one genus, in id order."""
    return VerificationReport(tuple(verify_record(r) for r in catalog.query(genus=genus)))


# -- inclusion DAG ---------------------------------------------------------------


def _specializes(a: FamilyRecord, b: FamilyRecord, support: dict) -> bool:
    """True when a's template is a syntactic specialization of b's.

    Rule: same level n, delta(a) <= delta(b), and at every exponent either
    b's coefficient depends on parameters (assignable to whatever a has
    there, 0 included) or it is a constant equal to a's.  Support maps hold
    no zero coefficient (``EquationTemplate.symbolic`` drops them), so this
    is containment: a's exponents are among b's, and each constant of b is
    a's entry there.  The delta gate keeps coupled-coefficient templates
    (the f1 rows) from absorbing freer families: a specialization can never
    have more parameters than the family it sits inside.
    """
    ca, cb = support[a.id], support[b.id]
    return (a.n == b.n and a.delta <= b.delta and ca.keys() <= cb.keys()
            and all(ca.get(e) == c for e, c in cb.items() if c != "param"))


def inclusions(catalog: Catalog, genus: int) -> list[tuple[str, str]]:
    """Directed edges A -> B: A's family is a syntactic specialization of B's.

    Reflexive edges and pairs that specialize each other are omitted, and
    the transitive reduction is returned, sorted for determinism.
    """
    records = [r for r in catalog.query(genus=genus) if r.template is not None]
    support = {r.id: r.template.support_classification() for r in records}
    above = {a.id: {b.id for b in records if a.id != b.id and _specializes(a, b, support)}
             for a in records}
    # templates that specialize each other (equal supports, as g6-c8-5 and
    # g6-c18-1, both x*(x^4 - 1)) would make a cycle: such pairs get no edge
    above = {x: {y for y in ys if x not in above[y]} for x, ys in above.items()}
    # _specializes is transitive and so is what is left of it, so an edge
    # is implied by the others exactly when it factors through a third row
    return sorted((x, y) for x, ys in above.items()
                  for y in ys - set().union(*(above[z] for z in ys)))


# -- export -------------------------------------------------------------------------

_CSV_COLUMNS = (
    "id", "genus", "case", "reduced_kind", "reduced_m", "full_group",
    "n", "m", "signature", "delta", "equation", "status",
)


def export_jsonl(catalog: Catalog) -> str:
    """One canonical JSON line per record, in id order; re-importing reproduces it."""
    return "\n".join(json.dumps(r.to_json(), separators=(", ", ": "))
                     for r in catalog) + "\n"


def export_csv(records) -> str:
    """A header, then one line per record of a catalog or query result, in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.id, r.genus, r.case_nr, r.reduced.kind,
            "" if r.reduced.m is None else r.reduced.m,
            "" if r.full_group is None else r.full_group,
            r.n, "" if r.m is None else r.m,
            r.printed_signature.compact(), r.delta,
            "" if r.equation is None else r.equation, r.status,
        ])
    return buf.getvalue()
