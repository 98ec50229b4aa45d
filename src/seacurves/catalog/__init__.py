"""The embedded table of superelliptic curve families, genus 5-10.

Each :class:`FamilyRecord` is one table row: reduced and full automorphism
group, level n, sub-order m, printed signature (final entry possibly
omitted), locus dimension delta, and the parametric equation template.  Rows
whose printed data needed repair carry a non-"ok" status; every such row is
listed with its reason in ``data/FLAGS.md`` next to the dataset.

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
    ReducedGroup,
    Signature,
    SuperellipticCurve,
    complete_signature,
    full_group_order,
    genus_formula,
    hurwitz_bound,
    make_curve,
)
from ..scalars import Scalar, SeacurvesError
from .templates import EquationTemplate, TemplateParamError, _numeral_key, parse_template

__all__ = [
    "FamilyRecord",
    "Catalog",
    "RowReport",
    "VerificationReport",
    "CatalogError",
    "CatalogIntegrityError",
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
    """Bad queries or record references."""


class CatalogIntegrityError(RuntimeError):
    """The dataset contradicts itself; verified rows must never trigger this."""


@dataclass(frozen=True)
class FamilyRecord:
    id: str
    genus: int
    case_nr: int
    reduced: ReducedGroup
    full_group: str | None
    n: int
    m: int | None
    printed_signature: Signature
    delta: int
    equation: str | None
    status: str = STATUS_OK
    # derived from equation, so dataclasses.replace cannot leave it stale
    template: EquationTemplate | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not _ID.fullmatch(self.id):
            raise CatalogError(f"id {self.id!r} does not end in -<digits>")
        # smallest legal value of each integer field (m may also be null)
        for name, least in (("genus", 2), ("case_nr", 1), ("n", 2), ("delta", 0), ("m", 1)):
            value = getattr(self, name)
            if name == "m" and value is None:
                continue
            key = name.removesuffix("_nr")  # the JSON key of case_nr is "case"
            if type(value) is not int:
                raise CatalogError(f"{key} {value!r} on {self.id} is not an integer")
            if value < least:
                raise CatalogError(f"{key} {value} on {self.id} is below {least}")
        if self.full_group is not None and not isinstance(self.full_group, str):
            raise CatalogError(f"full_group {self.full_group!r} on {self.id} is not a string")
        if self.status not in _STATUSES:
            raise CatalogError(f"unknown status {self.status!r} on {self.id}")
        object.__setattr__(self, "template",
                           None if self.equation is None else parse_template(self.equation))

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
            "signature": {"indices": [[e, mult] for e, mult in self.printed_signature.pairs]},
            "delta": self.delta,
            "equation": self.equation,
            "status": self.status,
        }

    @classmethod
    def from_json(cls, doc: dict) -> FamilyRecord:
        return cls(
            id=doc["id"],
            genus=doc["genus"],
            case_nr=doc["case"],
            reduced=ReducedGroup(doc["reduced_group"]["kind"], doc["reduced_group"]["m"]),
            full_group=doc["full_group"],
            n=doc["n"],
            m=doc["m"],
            printed_signature=Signature(doc["signature"]["indices"]),
            delta=doc["delta"],
            equation=doc["equation"],
            status=doc["status"],
        )


class Catalog:
    """Immutable sequence of records with id lookup and filtering.

    :func:`load_catalog` hands one instance to every caller that reads the
    same dataset text, so the records are frozen and ``by_id`` is read-only.
    """

    def __init__(self, records):
        self.records = tuple(records)
        self.by_id = MappingProxyType({r.id: r for r in self.records})
        if len(self.by_id) != len(self.records):
            raise CatalogIntegrityError("duplicate record ids")

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, record_id: str) -> FamilyRecord:
        try:
            return self.by_id[record_id]
        except KeyError:
            raise CatalogError(f"no record with id {record_id!r}") from None

    @staticmethod
    def _id_key(record: FamilyRecord):
        return (record.genus, record.case_nr, _numeral_key(record.id.rsplit("-", 1)[1]))

    def query(self, genus=None, reduced_group=None, n=None, min_delta=None,
              max_delta=None) -> list[FamilyRecord]:
        """All records matching every provided filter, in id order
        (genus, case, sequence) regardless of file order."""
        out = []
        for r in self.records:
            if genus is not None and r.genus != genus:
                continue
            if reduced_group is not None and not _group_matches(r.reduced, reduced_group):
                continue
            if n is not None and r.n != n:
                continue
            if min_delta is not None and r.delta < min_delta:
                continue
            if max_delta is not None and r.delta > max_delta:
                continue
            out.append(r)
        out.sort(key=self._id_key)
        return out

    def genera(self) -> list[int]:
        return sorted({r.genus for r in self.records})


def _group_matches(reduced: ReducedGroup, wanted) -> bool:
    if isinstance(wanted, ReducedGroup):
        return reduced == wanted
    if isinstance(wanted, str):
        return wanted in (reduced.kind, reduced.label())
    raise CatalogError(f"bad reduced_group filter {wanted!r}")


def _data_path():
    return resources.files(__package__).joinpath("data/table.jsonl")


def flags_text() -> str:
    """The FLAGS file shipped with the dataset."""
    return resources.files(__package__).joinpath("data/FLAGS.md").read_text("utf-8")


def load_catalog(path: str | None = None, use_env: bool = True) -> Catalog:
    """Load the embedded dataset, or a JSONL override.

    Order of precedence: explicit ``path`` argument, then the SEA_CATALOG
    environment variable (when ``use_env``), then the packaged table.

    The source is read on every call, so an edited or swapped file is always
    seen, but the catalog is built once per distinct text and process: calls
    that read the same text get the same shared, read-only :class:`Catalog`.
    A malformed or non-UTF-8 text raises :class:`CatalogError` on every call.
    """
    if path is None and use_env:
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
    values = {k: (v if isinstance(v, Scalar) else Scalar(v)) for k, v in params.items()}
    try:
        poly = record.template.expand(values)
    except TemplateParamError as exc:
        raise CatalogError(f"{record.id}: {exc}") from None
    curve = make_curve(record.n, poly)
    if curve.genus != record.genus:
        raise CatalogIntegrityError(
            f"{record.id}: computed genus {curve.genus} != cataloged {record.genus}"
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
    """Run the five consistency checks on one row."""
    checks = {}

    if record.template is not None:
        deg = record.template.degree
        got = genus_formula(record.n, deg)
        checks["genus"] = CheckResult(
            got == record.genus,
            f"genus_formula({record.n}, {deg}) = {got}, cataloged {record.genus}",
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
    completion = complete_signature(record.genus, order, record.printed_signature)
    if completion.ok:
        mode = ("printed complete" if completion.status == "already_complete"
                else f"completed with index {completion.added_index}")
        checks["signature"] = CheckResult(
            True, f"|G| = {order}; {mode}: {completion.signature.compact()}"
        )
        s = completion.signature.point_count
        checks["dimension"] = CheckResult(
            record.delta == s - 3,
            f"branch points {s}, s - 3 = {s - 3}, delta = {record.delta}",
        )
    else:
        checks["signature"] = CheckResult(
            False, f"|G| = {order}; no single-index completion exists"
        )
        checks["dimension"] = CheckResult(None, "signature completion failed")

    bound = hurwitz_bound(record.genus)
    checks["hurwitz"] = CheckResult(
        order <= bound, f"|G| = {order} <= 84(g-1) = {bound}"
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
    records = catalog.query(genus=genus) if genus is not None else list(catalog)
    return VerificationReport(tuple(verify_record(r) for r in records))


# -- inclusion DAG ---------------------------------------------------------------


def _specializes(a: FamilyRecord, b: FamilyRecord, support: dict) -> bool:
    """True when a's template is a syntactic specialization of b's.

    Rule: same level n, delta(a) <= delta(b), and at every exponent either
    b's coefficient depends on parameters (assignable to whatever a has
    there, 0 included) or it is a constant equal to a's constant.  Degree
    mismatches fail automatically at the leading exponent.  The delta gate
    keeps coupled-coefficient templates (the f1 rows) from absorbing freer
    families: a specialization can never have more parameters than the
    family it sits inside.
    """
    if a.n != b.n or a.delta > b.delta:
        return False
    ca, cb = support[a.id], support[b.id]
    zero = ("const", Scalar(0))
    for e in set(ca) | set(cb):
        here = ca.get(e, zero)
        there = cb.get(e, zero)
        if there == "param":
            continue
        if here == "param" or here[1] != there[1]:
            return False
    return True


def inclusions(catalog: Catalog, genus: int) -> list[tuple[str, str]]:
    """Directed edges A -> B: A's family is a syntactic specialization of B's.

    Reflexive edges and pairs that specialize each other are omitted, and
    the transitive reduction is returned, sorted for determinism.
    """
    records = [r for r in catalog.query(genus=genus) if r.template is not None]
    support = {r.id: r.template.support_classification() for r in records}
    edges = {(a.id, b.id) for a in records for b in records
             if a.id != b.id and _specializes(a, b, support)}
    # templates that specialize each other (equal supports, as g6-c8-5 and
    # g6-c18-1, both x*(x^4 - 1)) would make a cycle: such pairs get no edge
    edges = {(x, y) for x, y in edges if (y, x) not in edges}
    # _specializes is transitive and so is what is left of it, so an edge
    # is implied by the others exactly when it factors through a third row
    return sorted((x, y) for x, y in edges
                  if not any((x, z) in edges and (z, y) in edges for z in support))


# -- export -------------------------------------------------------------------------

_CSV_COLUMNS = (
    "id", "genus", "case", "reduced_kind", "reduced_m", "full_group",
    "n", "m", "signature", "delta", "equation", "status",
)


def export_jsonl(catalog: Catalog) -> str:
    """One canonical JSON document per line; re-importing reproduces the catalog."""
    return "\n".join(json.dumps(r.to_json(), separators=(", ", ": "))
                     for r in catalog) + "\n"


def export_csv(catalog: Catalog) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in catalog:
        writer.writerow([
            r.id, r.genus, r.case_nr, r.reduced.kind,
            "" if r.reduced.m is None else r.reduced.m,
            "" if r.full_group is None else r.full_group,
            r.n, "" if r.m is None else r.m,
            r.printed_signature.compact(), r.delta,
            "" if r.equation is None else r.equation, r.status,
        ])
    return buf.getvalue()
