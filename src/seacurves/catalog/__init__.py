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
from ..forms import DegreeError
from ..scalars import SeacurvesError, _int_str, _repr_str, _require_int
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
_DATA_DIR = resources.files(__package__) / "data"  # located once, at import
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
            raise CatalogError(f"id {_repr_str(self.id)} does not end in -<digits>")
        # smallest legal value of each integer field
        for name, least in (("genus", 2), ("case_nr", 1), ("n", 2), ("delta", 0)):
            value = getattr(self, name)
            key = name.removesuffix("_nr")  # the JSON key of case_nr is "case"
            if type(value) is not int:
                raise CatalogError(f"{key} {_repr_str(value)} on {self.id} is not an integer")
            if value < least:
                raise CatalogError(f"{key} {_int_str(value)} on {self.id} is below {least}")
        if self.full_group is not None and not isinstance(self.full_group, str):
            raise CatalogError(
                f"full_group {_repr_str(self.full_group)} on {self.id} is not a string")
        if self.status not in _STATUSES:
            raise CatalogError(f"unknown status {_repr_str(self.status)} on {self.id}")
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
            raise CatalogError(f"m {_repr_str(m)} on {record.id} is not the reduced group's m")
        return record


def _id_key(record: FamilyRecord):
    return (record.genus, record.case_nr, _numeral_key(record.id.rsplit("-", 1)[1]))


@dataclass(frozen=True)
class Catalog:
    """Immutable sequence of records, kept in id order (genus, case, sequence
    number) whatever order they come in, with id lookup and filtering.

    :func:`load_catalog` hands one instance to every caller that reads the
    same dataset text, so it is a frozen dataclass, its records are frozen
    and ``by_id`` is read-only.  It compares, prints and pickles by its
    records alone (a ``MappingProxyType`` does not pickle).
    """

    records: tuple
    by_id: MappingProxyType = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(sorted(self.records, key=_id_key)))
        object.__setattr__(self, "by_id", MappingProxyType({r.id: r for r in self.records}))
        if len(self.by_id) != len(self.records):
            raise CatalogError("duplicate record ids")

    def __reduce__(self):
        return Catalog, (self.records,)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, record_id: str) -> FamilyRecord:
        try:
            return self.by_id[record_id]
        except KeyError:
            raise CatalogError(f"no record with id {_repr_str(record_id)}") from None

    def query(self, genus: int | None = None, reduced_group=None) -> list[FamilyRecord]:
        """Records matching each filter given (a genus as an int, a reduced
        group by kind or label, as D2m or D_4), in the catalog's id order."""
        if genus is not None:
            _require_int(genus, "genus")
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


def flags_text() -> str:
    """The FLAGS file shipped with the dataset."""
    return (_DATA_DIR / "FLAGS.md").read_text("utf-8")


# The bytes of the last dataset text that built, and its catalog: one slot,
# as a process reads one dataset text.  Comparing the bytes costs less than
# decoding or hashing them.
_last_built: tuple = (None, None)


def load_catalog(path: str | None = None) -> Catalog:
    """Load the embedded dataset, or a JSONL override.

    Order of precedence: explicit ``path`` argument, then the SEA_CATALOG
    environment variable, then the packaged table.

    The source is read on every call, so an edited or swapped file is always
    seen, but the catalog is built once per distinct text and process: calls
    that read the same bytes as the last text that built get the same
    shared, read-only :class:`Catalog`.  A malformed or non-UTF-8 text is
    never kept, so it raises :class:`CatalogError` on every call.
    """
    global _last_built
    if path is None:
        path = os.environ.get(DATA_ENV_VAR) or _DATA_DIR / "table.jsonl"
    with open(path, "rb") as fh:
        data = fh.read()
    built, catalog = _last_built
    if data != built:
        catalog = _build_catalog(data, path)
        _last_built = data, catalog
    return catalog


def _build_catalog(data: bytes, path) -> Catalog:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"catalog {path} is not UTF-8: {exc}") from None
    records = []
    # splitlines ends a line at \r\n, \r or \n, as reading in text mode did
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
    __hash__ = None  # holds a dict

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
        try:
            got = genus_formula(record.n, deg)
        except DegreeError:
            got = "undefined (deg f < 2)"
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
    __hash__ = None  # its rows hold dicts
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


def _specializes(a: FamilyRecord, b: FamilyRecord, sets: dict) -> bool:
    """True when a's template is a strict syntactic specialization of b's.

    Rule: same level n, delta(a) <= delta(b), and at every exponent either
    b's coefficient depends on parameters (assignable to whatever a has
    there, 0 included) or it is a constant equal to a's; and not the same
    delta and support.  Supports hold no zero coefficient
    (``EquationTemplate.symbolic`` drops them), so this is containment of
    the two sets ``sets`` maps each row id to (``EquationTemplate._support``):
    a's exponents are among b's, and each fixed pair of b is one of a's.
    The delta gate keeps coupled-coefficient templates (the f1 rows) from
    absorbing freer families: a specialization can never have more
    parameters than the family it sits inside.  Two rows of one level
    specialize each other, non-strictly, exactly when their deltas and both
    sets are equal (g6-c8-5 and g6-c18-1, both x*(x^4 - 1)); the last gate
    leaves such pairs without an edge, which keeps the relation acyclic.
    """
    if a.n != b.n or a.delta > b.delta:
        return False
    (keys_a, fixed_a), (keys_b, fixed_b) = sets[a.id], sets[b.id]
    return (keys_a <= keys_b and fixed_b <= fixed_a
            and (a.delta, keys_a, fixed_a) != (b.delta, keys_b, fixed_b))


def inclusions(catalog: Catalog, genus: int) -> list[tuple[str, str]]:
    """Directed edges A -> B: A's family is a strict syntactic specialization
    of B's.

    The transitive reduction is returned, sorted for determinism.  Rows of
    different levels never specialize, so the rows are grouped by level n
    and :func:`_specializes` runs only within a level; the edges of a level
    are bitsets over its rows' positions.
    """
    _require_int(genus, "genus")
    records = [r for r in catalog.query(genus=genus) if r.template is not None]
    # every row's support before any pair test: a row alone at its level is
    # expanded too, so a template past the product limit is refused
    sets = {r.id: r.template._support for r in records}
    levels = {}
    for r in records:
        levels.setdefault(r.n, []).append(r)
    edges = []
    for rows in levels.values():
        above = [0] * len(rows)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                if i != j and _specializes(a, b, sets):
                    above[i] |= 1 << j
        # _specializes is transitive, so an edge is implied by the others
        # exactly when it factors through a third row
        for i, up in enumerate(above):
            implied = 0
            for j in _bits(up):
                implied |= above[j]
            edges += [(rows[i].id, rows[j].id) for j in _bits(up & ~implied)]
    return sorted(edges)


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
