import csv
import io
import json
from pathlib import Path

import pytest

from conftest import packaged_catalog
from seacurves import catalog as catalog_mod
from seacurves.catalog import (
    Catalog,
    CatalogError,
    FamilyRecord,
    export_csv,
    export_jsonl,
    flags_text,
    inclusions,
    load_catalog,
    specialize,
    verify_all,
    verify_record,
)
from seacurves.catalog.templates import EquationTemplate
from seacurves.curves import NotSquarefreeError, Signature
from seacurves.scalars import Scalar


@pytest.fixture(scope="module")
def catalog():
    return packaged_catalog()


def test_row_counts(catalog):
    # fixture: block sizes counted from the source table during data entry
    assert {g: len(catalog.query(genus=g)) for g in catalog.genera()} == {
        5: 20, 6: 36, 7: 27, 8: 22, 9: 50, 10: 55,
    }
    assert len(catalog) == 210


def test_query_filters(catalog):
    a5 = catalog.query(genus=5, reduced_group="A5")
    assert len(a5) == 1
    row = a5[0]
    assert row.equation == "x*(x^10 + 11*x^5 - 1)"
    assert row.printed_signature == Signature([2, 3, 10])
    assert row.delta == 0 and row.group_order == 120

    assert catalog.query(genus=99) == []
    assert catalog.query(genus=6, reduced_group="D_4")  # label filter


def test_ids_are_stable(catalog):
    assert catalog["g5-c1-1"].full_group == "C_2^2"
    assert catalog["g5-c1-1"].delta == 5
    with pytest.raises(CatalogError):
        catalog["g99-c1-1"]


def test_specialize(catalog):
    # discriminant oracle accepts (1, 3, 5) and rejects the degenerate (2, 3, 5)
    curve = specialize(catalog["g5-c4-1"], {"a1": 1, "a2": 3, "a3": 5})
    assert curve.degree == 12 and curve.genus == 5

    with pytest.raises(NotSquarefreeError):
        specialize(catalog["g5-c4-1"], {"a1": 2, "a2": 3, "a3": 5})  # (x^2+1)^2 factor

    curve = specialize(catalog["g5-c2-1"], {})
    assert curve.n == 2 and curve.genus == 5

    with pytest.raises(CatalogError):
        specialize(catalog["g5-c2-1"], {"a1": Scalar(1)})
    with pytest.raises(CatalogError):
        specialize(catalog["g6-c4-1"], {})  # no equation on this row


def test_specialize_quadratic_extension_row(catalog):
    curve = specialize(catalog["g7-c11-1"], {"a1": 2})
    assert curve.genus == 7 and curve.degree == 16


def test_verify_single_rows(catalog):
    rep = verify_record(catalog["g5-c1-1"])
    assert rep.passed
    assert "completed with index 2" in rep.checks["signature"].detail
    assert rep.completion.signature.point_count == 8

    rep = verify_record(catalog["g7-c1-3"])  # x^9 + ... at level 3
    assert rep.passed and rep.completion.signature == Signature([(3, 5)])

    rep = verify_record(catalog["g6-c4-1"])  # missing equation
    assert rep.passed
    assert rep.checks["genus"].passed is None
    assert rep.checks["param_count"].passed is None
    assert rep.checks["signature"].passed is True


def test_verify_all(catalog):
    report = verify_all(catalog)
    assert report.ok
    assert not report.failures and not report.flagged_failures
    summary = report.summary()
    assert summary["rows"] == 210
    assert summary["checks"]["hurwitz"]["passed"] == 210
    assert summary["checks"]["genus"]["skipped"] == 2  # the two empty equation cells

    empty = verify_all(catalog, genus=11)
    assert empty.ok and len(empty.rows) == 0


def test_signature_completion_modes(catalog):
    # cyclic rows usually omit the final index; dihedral rows often print it
    cyclic = verify_record(catalog["g5-c2-1"])
    assert "completed with index" in cyclic.checks["signature"].detail
    dihedral = verify_record(catalog["g5-c4-1"])
    assert "printed complete" in dihedral.checks["signature"].detail


def test_platonic_equations_satisfy_hessian_relations(catalog):
    # the exceptional-group equations are covariants of one another: the
    # Hessian of the octahedral vertex form x(x^4-1) is -25 (x^8+14x^4+1),
    # the Jacobian of those two is -8 (x^12-33x^8-33x^4+1), and the Hessian
    # of the icosahedral vertex form x(x^10+11x^5-1) is -121 times the
    # degree-20 form on the genus-9 A5 row; exact calculus pins all of them
    from seacurves.catalog.templates import parse_poly_string
    from seacurves.forms import homogenize
    from seacurves.forms import partial_derivative as pd

    def hom(text, d):
        return homogenize(parse_poly_string(text), d)

    def hessian(F):
        fxz = pd(pd(F, "X"), "Z")
        return pd(F, "X", 2) * pd(F, "Z", 2) - fxz * fxz

    def jacobian(F, G):
        return pd(F, "X") * pd(G, "Z") - pd(F, "Z") * pd(G, "X")

    vertex = hom("x*(x^4 - 1)", 6)
    edges = hom("x^8 + 14*x^4 + 1", 8)
    faces = hom(catalog["g5-c20-1"].equation, 12)
    assert hessian(vertex) == edges.scale(-25)
    assert jacobian(vertex, edges) == faces.scale(-8)

    ico_vertex = hom(catalog["g5-c25-1"].equation, 12)
    ico_faces = hom(catalog["g9-c27-1"].equation, 20)
    assert hessian(ico_vertex) == ico_faces.scale(-121)

    # the f1 family passes through the octahedral curve at a1 = 0
    f1 = catalog["g5-c10-1"].template.expand({"a1": 0})
    assert homogenize(f1, 12) == faces


def test_equations_respect_rotation_symmetry(catalog):
    # a family with cyclic or dihedral reduced group of parameter m >= 2 is
    # built from x^m-blocks (times an optional leading x), so every exponent
    # in the expanded support lies in one residue class mod m; this catches
    # transcription errors invisible to the genus and ramification checks
    checked = 0
    for r in catalog:
        if r.template is None or r.reduced.kind not in ("Cm", "D2m"):
            continue
        m = r.reduced.m
        if m < 2:
            continue
        residues = {e % m for e in r.template.support_classification()}
        assert len(residues) == 1, (r.id, sorted(residues))
        checked += 1
    assert checked == 175


def test_full_group_names_consistent_with_order(catalog):
    # direct-product names like "D_14 x C_2" carry their order in the name;
    # all of them must agree with n * |reduced|, except the one documented
    # misprint on g6-c5-3 (printed "D_10 x C_2", true order 50)
    import re

    named = {"A_4": 12, "S_4": 24, "A_5": 60}

    def name_order(name):
        total = 1
        for part in name.split(" x "):
            if part in named:
                total *= named[part]
                continue
            m = re.fullmatch(r"([CD])_(\d+)(?:\^(\d+))?", part)
            if not m:
                return None  # opaque names: G_5, K, ...
            total *= int(m.group(2)) ** (int(m.group(3)) if m.group(3) else 1)
        return total

    mismatches = []
    parseable = 0
    for r in catalog:
        order = None if r.full_group is None else name_order(r.full_group)
        if order is None:
            continue
        parseable += 1
        if order != r.group_order:
            mismatches.append(r.id)
    assert parseable > 100
    assert mismatches == ["g6-c5-3"]
    assert "g6-c5-3" in flags_text()


def test_verify_reports_broken_rows(catalog):
    import dataclasses

    from seacurves.catalog import VerificationReport

    good = catalog["g5-c2-1"]
    bad = dataclasses.replace(good, id="g5-c2-99", genus=6)  # wrong genus column
    rep = verify_record(bad)
    assert not rep.passed
    assert "genus" in rep.failed_checks
    report = VerificationReport((rep,))
    assert not report.ok
    assert report.summary()["unflagged_failures"] == ["g5-c2-99"]


def test_rows_past_the_digit_limit_fail_verification(catalog):
    """A level or genus of 4300 digits (the most the loader reads) makes a
    genus, group order or Hurwitz bound too long to print: the row fails
    verification with the number shown as "(too large to print)", and
    specialize refuses it with a typed error."""
    import dataclasses

    row = catalog["g5-c1-1"]
    huge = 9 * 10 ** 4299
    rep = verify_record(dataclasses.replace(row, n=huge))
    assert {"genus", "hurwitz"} <= set(rep.failed_checks)
    assert "= (too large to print), cataloged 5" in rep.checks["genus"].detail
    assert rep.checks["hurwitz"].detail.startswith("|G| = (too large to print) <= ")
    rep = verify_record(dataclasses.replace(row, genus=huge))
    assert {"genus", "signature"} <= set(rep.failed_checks)
    assert rep.checks["hurwitz"].detail.endswith("84(g-1) = (too large to print)")
    params = {f"a{i}": Scalar(1) for i in range(1, 6)}
    with pytest.raises(CatalogError, match=r"computed genus \(too large to print\) != cataloged 5"):
        specialize(dataclasses.replace(row, n=huge), params)
    assert Signature([(2, huge), (2, huge)]).compact() == "2^(too large to print)"


def test_flags_file_matches_dataset(catalog):
    text = flags_text()
    flagged = [r.id for r in catalog if r.status != "ok"]
    assert len(flagged) == 44
    for rid in flagged:
        assert f"- `{rid}` ({catalog[rid].status})" in text
    # no unflagged row carries a flag entry (remarks about verbatim data aside)
    for r in catalog:
        if r.status == "ok":
            assert f"- `{r.id}` (" not in text


def test_export_roundtrip(catalog, tmp_path):
    text = export_jsonl(catalog)
    path = tmp_path / "table.jsonl"
    path.write_text(text, encoding="utf-8")
    again = load_catalog(str(path))
    assert export_jsonl(again) == text
    assert [r.id for r in again] == [r.id for r in catalog]
    assert again["g7-c11-1"].equation == catalog["g7-c11-1"].equation


def test_export_csv(catalog):
    text = export_csv(catalog)
    lines = text.strip().split("\n")
    assert len(lines) == 211  # header + one line per record
    assert lines[0].startswith("id,genus,case,")
    g10 = export_csv(Catalog(catalog.query(genus=10)))
    assert len(g10.strip().split("\n")) == 56


def test_env_override(catalog, tmp_path, monkeypatch):
    sub = Catalog(catalog.query(genus=5))
    path = tmp_path / "five.jsonl"
    path.write_text(export_jsonl(sub), encoding="utf-8")
    monkeypatch.setenv("SEA_CATALOG", str(path))
    assert len(load_catalog()) == 20


def test_load_catalog_rereads_a_changed_file(catalog, tmp_path):
    path = tmp_path / "rows.jsonl"
    for genus, rows in ((5, 20), (6, 36), (5, 20)):
        path.write_text(export_jsonl(Catalog(catalog.query(genus=genus))), encoding="utf-8")
        loaded = load_catalog(str(path))
        assert len(loaded) == rows and {r.genus for r in loaded} == {genus}


def test_malformed_dataset_fails_on_every_call(catalog, tmp_path):
    path = tmp_path / "rows.jsonl"
    good = export_jsonl(Catalog(catalog.query(genus=5)))
    bad = json.dumps({**catalog["g5-c1-1"].to_json(), "equation": "x^2 +"}) + "\n"
    for text in (bad, bad, good, bad, good, bad):
        path.write_text(text, encoding="utf-8")
        if text is good:
            assert len(load_catalog(str(path))) == 20
        else:
            with pytest.raises(CatalogError, match="line 1"):
                load_catalog(str(path))


def test_shared_catalog_matches_a_fresh_build():
    shared = packaged_catalog()
    assert packaged_catalog() is shared
    inclusions(shared, 6)  # leaves the support maps of genus 6 filled in
    text = catalog_mod._data_path().read_text("utf-8")
    fresh = catalog_mod._build_catalog.__wrapped__(text)
    assert fresh is not shared
    assert export_jsonl(fresh) == export_jsonl(shared)
    for old, new in zip(shared, fresh):
        assert old.template == new.template
        if old.template is not None:
            assert old.template.support_classification() == new.template.support_classification()


def test_shared_catalog_state_is_read_only(catalog):
    with pytest.raises(TypeError):
        catalog.by_id["g5-c1-1"] = catalog["g5-c2-1"]
    with pytest.raises(TypeError):
        del catalog.by_id["g5-c1-1"]
    template = catalog["g5-c4-1"].template
    support = template.support_classification()
    before = dict(support)
    support.clear()
    assert template.support_classification() == before != {}


# one field of row g5-c1-1 replaced; None stands for a row missing its keys
_BAD_FIELDS = {
    "missing_key": None,
    "template": ("equation", "x^2 +"),
    "id_no_suffix": ("id", "g5-c1"),
    "id_suffix_not_digits": ("id", "g5-c1-x"),
    "id_int": ("id", 5),
    "genus_str": ("genus", "5"),
    "genus_float": ("genus", 5.0),
    "case_str": ("case", "1"),
    "n_str": ("n", "2"),
    "n_float": ("n", 2.0),
    "delta_bool": ("delta", True),
    "m_str": ("m", "2"),
    "genus_negative": ("genus", -5),
    "case_zero": ("case", 0),
    "m_zero": ("m", 0),
    "m_disagrees": ("m", 3),
    "full_group_int": ("full_group", 5),
    "signature_index_str": ("signature", {"indices": [["2", 7]]}),
    "signature_index_float": ("signature", {"indices": [[2.5, 7]]}),
    "reduced_m_float": ("reduced_group", {"kind": "Cm", "m": 2.5}),
    "reduced_m_bool": ("reduced_group", {"kind": "Cm", "m": True}),
}


@pytest.mark.parametrize("change", _BAD_FIELDS.values(), ids=_BAD_FIELDS.keys())
def test_malformed_external_dataset(change, catalog, tmp_path, monkeypatch, capsys):
    from seacurves.cli import main

    row = {"id": "x"} if change is None else {**catalog["g5-c1-1"].to_json(), change[0]: change[1]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="line 1"):
        load_catalog(str(path))
    monkeypatch.setenv("SEA_CATALOG", str(path))
    for argv in (["catalog", "list"], ["catalog", "verify"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad catalog record on line 1")
        assert err.count("\n") == 1


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_repeated_row_is_a_catalog_error(catalog, tmp_path, monkeypatch, capsys):
    """A SEA_CATALOG file is user input, so a repeated id exits 2, not 3."""
    from seacurves.cli import main

    path = tmp_path / "twice.jsonl"
    _write_rows(path, [catalog["g5-c1-1"].to_json()] * 2)
    with pytest.raises(CatalogError, match="duplicate record ids"):
        load_catalog(str(path))
    monkeypatch.setenv("SEA_CATALOG", str(path))
    for argv in (["catalog", "list"], ["catalog", "verify"],
                 ["catalog", "specialize", "--id", "g5-c1-1"],
                 ["catalog", "inclusions", "--genus", "5"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: duplicate record ids\n"), argv


def test_genus_column_disagreeing_with_equation(catalog, tmp_path, monkeypatch, capsys):
    """specialize rejects the row as bad input (exit 2); verify reports it
    as a failed genus check (exit 1)."""
    from seacurves.cli import main

    path = tmp_path / "genus.jsonl"
    _write_rows(path, [{**catalog["g5-c1-1"].to_json(), "genus": 6}])
    monkeypatch.setenv("SEA_CATALOG", str(path))
    argv = ["catalog", "specialize", "--id", "g5-c1-1", "--params", "a1=0,a2=0,a3=0,a4=0,a5=0"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: g5-c1-1: computed genus 5 != cataloged 6\n")
    assert main(["catalog", "verify"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["unflagged_failures"] == ["g5-c1-1"]
    assert summary["checks"]["genus"] == {"passed": 0, "failed": 1, "skipped": 0}


def test_catalog_list_orders_ids_past_the_int_digit_limit(catalog, tmp_path, monkeypatch,
                                                         capsys):
    from seacurves.cli import main

    long_id = "g5-c1-" + "1" * 5000
    rows = [{**catalog["g5-c1-1"].to_json(), "id": long_id}, catalog["g5-c1-2"].to_json()]
    path = tmp_path / "long.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    monkeypatch.setenv("SEA_CATALOG", str(path))
    assert main(["catalog", "list"]) == 0
    assert [r["id"] for r in json.loads(capsys.readouterr().out)] == ["g5-c1-2", long_id]


def test_template_follows_equation_under_replace(catalog):
    import dataclasses

    row = dataclasses.replace(catalog["g5-c1-1"], equation="x^11 + 1")
    assert row.template.degree == 11 and row.template.param_names() == ()
    assert dataclasses.replace(row, equation=None).template is None


def test_m_is_the_reduced_groups(catalog):
    """A row stores its reduced group once: m is read from it, and the "m"
    column of JSON and CSV repeats it."""
    import dataclasses

    assert "m" not in {f.name for f in dataclasses.fields(FamilyRecord)}
    rows = list(csv.DictReader(io.StringIO(export_csv(catalog))))
    assert len(rows) == len(catalog) == 210
    for r, line in zip(catalog, rows):
        assert r.m == r.reduced.m == r.to_json()["m"]
        assert line["m"] == line["reduced_m"] == ("" if r.m is None else str(r.m))
    assert any(r.m is None for r in catalog)


def _path_reduced_inclusions(catalog, genus):
    """inclusions as it was: every edge, mutual pairs dropped, then each edge
    removed when a path of other edges joins its ends (a DFS per edge)."""
    from seacurves.catalog import _specializes

    records = [r for r in catalog.query(genus=genus) if r.template is not None]
    support = {r.id: r.template.support_classification() for r in records}
    edges = {(a.id, b.id) for a in records for b in records
             if a.id != b.id and _specializes(a, b, support)}
    edges = {(x, y) for x, y in edges if (y, x) not in edges}
    adjacency = {}
    for x, y in edges:
        adjacency.setdefault(x, set()).add(y)

    def reachable(src, dst, skip_edge):
        stack, seen = [src], set()
        while stack:
            node = stack.pop()
            for nxt in adjacency.get(node, ()):
                if (node, nxt) == skip_edge:
                    continue
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return [e for e in sorted(edges) if not reachable(e[0], e[1], e)]


def test_inclusions_match_path_reduction(catalog):
    for genus in range(5, 11):
        assert inclusions(catalog, genus) == _path_reduced_inclusions(catalog, genus)


def test_inclusions_drop_mutual_specializations(catalog):
    from seacurves.catalog import _specializes

    # equal templates x*(x^4 - 1), same n and delta: each specializes the other
    for genus, pair in ((6, ("g6-c8-5", "g6-c18-1")), (10, ("g10-c8-6", "g10-c18-1"))):
        a, b = (catalog[i] for i in pair)
        support = {r.id: r.template.support_classification() for r in (a, b)}
        assert _specializes(a, b, support) and _specializes(b, a, support)
        assert not any(set(e) == set(pair) for e in inclusions(catalog, genus))


def test_inclusions_structure(catalog):
    for genus in range(5, 11):
        edges = inclusions(catalog, genus)
        ids = {e for pair in edges for e in pair}
        adjacency = {}
        for a, b in edges:
            assert a != b
            assert catalog[a].n == catalog[b].n
            assert catalog[a].delta <= catalog[b].delta
            adjacency.setdefault(a, set()).add(b)
        # acyclic
        seen, stack = set(), set()

        def dfs(u):
            stack.add(u)
            seen.add(u)
            for v in adjacency.get(u, ()):
                assert v not in stack, "inclusion graph has a cycle"
                if v not in seen:
                    dfs(v)
            stack.discard(u)

        for node in ids:
            if node not in seen:
                dfs(node)


def test_inclusions_examples(catalog):
    edges = set(inclusions(catalog, 5))
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)

    def reaches(src, dst):
        stack = [src]
        seen = set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # x^12 + a1 x^6 + 1 specializes the 5-parameter even family (a3 = a1,
    # the rest 0); the direct edge may be transitively reduced away
    assert reaches("g5-c4-3", "g5-c1-1")
    # degree mismatch: x^11 + 1 is not inside any degree-12 family
    assert not any("g5-c2-1" in e for e in edges)
    # the S4 curve sits inside the f1 family at a1 = 0
    assert reaches("g5-c20-1", "g5-c10-1")


def test_inclusions_deterministic(catalog):
    assert inclusions(catalog, 9) == inclusions(catalog, 9)


def test_catalog_members_feed_the_invariant_systems(catalog):
    # a degree-12 catalog member is a valid input for the even-degree
    # invariant system, and its absolute invariants are model-independent
    import random

    from conftest import invertible_matrix
    from seacurves.forms import dehomogenize, homogenize, moebius_act
    from seacurves.invariants import general_absolute

    curve = specialize(catalog["g5-c1-1"],
                       {"a1": 1, "a2": -2, "a3": 0, "a4": 1, "a5": 3})
    form = homogenize(curve.f, 12)
    base = general_absolute(form)
    assert any(base.defined(n) for n in base.names)
    moved = moebius_act(invertible_matrix(random.Random(0)), form)
    other = general_absolute(moved)
    for name in base.names:
        if name == "v4":
            continue  # not scaling-invariant by its degree anomaly
        assert base.defined(name) == other.defined(name)
        if base.defined(name):
            assert base[name] == other[name]
    # the transformed model is still a squarefree curve equation when its
    # dehomogenization keeps full degree
    poly = dehomogenize(moved)
    if poly.degree == 12:
        from seacurves.curves import make_curve

        assert make_curve(2, poly).genus == 5


SUPPORT_GOLDEN = Path(__file__).parent / "data" / "catalog_support_golden.json"


def test_support_classification_golden(catalog):
    """Every templated row's classification, which the inclusion edges are
    built from, pinned exactly."""
    got = {}
    for r in catalog:
        if r.template is not None:
            got[r.id] = {str(e): v if v == "param" else str(v[1])
                         for e, v in r.template.support_classification().items()}
    assert got == json.loads(SUPPORT_GOLDEN.read_text("utf-8"))


def test_only_inclusions_expands_templates(monkeypatch):
    expand = EquationTemplate.symbolic

    def refuse(self):
        raise AssertionError("symbolic() called")

    monkeypatch.setattr(EquationTemplate, "symbolic", refuse)
    catalog_mod._build_catalog.cache_clear()  # build anew while symbolic() refuses
    catalog = packaged_catalog()
    assert all(r.template._support is None for r in catalog if r.template is not None)
    assert verify_all(catalog).ok
    assert specialize(catalog["g5-c4-1"], {"a1": 1, "a2": 3, "a3": 5}).genus == 5
    assert len(catalog.query(genus=5)) == 20

    # on a copy built without the memo, whose templates no other caller
    # shares, inclusions expands each templated row of the genus once, and a
    # second call expands none
    catalog = Catalog(FamilyRecord.from_json(r.to_json()) for r in catalog)
    calls = []
    monkeypatch.setattr(EquationTemplate, "symbolic",
                        lambda self: calls.append(self) or expand(self))
    first = inclusions(catalog, 5)
    rows = [r.template for r in catalog.query(genus=5) if r.template is not None]
    assert len(calls) == len(rows) and {id(t) for t in calls} == {id(t) for t in rows}
    assert inclusions(catalog, 5) == first and len(calls) == len(rows)


_UNEVALUABLE = {
    # deg f = 1: genus_formula has no value to compare with the genus column
    "degree_one": ("equation", "x + 1", "genus"),
    # 7 does not divide |G| = 4, so Riemann-Hurwitz cannot be evaluated
    "index_not_dividing": ("signature", {"indices": [[7, 1], [2, 3]]}, "signature"),
}


@pytest.mark.parametrize("change", _UNEVALUABLE.values(), ids=_UNEVALUABLE.keys())
def test_verify_reports_a_row_it_cannot_evaluate(change, catalog, tmp_path, monkeypatch,
                                                 capsys):
    """One such row fails a check; verify still reports every row (exit 1)."""
    from seacurves.cli import main

    key, value, check = change
    path = tmp_path / "bad.jsonl"
    _write_rows(path, [{**catalog["g5-c1-1"].to_json(), key: value},
                       catalog["g5-c1-2"].to_json()])
    monkeypatch.setenv("SEA_CATALOG", str(path))
    summaries = []
    for argv in (["catalog", "verify"], ["catalog", "verify", "--genus", "5"]):
        assert main(argv) == 1, argv
        summaries.append(json.loads(capsys.readouterr().out))
    assert summaries[0] == summaries[1]
    summary = summaries[0]
    assert summary["rows"] == 2 and summary["unflagged_failures"] == ["g5-c1-1"]
    assert summary["checks"][check] == {"passed": 1, "failed": 1, "skipped": 0}
    report = verify_record(load_catalog(str(path))["g5-c1-1"])
    if check == "signature":
        assert report.checks["signature"].detail == (
            "|G| = 4; index 7 does not divide group order 4")
        assert report.checks["dimension"].passed is None
        assert summary["checks"]["dimension"] == {"passed": 1, "failed": 0, "skipped": 1}
    else:
        assert "deg f < 2" in report.checks["genus"].detail


def test_rows_keep_id_order_whatever_the_file_order(catalog, tmp_path, monkeypatch, capsys):
    from seacurves.cli import main

    path = tmp_path / "reversed.jsonl"
    _write_rows(path, [{**catalog[rid].to_json(), "delta": 9} for rid in ("g5-c1-2", "g5-c1-1")])
    monkeypatch.setenv("SEA_CATALOG", str(path))
    for argv in (["catalog", "verify"], ["catalog", "verify", "--genus", "5"]):
        assert main(argv) == 1, argv
        assert json.loads(capsys.readouterr().out)["unflagged_failures"] == [
            "g5-c1-1", "g5-c1-2"], argv
    loaded = load_catalog(str(path))
    assert [r.id for r in loaded] == ["g5-c1-1", "g5-c1-2"]
    assert [json.loads(line)["id"] for line in export_jsonl(loaded).splitlines()] == [
        "g5-c1-1", "g5-c1-2"]
