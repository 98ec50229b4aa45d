import hashlib
import json
import time
from pathlib import Path

import pytest

from seacurves.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_genus(capsys):
    code, doc, _ = run_json(capsys, "genus", "-n", "2", "--poly", "x^11+1")
    assert code == 0 and doc == {"genus": 5}


def test_genus_precondition_error(capsys):
    code, out, err = run(capsys, "genus", "-n", "2", "--poly", "x^2-2*x+1")
    assert code == 2 and out == "" and "repeated root" in err


def test_invariants_sextic(capsys):
    code, doc, _ = run_json(capsys, "invariants", "--kind", "sextic",
                            "--coeffs", "-1,0,0,0,0,0,1")
    assert code == 0
    assert doc["kind"] == "sextic"
    assert doc["invariants"]["J2"] == "-2"
    assert doc["absolute"]["t1"] == "undefined"
    assert doc["availability"]["J2"] is True


def test_invariants_general_availability(capsys):
    code, doc, _ = run_json(capsys, "invariants", "--kind", "general",
                            "--coeffs", "x^14+1")
    assert code == 0
    assert doc["availability"]["I3"] is False  # 4 does not divide 14
    assert "I3" not in doc["invariants"]


def test_invariants_genus10_gate(capsys):
    code, doc, _ = run_json(capsys, "invariants", "--kind", "genus10",
                            "--coeffs", "x^22+1")
    assert code == 0 and doc["invariants"]["I12star"] == "448/5773481195625"

    code, out, err = run(capsys, "invariants", "--kind", "genus10",
                         "--coeffs", "x^22+x^11+1")
    assert code == 2 and out == ""


def test_transvect(capsys):
    code, doc, _ = run_json(capsys, "transvect", "--f", "0,0,1", "--g", "1,0,0",
                            "-r", "2")
    assert code == 0 and doc == {"degree": 0, "coeffs": ["1"]}

    code, out, err = run(capsys, "transvect", "--f", "0,0,1", "--g", "1,0,0",
                         "-r", "5")
    assert code == 2 and "order" in err


def test_transvect_radicand_limit(capsys):
    # squarefreeness of a radicand beyond 10^12 is not attempted (it used to
    # hang in trial division): a usage error, exit 2, returned at once
    t0 = time.perf_counter()
    code, out, err = run(capsys, "transvect", "--f", "sqrt(100000000000000000039),1",
                         "--g", "1,1", "-r", "1")
    assert code == 2 and out == "" and "10^12" in err
    assert time.perf_counter() - t0 < 1.0


def test_degree_limit(capsys):
    # a degree past MAX_DEGREE is a usage error at once, before any list of
    # that length is built (x^1000000000 used to exhaust memory)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "genus", "-n", "2", "--poly", "x^1000000000+1")
    assert code == 2 and out == "" and "exceeds 100" in err
    code, out, err = run(capsys, "transvect", "--f", ",".join(["1"] * 102),
                         "--g", "1,1", "-r", "1")
    assert code == 2 and out == "" and "degree 101 exceeds 100" in err
    assert time.perf_counter() - t0 < 1.0


def test_genus_at_degree_limit(capsys):
    # the squarefree check of a degree-100 f, the largest the CLI accepts
    coeffs = ",".join(str((7 * i * i + 3 * i) % 21 - 10) for i in range(100)) + ",1"
    code, doc, _ = run_json(capsys, "genus", "-n", "2", "--poly", coeffs)
    assert code == 0 and doc == {"genus": 49}


def test_general_invariants_at_degree_limit(capsys):
    from seacurves.forms import make_form
    from test_invariant_oracle import eager_invariants

    values = [(5 * i * i + 2 * i) % 13 - 6 for i in range(100)] + [1]
    code, doc, _ = run_json(capsys, "invariants", "--kind", "general",
                            "--coeffs", ",".join(map(str, values)))
    expected = eager_invariants("general", make_form(100, values))
    assert code == 0
    assert doc["invariants"] == {name: str(value) for name, value in expected.items()}


def test_isomorphic_true_false_inconclusive(capsys):
    f = "1,2,0,1,0,0,3"
    # scaling a sextic leaves the absolute invariants alone
    code, doc, _ = run_json(capsys, "isomorphic", "--genus", "2",
                            "--f1", f, "--f2", "-1,-2,0,-1,0,0,-3")
    assert code == 0 and doc == {"isomorphic": True}

    code, doc, _ = run_json(capsys, "isomorphic", "--genus", "2",
                            "--f1", f, "--f2", "3,1,0,0,1,1,2")
    assert code == 1 and doc == {"isomorphic": False}

    # x^6 - 1 sits on the J10 = 0 locus: hypotheses unmet, exit 2
    code, out, err = run(capsys, "isomorphic", "--genus", "2",
                         "--f1", "-1,0,0,0,0,0,1", "--f2", "1,0,0,0,0,0,-1")
    assert code == 2 and out == "" and "inconclusive" in err


def test_isomorphic_genus3(capsys):
    f = "1,1,0,0,2,0,0,0,1"
    code, doc, _ = run_json(capsys, "isomorphic", "--genus", "3",
                            "--f1", f, "--f2", "2,2,0,0,4,0,0,0,2")
    assert code == 0 and doc == {"isomorphic": True}


def test_catalog_list(capsys):
    code, doc, _ = run_json(capsys, "catalog", "list", "--genus", "5",
                            "--group", "A5")
    assert code == 0 and len(doc) == 1
    assert doc[0]["id"] == "g5-c25-1"
    assert doc[0]["equation"] == "x*(x^10 + 11*x^5 - 1)"


def test_catalog_list_csv(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--genus", "10", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 56 and lines[0].startswith("id,")


def test_catalog_verify(capsys):
    code, doc, _ = run_json(capsys, "catalog", "verify")
    assert code == 0
    assert doc["ok"] is True and doc["rows"] == 210
    assert doc["unflagged_failures"] == []

    code, doc, _ = run_json(capsys, "catalog", "verify", "--genus", "7")
    assert code == 0 and doc["rows"] == 27


def test_catalog_specialize(capsys):
    code, doc, _ = run_json(capsys, "catalog", "specialize", "--id", "g5-c2-1")
    assert code == 0 and doc == {"n": 2, "f": "x^11 + 1", "genus": 5}

    code, doc, _ = run_json(capsys, "catalog", "specialize", "--id", "g5-c4-1",
                            "--params", "a1=1,a2=3,a3=5")
    assert code == 0 and doc["genus"] == 5

    code, out, err = run(capsys, "catalog", "specialize", "--id", "g5-c4-1",
                         "--params", "a1=2,a2=3,a3=5")
    assert code == 2 and out == ""

    code, out, err = run(capsys, "catalog", "specialize", "--id", "nope")
    assert code == 2 and "no record" in err


@pytest.mark.parametrize("params, message", [
    ("a1=2,a1=1,a2=3,a3=5", "parameter 'a1' assigned twice"),
    ("a1=1, a1 =2,a2=3,a3=5", "parameter 'a1' assigned twice"),
    ("=1,a1=1,a2=3,a3=5", "bad parameter assignment '=1'"),
    ("a1=1,a2=3,a3=5, =7", "bad parameter assignment ' =7'"),
])
def test_catalog_specialize_rejects_repeated_or_empty_names(capsys, params, message):
    code, out, err = run(capsys, "catalog", "specialize", "--id", "g5-c4-1", "--params", params)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_catalog_inclusions(capsys):
    code, doc, _ = run_json(capsys, "catalog", "inclusions", "--genus", "5")
    assert code == 0 and doc["genus"] == 5
    assert ["g5-c20-1", "g5-c10-1"] in doc["edges"]


def test_output_determinism(capsys):
    _, out1, _ = run(capsys, "catalog", "list", "--genus", "8")
    _, out2, _ = run(capsys, "catalog", "list", "--genus", "8")
    assert out1 == out2
    _, out1, _ = run(capsys, "invariants", "--kind", "octavic",
                     "--coeffs", "1,0,0,0,0,0,0,0,1")
    _, out2, _ = run(capsys, "invariants", "--kind", "octavic",
                     "--coeffs", "1,0,0,0,0,0,0,0,1")
    assert out1 == out2


def test_env_override(capsys, tmp_path, monkeypatch):
    from seacurves.catalog import Catalog, export_jsonl, load_catalog

    sub = Catalog(load_catalog(use_env=False).query(genus=6))
    path = tmp_path / "six.jsonl"
    path.write_text(export_jsonl(sub), encoding="utf-8")
    monkeypatch.setenv("SEA_CATALOG", str(path))
    code, doc, _ = run_json(capsys, "catalog", "verify")
    assert code == 0 and doc["rows"] == 36


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_internal_inconsistency_exit_code(capsys, monkeypatch):
    from seacurves import cli
    from seacurves.invariants import OrderBookkeepingError

    def boom(*args, **kwargs):
        raise OrderBookkeepingError("synthetic bookkeeping break")

    monkeypatch.setattr(cli, "sextic_invariants", boom)
    code, out, err = run(capsys, "invariants", "--kind", "sextic",
                         "--coeffs", "1,0,0,0,0,0,1")
    assert code == 3 and out == "" and "internal inconsistency" in err


def test_input_errors_share_one_base():
    """Every typed input error is a SeacurvesError, which main maps to exit
    2; the internal error behind exit 3 is not."""
    from seacurves import catalog, curves, forms, invariants, scalars, transvection
    from seacurves.catalog import templates

    errors = [scalars.FieldMixError, scalars.ScalarParseError, scalars.RadicandError,
              scalars.DivisionByZeroError, forms.DegreeError, forms.SingularMatrixError,
              transvection.TransvectionError, invariants.InconclusiveError,
              invariants.Genus10CaseError, curves.NotSquarefreeError, curves.LevelError,
              curves.CurveDataError, catalog.CatalogError, templates.TemplateError,
              templates.TemplateParamError]
    assert all(issubclass(e, scalars.SeacurvesError) for e in errors)
    assert issubclass(scalars.SeacurvesError, ValueError)
    assert issubclass(scalars.DivisionByZeroError, ZeroDivisionError)
    assert not issubclass(invariants.OrderBookkeepingError, scalars.SeacurvesError)


@pytest.mark.parametrize("exc", [KeyError("J2"), ValueError("bare"), ZeroDivisionError("bare")])
def test_unexpected_exception_exits_3_on_one_line(capsys, monkeypatch, exc):
    """An exception that is not a SeacurvesError is a bug, a bare ValueError
    included: exit 3 and one stderr line naming it, not exit 2 and not a
    traceback."""
    from seacurves import cli

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "sextic_invariants", boom)
    code, out, err = run(capsys, "invariants", "--kind", "sextic",
                         "--coeffs", "1,0,0,0,0,0,1")
    assert (code, out, err) == (3, "", f"internal error: {exc!r}\n")


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def test_golden_digests(capsys, monkeypatch):
    """Exit code and stdout SHA-256 of every call the benchmark pins, from a
    cold start (no built catalog or parser in the process) and again warm."""
    from seacurves import catalog, cli

    monkeypatch.delenv("SEA_CATALOG", raising=False)
    entries = json.loads(GOLDEN.read_text("utf-8"))
    assert len(entries) == 36
    catalog._build_catalog.cache_clear()
    cli._build_parser.cache_clear()
    for _ in ("cold", "warm"):
        for entry in entries:
            code, out, _ = run(capsys, *entry["argv"])
            assert code == entry["exit"], entry["argv"]
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"], \
                entry["argv"]


@pytest.mark.parametrize("argv, message", [
    (("genus", "-n", "-2", "--poly", "x^3+1"), "error: level must be >= 2, got -2\n"),
    (("genus", "-n", "2", "--poly", "2"), "error: need deg f >= 2, got 0\n"),
    (("genus", "-n", "-2", "--poly", "2"), "error: level must be >= 2, got -2\n"),
])
def test_genus_rejects_low_level_and_degree(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)
