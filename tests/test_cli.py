import hashlib
import json
import random
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


def test_genus10_unprintable_i12_names_the_locus(capsys):
    rng = random.Random(1)
    coeffs = ",".join(str(rng.randrange(10**399, 10**400)) for _ in range(23))
    code, out, err = run(capsys, "invariants", "--kind", "genus10", "--coeffs", coeffs)
    assert code == 2 and out == ""
    assert err == ("error: I12 = (too large to print) != 0; the special invariants are "
                   "only defined on the I12 = 0 locus\n")


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


# the fuzz's deadline for one command; the limit rows below must meet it
FUZZ_DEADLINE_S = 5.0


def _numerals(seed: int, count: int, digits: int = 4000) -> list:
    """``count`` signed random numerals of ``digits`` digits (the interpreter's
    limit is 4300)."""
    rng = random.Random(seed)
    return [str(rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits))
            for _ in range(count)]


def _timed(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < FUZZ_DEADLINE_S, argv[:2]
    return code, json.loads(out) if out else None, err


def test_genus_at_degree_and_numeral_limits(capsys):
    """A squarefree f of degree 100 with 4000-digit coefficients."""
    code, doc, _ = _timed(capsys, "genus", "-n", "2", "--poly", ",".join(_numerals(100, 101)))
    assert code == 0 and doc == {"genus": 49}


def test_genus_over_gaussian_rationals_at_degree_limit(capsys):
    """A squarefree f of degree 100 over Q(sqrt -1) with 40-digit parts: -1 is
    a square modulo the listed primes P = 5 mod 8, so a prime certifies f
    without the subresultant sequence (23 s before those primes were listed)."""
    parts = zip(_numerals(71, 101, 40), _numerals(72, 101, 40))
    coeffs = ",".join(f"{a}{'' if b[0] == '-' else '+'}{b}*sqrt(-1)" for a, b in parts)
    code, doc, _ = _timed(capsys, "genus", "-n", "2", "--poly", coeffs)
    assert code == 0 and doc == {"genus": 49}


def test_specialize_at_numeral_limit(capsys):
    """The degree-22 row g10-c1-1 (ten parameters) at 4000-digit parameters."""
    params = ",".join(f"a{i}={v}" for i, v in enumerate(_numerals(22, 10), start=1))
    code, doc, _ = _timed(capsys, "catalog", "specialize", "--id", "g10-c1-1", "--params", params)
    assert code == 0 and doc["genus"] == 10


def test_inclusions_on_a_16_fold_catalog(capsys, tmp_path, monkeypatch):
    """The packaged table repeated 16 times with fresh ids (3360 rows, 880 of
    genus 10): each copy of a row gets an edge to each copy of every family
    its row has an edge to, and none to another copy of itself."""
    from conftest import folded_rows, packaged_catalog
    from seacurves.catalog import inclusions

    path = tmp_path / "folded.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in folded_rows(16)), encoding="utf-8")
    monkeypatch.setenv("SEA_CATALOG", str(path))
    code, doc, _ = _timed(capsys, "catalog", "inclusions", "--genus", "10")
    copies = [f"{c:02d}" for c in range(16)]
    edges = inclusions(packaged_catalog(), 10)
    assert code == 0
    assert doc["edges"] == sorted([a + c, b + d] for a, b in edges for c in copies for d in copies)


def test_isomorphic_at_numeral_limit(capsys):
    """Two sextics with 4000-digit coefficients, and one against its negation."""
    f1, f2 = (",".join(_numerals(seed, 7)) for seed in (61, 62))
    code, doc, _ = _timed(capsys, "isomorphic", "--genus", "2", "--f1", f1, "--f2", f2)
    assert code == 1 and doc == {"isomorphic": False}
    minus = ",".join(c[1:] if c[0] == "-" else "-" + c for c in f1.split(","))
    code, doc, _ = _timed(capsys, "isomorphic", "--genus", "2", "--f1", f1, "--f2", minus)
    assert code == 0 and doc == {"isomorphic": True}


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
    from conftest import packaged_catalog
    from seacurves.catalog import Catalog, export_jsonl

    sub = Catalog(packaged_catalog().query(genus=6))
    path = tmp_path / "six.jsonl"
    path.write_text(export_jsonl(sub), encoding="utf-8")
    monkeypatch.setenv("SEA_CATALOG", str(path))
    monkeypatch.setattr("sys.argv", ["seacurves", "catalog", "verify"])
    assert main() == 0  # with no argv, main reads sys.argv[1:]
    assert json.loads(capsys.readouterr().out)["rows"] == 36


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


# one argv per free-text flag, with "--" as its value
DASH_VALUES = {
    "--f": ["transvect", "--f", "--", "--g", "1,0,1", "-r", "1"],
    "--g": ["transvect", "--f", "1,0,1", "--g", "--", "-r", "1"],
    "--f1": ["isomorphic", "--genus", "2", "--f1", "--", "--f2", "x^6+1"],
    "--f2": ["isomorphic", "--genus", "2", "--f1", "x^6+1", "--f2", "--"],
    "--coeffs": ["invariants", "--kind", "sextic", "--coeffs", "--"],
    "--poly": ["genus", "-n", "2", "--poly", "--"],
    "--params": ["catalog", "specialize", "--id", "g5-c1-1", "--params", "--"],
}


@pytest.mark.parametrize("joined", [False, True], ids=["two_tokens", "equals"])
@pytest.mark.parametrize("flag", DASH_VALUES)
def test_dash_value_is_a_usage_error(capsys, flag, joined):
    """argparse drops a "--" value, so the flag is left without one: exit 2."""
    argv = list(DASH_VALUES[flag])
    if joined:
        i = argv.index(flag)
        argv[i:i + 2] = [f"{flag}=--"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {flag}: expected one argument\n" in captured.err


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
    monkeypatch.setattr(catalog, "_last_built", (None, None))
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


def test_a_doubled_star_before_a_radical_is_refused(capsys):
    """``2**sqrt(5)`` is not ``2*sqrt(5)``: one * joins a rational to sqrt(D)."""
    code, out, err = run(capsys, "genus", "-n", "2", "--poly", "x^5+2**sqrt(5)*x+1")
    assert (code, out, err) == (2, "", "error: bad rational '2**sqrt(5)' in '2**sqrt(5)'\n")


# one argv per class of scalar text the grammar refuses, each otherwise a valid call
MALFORMED_SCALARS = {
    "two_parts_of_one_kind": ["genus", "-n", "2", "--poly", "1,0,0,0,0,1+1"],
    "non_ascii_digit": ["genus", "-n", "2", "--poly", "x^٥+1"],
    "whitespace_in_a_numeral": ["genus", "-n", "2", "--poly", "x^1 1+1"],
    "zero_multiple_of_a_bad_radical": ["genus", "-n", "2", "--poly", "1,0,0,0,0,1+0*sqrt(4)"],
}


@pytest.mark.parametrize("argv", MALFORMED_SCALARS.values(), ids=MALFORMED_SCALARS)
def test_malformed_scalar_text_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")


# one argv per integer flag, with a value int() reads but the package does not
INT_FLAGS = {
    "level_arabic_indic": (["genus", "-n", "٣", "--poly", "x^5+1"], "٣"),
    "level_underscore": (["genus", "-n", "1_0", "--poly", "x^5+1"], "1_0"),
    "level_space": (["genus", "-n", " 3", "--poly", "x^5+1"], " 3"),
    "order": (["transvect", "--f", "x^2", "--g", "1,0,0", "-r", "٢"], "٢"),
    "isomorphic_genus": (["isomorphic", "--genus", "٢", "--f1", "x^6+1", "--f2", "x^6+1"], "٢"),
    "inclusions_genus": (["catalog", "inclusions", "--genus", "1_0"], "1_0"),
    "list_genus": (["catalog", "list", "--genus", "٥"], "٥"),
    "verify_genus": (["catalog", "verify", "--genus", "10 "], "10 "),
}


@pytest.mark.parametrize("flag", INT_FLAGS)
def test_integer_flags_read_ascii_decimal(capsys, flag):
    """-n, -r and --genus read one optional sign and ASCII digits, as the
    package reads a numeral: a usage error (exit 2) on anything else."""
    argv, value = INT_FLAGS[flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"invalid int value: {value!r}\n" in captured.err


@pytest.mark.parametrize("argv, genus", [
    (["genus", "-n", "+2", "--poly", "x^11+1"], 5),
    (["genus", "-n", "002", "--poly", "x^11+1"], 5),
])
def test_integer_flags_keep_a_sign_and_leading_zeros(capsys, argv, genus):
    code, doc, _ = run_json(capsys, *argv)
    assert (code, doc) == (0, {"genus": genus})
