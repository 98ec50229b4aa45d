"""Fuzz test of ``cli.main(argv)``.

The argvs are built from numerals (huge ones and zero denominators among
them), ``sqrt(...)`` with bad radicands (squares, 0, 1, out of range, two
radicals in one input) and good ones up to 10^12, ``x^k`` terms up to
k = 101 (one past ``MAX_DEGREE``) and coefficient CSVs, for ``genus --poly``
(with levels ``-n`` of up to 4300 digits), ``transvect``,
``invariants --coeffs``, ``isomorphic`` and ``catalog specialize --params``,
and from negative and huge ``--genus`` values and arbitrary ``--group``
text for ``catalog list``, ``verify`` and ``inclusions``.  Whatever the
input, ``main`` must return 0, 1 or 2 without raising, within a per-example
deadline, and a second run must print byte-identical stdout.

The catalog subcommands are also run with ``SEA_CATALOG`` set to a missing
file, a non-UTF-8 file, malformed JSONL made by mutating real rows and real
rows whose level or genus has 4300 digits (or whose multiplicities add up
past that).  A file that contradicts itself (duplicate ids, a genus column
that does not match its equation) may end in exit 3, but only with an
"internal inconsistency" line; any other exception is a bug.
"""

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import packaged_catalog
from seacurves.cli import main

SMALL = st.integers(-30, 30).map(str)
NUMERALS = st.one_of(
    SMALL,
    SMALL,
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(0, 12)),
)
GOOD_RADICANDS = st.sampled_from([-3, 5, -1, 999999999989])
BAD_RADICANDS = st.sampled_from([0, 1, 4, -4, 8, 12, 10 ** 13, -(10 ** 12) - 1])
# one radicand per input, bad one time in ten, so that most inputs reach the
# arithmetic; the two inputs of one call may still meet in two fields
RADICANDS = st.integers(0, 9).flatmap(lambda i: BAD_RADICANDS if i == 0 else GOOD_RADICANDS)


def scalars(d: int):
    return st.one_of(
        NUMERALS,
        NUMERALS,
        st.just(f"sqrt({d})"),
        st.builds(lambda a, b: f"{a}+{b}*sqrt({d})", NUMERALS, NUMERALS),
    )


@st.composite
def forms(draw, size=None):
    """A coefficient CSV (of ``size`` entries if given), or a poly-string of
    x^k terms with k <= 101."""
    d = draw(RADICANDS)
    if size or draw(st.booleans()):
        return ",".join(draw(st.lists(scalars(d), min_size=size or 1, max_size=size or 12)))
    coeff = st.one_of(st.just(""), st.integers(-9, 9).map(str), st.just(f"sqrt({d})"))
    exps = draw(st.lists(st.integers(0, 101), min_size=1, max_size=4, unique=True))
    terms = []
    for k in exps:
        c = draw(coeff)
        terms.append(f"{c}*x^{k}" if c else f"x^{k}")
    return "+".join(terms)


# each kind with the degree it accepts (general takes any even degree >= 4)
KINDS = {"sextic": 6, "octavic": 8, "decimic": 10, "general": 12, "genus10": 22}


@st.composite
def invariants_argvs(draw):
    """Half of the forms have the degree their kind needs."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    form = draw(st.one_of(forms(), forms(KINDS[kind] + 1)))
    return ["invariants", "--kind", kind, "--coeffs", form]


# catalog ids with their parameter counts; there is no row g5-zz-1
IDS = {"g5-c1-1": 5, "g7-c6-1": 1, "g9-c3-8": 2, "g10-c3-6": 4, "g6-c2-5": 0, "g5-zz-1": 1}


@st.composite
def specialize_argvs(draw):
    """Assignments of the row's own parameters, or of arbitrary names."""
    row = draw(st.sampled_from(sorted(IDS)))
    names = [f"a{i}" for i in range(1, IDS[row] + 1)]
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(["a0", "a1", "a2", "a3", ""]), max_size=5))
    values = scalars(draw(RADICANDS))
    params = ",".join(f"{n}={draw(values)}" for n in names)
    if draw(st.integers(0, 9)) == 0:
        params = draw(st.sampled_from(["a1", "=1", "a1=1,a1=2", "a1=,a2=3", "a1=1,"]))
    return ["catalog", "specialize", "--id", row, "--params", params]


@st.composite
def isomorphic_argvs(draw):
    """Half of the forms have the degree their genus needs; --genus is
    sometimes outside the choices argparse allows."""
    genus = draw(st.sampled_from([2, 2, 3, 3, -1, 4, 10 ** 30]))
    size = {2: 7, 3: 9}.get(genus)
    f1, f2 = (draw(st.one_of(forms(), forms(size))) for _ in range(2))
    return ["isomorphic", "--genus", str(genus), "--f1", f1, "--f2", f2]


GENERA = st.one_of(st.integers(-3, 12), st.sampled_from([-(10 ** 30), 10 ** 30]))
GROUPS = st.one_of(st.sampled_from(["A5", "A_5", "D_4", "D2m", "Cm", "C_3", "S_4", ""]),
                   st.text(max_size=6))


@st.composite
def catalog_argvs(draw, sub=None):
    """catalog list, verify or inclusions (``sub``, or drawn), with or without
    their filters."""
    if sub is None:
        sub = draw(st.sampled_from(["list", "verify", "inclusions"]))
    argv = ["catalog", sub]
    if sub == "inclusions" or draw(st.booleans()):
        argv += ["--genus", str(draw(GENERA))]
    if sub == "list" and draw(st.booleans()):
        argv.append(f"--group={draw(GROUPS)}")
    if sub == "list" and draw(st.booleans()):
        argv.append("--csv")
    return argv


# 4300 digits is the most int() reads; the genus of such a level can be
# past the limit str() prints
LEVELS = st.one_of(st.integers(-2, 12), st.integers(0, 10 ** 4300 - 1))

ARGVS = st.one_of(
    st.builds(lambda n, f: ["genus", "-n", str(n), "--poly", f], LEVELS, forms()),
    st.builds(lambda f, g, r: ["transvect", "--f", f, "--g", g, "-r", str(r)],
              forms(), forms(), st.integers(-1, 8)),
    invariants_argvs(),
    isomorphic_argvs(),
    specialize_argvs(),
    catalog_argvs(),
)


@st.composite
def big_coefficient_argvs(draw):
    """transvect or invariants on forms whose coefficients have 1 to 2500
    digits, some over Q(sqrt 5): a product or invariant of them can run past
    the interpreter's integer-string digit limit (4300 digits by default)."""
    digits = draw(st.integers(1, 2500))
    big = st.builds(lambda sign, n: f"{sign}{n}", st.sampled_from(["", "-"]),
                    st.integers(10 ** (digits - 1), 10 ** digits - 1))
    coeff = st.one_of(big, big, SMALL, st.builds(lambda a, b: f"{a}+{b}*sqrt(5)", big, big))

    def form(size):
        return ",".join(draw(st.lists(coeff, min_size=size, max_size=size)))

    if draw(st.booleans()):
        f, g = (form(draw(st.integers(1, 9))) for _ in range(2))
        return ["transvect", "--f", f, "--g", g, "-r", str(draw(st.integers(0, 4)))]
    kind = draw(st.sampled_from(sorted(KINDS)))
    return ["invariants", "--kind", kind, "--coeffs", form(KINDS[kind] + 1)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv: usage, exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(ARGVS)
@example(["genus", "-n", "7" * 4299, "--poly", "x^100+1"])
# a radicand near 10^12 in every coefficient of a degree-100 f
@example(["genus", "-n", "2", "--poly", ",".join(["1+sqrt(999999999989)"] * 101)])
@settings(max_examples=300, deadline=timedelta(seconds=5))
def test_main_is_total_and_deterministic(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert (code == 2) == (out == ""), (argv, code, err)
    assert _run(argv)[:2] == (code, out)


# a row with sum blocks, a parameter-free one and a factored dihedral one;
# specialize_argvs draws their ids
ROWS = [packaged_catalog()[i].to_json() for i in ("g5-c1-1", "g6-c2-5", "g7-c6-1")]
JSON = st.recursive(
    st.none() | st.booleans() | GENERA | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "m", "indices"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_rows(draw):
    """A real row with one field replaced, dropped or (for the equation)
    edited by one character."""
    row = dict(draw(st.sampled_from(ROWS)))
    key = draw(st.sampled_from(sorted(row)))
    how = draw(st.sampled_from(["replace", "drop", "edit"]))
    if how == "drop":
        del row[key]
    elif how == "edit" and row["equation"]:
        eq = row["equation"]
        i = draw(st.integers(0, len(eq)))
        j = draw(st.integers(i, min(i + 2, len(eq))))
        row["equation"] = eq[:i] + draw(st.sampled_from(list("x^+-*()0a_i=.,/ 9"))) + eq[j:]
    else:  # an integer often keeps the row loadable but inconsistent
        row[key] = draw(st.one_of(GENERA, JSON))
    return json.dumps(row)


VALID_ROWS = st.sampled_from([json.dumps(r) for r in ROWS])
HUGE = st.integers(10 ** 4299, 10 ** 4300 - 1)
# a real row whose level or genus has 4300 digits: it loads, and the genus,
# group order and Hurwitz bound built from it are past the printable limit
HUGE_ROWS = st.builds(lambda row, key, value: json.dumps(dict(row, **{key: value})),
                      st.sampled_from(ROWS), st.sampled_from(["n", "genus"]), HUGE)


def _jsonl(lines):
    return "\n".join(lines).encode("utf-8")


CATALOG_FILES = st.one_of(
    st.none(),  # no such file
    st.just(b"\xff\xfe\x00"),
    st.builds(lambda rows: _jsonl(rows) + b"\n\xff\n", st.lists(VALID_ROWS, max_size=2)),
    st.just(_jsonl(["[" * 100000 + "]" * 100000])),
    st.lists(st.one_of(VALID_ROWS, st.text(max_size=12)), max_size=3).map(_jsonl),
    st.lists(st.one_of(mutated_rows(), HUGE_ROWS, VALID_ROWS),
             min_size=1, max_size=4).map(_jsonl),
    st.lists(st.one_of(HUGE_ROWS, VALID_ROWS), min_size=1, max_size=3).map(_jsonl),
)
HUGE_N, HUGE_GENUS = (_jsonl([json.dumps(dict(ROWS[0], **{key: 9 * 10 ** 4299}))])
                      for key in ("n", "genus"))
# two entries of one index whose multiplicities add up past 4300 digits
HUGE_MULT = _jsonl([json.dumps(dict(ROWS[0], signature={"indices": [[2, 9 * 10 ** 4299]] * 2}))])
SPECIALIZE_G5 = ["catalog", "specialize", "--id", "g5-c1-1",
                 "--params", "a1=1,a2=1,a3=1,a4=1,a5=1"]


# each catalog subcommand alike, so that list, verify and inclusions are drawn
# as often as specialize
CATALOG_SUBCOMMAND_ARGVS = st.sampled_from(["list", "verify", "inclusions", "specialize"]).flatmap(
    lambda sub: specialize_argvs() if sub == "specialize" else catalog_argvs(sub))


@given(CATALOG_FILES, CATALOG_SUBCOMMAND_ARGVS)
@example(HUGE_N, ["catalog", "verify"])
@example(HUGE_N, SPECIALIZE_G5)
@example(HUGE_GENUS, ["catalog", "verify"])
@example(HUGE_MULT, ["catalog", "list", "--csv"])
@example(HUGE_MULT, ["catalog", "list"])
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_catalog_commands_are_total_on_any_catalog_file(content, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.jsonl")
        if content is not None:
            with open(path, "wb") as fh:
                fh.write(content)
        with mock.patch.dict(os.environ, {"SEA_CATALOG": path}):
            code, out, err = _run(argv)
            assert _run(argv)[:2] == (code, out)
    assert code in (0, 1, 2), (argv, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    assert (code >= 2) == (out == ""), (argv, code, err)


THREES = "3" * 2200 + ",0,1"


@given(big_coefficient_argvs())
@example(["transvect", "--f", THREES, "--g", THREES, "-r", "0"])
@settings(max_examples=40, deadline=timedelta(seconds=5))
def test_outputs_past_the_digit_limit_exit_2(argv):
    """A value too long to print is a typed error: exit 2 with one stderr
    line and nothing on stdout, never exit 3 or a traceback."""
    code, out, err = _run(argv)
    assert code in (0, 2), (argv[:2], code, err)
    assert "Traceback" not in err
    assert (code == 2) == (out == "") and err.count("\n") == (code == 2), (argv[:2], code, err)
