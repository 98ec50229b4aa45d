"""Fuzz test of ``cli.main(argv)`` on the subcommands that parse user text.

The argvs are built from numerals (huge ones and zero denominators among
them), ``sqrt(...)`` with bad radicands (squares, 0, 1, out of range, two
radicals in one input), ``x^k`` terms up to k = 101 (one past ``MAX_DEGREE``)
and coefficient CSVs, for ``genus --poly``, ``transvect``,
``invariants --coeffs`` and ``catalog specialize --params``.  Whatever the
input, ``main`` must return 0, 1 or 2 without raising, within a per-example
deadline, and a second run must print byte-identical stdout.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from seacurves.cli import main

SMALL = st.integers(-30, 30).map(str)
NUMERALS = st.one_of(
    SMALL,
    SMALL,
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(0, 12)),
)
GOOD_RADICANDS = st.sampled_from([-3, 5, -1])
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


ARGVS = st.one_of(
    st.builds(lambda n, f: ["genus", "-n", str(n), "--poly", f], st.integers(-2, 12), forms()),
    st.builds(lambda f, g, r: ["transvect", "--f", f, "--g", g, "-r", str(r)],
              forms(), forms(), st.integers(-1, 8)),
    invariants_argvs(),
    specialize_argvs(),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(ARGVS)
@settings(max_examples=300, deadline=timedelta(seconds=5))
def test_main_is_total_and_deterministic(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert (code == 2) == (out == ""), (argv, code, err)
    assert _run(argv)[:2] == (code, out)
