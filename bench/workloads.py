"""Workload generators for the seacurves benchmark.

A workload turns ``(seed, round)`` into a list of :class:`Op`.  The program
only ever sees the generated inputs; the harness times ``Op.fn`` and judges
its value with ``Op.check`` outside the timed region.  Checks that need the
independent sympy oracle are queued on a :class:`Sink` as
``(label, oracle_function_name, args)`` and run after timing ends, so sympy is
never imported while the program is being measured.

Every call into the program goes through a module attribute
(``forms.moebius_act``, ``cli.main``, ...) looked up at call time, so the
span wrappers that the traced run installs on those attributes see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

from seacurves import cli, forms, invariants, transvection
from seacurves.catalog.templates import parse_poly_string
from seacurves.forms import BinaryForm, Matrix2
from seacurves.invariants import InconclusiveError
from seacurves.scalars import Scalar, rational, sqrt_ext

BENCH_DIR = Path(__file__).resolve().parent
TABLE = BENCH_DIR.parent / "src" / "seacurves" / "catalog" / "data" / "table.jsonl"
GOLDEN = BENCH_DIR / "golden.json"

HEIGHT = 10                 # coefficient height of the random forms
UNIMODULAR_PER_FORM = 3     # unimodular checks per form and round


class Op:
    """One timed call: ``fn()`` is timed, ``check(value)`` is not.

    ``check`` gets the returned value, or the exception instance when ``fn``
    raised one of ``typed`` (a precondition outcome the program reports by
    type).  It returns ``None`` when the outcome is right, else a reason.
    ``inputs`` are what the op feeds the program, for failure reports.
    """

    __slots__ = ("label", "fn", "check", "typed", "inputs")

    def __init__(self, label, fn, inputs, check=None, typed=()):
        self.label = label
        self.fn = fn
        self.inputs = inputs
        self.check = check or _expect_true
        self.typed = typed


def _expect_true(value):
    return None if value is True else f"check returned {value!r}"


class Sink:
    """Oracle checks queued during the timed region, run after it."""

    def __init__(self):
        self.deferred = []

    def defer(self, label, check_name, *args):
        self.deferred.append((label, check_name, args))


# -- random inputs -------------------------------------------------------------


def _coeff(rng, disc):
    c = Scalar(rng.randint(-HEIGHT, HEIGHT))
    if disc:
        c = c + sqrt_ext(rng.randint(-HEIGHT, HEIGHT), disc)
    return c


def random_form(rng, degree, disc=None):
    """Height-10 form with nonzero end coefficients, so no root sits at 0 or
    infinity with multiplicity by construction."""
    coeffs = [_coeff(rng, disc) for _ in range(degree + 1)]
    for i in (0, degree):
        while coeffs[i].is_zero:
            coeffs[i] = _coeff(rng, disc)
    return BinaryForm(degree, coeffs)


def unimodular_matrix(rng, steps=4):
    m = Matrix2(1, 0, 0, 1)
    for _ in range(steps):
        k = rng.choice((-2, -1, 1, 2))
        m = m @ (Matrix2(1, k, 0, 1) if rng.random() < 0.5 else Matrix2(1, 0, k, 1))
    return m


def invertible_matrix(rng, height=3):
    while True:
        m = Matrix2(*(rational(rng.randint(-height, height), rng.randint(1, height))
                      for _ in range(4)))
        if not m.det().is_zero:
            return m


# -- gate and sqrt_ext -------------------------------------------------------------

# kind -> (invariants, absolute invariants, absolute entries excluded from the
# comparison, isomorphism oracle); v4 is not scaling-invariant as printed.
_SYSTEMS = {
    "sextic": ("sextic_invariants", "sextic_absolute", (), "genus2_isomorphic"),
    "octavic": ("octavic_invariants", "octavic_absolute", (), "genus3_isomorphic"),
    "decimic": ("decimic_invariants", None, (), None),
    "general": ("general_invariants", "general_absolute", ("v4",), None),
}


def _kind(degree):
    return {6: "sextic", 8: "octavic", 10: "decimic"}.get(degree, "general")


def _call(name, *args):
    return getattr(invariants, name)(*args)


def _same_absolute(inv_name, abs_name, excluded, ref_vec, g):
    ref = _call(abs_name, ref_vec)
    other = _call(abs_name, _call(inv_name, g))
    for name in ref.names:
        if name in excluded:
            continue
        if ref.defined(name) != other.defined(name):
            return False
        if ref.defined(name) and ref[name] != other[name]:
            return False
    return True


class InvarianceWorkload:
    """One round = one fresh form per degree class, each put through:

    * ``base``: compute its invariant system;
    * ``unimodular`` (x3): substitute a unimodular matrix, recompute, compare
      the whole system exactly;
    * ``gl2`` / ``rescale``: a rational GL2 substitution or a rescaling, then
      compare the absolute invariants (systems that have them);
    * ``covariance``: (Mf, Mg)^r = det(M)^r * M(f, g)^r for a second form g
      of the same degree and r = degree / 2;
    * ``iso_same`` / ``iso_distinct`` (degrees 6 and 8): the genus-2/3
      isomorphism oracle on a GL2 pair and on an independent pair.

    The largest degree class holds 7 of the ~51 ops of a round, so the tail
    percentile falls well inside it rather than on a class boundary.
    ``round_s`` is the nominal time of one round, which sizes a run's batch.
    """

    def __init__(self, name, seed, degrees, discs, round_s):
        self.name = name
        self.seed = seed
        self.degrees = degrees
        self.discs = discs
        self.round_s = round_s
        self.setup_code = (
            "import seacurves.forms, seacurves.transvection, seacurves.invariants"
        )

    def round(self, k, sink):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        ops = []
        for i, degree in enumerate(self.degrees):
            disc = self.discs[(k + i) % len(self.discs)]
            tag = f"{self.name}/d{degree}" + (f"/sqrt{disc}" if disc else "")
            # one moebius_act result per round, and the round-0 forms of low
            # degree, go to the sympy oracle
            sample = i == k % len(self.degrees)
            check_disc = k == 0 and degree <= (12 if disc is None else 8)
            ops += self._class_ops(rng, tag, degree, disc, sink, sample, check_disc)
        return ops

    def _class_ops(self, rng, tag, degree, disc, sink, sample, check_disc):
        inv_name, abs_name, excluded, iso_name = _SYSTEMS[_kind(degree)]
        f = random_form(rng, degree, disc)
        state = {}

        def base():
            state["vec"] = _call(inv_name, f)
            if check_disc:
                sink.defer(f"{tag}/base", "check_discriminant", f)
            return True

        ops = [Op(f"{tag}/base", base, (f,))]
        for j in range(UNIMODULAR_PER_FORM):
            M = unimodular_matrix(rng)
            keep = sample and j == 0

            def unimodular(M=M, keep=keep):
                g = forms.moebius_act(M, f)
                if keep:
                    sink.defer(f"{tag}/unimodular", "check_moebius", M, f, g)
                return _call(inv_name, g).scalars() == state["vec"].scalars()

            ops.append(Op(f"{tag}/unimodular", unimodular, (f, M)))

        if abs_name:
            A = invertible_matrix(rng)
            c = rational(rng.randint(1, 7), rng.randint(1, 7))
            ops.append(Op(f"{tag}/gl2", lambda: _same_absolute(
                inv_name, abs_name, excluded, state["vec"], forms.moebius_act(A, f)), (f, A)))
            ops.append(Op(f"{tag}/rescale", lambda: _same_absolute(
                inv_name, abs_name, excluded, state["vec"], f.scale(c)), (f, c)))

        # a second form of the same degree and a fixed order keep the cost of
        # this op steady from form to form, as the tail percentile needs
        g = random_form(rng, degree, disc)
        r = degree // 2
        M = unimodular_matrix(rng)
        if rng.random() < 0.5:
            M = M @ Matrix2(rng.randint(1, 3), 0, 0, rng.randint(1, 3))

        def covariance():
            tv, act = transvection.transvect, forms.moebius_act
            lhs = tv(act(M, f), act(M, g), r)
            rhs = act(M, tv(f, g, r)).scale(M.det() ** r)
            return lhs == rhs

        ops.append(Op(f"{tag}/covariance", covariance, (f, g, r, M)))

        if iso_name:
            B = invertible_matrix(rng)
            h = random_form(rng, degree, disc)

            def inconclusive(label, *pair):
                def check(value):
                    if isinstance(value, InconclusiveError) and iso_name == "genus2_isomorphic":
                        # the genus-2 criterion refuses non-squarefree sextics;
                        # sympy must agree that one of the pair is one
                        sink.defer(label, "check_some_not_squarefree", pair)
                        return None
                    return _expect_true(value)
                return check

            ops.append(Op(f"{tag}/iso_same",
                          lambda: _call(iso_name, f, forms.moebius_act(B, f)), (f, B),
                          inconclusive(f"{tag}/iso_same", f), (InconclusiveError,)))
            ops.append(Op(f"{tag}/iso_distinct",
                          lambda: not _call(iso_name, f, h), (f, h),
                          inconclusive(f"{tag}/iso_distinct", f, h), (InconclusiveError,)))
        return ops

    def scalar_pool(self):
        """Coefficients of the covariants of one degree-16 form of this workload."""
        rng = random.Random(f"{self.name}:{self.seed}:scalars")
        f = random_form(rng, 16, self.discs[0])
        vec = _call("general_invariants", f)
        return [c for cov in vec.covariants.values() for c in cov.coeffs if not c.is_zero]


# -- catalog_cli ------------------------------------------------------------------

PART = 3        # catalog_cli round k takes every 3rd fixed call and row from k % 3
G10_CALLS = 7   # inclusions --genus 10 calls per catalog_cli round


def run_cli(argv):
    """In-process ``seacurves`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_CRITERION8_FIXTURES = (
    ("sextic", "1,0,0,0,0,0,1"),
    ("sextic", "-1,0,0,0,0,0,1"),
    ("octavic", ",".join(["1"] + ["0"] * 7 + ["1"])),
    ("decimic", ",".join(["1"] + ["0"] * 9 + ["1"])),
    ("general", ",".join(["1"] + ["0"] * 11 + ["1"])),
)


def fixed_argvs():
    """The catalog_cli calls whose stdout is pinned by golden digests."""
    genera = range(10, 4, -1)
    argvs = [["catalog", "inclusions", "--genus", str(g)] for g in genera]
    argvs.append(["catalog", "verify"])
    argvs += [["catalog", "verify", "--genus", str(g)] for g in genera]
    for g in genera:
        argvs.append(["catalog", "list", "--genus", str(g), "--json"])
        argvs.append(["catalog", "list", "--genus", str(g), "--csv"])
    argvs += [["invariants", "--kind", kind, "--coeffs", coeffs]
              for kind, coeffs in _CRITERION8_FIXTURES]
    argvs += [
        ["genus", "-n", "2", "--poly", "x^11+1"],
        ["genus", "-n", "3", "--poly", "x^4 + 2*sqrt(-3)*x^2 + 1"],
        ["genus", "-n", "5", "--poly", "1,0,0,1"],
        ["transvect", "--f", "x^2", "--g", "1,0,0", "-r", "2"],
        ["transvect", "--f", "1,-2,3,5", "--g", "x^3+1", "-r", "2"],
        ["transvect", "--f", "x^4 + 2*sqrt(-3)*x^2 + 1", "--g", "1,0,1", "-r", "1"],
    ]
    return argvs


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(e["argv"]): (e["exit"], e["sha256"]) for e in json.load(fh)}


def table_rows():
    """Templated catalog rows read straight from the dataset file:
    (id, genus, equation, parameter names)."""
    rows = []
    with open(TABLE, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            eq = doc.get("equation")
            if eq:
                rows.append((doc["id"], doc["genus"], eq, _param_names(eq)))
    return rows


def _param_names(equation):
    names = {int(n) for n in re.findall(r"\ba(\d+)\b", equation)}
    for lo, hi in re.findall(r"sum\(i=(\d+)\.\.(\d+)", equation):
        names.update(range(int(lo), int(hi) + 1))
    return [f"a{n}" for n in sorted(names)]


def _template_degree(equation):
    """Upper bound on the degree, used only to deal heavy rows evenly."""
    return sum(int(e) for e in re.findall(r"x\^(\d+)", equation))


class CatalogCliWorkload:
    """Round k = a third of the fixed argvs (golden stdout), ``catalog
    specialize`` of a third of the templated rows, each at fresh seeded
    rational parameters, and G10_CALLS calls of ``catalog inclusions --genus
    10``; any 3 consecutive rounds cover every fixed call and every row.
    Rows are taken in degree order, so each round gets its share of the
    degree-21 to 24 rows.  Small parameter values make some draws collide (a
    repeated factor), which the program must reject with a typed error and
    sympy must confirm.

    ``inclusions --genus 10`` is the slowest call (symbolic() is recomputed
    for every pair of rows).  Repeating it, with identical stdout required
    each time, gives a run of 3 rounds 21 such calls among ~270 ops, so the
    tail percentile, which leaves ten samples beyond it, falls in the middle
    of that one class rather than on the edge between two."""

    round_s = 6.5

    def __init__(self, seed):
        self.name = "catalog_cli"
        self.seed = seed
        self.setup_code = (
            "import seacurves.cli\n"
            "from seacurves.catalog import load_catalog\n"
            "load_catalog()"
        )
        self.golden = load_golden()
        self.rows = sorted(table_rows(), key=lambda r: (-_template_degree(r[2]), r[0]))
        self.fixed = fixed_argvs()

    def _round_rows(self, k):
        """(row, parameter assignment) pairs of round k."""
        rng = random.Random(f"catalog_cli:{self.seed}:{k}")
        return [
            (row, ",".join(f"{name}={rng.randint(-4, 4)}/{rng.choice((1, 1, 2, 3))}"
                           for name in row[3]))
            for row in self.rows[k % PART::PART]
        ]

    def round(self, k, sink):
        g10 = ["catalog", "inclusions", "--genus", "10"]
        ops = [self._fixed_op(argv) for argv in self.fixed[k % PART::PART] + [g10] * G10_CALLS]
        ops += [self._specialize_op(row, params, sink) for row, params in self._round_rows(k)]
        return ops

    def _fixed_op(self, argv):
        expected = self.golden.get(tuple(argv))

        def check(value):
            if expected is None:
                return "no golden digest recorded"
            code, out, _ = value
            got = (code, digest(out))
            return None if got == expected else f"exit/digest {got} != golden {expected}"

        return Op("catalog_cli/" + " ".join(argv[:2]), lambda: run_cli(argv), argv, check)

    def _specialize_op(self, row, params, sink):
        row_id, genus, equation, _ = row
        label = f"catalog_cli/specialize/{row_id}"

        def check(value):
            code, out, err = value
            if code not in (0, 2):
                return f"exit {code}: {err.strip()}"
            sink.defer(label, "check_specialize", equation, params, genus, code, out, err)
            return None

        argv = ["catalog", "specialize", "--id", row_id, "--params", params]
        return Op(label, lambda: run_cli(argv), argv, check)

    def scalar_pool(self):
        """Coefficients of this workload's fixture covariants and of a few
        specialised rows."""
        pool = []
        for kind, coeffs in _CRITERION8_FIXTURES:
            form = BinaryForm(coeffs.count(","), [int(c) for c in coeffs.split(",")])
            vec = _call(_SYSTEMS[kind][0], form)
            pool += [c for cov in vec.covariants.values() for c in cov.coeffs]
        for row, params in self._round_rows(0)[::4]:
            code, out, _ = run_cli(["catalog", "specialize", "--id", row[0], "--params", params])
            if code == 0:
                pool += parse_poly_string(json.loads(out)["f"]).coeffs
        return [c for c in pool if not c.is_zero]


def make(name, seed):
    if name == "gate":
        return InvarianceWorkload("gate", seed, (6, 8, 10, 12, 14, 16, 22), (None,), 1.25)
    if name == "sqrt_ext":
        return InvarianceWorkload("sqrt_ext", seed, (6, 8, 10, 12, 14, 16), (-3, 5), 2.3)
    if name == "catalog_cli":
        return CatalogCliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("gate", "sqrt_ext", "catalog_cli")
