"""Span tracing from outside the program, and the per-layer metrics.

:func:`install` wraps each layer's public functions at every name a
seacurves module binds them under (``seacurves.invariants.transvect`` as well
as ``seacurves.transvection.transvect``), plus two template methods.  Each
call records a span ``[name, start, end, parent, attr]`` in memory; a span's
self time is its duration minus the time its child spans cover.  ``attr``
holds what a layer metric needs from the call: the operand degree and result
coefficient size of a transvectant, the exception type of a rejection, a
CLI exit code.  It is computed after the span has closed.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, span name); the span name's first component is the layer
FUNCTIONS = (
    ("seacurves.transvection", "transvect", "transvection"),
    ("seacurves.forms", "moebius_act", "forms.moebius_act"),
    ("seacurves.forms", "discriminant", "forms.discriminant"),
    ("seacurves.invariants", "sextic_invariants", "invariants.sextic"),
    ("seacurves.invariants", "octavic_invariants", "invariants.octavic"),
    ("seacurves.invariants", "decimic_invariants", "invariants.decimic"),
    ("seacurves.invariants", "general_invariants", "invariants.general"),
    ("seacurves.invariants", "genus10_special", "invariants.general"),
    ("seacurves.invariants", "sextic_absolute", "invariants.absolute"),
    ("seacurves.invariants", "octavic_absolute", "invariants.absolute"),
    ("seacurves.invariants", "general_absolute", "invariants.absolute"),
    ("seacurves.invariants", "genus2_isomorphic", "invariants.isomorphic"),
    ("seacurves.invariants", "genus3_isomorphic", "invariants.isomorphic"),
    ("seacurves.invariants", "form_is_squarefree", "invariants.isomorphic"),
    ("seacurves.curves", "make_curve", "curves.make_curve"),
    ("seacurves.catalog", "load_catalog", "catalog.load"),
    ("seacurves.catalog", "verify_all", "catalog.verify"),
    ("seacurves.catalog", "inclusions", "catalog.inclusions"),
    ("seacurves.catalog", "specialize", "catalog.specialize"),
    ("seacurves.catalog", "export_csv", "catalog.export"),
    ("seacurves.cli", "main", "cli"),
)
METHODS = (
    ("seacurves.catalog.templates", "EquationTemplate", "expand", "catalog.templates.expand"),
    ("seacurves.catalog.templates", "EquationTemplate", "symbolic", "catalog.templates.symbolic"),
)
INVARIANT_SYSTEMS = ("sextic", "octavic", "decimic", "general", "absolute", "isomorphic")
DEGREE_BUCKETS = (("deg_le8", 8), ("deg10_12", 12), ("deg14_16", 16), ("deg18_22", None))
EXIT_CODES = (0, 1, 2, 3)


def _coeff_bits(form):
    bits = 0
    for c in form.coeffs:
        for q in (c.a, c.b):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _transvect_attr(args, result):
    return max(args[0].degree, args[1].degree), _coeff_bits(result)


_AFTER = {"transvection": _transvect_attr, "cli": lambda args, code: code}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                rec[4] = exc.code if isinstance(exc, SystemExit) else type(exc).__name__
                raise
            rec[2] = perf_counter()
            stack.pop()
            if after is not None:
                rec[4] = after(args, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seacurves" or n.startswith("seacurves."))]
        targets = []
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original)
            targets += [(mod, key, original, wrapper)
                        for mod in modules for key, value in vars(mod).items()
                        if value is original]
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            targets.append((cls, attr, original, self.wrap(name, original)))
        return targets

    def install(self):
        if self._patched is None:
            self._patched = self._targets()
        for owner, key, _, wrapper in self._patched:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patched or ():
            setattr(owner, key, original)


def _bucket(degree):
    for label, top in DEGREE_BUCKETS[:-1]:
        if degree <= top:
            return label
    return DEGREE_BUCKETS[-1][0]


def layer_metrics(spans, op_name="op"):
    """Per-layer counts and self times (seconds) from one traced run."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {
        "transvection.calls": 0,
        "transvection.coeff_bits_max": 0,
        "curves.rejected": 0,
        "catalog.load_s": 0.0,
        "catalog.templates.symbolic.calls": 0,
        "cli.calls": 0,
        "forms.moebius_act.calls": 0,
        "forms.discriminant.calls": 0,
    }
    for label, _ in DEGREE_BUCKETS:
        out[f"transvection.self_s.{label}"] = 0.0
    for system in INVARIANT_SYSTEMS:
        out[f"invariants.self_s.{system}"] = 0.0
    for code in EXIT_CODES:
        out[f"cli.exit.{code}"] = 0
    self_by_name = {}
    op_total = op_self = 0.0
    for i, (name, t0, t1, _, attr) in enumerate(spans):
        own = (t1 - t0) - child[i]
        if name == op_name:
            op_total += t1 - t0
            op_self += own
            continue
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        if name == "transvection":
            out["transvection.calls"] += 1
            if isinstance(attr, tuple):
                out[f"transvection.self_s.{_bucket(attr[0])}"] += own
                out["transvection.coeff_bits_max"] = max(out["transvection.coeff_bits_max"],
                                                         attr[1])
        elif name.startswith("invariants."):
            out[f"invariants.self_s.{name.split('.', 1)[1]}"] += own
        elif name == "curves.make_curve" and isinstance(attr, str):
            out["curves.rejected"] += 1
        elif name == "catalog.load":
            out["catalog.load_s"] += t1 - t0
        elif name == "catalog.templates.symbolic":
            out["catalog.templates.symbolic.calls"] += 1
        elif name == "cli":
            out["cli.calls"] += 1
            if attr in EXIT_CODES:
                out[f"cli.exit.{attr}"] += 1
        elif name in ("forms.moebius_act", "forms.discriminant"):
            out[f"{name}.calls"] += 1

    for name in ("transvection", "forms.moebius_act", "forms.discriminant",
                 "curves.make_curve", "catalog.verify", "catalog.inclusions",
                 "catalog.specialize", "catalog.templates.expand",
                 "catalog.templates.symbolic", "cli"):
        out[f"{name}.self_s"] = self_by_name.get(name, 0.0)
    for layer in ("forms", "invariants", "curves", "catalog"):
        out[f"{layer}.layer_self_s"] = sum(v for n, v in self_by_name.items()
                                           if n.split(".")[0] == layer)
    out["trace.op_s"] = op_total
    # share of traced op time spent outside every layer span: the harness's
    # own comparisons and Scalar/BinaryForm methods it calls directly
    out["trace.unattributed_frac"] = op_self / op_total if op_total else 0.0
    return out


def scalar_microbench(pool, ops=4000, repeats=5):
    """Median microseconds per ``*`` and ``+`` over fixed pairs from ``pool``,
    split into rational (``q``) and quadratic-extension (``sqrt``) operands.
    A workload whose pool lacks one kind gets it built from the other:
    c + c' * sqrt(-3) from rationals, the rational parts of extension
    elements."""
    from seacurves.scalars import Scalar, sqrt_ext

    q = [c for c in pool if c.disc == 0]
    ext = [c for c in pool if c.disc != 0]
    if not q:
        q = [Scalar(c.a) for c in ext if c.a != 0] or [Scalar(1)]
    if not ext:
        ext = [c + sqrt_ext(q[(i + 1) % len(q)].a, -3) for i, c in enumerate(q)]
    out = {}
    for kind, values in (("q", q), ("sqrt", ext)):
        pairs = [(values[i % len(values)], values[(7 * i + 3) % len(values)])
                 for i in range(ops)]
        for op_name, fn in (("mul", lambda x, y: x * y), ("add", lambda x, y: x + y)):
            times = []
            for _ in range(repeats):
                t0 = perf_counter()
                for x, y in pairs:
                    fn(x, y)
                times.append(perf_counter() - t0)
            times.sort()
            out[f"scalars.{op_name}_us.{kind}"] = times[len(times) // 2] / ops * 1e6
    return out
