"""seacurves benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload gate --seed 1 --seconds 20 --trace 0

Runs against the package in this checkout's ``src/`` (never an installed
copy), checks every op's result, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  A result
file with the environment (rational backend, Python, nproc, seed, commit)
goes to ``bench/results/``.  Workloads and metrics are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

OP_DEADLINE_S = 10.0   # an op running longer is recorded as failed
# The machine this benchmark was defined on changes speed by up to 2x for
# seconds to minutes at a time (shared cores), far more than any bound.  So
# every timed op is bracketed by a fixed reference kernel, and its time is
# scaled to a machine on which that kernel takes REF_NOMINAL_S; raw wall
# times go to the result file as well.
REF_NOMINAL_S = 1.0e-3
SETUP_SPAWNS = 9       # child interpreters timed for setup_s (after one warm-up)
TAIL_SAMPLES = 10      # samples the tail percentile must leave beyond it
WALL_CAP = 3           # a run on a very slow machine stops after this many times --seconds


class DeadlineExceeded(BaseException):
    """Raised into an overrunning op; not an Exception, so the program's own
    handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(op, fn=None):
    """Run one op (``fn`` in place of ``op.fn`` if given) under the deadline:
    (seconds, failure reason or None)."""
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    t0 = perf_counter()
    try:
        value = (fn or op.fn)()
        dt = perf_counter() - t0
    except DeadlineExceeded:
        return perf_counter() - t0, f"overran its {OP_DEADLINE_S:g} s deadline"
    except op.typed as exc:
        dt = perf_counter() - t0
        value = exc
    except Exception as exc:
        return perf_counter() - t0, f"untyped {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, op.check(value)


class SpeedReference:
    """A fixed, program-independent kernel of exact rational arithmetic (a
    16x16 convolution of ~100-bit fractions, the shape of a transvectant's
    inner loop) whose run time tracks the machine's current speed."""

    def __init__(self):
        rng = random.Random(0)
        self.left, self.right = ([Fraction(rng.getrandbits(96) - 2 ** 95, rng.getrandbits(32) + 1)
                                  for _ in range(16)] for _ in range(2))
        self.times = []

    def sample(self):
        t0 = perf_counter()
        acc = [0] * 31
        for i, a in enumerate(self.left):
            for j, b in enumerate(self.right):
                acc[i + j] += a * b
        self.times.append(perf_counter() - t0)

    def scaled(self, latencies):
        """Scale op i by the median of the four reference samples nearest to
        it (samples i and i+1 bracket it); the median ignores a sample hit
        by an interrupt."""
        r = self.times
        return [dt * REF_NOMINAL_S / statistics.median(r[max(0, i - 1):i + 3])
                for i, dt in enumerate(latencies)]


class Tally:
    def __init__(self):
        self.latencies = []
        self.failures = []

    def record(self, op, dt, reason):
        self.latencies.append(dt)
        if reason is not None:
            self.failures.append((op.label, f"{reason} | inputs {op.inputs!r}"[:1000]))


def run_oracle(sink, tally):
    """sympy re-checks queued during the run; a disagreement fails its op."""
    import oracle

    for label, name, args in sink.deferred:
        try:
            reason = getattr(oracle, name)(*args)
        except Exception as exc:  # an oracle that cannot decide fails the op too
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            tally.failures.append((label, "oracle: " + reason))
    return len(sink.deferred)


def measure_setup(code, speed):
    """Median time for a fresh interpreter to run ``code`` and say ready,
    scaled by the speed reference sampled around each spawn."""
    env = dict(os.environ)
    env.pop("SEA_CATALOG", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = code + "\nimport sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for i in range(SETUP_SPAWNS + 1):
        if i:
            speed.sample()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              env=env, cwd=str(ROOT)) as child:
            line = child.stdout.readline()
            ready = perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line != b"ready\n":
                raise RuntimeError(f"setup child failed: {line!r}")
        if i:  # the first spawn only warms the bytecode and file caches
            times.append(ready)
    speed.sample()
    return statistics.median(times), statistics.median(speed.scaled(times))


def tail_percentile(n):
    """The highest percentile, at most 99, with TAIL_SAMPLES samples beyond it."""
    return max(0.5, min(0.99, 1 - TAIL_SAMPLES / n))


def quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def batch_rounds(workload, seconds):
    """Rounds in a run's fixed batch: about ``seconds`` of work on the machine
    the workload's nominal round time was measured on.  The batch, hence the
    op count, the mix and the rank of the tail sample, depends only on the
    arguments, never on how fast this particular run happens to go."""
    return max(1, round(seconds / workload.round_s))


def run_untraced(workload, seconds):
    """The fixed batch, stopped early only past WALL_CAP times ``seconds``."""
    import workloads

    tally, sink, speed = Tally(), workloads.Sink(), SpeedReference()
    setup_raw, setup_s = measure_setup(workload.setup_code, speed)
    speed.times.clear()
    gc.collect()
    end = perf_counter() + WALL_CAP * seconds
    rounds = 0
    speed.sample()
    while rounds < batch_rounds(workload, seconds) and perf_counter() < end:
        for op in workload.round(rounds, sink):
            tally.record(op, *execute(op))
            speed.sample()
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = run_oracle(sink, tally)
    raw = tally.latencies
    q = tail_percentile(len(raw))
    timings = {}
    for kind, lat, setup in (("raw", raw, setup_raw), ("scaled", speed.scaled(raw), setup_s)):
        timings[kind] = {
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_ms_p50": (quantile(lat, 0.5) * 1e3, "ms"),
            "op_ms_p99": (quantile(lat, q) * 1e3, "ms"),
            "setup_s": (setup, "s"),
        }
    metrics = {
        **timings["scaled"],
        "ok_frac": (1 - len(tally.failures) / len(raw), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"rounds": rounds, "ops": len(raw), "tail_percentile": q,
            "oracle_checks": checked,
            "raw_wall": {k: v for k, (v, _) in timings["raw"].items()},
            "reference_ms": {"median": statistics.median(speed.times) * 1e3,
                             "min": min(speed.times) * 1e3,
                             "max": max(speed.times) * 1e3}}
    return tally, metrics, info


def run_traced(workload, seconds):
    """A fixed list of rounds whose every op runs once untraced and once
    traced, in alternating order, so counts repeat exactly for a seed and the
    overhead compares identical work under the same machine conditions."""
    import spans
    import workloads

    # each op runs twice, and tracing adds a little
    rounds = max(1, round(seconds / (2.5 * workload.round_s)))
    tally, sink = Tally(), workloads.Sink()
    tracer = spans.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    gc.collect()
    for k in range(rounds):
        for i, op in enumerate(workload.round(k, sink)):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    dt, reason = execute(op, tracer.wrap("op", op.fn) if traced else None)
                finally:
                    tracer.uninstall()
                tally.record(op, dt, reason)
                elapsed[traced] += dt
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace_overhead_frac"] = elapsed[True] / elapsed[False] - 1
    metrics.update(spans.scalar_microbench(workload.scalar_pool()))
    checked = run_oracle(sink, tally)
    info = {"rounds": rounds, "ops": len(tally.latencies), "oracle_checks": checked,
            "spans": len(tracer.spans)}
    return tally, {k: (v, _unit(k)) for k, v in metrics.items()}, info, tracer.spans


def _unit(name):
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def environment(seed):
    import seacurves.scalars as scalars

    backend = scalars._RAT
    digest = hashlib.sha256()
    for path in sorted((SRC / "seacurves").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gate", "sqrt_ext", "catalog_cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "seacurves" / "__init__.py").is_file():
        print(f"error: no seacurves sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SEA_CATALOG", None)  # golden digests are of the embedded table
    import seacurves

    if Path(seacurves.__file__).resolve().parent != (SRC / "seacurves").resolve():
        print(f"error: imported seacurves from {seacurves.__file__}", file=sys.stderr)
        return 2
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    workload = workloads.make(args.workload, args.seed)
    span_list = None
    if args.trace:
        tally, metrics, info, span_list = run_traced(workload, args.seconds)
    else:
        tally, metrics, info = run_untraced(workload, args.seconds)

    attempted = len(tally.latencies)
    result = {
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "info": info,
              "failures": tally.failures[:50], **result}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if span_list is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for rec in span_list:
                fh.write(json.dumps(rec) + "\n")

    for label, reason in tally.failures[:10]:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({"environment": record["environment"], "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
