"""Self-test of the benchmark (about a minute):

    python3 -m pytest -q bench/test_bench.py

Short runs of every workload must emit exactly the metrics BENCHMARK.json
names, with no failed op at the default seed; another seed must change the
inputs but not the metric names; and without the sources the benchmark must
refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1


def run(workload, seed, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_without_failures(workload, trace):
    result = result_of(run(workload, DEFAULT_SEED, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], result
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def _round_inputs(workload, seed):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return [repr(op.inputs) for op in workloads.make(workload, seed).round(0, workloads.Sink())]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_metric_names(workload):
    assert _round_inputs(workload, DEFAULT_SEED) != _round_inputs(workload, DEFAULT_SEED + 1)
    assert _round_inputs(workload, DEFAULT_SEED) == _round_inputs(workload, DEFAULT_SEED)
    if workload == WORKLOADS[0]:
        names = set(result_of(run(workload, DEFAULT_SEED + 1, 0))["metrics"])
        assert names == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], DEFAULT_SEED, 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
