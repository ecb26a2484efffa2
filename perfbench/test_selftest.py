"""Self-test of the benchmark at the reduced testbed preset.

    python3 -m pytest -q perfbench

Runs every workload path (untraced and traced) through `run.py`, checks the
result line and the results writer against BENCHMARK.json, and checks that
the command refuses to run without the package source.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from plans import WORKLOADS  # noqa: E402
from tracer import Tracer, per_layer_spec, percentile_ms  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--preset", "testbed"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == per_layer_spec()
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    machine, result = (json.loads(ln) for ln in
                       proc.stdout.strip().splitlines()[-2:])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] == 2 * len(
        WORKLOADS[workload])
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert result["metrics"]["src.lines"]["value"] > 0
    assert {"cpu", "nproc", "python", "numpy", "scipy", "sympy", "blas",
            "threads", "git_commit"} <= set(machine["machine"])
    stem = ROOT / ".bench_out" / "results" / f"{workload}-seed5-trace1"
    written = json.loads(stem.with_suffix(".json").read_text())
    assert written["result"] == result and written["missing_spans"] == []
    assert Path(f"{stem}.trace.spans.csv.gz").is_file()


def test_untraced_run_reports_end_to_end_metrics():
    proc = _run("desk-flow", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("desk-flow", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_span_self_time_and_percentiles():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))
    outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
    outer()
    metrics = tracer.span_metrics()
    (o,) = [s for s in tracer.spans if tracer.names[s[0]] == "outer"]
    leaves = [s for s in tracer.spans if tracer.names[s[0]] == "leaf"]
    assert [s[3] for s in leaves] == [tracer.spans.index(o)] * 2
    child = sum(s[2] - s[1] for s in leaves)
    assert 0.0 <= (o[2] - o[1]) - child < 0.002
    assert metrics["core.dct.calls"] == 0
    assert percentile_ms([0.001] * 19, 50) == 0.0
    assert percentile_ms([0.001] * 20, 50) == pytest.approx(1.0)
    assert percentile_ms([0.001] * 999, 99) == 0.0
