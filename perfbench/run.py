"""fchpulse benchmark: three desk-preset workloads, end to end and per layer.

    python3 perfbench/run.py --workload desk-flow --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/` of that
checkout. Every measurement happens in a fresh Python process with the BLAS
thread count pinned (see plans.py). `wall_s` is in reference seconds: raw
seconds scaled by the machine speed sampled during the measurement (see
calibrate.py); the raw seconds are kept in the results file.

* `setup_s`: median over SETUP_RUNS processes that each import fchpulse and
  build the workload's first Laboratory.
* `wall_s`, `peak_rss_mb`: median over workload processes, repeated while the
  next one is expected to fit in `--seconds` (at least one). `wall_s` is the
  sum of the experiments' times.
* `ok_frac`: experiment calls that neither raised nor failed an output check,
  over calls attempted.
* `--trace 1` adds one traced workload process and reports the per-layer
  metrics of tracer.py instead.

The last line of standard output is the result JSON; the line before it is
the machine record. Both, with every per-run value, are also written to
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check, load_reference
from plans import PRESETS, THREADS, WORKLOADS, child_env
from tracer import EXPERIMENTS, SOURCE_FILES, lines_metric, per_layer_spec

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SOURCE = ROOT / "src" / "fchpulse"
SETUP_RUNS = 3
# Every child must end before this many seconds after the start, so the
# whole run stays inside the 180 s a run is allowed.
DEADLINE_S = 170.0


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk",
                        help="testbed runs every path in seconds (self-test)")
    return parser.parse_args(argv)


class Runner:
    """Starts child processes and stops each one by the run's deadline."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.env = child_env(ROOT)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def child(self, mode, result, *extra):
        """Run child.py; return its result document, or None if it failed."""
        self.count += 1
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--preset", self.args.preset, "--result", str(result), *extra]
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            print(f"{mode} process stopped at the {DEADLINE_S:g} s deadline",
                  file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        with open(result) as fh:
            return json.load(fh)

    def workload(self, result, trace=False):
        out = self.work / f"out-{self.count}"
        doc = self.child("workload", result, "--out", str(out),
                         *(["--trace"] if trace else []))
        shutil.rmtree(out, ignore_errors=True)
        return doc


def _failures(args, doc, reference):
    """(attempted, failure messages) for one workload process."""
    plan = WORKLOADS[args.workload]
    if doc is None:
        return len(plan), ["workload process failed"] * len(plan)
    bad = []
    for index, call in enumerate(doc["calls"]):
        if call["error"] is not None:
            bad.append(f"{call['experiment']}: {call['error']}")
            continue
        msgs = check(args.workload, args.seed, index, call["observed"],
                     reference, args.preset)
        if msgs:
            bad.append(f"{call['experiment']}: " + "; ".join(msgs))
    return len(plan), bad


def _source_lines():
    lines = {}
    for module in SOURCE_FILES:
        with open(SOURCE / f"{module}.py") as fh:
            lines[lines_metric(module)] = sum(1 for ln in fh if ln.strip())
    lines["src.lines"] = sum(lines.values())
    return lines


def _machine(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            **(versions or {}), "threads": THREADS, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def _value(value, unit):
    return {"value": value, "unit": unit}


def _median(values):
    """Median, or 0 when every process failed (the result is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = _parse(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"no fchpulse source under {SOURCE}", file=sys.stderr)
        return 2
    reference = load_reference()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_out" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, work)
    try:
        setup_docs = []
        if not args.trace:
            for i in range(SETUP_RUNS):
                doc = runner.child("setup", work / f"setup-{i}.json")
                if doc is not None:
                    setup_docs.append(doc)
        setups = [d["setup_s"] for d in setup_docs]

        # Repeat while the next run is expected to fit in --seconds. A traced
        # run needs only one untraced run, as the base of its overhead.
        runs, spent = [], 0.0
        while True:
            t0 = time.monotonic()
            runs.append(runner.workload(work / f"run-{len(runs)}.json"))
            spent += time.monotonic() - t0
            if (args.trace or runs[-1] is None
                    or spent * (len(runs) + 1) / len(runs) > args.seconds):
                break
        traced = None
        if args.trace:
            traced = runner.workload(results / f"{stem}.trace.json", trace=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures = 0, []
    for doc in runs + ([traced] if args.trace else []):
        n, bad = _failures(args, doc, reference)
        attempted += n
        failures += bad
    ok = [d for d in runs if d is not None]
    complete = (len(setups) == SETUP_RUNS) if not args.trace else traced is not None
    correct = not failures and complete

    if not args.trace:
        metrics = {
            "wall_s": _value(_median(d["wall_s"] for d in ok), "s"),
            "setup_s": _value(_median(setups), "s"),
            "peak_rss_mb": _value(_median(d["peak_rss_mb"] for d in ok), "MiB"),
            "ok_frac": _value(1.0 - len(failures) / attempted, "ratio"),
        }
    else:
        layers = dict(traced["layers"]) if traced else {}
        for experiment in EXPERIMENTS:
            layers[f"harness.{experiment}.s"] = sum(
                c["seconds"] for c in (traced or {}).get("calls", [])
                if c["experiment"] == experiment
            )
        layers["harness.output_bytes"] = traced["output_bytes"] if traced else 0
        base = _median(d["wall_s"] for d in ok)
        layers["trace.overhead_frac"] = (
            traced["wall_s"] / base - 1.0 if traced and base else 0.0
        )
        layers.update(_source_lines())
        metrics = {name: _value(layers.get(name, 0.0), unit)
                   for name, unit, _ in per_layer_spec()}

    versions = next((d["versions"] for d in ok), None)
    machine = _machine(versions)
    summary = {"correct": correct, "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "preset": args.preset, "machine": machine,
              "setup_runs": setup_docs,
              "workload_runs": [
                  None if d is None else {k: d[k] for k in
                                          ("wall_s", "raw_wall_s",
                                           "peak_rss_mb", "calls")}
                  for d in runs
              ],
              "failures": failures,
              "missing_spans": traced.get("missing_spans", []) if traced else [],
              "result": summary}
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for msg in failures:
        print(f"failure: {msg}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
