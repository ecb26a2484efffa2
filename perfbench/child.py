"""One fresh benchmark process: a set-up probe or one workload run.

    python3 perfbench/child.py setup --workload W --seed N --preset P --result F
    python3 perfbench/child.py workload --workload W --seed N --preset P \
        --out DIR --result F [--trace]

`run.py` starts these with the package source on PYTHONPATH and the BLAS
thread count pinned. Each writes one JSON document to `--result`.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

from plans import PRESETS, WORKLOADS, configs

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "workload"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    parser.add_argument("--out", default=None)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def _check_source(package):
    """Refuse to measure an installed copy instead of this checkout's source."""
    origin = Path(package.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"fchpulse imported from {origin}, not {ROOT / 'src'}")


def setup(args):
    """Seconds to import fchpulse and build the first config's Laboratory."""
    _, doc = next(configs(args.workload, args.seed, args.preset, "unused"))
    start = time.perf_counter()
    import fchpulse
    from fchpulse.harness import ExperimentConfig, Laboratory

    Laboratory.from_config(ExperimentConfig(**doc))
    seconds = time.perf_counter() - start
    _check_source(fchpulse)
    return {"setup_s": seconds}


def _versions():
    import numpy
    import scipy
    import sympy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "blas": blas}


def workload(args):
    """Run the workload's experiments in order; time, observe, and trace."""
    import fchpulse
    import fchpulse.harness as harness

    from calibrate import FOOTPRINT_MIB, SpeedSampler
    from checks import observe
    from tracer import Tracer

    _check_source(fchpulse)
    tracer = Tracer()
    if args.trace:
        tracer.install(fchpulse)
    plan = [(exp, harness.ExperimentConfig(**doc)) for exp, doc in
            configs(args.workload, args.seed, args.preset, args.out)]

    calls = []
    for experiment, config in plan:
        error = None
        with SpeedSampler() as sampler:
            try:
                harness.run_experiment(config)
            except Exception:
                # Recorded and counted as a failed call; the run goes on.
                error = traceback.format_exc()
        calls.append({"experiment": experiment, "error": error,
                      "seconds": sampler.raw_s, "scaled_s": sampler.scaled_s,
                      "kernel_s": sampler.kernel_s})
    peak_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                - FOOTPRINT_MIB)

    for call, (experiment, config) in zip(calls, plan):
        if call["error"] is None:
            try:
                call["observed"] = observe(experiment, config.output_dir)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                call["error"] = f"unreadable output: {exc!r}"
    out_bytes = sum(p.stat().st_size for p in Path(args.out).rglob("*")
                    if p.is_file())
    doc = {"wall_s": sum(c["scaled_s"] for c in calls),
           "raw_wall_s": sum(c["seconds"] for c in calls),
           "peak_rss_mb": peak_mib, "calls": calls,
           "output_bytes": out_bytes, "versions": _versions()}
    if args.trace:
        doc["layers"] = tracer.span_metrics()
        doc["missing_spans"] = tracer.missing()
        tracer.write_spans(Path(args.result).with_suffix(".spans.csv.gz"))
    return doc


def main(argv=None):
    args = _parse(argv)
    doc = setup(args) if args.mode == "setup" else workload(args)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
