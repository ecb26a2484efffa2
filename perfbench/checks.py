"""Output checks for the benchmark workloads.

`observe` reads what an experiment wrote (manifest and data files) into plain
values; `check` compares them with caps that hold at any seed and, where the
output depends on the seed, with `reference.json` at the reference seed only.
No check reads the manifest timestamps or any other wall-clock field.

Tolerance. Reference values must agree to 1e-8 relative, the gate ROADMAP
item 2 sets for the spectral acceptance lines, plus 1e-12 absolute so that
rounding-level constants (such as the invariant-plane defect, ~6e-14 against
a 1e-9 threshold) are held to "still rounding-level" rather than to their
last digits. Step counts must match exactly.

Record the references again (only when the program's numbers change on
purpose) with `python3 perfbench/checks.py record`.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

from plans import SEEDED, WORKLOADS

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-8
ABS_TOL = 1e-12
BC_RESIDUAL_CAP = 1e-8
# Mass errors sit at rounding level (~1e-12 at the seed); the build itself
# accepts up to MASS_RTOL = 1e-10 relative of a total mass of ~14.
MASS_ERROR_CAP = 1e-10


def _manifest(out):
    with open(Path(out) / "manifest.json") as fh:
        return json.load(fh)["summary"]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _last_positions(path):
    last = _csv_rows(path)[-1]
    return [float(v) for k, v in last.items() if k.startswith("p_")]


def observe(experiment, out):
    """The checked values of one experiment's outputs, as plain JSON data."""
    summary = _manifest(out)
    obs = {"pass": bool(summary["pass"])}
    out = Path(out)
    if experiment == "spectrum":
        obs["rows"] = [
            [float(v) for k, v in row.items() if k != "pass"]
            for row in _csv_rows(out / "spectrum.csv")
        ]
    elif experiment == "diagnose":
        with open(out / "diagnostics.json") as fh:
            records = json.load(fh)
        obs["records"] = [
            [r["hypothesis"], r["config_id"], r["constant"], bool(r["pass"])]
            for r in records
        ]
    elif experiment == "simulate":
        obs["steps"] = summary["steps"]
        obs["mass_drift"] = summary["mass_drift"]
        obs["final_positions"] = _last_positions(out / "trajectory.csv")
    elif experiment == "compare":
        obs["records"] = len(_csv_rows(out / "pde_trajectory.csv"))
        obs["final_positions"] = _last_positions(out / "pde_trajectory.csv")
    elif experiment == "profile":
        obs["summary"] = {k: v for k, v in summary.items() if k != "pass"}
    elif experiment == "ansatz":
        obs["max_bc_residual"] = summary["max_bc_residual"]
        obs["max_mass_error"] = summary["max_mass_error"]
    elif experiment == "reduce":
        obs["t_exit"] = summary["t_exit"]
    elif experiment == "invariance":
        obs["defects"] = summary["defects"]
        obs["threshold"] = summary["threshold"]
    return obs


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_close(a[k], b[k]) for k in a))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * abs(b) + ABS_TOL


def _caps(experiment, obs):
    """Failures of the checks that hold at every seed."""
    bad = []
    if not obs["pass"]:
        bad.append("manifest pass flag is false")
    if experiment == "diagnose":
        bad += [f"hypothesis {h} (config {c}) failed"
                for h, c, _, ok in obs["records"] if not ok]
    elif experiment == "simulate" and not obs["mass_drift"] < 1e-9:
        bad.append(f"mass drift {obs['mass_drift']:.3g} >= 1e-9")
    elif experiment == "ansatz":
        if not obs["max_bc_residual"] <= BC_RESIDUAL_CAP:
            bad.append(f"max_bc_residual {obs['max_bc_residual']:.3g} "
                       f"> {BC_RESIDUAL_CAP:g}")
        if not obs["max_mass_error"] <= MASS_ERROR_CAP:
            bad.append(f"max_mass_error {obs['max_mass_error']:.3g} "
                       f"> {MASS_ERROR_CAP:g}")
    elif experiment == "invariance":
        bad += [f"invariance defect {d:.3g} at s = {s} >= threshold"
                for s, d in obs["defects"].items() if not d < obs["threshold"]]
    return bad


def _against_reference(obs, ref):
    bad = []
    for key, want in ref.items():
        if key == "pass":
            continue
        got = obs.get(key)
        if key == "steps":
            same = got == want
        else:
            same = _close(got, want)
        if not same:
            bad.append(f"{key} differs from the reference: {got!r} vs {want!r}")
    return bad


def check(workload, seed, index, obs, reference, preset="desk"):
    """Failure messages for call `index` of a workload run; empty when correct."""
    experiment = WORKLOADS[workload][index][0]
    bad = _caps(experiment, obs)
    if preset != "desk":
        return bad
    if seed == REFERENCE_SEED or experiment not in SEEDED:
        bad += _against_reference(obs, reference[workload][index])
    return bad


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def record():
    """Run every workload once at the reference seed and store its outputs."""
    import tempfile

    from plans import child_env

    here = Path(__file__).resolve().parent
    env = child_env(here.parent)
    reference = {}
    with tempfile.TemporaryDirectory(dir=here.parent) as tmp:
        for workload in WORKLOADS:
            result = Path(tmp) / f"{workload}.json"
            subprocess.run(
                [sys.executable, str(here / "child.py"), "workload",
                 "--workload", workload, "--seed", str(REFERENCE_SEED),
                 "--out", str(Path(tmp) / workload), "--result", str(result)],
                check=True, env=env,
            )
            with open(result) as fh:
                calls = json.load(fh)["calls"]
            bad = [c["error"] for c in calls if c["error"] is not None]
            if bad:
                raise SystemExit("\n".join(bad))
            reference[workload] = [c["observed"] for c in calls]
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: python3 perfbench/checks.py record")
    record()
