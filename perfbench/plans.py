"""Workload plans: which experiments each workload runs, at which preset.

A plan is a list of (experiment, config overrides). The workload seed is
passed to the program only as ``ExperimentConfig.seed``; everything else is
fixed here. NOTES.md explains why each workload was chosen.
"""

import os

WORKLOADS = {
    "desk-diagnose": [
        ("spectrum", {}),
        ("diagnose", {}),
    ],
    "desk-flow": [
        ("simulate", {"s_values": (0.0,), "t_final": 40.0}),
        ("simulate", {"s_values": (1.0,), "t_final": 40.0}),
        ("compare", {}),
    ],
    "desk-manifold": [
        ("profile", {}),
        ("ansatz", {}),
        ("reduce", {}),
        ("invariance", {}),
    ],
}

# The desk preset is the ExperimentConfig defaults (tau = -0.3, epsilon =
# 0.05, L = 160, n = 3, ell = 8, N = 2048 / 1024), so it overrides nothing.
# The testbed preset (L = 32, n = 2, ell = 8, N = 256, short t_final) runs
# every path in seconds; only the self-test uses it. It differs from the
# dynamics testbed of the tests (L = 16, ell = 5) because `diagnose` needs
# tail_scale * rho^3 < 1, which ell = 5 breaks at s = 1.
PRESETS = {
    "desk": {},
    "testbed": {
        "domain_d": 1.6,
        "n_pulses": 2,
        "min_spacing": 8.0,
        "grid_points": 256,
        "diagnostic_grid_points": 256,
        "t_final": 0.5,
        "output_every": 10,
        "sample_size": 2,
    },
}

# Experiments that run at the workload seed's Latin-hypercube sample; every
# other experiment produces the same output at every seed.
SEEDED = {"spectrum", "diagnose", "ansatz"}

# One fixed BLAS/OpenMP thread count for every process the benchmark starts.
# On the seed, 2 threads do not speed up `diagnose` over 1, and 1 thread
# leaves the second core to other load, which keeps timings steadier.
THREADS = 1

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env(root):
    """Environment for benchmark processes: this checkout's source, pinned threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.update((name, str(THREADS)) for name in THREAD_VARIABLES)
    return env


def configs(workload, seed, preset, out_dir):
    """Yield (experiment, config keyword arguments) for one workload run."""
    for i, (experiment, overrides) in enumerate(WORKLOADS[workload]):
        doc = {**PRESETS[preset], **overrides}
        # The testbed's short t_final replaces the plan's desk-scale value.
        if preset != "desk" and "t_final" in overrides:
            doc["t_final"] = PRESETS[preset]["t_final"]
        doc.update(
            experiment=experiment,
            seed=seed,
            output_dir=f"{out_dir}/{i}-{experiment}",
        )
        yield experiment, doc
