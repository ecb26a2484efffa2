"""Experiment drivers, configuration, persistence, and the CLI backend.

`run_experiment` is the one run lifecycle around the bodies of `RUNNERS`,
the one experiment registry: each body `experiment_<name>(lab, manifest)`
writes its outputs and returns its summary. This module writes and reads
every file, and each writer (`_write_csv`, `_write_json`,
`_write_plot_data`, `write_checkpoint`) records the name it writes in the
manifest, which is written last: its presence certifies a complete run, and
it lists exactly the files the run wrote. The config is the one record of a
run's s and dt_max; a checkpoint holds only the state, kappa included, and
`_check_types` refuses a value of the wrong type in either. Hypothesis
failures are recorded in the outputs and summary, never raised, and leave
the exit status at zero; only execution errors are fatal. `diagnose` writes
the records of the hypothesis suite as the suite returns them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import curve_fit

from . import __version__
from .ansatz import PulseManifold
from .core import (
    ChecksumError,
    ConfigError,
    FchError,
    Grid,
    GridMismatchError,
    ScalarField,
    SystemParams,
    ValidationError,
    cosine_synth,
    h4_norm_from_coeffs,
    smooth_probe_coeffs,
)
from .dynamics import (
    ENERGY_SLACK,
    ReducedModel,
    SimulationState,
    integrate_reduced,
    pulse_velocity_projection,
    run as run_pde,
    velocity_scale,
)
from .operators import gradient_symbols
from .spectral import ProfilePoint, run_hypothesis_suite, spectral_gap_report
from .wellmodel import (
    default_well,
    far_field_params,
    solve_background,
    solve_homoclinic,
)


def _check_types(integers, reals, finite=True, booleans=(), strings=()):
    """Refuse a value of the wrong type with ValidationError naming its key.

    integers, reals, booleans and strings are (key, value) pairs. An integer
    is a JSON integer: no float, bool or numpy scalar. A real is a number: no
    bool, string or null, and, with finite, no Infinity or NaN (which
    Python's json parses). A boolean is JSON true or false, a string a
    non-empty JSON string.
    """
    for key, value in integers:
        if type(value) is not int:
            raise ValidationError(f"{key} must be an integer, got {value!r}")
    for key, value in reals:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{key} must be a number, got {value!r}")
        if finite and isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value!r}")
    for key, value in booleans:
        if type(value) is not bool:
            raise ValidationError(f"{key} must be true or false, got {value!r}")
    for key, value in strings:
        if not isinstance(value, str) or not value:
            raise ValidationError(
                f"{key} must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; unknown keys are rejected on parse."""

    experiment: str
    tau: float = -0.3
    epsilon: float = 0.05
    domain_d: float = 8.0
    n_pulses: int = 3
    min_spacing: float = 8.0
    mass_excess_fraction: float = 0.01
    grid_points: int = 2048
    diagnostic_grid_points: int = 1024
    s_values: tuple = (0.0, 0.5, 1.0)
    sample_size: int = 8
    seed: int = 0
    output_dir: str = "runs"
    t_final: float = 10.0
    dt_max: float = 0.02
    output_every: int = 50
    perturbation: float = 0.0
    initial_positions: tuple | None = None
    checkpoint_stride: int = 0
    restart_from: str | None = None
    plot_data: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}"
            )
        _check_types(
            [(key, getattr(self, key)) for key in (
                "seed", "n_pulses", "grid_points", "diagnostic_grid_points",
                "sample_size", "output_every", "checkpoint_stride")],
            [(key, getattr(self, key)) for key in (
                "tau", "epsilon", "domain_d", "min_spacing",
                "mass_excess_fraction", "t_final", "dt_max", "perturbation")]
            + [("initial_positions entry", p)
               for p in self.initial_positions or ()],
            booleans=[("plot_data", self.plot_data)],
            # a null restart_from starts the run fresh
            strings=[("output_dir", self.output_dir)]
            + ([] if self.restart_from is None
               else [("restart_from", self.restart_from)]))
        # an infinite s is refused below, as outside [0, 1]
        _check_types([], [("s_values entry", s) for s in self.s_values or ()],
                    finite=False)
        if not -1.0 < self.tau < 0.0:
            raise ValidationError("tau must lie in (-1, 0)")
        alpha_minus = 2.0 + 2.0 * self.tau
        # SystemParams owns the remaining invariants; build one to validate.
        SystemParams(
            epsilon=self.epsilon,
            domain_d=self.domain_d,
            n_pulses=self.n_pulses,
            total_mass=1.0,  # placeholder; mass split is validated later
            min_spacing=self.min_spacing,
            alpha_minus=alpha_minus,
        )
        if not 0.0 < self.mass_excess_fraction < 1.0:
            raise ValidationError("mass_excess_fraction must lie in (0,1)")
        for key in ("sample_size", "output_every"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{key} must be positive")
        for key in ("t_final", "dt_max"):
            if not getattr(self, key) > 0.0:
                raise ValidationError(f"{key} must be positive")
        for key in ("checkpoint_stride", "perturbation", "seed"):
            if not getattr(self, key) >= 0:
                raise ValidationError(f"{key} must not be negative")
        # only simulate writes checkpoints or continues from one
        if self.experiment != "simulate":
            for key, used in (("checkpoint_stride", self.checkpoint_stride),
                              ("restart_from", self.restart_from is not None)):
                if used:
                    raise ValidationError(
                        f"{key} is read by simulate only, not by "
                        f"{self.experiment}"
                    )
        if (self.initial_positions is not None
                and len(self.initial_positions) != self.n_pulses):
            raise ValidationError(
                f"initial_positions must have n_pulses = {self.n_pulses} "
                f"entries, got {len(self.initial_positions)}")
        if not self.s_values:
            raise ValidationError("s_values must name at least one s")
        for s in self.s_values:
            if not 0.0 <= s <= 1.0:
                raise ValidationError("s values must lie in [0,1]")
        # an s value's label names its invariance file and summary entry,
        # and -0.0 is the same entry as 0.0
        labels = [f"{s + 0.0:g}" for s in self.s_values]
        repeated = next((x for x in labels if labels.count(x) > 1), None)
        if repeated is not None:
            raise ValidationError(
                f"s_values repeat the label {repeated!r}; each s needs its own")

    def as_dict(self):
        doc = asdict(self)
        doc["s_values"] = list(self.s_values)
        if self.initial_positions is not None:
            doc["initial_positions"] = list(self.initial_positions)
        return doc

    @classmethod
    def from_dict(cls, doc):
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigError("config lacks key 'experiment'")
        doc = dict(doc)
        for key in ("s_values", "initial_positions"):
            if doc.get(key) is not None:
                if not isinstance(doc[key], (list, tuple)):
                    raise ValidationError(
                        f"{key} must be a list, got {doc[key]!r}")
                doc[key] = tuple(doc[key])
        return cls(**doc)


def _read_bytes(path):
    """The bytes of the file at path, or ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _read_json(path):
    """The JSON document in the file at path, or ConfigError naming it."""
    try:
        return json.loads(_read_bytes(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def parse_config(path):
    """Load, validate, and default-fill a JSON experiment configuration."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return ExperimentConfig.from_dict(doc)


def config_hash(config):
    doc = json.dumps(config.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(doc).hexdigest()


@dataclass
class RunManifest:
    """Completeness certificate of a run into the directory out: the name of
    every file the run wrote, recorded by the writer that wrote it, and the
    summary. `run_experiment` writes it, without out, last."""

    out: Path
    config_hash: str
    version: str
    started: str
    finished: str = ""
    files: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def _file(self, name):
        """The path of the output file name, recorded as written."""
        self.files.append(name)
        return self.out / name


@lru_cache(maxsize=8)
def well_solution(tau):
    """(well, pulse, bg1, bg2) of the well at tau, solved once per process.

    The pulse and its backgrounds depend on tau alone, so every Laboratory of
    a process with the same tau shares these objects, and with them the
    pulse's cached edge floor and pair energy. Their arrays are read-only.
    """
    well = default_well(tau)
    pulse = solve_homoclinic(well)
    return (well, pulse, *solve_background(well, pulse))


@dataclass
class Laboratory:
    """Well, pulse, backgrounds, manifold, and grids for one configuration."""

    config: ExperimentConfig
    well: object
    pulse: object
    bg1: object
    bg2: object
    params: SystemParams
    grid: Grid
    manifold: PulseManifold
    diag_manifold: PulseManifold

    @classmethod
    def from_config(cls, config):
        well, pulse, bg1, bg2 = well_solution(config.tau)
        total_mass = (
            config.n_pulses + config.mass_excess_fraction
        ) * pulse.mass_h
        params = SystemParams(
            epsilon=config.epsilon,
            domain_d=config.domain_d,
            n_pulses=config.n_pulses,
            total_mass=total_mass,
            min_spacing=config.min_spacing,
            alpha_minus=well.alpha_minus,
        )
        grid = Grid(params.domain_length, config.grid_points, h_max=0.4)
        manifold = PulseManifold(well, pulse, bg2, params, grid)
        diag_grid = Grid(
            params.domain_length, config.diagnostic_grid_points, h_max=0.4
        )
        diag_manifold = PulseManifold(well, pulse, bg2, params, diag_grid)
        return cls(
            config=config, well=well, pulse=pulse, bg1=bg1, bg2=bg2,
            params=params, grid=grid, manifold=manifold,
            diag_manifold=diag_manifold,
        )

    def initial_configuration(self):
        if self.config.initial_positions is not None:
            return self.manifold.configuration(
                np.asarray(self.config.initial_positions)
            )
        return self.manifold.equispaced()

    def zero_mass_noise(self, amplitude):
        coeffs = smooth_probe_coeffs(
            self.grid, np.random.default_rng(self.config.seed), 6, 100, 1)
        w = ScalarField(self.grid, cosine_synth(coeffs))
        scale = h4_norm_from_coeffs(self.grid, coeffs)
        return w * (amplitude / scale) if scale > 0 else w


def _write_csv(manifest, name, header, rows):
    """RFC-4180 CSV: floats at 17 significant digits, other values as is."""
    with open(manifest._file(name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, (float, np.floating)) else v
                 for v in row]
            )


def _write_json(manifest, name, doc):
    with open(manifest._file(name), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _write_trajectory(manifest, name, traj):
    t, p, e, m, w = traj.as_arrays()
    _write_csv(
        manifest, name, ["t"] + [f"p_{i + 1}" for i in range(p.shape[1])]
        + ["energy", "mass", "w_norm"], np.column_stack([t, p, e, m, w]),
    )


def _write_plot_data(manifest, name, xs, ys):
    with open(manifest._file(name), "w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x:.17g} {y:.17g}\n")


CHECKPOINT_LAYOUT = "u, u_hat"
CHECKPOINT_KEYS = ("time", "dt", "step_index", "accept_streak", "kappa",
                   "num_points", "length", "layout", "sha256")


def write_checkpoint(manifest, name, state):
    """Write u and its cosine coefficients u_hat, one after the other, as
    little-endian float64 to name.bin, and the header name.json.

    The header holds what, with the run's config, continues the same run:
    the state's time, dt, step index, accept streak and kappa (formed from
    the initial field, which a restart does not have), the grid size, the
    .bin layout and the sha256 of the .bin bytes.
    """
    data = np.concatenate([state.u.values, state.u_hat]).astype("<f8").tobytes()
    _write_json(manifest, f"{name}.json", {
        "time": state.time,
        "dt": state.dt,
        "step_index": state.step_index,
        "accept_streak": state.accept_streak,
        "kappa": state.kappa,
        "num_points": state.u.grid.num_points,
        "length": state.u.grid.length,
        "layout": CHECKPOINT_LAYOUT,
        "sha256": hashlib.sha256(data).hexdigest(),
    })
    with open(manifest._file(f"{name}.bin"), "wb") as fh:
        fh.write(data)


def read_checkpoint(path_prefix, grid, well):
    """The complete state of a checkpoint written by `write_checkpoint`:
    `SimulationState.at` the written u and u_hat, with the stabilization
    constant kappa of the run that wrote it.

    A header that is not a JSON object, or lacks one of CHECKPOINT_KEYS,
    cannot continue the run that wrote it and raises FchError, as does one
    with another layout. A value of the wrong type raises ValidationError
    naming its key (`_check_types`): the step index, accept streak and grid
    size are integers, the time, dt, kappa and length finite numbers. A
    header whose grid size or domain length differs from grid's raises
    GridMismatchError, and .bin bytes whose sha256 differs from the header's
    raise ChecksumError.
    """
    header = _read_json(f"{path_prefix}.json")
    if not isinstance(header, dict):
        raise FchError(
            f"checkpoint header {path_prefix}.json is not a JSON object")
    missing = [key for key in CHECKPOINT_KEYS if key not in header]
    if missing:
        raise FchError(
            f"checkpoint header {path_prefix}.json lacks {', '.join(missing)}"
        )
    _check_types(
        [(f"{key} of {path_prefix}.json", header[key])
         for key in ("step_index", "accept_streak", "num_points")],
        [(f"{key} of {path_prefix}.json", header[key])
         for key in ("time", "dt", "kappa", "length")])
    if header["layout"] != CHECKPOINT_LAYOUT:
        raise FchError(
            f"checkpoint {path_prefix}.bin has layout {header['layout']!r}, "
            f"not {CHECKPOINT_LAYOUT!r}"
        )
    n = grid.num_points
    if (header["num_points"], header["length"]) != (n, grid.length):
        raise GridMismatchError(
            f"checkpoint has {header['num_points']} points on length "
            f"{header['length']:g}, the grid {n} on {grid.length:g}"
        )
    data = _read_bytes(f"{path_prefix}.bin")
    digest = hashlib.sha256(data).hexdigest()
    if digest != header["sha256"]:
        raise ChecksumError(
            f"checkpoint {path_prefix}.bin has sha256 {digest}, "
            f"its header records {header['sha256']}"
        )
    vals = np.frombuffer(data, dtype="<f8").copy()
    if vals.size != 2 * n:
        raise GridMismatchError(
            f"checkpoint has {vals.size // 2} points, the grid {n}"
        )
    return SimulationState.at(
        ScalarField(grid, vals[:n]), vals[n:], well, header["time"],
        header["dt"], header["step_index"], header["accept_streak"],
        header["kappa"],
    )


def _checkpointer(manifest, stride):
    """The `checkpoint` callable of a run: of the recorded states that `run`
    hands it, every stride-th is written as checkpoint_<step index>. None at
    stride 0, which writes none."""
    if not stride:
        return None
    records = itertools.count(1)

    def checkpoint(state):
        if next(records) % stride == 0:
            write_checkpoint(manifest, f"checkpoint_{state.step_index:09d}",
                             state)

    return checkpoint


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------


def experiment_profile(lab, manifest):
    """Solve the pulse and backgrounds; emit their profiles and far-field data."""
    pulse = lab.pulse
    for name, prof in (("pulse.csv", pulse), ("background_1.csv", lab.bg1),
                       ("background_2.csv", lab.bg2)):
        _write_csv(manifest, name, ["z", "value"], zip(prof.z, prof.values))
    if lab.config.plot_data:
        _write_plot_data(manifest, "pulse.dat", pulse.z, pulse.values)
    tail = pulse.z > 0
    fit = far_field_params(pulse.z[tail], pulse.values[tail] - lab.well.b_minus)
    return {
        "pass": True,
        "u_star": pulse.u_star,
        "phi_max": fit.phi_max,
        "decay_rate": fit.decay_rate,
        "fit_max_log_dev": fit.max_log_dev,
        "pulse_mass": pulse.mass_h,
        "kernel_norm": pulse.kernel_norm,
        "background_inf_1": lab.bg1.b_inf,
        "background_inf_2": lab.bg2.b_inf,
        "background_residual_1": lab.bg1.residual_norm,
        "background_residual_2": lab.bg2.residual_norm,
    }


def experiment_ansatz(lab, manifest):
    """Build manifold points over the sample; emit profiles and closures."""
    man = lab.manifold
    sample = man.sample_configurations(lab.config.sample_size,
                                       seed=lab.config.seed)
    rows = []
    for i, cfg in enumerate(sample):
        prof = man.build(cfg)
        _, h4, l2, energy = man.residual_h4(prof)
        rows.append(
            [i, *cfg.positions, prof.internal.lam, prof.internal.lam_seed,
             np.max(np.abs(prof.bc_residuals)),
             abs(prof.mass_value - lab.params.total_mass),
             h4, l2, energy]
        )
    _write_csv(
        manifest, "ansatz_sample.csv",
        ["config_id"] + [f"p_{i+1}" for i in range(man.n)]
        + ["lambda", "lambda_seed", "bc_residual", "mass_error",
           "residual_h4", "residual_l2", "energy"],
        rows,
    )
    prof = man.build(lab.initial_configuration())
    corr = prof.mass_correction.values + prof.boundary_correction.values
    _write_csv(manifest, "ansatz_profile.csv",
               ["z", "phi", "u_n", "correction"],
               zip(man.grid.nodes, prof.phi.values, prof.u_n.values, corr))
    _write_json(manifest, "ansatz_internal.json", prof.internal.as_dict())
    return {
        "pass": True,
        "max_bc_residual": max(r[man.n + 3] for r in rows),
        "max_mass_error": max(r[man.n + 4] for r in rows),
    }


def experiment_spectrum(lab, manifest):
    """Slow/stable splitting of the flow linearization over a small sample."""
    man = lab.diag_manifold
    start = lab.initial_configuration()
    sample = [man.configuration(start.positions)] + man.sample_configurations(
        2, seed=lab.config.seed, include_equispaced=False
    )
    rows, passed = [], True
    for i, cfg in enumerate(sample):
        rep = spectral_gap_report(ProfilePoint(man, man.build(cfg)))
        passed &= rep.passed
        rows.append(
            [i, rep.slow_dim, rep.stable_edge, rep.k_s,
             rep.fitted_c, rep.passed]
            + list(rep.eigenvalues[: man.n + 3])
        )
    _write_csv(
        manifest, "spectrum.csv",
        ["config_id", "slow_dim", "stable_edge", "k_s", "fitted_c0", "pass"]
        + [f"eig_{j}" for j in range(man.n + 3)],
        rows,
    )
    return {"pass": bool(passed)}


def experiment_diagnose(lab, manifest):
    """The hypothesis suite, trapping radius included; report-only. The
    suite's records are diagnostics.json; diagnostics.csv holds their
    columns without the details."""
    config, man = lab.config, lab.diag_manifold
    sample = man.sample_configurations(config.sample_size, seed=config.seed)
    points = [ProfilePoint(man, man.build(c)) for c in sample]
    s_checks = tuple(s for s in config.s_values if s > 0.0) or (0.5, 1.0)
    records = run_hypothesis_suite(points, s_checks, config.seed)
    _write_json(manifest, "diagnostics.json", records)
    columns = ["hypothesis", "config_id", "constant", "threshold", "pass"]
    _write_csv(manifest, "diagnostics.csv", columns,
               [[r[c] for c in columns] for r in records])
    failed = [r["hypothesis"] for r in records if not r["pass"]]
    return {"pass": not failed, "failed_hypotheses": failed}


def _initial_state(lab):
    """The state of a run from the configured start."""
    u0 = lab.manifold.build(lab.initial_configuration()).phi
    if lab.config.perturbation > 0.0:
        u0 = u0 + lab.zero_mass_noise(lab.config.perturbation)
    return SimulationState.start(u0, lab.well)


def experiment_simulate(lab, manifest):
    """Evolve the gradient flow from the configured or checkpointed state."""
    config = lab.config
    g = gradient_symbols(lab.grid, config.s_values[0])[0]
    if config.restart_from is not None:
        # the checkpoint's state, kappa included, and the config's s and
        # dt_max; the state's time carries on and t_final is absolute
        state = read_checkpoint(config.restart_from, lab.grid, lab.well)
    else:
        state = _initial_state(lab)
    traj = run_pde(lab.manifold, g, state, config.t_final, config.dt_max,
                   config.output_every,
                   _checkpointer(manifest, config.checkpoint_stride))
    _write_trajectory(manifest, "trajectory.csv", traj)
    t, p, e, m, w = traj.as_arrays()
    if config.plot_data:
        for i in range(p.shape[1]):
            _write_plot_data(manifest, f"position_{i+1}.dat", t, p[:, i])
    mass_drift = float(np.max(np.abs(m - m[0])) / abs(m[0]))
    energy_monotone = bool(np.all(np.diff(e) <= ENERGY_SLACK))
    return {
        "pass": energy_monotone and mass_drift < 1e-9,
        "steps": traj.final_state.step_index,
        "mass_drift": mass_drift,
        "energy_monotone": energy_monotone,
        "t_exit": traj.t_exit,
        "exit_reason": traj.exit_reason,
        "w_norm_nan": traj.w_norm_nan,
    }


def _reduced_trajectory(lab, s, p0, t_final):
    model = ReducedModel.from_pulse(lab.pulse, lab.params)
    scale = velocity_scale(s, lab.grid, lab.pulse)
    t_eval = np.linspace(0.0, t_final, 201)
    sol, t_exit = integrate_reduced(
        model, p0, t_final, velocity_scale=scale, t_eval=t_eval
    )
    return model, sol, t_exit, scale


def experiment_reduce(lab, manifest):
    """Integrate the reduced pulse ODE from the configured initial positions."""
    s = lab.config.s_values[0]
    p0 = lab.initial_configuration().positions
    model, sol, t_exit, scale = _reduced_trajectory(
        lab, s, p0, lab.config.t_final
    )
    rows = [
        [t, *sol.sol(t)] for t in sol.t
    ]
    _write_csv(
        manifest, "reduced_trajectory.csv",
        ["t"] + [f"p_{i+1}" for i in range(len(p0))],
        rows,
    )
    return {
        "pass": True,
        "t_exit": t_exit,
        "velocity_scale": scale,
    }


def experiment_compare(lab, manifest):
    """PDE flow vs reduced ODE from the same start: velocities and deviation."""
    config = lab.config
    s = config.s_values[0]
    start = lab.initial_configuration()
    g = gradient_symbols(lab.grid, s)[0]
    traj = run_pde(lab.manifold, g, _initial_state(lab), config.t_final,
                   config.dt_max, config.output_every)
    _write_trajectory(manifest, "pde_trajectory.csv", traj)
    t, p, e, m, w = traj.as_arrays()

    model, sol, t_exit, scale = _reduced_trajectory(
        lab, s, start.positions, max(float(t[-1]), 1e-9)
    )
    rows = [[tt, *sol.sol(tt)] for tt in t]
    _write_csv(
        manifest, "reduced_trajectory.csv",
        ["t"] + [f"p_{i+1}" for i in range(start.positions.size)],
        rows,
    )

    # velocity agreement table over the early window; a run that wrote fewer
    # than three records (its start and end are always written) fits them all
    window = t <= (max(t[2], 0.25 * t[-1]) if t.size > 2 else t[-1])
    v_pde = [
        float(np.polyfit(t[window], p[window, i], 1)[0])
        for i in range(p.shape[1])
    ]
    v_red = scale * model.velocity(start.positions, check=False)
    v_proj = scale * pulse_velocity_projection(lab.manifold, start)
    _write_csv(
        manifest, "velocity_agreement.csv",
        ["pulse", "pde", "reduced_closed_form", "reduced_projection"],
        [[i + 1, v_pde[i], v_red[i], v_proj[i]] for i in range(len(v_pde))],
    )

    # deviation envelope fit ||w|| ~ M0*(eta0*exp(-k t) + delta)
    fit = fit_deviation_envelope(t, w, lab.params.tail_scale)
    return {
        "pass": True,
        "velocity_pde": v_pde,
        "velocity_reduced": list(map(float, v_red)),
        "velocity_projection": list(map(float, v_proj)),
        "deviation_fit": fit,
        "t_exit": traj.t_exit,
        "w_norm_nan": traj.w_norm_nan,
    }


def fit_deviation_envelope(t, w, delta):
    """Fit the deviation history to eta0*exp(-k t) + plateau.

    Reports (M0, k) with M0 = plateau/delta, matching the decay-then-plateau
    envelope shape of the deviation bound.
    """
    good = np.isfinite(w)
    if np.count_nonzero(good) < 5:
        return {"fitted": False}
    t, w = t[good], w[good]

    def shape(tt, eta0, k, plateau):
        return eta0 * np.exp(-k * tt) + plateau

    try:
        (eta0, k, plateau), _ = curve_fit(
            shape, t, w, p0=[max(w[0] - w[-1], 1e-12), 0.5, w[-1]],
            bounds=([0.0, 0.0, 0.0], [np.inf, np.inf, np.inf]), maxfev=20000,
        )
        resid = float(np.sqrt(np.mean((shape(t, eta0, k, plateau) - w) ** 2)))
        return {"fitted": True, "eta0": float(eta0), "k": float(k),
                "M0": float(plateau / delta), "rms_residual": resid}
    except (RuntimeError, ValueError):
        return {"fitted": False}


def experiment_invariance(lab, manifest):
    """Reduced trajectories across s overlaid after time rescaling.

    The invariance defect is the sup-distance between each rescaled
    trajectory and the s = 0 reference; pass when below 1% of the spacing
    floor.
    """
    p0 = lab.initial_configuration().positions
    t_final = lab.config.t_final
    base_model, base_sol, base_exit, _ = _reduced_trajectory(
        lab, 0.0, p0, t_final
    )
    t_ref = np.linspace(0.0, t_final if base_exit is None else base_exit, 161)
    ref = base_sol.sol(t_ref)
    defects = {}
    for s in lab.config.s_values:
        scale = velocity_scale(s, lab.grid, lab.pulse)
        _, sol, _, _ = _reduced_trajectory(lab, s, p0, t_final / scale)
        # map the s-trajectory onto reference time: t_ref = t_s * scale
        t_s = t_ref / scale
        vals = sol.sol(t_s)
        defect = float(np.max(np.abs(vals - ref)))
        defects[s] = defect
        rows = [[t_s[j] * scale, *vals[:, j]] for j in range(len(t_s))]
        _write_csv(
            manifest, f"trajectory_s{s:g}.csv",
            ["t_rescaled"] + [f"p_{i+1}" for i in range(len(p0))],
            rows,
        )
    threshold = 0.01 * lab.params.min_spacing
    worst = max(defects.values())
    _write_csv(
        manifest, "invariance_summary.csv",
        ["s", "defect", "threshold"],
        [[s, d, threshold] for s, d in sorted(defects.items())],
    )
    return {
        "pass": bool(worst < threshold),
        "defects": {f"{s:g}": d for s, d in defects.items()},
        "threshold": threshold,
    }


# The one experiment registry: the CLI subcommands and the config check read
# its names, in this order.
RUNNERS = {
    "profile": experiment_profile,
    "ansatz": experiment_ansatz,
    "spectrum": experiment_spectrum,
    "diagnose": experiment_diagnose,
    "simulate": experiment_simulate,
    "reduce": experiment_reduce,
    "compare": experiment_compare,
    "invariance": experiment_invariance,
}
EXPERIMENTS = tuple(RUNNERS)


def run_experiment(config):
    """Run config's experiment into config.output_dir; return its manifest.

    The one run lifecycle: make the manifest, create the directory, write
    config.json, build the Laboratory, run the experiment body on (lab,
    manifest), record the summary it returns and the finished stamp, and
    write manifest.json, without out, last.
    """
    manifest = RunManifest(
        out=Path(config.output_dir),
        config_hash=config_hash(config),
        version=__version__,
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    try:
        manifest.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output_dir {manifest.out}: {exc.strerror}") from exc
    _write_json(manifest, "config.json", config.as_dict())
    lab = Laboratory.from_config(config)
    manifest.summary = RUNNERS[config.experiment](lab, manifest)
    manifest.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    doc = asdict(manifest)
    del doc["out"]
    _write_json(manifest, "manifest.json", doc)
    return manifest
