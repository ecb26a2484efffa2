"""Configuration, manifests, determinism, and the CLI contract."""

import json
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fchpulse import (
    ConfigError,
    ExperimentConfig,
    Laboratory,
    PulseManifold,
    RefinementError,
    ValidationError,
    gradient_symbols,
    parse_config,
    run,
)
from fchpulse.cli import main as cli_main
from fchpulse.harness import (
    config_hash,
    fit_deviation_envelope,
    read_checkpoint,
    run_experiment,
)

from conftest import fresh_python

SMALL = dict(
    epsilon=0.05, domain_d=0.8, n_pulses=2, min_spacing=5.0, grid_points=256,
    initial_positions=(4.5, 12.0), t_final=1.0, s_values=(0.0,),
    output_every=25,
)


class TestConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "profile", "tau": -0.3}))
        cfg = parse_config(path)
        assert cfg.experiment == "profile"
        assert cfg.grid_points == 2048
        assert cfg.s_values == (0.0, 0.5, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "profile", "spacing": 3}))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "spacing" in str(err.value)

    def test_infeasible_spacing_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"experiment": "profile", "min_spacing": 50.0, "n_pulses": 3}
            )
        )
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert "admissible" in str(err.value)

    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(experiment="simulate", **SMALL)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.as_dict()))
        again = parse_config(path)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)

    @settings(max_examples=50, deadline=None)
    @given(inside=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4,
                           unique_by=lambda s: f"{s:g}"),
           outside=st.floats(max_value=0.0, exclude_max=True)
           | st.floats(min_value=1.0, exclude_min=True),
           data=st.data())
    def test_s_values_must_lie_in_unit_interval(self, inside, outside, data):
        cfg = ExperimentConfig(experiment="reduce", s_values=tuple(inside))
        assert cfg.s_values == tuple(inside)
        at = data.draw(st.integers(0, len(inside)))
        bad = tuple(inside[:at]) + (outside,) + tuple(inside[at:])
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="reduce", s_values=bad)
        assert "s values must lie in [0,1]" in str(err.value)

    def test_s_values_must_not_be_empty(self):
        # an empty list raised a bare ValueError in invariance and ran
        # simulate, reduce and compare at s = 0
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="invariance", s_values=())
        assert "s_values" in str(err.value)

    @pytest.mark.parametrize("s_values, label", [
        ((0.0, 0.5, 0.5000001), "0.5"), ((1, 1.0), "1"), ((0.0, 0.0), "0"),
        ((0.0, -0.0), "0"),
    ])
    def test_s_values_must_print_apart(self, s_values, label):
        # values with one {s:g} label wrote one invariance file twice, and
        # these and 0.0 with -0.0 kept one summary defect for two s values
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="invariance", s_values=s_values)
        assert f"label {label!r}" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("output_every", 0), ("output_every", -5), ("dt_max", 0.0),
        ("dt_max", -0.02), ("t_final", 0.0), ("t_final", -1.0),
    ])
    def test_run_controls_must_be_positive(self, key, value):
        # output_every = 0 divided by zero in the stepping loop, dt_max <= 0
        # made the first step non-finite and t_final <= 0 passed after no step
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="simulate", **{**SMALL, key: value})
        assert f"{key} must be positive" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("checkpoint_stride", -1), ("perturbation", -1e-4), ("seed", -1),
    ])
    def test_run_controls_must_not_be_negative(self, key, value):
        # a negative stride wrote a checkpoint at every record, a negative
        # perturbation ran unperturbed and a negative seed failed in the
        # Latin-hypercube sampler with numpy's ValueError
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="simulate", **{**SMALL, key: value})
        assert f"{key} must not be negative" in str(err.value)

    @pytest.mark.parametrize("key", [
        "seed", "n_pulses", "grid_points", "diagnostic_grid_points",
        "sample_size", "output_every", "checkpoint_stride",
    ])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", np.int64(2)])
    def test_integer_keys_must_be_integers(self, key, value):
        # n_pulses = 2.5 was refused only later, as pulse positions outside
        # (0, L); a numpy integer failed in config_hash's json.dumps
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="simulate", **{**SMALL, key: value})
        assert f"{key} must be an integer" in str(err.value)
        ExperimentConfig(experiment="simulate", **{**SMALL, key: 2})


    @pytest.mark.parametrize("key, value", [
        ("tau", "x"), ("epsilon", "0.05"), ("mass_excess_fraction", None),
        ("t_final", float("inf")), ("t_final", True), ("dt_max", True),
        ("domain_d", float("inf")), ("min_spacing", float("nan")),
        ("perturbation", [1e-4]), ("s_values", "0"), ("s_values", [0.5, None]),
        ("initial_positions", [4.5, "12"]),
        ("initial_positions", [4.5, float("inf")]),
    ])
    def test_real_keys_must_be_finite_reals(self, key, value):
        # strings and null raised a bare TypeError, and t_final = Infinity,
        # which Python's json parses, ran simulate until the pulses merged
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_dict({**SMALL, "experiment": "simulate",
                                        key: value})
        assert key in str(err.value)

    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)
                                     if f.name != "experiment"])
    def test_every_key_refuses_a_json_object(self, key):
        # a JSON object has the wrong type for every key; plot_data "false"
        # was truthy and wrote pulse.dat, output_dir 5 ended the CLI in a
        # TypeError traceback and restart_from {} started simulate afresh
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_dict({**SMALL, "experiment": "simulate",
                                        key: {}})
        assert key in str(err.value)

    @pytest.mark.parametrize("experiment", ["simulate", "profile"])
    @pytest.mark.parametrize("key", ["output_dir", "restart_from"])
    def test_empty_paths_refused(self, experiment, key):
        # restart_from "" started simulate afresh and passed the simulate-only
        # guard of profile; output_dir "" wrote into the working directory
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment=experiment, **{**SMALL, key: ""})
        assert key in str(err.value)

    def test_initial_positions_must_number_n_pulses(self):
        # 2 positions with n_pulses = 3 ran ansatz and reduce on 2 pulses
        # and reported pass
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment="reduce",
                             **{**SMALL, "initial_positions": (4.5,)})
        assert "initial_positions must have n_pulses = 2" in str(err.value)

    @pytest.mark.parametrize("experiment", ["compare", "diagnose"])
    @pytest.mark.parametrize("key, value", [
        ("checkpoint_stride", 1), ("restart_from", "ck"),
    ])
    def test_checkpoint_keys_only_for_simulate(self, experiment, key, value):
        # compare accepted both and ran from the configured start without
        # writing a checkpoint
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(experiment=experiment, **{**SMALL, key: value})
        assert f"{key} is read by simulate only" in str(err.value)
        ExperimentConfig(experiment="simulate", **{**SMALL, key: value})


class TestManifest:
    def test_written_last_and_complete(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="simulate", output_dir=str(tmp_path / "run"), **SMALL
        )
        manifest = run_experiment(cfg)
        out = tmp_path / "run"
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["finished"] >= doc["started"]
        for name in doc["files"]:
            if name != "manifest.json":
                assert (out / name).exists(), name
        assert doc["summary"]["pass"] is True

    def test_lists_only_the_files_the_run_wrote(self, tmp_path):
        # a run without checkpoints into a directory that holds an earlier
        # run's lists none of them
        out = tmp_path / "run"
        first = run_experiment(ExperimentConfig(
            experiment="simulate", output_dir=str(out), checkpoint_stride=1,
            **SMALL
        ))
        assert sum(f.startswith("checkpoint_") for f in first.files) >= 4
        manifest = run_experiment(ExperimentConfig(
            experiment="simulate", output_dir=str(out), **SMALL
        ))
        assert manifest.files == ["config.json", "trajectory.csv",
                                  "manifest.json"]
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["files"] == ["config.json", "trajectory.csv"]

    def test_determinism(self, tmp_path):
        # two runs in one process write the same bytes: a simulate
        # trajectory, and the diagnostics on the spectral testbed, whose
        # checks share each profile's cached and released quantities
        runs = {
            "simulate": ("trajectory.csv",
                         dict(seed=7, perturbation=1e-4, **SMALL)),
            "diagnose": ("diagnostics.json",
                         dict(domain_d=1.6, n_pulses=2, min_spacing=8.0,
                              grid_points=256, diagnostic_grid_points=256,
                              sample_size=2)),
        }
        for experiment, (name, options) in runs.items():
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{experiment}_{tag}"
                run_experiment(ExperimentConfig(
                    experiment=experiment, output_dir=str(out), **options))
                outputs.append((out / name).read_bytes())
            assert outputs[0] == outputs[1], experiment


class TestExperiments:
    def test_ansatz_runs_the_configured_sample_size(self, tmp_path):
        # the sample was capped at 8, so 9 ran 8 samples and wrote 9 rows
        # with the equispaced configuration
        run_experiment(ExperimentConfig(
            experiment="ansatz", output_dir=str(tmp_path), sample_size=9,
            **SMALL))
        rows = np.loadtxt(tmp_path / "ansatz_sample.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape[0] == 10

    def test_invariance_single_s_defect_zero(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="invariance",
            epsilon=0.05, domain_d=2.0, n_pulses=2, min_spacing=8.0,
            grid_points=512, initial_positions=(8.0, 17.0), t_final=50.0,
            s_values=(0.0,), output_dir=str(tmp_path / "inv0"),
        )
        manifest = run_experiment(cfg)
        assert manifest.summary["defects"]["0"] == 0.0

    def test_invariance_file_count(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="invariance",
            epsilon=0.05, domain_d=2.0, n_pulses=2, min_spacing=8.0,
            grid_points=512, initial_positions=(8.0, 17.0), t_final=50.0,
            s_values=(0.0, 0.5, 1.0), output_dir=str(tmp_path / "inv"),
        )
        manifest = run_experiment(cfg)
        trajectory_files = [
            f for f in manifest.files if f.startswith("trajectory_s")
        ]
        assert len(trajectory_files) == 3
        assert "invariance_summary.csv" in manifest.files
        assert manifest.summary["pass"] is True

    def test_compare_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="compare", output_dir=str(tmp_path / "cmp"),
            perturbation=1e-4, **SMALL
        )
        manifest = run_experiment(cfg)
        assert "velocity_agreement.csv" in manifest.files
        assert "deviation_fit" in manifest.summary

    def test_compare_fits_a_run_of_two_records(self, tmp_path):
        # t_final is reached before the first output step, so the run wrote
        # its start and end only; the velocity is fitted over both
        cfg = ExperimentConfig(
            experiment="compare", output_dir=str(tmp_path / "cmp2"),
            perturbation=1e-4, **{**SMALL, "t_final": 1e-3,
                                   "output_every": 50}
        )
        manifest = run_experiment(cfg)
        rows = np.loadtxt(tmp_path / "cmp2" / "pde_trajectory.csv",
                          delimiter=",", skiprows=1)
        assert rows.shape[0] == 2
        slope = (rows[1, 1:3] - rows[0, 1:3]) / (rows[1, 0] - rows[0, 0])
        np.testing.assert_allclose(manifest.summary["velocity_pde"], slope,
                                   rtol=1e-6)

    @pytest.mark.parametrize("experiment, name", [
        ("simulate", "trajectory.csv"), ("compare", "pde_trajectory.csv"),
    ])
    def test_summary_lists_each_nan_w_norm(self, tmp_path, monkeypatch,
                                           experiment, name):
        # inside the PDE run no record has a manifold point: every w_norm is
        # NaN, and the summary lists the time and the message of each
        from fchpulse import harness

        real_run, real_build = harness.run_pde, PulseManifold.build

        def refuse(self, config):
            raise RefinementError("closure refused")

        def run_refusing(*args, **kwargs):
            monkeypatch.setattr(PulseManifold, "build", refuse)
            try:
                return real_run(*args, **kwargs)
            finally:
                monkeypatch.setattr(PulseManifold, "build", real_build)

        out = tmp_path / experiment
        cfg = ExperimentConfig(experiment=experiment, output_dir=str(out),
                               **SMALL)
        clean = run_experiment(replace(cfg, output_dir=str(tmp_path / "clean")))
        assert clean.summary["w_norm_nan"] == []
        monkeypatch.setattr(harness, "run_pde", run_refusing)
        run_experiment(cfg)
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert np.all(np.isnan(rows[:, -1]))
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["summary"]["w_norm_nan"] == [
            [t, "closure refused"] for t in rows[:, 0]]

    def test_desk_lu_budget(self, tmp_path, monkeypatch):
        # the dense LUs of a desk spectrum and diagnose pair, all of the
        # (N - 1)^2 zero-mass matrix: spectrum's 3 gap reports; diagnose's 3
        # gap reports, the 2 shifted profiles of the continuity check (their
        # slow pairs only), gamma = 1 for each subset point, the only shift
        # that the coercivity sweep solves at desk, and 1 for the symmetrized
        # gaps. The semigroup check's LDL^T (sytrf) factors only the K x K
        # block of its inertia certificate, never the (N - 1)^2 matrix
        from fchpulse import spectral

        real_lu, real_ldl = spectral.sla.lu_factor, spectral.sla.lapack.dsytrf
        calls, ldl = [], []

        def counted(a, *args, **kwargs):
            calls.append((experiment, np.shape(a)))
            return real_lu(a, *args, **kwargs)

        def counted_ldl(a, *args, **kwargs):
            ldl.append((experiment, np.shape(a)))
            return real_ldl(a, *args, **kwargs)

        monkeypatch.setattr(spectral.sla, "lu_factor", counted)
        monkeypatch.setattr(spectral.sla.lapack, "dsytrf", counted_ldl)
        for experiment in ("spectrum", "diagnose"):
            run_experiment(ExperimentConfig(
                experiment=experiment, seed=1,
                output_dir=str(tmp_path / experiment)))
        size = ExperimentConfig(experiment="spectrum").diagnostic_grid_points
        square = (size - 1, size - 1)
        assert calls == ([("spectrum", square)] * 3
                         + [("diagnose", square)] * 9)
        assert ldl == [("diagnose", (255, 255))]

    def test_diagnose_schema_and_exit_semantics(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="diagnose",
            n_pulses=3, min_spacing=8.0, grid_points=1024,
            diagnostic_grid_points=512, sample_size=3, s_values=(0.5,),
            output_dir=str(tmp_path / "diag"),
        )
        manifest = run_experiment(cfg)
        records = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
        assert records, "diagnostics must not be empty"
        for rec in records:
            assert set(rec) >= {"hypothesis", "config_id", "constant",
                                "threshold", "pass"}

    def test_diagnose_builds_each_profile_once(self, tmp_path, monkeypatch):
        # the sample (which ends with the equispaced point) is built once,
        # and residual_h4 runs once per sample profile
        from fchpulse.ansatz import PulseManifold

        builds, residuals = [], []
        build, residual_h4 = PulseManifold.build, PulseManifold.residual_h4

        def counted_build(self, config):
            builds.append(tuple(config.positions))
            return build(self, config)

        def counted_residual(self, profile):
            residuals.append(tuple(profile.config.positions))
            return residual_h4(self, profile)

        monkeypatch.setattr(PulseManifold, "build", counted_build)
        monkeypatch.setattr(PulseManifold, "residual_h4", counted_residual)
        cfg = ExperimentConfig(
            experiment="diagnose", domain_d=1.6, n_pulses=2, min_spacing=8.0,
            grid_points=256, diagnostic_grid_points=256, sample_size=2,
            output_dir=str(tmp_path / "diag"),
        )
        run_experiment(cfg)
        lab = Laboratory.from_config(cfg)
        sample = lab.diag_manifold.sample_configurations(2, seed=cfg.seed)
        for c in sample:
            assert builds.count(tuple(c.positions)) == 1, c.positions
        assert sorted(residuals) == sorted(set(residuals))
        assert set(residuals) == {tuple(c.positions) for c in sample}

    def test_gap_collapse_reported_not_fatal(self, tmp_path):
        # deliberately tiny spacing: the dichotomy fails, the run completes
        cfg = ExperimentConfig(
            experiment="spectrum",
            n_pulses=3, min_spacing=2.0, grid_points=1024,
            diagnostic_grid_points=512,
            initial_positions=(1.2, 3.4, 5.8),
            output_dir=str(tmp_path / "collapse"),
        )
        manifest = run_experiment(cfg)
        assert manifest.summary["pass"] is False
        assert (tmp_path / "collapse" / "manifest.json").exists()

    def test_regime_failure_reported_not_fatal(self, tmp_path):
        # with no positive s requested, diagnose checks the symmetrized gap
        # at s = 0.5 and 1; at s = 1 the testbed has tail_scale*rho^3 >= 1,
        # so that record fails with gap_delta and the reason, and the run
        # completes
        cfg = ExperimentConfig(
            experiment="diagnose", diagnostic_grid_points=256, sample_size=2,
            output_dir=str(tmp_path / "diag"), **SMALL
        )
        assert cfg.s_values == (0.0,)
        manifest = run_experiment(cfg)
        assert manifest.summary["pass"] is False
        assert "symmetrized_gap" in manifest.summary["failed_hypotheses"]
        records = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
        sym = [r for r in records if r["hypothesis"] == "symmetrized_gap"]
        assert [r["details"]["s"] for r in sym] == [0.5, 1.0]
        assert "gap_delta" not in sym[0]["details"]
        outside = sym[1]
        assert outside["pass"] is False
        assert outside["details"]["gap_delta"] >= 1.0
        assert "tail_scale*rho^3 < 1" in outside["details"]["failures"][0]


class TestWellReuse:
    """Laboratories of one process share the well solution of their tau."""

    SPECTRAL = dict(SMALL, diagnostic_grid_points=256, sample_size=2,
                    s_values=(0.5,))

    @pytest.fixture
    def fresh_cache(self, monkeypatch):
        # an empty cache of its own, so no earlier test has solved anything
        from fchpulse import harness

        monkeypatch.setattr(harness, "well_solution", lru_cache(maxsize=8)(
            harness.well_solution.__wrapped__))

    def test_same_tau_shares_the_solution(self, fresh_cache):
        cfg = ExperimentConfig(experiment="simulate", **SMALL)
        first, second = Laboratory.from_config(cfg), Laboratory.from_config(cfg)
        for name in ("well", "pulse", "bg1", "bg2"):
            assert getattr(second, name) is getattr(first, name)
        other = Laboratory.from_config(replace(cfg, tau=-0.35))
        assert other.well.tau == -0.35
        for name in ("pulse", "bg1", "bg2"):
            assert getattr(other, name) is not getattr(first, name)

    def test_spectrum_then_diagnose_solve_one_edge_floor(
            self, tmp_path, monkeypatch, fresh_cache):
        from fchpulse import wellmodel

        calls = []
        real = wellmodel.single_pulse_point_spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wellmodel, "single_pulse_point_spectrum", counted)
        for experiment in ("spectrum", "diagnose"):
            run_experiment(ExperimentConfig(
                experiment=experiment, output_dir=str(tmp_path / experiment),
                **self.SPECTRAL
            ))
        assert len(calls) == 1

    def test_second_run_writes_the_bytes_of_a_fresh_process(self, tmp_path):
        # profile and spectrum, each run after another experiment in this
        # process, against each run first in its own interpreter
        configs = {
            experiment: ExperimentConfig(experiment=experiment, **self.SPECTRAL)
            for experiment in ("profile", "spectrum")
        }
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        for tag, experiment in (("warm", "profile"), ("spectrum", "spectrum"),
                                ("profile", "profile")):
            run_experiment(replace(configs[experiment],
                                   output_dir=str(here / tag)))
        code = ("import json, sys; from fchpulse.harness import "
                "ExperimentConfig, run_experiment; "
                "run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])))")
        for experiment, cfg in configs.items():
            fresh_python(code, json.dumps(
                replace(cfg, output_dir=str(fresh / experiment)).as_dict()))
        for name in ("profile/pulse.csv", "profile/background_1.csv",
                     "profile/background_2.csv", "spectrum/spectrum.csv"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
        for experiment in configs:
            docs = [json.loads((d / experiment / "manifest.json").read_text())
                    for d in (here, fresh)]
            assert docs[0]["summary"] == docs[1]["summary"]


class TestCli:
    def test_profile_subcommand(self, tmp_path, capsys):
        code = cli_main(["profile", "--out", str(tmp_path / "p")])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True

    def test_exit_zero_on_flagged_failure(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "experiment": "spectrum", "n_pulses": 3, "min_spacing": 2.0,
            "grid_points": 1024, "diagnostic_grid_points": 512,
            "initial_positions": [1.2, 3.4, 5.8],
        }))
        code = cli_main([
            "spectrum", "--config", str(cfgfile),
            "--out", str(tmp_path / "s"),
        ])
        assert code == 0

    def test_exit_nonzero_on_execution_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"experiment": "profile", "bogus": 1}))
        code = cli_main([
            "profile", "--config", str(cfgfile), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("output_every", 0), ("dt_max", 0.0), ("t_final", 0.0),
    ])
    def test_exit_one_on_a_nonpositive_run_control(self, tmp_path, capsys,
                                                   key, value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({**SMALL, "experiment": "simulate",
                                       key: value}))
        code = cli_main([
            "simulate", "--config", str(cfgfile), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("checkpoint_stride", -1), ("perturbation", -1e-4), ("seed", -1),
    ])
    def test_exit_one_on_a_negative_run_control(self, tmp_path, capsys, key,
                                                value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({**SMALL, "experiment": "simulate",
                                       key: value}))
        code = cli_main([
            "simulate", "--config", str(cfgfile), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("key, value, flags", [
        ("seed", 0, ["--seed", "-1"]), ("n_pulses", 2.5, []),
        ("seed", True, []), ("grid_points", 256.0, []), ("tau", "x", []),
        ("epsilon", "0.05", []), ("s_values", "0", []),
        ("mass_excess_fraction", None, []), ("t_final", float("inf"), []),
        ("dt_max", True, []), ("t_final", True, []),
        ("domain_d", float("inf"), []), ("initial_positions", [4.5], []),
    ])
    def test_exit_one_before_writing_on_a_bad_integer_key(self, tmp_path,
                                                          capsys, key, value,
                                                          flags):
        # `ansatz --seed -1` wrote config.json, then died in the sampler with
        # numpy's traceback; a string or null real key died with a bare
        # TypeError, and the bool and infinite ones were accepted
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({**SMALL, "experiment": "ansatz",
                                       key: value}))
        code = cli_main([
            "ansatz", "--config", str(cfgfile), "--out", str(tmp_path / "x"),
            *flags,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("checkpoint_stride", 1), ("restart_from", "ck"),
    ])
    def test_exit_one_on_a_checkpoint_key_outside_simulate(self, tmp_path,
                                                           capsys, key,
                                                           value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({**SMALL, "experiment": "compare",
                                       key: value}))
        code = cli_main([
            "compare", "--config", str(cfgfile), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("case", ["config", "restart_from", "header"])
    def test_exit_one_on_an_unreadable_file(self, tmp_path, capsys, case):
        # a config or checkpoint that does not exist, or a checkpoint header
        # that is not JSON, raised FileNotFoundError or JSONDecodeError
        (tmp_path / "ck.json").write_text("{not json")
        restart = tmp_path / ("ck" if case == "header" else "absent")
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({**SMALL, "experiment": "simulate",
                                       "restart_from": str(restart)}))
        config = tmp_path / "absent.json" if case == "config" else cfgfile
        code = cli_main([
            "simulate", "--config", str(config), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        named = config if case == "config" else f"{restart}.json"
        assert err.startswith("error: ") and str(named) in err

    @pytest.mark.parametrize("sub", ["", "sub"],
                             ids=["file", "under_a_file"])
    def test_exit_one_on_an_output_dir_that_cannot_be_made(self, tmp_path,
                                                           capsys, sub):
        # an existing file as the directory or as its parent raised
        # FileExistsError or NotADirectoryError from mkdir
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / sub
        with pytest.raises(ConfigError, match="output_dir"):
            run_experiment(ExperimentConfig(experiment="profile",
                                            output_dir=str(out)))
        assert cli_main(["profile", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    def test_exit_one_on_a_config_without_experiment(self, tmp_path, capsys):
        # the missing key raised TypeError from the dataclass constructor
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"tau": -0.3}))
        code = cli_main([
            "profile", "--config", str(cfgfile), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'experiment'" in err
        assert "Traceback" not in err

    def test_plot_data_flag(self, tmp_path):
        code = cli_main([
            "profile", "--out", str(tmp_path / "pd"), "--plot-data",
        ])
        assert code == 0
        assert (tmp_path / "pd" / "pulse.dat").exists()


class TestRestart:
    def test_simulate_checkpoint_then_restart(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="simulate", output_dir=str(tmp_path / "first"),
            checkpoint_stride=2, **SMALL
        )
        manifest = run_experiment(cfg)
        checkpoints = [
            f[:-5] for f in manifest.files
            if f.startswith("checkpoint_") and f.endswith(".json")
        ]
        assert checkpoints, "expected checkpoint files"
        prefix = str(tmp_path / "first" / checkpoints[-1])
        cfg2 = ExperimentConfig(
            experiment="simulate", output_dir=str(tmp_path / "second"),
            restart_from=prefix, **SMALL
        )
        manifest2 = run_experiment(cfg2)
        assert manifest2.summary["pass"] is True

    def test_restart_is_the_same_run(self, tmp_path):
        # an uninterrupted run to T and a run restarted from one of its
        # checkpoints end in the same bits and record the same rows from the
        # checkpoint on
        first, second = tmp_path / "first", tmp_path / "second"
        manifest = run_experiment(ExperimentConfig(
            experiment="simulate", output_dir=str(first), checkpoint_stride=1,
            **SMALL
        ))
        checkpoints = sorted(
            f[:-5] for f in manifest.files
            if f.startswith("checkpoint_") and f.endswith(".json")
        )
        assert len(checkpoints) >= 3
        middle = checkpoints[len(checkpoints) // 2]
        manifest2 = run_experiment(ExperimentConfig(
            experiment="simulate", output_dir=str(second),
            checkpoint_stride=1, restart_from=str(first / middle), **SMALL
        ))
        assert manifest2.summary["steps"] == manifest.summary["steps"]
        last = checkpoints[-1]
        assert last in {f[:-5] for f in manifest2.files}
        assert ((first / f"{last}.bin").read_bytes()
                == (second / f"{last}.bin").read_bytes())
        headers = [json.loads((d / f"{last}.json").read_text())
                   for d in (first, second)]
        for key in ("time", "step_index", "dt", "accept_streak"):
            assert headers[0][key] == headers[1][key]

        import csv as csvmod

        rows = []
        for d in (first, second):
            with open(d / "trajectory.csv") as fh:
                rows.append(list(csvmod.reader(fh)))
        t_restart = json.loads((first / f"{middle}.json").read_text())["time"]
        k = next(i for i, r in enumerate(rows[0][1:], 1)
                 if float(r[0]) == t_restart)
        assert rows[1][1:] == rows[0][k:]


    def test_restart_runs_at_the_config_s_and_dt_max(self, tmp_path):
        # from a checkpoint of an s = 0 run, a restart whose config says
        # s = 0.5 and dt_max = 0.01 runs at those, with the checkpoint's
        # state and kappa
        first = tmp_path / "first"
        manifest = run_experiment(ExperimentConfig(
            experiment="simulate", output_dir=str(first), checkpoint_stride=1,
            **SMALL
        ))
        name = next(f for f in manifest.files
                    if f.startswith("checkpoint_") and f.endswith(".json"))
        prefix = first / name[:-5]
        cfg = ExperimentConfig(
            experiment="simulate", output_dir=str(tmp_path / "second"),
            restart_from=str(prefix),
            **{**SMALL, "s_values": (0.5,), "dt_max": 0.01},
        )
        restarted = run_experiment(cfg)
        lab = Laboratory.from_config(cfg)
        g_sym = gradient_symbols(lab.grid, 0.5)[0]
        state = read_checkpoint(prefix, lab.grid, lab.well)
        traj = run(lab.manifold, g_sym, state, cfg.t_final, 0.01,
                   cfg.output_every)
        assert restarted.summary["steps"] == traj.final_state.step_index
        rows = np.loadtxt(tmp_path / "second" / "trajectory.csv",
                          delimiter=",", skiprows=1)
        t, p, e, m, w = traj.as_arrays()
        assert np.array_equal(rows, np.column_stack([t, p, e, m, w]),
                              equal_nan=True)


class TestCompareStationary:
    def test_equispaced_unperturbed_stationary(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="compare", output_dir=str(tmp_path / "eq"),
            epsilon=0.05, domain_d=0.8, n_pulses=2, min_spacing=5.0,
            grid_points=256, t_final=2.0, s_values=(0.0,), output_every=25,
            perturbation=0.0,
        )
        manifest = run_experiment(cfg)
        # equispaced, unperturbed: the reduced flow is exactly stationary and
        # the extracted pulse positions only show the small settling
        # transient of the profile (no sustained drift)
        assert max(abs(v) for v in manifest.summary["velocity_reduced"]) < 1e-6
        import csv as csvmod

        with open(tmp_path / "eq" / "pde_trajectory.csv") as fh:
            rows = list(csvmod.reader(fh))[1:]
        p = np.array([[float(r[1]), float(r[2])] for r in rows])
        assert np.max(np.abs(p - p[0])) < 0.02

    def test_diagnose_default_scale_all_pass(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="diagnose", diagnostic_grid_points=1024,
            sample_size=4, s_values=(0.5, 1.0),
            output_dir=str(tmp_path / "diag_full"),
        )
        manifest = run_experiment(cfg)
        assert manifest.summary["pass"] is True, manifest.summary


class TestDeviationEnvelope:
    T = np.linspace(0.0, 10.0, 40)
    W = 0.3 * np.exp(-0.7 * T) + 1e-3

    def test_fit_recovers_envelope(self):
        fit = fit_deviation_envelope(self.T, self.W, 1e-4)
        assert fit["fitted"]
        assert fit["k"] == pytest.approx(0.7, rel=1e-4)
        assert fit["M0"] == pytest.approx(10.0, rel=1e-3)

    def test_non_convergent_fit_is_unfitted(self, monkeypatch):
        # the real least-squares fit, stopped after two evaluations
        from fchpulse import harness

        real = harness.curve_fit
        monkeypatch.setattr(
            harness, "curve_fit",
            lambda *args, **kw: real(*args, **{**kw, "maxfev": 2}),
        )
        assert fit_deviation_envelope(self.T, self.W, 1e-4) == {"fitted": False}
