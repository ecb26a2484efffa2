"""Gradient-flow stepping, pulse extraction, and the reduced model."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from fchpulse import (
    ChecksumError,
    ExtractionError,
    FchError,
    Grid,
    GridMismatchError,
    InvalidFieldError,
    ReducedModel,
    RefinementError,
    RunManifest,
    ScalarField,
    ValidationError,
    alpha_scaling,
    extract_pulse_positions,
    gradient_symbols,
    integrate_reduced,
    mass,
    norm,
    pulse_velocity_projection,
    run,
    step,
    velocity_scale,
)
from fchpulse import core
from fchpulse.core import (
    cosine_coeffs,
    cosine_synth,
    inner_product_x,
)
from fchpulse.dynamics import (
    ENERGY_SLACK,
    SimulationState,
    flow_terms,
)
from fchpulse.harness import read_checkpoint, write_checkpoint

from conftest import (apply_symbol, count_background_work, dissipation,
                      energy, jacobian_at_equispaced, reduced_equispaced,
                      spectral_derivative, variational_derivative)

# The largest step of a run at the config default (ExperimentConfig.dt_max).
DT_MAX = 0.02


@pytest.fixture(scope="module")
def reduced(pulse, small_manifold):
    return ReducedModel.from_pulse(pulse, small_manifold.params)


def pair_energy_asymptote(pulse):
    """(A, B) of the pair-energy asymptote E(g) e^{2rg} - A g -> B.

    A is the closed form W'''(b_-)^2 phi_max^4 / 2. B comes from adaptive
    quadrature of the defining integral
        E(g) = 1/2 int [W'(b_-+a) + W'(b_-+b) - W'(b_-+a+b)]^2 dz,
    a = phi_bar(z), b = phi_bar(z - g), at gap 16, where E e^{2rg} - A g is
    within 1e-5 of its limit.
    """
    well = pulse.well
    rate = np.sqrt(well.alpha_minus)
    slope = 0.5 * well.d3W(well.b_minus) ** 2 * pulse.phi_max**4
    gap = 16.0

    def density(z):
        a, b = pulse.pulse_bar(z), pulse.pulse_bar(z - gap)
        u = well.b_minus
        return 0.5 * (well.dW(u + a) + well.dW(u + b) - well.dW(u + a + b)) ** 2

    e_gap, _ = quad(density, -12.0, gap + 12.0, points=[0.0, 0.5 * gap, gap],
                    epsabs=0.0, epsrel=1e-10, limit=200)
    return slope, e_gap * np.exp(2.0 * rate * gap) - slope * gap


class AttractiveModel(ReducedModel):
    """The reduced law with the sign of the pair force flipped."""

    def force(self, g):
        return -super().force(g)


def noise_field(grid, amplitude, seed=0, kmax=40):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.num_points)
    coeffs[3 : kmax + 3] = rng.standard_normal(kmax)
    f = ScalarField(grid, cosine_synth(coeffs))
    return f * (amplitude / norm(f, "l2"))


class TestStep:
    def test_start_forms_the_run_constants(self, small_manifold, well):
        """kappa = 2 max|W''(u)|^2 of the initial field; first dt 0.1 h^2."""
        prof = small_manifold.build(small_manifold.configuration([4.5, 12.0]))
        u0 = prof.phi + noise_field(small_manifold.grid, 1e-3, seed=3)
        st = SimulationState.start(u0, well)
        kappa = 2.0 * float(np.max(np.abs(well.d2W(u0.values)))) ** 2
        assert st.kappa == kappa
        assert st.dt == 0.1 * small_manifold.grid.spacing**2
        assert (st.time, st.step_index, st.accept_streak) == (0.0, 0, 0)

    def test_constant_equilibrium(self, small_manifold, well):
        grid = small_manifold.grid
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus + 0.01))
        g_sym = gradient_symbols(grid, 0.0)[0]
        st = dataclasses.replace(SimulationState.start(u, well), dt=1e-3)
        st2 = step(st, well, g_sym, DT_MAX)
        # constants are equilibria of the projected flow
        assert np.max(np.abs(st2.u.values - u.values)) < 1e-12

    def test_energy_never_increases(self, small_manifold, well):
        prof = small_manifold.build(small_manifold.configuration([4.5, 12.0]))
        grid = small_manifold.grid
        u0 = prof.phi + noise_field(grid, 1e-3, seed=3)
        g_sym = gradient_symbols(grid, 0.0)[0]
        st = dataclasses.replace(SimulationState.start(u0, well), dt=1e-4)
        energies = [st.energy]
        for _ in range(400):
            st = step(st, well, g_sym, DT_MAX)
            energies.append(st.energy)
        assert np.all(np.diff(energies) <= 1e-10)

    def test_mass_conserved_every_s(self, small_manifold, well):
        prof = small_manifold.build(small_manifold.configuration([4.5, 12.0]))
        grid = small_manifold.grid
        for s in (0.0, 0.5, 1.0):
            g_sym = gradient_symbols(grid, s)[0]
            u0 = prof.phi + noise_field(grid, 1e-4, seed=int(10 * s))
            st = dataclasses.replace(SimulationState.start(u0, well),
                                     dt=1e-4)
            m0 = mass(u0, well.b_minus)
            for _ in range(1500):
                st = step(st, well, g_sym, 1e-3)
            drift = abs(mass(st.u, well.b_minus) - m0) / abs(m0)
            assert drift < 1e-9

    def test_dissipation_identity(self, small_manifold, well):
        # dJ/dt = -||G1 grad J||^2 within 2% on a resolved transient
        prof = small_manifold.build(small_manifold.configuration([4.5, 12.0]))
        grid = small_manifold.grid
        g_sym = gradient_symbols(grid, 0.0)[0]
        u0 = prof.phi + noise_field(grid, 1e-3, seed=5)
        dt = 2e-4
        st = dataclasses.replace(SimulationState.start(u0, well), dt=dt)
        rel_errs = []
        for k in range(600):
            prev_e, prev_d = st.energy, dissipation(st, g_sym)
            st = step(st, well, g_sym, dt)
            if k % 5 == 0 and prev_d > 1e-8:
                rate = (st.energy - prev_e) / (st.time - (st.time - dt))
                midpoint = -0.5 * (prev_d + dissipation(st, g_sym))
                rel_errs.append(abs(rate - midpoint) / abs(midpoint))
        assert np.median(rel_errs) < 0.02
        assert np.quantile(rel_errs, 0.9) < 0.02


def halvings(state, nxt):
    """The dt halvings of the step from state to nxt."""
    return round(np.log2(state.dt / (nxt.time - state.time)))


def perturbed_testbed(manifold, well, s=0.0, amplitude=1e-3, seed=3):
    """(state, G's symbol) at the perturbed testbed point."""
    prof = manifold.build(manifold.configuration([4.5, 12.0]))
    u0 = prof.phi + noise_field(manifold.grid, amplitude, seed=seed)
    g_sym = gradient_symbols(manifold.grid, s)[0]
    return dataclasses.replace(SimulationState.start(u0, well), dt=1e-4), g_sym


class TestFusedStep:
    """`step` advances the cosine coefficients of u, forms J and grad J from
    them in one pass, and carries the coefficients of u and grad J to the
    next step."""

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_carried_values_equal_the_public_functions(self, small_manifold,
                                                       well, s):
        """Bit for bit those of `flow_terms` at the carried coefficients, and
        u is their synthesis."""
        state, g_sym = perturbed_testbed(small_manifold, well, s)
        for _ in range(3):
            state = step(state, well, g_sym, DT_MAX)
            e, g_hat = flow_terms(state.u_hat, state.u, well)
            assert state.energy == e
            assert np.array_equal(state.grad_hat, g_hat)
            assert np.array_equal(state.u.values, cosine_synth(state.u_hat))

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_carried_values_agree_with_the_nodal_functions(
            self, small_manifold, well, s):
        """The carried coefficients differ from cosine_coeffs(u) by the
        rounding of one synthesis and analysis, and the nodal functions start
        from cosine_coeffs(u). Over 50 steps the worst measured gaps were
        5.3e-15 relative in J, 2.4e-16 max|u_hat| in u_hat, 0.27 of the
        eps kappa_max^4 max|u| rounding floor of a fourth derivative in
        grad_hat, and 1.4e-11 relative in the dissipation (at s = 1, where
        G = k^2 weighs the finest modes' rounding most); the bounds below
        leave room above those."""
        state, g_sym = perturbed_testbed(small_manifold, well, s)
        eps = np.finfo(float).eps
        kappa4 = small_manifold.grid.wavenumbers[-1] ** 4
        for _ in range(3):
            state = step(state, well, g_sym, DT_MAX)
            u = state.u
            g = variational_derivative(u, well)
            umax = np.max(np.abs(u.values))
            assert_allclose(state.energy, energy(u, well), rtol=1e-13)
            assert_allclose(dissipation(state, g_sym),
                            inner_product_x(apply_symbol(g_sym, g), g),
                            rtol=1e-10)
            assert_allclose(state.u_hat, cosine_coeffs(u.values), rtol=0,
                            atol=8 * eps * umax)
            assert_allclose(state.grad_hat, cosine_coeffs(g.values), rtol=0,
                            atol=eps * kappa4 * umax)

    def test_energy_and_gradient_keep_the_spectral_definitions(
            self, small_manifold, well):
        u = perturbed_testbed(small_manifold, well)[0].u
        w1 = spectral_derivative(u, 2).values - well.dW(u.values)
        g = (spectral_derivative(ScalarField(u.grid, w1), 2).values
             - well.d2W(u.values) * w1)
        assert energy(u, well) == 0.5 * float(np.sum(u.grid.quad_weights
                                                      * w1 * w1))
        assert np.array_equal(variational_derivative(u, well).values, g)

    def test_step_transform_counts(self, small_manifold, well, monkeypatch):
        """4 cosine transforms for a step accepted at its first trial, and 2
        more for each rejected trial. Without stabilization (kappa = 0) a
        step of dt = 1e4 raises the energy, so its trial is rejected."""
        state, g_sym = perturbed_testbed(small_manifold, well)
        state = step(state, well, g_sym, DT_MAX)
        calls = []
        real = core.dct

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "dct", counting)
        nxt = step(state, well, g_sym, DT_MAX)
        assert halvings(state, nxt) == 0
        assert len(calls) == 4
        calls.clear()
        big = dataclasses.replace(state, dt=1e4, kappa=0.0)
        nxt = step(big, well, g_sym, DT_MAX)
        rejected = halvings(big, nxt)
        assert rejected >= 1
        assert len(calls) == 4 + 2 * rejected

    def test_build_evaluates_the_background_once(self, small_manifold,
                                                 monkeypatch):
        """One lattice evaluation per translate on the full grid, and no trig
        table of the grid once the manifold's lattice table exists."""
        sizes, tables = count_background_work(monkeypatch, small_manifold)
        small_manifold.build(small_manifold.configuration([4.5, 12.0]))
        full = sizes.count(small_manifold.grid.num_points)
        assert full == small_manifold.n
        assert tables == []


class TestStepProperties:
    """Invariants of `step` over random zero-mass perturbations and dt."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), amplitude=st.floats(1e-5, 1e-2),
           dt=st.floats(1e-5, 2e-2), s=st.sampled_from([0.0, 0.5, 1.0]))
    def test_mass_kept_and_energy_never_rises(self, small_manifold, well,
                                              seed, amplitude, dt, s):
        state, g_sym = perturbed_testbed(small_manifold, well, s, amplitude,
                                         seed)
        state = dataclasses.replace(state, dt=dt)
        m0 = mass(state.u, well.b_minus)
        for _ in range(3):
            nxt = step(state, well, g_sym, DT_MAX)
            assert energy(nxt.u, well) <= energy(state.u, well) + ENERGY_SLACK
            assert abs(mass(nxt.u, well.b_minus) - m0) <= 1e-12 * abs(m0)
            state = nxt


    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), amplitude=st.floats(1e-5, 1e-2),
           dt=st.floats(1e-5, 2e-2), s=st.sampled_from([0.0, 0.5, 1.0]))
    def test_mode_zero_is_exact_through_halvings(self, small_manifold, well,
                                                  seed, amplitude, dt, s):
        """g_0 = 0, so u_hat[0] (the mass) keeps its bits, also across
        rejected trials: the third step has dt = 1e4 without stabilization,
        which halves dt before a trial lowers the energy."""
        state, g_sym = perturbed_testbed(small_manifold, well, s, amplitude,
                                         seed)
        state = step(dataclasses.replace(state, dt=dt), well, g_sym, DT_MAX)
        a0 = state.u_hat[0]
        rejected = 0
        for k in range(5):
            prev = (dataclasses.replace(state, dt=1e4, kappa=0.0) if k == 2
                    else state)
            # the steps after the unstabilized one are stabilized again
            nxt = dataclasses.replace(step(prev, well, g_sym, DT_MAX),
                                      kappa=state.kappa)
            rejected += halvings(prev, nxt)
            assert nxt.u_hat[0] == a0
            assert nxt.energy <= state.energy + ENERGY_SLACK
            assert energy(nxt.u, well) <= energy(state.u, well) + ENERGY_SLACK
            state = nxt
        assert rejected >= 1


class TestExtraction:
    def test_recovers_known_positions(self, small_manifold):
        p_true = np.array([4.37, 11.81])
        u = small_manifold.build(small_manifold.configuration(p_true)).u_n
        found = extract_pulse_positions(
            u, 2, small_manifold.well, small_manifold.pulse
        )
        h = small_manifold.grid.spacing
        assert np.max(np.abs(found - p_true)) < h**2
        assert np.all(np.diff(found) > 0)

    def test_wrong_count_raises_with_found(self, small_manifold, well):
        grid = small_manifold.grid
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        with pytest.raises(ExtractionError) as err:
            extract_pulse_positions(u, 2, well, small_manifold.pulse)
        assert err.value.found == 0

    def test_noise_robustness(self, small_manifold):
        p_true = np.array([4.5, 12.0])
        u = small_manifold.build(small_manifold.configuration(p_true)).u_n
        base = extract_pulse_positions(
            u, 2, small_manifold.well, small_manifold.pulse
        )
        noisy = u + noise_field(small_manifold.grid, 1e-6, seed=9, kmax=80)
        found = extract_pulse_positions(
            noisy, 2, small_manifold.well, small_manifold.pulse
        )
        assert np.max(np.abs(found - base)) < 1e-4


class TestReducedModel:
    def test_equispaced_stationary(self, reduced, pulse):
        p_eq = reduced_equispaced(reduced, 2)
        v = reduced.velocity(p_eq)
        alpha = pulse.well.alpha_minus
        tail_coefficient = 2.0 * alpha * pulse.phi_max**2 / pulse.kernel_norm**2
        delta_spacing = np.exp(-np.sqrt(alpha) * (p_eq[1] - p_eq[0]))
        assert np.max(np.abs(v)) <= 10 * delta_spacing**1.5 * tail_coefficient

    def test_mirror_antisymmetry(self, reduced):
        length = reduced.domain_length
        p = np.array([0.5 * length - 2.5, 0.5 * length + 2.5])
        v = reduced.velocity(p)
        assert v[0] == pytest.approx(-v[1], rel=1e-12)

    def test_repulsion_sign(self, reduced):
        # the nearer neighbour pushes pulses apart
        p = np.array([4.5, 12.0])  # interior gap tighter than shadows
        v = reduced.velocity(p)
        assert v[0] < 0 < v[1]

    def test_admissibility_guard(self, reduced):
        with pytest.raises(Exception):
            reduced.velocity(np.array([1.0, 14.0]))

    def test_projection_middle_pulse_zero_by_symmetry(self, manifold_factory):
        man = manifold_factory(length=48.0, n=3, ell=8.0, num_points=512,
                               excess=0.01)
        p = np.array([24.0 - 9.0, 24.0, 24.0 + 9.0])
        v = pulse_velocity_projection(man, man.configuration(p))
        assert abs(v[1]) < 1e-8
        assert v[0] == pytest.approx(-v[2], abs=1e-8)

    def test_velocity_tail_scaling(self, reduced, pulse):
        # at gaps >= 10 the speed follows the asymptotic pair force
        # F(g) = -d/dg[(A g + B) e^{-2rg}] / ||phi_h'||^2; a wide domain keeps
        # the shadow couplings negligible
        wide = ReducedModel(
            pair=reduced.pair, kernel_norm=reduced.kernel_norm,
            domain_length=60.0, min_spacing=5.0,
        )
        slope, offset = pair_energy_asymptote(pulse)
        rate = np.sqrt(pulse.well.alpha_minus)

        def force(g):
            return ((2.0 * rate * (slope * g + offset) - slope)
                    * np.exp(-2.0 * rate * g) / pulse.kernel_norm**2)

        for gap in (10.0, 12.0, 14.0, 20.0):
            p = np.array([30.0 - 0.5 * gap, 30.0 + 0.5 * gap])
            v = wide.velocity(p, check=False)[1]
            predicted = force(gap) - force(2.0 * (60.0 - p[1]))
            assert v == pytest.approx(predicted, rel=0.01)


class TestJacobian:
    def test_single_pulse(self, reduced, pulse):
        # gamma = -F'(L)/r at the single-pulse spacing L = 16, where the pair
        # force is F(g) = (2r(A g + B) - A) e^{-2rg} / ||phi_h'||^2
        mat, eigs_num, closed = jacobian_at_equispaced(reduced, 1)
        slope, offset = pair_energy_asymptote(pulse)
        rate = np.sqrt(pulse.well.alpha_minus)
        length = reduced.domain_length
        gamma = (4.0 * (rate * (slope * length + offset) - slope)
                 * np.exp(-2.0 * rate * length) / pulse.kernel_norm**2)
        assert mat.shape == (1, 1)
        assert eigs_num[0] == pytest.approx(-gamma, rel=1e-3)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_closed_form_set(self, pulse, manifold_factory, n):
        man = manifold_factory(length=8.0 * (n + 1), n=n, ell=6.0,
                               num_points=1024)
        model = ReducedModel.from_pulse(pulse, man.params)
        _, eigs_num, closed = jacobian_at_equispaced(model, n)
        assert np.max(np.abs(eigs_num - closed)) < 1e-12
        assert np.all(eigs_num < 0)


class TestAlphaScaling:
    def test_zero_matches_kernel_norm(self, pulse):
        grid = Grid(160.0, 2048)
        a0 = alpha_scaling(0.0, grid, pulse)
        assert a0 == pytest.approx(pulse.kernel_norm, rel=1e-6)

    def test_strictly_decreasing(self, pulse):
        grid = Grid(160.0, 1024, h_max=0.2)
        alphas = [alpha_scaling(s, grid, pulse)
                  for s in np.linspace(0.0, 1.0, 11)]
        assert np.all(np.diff(alphas) < 0.0)

    def test_s_one_closed_form(self, pulse, well):
        from fchpulse import zero_mass_projection

        grid = Grid(160.0, 2048)
        a1 = alpha_scaling(1.0, grid, pulse)
        phi_field = ScalarField(
            grid, well.b_minus + pulse.pulse_bar(grid.nodes - 80.0)
        )
        predicted = (np.pi / grid.length) * norm(
            zero_mass_projection(phi_field), "l2"
        )
        assert a1 == pytest.approx(predicted, rel=0.05)


class TestIntegrateReduced:
    def test_s_zero_bitwise(self, reduced):
        p0 = np.array([4.6, 11.8])
        t_eval = np.linspace(0.0, 5.0, 21)
        sol_a, _ = integrate_reduced(reduced, p0, 5.0,
                                     velocity_scale=1.0, t_eval=t_eval)
        sol_b, _ = integrate_reduced(reduced, p0, 5.0,
                                     velocity_scale=1.0, t_eval=t_eval)
        assert np.array_equal(sol_a.y, sol_b.y)

    def test_time_rescaling_equivalence(self, reduced, pulse,
                                        small_manifold):
        p0 = np.array([4.6, 11.8])
        t_final = 40.0
        grid = small_manifold.grid
        t_ref = np.linspace(0.0, t_final, 41)
        sol0, _ = integrate_reduced(reduced, p0, t_final,
                                    velocity_scale=1.0, t_eval=t_ref)
        worst = 0.0
        for s in (0.5, 1.0):
            scale = velocity_scale(s, grid, pulse)
            sol_s, _ = integrate_reduced(
                reduced, p0, t_final / scale, velocity_scale=scale
            )
            vals = sol_s.sol(t_ref / scale)
            worst = max(worst, float(np.max(np.abs(vals - sol0.sol(t_ref)))))
        assert worst < 0.01 * small_manifold.params.min_spacing

    def test_relaxation_rate_matches_true_linearization(self, reduced):
        # linearized decay toward the equispaced point, checked against the
        # finite-difference Jacobian of the actual velocity field (the mirror
        # closure doubles the boundary-gap sensitivity, so this differs from
        # the fixed-shadow tridiagonal form by construction)
        p_eq = reduced_equispaced(reduced, 2)
        h = 1e-6
        jac = np.empty((2, 2))
        for j in range(2):
            e = np.eye(2)[j]
            jac[:, j] = (
                reduced.velocity(p_eq + h * e) - reduced.velocity(p_eq - h * e)
            ) / (2 * h)
        true_eigs = np.sort(np.linalg.eigvals(jac).real)
        p0 = p_eq + np.array([0.3, -0.3])
        t_final = 2.0 / abs(true_eigs[-1])
        t_eval = np.linspace(0.0, t_final, 400)
        sol, _ = integrate_reduced(reduced, p0, t_final, t_eval=t_eval)
        dev = np.abs(sol.y[0] - p_eq[0])
        sel = (dev > 1e-4) & (dev < 0.05)
        rate = -np.polyfit(t_eval[sel], np.log(dev[sel]), 1)[0]
        # the antisymmetric perturbation decays at the fast eigenvalue
        assert rate == pytest.approx(abs(true_eigs[0]), rel=0.1)
        # relation to the fixed-shadow tridiagonal form: the interior scale
        # differs by 2*rate and the boundary rows by the mirror doubling
        _, tri_eigs, _ = jacobian_at_equispaced(reduced, 2)
        assert abs(true_eigs[0]) > abs(tri_eigs[0])

    def test_exit_event(self, reduced):
        # the genuine tail interaction is repulsive, so the admissible set is
        # forward invariant; exercise the boundary-exit plumbing with a
        # sign-flipped (attractive) model instead
        attractive = AttractiveModel(
            pair=reduced.pair, kernel_norm=reduced.kernel_norm,
            domain_length=reduced.domain_length,
            min_spacing=reduced.min_spacing,
        )
        p0 = np.array([5.1, 10.5])
        sol, t_exit = integrate_reduced(attractive, p0, 500.0)
        assert t_exit is not None

    def test_admissible_set_forward_invariant(self, reduced):
        # repulsion: the minimum gap never decreases along the genuine flow
        p0 = np.array([2.6, 8.0])
        t_eval = np.linspace(0.0, 300.0, 60)
        sol, t_exit = integrate_reduced(reduced, p0, 300.0, t_eval=t_eval)
        assert t_exit is None
        gaps = np.array([np.min(reduced.gaps(sol.y[:, j]))
                         for j in range(sol.y.shape[1])])
        assert np.all(np.diff(gaps) >= -1e-9)


def fresh_run(manifold):
    """(state, G's symbol) of an s = 0 run from the testbed point."""
    u0 = manifold.build(manifold.configuration([4.5, 12.0])).phi
    g_sym = gradient_symbols(manifold.grid, 0.0)[0]
    return SimulationState.start(u0, manifold.well), g_sym


def output_dir(path):
    """The manifest of a run into path, which the file writers record in."""
    return RunManifest(out=path, config_hash="", version="", started="")


def write_fresh_checkpoint(manifold, path):
    """Write the start of `fresh_run` as the checkpoint path/ck; return it."""
    state = fresh_run(manifold)[0]
    write_checkpoint(output_dir(path), "ck", state)
    return state


def read_fresh_checkpoint(manifold, prefix):
    return read_checkpoint(prefix, manifold.grid, manifold.well)


class TestRun:
    def test_trajectory_records_and_exit_fields(self, small_manifold):
        state, g_sym = fresh_run(small_manifold)
        traj = run(small_manifold, g_sym, state, 0.5, DT_MAX, 10)
        t, p, e, m, w = traj.as_arrays()
        assert len(t) == len(p) == len(e)
        assert np.all(np.diff(e) <= 1e-10)
        assert traj.t_exit is None

    def test_kappa_is_carried_along_a_run(self, small_manifold):
        state, g_sym = fresh_run(small_manifold)
        recorded = []
        traj = run(small_manifold, g_sym, state, 0.5, DT_MAX, 10,
                   recorded.append)
        assert len(recorded) > 1
        assert {st.kappa for st in recorded + [traj.final_state]} == {
            state.kappa}

    def test_record_without_a_manifold_point_reads_nan(self, small_manifold,
                                                       monkeypatch):
        # extracted positions whose closure fails record a NaN distance to
        # the manifold with the time and the message, and the run goes on
        state, g_sym = fresh_run(small_manifold)

        def refuse(self, config):
            raise RefinementError("boundary residuals exceed the tolerance")

        monkeypatch.setattr(type(small_manifold), "build", refuse)
        traj = run(small_manifold, g_sym, state, 0.05, DT_MAX, 10)
        w = traj.as_arrays()[4]
        assert len(w) > 1 and np.all(np.isnan(w))
        assert traj.w_norm_nan == [
            (t, "boundary residuals exceed the tolerance") for t in traj.times]
        assert traj.t_exit is None

    def test_record_passes_other_errors_on(self, small_manifold, monkeypatch):
        # only a configuration without a manifold point reads NaN: any other
        # error of the build is a fault, and the run raises it
        state, g_sym = fresh_run(small_manifold)

        def broken(self, config):
            raise InvalidFieldError("field has non-finite values")

        monkeypatch.setattr(type(small_manifold), "build", broken)
        with pytest.raises(InvalidFieldError):
            run(small_manifold, g_sym, state, 0.05, DT_MAX, 10)

    def test_no_step_exceeds_dt_max(self, small_manifold):
        # a state whose next dt exceeds dt_max (a checkpoint restarted at a
        # smaller dt_max, say) takes its first step at dt_max
        state, g_sym = fresh_run(small_manifold)
        traj = run(small_manifold, g_sym, dataclasses.replace(state, dt=0.05),
                   3e-3, 1e-3, 1)
        assert np.all(np.diff(traj.times) <= 1e-3)
        assert traj.final_state.step_index == 3

    def test_checkpoint_roundtrip(self, small_manifold, tmp_path):
        well = small_manifold.well
        prof = small_manifold.build(small_manifold.configuration([4.5, 12.0]))
        # not cosine_coeffs(u): the read must return the written u_hat
        u_hat = cosine_coeffs(prof.phi.values) * (1.0 + 1e-15)
        st = SimulationState.at(prof.phi, u_hat, well, 1.25, 3e-4, 17, 3,
                                0.1 + 2e-17)
        manifest = output_dir(tmp_path)
        write_checkpoint(manifest, "ck", st)
        assert manifest.files == ["ck.json", "ck.bin"]
        st2 = read_checkpoint(tmp_path / "ck", small_manifold.grid, well)
        # the read state is complete, with the terms of the written one:
        # equality holds time, dt, step index, accept streak, kappa and energy
        assert st2 == st
        assert np.array_equal(st2.u.values, prof.phi.values)
        assert np.array_equal(st2.u_hat, u_hat)
        assert np.array_equal(st2.grad_hat, st.grad_hat)

    @pytest.mark.parametrize("key", ["kappa", "accept_streak", "num_points",
                                     "length", "layout", "sha256"])
    def test_checkpoint_without_run_state_refused(self, small_manifold,
                                                  tmp_path, key):
        write_fresh_checkpoint(small_manifold, tmp_path)
        path = tmp_path / "ck.json"
        header = json.loads(path.read_text())
        del header[key]
        path.write_text(json.dumps(header))
        with pytest.raises(FchError, match=f"lacks {key}"):
            read_fresh_checkpoint(small_manifold, tmp_path / "ck")

    @pytest.mark.parametrize("key, value", [
        ("dt", "0.01"), ("kappa", None), ("step_index", 2.5),
        ("length", "16"), ("time", True), ("accept_streak", 1.0),
        ("num_points", "256"), ("dt", float("inf")), ("kappa", float("nan")),
    ])
    def test_checkpoint_value_of_the_wrong_type_refused(self, small_manifold,
                                                        tmp_path, key, value):
        # these were read; a restart from them raised a bare TypeError (a
        # string dt in the step-size comparison, a null kappa) or
        # ValueError (a float step index in the {:09d} checkpoint name),
        # and a string length broke the grid-mismatch message's :g format
        write_fresh_checkpoint(small_manifold, tmp_path)
        path = tmp_path / "ck.json"
        header = json.loads(path.read_text())
        header[key] = value
        path.write_text(json.dumps(header))
        with pytest.raises(ValidationError, match=f"^{key} of "):
            read_fresh_checkpoint(small_manifold, tmp_path / "ck")

    def test_checkpoint_header_not_an_object_refused(self, small_manifold,
                                                     tmp_path):
        # a number raised a bare TypeError from the missing-key test
        write_fresh_checkpoint(small_manifold, tmp_path)
        (tmp_path / "ck.json").write_text("16")
        with pytest.raises(FchError, match="not a JSON object"):
            read_fresh_checkpoint(small_manifold, tmp_path / "ck")

    def test_checkpoint_in_the_nodal_layout_refused(self, small_manifold,
                                                    tmp_path):
        """A checkpoint of u alone (N values, no layout key), with a valid
        digest, is refused for the missing key, not read as a grid of N/2
        points; so is one whose layout names u alone."""
        state = write_fresh_checkpoint(small_manifold, tmp_path)
        data = state.u.values.astype("<f8").tobytes()
        (tmp_path / "ck.bin").write_bytes(data)
        path = tmp_path / "ck.json"
        header = json.loads(path.read_text())
        del header["layout"]
        header["sha256"] = hashlib.sha256(data).hexdigest()
        path.write_text(json.dumps(header))
        with pytest.raises(FchError, match="lacks layout") as err:
            read_fresh_checkpoint(small_manifold, tmp_path / "ck")
        assert not isinstance(err.value, GridMismatchError)
        header["layout"] = "u"
        path.write_text(json.dumps(header))
        with pytest.raises(FchError, match="layout 'u'") as err:
            read_fresh_checkpoint(small_manifold, tmp_path / "ck")
        assert not isinstance(err.value, GridMismatchError)

    def test_checkpoint_with_a_flipped_byte_refused(self, small_manifold,
                                                    tmp_path):
        write_fresh_checkpoint(small_manifold, tmp_path)
        path = tmp_path / "ck.bin"
        data = bytearray(path.read_bytes())
        recorded = hashlib.sha256(data).hexdigest()
        data[len(data) // 2] ^= 0x01
        path.write_bytes(data)
        with pytest.raises(ChecksumError) as err:
            read_fresh_checkpoint(small_manifold, tmp_path / "ck")
        assert isinstance(err.value, FchError)
        assert recorded in str(err.value)
        assert hashlib.sha256(data).hexdigest() in str(err.value)

    def test_checkpoint_resolution_mismatch(self, small_manifold, tmp_path):
        write_fresh_checkpoint(small_manifold, tmp_path)
        coarse = Grid(small_manifold.grid.length, 129, h_max=0.4)
        with pytest.raises(GridMismatchError, match="256 points.* 129"):
            read_checkpoint(tmp_path / "ck", coarse, small_manifold.well)

    def test_checkpoint_length_mismatch(self, small_manifold, tmp_path):
        # the same N on a longer domain has .bin bytes of the right size, and
        # was read stretched onto L = 17
        write_fresh_checkpoint(small_manifold, tmp_path)
        longer = Grid(17.0, small_manifold.grid.num_points, h_max=0.4)
        with pytest.raises(GridMismatchError, match="length 16, .* on 17"):
            read_checkpoint(tmp_path / "ck", longer, small_manifold.well)


class TestPdeRepulsion:
    def test_extracted_velocity_pushes_pulses_apart(self, small_manifold):
        # interior gap tighter than the wall gaps: the pair separates
        state, g_sym = fresh_run(small_manifold)
        traj = run(small_manifold, g_sym, state, 4.0, DT_MAX, 25)
        t, p, _, _, _ = traj.as_arrays()
        sel = t >= 2.0
        v1 = np.polyfit(t[sel], p[sel, 0], 1)[0]
        v2 = np.polyfit(t[sel], p[sel, 1], 1)[0]
        assert v1 < 0 < v2
