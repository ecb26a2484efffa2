"""Double well, homoclinic pulse, far-field fit, and background solutions."""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev
from numpy.testing import assert_allclose

import fchpulse.wellmodel as wellmodel
from fchpulse import (
    DomainError,
    ExperimentConfig,
    ToleranceError,
    WellError,
    default_well,
    far_field_params,
    run_experiment,
    solve_background,
    solve_homoclinic,
)
from fchpulse.core import Grid, cosine_coeffs, mode_derivative
from fchpulse.wellmodel import (
    _GL_NODES,
    _GL_WEIGHTS,
    LANE_CHUNK,
    _fd_residual,
    _gauss_panels,
    _HomoclinicInverter,
)

from conftest import (
    bar_jet,
    exact_tail_amplitude,
    far_field_samples,
    gauss_panels,
    phi_bar_oracle,
)


class TestDefaultWell:
    def test_values_at_default_tilt(self, well):
        assert well.W(1.0) == pytest.approx(-0.4)
        assert well.alpha_minus == pytest.approx(1.4)
        assert well.alpha_plus == pytest.approx(2.6)

    def test_critical_points(self, well):
        for u in (-1.0, 1.0, well.tau):
            assert well.dW(u) == pytest.approx(0.0, abs=1e-14)

    def test_rejected_tilts(self):
        with pytest.raises(WellError):
            default_well(0.0)
        with pytest.raises(WellError):
            default_well(-1.0)
        with pytest.raises(WellError):
            default_well(0.2)

    def test_shifted_form_matches(self, well):
        # direct evaluation loses accuracy below e ~ 1e-8 (that is what the
        # shifted form is for); compare where both are reliable
        e = np.array([1e-5, 1e-3, 0.3, 1.1])
        assert_allclose(well.W_bar(e), well.W(well.b_minus + e),
                        rtol=1e-9, atol=1e-16)

    def test_derivative_chain(self, well):
        u = np.linspace(-1.1, 1.1, 7)
        h = 1e-6
        fd = (well.W(u + h) - well.W(u - h)) / (2 * h)
        assert_allclose(fd, well.dW(u), atol=1e-8)
        fd2 = (well.dW(u + h) - well.dW(u - h)) / (2 * h)
        assert_allclose(fd2, well.d2W(u), atol=1e-8)


def gauss_panels_oracle(fn, a, b, max_len=4.0):
    """One integrand call per panel: the composite rule that the scalar
    `gauss_panels` replaced, kept as its bitwise oracle."""
    def panel(lo, hi):
        if hi <= lo:
            return 0.0
        t = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (lo + hi)
        return 0.5 * (hi - lo) * float(np.sum(_GL_WEIGHTS * fn(t)))

    n = max(1, int(np.ceil((b - a) / max_len)))
    edges = np.linspace(a, b, n + 1)
    return sum(panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.fixture(scope="module")
def inverter(well):
    return _HomoclinicInverter(well)


class TestGaussPanels:
    """The batched rule gives every lane the bits of the scalar rule, which
    gives the bits of one integrand call per panel."""

    @settings(max_examples=40, deadline=None)
    @given(frac=st.floats(0.0, 1.0))
    def test_upper_branch(self, inverter, frac):
        t_hi = frac * inverter.t_mid
        got = _gauss_panels(inverter._upper_integrand, 0.0, t_hi, max_len=0.25)
        ref = gauss_panels(inverter._upper_integrand, 0.0, t_hi, max_len=0.25)
        per_panel = gauss_panels_oracle(inverter._upper_integrand, 0.0, t_hi,
                                        0.25)
        assert got.shape == () and got == ref == per_panel

    @settings(max_examples=40, deadline=None)
    @given(depth=st.floats(0.0, 80.0))
    def test_lower_branch(self, inverter, depth):
        v = inverter.v_mid - depth
        got = _gauss_panels(inverter._lower_integrand, v, inverter.v_mid)
        ref = gauss_panels(inverter._lower_integrand, v, inverter.v_mid)
        per_panel = gauss_panels_oracle(inverter._lower_integrand, v,
                                        inverter.v_mid)
        assert got.shape == () and got == ref == per_panel

    @settings(max_examples=15, deadline=None)
    @given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80),
           depths=st.lists(st.floats(-1.0, 80.0), min_size=1, max_size=80))
    def test_every_lane_matches_the_scalar_rule(self, inverter, fracs, depths):
        """Lanes of mixed panel counts, more than LANE_CHUNK of them, and
        empty intervals (negative depth) in one call."""
        t_hi = inverter.t_mid * np.array(fracs)
        got = _gauss_panels(inverter._upper_integrand, 0.0, t_hi, max_len=0.25)
        ref = [gauss_panels(inverter._upper_integrand, 0.0, t, max_len=0.25)
               for t in t_hi]
        assert got.tobytes() == np.array(ref).tobytes()
        v = inverter.v_mid - np.array(depths)
        got = _gauss_panels(inverter._lower_integrand, v, inverter.v_mid)
        ref = [gauss_panels(inverter._lower_integrand, x, inverter.v_mid)
               for x in v]
        assert got.tobytes() == np.array(ref).tobytes()

    def test_chunks_and_panel_groups(self, inverter):
        """Three panel counts, one of them over two chunks of lanes."""
        depth = np.repeat([1.0, 10.0, 30.0], [LANE_CHUNK + 5, 3, 1])
        v = inverter.v_mid - depth
        got = _gauss_panels(inverter._lower_integrand, v, inverter.v_mid)
        ref = [gauss_panels(inverter._lower_integrand, x, inverter.v_mid)
               for x in v]
        assert got.tobytes() == np.array(ref).tobytes()

    def test_kinetic_core(self, pulse):
        """The single-lane kinetic-energy quadrature of `solve_homoclinic`."""
        dsq = lambda t: 2.0 * pulse.well.W_bar(pulse._cheb(t))
        got = _gauss_panels(dsq, 0.0, pulse.half_width, max_len=0.5)
        assert got == gauss_panels(dsq, 0.0, pulse.half_width, max_len=0.5)

    def test_empty_interval(self, inverter):
        for a, b in ((1.5, 1.5), (2.0, 1.0)):
            assert _gauss_panels(inverter._lower_integrand, a, b) == 0.0
            assert gauss_panels(inverter._lower_integrand, a, b) == 0.0


@lru_cache(maxsize=None)
def tilted_inverter(tau):
    return _HomoclinicInverter(default_well(tau))


def oracle_or_none(inv, z):
    """The scalar oracle at z, or None where scipy's brentq meets a NaN."""
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            return phi_bar_oracle(inv, z)
    except ValueError:
        return None


class TestHomoclinicInversion:
    """The batched inversion is the scalar brentq inversion, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(tau=st.sampled_from([-0.1, -0.3, -0.5, -0.8, -0.95]),
           fracs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
           edges=st.lists(st.sampled_from(["zero", "mid", "above_mid", "tiny"]),
                          max_size=3))
    def test_batch_matches_scalar_brentq(self, tau, fracs, edges):
        inv = tilted_inverter(tau)
        half_width = max(20.0 / inv.sqrt_am, 24.0)
        named = {"zero": 0.0, "mid": inv.z_mid,
                 "above_mid": np.nextafter(inv.z_mid, np.inf), "tiny": 1e-14}
        z = np.array([f * half_width for f in fracs] + [named[e] for e in edges])
        ref = [oracle_or_none(inv, float(x)) for x in z]
        for x, r in zip(z, ref):
            if r is None:
                with np.errstate(invalid="ignore", divide="ignore"), \
                        pytest.raises(ToleranceError, match=f"tau = {tau:g}"):
                    inv.phi_bar(np.array([x]))
        ok = np.array([r is not None for r in ref])
        solved = np.array([r for r in ref if r is not None])
        with np.errstate(invalid="ignore", divide="ignore"):
            batched = inv.phi_bar(z[ok])
        assert batched.tobytes() == solved.tobytes()

    def test_desk_nodes_match_scalar_brentq(self, inverter, pulse):
        """The Chebyshev nodes and the check points of the desk solve."""
        nodes = chebyshev.chebpts1(221)
        z = np.concatenate([0.5 * pulse.half_width * (nodes + 1.0),
                            np.linspace(0.0, pulse.half_width, 173)])
        ref = [phi_bar_oracle(inverter, float(x)) for x in z]
        assert inverter.phi_bar(z).tobytes() == np.array(ref).tobytes()

    def test_desk_solve_warns_nothing(self):
        """The desk well's pulse and backgrounds solve without one
        RuntimeWarning, so none is hidden by a guard."""
        well = default_well(-0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve_background(well, solve_homoclinic(well))

    @pytest.mark.parametrize("tau", [-0.7, -0.9])
    def test_turning_point_cancellation_raises(self, tau):
        """W_bar(e* - t^2) rounds to zero or below for t below ~3e-8 at these
        tilts, and the Gauss nodes reach it once the root-find tries t ~ 3e-5."""
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(ToleranceError, match=rf"tau = {tau:g}.* z = .* t = "):
            solve_homoclinic(default_well(tau))

    def test_desk_solve_quadrature_passes(self, well, monkeypatch):
        """35 batched quadratures and 231 integrand calls of at most
        LANE_CHUNK lanes each, where one scalar brentq per z made 3,236
        scalar quadratures."""
        passes, calls = [], []
        real = wellmodel._gauss_panels

        def counting(fn, a, b, max_len=4.0):
            def integrand(t):
                calls.append(t.shape[0])
                return fn(t)
            passes.append(1)
            return real(integrand, a, b, max_len)

        monkeypatch.setattr(wellmodel, "_gauss_panels", counting)
        solve_homoclinic(well)
        assert len(passes) <= 40
        assert len(calls) <= 240
        assert max(calls) <= LANE_CHUNK


class TestHomoclinic:
    def test_ode_residual(self, well, pulse):
        window = np.abs(pulse.z) <= 20.0
        res = _fd_residual(pulse.z, pulse.values, well)
        assert res < 1e-8
        assert window.any()

    def test_first_integral(self, well, pulse):
        defect = 0.5 * pulse.pulse_jet(pulse.z, 1)[1]**2 - well.W(pulse.values)
        assert np.max(np.abs(defect)) < 1e-8

    def test_symmetry(self, pulse):
        assert np.max(np.abs(pulse.values - pulse.values[::-1])) < 1e-10

    def test_centering(self, well, pulse):
        mid = len(pulse.z) // 2
        assert pulse.z[mid] == 0.0
        assert pulse.values[mid] == pytest.approx(pulse.u_star)
        assert abs(pulse.pulse_jet(pulse.z, 1)[1][mid]) < 1e-12
        assert well.W(pulse.u_star) == pytest.approx(0.0, abs=1e-12)

    def test_decay_to_background(self, well, pulse):
        assert abs(pulse.values[-1] - well.b_minus) < 1e-11

    def test_mass_and_kernel_norm_window_stability(self, well):
        from fchpulse import solve_homoclinic

        wide = solve_homoclinic(well, half_width=34.0, cheb_degree=300)
        base_mass = wide.mass_h
        base_kernel = wide.kernel_norm

        default = solve_homoclinic(well)
        assert default.mass_h == pytest.approx(base_mass, rel=1e-8)
        assert default.kernel_norm == pytest.approx(base_kernel, rel=1e-8)

    def test_derivative_orders_against_fd(self, pulse):
        x0 = np.array([0.9])
        for order in range(1, 8):
            h = 1e-3
            fd = (
                pulse.pulse_bar_deriv(x0 + h, order - 1)
                - pulse.pulse_bar_deriv(x0 - h, order - 1)
            ) / (2 * h)
            an = pulse.pulse_bar_deriv(x0, order)
            assert an[0] == pytest.approx(fd[0], rel=5e-5, abs=1e-7)


class TestFarField:
    def test_fitted_rate(self, well, pulse):
        fit = far_field_params(*far_field_samples(pulse))
        assert fit.decay_rate == pytest.approx(
            np.sqrt(well.alpha_minus), rel=1e-4
        )

    def test_amplitude_positive_and_matches_oracle(self, well, pulse):
        # independent oracle: the fit-free regularized tail quadrature
        exact = exact_tail_amplitude(well)
        assert pulse.phi_max > 0
        assert pulse.phi_max == pytest.approx(exact, rel=2e-4)

    def test_fit_residual_small(self, pulse):
        fit = far_field_params(*far_field_samples(pulse))
        assert fit.max_log_dev < 1e-3

    def test_window_error(self, pulse):
        z = np.array([1.0, 2.0, 3.0])
        bar = np.array([1e-5, -1e-6, 1e-7])
        with pytest.raises(DomainError):
            far_field_params(np.concatenate([z] * 4), np.concatenate([bar] * 4))


class TestBackgrounds:
    def test_far_field_constants(self, well, backgrounds):
        bg1, bg2 = backgrounds
        assert abs(bg1.b_inf - (-1.0 / well.alpha_minus)) < 1e-6
        assert abs(bg2.b_inf - 1.0 / well.alpha_minus**2) < 1e-6

    def test_residual_norms(self, backgrounds):
        bg1, bg2 = backgrounds
        assert bg1.residual_norm < 1e-8
        assert bg2.residual_norm < 1e-8

    def test_decay(self, backgrounds):
        for bg in backgrounds:
            assert abs(bg.values[-1] - bg.b_inf) < 1e-10

    def test_kernel_orthogonality_by_parity(self, pulse, backgrounds):
        _, bg2 = backgrounds
        z = np.linspace(-bg2.window, bg2.window, 4001)
        ip = np.trapezoid((bg2.b_inf + bar_jet(bg2, z, 0)[0])
                          * pulse.pulse_bar_deriv(z, 1), z)
        assert abs(ip) < 1e-10

    def test_evaluator_matches_nodes(self, backgrounds):
        bg1, _ = backgrounds
        sel = slice(0, len(bg1.z), 37)
        assert_allclose(bar_jet(bg1, bg1.z[sel], 0)[0],
                        bg1.values[sel] - bg1.b_inf, atol=1e-9)

    def test_one_lu_serves_both(self, well, pulse, backgrounds, monkeypatch):
        # a solve factors L once, and each background is bitwise the solve
        # that factors L for itself: L B_1 = 1, then L B_2 = B_1
        real = wellmodel.lu_factor
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(wellmodel, "lu_factor", counted)
        fresh = wellmodel.solve_background(well, pulse)
        size = wellmodel.BACKGROUND_POINTS
        assert calls == [(size, size)]
        grid = Grid(2.0 * pulse.half_width, size, h_max=0.2)
        q = well.d2W(well.b_minus + pulse.pulse_bar(grid.nodes))
        lmat = (mode_derivative(cosine_coeffs(np.eye(size)),
                                grid.wavenumbers, 2) - np.diag(q))
        b = np.ones(size)
        for bg, ref in zip(fresh, backgrounds):
            b = wellmodel._refined_solve(lmat, real(lmat), b)
            assert np.array_equal(bg.values, b)
            assert np.array_equal(bg.values, ref.values)
            assert bg.residual_norm == ref.residual_norm

    def test_invalid_order(self, pulse):
        x = np.linspace(-30.0, 30.0, 61)
        with pytest.raises(DomainError):
            pulse.pulse_jet(x, 9)
        with pytest.raises(DomainError):
            pulse.pulse_bar_deriv(x, 9)

    def test_kernel_of_single_pulse_operator(self, well, pulse):
        # translation invariance: L phi_h' = 0, checked by finite differences
        z = pulse.z
        h = z[1] - z[0]
        dphi = pulse.pulse_jet(z, 1)[1]
        lap = (dphi[2:] - 2 * dphi[1:-1] + dphi[:-2]) / h**2
        resid = lap - well.d2W(pulse.values[1:-1]) * dphi[1:-1]
        l2 = np.sqrt(np.sum(resid**2) * h)
        assert l2 < 1e-3 * max(np.max(np.abs(dphi)), 1.0)


class TestReadOnly:
    """The well solution is shared by every Laboratory of a process."""

    def test_pulse_arrays_refuse_writes(self, pulse):
        for a in (pulse.z, pulse.values, pulse._cheb.coef):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_background_arrays_refuse_writes(self, backgrounds):
        for bg in backgrounds:
            for a in (bg.z, bg.values, bg._coeffs):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] += 1.0


class TestSinglePulseSpectrum:
    def test_point_spectrum_structure(self, well, pulse):
        from fchpulse.wellmodel import single_pulse_point_spectrum

        point = single_pulse_point_spectrum(well, pulse)
        # ground state above zero, the translation kernel at zero
        assert point[0] > 0.1
        assert abs(point[1]) < 1e-6
        assert np.all(point[2:] < -0.1)

    def test_edge_floor_below_essential_edge(self, well, pulse, edge_floor):
        assert 0.0 < edge_floor <= well.alpha_minus**2


class TestSerialization:
    def test_profiles_to_csv(self, pulse, backgrounds, tmp_path):
        """The profile experiment writes the pulse and both backgrounds,
        with every value read back to its bits."""
        import csv as csvmod

        run_experiment(ExperimentConfig(experiment="profile",
                                        output_dir=str(tmp_path)))
        for name, prof in (("pulse.csv", pulse),
                           ("background_1.csv", backgrounds[0]),
                           ("background_2.csv", backgrounds[1])):
            with open(tmp_path / name) as fh:
                rows = list(csvmod.reader(fh))
            assert rows[0] == ["z", "value"]
            assert len(rows) > 100
            z, values = np.array(rows[1:], dtype=float).T
            assert np.array_equal(z, prof.z)
            assert np.array_equal(values, prof.values)
