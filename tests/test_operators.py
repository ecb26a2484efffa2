"""Energy, variational derivatives, linearizations, and the gradient family."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fchpulse import (
    DomainError,
    GradientFamily,
    Grid,
    ScalarField,
    energy,
    inner_product_x,
    nonlinear_remainder,
    norm,
    second_variation,
    variational_derivative,
    zero_mass_projection,
)
from fchpulse.core import cosine_coeffs, cosine_synth
from fchpulse.operators import linearization
from conftest import dense_second_variation, moderate_config, to_weighted


def smooth_field(grid, seed, kmax=50, offset=0.0):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.num_points)
    coeffs[: kmax + 1] = rng.standard_normal(kmax + 1) / (
        1.0 + np.arange(kmax + 1) ** 2
    )
    return ScalarField(grid, offset + cosine_synth(coeffs))


@pytest.fixture(scope="module")
def grid():
    return Grid(160.0, 1024, h_max=0.2)


class TestEnergy:
    def test_background_state_zero(self, grid, well):
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        assert energy(u, well) < 1e-20

    def test_refined_grid_oracle(self, grid, well):
        u = ScalarField(
            grid, well.b_minus + 0.01 * np.cos(np.pi * grid.nodes / grid.length)
        )
        fine = Grid(grid.length, 2 * (grid.num_points - 1) + 1, h_max=0.2)
        uf = ScalarField(
            fine, well.b_minus + 0.01 * np.cos(np.pi * fine.nodes / fine.length)
        )
        assert energy(u, well) == pytest.approx(energy(uf, well), rel=1e-10)

    def test_single_ansatz_energy_small(self, manifold_factory, well):
        man = manifold_factory(length=160.0, n=1, ell=8.0, num_points=2048)
        prof = man.build(man.configuration([80.0]))
        delta = man.params.tail_scale
        assert man.energy_value(prof) <= 5.0 * delta


class TestVariationalDerivative:
    def test_zero_at_background(self, grid, well):
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        g = variational_derivative(u, well)
        # spectral round-off floor: eps * kappa_max^4
        assert np.max(np.abs(g.values)) < 1e-10

    def test_directional_derivative(self, grid, well):
        u = smooth_field(grid, 0, offset=well.b_minus)
        v = smooth_field(grid, 1)
        ip = inner_product_x(variational_derivative(u, well), v)
        # Richardson-extrapolated centered differences
        fds = []
        for h in (2e-4, 1e-4):
            fds.append(
                (energy(u + h * v, well) - energy(u + (-h) * v, well))
                / (2 * h)
            )
        extrap = (4 * fds[1] - fds[0]) / 3.0
        assert abs(extrap - ip) <= 1e-8 * max(abs(ip), 1.0)

    def test_residual_at_manifold_point(self, desk_manifold):
        prof = desk_manifold.build(moderate_config(desk_manifold))
        _, h4, _ = desk_manifold.residual_h4(prof)
        assert h4 <= 5000 * desk_manifold.params.tail_scale

    def test_analytic_matches_spectral_gradient(self, desk_manifold, well):
        prof = desk_manifold.build(desk_manifold.equispaced())
        g_stack = desk_manifold.gradient_stack(prof, max_order=0)
        g_spec = variational_derivative(prof.phi, well)
        # spectral differentiation carries interpolation noise amplified by
        # kappa^4; agreement is at that level, far below the signal
        assert np.max(np.abs(g_stack[0] - g_spec.values)) < 1e-4


class TestSecondVariation:
    def test_constant_state_symbol(self, grid, well):
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        sv = second_variation(u, well)
        for k in (1, 3, 11):
            mode = ScalarField(
                grid, np.cos(k * np.pi * grid.nodes / grid.length)
            )
            out = sv(mode)
            symbol = ((k * np.pi / grid.length) ** 2 + well.alpha_minus) ** 2
            assert_allclose(out.values, symbol * mode.values, atol=1e-8)

    def test_gateaux_consistency(self, grid, well):
        u = smooth_field(grid, 3, offset=well.b_minus)
        v = smooth_field(grid, 4)
        sv = second_variation(u, well)
        errs = []
        for h in (2e-3, 1e-3):
            fd = (
                variational_derivative(u + h * v, well).values
                - variational_derivative(u + (-h) * v, well).values
            ) / (2 * h)
            errs.append(norm(ScalarField(grid, fd - sv(v).values), "l2"))
        assert errs[0] / max(errs[1], 1e-14) == pytest.approx(4.0, abs=1.5)

    def test_self_adjoint(self, desk_manifold, well):
        prof = desk_manifold.build(desk_manifold.equispaced())
        sv = second_variation(prof.phi, well)
        grid = desk_manifold.grid
        kmax = min(grid.num_points // 3, 200)
        rng = np.random.default_rng(0)
        worst = scale = 0.0
        for _ in range(4):
            u = smooth_field(grid, rng, kmax)
            v = smooth_field(grid, rng, kmax)
            au_v = inner_product_x(sv(u), v)
            u_av = inner_product_x(u, sv(v))
            worst = max(worst, abs(au_v - u_av))
            scale = max(scale, abs(au_v), 1.0)
        assert worst <= 1e-10 * scale, f"self-adjointness defect {worst / scale}"

    def test_superposition_square_dominates(self, manifold_factory, well):
        # at small excess mass the second variation is the square of the
        # superposition operator up to O(delta) as a quadratic form
        man = manifold_factory(num_points=1024, excess=0.001)
        cfg = moderate_config(man)
        prof = man.build(cfg)
        sv = second_variation(prof.phi, well)
        ln_pot = well.d2W(prof.u_n.values)
        delta = man.params.tail_scale
        rng = np.random.default_rng(8)
        worst = 0.0
        from fchpulse.core import spectral_derivative

        for _ in range(10):
            v = smooth_field(man.grid, rng.integers(1 << 30), kmax=40)
            v = v * (1.0 / norm(v, "l2"))
            lv = ScalarField(
                man.grid,
                spectral_derivative(v, 2).values - ln_pot * v.values,
            )
            form_sq = inner_product_x(lv, lv)
            form_sv = inner_product_x(sv(v), v)
            worst = max(worst, abs(form_sv - form_sq))
        assert worst <= 2000 * delta


class TestLinearization:
    def test_kills_constants(self, desk_manifold, well):
        prof = desk_manifold.build(desk_manifold.equispaced())
        lin = linearization(prof.phi, well)
        const = ScalarField(
            desk_manifold.grid, np.ones(desk_manifold.grid.num_points)
        )
        out = lin(const)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_self_adjoint_on_zero_mass(self, diag_manifold, well):
        prof = diag_manifold.build(diag_manifold.equispaced())
        lin = linearization(prof.phi, well)
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = zero_mass_projection(smooth_field(diag_manifold.grid,
                                                  rng.integers(1 << 30)))
            v = zero_mass_projection(smooth_field(diag_manifold.grid,
                                                  rng.integers(1 << 30)))
            lhs = inner_product_x(lin(u), v)
            rhs = inner_product_x(u, lin(v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_tangent_quadratic_form_small(self, diag_manifold, well):
        cfg = moderate_config(diag_manifold)
        prof = diag_manifold.build(cfg)
        lin = linearization(prof.phi, well)
        delta = diag_manifold.params.tail_scale
        for t in diag_manifold.tangent_basis(prof)[0]:
            t0 = zero_mass_projection(t)
            form = abs(inner_product_x(lin(t0), t0))
            assert form <= 1000 * delta


class TestZeroMassProjection:
    def test_annihilates_constants(self, grid):
        one = ScalarField(grid, np.ones(grid.num_points))
        assert np.max(np.abs(zero_mass_projection(one).values)) < 1e-14

    def test_idempotent(self, grid):
        f = smooth_field(grid, 9)
        once = zero_mass_projection(f)
        twice = zero_mass_projection(once)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_zero_mass_output(self, grid):
        from fchpulse.core import integral

        f = smooth_field(grid, 10) + 3.7
        assert abs(integral(zero_mass_projection(f))) < 1e-10


class TestGradientFamily:
    def test_s_zero_is_projection(self, grid):
        fam = GradientFamily(grid, 0.0)
        f = smooth_field(grid, 11) + 2.0
        for which in ("G", "G1"):
            out = fam.apply(f, which)
            expected = zero_mass_projection(f)
            assert_allclose(out.values, expected.values, atol=1e-11)

    def test_gravest_mode_fixed(self, grid):
        for s in (0.25, 0.5, 1.0):
            fam = GradientFamily(grid, s)
            mode = ScalarField(grid, np.cos(np.pi * grid.nodes / grid.length))
            out = fam.apply(mode, "G1")
            assert_allclose(out.values, mode.values, atol=1e-11)

    def test_mode_two_amplified_by_formula(self, grid):
        # (lam_1/lam_2)^{1/2} = 2 at s = 1: the family amplifies mode two
        fam = GradientFamily(grid, 1.0)
        mode = ScalarField(grid, np.cos(2 * np.pi * grid.nodes / grid.length))
        out = fam.apply(mode, "G1")
        assert cosine_coeffs(out.values)[2] == pytest.approx(2.0, rel=1e-12)

    def test_roundtrip(self, grid):
        fam = GradientFamily(grid, 0.7)
        f = zero_mass_projection(smooth_field(grid, 12))
        rt = fam.apply(fam.apply(f, "G1_inv"), "G1")
        assert np.max(np.abs(rt.values - f.values)) < 1e-12

    def test_sqrt_relation(self, grid):
        fam = GradientFamily(grid, 0.6)
        f = zero_mass_projection(smooth_field(grid, 13))
        twice = fam.apply(fam.apply(f, "G1"), "G1")
        once = fam.apply(f, "G")
        assert np.max(np.abs(twice.values - once.values)) < 1e-10

    def test_nonnegative(self, grid):
        fam = GradientFamily(grid, 1.0)
        for seed in range(5):
            f = zero_mass_projection(smooth_field(grid, 20 + seed))
            assert inner_product_x(fam.apply(f, "G"), f) >= -1e-12

    @pytest.mark.parametrize("s", [0.0, 0.6, 1.0])
    def test_multipliers_are_one_read_only_table(self, grid, s):
        """Each direction's table is built once per family, cannot be written
        through, and holds k**(2s), k**(±s) with 0 at mode 0, bitwise."""
        fam = GradientFamily(grid, s)
        k = np.arange(grid.num_points, dtype=float)
        for which, power in (("G", 2.0 * s), ("G1", s), ("G1_inv", -s)):
            m = fam.multipliers(which)
            assert m is fam.multipliers(which)
            assert not m.flags.writeable
            assert m[0] == 0.0
            assert np.array_equal(m[1:], k[1:] ** power)
        with pytest.raises(DomainError, match="unknown gradient direction"):
            fam.multipliers("G2")

    def test_inverse_requires_zero_mass(self, grid):
        fam = GradientFamily(grid, 0.5)
        f = smooth_field(grid, 14) + 1.0
        with pytest.raises(DomainError):
            fam.apply(f, "G1_inv")


class TestNonlinearRemainder:
    def test_zero_perturbation(self, diag_manifold, well):
        prof = diag_manifold.build(diag_manifold.equispaced())
        zero = ScalarField(
            diag_manifold.grid, np.zeros(diag_manifold.grid.num_points)
        )
        out = nonlinear_remainder(prof.phi, zero, well)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_quadratic_scaling(self, diag_manifold, well):
        prof = diag_manifold.build(diag_manifold.equispaced())
        rng = np.random.default_rng(4)
        for _ in range(3):
            v = zero_mass_projection(
                smooth_field(diag_manifold.grid, rng.integers(1 << 30))
            )
            v = v * (0.05 / norm(v, "h4"))
            full = norm(nonlinear_remainder(prof.phi, v, well), "l2")
            half = norm(nonlinear_remainder(prof.phi, v * 0.5, well), "l2")
            assert 0.2 <= half / full <= 0.3


class TestDenseMachinery:
    def test_apply_matches_dense(self, diag_manifold, well):
        prof = diag_manifold.build(diag_manifold.equispaced())
        sv = second_variation(prof.phi, well)
        mat = dense_second_variation(prof.phi, well)
        v = smooth_field(diag_manifold.grid, 17)
        lhs = mat @ to_weighted(v)
        rhs = to_weighted(sv(v))
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_refinement_invariance_of_forms(self, manifold_factory, well):
        # quadratic forms on a fixed smooth field change by < 1e-8 when the
        # grid doubles
        vals = {}
        for n in (1024, 2048):
            man = manifold_factory(num_points=n)
            prof = man.build(man.equispaced())
            sv = second_variation(prof.phi, well)
            grid = man.grid
            v = ScalarField(
                grid,
                np.cos(3 * np.pi * grid.nodes / grid.length)
                + 0.3 * np.cos(7 * np.pi * grid.nodes / grid.length),
            )
            vals[n] = inner_product_x(sv(v), v)
        assert abs(vals[2048] - vals[1024]) < 1e-8 * max(abs(vals[2048]), 1.0)


class TestResidualIdentity:
    def test_projected_gradient_matches_superposition_residual(
        self, manifold_factory, well, pulse
    ):
        # -Pi0 grad J(Phi) agrees with -Pi0 L_n R_n up to higher-order tail
        # terms at a moderate interior configuration
        man = manifold_factory(excess=0.001)
        cfg = moderate_config(man)
        prof = man.build(cfg)
        r, _, l2 = man.residual_h4(prof)
        z = man.grid.nodes
        d = {
            m: sum(pulse.pulse_bar_deriv(z - p, m) for p in cfg.positions)
            for m in (1, 2, 3, 4)
        }
        u = well.b_minus + sum(pulse.pulse_bar(z - p) for p in cfg.positions)
        r_n = d[2] - well.dW(u)
        r_n_zz = d[4] - well.d2W(u) * d[2] - well.d3W(u) * d[1] ** 2
        ln_rn = r_n_zz - well.d2W(u) * r_n
        ln_rn -= np.sum(man.grid.quad_weights * ln_rn) / man.grid.length
        diff = r.values + ln_rn
        nd = float(np.sqrt(np.sum(man.grid.quad_weights * diff**2)))
        delta = man.params.tail_scale
        assert nd <= max(0.05 * l2, 50.0 * delta**1.5)
