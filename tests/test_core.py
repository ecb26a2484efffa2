"""Grid, field, transform, and norm-family tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fchpulse import (
    Grid,
    GridMismatchError,
    InvalidFieldError,
    ScalarField,
    ValidationError,
    gradient_symbols,
    inner_product_x,
    norm,
)
from fchpulse.core import (
    cosine_coeffs,
    cosine_synth,
    h4_norm_from_coeffs,
    integral,
    mode_derivative,
    sine_synth,
)
from conftest import apply_symbol, nodal_h4_norm, spectral_derivative


def make_grid(length=160.0, n=2048):
    return Grid(length, n, h_max=0.4)


def random_smooth_field(grid, seed, kmax=60):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.num_points)
    coeffs[: kmax + 1] = rng.standard_normal(kmax + 1) / (
        1.0 + np.arange(kmax + 1) ** 1.5
    )
    return ScalarField(grid, cosine_synth(coeffs))


class TestGridAndFields:
    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            Grid(160.0, 8)  # too few points
        with pytest.raises(ValidationError):
            Grid(160.0, 64)  # spacing 2.5 > h_max

    def test_spacing_and_weights(self):
        g = make_grid()
        assert g.spacing == pytest.approx(160.0 / 2047)
        assert integral(ScalarField(g, np.ones(g.num_points))) == pytest.approx(
            160.0
        )

    def test_nonfinite_rejected(self):
        g = make_grid()
        vals = np.ones(g.num_points)
        vals[3] = np.nan
        with pytest.raises(InvalidFieldError):
            ScalarField(g, vals)

    def test_grid_mismatch(self):
        g1, g2 = make_grid(), make_grid(n=1025)
        f1 = ScalarField(g1, np.ones(g1.num_points))
        f2 = ScalarField(g2, np.ones(g2.num_points))
        with pytest.raises(GridMismatchError):
            inner_product_x(f1, f2)
        with pytest.raises(GridMismatchError):
            _ = f1 + f2


class TestTransforms:
    def test_roundtrip(self):
        g = make_grid(n=512)
        f = random_smooth_field(g, 0)
        assert_allclose(cosine_synth(cosine_coeffs(f.values)), f.values,
                        atol=1e-13)

    def test_derivative_exact_on_modes(self):
        g = make_grid(n=1024)
        z, length = g.nodes, g.length
        for k in (1, 4, 9):
            f = ScalarField(g, np.cos(k * np.pi * z / length))
            d1 = spectral_derivative(f, 1)
            expected = -(k * np.pi / length) * np.sin(k * np.pi * z / length)
            assert_allclose(d1.values, expected, atol=1e-11)
            d2 = spectral_derivative(f, 2)
            assert_allclose(
                d2.values, -((k * np.pi / length) ** 2) * f.values, atol=1e-11
            )


def random_field(grid, seed, zero_mass=False):
    """Smooth random modes plus white noise, optionally with mode 0 removed."""
    rng = np.random.default_rng(seed)
    n = grid.num_points
    coeffs = rng.standard_normal(n) / (1.0 + np.arange(n) ** 1.5)
    coeffs += 1e-3 * rng.standard_normal(n)
    if zero_mass:
        coeffs[0] = 0.0
    return ScalarField(grid, cosine_synth(coeffs))


grids = st.builds(lambda length, n: Grid(length, n, h_max=length),
                  st.floats(1.0, 500.0), st.integers(16, 2048))


class TestTransformProperties:
    @settings(max_examples=40, deadline=None)
    @given(grid=grids, seed=st.integers(0, 2**16))
    def test_dct_round_trip(self, grid, seed):
        v = random_field(grid, seed).values
        back = cosine_synth(cosine_coeffs(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 1024), cols=st.integers(1, 9),
           length=st.floats(1.0, 500.0), seed=st.integers(0, 2**16))
    def test_column_stacks_transform_column_by_column(self, n, cols, length,
                                                      seed):
        # a 2-D array is a stack of columns along axis 0, each transformed
        # and differentiated bit for bit as by a 1-D call
        stack = np.random.default_rng(seed).standard_normal((n, cols))
        kappa = np.arange(n) * np.pi / length
        transforms = [cosine_coeffs, cosine_synth, sine_synth]
        transforms += [lambda a, m=m: mode_derivative(a, kappa, m)
                       for m in range(9)]
        for transform in transforms:
            out = transform(stack)
            for j in range(cols):
                assert np.array_equal(out[:, j], transform(stack[:, j]))

    @settings(max_examples=40, deadline=None)
    @given(grid=grids, seed=st.integers(0, 2**16), s=st.floats(0.0, 1.0),
           which=st.sampled_from([0, 1]))
    def test_gradient_family_self_adjoint(self, grid, seed, s, which):
        symbol = gradient_symbols(grid, s)[which]
        u = random_field(grid, seed, zero_mass=True)
        v = random_field(grid, seed + 1, zero_mass=True)
        gu, gv = apply_symbol(symbol, u), apply_symbol(symbol, v)
        scale = (norm(gu, "l2") * norm(v, "l2") + norm(u, "l2") * norm(gv, "l2"))
        gap = abs(inner_product_x(gu, v) - inner_product_x(u, gv))
        assert gap <= 1e-12 * scale


class TestNorms:
    def test_zero_field(self):
        g = make_grid()
        zero = ScalarField(g, np.zeros(g.num_points))
        for kind in ("l2", "h4"):
            assert norm(zero, kind) == 0.0
        g1 = gradient_symbols(g, 0.5)[1]
        assert h4_norm_from_coeffs(g, g1 * cosine_coeffs(zero.values)) == 0.0

    def test_constant_l2(self):
        g = make_grid()
        c = 2.7
        f = ScalarField(g, np.full(g.num_points, c))
        assert norm(f, "l2") == pytest.approx(abs(c) * np.sqrt(g.length))

    def test_h4_closed_form_mode_one(self):
        # field cos(pi z / L) at N = 512: matches the analytic derivative sum
        g = Grid(160.0, 512, h_max=0.4)
        k = np.pi / g.length
        f = ScalarField(g, np.cos(np.pi * g.nodes / g.length))
        closed = np.sqrt(
            (g.length / 2.0) * (1 + k**2 + k**4 + k**6 + k**8)
        )
        assert norm(f, "h4") == pytest.approx(closed, rel=1e-8)

    def test_monotonicity_l2_below_h4(self):
        g = make_grid(n=512)
        for seed in range(6):
            f = random_smooth_field(g, seed)
            assert norm(f, "l2") <= norm(f, "h4") * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([64, 257, 1024]),
           kmax=st.integers(1, 60))
    def test_h4_parseval_matches_nodal_derivatives(self, seed, n, kmax):
        # the Parseval sum against five nodal spectral derivatives
        f = random_smooth_field(Grid(160.0, n, h_max=3.0), seed, kmax)
        oracle = nodal_h4_norm(f)
        assert abs(norm(f, "h4") - oracle) <= 1e-14 * oracle

    def test_grid_refinement_spectral(self, well, pulse):
        # successive refinement differences of norm(phi_h, H4) shrink fast
        values = {}
        for n in (128, 256, 512, 1024):
            g = Grid(160.0, n, h_max=1.5)
            f = ScalarField(
                g, well.b_minus + pulse.pulse_bar(g.nodes - 80.0)
            )
            values[n] = norm(f, "h4")
        d1 = abs(values[256] - values[128])
        d2 = abs(values[512] - values[256])
        d3 = abs(values[1024] - values[512])
        # each halving of h gains at least a factor 10 until round-off
        assert d2 * 10.0 <= d1
        assert d3 * 10.0 <= d2 or d3 < 1e-11


class TestInnerProduct:
    def test_pairing_with_zero(self):
        g = make_grid()
        f = random_smooth_field(g, 1)
        zero = ScalarField(g, np.zeros(g.num_points))
        assert inner_product_x(f, zero) == 0.0

    def test_constant_pairing(self):
        g = make_grid()
        one = ScalarField(g, np.ones(g.num_points))
        assert inner_product_x(one, one) == pytest.approx(g.length)

    def test_cosine_orthogonality(self):
        g = make_grid()
        f1 = ScalarField(g, np.cos(np.pi * g.nodes / g.length))
        f2 = ScalarField(g, np.cos(2 * np.pi * g.nodes / g.length))
        assert abs(inner_product_x(f1, f2)) < 1e-10

    def test_cauchy_schwarz(self):
        g = make_grid(n=512)
        for seed in range(8):
            u = random_smooth_field(g, 2 * seed)
            v = random_smooth_field(g, 2 * seed + 1)
            lhs = abs(inner_product_x(u, v))
            rhs = norm(u, "l2") * norm(v, "l2")
            assert lhs <= rhs * (1 + 1e-12)

    def test_bilinear_symmetric(self):
        g = make_grid(n=512)
        u, v, w = (random_smooth_field(g, s) for s in (3, 4, 5))
        assert inner_product_x(u, v) == pytest.approx(inner_product_x(v, u))
        assert inner_product_x(u + w, v) == pytest.approx(
            inner_product_x(u, v) + inner_product_x(w, v), rel=1e-12, abs=1e-12
        )


class TestSystemParams:
    def test_tail_scale_derived(self, well):
        from fchpulse import SystemParams

        p = SystemParams(0.05, 8.0, 3, 15.0, 8.0, well.alpha_minus)
        assert p.tail_scale == pytest.approx(
            np.exp(-np.sqrt(well.alpha_minus) * 8.0)
        )

    def test_admissibility_floor(self, well):
        from fchpulse import SystemParams

        with pytest.raises(ValidationError):
            SystemParams(0.05, 8.0, 30, 15.0, 8.0, well.alpha_minus)

    def test_srn_regime_guard(self, well):
        from fchpulse import SystemParams

        p = SystemParams(0.05, 8.0, 3, 15.0, 2.0, well.alpha_minus)
        with pytest.raises(ValidationError):
            p.require_srn_regime(1.0)
