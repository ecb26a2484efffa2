"""Derivative jets: Leibniz products, the well's Taylor jets, and the pulse
and grad J derivatives built from them.

The symbolic generators the jets replaced are kept here as oracles; they
need sympy, which is a test-only dependency.
"""

import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numpy.polynomial.chebyshev import chebval

import fchpulse
from fchpulse import wellmodel
from fchpulse.wellmodel import DoubleWell, clenshaw, leibniz, well_jet

from conftest import (bar_at_oracle, bar_jet, count_background_work,
                      derivative_stack_oracle, moderate_config,
                      pulse_bar_deriv_oracle, well_jet_oracle)


@lru_cache(maxsize=16)
def chain_derivative_oracle(order):
    """phi^(order) as a function of (u, phi', tau), by symbolic recursion on
    the pulse equation phi'' = W'(phi)."""
    sp = pytest.importorskip("sympy")
    u, d1, tau = sp.symbols("u d1 tau")
    w1 = (u**2 - 1) * (u - tau)
    exprs = [sp.Integer(0), d1, w1]
    for _ in range(3, order + 1):
        prev = exprs[-1]
        exprs.append(sp.expand(sp.diff(prev, u) * d1 + sp.diff(prev, d1) * w1))
    return sp.lambdify((u, d1, tau), exprs[order], "numpy")


@lru_cache(maxsize=8)
def gradient_oracle(max_order=4):
    """Callables g_m(phi0, ..., phi_{4+max_order}, tau), m = 0..max_order, for
    the z-derivatives of grad J, generated symbolically."""
    sp = pytest.importorskip("sympy")
    z, tau = sp.symbols("z tau")
    phi = sp.Function("phi")(z)
    w1 = (phi**2 - 1) * (phi - tau)
    w2 = 3 * phi**2 - 2 * tau * phi - 1
    w3 = 6 * phi - 2 * tau
    grad = (
        sp.diff(phi, z, 4)
        - 2 * w2 * sp.diff(phi, z, 2)
        - w3 * sp.diff(phi, z) ** 2
        + w2 * w1
    )
    top = 4 + max_order
    symbols = sp.symbols(f"d0:{top + 1}")
    lambdas = []
    expr = grad
    for m in range(max_order + 1):
        if m > 0:
            expr = sp.diff(expr, z)
        sub = expr
        for j in range(top, -1, -1):
            sub = sub.subs(sp.diff(phi, z, j) if j else phi, symbols[j])
        lambdas.append(sp.lambdify(list(symbols) + [tau], sub, "numpy"))
    return lambdas


class TestAgainstSymbolicOracles:
    @pytest.mark.parametrize("order", [5, 6, 7, 8])
    def test_pulse_orders_5_to_8(self, pulse, order):
        x = np.linspace(-20.0, 20.0, 801)
        u = pulse.well.b_minus + pulse.pulse_bar(x)
        ref = chain_derivative_oracle(order)(
            u, pulse.pulse_bar_deriv(x, 1), pulse.well.tau
        )
        got = pulse.pulse_bar_deriv(x, order)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_pulse_orders_2_to_4(self, pulse, order):
        """The jet about b_minus agrees in the core with the chain formulas
        in u = b_minus + phi_bar to rounding."""
        x = np.linspace(-20.0, 20.0, 801)
        u = pulse.well.b_minus + pulse.pulse_bar(x)
        ref = chain_derivative_oracle(order)(
            u, pulse.pulse_bar_deriv(x, 1), pulse.well.tau
        )
        got = pulse.pulse_bar_deriv(x, order)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_gradient_stack_at_desk_point(self, desk_manifold):
        man = desk_manifold
        prof = man.build(moderate_config(man))
        phi = man.derivative_stack(prof, max_order=8)
        ref = np.array([g(*phi, man.well.tau) for g in gradient_oracle(4)])
        got = man.gradient_stack(phi)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-11


class TestPulseTail:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
    def test_relative_accuracy_in_the_tail(self, pulse, order):
        """phi_bar^(k) / ((-sign x * r)^k phi_bar) -> 1 far from the core."""
        x = np.array([30.0, 40.0, 60.0, 100.0, 150.0, -40.0])
        rate = np.sqrt(pulse.well.alpha_minus)
        asymptote = (-np.sign(x) * rate) ** order * pulse.pulse_bar(x)
        ratio = pulse.pulse_bar_deriv(x, order) / asymptote
        assert np.max(np.abs(ratio - 1.0)) <= 1e-10


def _exp_jet(a, z, size):
    return np.array([a**k * np.exp(a * z) for k in range(size)])


def _abs_power_bound(f, i):
    """Largest entry of the jet of |f|^i: bounds every partial product."""
    acc = np.zeros_like(f)
    acc[0] = 1.0
    for _ in range(i):
        acc = leibniz(acc, np.abs(f))
    return np.max(acc)


def _largest_term(well, j, f, base):
    """max_i |W^(j+i)(base) / i!| * |f|^i over the Taylor terms of well_jet."""
    derivs = (well.W, well.dW, well.d2W, well.d3W, well.d4W)[j:]
    return max(
        abs(float(d(base))) / factorial(i) * _abs_power_bound(f, i)
        for i, d in enumerate(derivs)
    )


coord = st.floats(-3.0, 3.0)
jets = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7).map(np.array)


class TestJetProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=coord, b=coord, z=st.floats(-2.0, 2.0))
    @example(a=1.12e-46, b=1.12e-46, z=0.0)  # order 7 is subnormal
    def test_leibniz_on_exponentials(self, a, b, z):
        size = 9
        got = leibniz(_exp_jet(a, z, size), _exp_jet(b, z, size))
        exact = _exp_jet(a + b, z, size)
        # the Leibniz sum of |terms| is (|a| + |b|)^m e^{(a+b)z}; for tiny a, b
        # the high orders are subnormal and that bound underflows to 0, so the
        # smallest normal double is the absolute floor
        scale = np.array([(abs(a) + abs(b)) ** m for m in range(size)])
        bound = 1e-12 * scale * np.exp((a + b) * z) + np.finfo(float).tiny
        assert np.all(np.abs(got - exact) <= bound)

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(-0.95, -0.05), j=st.integers(1, 3), f=jets,
           base=st.floats(-2.0, 2.0))
    def test_well_jet_value_and_shift(self, tau, j, f, base):
        well = DoubleWell(tau)
        got = well_jet(well, j, f, base)
        shifted = f.copy()
        shifted[0] += base
        scale = max(_largest_term(well, j, f, base),
                    _largest_term(well, j, shifted, 0.0))
        direct = (well.dW, well.d2W, well.d3W)[j - 1](base + f[0])
        assert abs(got[0] - direct) <= 1e-12 * scale
        assert np.all(np.abs(got - well_jet(well, j, shifted, 0.0))
                      <= 1e-12 * scale)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_close(got, ref, rtol):
    """Each row within rtol of that row's max |value|."""
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= rtol * scale)


# pulse offsets in the core, in the tail, beyond the background window
offsets = st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0),
                    st.floats(-250.0, 250.0))


class TestStacksMatchPerOrderEvaluation:
    """Each translate evaluated once for all orders gives the bits of one
    evaluation per order."""

    @settings(max_examples=40, deadline=None)
    @given(p=offsets)
    @example(p=0.0)
    def test_rows_equal_the_per_order_evaluators(self, pulse, backgrounds, p):
        x = p + np.linspace(-60.0, 60.0, 241)
        for k in range(9):
            pulse_rows = pulse.pulse_jet(x, k)
            bar_rows = [bar_jet(bg, x, k) for bg in backgrounds]
            for m in range(k + 1):
                assert same_bits(pulse_rows[m], pulse_bar_deriv_oracle(pulse, x, m))
                for bg, rows in zip(backgrounds, bar_rows):
                    assert same_bits(rows[m], bar_at_oracle(bg, x, m))

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_derivative_stack_equals_per_order_assembly(self, desk_manifold,
                                                       seed):
        """Phi reads the background from the lattice table, so each row is
        within 1e-12 of its max |value| (measured: at most 4e-14)."""
        man = desk_manifold
        config = man.sample_configurations(1, seed, include_equispaced=False)[0]
        prof = man.build(config)
        for k in (2, 4, 8):
            got = man.derivative_stack(prof, max_order=k)
            assert_rows_close(got, derivative_stack_oracle(man, prof, k, "phi"),
                              1e-12)

    def test_no_trig_table_once_the_lattice_exists(self, desk_manifold,
                                                   monkeypatch):
        """Once the manifold's lattice table exists, derivative_stack(
        max_order=8) evaluates each background translate once on the full
        grid and builds no trig table of the grid: only K cos and K sin
        values per translate."""
        man = desk_manifold
        prof = man.build(moderate_config(man))
        sizes, tables = count_background_work(monkeypatch, man)
        man.derivative_stack(prof, max_order=8)
        assert sizes.count(man.grid.num_points) == man.n
        assert tables == []


# (n, m) offsets: n translates of m points each, m may be 0
offset_rows = st.integers(1, 4).flatmap(lambda n: st.integers(0, 12).flatmap(
    lambda m: st.lists(st.lists(offsets, min_size=m, max_size=m),
                       min_size=n, max_size=n)))
unit_points = st.lists(st.floats(-1.0, 1.0), max_size=40)


class TestBatchedKernel:
    """One call of the batched, incremental kernel gives, row for row, the
    bits of the calls it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(rows=offset_rows)
    @example(rows=[[0.0, -0.0, 1.0], [-1.0, 0.0, 2.5]])
    @example(rows=[[30.0, -60.0, 24.5], [100.0, -24.5, 250.0]])  # no core
    @example(rows=[[], []])
    def test_rows_equal_the_one_translate_calls(self, pulse, rows):
        x = np.array(rows, dtype=float).reshape(len(rows), -1)
        for k in range(9):
            jets = pulse.pulse_jet(x, k)
            assert jets.shape == (k + 1,) + x.shape
            for i, row in enumerate(x):
                assert same_bits(jets[:, i], pulse.pulse_jet(row, k))

    @settings(max_examples=40, deadline=None)
    @given(rows=offset_rows)
    @example(rows=[[0.0, -0.0, 1.0], [-1.0, 0.0, 2.5]])
    @example(rows=[[], []])
    def test_order_zero_is_pulse_bar(self, pulse, rows):
        x = np.array(rows, dtype=float).reshape(len(rows), -1)
        jet = pulse.pulse_jet(x, 0)
        assert jet.shape == (1,) + x.shape
        assert same_bits(jet[0], pulse.pulse_bar(x))

    @settings(max_examples=40, deadline=None)
    @given(t=unit_points,
           coef=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30))
    @example(t=[-1.0, 1.0], coef=[1.0, -2.0])
    @example(t=[], coef=[0.5, 0.25, 0.125])
    def test_clenshaw_equals_chebval(self, pulse, t, coef):
        t = np.array(t, dtype=float)
        for series in (np.array(coef), pulse._cheb.coef):
            assert same_bits(clenshaw(t, series), chebval(t, series))

    @settings(max_examples=20, deadline=None)
    @given(frac=st.lists(st.floats(0.0, 1.0), max_size=40))
    @example(frac=[0.0, 1.0])  # the ends of the core's domain
    @example(frac=[])
    def test_core_equals_the_chebyshev_interpolant(self, pulse, frac):
        x = np.array(frac, dtype=float) * pulse.half_width
        assert same_bits(pulse.pulse_bar(x), pulse._cheb(x))

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(-0.95, -0.05), j=st.integers(0, 4),
           f=st.integers(1, 9).flatmap(lambda size: st.lists(
               st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
               min_size=size, max_size=size)),
           base=st.floats(-2.0, 2.0))
    def test_well_jet_equals_the_nested_loop(self, tau, j, f, base):
        """Full-length Horner stages grown one entry at a time give the bits
        of regrowing every stage by its whole Leibniz product, for jets of
        orders 0..8 at three points and at one."""
        well = DoubleWell(tau)
        f = np.array(f)
        for jet in (f, f[:, 0]):
            assert same_bits(well_jet(well, j, jet, base),
                             well_jet_oracle(well, j, jet, base))

    @pytest.mark.parametrize("order", [("residual_h4", "tangent_basis"),
                                       ("tangent_basis", "residual_h4")])
    def test_one_evaluation_per_stack(self, desk_manifold, monkeypatch, order):
        """residual_h4 (residual and energy) evaluates the pulse core once,
        to order 8, and tangent_basis once, to order 5, for all translates,
        whichever runs first: the profile keeps no rows between calls."""
        man = desk_manifold
        prof = man.build(moderate_config(man))
        cores, orders = [], []
        real_jet = type(man.pulse).pulse_jet

        def counting_clenshaw(t, coef):
            cores.append(np.size(t))
            return clenshaw(t, coef)

        def counting_jet(self, x, max_order):
            orders.append(max_order)
            return real_jet(self, x, max_order)

        monkeypatch.setattr(wellmodel, "clenshaw", counting_clenshaw)
        monkeypatch.setattr(type(man.pulse), "pulse_jet", counting_jet)
        top = {"residual_h4": 8, "tangent_basis": 5}
        for name in order:
            cores.clear()
            orders.clear()
            getattr(man, name)(prof)
            assert orders == [top[name]] and len(cores) == 1

    def test_three_translate_evaluations_per_profile(self, desk_manifold,
                                                     monkeypatch):
        """A profile built, measured (residual_h4) and given its tangents
        evaluates its pulse translates in 3 full-grid calls and each
        background translate 3 times on the full grid."""
        man = desk_manifold
        size = man.n * man.grid.num_points
        sizes, _ = count_background_work(monkeypatch, man)
        pulse_sizes = []
        real_bar = type(man.pulse).pulse_bar

        def counting_bar(self, x):
            pulse_sizes.append(np.size(x))
            return real_bar(self, x)

        monkeypatch.setattr(type(man.pulse), "pulse_bar", counting_bar)
        prof = man.build(moderate_config(man))
        man.residual_h4(prof)
        man.tangent_basis(prof)
        assert pulse_sizes.count(size) == 3
        assert sizes.count(man.grid.num_points) == 3 * man.n


# translates anywhere in (0, L) = (0, 160), and ones whose window of
# half-width 48 runs past 0 or L
translates = st.one_of(st.floats(0.0, 160.0), st.floats(0.0, 48.0),
                       st.floats(112.0, 160.0))


class TestLatticeBackground:
    """Background translates read from the lattice phase table agree with the
    arbitrary-offset evaluator `bar_jet` (measured: 1e-14 relative at order 0,
    1e-13 up to order 8)."""

    @settings(max_examples=30, deadline=None)
    @given(fine=st.booleans(), p=translates)
    @example(fine=True, p=0.0)
    @example(fine=False, p=112.0)  # |z - p| = W exactly at z = L
    @example(fine=True, p=1024 * (160.0 / 2047))  # on a grid node
    def test_rows_match_bar_jet(self, desk_manifold, diag_manifold, fine, p):
        man = desk_manifold if fine else diag_manifold
        nodes = np.arange(man.grid.num_points)
        got = man.bg2.lattice_jet(man._bg_table, nodes, p, 8)
        assert_rows_close(got, bar_jet(man.bg2, man.grid.nodes - p, 8), 1e-12)

    @settings(max_examples=6, deadline=None)
    @given(fine=st.booleans(), seed=st.integers(0, 2**16))
    def test_background_sum_on_grid_and_ends(self, desk_manifold,
                                             diag_manifold, fine, seed):
        """The background translates of `_translates`, on every node and on
        the two end nodes that the closure reads."""
        man = desk_manifold if fine else diag_manifold
        config = man.sample_configurations(1, seed, include_equispaced=False)[0]
        z = man.grid.nodes
        ref = sum(bar_jet(man.bg2, z - p, 8) for p in config.positions)
        full = sum(man._translates(config, np.arange(z.size), 8)[1])
        assert_rows_close(full, ref, 1e-12)
        ends = sum(man._translates(config, np.array([0, z.size - 1]), 8)[1])
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(np.abs(ends - ref[:, [0, -1]]) <= 1e-12 * scale[:, None])


def test_runtime_does_not_import_sympy():
    """Residuals and pulse derivatives of every order run without sympy."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from fchpulse import (Grid, PulseManifold, SystemParams, default_well,
                              solve_background, solve_homoclinic)
        well = default_well(-0.3)
        pulse = solve_homoclinic(well)
        bg2 = solve_background(well, pulse)[1]
        params = SystemParams(epsilon=0.05, domain_d=16.0 * 0.05, n_pulses=2,
                              total_mass=2.01 * pulse.mass_h, min_spacing=5.0,
                              alpha_minus=well.alpha_minus)
        man = PulseManifold(well, pulse, bg2, params,
                            Grid(16.0, 256, h_max=0.4))
        man.residual_h4(man.build(man.configuration([4.5, 12.0])))
        pulse.pulse_bar_deriv(np.linspace(-5.0, 5.0, 11), 8)
        assert "sympy" not in sys.modules, "sympy was imported"
    """)
    src = os.path.dirname(os.path.dirname(fchpulse.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
