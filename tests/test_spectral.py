"""Eigenstructure diagnostics: splitting, indices, coercivity, alignment."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fchpulse.spectral as spectral
from fchpulse import (
    Grid,
    ProfilePoint,
    ScalarField,
    coercivity_constant,
    el_bounds,
    gradient_symbols,
    spectral_gap_report,
    symmetrized_gap,
    tangent_alignment,
)
from fchpulse.ansatz import h4_norm_from_stack
from fchpulse.core import (
    cosine_synth,
    h_mode_multipliers,
    integral,
    mode_matrix,
)
from fchpulse.operators import second_variation_coefficients, to_modes
from fchpulse.spectral import (
    GAMMA_SWEEP,
    ShiftError,
    SpectralContext,
    THRESHOLDS,
    _best_shift,
    _lanczos,
    _metric_basis,
    _projected_inverse,
    certified_count,
    dual_h4_norm,
    eigenfield_continuity,
    eta_star_formula,
    negative_count,
    semigroup_decay_check,
    spectral_context,
)
from fchpulse.wellmodel import (
    _half_line_second_derivative,
    single_pulse_point_spectrum,
)
from conftest import (
    cluster_config,
    constrained_negative_index,
    dense_coercivity_minima,
    dense_factors,
    dense_lowest,
    dense_ritz,
    dense_shift_solver,
    dense_shift_sweep,
    dense_second_derivative,
    dense_second_variation,
    dense_spectral_multiplier,
    every_shift,
    from_modes,
    full_point_spectrum,
    mode_field,
    moderate_config,
    nodal_h4_norm,
    nodal_residuals,
    slow_eigenvalues,
    spectral_derivative,
    to_weighted,
    weighted_cosine_basis,
)


# The dense nodal path that the cosine-mode SpectralContext replaced, kept as
# the oracle: the weighted-coordinate second variation reduced to the
# Householder complement of the constant direction.


def constant_direction(grid):
    c = np.sqrt(grid.quad_weights)
    return c / np.linalg.norm(c)


def householder_complement(vec):
    """Deterministic orthonormal basis of the orthogonal complement of vec."""
    n = vec.size
    v = vec / np.linalg.norm(vec)
    w = v.copy()
    w[0] -= 1.0
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n)[:, 1:]
    w /= nw
    h = np.eye(n) - 2.0 * np.outer(w, w)
    return h[:, 1:]


def householder_eigh(mat, grid, k=None):
    """Eigenpairs of a weighted-coordinate matrix on the zero-mass space, in
    full or the lowest k, with the complement basis (basis @ vecs gives
    weighted-coordinate eigenvectors)."""
    basis = householder_complement(constant_direction(grid))
    reduced = basis.T @ mat @ basis
    if k is None:
        evals, evecs = sla.eigh(reduced)
    else:
        evals, evecs = sla.eigh(reduced, subset_by_index=[0, k - 1])
    return evals, evecs, basis


def householder_ritz(phi, well, k, g1_multipliers=None):
    """The lowest k pairs of G1 L G1 in the Householder basis (L alone without
    multipliers): (dense eigenvalues, Ritz values, Frobenius norm of the
    reduced matrix). The Ritz step uses the factored form
    (A G1 V)^T (A G1 V) - (G1 V)^T Z (G1 V), A = d^2 - W'' in weighted
    coordinates; with multipliers, one step of block inverse iteration on
    the factored residual comes first."""
    grid = phi.grid
    w2, zeroth = second_variation_coefficients(phi, well)
    a = dense_second_derivative(grid) - np.diag(w2)
    g1 = np.eye(grid.num_points)
    if g1_multipliers is not None:
        g1 = dense_spectral_multiplier(grid, g1_multipliers)
    basis = householder_complement(constant_direction(grid))
    reduced = basis.T @ g1 @ dense_second_variation(phi, well) @ g1
    reduced = reduced @ basis
    evals, vecs = sla.eigh(reduced, subset_by_index=[0, k - 1])

    def factored(v):
        w = g1 @ (basis @ v)
        return w, a @ w

    def ritz(v):
        w, aw = factored(v)
        h = aw.T @ aw - w.T @ (zeroth[:, None] * w)
        theta, y = np.linalg.eigh(0.5 * (h + h.T))
        return theta, v @ y

    theta, vecs = ritz(vecs)
    if g1_multipliers is not None:
        w, aw = factored(vecs)
        resid = basis.T @ (g1 @ (a.T @ aw - zeroth[:, None] * w)) - vecs * theta
        vecs, _ = np.linalg.qr(vecs - np.linalg.solve(reduced, resid))
        theta, vecs = ritz(vecs)
    return evals, theta, np.linalg.norm(reduced)


class TestZeroMassEigh:
    def test_constant_state_spectrum(self, well):
        # (d^2 - alpha)^2 on the zero-mass space: ((k pi/L)^2 + alpha)^2
        grid = Grid(160.0, 512, h_max=0.4)
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        context = spectral_context(u, well)
        evals, _ = context.lowest(context.factor(), 6)
        expected = sorted(
            ((k * np.pi / grid.length) ** 2 + well.alpha_minus) ** 2
            for k in range(1, 7)
        )
        assert_allclose(evals, expected, atol=1e-8)
        ref, _, _ = householder_eigh(
            dense_second_variation(u, well), grid, 6
        )
        assert_allclose(ref, expected, atol=1e-8)

    def test_dense_cross_check(self, well):
        # the lowest Ritz pairs, the full solve in modes, the Householder
        # oracle and a brute-force diagonalization in another orthonormal
        # basis of the zero-mass space agree at N = 256
        grid = Grid(160.0, 256, h_max=0.7)
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        context = spectral_context(u, well)
        evals, _ = context.lowest(context.factor(), 8)
        full = sla.eigh(context.matrix, eigvals_only=True)
        assert full.size == grid.num_points - 1
        mat = dense_second_variation(u, well)
        oracle, _, _ = householder_eigh(mat, grid, 8)
        other = sla.null_space(constant_direction(grid)[None, :])
        brute = np.linalg.eigvalsh(other.T @ mat @ other)[:8]
        for vals in (evals, full[:8], oracle):
            assert np.max(np.abs(vals - brute)) < 1e-8

    def test_deflation_removes_constants(self, well):
        grid = Grid(160.0, 512, h_max=0.4)
        u = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        context = spectral_context(u, well)
        _, vecs = context.lowest(context.factor(), 4)
        for vec in vecs.T:
            f = mode_field(grid, vec)
            assert abs(integral(f)) / grid.length < 1e-10


class TestRitzOracle:
    """The refined spectra against the Householder-basis oracle."""

    @pytest.mark.parametrize("point", ["moderate", "equispaced"])
    def test_gap_report(self, diag_manifold, point):
        man = diag_manifold
        cfg = (moderate_config(man) if point == "moderate"
               else man.equispaced())
        prof = man.build(cfg)
        rep = spectral_gap_report(ProfilePoint(man, prof))
        dense, ritz, _ = householder_ritz(prof.phi, man.well,
                                          rep.eigenvalues.size)
        n = rep.slow_dim
        assert n == man.n
        assert_allclose(rep.eigenvalues[:n], ritz[:n], rtol=1e-9, atol=0)
        assert_allclose(rep.eigenvalues[n:], dense[n:], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("point", ["moderate", "equispaced"])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_symmetrized_gap(self, diag_manifold, s, point):
        man = diag_manifold
        cfg = (moderate_config(man) if point == "moderate"
               else man.equispaced())
        prof = man.build(cfg)
        rep = symmetrized_gap(ProfilePoint(man, prof), s)
        dense, ritz, norm_mat = householder_ritz(
            prof.phi, man.well, rep.eigenvalues.size,
            gradient_symbols(man.grid, s)[1])
        n = man.n
        assert_allclose(rep.eigenvalues[:n], ritz[:n], rtol=1e-9, atol=0)
        assert_allclose(rep.eigenvalues[n:], ritz[n:], rtol=1e-10, atol=0)
        # G1 L G1 has norm up to N^2 ||L||, so the dense solve itself is only
        # good to its eps-level backward error (7.5e-6 relative at s = 1)
        eps_mat = np.finfo(float).eps * norm_mat
        assert np.max(np.abs(rep.eigenvalues[n:] - dense[n:])) <= eps_mat


class TestFactoredContext:
    """The one N^2 array of a SpectralContext, assembled with no matrix
    product, and its transform products, against the dense factors b and z
    (conftest) that it replaced."""

    @pytest.fixture(scope="class", params=["testbed", "desk"])
    def context(self, request, small_manifold, diag_manifold):
        if request.param == "testbed":
            man = small_manifold
            cfg = man.configuration([4.5, 12.0])
        else:
            man = diag_manifold
            cfg = moderate_config(man)
        return spectral_context(man.build(cfg).phi, man.well)

    def test_matrix_is_the_dense_factor_product(self, context):
        # B B = K^4 + (kappa_i^2 + kappa_j^2) M(W'') + M(W''^2), since Q is
        # orthogonal
        b, z = dense_factors(context)
        ref = b.T @ b - z
        assert context.matrix.shape == ref.shape
        assert np.max(np.abs(context.matrix - ref)) <= (
            1e-12 * np.linalg.norm(ref, 2))

    def test_transform_products_match_dense_factors(self, context):
        b, z = dense_factors(context)
        w = np.random.default_rng(3).standard_normal((b.shape[1], 5))
        bw, zw = context._factors(w)
        assert_allclose(bw, b @ w, rtol=0, atol=1e-13 * np.max(np.abs(b @ w)))
        assert_allclose(zw[1:], z @ w, rtol=0,
                        atol=1e-13 * np.max(np.abs(z @ w)))
        dense = b.T @ (b @ w) - z @ w
        assert_allclose(context.residual(w, np.zeros(5)), dense, rtol=0,
                        atol=1e-13 * np.max(np.abs(dense)))


class TestContextMemory:
    """On the testbed (N = 256) a context holds one (N-1)^2 array; its
    build makes one more, the coercivity solves at most two more, and a
    point's whole sequence of solves at most one more at any time."""

    def test_context_holds_one_square_array(self, small_manifold):
        man = small_manifold
        phi = man.build(man.configuration([4.5, 12.0])).phi
        size = man.grid.num_points
        square = (size - 1) ** 2 * 8
        tracemalloc.start()
        try:
            context = spectral_context(phi, man.well)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [getattr(context, f.name) for f in dataclasses.fields(context)
                  if isinstance(getattr(context, f.name), np.ndarray)]
        assert sum(a.nbytes for a in arrays) == square + 2 * size * 8
        assert held <= square + 16 * size * 8
        # the cross term M(W'') is the one working array of the assembly;
        # adding its transpose goes through numpy's 64 KiB iterator buffer
        assert peak <= 2 * square + 16 * size * 8 + 2**16

    def test_coercivity_adds_at_most_two_square_arrays(self, small_manifold):
        man = small_manifold
        point = ProfilePoint(man, man.build(man.configuration([4.5, 12.0])))
        # the cached context, tangents and edge floor are made beforehand,
        # so only the solves' own arrays are traced
        point.context, point.basis, man.pulse.edge_floor
        square = (man.grid.num_points - 1) ** 2 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            coercivity_constant(point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2 * square

    def test_point_sequence_holds_one_square_array(self, manifold_factory):
        # gap report, coercivity and the symmetrized gap at two s on the
        # suite's testbed: the shared LU is dropped before the shift sweep
        # factors its copies and made again for the symmetrized gaps, so at
        # most one (N-1)^2 array is held beside the context at any time
        man = manifold_factory(length=32.0, n=2, ell=8.0, num_points=256)
        point = ProfilePoint(man, man.build(man.equispaced()))
        point.context, point.basis, man.pulse.edge_floor
        size = man.grid.num_points
        square = (size - 1) ** 2 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            point.gap, point.coercivity
            assert "lu" not in vars(point)
            for s in (0.5, 1.0):
                symmetrized_gap(point, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # besides that array, the Lanczos and Ritz work arrays: a few dozen
        # columns of N
        assert peak - start <= square + 128 * size * 8

    def test_semigroup_decay_on_a_fresh_point(self, small_manifold):
        # called directly, the check makes the context and the gap report's
        # LU, then drops the LU before its inertia certificate slices the
        # matrix
        man = small_manifold
        point = ProfilePoint(man, man.build(man.configuration([4.5, 12.0])))
        point.basis, man.pulse.edge_floor
        size = man.grid.num_points
        square = (size - 1) ** 2 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            semigroup_decay_check(point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "lu" not in vars(point)
        assert peak - start <= 2 * square + 128 * size * 8


def shift_invert_point(manifold, point):
    """The equispaced configuration (parity-symmetric) or one of two
    asymmetric ones."""
    if point == "equispaced":
        return manifold.equispaced()
    if point == "moderate":
        return moderate_config(manifold)
    return manifold.configuration([30.0, 75.0, 128.0])


def assert_inertia_certificate(mat, theta):
    """At every clear gap of the ascending theta, a shift sigma midway
    between theta_j and theta_{j+1} leaves exactly j eigenvalues of mat below
    it: no eigenvalue below the gap, a second copy of a multiple one
    included, is missing from theta."""
    gaps = [j for j in range(1, theta.size)
            if theta[j] - theta[j - 1] > 1e-3 * abs(theta[j])]
    assert gaps
    for j in gaps:
        sigma = 0.5 * (theta[j - 1] + theta[j])
        assert negative_count(mat, sigma) == j, (j, sigma)


POINTS = ["equispaced", "moderate", "spread"]


class TestShiftInvert:
    """The shift-invert Lanczos solves against the dense eigensolves they
    replaced (conftest), at the desk preset's diagnostic grid."""

    @pytest.fixture(scope="class")
    def points(self, diag_manifold):
        man = diag_manifold
        return {point: ProfilePoint(man, man.build(shift_invert_point(man,
                                                                      point)))
                for point in POINTS}

    @pytest.mark.parametrize("point", POINTS)
    def test_lowest_matches_dense_oracle(self, points, point):
        context = points[point].context
        theta, vecs = context.lowest(points[point].lu, 7)
        ref, _ = dense_lowest(context, 7)
        assert_allclose(theta, ref, rtol=1e-9, atol=0)
        assert vecs.shape == (context.matrix.shape[0], 7)
        assert_allclose(vecs.T @ vecs, np.eye(7), atol=1e-12)
        assert_inertia_certificate(context.matrix, theta)
        if point == "equispaced":
            # the parity-symmetric point has the double stable value 0.4678,
            # with an even and an odd eigenvector
            assert theta[3] == pytest.approx(0.4678, rel=1e-4)
            assert theta[4] == pytest.approx(theta[3], rel=1e-9)
            # the certificate sees a spectrum that lacks one copy
            with pytest.raises(AssertionError):
                assert_inertia_certificate(context.matrix,
                                           np.delete(theta, 4))

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_scaled_lowest_matches_dense_oracle(self, diag_manifold,
                                                points, point, s):
        context = points[point].context
        g1 = gradient_symbols(diag_manifold.grid, s)[1][1:]
        theta, w = context.lowest(points[point].lu, 6, g1**-2.0)
        ref, _ = dense_lowest(context, 6, scale=g1)
        assert_allclose(theta, ref, rtol=1e-9, atol=0)
        scaled = g1[:, None] * context.matrix * g1[None, :]
        assert_inertia_certificate(scaled, theta)
        # w is orthonormal in the metric G1^{-2}: w / g1 is orthonormal
        y = w / g1[:, None]
        assert_allclose(y.T @ y, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("point", POINTS)
    def test_coercivity_minima_match_dense_oracle(self, points, point):
        pt = points[point]
        rep = coercivity_constant(pt)
        mu_x, mu_h2, _ = dense_coercivity_minima(pt.context, pt.basis[0])
        assert rep.mu_x == pytest.approx(mu_x, rel=1e-9)
        assert rep.mu_h2 == pytest.approx(mu_h2, rel=1e-9)
        again = coercivity_constant(pt)
        assert again == rep

    def test_repeats_bit_for_bit(self, diag_manifold, points):
        point = points["moderate"]
        g1 = gradient_symbols(diag_manifold.grid, 1.0)[1][1:]
        for metric in (None, g1**-2.0):
            first = point.context.lowest(point.lu, 7, metric)
            second = point.context.lowest(point.lu, 7, metric)
            assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_singular_matrix_raises(self):
        singular = SpectralContext(grid=None, w2=None, zeroth=None,
                                   matrix=np.diag([0.0, 1.0, 2.0, 3.0, 4.0]))
        with pytest.warns(sla.LinAlgWarning):
            with pytest.raises(ShiftError, match="singular at shift 0"):
                singular.factor()
        with pytest.warns(sla.LinAlgWarning):
            with pytest.raises(ShiftError, match="singular at shift -2"):
                singular.factor(-2.0)
        assert np.all(np.diag(singular.factor(0.5)[0]))


class TestConstrainedSolve:
    """The projected inverse and the metric Lanczos solve on random symmetric
    positive definite A, diagonal metrics m and constraint blocks T."""

    @staticmethod
    def problem(size, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((size, size))
        a = g @ g.T / size + 0.1 * np.eye(size)
        m = np.exp(rng.uniform(-2.0, 2.0, size))
        return a, m, rng.standard_normal((size, n)), rng.standard_normal(size)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(30, 60), n=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_projected_inverse(self, size, n, seed):
        a, _, t, b = self.problem(size, n, seed)
        y = _projected_inverse(sla.lu_factor(a), t)(b)
        assert np.linalg.norm(t.T @ y) <= 1e-12 * np.linalg.norm(t) * (
            np.linalg.norm(y))
        # A y - b lies in span(T): its projection P onto the complement is 0
        q, _ = np.linalg.qr(t)
        r = a @ y - b
        assert np.linalg.norm(r - q @ (q.T @ r)) <= 1e-12 * (
            np.linalg.norm(a, 2) * np.linalg.norm(y) + np.linalg.norm(b))
        assert np.array_equal(_projected_inverse(sla.lu_factor(a))(b),
                              sla.lu_solve(sla.lu_factor(a), b))

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(30, 60), n=st.integers(0, 4),
           k=st.integers(1, 4), metric=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_metric_solve_matches_dense(self, size, n, k, metric, seed):
        a, m, t, _ = self.problem(size, n, seed)
        m = m if metric else None
        t = t if n else None
        vals, vecs = _lanczos(sla.lu_factor(a), k, m, t)
        gram = np.diag(np.ones(size) if m is None else m)
        basis = np.eye(size) if t is None else sla.null_space(t.T)
        ref = sla.eigh(basis.T @ a @ basis, basis.T @ gram @ basis,
                       eigvals_only=True)
        j = k + spectral.LANCZOS_EXTRA_PAIRS
        assert_allclose(np.sort(vals), ref[:j], rtol=1e-9, atol=0)
        assert_allclose(vecs.T @ gram @ vecs, np.eye(j), atol=1e-10)
        if t is not None:
            assert np.max(np.abs(t.T @ vecs)) <= 1e-10 * np.linalg.norm(t)


class TestSpectralGap:
    def test_slow_dimension_and_edge(self, diag_manifold, edge_floor):
        prof = diag_manifold.build(moderate_config(diag_manifold))
        rep = spectral_gap_report(ProfilePoint(diag_manifold, prof))
        assert rep.passed, rep.failures
        assert rep.slow_dim == 3
        assert 0.8 * edge_floor <= rep.stable_edge <= 1.2 * edge_floor

    def test_slow_count_grid_doubling(self, manifold_factory):
        slow = {}
        for n_pts in (1024, 2048):
            man = manifold_factory(num_points=n_pts)
            prof = man.build(man.configuration([12.0, 22.0, 34.0]))
            slow[n_pts] = spectral_gap_report(ProfilePoint(man, prof))
        assert slow[1024].slow_dim == slow[2048].slow_dim == 3
        assert np.max(np.abs(
            slow_eigenvalues(slow[1024]) - slow_eigenvalues(slow[2048])
        )) < 1e-6

    def test_tail_scaling_of_slow_set(self, manifold_factory, well):
        # max slow eigenvalue shrinks by about exp(-2 sqrt(alpha)) per ell+2
        worst = {}
        for ell in (8.0, 10.0):
            man = manifold_factory(num_points=1024, ell=ell)
            prof = man.build(cluster_config(man, ell))
            rep = spectral_gap_report(ProfilePoint(man, prof))
            assert rep.slow_dim == 3
            worst[ell] = np.max(np.abs(slow_eigenvalues(rep)))
        ratio = worst[10.0] / worst[8.0]
        predicted = np.exp(-2.0 * np.sqrt(well.alpha_minus))
        assert abs(ratio - predicted) <= 0.3 * predicted

    def test_gap_collapse_at_tiny_spacing(self, manifold_factory):
        # ell = 2: strong overlap destroys the slow/stable dichotomy, and the
        # report flags it instead of raising
        man = manifold_factory(num_points=1024, ell=2.0)
        prof_cfg = man.configuration([1.2, 3.4, 5.8])
        rep = spectral_gap_report(ProfilePoint(man, man.build(prof_cfg)))
        assert not rep.passed
        assert rep.failures


class TestConstrainedIndex:
    def test_identity_operator(self):
        rng = np.random.default_rng(0)
        mat = np.eye(8)
        cons = [rng.standard_normal(8) for _ in range(3)]
        res = constrained_negative_index(mat, cons, mu=0.0)
        assert res.formula_index == res.brute_index == 0

    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(42)
        agree = 0
        trials = 200
        for _ in range(trials):
            a = rng.standard_normal((8, 8))
            mat = 0.5 * (a + a.T)
            m = int(rng.integers(1, 4))
            cons = [rng.standard_normal(8) for _ in range(m)]
            res = constrained_negative_index(mat, cons, mu=0.0)
            assert res.formula_index == res.brute_index
            agree += 1
        assert agree == trials

    def test_singular_shift_raises(self):
        mat = np.diag([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ShiftError):
            constrained_negative_index(mat, [np.ones(4)], mu=0.0)

    def test_shifted_linearization_structure(self, diag_manifold, well,
                                             edge_floor):
        # for L = -(flow linearization) - mu with mu inside the gap, the
        # constraint matrix over the tangents is (1/mu) I + O(delta) and the
        # constrained index vanishes
        cfg = moderate_config(diag_manifold)
        prof = diag_manifold.build(cfg)
        tangents, _ = diag_manifold.tangent_basis(prof)
        mu = 0.75 * edge_floor

        context = spectral_context(prof.phi, well)
        cons = [to_modes(t)[1:] for t in tangents]
        res = constrained_negative_index(context.matrix, cons, mu=mu)
        assert res.formula_index == res.brute_index == 0
        assert res.shifted_index == 3
        # with L = (constrained second variation - mu), the slow directions
        # give D ~ -(1/mu) Gram, so n(L) = n(D) = n and the constrained
        # index vanishes; the sign of D flips with the sign convention of L
        d_scaled = res.d_matrix * mu
        gram = np.array([[c @ d for d in cons] for c in cons])
        assert np.max(np.abs(d_scaled + gram)) <= 0.15 * np.max(np.abs(gram))
        assert np.count_nonzero(np.linalg.eigvalsh(res.d_matrix) < 0) == 3


class TestCoercivity:
    def test_positive_and_chained_bound(self, diag_manifold):
        for cfg in (moderate_config(diag_manifold),
                    diag_manifold.equispaced()):
            prof = diag_manifold.build(cfg)
            rep = coercivity_constant(ProfilePoint(diag_manifold, prof))
            assert rep.mu_h2 > 0.0
            assert rep.passed and rep.relation_holds()
            assert 0.0 < rep.bound <= rep.mu_h2
            assert rep.mu_x >= rep.mu_tilde

    def test_unconstrained_minimum_drops_to_slow_scale(self, diag_manifold):
        prof = diag_manifold.build(moderate_config(diag_manifold))
        rep = coercivity_constant(ProfilePoint(diag_manifold, prof))
        delta = diag_manifold.params.tail_scale
        assert rep.unconstrained_x_min <= 1000 * delta
        assert rep.mu_x >= 100 * rep.unconstrained_x_min

    @pytest.mark.parametrize("gamma", GAMMA_SWEEP)
    def test_shifted_pairs(self, diag_manifold, gamma):
        # each shift of the sweep solves (L + gamma) w = mu_e diag(h2) w on
        # its own LU: the pair's residual is at rounding level, w has unit
        # H2 norm, and mu_e is the dense generalized eigenvalue
        point = ProfilePoint(diag_manifold,
                             diag_manifold.build(moderate_config(diag_manifold)))
        context = point.context
        h2 = h_mode_multipliers(diag_manifold.grid, 2)[1:]
        theta, w = context.lowest(context.factor(gamma), 1, h2, shift=gamma)
        resid = context.residual(w, theta, h2) + gamma * w
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(
            context.residual(w, np.zeros(1)) + gamma * w)
        assert np.sum(h2 * w[:, 0] ** 2) == pytest.approx(1.0, rel=1e-12)
        shifted = context.matrix + gamma * np.eye(h2.size)
        ref = sla.eigh(shifted, np.diag(h2), subset_by_index=[0, 0],
                       eigvals_only=True)[0]
        assert theta[0] == pytest.approx(ref, rel=1e-9)

    def test_h2_constant_resolution_stable(self, manifold_factory):
        # mu_h2 and the chained bound in H2 hold still under grid doubling
        reps = {}
        for n_pts in (512, 1024):
            man = manifold_factory(num_points=n_pts)
            prof = man.build(man.equispaced())
            reps[n_pts] = coercivity_constant(ProfilePoint(man, prof))
        for key in ("mu_h2", "bound"):
            assert getattr(reps[1024], key) == pytest.approx(
                getattr(reps[512], key), rel=0.05), key

    def test_h4_minimum_is_the_top_mode(self, manifold_factory):
        # the H4 minimum is the grid's top mode: it follows sigma_top and
        # falls 16x per doubling of N, as kappa_max^{-4}
        mu, rep = {}, {}
        for n_pts in (512, 1024):
            man = manifold_factory(num_points=n_pts)
            point = ProfilePoint(man, man.build(man.equispaced()))
            mu[n_pts] = dense_coercivity_minima(point.context,
                                                point.basis[0])[2]
            rep[n_pts] = coercivity_constant(point)
        assert mu[1024] == pytest.approx(rep[1024].sigma_top, rel=0.01)
        assert mu[512] / mu[1024] == pytest.approx(16.0, rel=0.05)
        assert rep[512].sigma_top / rep[1024].sigma_top == pytest.approx(
            16.0, rel=0.05)


def dense_generalized_coercivity(manifold, profile, tangents, k_s):
    """Reference coercivity: nodal complements and generalized eigensolves
    with the dense Sobolev Grams (the direct form of the definitions)."""
    grid = manifold.grid
    lw = dense_second_variation(profile.phi, manifold.well)
    g2 = dense_spectral_multiplier(grid, h_mode_multipliers(grid, 2))

    def lowest(*mats):
        return sla.eigh(*mats, subset_by_index=[0, 0], eigvals_only=True)[0]

    basis = sla.null_space(np.stack(
        [constant_direction(grid), *(to_weighted(t) for t in tangents)]
    ))
    a_c = basis.T @ lw @ basis
    basis0 = householder_complement(constant_direction(grid))
    a_0 = basis0.T @ lw @ basis0
    g2_0 = basis0.T @ g2 @ basis0
    mu_tilde = 0.75 * k_s
    best_bound, best = -np.inf, (np.nan, np.nan)
    for ge in GAMMA_SWEEP:
        mu_e = lowest(a_0 + ge * np.eye(a_0.shape[0]), g2_0)
        bound = mu_tilde * mu_e / (mu_tilde + ge)
        if bound > best_bound:
            best_bound, best = bound, (mu_e, ge)
    return {
        "mu_h2": lowest(a_c, basis.T @ g2 @ basis),
        "mu_x": lowest(a_c),
        "mu_e": best[0],
        "gamma_e": best[1],
        "bound": best_bound,
        "unconstrained_x_min": lowest(a_0),
        "norm_a": np.linalg.norm(lw, 2),
    }


class TestShiftSweep:
    """_best_shift returns exactly what solving every shift returns."""

    GAMMAS = st.one_of(st.sampled_from([0.0, 0.05, 0.25, 1.0, 8.0]),
                       st.floats(0.0, 10.0))

    @staticmethod
    def operator_like(n, seed, kind):
        # an H2-whitened symmetric matrix: a fourth-order symbol plus a
        # symmetric perturbation, a diagonal one, or a random symmetric one
        rng = np.random.default_rng(seed)
        kappa = np.pi * np.arange(1, n + 1) / (0.25 * n)
        s2 = 1.0 / np.sqrt(sum(kappa ** (2 * m) for m in range(3)))
        g = rng.standard_normal((n, n))
        if kind == "operator":
            a = np.diag((kappa**2 - 1.0) ** 2) + (g + g.T) / np.sqrt(n)
        elif kind == "diagonal":
            a = np.diag(rng.standard_normal(n) * (1.0 + kappa**4))
        else:
            a = g + g.T
        return s2[:, None] * a * s2[None, :], s2**2

    @staticmethod
    def sweep(mat, shift, held, mu_tilde, sweep, calls=None):
        return _best_shift(dense_shift_solver(mat, shift, calls),
                           dense_ritz(mat, shift), np.ones(len(shift)), held,
                           mu_tilde, sweep)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["operator", "diagonal", "symmetric"]),
           held=st.integers(0, 4), mu_tilde=st.floats(1e-3, 10.0),
           sweep=st.lists(GAMMAS, min_size=1, max_size=8))
    def test_matches_full_sweep(self, n, seed, kind, held, mu_tilde, sweep):
        # whatever vectors the sweep starts from, it returns the every-shift
        # result
        mat, shift = self.operator_like(n, seed, kind)
        start = np.random.default_rng(seed).standard_normal((n, held))
        calls = []
        mu_e, gamma_e, bound, solved = self.sweep(mat, shift, start,
                                                  mu_tilde, sweep, calls)
        assert (mu_e, gamma_e, bound) == every_shift(
            dense_shift_solver(mat, shift), mu_tilde, sweep)
        assert solved == tuple(calls)
        mid = (len(sweep) - 1) // 2
        assert solved[0] == sweep[mid] and gamma_e in solved
        # from the middle of the sweep outward, the lower index first
        outward = sorted(range(len(sweep)), key=lambda i: (abs(i - mid), i))
        rest = iter(sweep[i] for i in outward)
        assert all(ge in rest for ge in solved)

    def test_nothing_skipped_when_every_shift_wins(self):
        # mu_e(gamma) = 0.5 + gamma under mu_tilde = 2: the bound rises with
        # gamma, so each shift of a sweep whose middle-outward order is
        # ascending beats the one before
        mat, shift = 0.5 * np.eye(6), np.ones(6)
        sweep = (4.0, 1.0, 0.25, 0.05, 0.5, 2.0, 8.0)
        result = self.sweep(mat, shift, np.eye(6)[:, :2], 2.0, sweep)
        assert result[3] == (0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        assert result[:3] == every_shift(dense_shift_solver(mat, shift), 2.0,
                                         sweep)
        assert result[1] == 8.0

    def test_repeated_shift_is_solved_and_first_kept(self):
        # a tie in the bound cannot be skipped, and the strict comparison
        # keeps the first shift that reached it; the vector of the first
        # solve rules out 0.05
        mat, shift = 0.5 * np.eye(6), np.ones(6)
        sweep = (8.0, 8.0, 0.05)
        mu_e, gamma_e, bound, solved = self.sweep(mat, shift, np.zeros((6, 0)),
                                                  2.0, sweep)
        assert solved == (8.0, 8.0)
        assert (mu_e, gamma_e, bound) == every_shift(
            dense_shift_solver(mat, shift), 2.0, sweep)

    def test_held_vectors_rule_out_a_shift(self):
        # mat + gamma diag(10, 0) under mu_tilde = 1: gamma = 1 (mu_e 3,
        # bound 1.5) beats 0.05 (mu_e 1.5, bound 1.43). The eigenvector of
        # 1, e_2, has the Rayleigh quotient 3 at 0.05 and cannot rule it
        # out; with e_1 held, the ceiling at 0.05 is 1.5, and it does
        mat, shift = np.diag([1.0, 3.0]), np.array([10.0, 0.0])
        sweep = (1.0, 0.05)
        alone = self.sweep(mat, shift, np.zeros((2, 0)), 1.0, sweep)
        held = self.sweep(mat, shift, np.eye(2)[:, :1], 1.0, sweep)
        assert alone[3] == (1.0, 0.05) and held[3] == (1.0,)
        assert alone[:3] == held[:3] == (3.0, 1.0, 1.5)


class TestShiftCeiling:
    """The ceiling of a shift, the lowest Ritz value on the metric-orthonormal
    basis of held vectors (_metric_basis), bounds the lowest eigenvalue of
    the pencil (A + gamma D, diag(metric)) from above, within the sweep's
    rounding margin, whatever the held vectors."""

    @staticmethod
    def held_set(rng, pencil, kind, size, count):
        """count vectors: random, nearly dependent ones (combinations of the
        others plus noise of 1e-13), or holding the lowest eigenvector."""
        held = rng.standard_normal((size, count))
        if kind == "dependent":
            extra = held @ rng.standard_normal((count, count))
            held = np.hstack([held, extra + 1e-13 * rng.standard_normal(
                extra.shape), held[:, :1]])
        elif kind == "eigenvector":
            held = np.hstack([held, sla.eigh(*pencil,
                                             subset_by_index=[0, 0])[1]])
        return held

    @staticmethod
    def assert_ceiling(ritz, metric, held, pencil):
        basis = _metric_basis(held, metric)
        assert basis.shape[1] <= np.linalg.matrix_rank(held)
        assert_allclose(basis.T @ (metric[:, None] * basis),
                        np.eye(basis.shape[1]), rtol=0, atol=1e-12)
        ceiling = ritz(basis)[0][0]
        lowest = sla.eigh(*pencil, eigvals_only=True, subset_by_index=[0, 0])
        assert ceiling + 1e-8 * (1.0 + abs(ceiling)) >= lowest[0]

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(2, 40), count=st.integers(1, 5),
           kind=st.sampled_from(["random", "dependent", "eigenvector"]),
           gamma=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_dense_pencils(self, size, count, kind, gamma, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((size, size))
        a = (g + g.T) * 10.0 ** rng.uniform(-2.0, 2.0)
        d = np.exp(rng.uniform(-3.0, 3.0, size))
        metric = np.exp(rng.uniform(-3.0, 3.0, size))
        pencil = (a + gamma * np.diag(d), np.diag(metric))
        held = self.held_set(rng, pencil, kind, size, count)
        self.assert_ceiling(lambda w: dense_ritz(a, d)(w, gamma), metric,
                            held, pencil)

    @settings(max_examples=30, deadline=None)
    @given(num_points=st.integers(16, 64), count=st.integers(1, 5),
           kind=st.sampled_from(["random", "dependent", "eigenvector"]),
           gamma=st.sampled_from(GAMMA_SWEEP), seed=st.integers(0, 2**32 - 1))
    def test_factored_ritz_of_a_context(self, num_points, count, kind, gamma,
                                        seed):
        # the factored SpectralContext.ritz of coercivity_constant, in the H2
        # metric, against the dense zero-mass matrix of the same W'' and Z
        rng = np.random.default_rng(seed)
        grid = Grid(10.0, num_points, h_max=10.0)
        w2 = rng.uniform(-1.0, 3.0, num_points)
        zeroth = rng.uniform(-2.0, 2.0, num_points)
        b = -(np.diag(grid.wavenumbers**2) + mode_matrix(grid, w2))
        matrix = (b @ b)[1:, 1:] - mode_matrix(grid, zeroth, start=1)
        context = SpectralContext(grid=grid, w2=w2, zeroth=zeroth,
                                  matrix=matrix)
        metric = h_mode_multipliers(grid, 2)[1:]
        pencil = (matrix + gamma * np.eye(num_points - 1), np.diag(metric))
        held = self.held_set(rng, pencil, kind, num_points - 1, count)
        self.assert_ceiling(lambda w: context.ritz(w, gamma), metric, held,
                            pencil)

    @settings(max_examples=30, deadline=None)
    @given(num_points=st.integers(16, 64), count=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_shifts_are_single_shift_steps(self, num_points, count,
                                                   seed):
        # _best_shift reads the ceilings of every shift still to try from one
        # ritz call; each of its rows is bitwise the step at that shift alone
        rng = np.random.default_rng(seed)
        grid = Grid(10.0, num_points, h_max=10.0)
        w2, zeroth = rng.uniform(-2.0, 2.0, (2, num_points))
        context = SpectralContext(grid=grid, w2=w2, zeroth=zeroth,
                                  matrix=np.zeros((0, 0)))
        metric = h_mode_multipliers(grid, 2)[1:]
        basis = _metric_basis(rng.standard_normal((num_points - 1, count)),
                              metric)
        theta, vecs = context.ritz(basis, np.array(GAMMA_SWEEP))
        for j, gamma in enumerate(GAMMA_SWEEP):
            single_theta, single_vecs = context.ritz(basis, gamma)
            assert np.array_equal(theta[j], single_theta)
            assert np.array_equal(vecs[j], single_vecs)


class TestCoercivityOracle:
    @pytest.mark.parametrize("setup", ["testbed", "desk"])
    def test_matches_dense_generalized_solves(self, setup, small_manifold,
                                              diag_manifold, edge_floor,
                                              monkeypatch):
        if setup == "testbed":
            man = small_manifold
            cfg = man.configuration([4.5, 12.0])
        else:
            man = diag_manifold
            cfg = moderate_config(man)
        prof = man.build(cfg)
        point = ProfilePoint(man, prof)
        ref = dense_generalized_coercivity(man, prof, point.basis[0],
                                           edge_floor)
        rep = coercivity_constant(point)
        for key in ("mu_h2", "mu_e", "bound"):
            assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-9), key
        # mu_x and unconstrained_x_min are standard eigenvalues of the
        # unwhitened matrix, so the oracle's solves carry the eps*||a||
        # backward error of a dense eigensolver (1.4e-9 at N = 256, where
        # mu_x ~ 0.4)
        eps_a = np.finfo(float).eps * ref["norm_a"]
        for key in ("mu_x", "unconstrained_x_min"):
            assert abs(getattr(rep, key) - ref[key]) <= (
                1e-9 * abs(ref[key]) + 2 * eps_a
            ), key
        assert rep.gamma_e == ref["gamma_e"]
        # the dense every-shift sweep in modes picks the same shift
        mu_e, gamma_e, bound = dense_shift_sweep(point.context, rep.mu_tilde)
        assert rep.gamma_e == gamma_e
        assert rep.mu_e == pytest.approx(mu_e, rel=1e-9)
        assert rep.bound == pytest.approx(bound, rel=1e-9)
        # the unconstrained minimum is the lowest Ritz value of the point's
        # gap report, and a fresh point of the profile gives the same report
        assert rep.unconstrained_x_min == point.gap.eigenvalues[0]
        assert coercivity_constant(ProfilePoint(man, prof)) == rep
        # the pruned sweep is bitwise the sweep that solves every shift with
        # the same shift-invert solver
        full = []

        def solve_every_shift(lowest, ritz, metric, held, mu_tilde,
                              gamma_sweep):
            full.append(every_shift(lowest, mu_tilde, gamma_sweep))
            return (*full[0], tuple(gamma_sweep))

        monkeypatch.setattr(spectral, "_best_shift", solve_every_shift)
        coercivity_constant(ProfilePoint(man, prof))
        assert (rep.mu_e, rep.gamma_e, rep.bound) == full[0]
        if setup == "desk":
            # the bound peaks at gamma = 1, the middle of the sweep, which is
            # solved first; the Ritz values on the gap report's vectors and
            # its eigenvector rule out every other shift (at 0.5 the ceiling
            # is 0.203, below the 0.224 that could beat gamma = 1)
            assert rep.gammas_solved == (1.0,)


def nodal_point_spectrum(well, pulse, num_points=1600):
    """The single-pulse point spectrum from the full nodal matrix of L on the
    symmetric window, symmetrized in the quadrature inner product (the solve
    the parity blocks replaced)."""
    window = 2.0 * pulse.half_width
    grid = Grid(2.0 * window, num_points, h_max=0.2)
    q = well.d2W(well.b_minus + pulse.pulse_bar(grid.nodes - window))
    lmat = _half_line_second_derivative(grid.length, num_points) - np.diag(q)
    sw = np.sqrt(grid.quad_weights)
    lsym = (sw[:, None] * lmat) / sw[None, :]
    evals = np.linalg.eigvalsh(0.5 * (lsym + lsym.T))
    edge = -well.alpha_minus
    return np.sort(evals[evals > edge + 1e-3 * abs(edge)])[::-1]


class TestModeCoordinates:
    """The cosine-mode facts the coercivity solve rests on."""

    grids = st.builds(
        lambda n, length: Grid(length, n, h_max=length),
        st.integers(16, 512), st.floats(1.0, 500.0),
    )

    @settings(max_examples=25, deadline=None)
    @given(grid=grids)
    def test_mode_zero_is_the_constant_direction(self, grid):
        q = weighted_cosine_basis(grid)
        assert np.max(np.abs(q[:, 0] - constant_direction(grid))) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(grid=grids)
    def test_basis_orthogonal(self, grid):
        q = weighted_cosine_basis(grid)
        assert np.max(np.abs(q.T @ q - np.eye(grid.num_points))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(grid=grids, order=st.integers(0, 4))
    def test_multipliers_diagonal_in_modes(self, grid, order):
        m = h_mode_multipliers(grid, order)
        q = weighted_cosine_basis(grid)
        modal = q.T @ dense_spectral_multiplier(grid, m) @ q
        assert np.max(np.abs(modal - np.diag(m))) <= 1e-12 * np.max(m)

    @settings(max_examples=25, deadline=None)
    @given(grid=grids, seed=st.integers(0, 2**32 - 1),
           start=st.integers(0, 1), step=st.integers(1, 2))
    def test_mode_matrix_is_toeplitz_plus_hankel(self, grid, seed, start,
                                                 step):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(grid.num_points) * 10.0 ** rng.uniform(-3, 3)
        q = weighted_cosine_basis(grid)[:, start::step]
        dense = q.T @ (f[:, None] * q)
        fast = mode_matrix(grid, f, start=start, step=step)
        assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(f))

    @settings(max_examples=25, deadline=None)
    @given(grid=grids, seed=st.integers(0, 2**32 - 1))
    def test_mode_coordinates_round_trip(self, grid, seed):
        u = ScalarField(
            grid, np.random.default_rng(seed).standard_normal(grid.num_points)
        )
        c = to_modes(u)
        assert_allclose(c, weighted_cosine_basis(grid).T @ to_weighted(u),
                        rtol=0, atol=1e-12 * np.max(np.abs(c)))
        assert_allclose(from_modes(grid, c).values, u.values, rtol=0,
                        atol=1e-12 * np.max(np.abs(u.values)))

    def test_subset_solve_matches_full_blocks(self, well, pulse):
        # the blocks solved above the threshold only give the full solves'
        # eigenvalues there, and no others
        point = single_pulse_point_spectrum(well, pulse)
        full = full_point_spectrum(well, pulse)
        assert point.size == full.size
        assert_allclose(point, full, rtol=0, atol=1e-12)

    def test_parity_blocks_match_nodal_solve(self, well, pulse):
        point = single_pulse_point_spectrum(well, pulse)
        nodal = nodal_point_spectrum(well, pulse)
        assert point.size == nodal.size
        nonzero = np.abs(nodal) > 1e-4
        assert_allclose(point[nonzero], nodal[nonzero], rtol=0, atol=1e-12)

    def test_edge_floor_matches_nodal_solve(self, well, pulse, edge_floor):
        nodal = nodal_point_spectrum(well, pulse)
        reference = min([well.alpha_minus**2,
                         *(nodal[np.abs(nodal) > 1e-4] ** 2)])
        assert edge_floor == pytest.approx(reference, rel=1e-12, abs=0)

    def test_edge_floor_solved_once_per_pulse(self, pulse, monkeypatch):
        from fchpulse import wellmodel

        calls = []
        real = wellmodel.single_pulse_point_spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wellmodel, "single_pulse_point_spectrum", counted)
        fresh = dataclasses.replace(pulse)
        first, second = fresh.edge_floor, fresh.edge_floor
        assert len(calls) == 1
        assert first == second == wellmodel.stable_edge_floor(pulse.well,
                                                              pulse)[0]


class TestSpectralContextReuse:
    @pytest.fixture
    def testbed(self, manifold_factory):
        return manifold_factory(length=32.0, n=2, ell=8.0, num_points=256)

    def test_suite_solve_counts(self, testbed, monkeypatch):
        # on the testbed, the suite runs no dense N x N eigensolve: every
        # eigensolve is shift-invert (the gap reports of the subset and of
        # the slow pairs of the two shifted profiles of the continuity check;
        # mu_x, mu_h2 and the solved gamma shifts of each coercivity report;
        # the symmetrized gap of each s), and the semigroup check is one
        # LDL^T of the K x K block of its inertia certificate (K = 51 of
        # 255 modes). The dense LUs are one per gap report and shifted
        # profile, one per solved shift and one that the symmetrized gaps
        # share
        from fchpulse import spectral

        man = testbed
        points = [ProfilePoint(man, man.build(c))
                  for c in man.sample_configurations(2, seed=0)]
        dense, lanczos, ldl, lus = [], [], [], []
        real_eigh, real_eigsh = spectral.sla.eigh, spectral.eigsh
        real_ldl = spectral.sla.lapack.dsytrf
        real_lu = spectral.sla.lu_factor

        def counted_eigh(a, *args, **kwargs):
            dense.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        def counted_eigsh(*args, **kwargs):
            lanczos.append(kwargs["sigma"])
            return real_eigsh(*args, **kwargs)

        def counted_ldl(a, *args, **kwargs):
            ldl.append(np.shape(a))
            return real_ldl(a, *args, **kwargs)

        def counted_lu(a, *args, **kwargs):
            lus.append(np.shape(a))
            return real_lu(a, *args, **kwargs)

        monkeypatch.setattr(spectral.sla, "eigh", counted_eigh)
        monkeypatch.setattr(spectral.sla.lapack, "dsytrf", counted_ldl)
        monkeypatch.setattr(spectral.sla, "lu_factor", counted_lu)
        monkeypatch.setattr(spectral, "eigsh", counted_eigsh)
        s_values = (0.5, 1.0)
        spectral.run_hypothesis_suite(points, s_values, 0)
        subset = points[:spectral.SPECTRAL_SUBSET]
        shifts = sum(len(p.coercivity.gammas_solved) for p in subset)
        assert dense == []
        assert len(lanczos) == (len(subset) + 2) + 2 * len(subset) + shifts + (
            len(s_values))
        assert set(lanczos) == {0.0}
        size = man.grid.num_points - 1
        assert ldl == [(51, 51)]
        assert lus == [(size, size)] * ((len(subset) + 2) + shifts + 1)

    @pytest.mark.parametrize("count", [2, 3])
    def test_suite_and_el_bounds_share_each_point(self, testbed, monkeypatch,
                                                  count):
        # the sample ends with the equispaced point: inside the spectral
        # subset for 2 sampled configurations, outside it for 3
        from fchpulse import spectral
        from fchpulse.ansatz import PulseManifold

        man = testbed
        points = [ProfilePoint(man, man.build(c))
                  for c in man.sample_configurations(count, seed=0)]
        subset = points[:spectral.SPECTRAL_SUBSET]
        phis = [p.profile.phi.values.tobytes() for p in points]
        outside = phis[len(subset):]
        calls = {name: [] for name in ("spectral_context", "tangent_basis",
                                       "residual_h4")}
        real_context = spectral.spectral_context

        def counted_context(phi, well):
            calls["spectral_context"].append(phi.values.tobytes())
            return real_context(phi, well)

        def counted(name):
            real = getattr(PulseManifold, name)

            def method(self, profile):
                calls[name].append(profile.phi.values.tobytes())
                return real(self, profile)
            return method

        monkeypatch.setattr(spectral, "spectral_context", counted_context)
        for name in ("tangent_basis", "residual_h4"):
            monkeypatch.setattr(PulseManifold, name, counted(name))
        spectral.run_hypothesis_suite(points, (0.5, 1.0), 0)
        assert not any("context" in vars(p) for p in subset)
        el = spectral.el_bounds(points)

        # a context and a basis per subset point and for the equispaced
        # point outside the subset, besides the contexts of the continuity
        # check's two shifted profiles; one residual record, which holds the
        # energy, per profile
        contexts = calls["spectral_context"]
        assert len(contexts) == len(set(contexts)) == len(phis) + 2
        assert contexts[:len(subset)] == phis[:len(subset)]
        assert contexts[len(subset) + 2:] == outside
        assert calls["tangent_basis"] == phis
        assert calls["residual_h4"] == phis
        # fresh points give the suite-warmed values bit for bit
        fresh = [ProfilePoint(man, p.profile) for p in points]
        assert spectral.el_bounds(fresh) == el
        for p, q in zip(subset, fresh):
            assert spectral.coercivity_constant(q) == p.coercivity


def nodal_tangent_alignment(manifold, report, basis):
    """Oracle: tangent alignment in nodal weighted coordinates u_w, the form
    before the mode coordinates. Returns (errors, beta, beta defect)."""
    grid, n = manifold.grid, manifold.n
    tangents, stacks = basis
    slow = np.stack([to_weighted(mode_field(grid, v))
                     for v in report.vectors[:, :n].T], axis=1)
    t_w = [to_weighted(t) for t in tangents]
    t_mat = np.stack([t / np.linalg.norm(t) for t in t_w], axis=1)
    beta = t_mat.T @ slow
    u, _, vt = np.linalg.svd(beta)
    rotated = slow @ (u @ vt).T
    errors = np.empty(n)
    for i in range(n):
        t_norm = np.linalg.norm(t_w[i])
        eig_field = ScalarField(grid, rotated[:, i] / np.sqrt(grid.quad_weights))
        stack = np.empty((5, grid.num_points))
        stack[0] = eig_field.values - tangents[i].values / t_norm
        for m in range(1, 5):
            stack[m] = (spectral_derivative(eig_field, m).values
                        - stacks[i][m] / t_norm)
        errors[i] = h4_norm_from_stack(grid, stack)
    return errors, beta, float(np.linalg.norm(beta.T @ beta - np.eye(n)))


def nodal_eigenfield_continuity(manifold, config, center_report, step=0.05):
    """Oracle: eigenfield continuity along p_1 in nodal weighted
    coordinates, each shifted slow basis rotated onto the center basis by
    orthogonal Procrustes. Returns (min subspace overlap, max Hessian H4
    norm)."""
    grid, n = manifold.grid, manifold.n
    direction = np.zeros(n)
    direction[0] = 1.0
    u_c = np.stack([to_weighted(mode_field(grid, v))
                    for v in center_report.vectors[:, :n].T], axis=1)
    overlap, aligned = 1.0, []
    for shift in (-step, step):
        rep = spectral_gap_report(ProfilePoint(manifold, manifold.build(
            manifold.configuration(config.positions + shift * direction))))
        u_s = np.stack([to_weighted(mode_field(grid, v))
                        for v in rep.vectors[:, :n].T], axis=1)
        u, sigma, vt = np.linalg.svd(u_s.T @ u_c)
        overlap = min(overlap, float(np.min(sigma)))
        aligned.append(u_s @ u @ vt)
    hessians = [
        nodal_h4_norm(ScalarField(grid, (aligned[0][:, j] - 2.0 * u_c[:, j]
                                         + aligned[1][:, j])
                                  / step**2 / np.sqrt(grid.quad_weights)))
        for j in range(n)
    ]
    return min(1.0, overlap), float(np.max(hessians))


class TestAlignment:
    def test_mode_coordinates_match_nodal_oracle(self, diag_manifold):
        # Q is orthogonal, so the mode-coordinate alignment and continuity
        # agree with their nodal weighted-coordinate form up to rounding
        man = diag_manifold
        point = ProfilePoint(man, man.build(moderate_config(man)))
        ali = tangent_alignment(point)
        errors, beta, defect = nodal_tangent_alignment(man, point.gap,
                                                       point.basis)
        assert_allclose(ali.errors, errors, rtol=1e-10, atol=0)
        assert ali.max_error == pytest.approx(np.max(errors), rel=1e-10)
        assert np.max(np.abs(ali.beta - beta)) <= 1e-10 * np.max(np.abs(beta))
        assert ali.beta_defect == pytest.approx(defect, rel=1e-10)
        overlap, hessian = eigenfield_continuity(point)
        ref_overlap, ref_hessian = nodal_eigenfield_continuity(
            man, point.profile.config, point.gap)
        assert overlap == pytest.approx(ref_overlap, rel=1e-10)
        assert hessian == pytest.approx(ref_hessian, rel=1e-10)

    def test_alignment_small_and_beta_orthogonal(self, diag_manifold):
        prof = diag_manifold.build(moderate_config(diag_manifold))
        ali = tangent_alignment(ProfilePoint(diag_manifold, prof))
        delta = diag_manifold.params.tail_scale
        assert ali.passed
        assert ali.max_error <= 5000 * delta
        assert ali.beta_defect <= 5000 * delta

    def test_tail_scaling(self, manifold_factory, well):
        errs = {}
        for ell in (8.0, 10.0):
            man = manifold_factory(num_points=1024, ell=ell)
            prof = man.build(cluster_config(man, ell))
            errs[ell] = tangent_alignment(ProfilePoint(man, prof)).max_error
        ratio = errs[10.0] / errs[8.0]
        predicted = np.exp(-2.0 * np.sqrt(well.alpha_minus))
        assert predicted / 3.0 <= ratio <= 3.0 * predicted


class TestSymmetrizedGap:
    def test_s_zero_reproduces_plain_gap(self, diag_manifold):
        point = ProfilePoint(diag_manifold,
                             diag_manifold.build(moderate_config(diag_manifold)))
        plain = spectral_gap_report(point)
        sym = symmetrized_gap(point, 0.0)
        assert_allclose(
            sym.eigenvalues[:3], plain.eigenvalues[:3], atol=1e-10
        )

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_gap_and_alignment(self, diag_manifold, s):
        prof = diag_manifold.build(moderate_config(diag_manifold))
        rep = symmetrized_gap(ProfilePoint(diag_manifold, prof), s)
        assert rep.passed, rep.failures
        assert rep.slow_dim == 3
        assert rep.fitted_c <= 15.0
        assert rep.alignment_errors.shape == (3,)
        assert np.max(rep.alignment_errors) <= rep.fitted_c * rep.delta

    def test_residuals_are_the_factored_ones(self, manifold_factory):
        """The residuals of G1 L G1 from the context's factors: nonzero,
        since the pairs are not exact, and at most 1e-9 on the suite's
        testbed (L = 32, n = 2, N = 256) at s = 1."""
        man = manifold_factory(length=32.0, n=2, ell=8.0, num_points=256)
        point = ProfilePoint(man, man.build(man.equispaced()))
        rep = symmetrized_gap(point, 1.0)
        g1 = gradient_symbols(man.grid, 1.0)[1][1:, None]
        resid = g1 * point.context.residual(g1 * rep.vectors, rep.eigenvalues,
                                            g1[:, 0]**-2.0)
        assert np.array_equal(rep.residuals, np.linalg.norm(resid, axis=0))
        assert np.all(rep.residuals > 0.0)
        assert np.max(rep.residuals) <= 1e-9


class TestTrappingRadius:
    def test_degenerate_inputs(self):
        assert eta_star_formula(0.0, 0.0, 0.0, 0.5) == 0.0

    def test_monotone_in_each_argument(self):
        base = eta_star_formula(1e-4, 1e-4, 1e-4, 0.3)
        assert eta_star_formula(2e-4, 1e-4, 1e-4, 0.3) > base
        assert eta_star_formula(1e-4, 2e-4, 1e-4, 0.3) > base
        assert eta_star_formula(1e-4, 1e-4, 2e-4, 0.3) > base

    def test_report_fields(self, diag_manifold):
        points = [
            ProfilePoint(diag_manifold, diag_manifold.build(c))
            for c in diag_manifold.sample_configurations(3, seed=1)
        ]
        rep = el_bounds(points)
        assert rep.mu2 > 0
        assert rep.eta_star > 0
        assert rep.rho_exp == 3.0

    def test_delta2_floor_is_quadratic_in_lambda(self, manifold_factory):
        # the residual of the first-order mass correction lambda*B2 is
        # O(lambda^2): at the equispaced profile, far from the tail overlaps,
        # delta2/lambda^2 stays put (10.10-10.16) while the mass excess, and
        # with it lambda, falls 8x
        ratios = []
        for excess in (0.02, 0.01, 0.005, 0.0025):
            man = manifold_factory(num_points=1024, excess=excess)
            prof = man.build(man.equispaced())
            delta2 = dual_h4_norm(man.residual_h4(prof)[0])
            ratios.append(delta2 / prof.internal.lam**2)
        assert max(ratios) <= 1.01 * min(ratios)
        assert np.mean(ratios) == pytest.approx(10.13, rel=0.01)

    def test_dual_norm_below_l2(self, diag_manifold):
        prof = diag_manifold.build(moderate_config(diag_manifold))
        r, _, l2, _ = diag_manifold.residual_h4(prof)
        assert dual_h4_norm(r) <= l2


def full_solve_decay_check(matrix, n):
    """The semigroup check before the inertia count: diagonalize in full,
    take the edge from the same solve and evolve in its eigenbasis. Returns
    (passed, worst ratio of the decayed norm to its bound)."""
    evals, evecs = sla.eigh(matrix)
    edge = evals[n]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(4):
        u = rng.standard_normal(evals.size)
        u -= evecs[:, :n] @ (evecs[:, :n].T @ u)
        u /= np.linalg.norm(u)
        coeffs = evecs.T @ u
        for t in (0.5, 1.0, 2.0):
            decayed = np.linalg.norm(np.exp(-evals * t) * coeffs)
            worst = max(worst, decayed / np.exp(-edge * t))
    return worst <= 1.0 + 1e-10, worst


class TestProxies:
    def test_semigroup_decay(self, manifold_factory):
        man = manifold_factory(num_points=512)
        point = ProfilePoint(man, man.build(man.configuration([12.0, 22.0,
                                                               34.0])))
        ok, count, edge, block, bound = semigroup_decay_check(point)
        assert ok
        assert count == man.n
        assert edge == point.gap.eigenvalues[man.n] == point.gap.stable_edge
        assert edge > 0.3
        # certified on the low modes, whose symbol bound clears the shift
        assert block < man.grid.num_points - 1
        assert bound >= spectral.INERTIA_SYMBOL_MARGIN * edge * (1.0 - 1e-6)
        # the edge is the first stable eigenvalue: just above it the count
        # takes in that eigenvalue, just below it the slow ones alone
        matrix = point.context.matrix
        assert negative_count(matrix, edge * (1.0 + 1e-6)) == man.n + 1
        assert negative_count(matrix, edge * (1.0 - 1e-6)) == man.n

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(-3.0, 3.0))
    def test_negative_count_matches_eigenvalues(self, n, seed, shift):
        # indefinite matrices, whose Bunch-Kaufman D mixes 1x1 and 2x2 blocks
        g = np.random.default_rng(seed).standard_normal((n, n))
        mat = (g + g.T) / np.sqrt(n)
        evals = np.linalg.eigvalsh(mat)
        if np.min(np.abs(evals - shift)) < 1e-8:
            return
        before = mat.copy()
        assert negative_count(mat, shift) == np.count_nonzero(evals < shift)
        assert np.array_equal(mat, before)

    def test_semigroup_decay_sees_a_planted_slow_mode(self, manifold_factory):
        # lower the second stable eigenvalue of a copy of the context to half
        # the edge: a mode off the slow space then decays at half the rate.
        # The inertia count sees it; the full-solve check took its edge from
        # the mutated matrix itself, so it passed
        man = manifold_factory(num_points=512)
        point = ProfilePoint(man, man.build(man.configuration([12.0, 22.0,
                                                               34.0])))
        n = man.n
        assert semigroup_decay_check(point)[0]
        evals, vecs = point.context.lowest(point.lu, n + 2)
        edge = point.gap.eigenvalues[n]
        v = vecs[:, n + 1]
        planted = point.context.matrix - (evals[n + 1] - 0.5 * edge) * np.outer(
            v, v)
        point.context = dataclasses.replace(point.context, matrix=planted)
        ok, count = semigroup_decay_check(point)[:2]
        assert not ok and count == n + 1
        assert full_solve_decay_check(planted, n)[0]
        # lowered only just below the edge, past the check's slack, the mode
        # is still counted
        planted += (0.5 - THRESHOLDS["semigroup_edge_slack"] * 10.0) * (
            edge * np.outer(v, v))
        point.context = dataclasses.replace(point.context, matrix=planted)
        assert semigroup_decay_check(point)[1] == n + 1

    def test_eigenfield_continuity(self, diag_manifold):
        overlap, hessian = eigenfield_continuity(ProfilePoint(
            diag_manifold, diag_manifold.build(moderate_config(diag_manifold))
        ))
        assert overlap > 0.99
        assert np.isfinite(hessian)

    def test_hessian_ignores_rotations_inside_the_slow_cluster(
            self, diag_manifold, monkeypatch):
        """Rotating the shifted slow eigenvectors among themselves, which a
        nearly degenerate cluster allows, leaves the Hessian norm as it is."""
        man = diag_manifold
        config = moderate_config(man)
        # the center's gap report is solved here, before the patch
        center = ProfilePoint(man, man.build(config))
        overlap, hessian = eigenfield_continuity(center)
        n = man.n
        rotation, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(n, n)))
        real = SpectralContext.lowest
        solved = []

        def rotated(context, lu, k, *args, **kwargs):
            theta, w = real(context, lu, k, *args, **kwargs)
            solved.append(k)
            return theta, w @ rotation

        monkeypatch.setattr(SpectralContext, "lowest", rotated)
        turned_overlap, turned_hessian = eigenfield_continuity(center)
        # each shifted profile solves its n slow pairs alone
        assert solved == [n, n]
        assert turned_overlap == pytest.approx(overlap, rel=1e-12)
        assert turned_hessian == pytest.approx(hessian, rel=1e-8)


class TestInertiaCertificate:
    """certified_count against the LDL^T count of the whole zero-mass matrix,
    negative_count(context.matrix, shift), its oracle."""

    @pytest.mark.parametrize("num_points", [1024, 2048])
    def test_desk_diagnosed_profiles(self, manifold_factory, num_points):
        # the profiles that the desk diagnose checks at seeds 0-3: the first
        # SPECTRAL_SUBSET of each sample, on the diagnostic and the dynamics
        # grid. Each is certified on its low modes, at K = 255 (d = 587)
        man = manifold_factory(num_points=num_points)
        for seed in range(4):
            sample = man.sample_configurations(8, seed=seed)
            for config in sample[:spectral.SPECTRAL_SUBSET]:
                point = ProfilePoint(man, man.build(config))
                ok, count, edge, block, bound = semigroup_decay_check(point)
                shift = (1.0 - THRESHOLDS["semigroup_edge_slack"]) * edge
                assert ok and block == 255 and bound > 500.0
                assert count == negative_count(point.context.matrix, shift)

    @settings(max_examples=60, deadline=None)
    @given(num_points=st.integers(16, 96), seed=st.integers(0, 2**32 - 1),
           smooth=st.booleans(), data=st.data())
    def test_random_contexts(self, num_points, seed, smooth, data):
        # with any floor that bounds the count from below, the result is the
        # count, certified on the low modes only when the bound meets the
        # floor; smooth coefficients couple the low and high modes weakly,
        # nodal noise strongly
        rng = np.random.default_rng(seed)
        grid = Grid(10.0, num_points, h_max=10.0)
        if smooth:
            coeffs = np.zeros((2, num_points))
            coeffs[:, :6] = rng.standard_normal((2, 6))
            w2, zeroth = cosine_synth(coeffs.T).T
        else:
            w2, zeroth = rng.uniform(-2.0, 2.0, (2, num_points))
        b = -(np.diag(grid.wavenumbers**2) + mode_matrix(grid, w2))
        matrix = (b @ b)[1:, 1:] - mode_matrix(grid, zeroth, start=1)
        context = SpectralContext(grid=grid, w2=w2, zeroth=zeroth,
                                  matrix=matrix)
        evals = np.linalg.eigvalsh(matrix)
        below = data.draw(st.integers(1, min(6, evals.size - 1)))
        if evals[below] - evals[below - 1] < 1e-6 * (1.0 + abs(evals[below])):
            return
        shift = 0.5 * (evals[below - 1] + evals[below])
        floor = data.draw(st.integers(0, below))
        count, block, bound = certified_count(context, shift, floor)
        assert count == below
        if block < matrix.shape[0]:
            assert count == floor and bound > shift
        else:
            assert np.isnan(bound)

    def test_a_floor_below_the_count_falls_back_to_the_whole_matrix(
            self, diag_manifold):
        man = diag_manifold
        point = ProfilePoint(man, man.build(moderate_config(man)))
        n = man.n
        shift = (1.0 - 1e-6) * point.gap.eigenvalues[n]
        assert certified_count(point.context, shift, n)[:2] == (n, 255)
        count, block, bound = certified_count(point.context, shift, n - 1)
        assert (count, block) == (n, 1023) and np.isnan(bound)


class TestEigenfieldOrthonormality:
    def test_x_orthonormal(self, diag_manifold):
        from fchpulse import inner_product_x

        prof = diag_manifold.build(moderate_config(diag_manifold))
        rep = spectral_gap_report(ProfilePoint(diag_manifold, prof))
        fields = [mode_field(diag_manifold.grid, v) for v in rep.vectors.T]
        n = len(fields)
        gram = np.array(
            [[inner_product_x(a, b) for b in fields] for a in fields]
        )
        assert np.max(np.abs(gram - np.eye(n))) < 1e-8
        assert np.max(rep.residuals) < 1e-6


class TestModeVectorReport:
    """The gap report's Ritz vectors in zero-mass modes and their factored
    residuals, on the dynamics testbed and on a desk diagnostic profile."""

    @pytest.fixture(scope="class", params=["testbed", "desk"])
    def point(self, request, small_manifold, diag_manifold):
        if request.param == "testbed":
            man = small_manifold
            return ProfilePoint(man, man.build(man.configuration([4.5, 12.0])))
        man = diag_manifold
        return ProfilePoint(man, man.build(moderate_config(man)))

    def test_vectors_orthonormal(self, point):
        rep = point.gap
        k = rep.eigenvalues.size
        assert rep.vectors.shape == (point.manifold.grid.num_points - 1, k)
        assert_allclose(rep.vectors.T @ rep.vectors, np.eye(k), rtol=0,
                        atol=1e-12)

    def test_factored_residuals(self, point):
        rep = point.gap
        resid = point.context.residual(rep.vectors, rep.eigenvalues)
        assert_allclose(rep.residuals, np.linalg.norm(resid, axis=0),
                        rtol=0, atol=0)
        assert np.max(rep.residuals) <= 1e-9

    def test_nodal_residual_oracle(self, point):
        residuals = nodal_residuals(point.profile.phi, point.manifold.well,
                                    point.gap)
        assert np.max(residuals) <= 1e-9


class TestLambdaSquaredFloor:
    """The manifold's defect is O(delta + lambda^2): the ansatz carries the
    mass multiplier lambda to first order only. Where delta is far below
    lambda^2 the residual and the slow set floor at O(lambda^2), which is
    why the O(delta) caps fail for ell >= 11. At ell = 14 (n = 2, L = 43,
    N = 688, equispaced, delta = 6.4e-8), over mass excess 0.0025-0.02,
    ||R||_H4 / lambda^2 read 1330.7, 1330.1, 1329.0 and 1326.7 and the
    largest slow eigenvalue over lambda^2 7.20, 7.14, 7.09 and 7.01."""

    def test_residual_and_slow_set_scale_with_lambda_squared(
            self, manifold_factory):
        resid, slow, lam_sq = [], [], []
        for excess in (0.0025, 0.005, 0.01, 0.02):
            man = manifold_factory(length=43.0, n=2, ell=14.0,
                                   num_points=688, excess=excess)
            point = ProfilePoint(man, man.build(man.equispaced()))
            lam_sq.append(point.profile.internal.lam ** 2)
            resid.append(point.residual[1] / lam_sq[-1])
            slow.append(np.max(np.abs(slow_eigenvalues(point.gap)))
                        / lam_sq[-1])
            point.release()
        # lambda^2 spans a factor of about 64 at one delta
        assert lam_sq[-1] / lam_sq[0] > 60.0
        assert max(resid) <= 1.01 * min(resid)
        assert max(slow) <= 1.05 * min(slow)
