"""Shared fixtures: the default well, pulse, backgrounds, and manifolds.

Everything heavy is cached at session scope. The well solution is the one
`Laboratory.from_config` uses (`harness.well_solution`), so the experiments
the tests run share it too; manifolds are memoized by their parameter tuple
so the acceptance tests can share builds.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.fft import dct
from scipy.optimize import brentq

import fchpulse
from fchpulse import Grid, PulseManifold, ScalarField, SystemParams
from fchpulse.core import (
    cosine_coeffs,
    cosine_synth,
    h_mode_multipliers,
    inner_product_x,
    mode_derivative,
    mode_matrix,
    mode_norms,
    norm,
    parseval_weights,
)
from fchpulse.harness import well_solution
from fchpulse.operators import (
    energy_terms,
    gradient_values,
    second_variation_coefficients,
    to_modes,
    zero_mass_projection,
)
from fchpulse.spectral import GAMMA_SWEEP, ShiftError
from fchpulse.wellmodel import (POINT_SPECTRUM_POINTS, _GL_NODES, _GL_WEIGHTS,
                                _HomoclinicInverter, well_jet)

TAU = -0.3


@pytest.fixture(scope="session")
def well():
    return well_solution(TAU)[0]


@pytest.fixture(scope="session")
def pulse():
    return well_solution(TAU)[1]


@pytest.fixture(scope="session")
def backgrounds():
    return well_solution(TAU)[2:]


@pytest.fixture(scope="session")
def edge_floor(pulse):
    return pulse.edge_floor


@pytest.fixture(scope="session")
def manifold_factory(well, pulse, backgrounds):
    bg2 = backgrounds[1]

    @lru_cache(maxsize=32)
    def make(length=160.0, n=3, ell=8.0, num_points=2048, excess=0.01,
             epsilon=0.05):
        params = SystemParams(
            epsilon=epsilon,
            domain_d=length * epsilon,
            n_pulses=n,
            total_mass=(n + excess) * pulse.mass_h,
            min_spacing=ell,
            alpha_minus=well.alpha_minus,
        )
        grid = Grid(length, num_points, h_max=0.4)
        return PulseManifold(well, pulse, bg2, params, grid)

    return make


@pytest.fixture(scope="session")
def desk_manifold(manifold_factory):
    """The default desk-scale setup: L = 160, n = 3, ell = 8, N = 2048."""
    return manifold_factory()


@pytest.fixture(scope="session")
def diag_manifold(manifold_factory):
    """Same parameters on the eigensolver grid (N = 1024)."""
    return manifold_factory(num_points=1024)


@pytest.fixture(scope="session")
def small_manifold(manifold_factory):
    """Two pulses in L = 16 with equispaced spacing 8: the dynamics testbed."""
    return manifold_factory(length=16.0, n=2, ell=5.0, num_points=256)


def moderate_config(manifold):
    """A generic interior configuration with gaps near the spacing floor."""
    return manifold.configuration([12.0, 22.0, 34.0])


def cluster_config(manifold, ell):
    """Left-clustered pulses with all gaps just above ell (matched geometry
    for tail-scaling ratio checks)."""
    p1 = 0.5 * ell + 0.2
    return manifold.configuration([p1, p1 + ell + 0.3, p1 + 2 * ell + 1.0])


def bar_jet(bg, x, max_order):
    """Rows d^m B_bar_j, m = 0..max_order, at arbitrary offsets: the
    arbitrary-offset evaluator that `BackgroundProfile.lattice_jet` is held
    to. Zero beyond the window. Every order reads one cos table of the phases
    (and one sin table when max_order >= 1), one matrix-vector product per
    order."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros((max_order + 1,) + ax.shape)
    inside = ax < bg.window
    if np.any(inside):
        kap = np.arange(len(bg._coeffs)) * np.pi / bg.window
        phase = np.outer(ax[inside], kap)
        # sin overwrites the phases after cos has read them: two tables at peak
        trig = (np.cos(phase), np.sin(phase, out=phase) if max_order else None)
        for order in range(max_order + 1):
            sign = (-1.0) ** ((order + 1) // 2)
            row = trig[order % 2] @ (sign * bg._coeffs * kap**order)
            if order % 2:
                row *= np.sign(x[inside])
            out[order, inside] = row
    return out


def bar_at_oracle(bg, x, order):
    """One order of d^order B_bar_j with its own phase table: the per-order
    evaluator that `bar_jet` replaced."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(ax)
    inside = ax < bg.window
    if np.any(inside):
        kap = np.arange(len(bg._coeffs)) * np.pi / bg.window
        phase = np.outer(ax[inside], kap)
        if order % 2 == 0:
            sign = (-1.0) ** (order // 2)
            out[inside] = np.cos(phase) @ (sign * bg._coeffs * kap**order)
        else:
            sign = (-1.0) ** ((order + 1) // 2)
            out[inside] = np.sin(phase) @ (sign * bg._coeffs * kap**order)
            out[inside] *= np.sign(x[inside])
    return out


def leibniz_oracle(f, g):
    """The Leibniz product jet of f and g with every entry summed in place:
    the loop that `wellmodel.leibniz` replaced."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    size = min(len(f), len(g))
    out = np.zeros((size,) + np.broadcast_shapes(f.shape[1:], g.shape[1:]))
    for m in range(size):
        for k in range(m + 1):
            out[m] += comb(m, k) * f[k] * g[m - k]
    return out


def well_jet_oracle(well, j, f, base):
    """Jet of W^(j)(base + f) by the nested Horner/Leibniz loop that the
    incremental stages of `wellmodel.well_jet` replaced: every Horner stage
    is the whole Leibniz product of the stage above with f."""
    f = np.asarray(f, dtype=float)
    derivs = (well.W, well.dW, well.d2W, well.d3W, well.d4W)[j:]
    coeffs = [d(base) / factorial(i) for i, d in enumerate(derivs)]
    out = np.zeros(np.broadcast_shapes(f.shape, np.shape(base)))
    out[0] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = leibniz_oracle(out, f)
        out[0] += c
    return out


def edge_term_oracle(man, internal, z, order):
    """d^order/dz^order of the boundary correction
    A e^{-rz} (a0 + b0 z) + A e^{r(z-L)} (a1 + b1 (z-L)), A = phi_max, from
    the closed form (d/dy)^m [e^{sy} (a + b y)] = s^(m-1) e^{sy} (s (a + b y) + m b)."""
    z = np.asarray(z, dtype=float)
    r, length = internal.rate, internal.length
    total = np.zeros_like(z)
    for s, y, a, b in ((-r, z, internal.a0, internal.b0),
                       (r, z - length, internal.a1, internal.b1)):
        total += s ** (order - 1) * np.exp(s * y) * (s * (a + b * y) + order * b)
    return man.pulse.phi_max * total


def pulse_bar_deriv_oracle(pulse, x, order):
    """One order of phi_bar^(order), regrowing the jet for each order: the
    per-order evaluator that `PulseProfile.pulse_jet` replaced."""
    x = np.asarray(x, dtype=float)
    e = pulse.pulse_bar(x)
    if order == 0:
        return e
    well = pulse.well
    dphi = -np.sign(x) * np.sqrt(np.maximum(2.0 * well.W_bar(e), 0.0))
    jet = [e, dphi]
    for k in range(2, order + 1):
        jet.append(well_jet(well, 1, jet[: k - 1], well.b_minus)[k - 2])
    return jet[order]


def derivative_stack_oracle(man, profile, max_order, component):
    """Derivative samples of Phi ('phi') or of Phi - u_n ('correction'),
    orders 0..max_order, assembled order by order from freshly evaluated
    translates, summed in translate order."""
    z = man.grid.nodes
    lam = profile.internal.lam
    stack = np.empty((max_order + 1, z.size))
    for m in range(max_order + 1):
        bg = np.zeros_like(z)
        pulse_part = np.zeros_like(z)
        for p in profile.config.positions:
            bg += bar_at_oracle(man.bg2, z - p, m)
            pulse_part += pulse_bar_deriv_oracle(man.pulse, z - p, m)
        if m == 0:
            bg += man.bg2.b_inf
            pulse_part += man.well.b_minus
        corr = lam * bg + edge_term_oracle(man, profile.internal, z, m)
        stack[m] = {"correction": corr, "phi": pulse_part + corr}[component]
    return stack


def fd_tangents(manifold, config, rel_step):
    """Central-difference tangents dPhi/dp_i over full rebuilds at
    p_i +- rel_step * ell, with their derivative stacks: the form that the
    exact `PulseManifold.tangent_basis` replaced, kept as its oracle. Returns
    (n, 5, N); row 0 is the difference of the built fields."""
    step = rel_step * manifold.params.min_spacing
    stacks = []
    for i in range(config.n):
        plus = manifold.build(config.shifted(i, +step))
        minus = manifold.build(config.shifted(i, -step))
        stack = (manifold.derivative_stack(plus)
                 - manifold.derivative_stack(minus)) / (2.0 * step)
        stack[0] = (plus.phi.values - minus.phi.values) / (2.0 * step)
        stacks.append(stack)
    return np.stack(stacks)


# The nodal energy, gradient and second variation, and the inverse of
# `operators.to_modes`: no package path calls them since the stepper and the
# spectral context work in cosine modes, so they are kept here as oracles.


def energy(u, well):
    """J(u) = int (1/2) (u'' - W'(u))^2 dz."""
    return energy_terms(cosine_coeffs(u.values), u.values, u.grid, well)[1]


def variational_derivative(u, well):
    """grad J = (d^2 - W''(u)) (u'' - W'(u)), evaluated spectrally."""
    w1 = energy_terms(cosine_coeffs(u.values), u.values, u.grid, well)[0]
    return ScalarField(u.grid, gradient_values(u.values, w1, u.grid, well))


def dissipation(state, g):
    """<G grad J, grad J> of a flow state: sum_k c_k g_k grad_hat_k^2 with c
    the Parseval weights and g the symbol of G, exact for the trapezoid rule
    on the cosine modes."""
    g_hat = state.grad_hat
    return float(np.sum(parseval_weights(state.u.grid) * g * g_hat * g_hat))


def spectral_derivative(field, order):
    """Differentiate in the cosine basis; odd orders come back as sine series."""
    if order == 0:
        return ScalarField(field.grid, field.values.copy())
    a = cosine_coeffs(field.values)
    return ScalarField(field.grid,
                       mode_derivative(a, field.grid.wavenumbers, order))


def slow_eigenvalues(report):
    """The slow eigenvalues of a SpectrumReport: its first slow_dim."""
    return report.eigenvalues[: report.slow_dim]


def second_variation(phi, well):
    """Second variation at phi: (d^2 - W''(phi))^2 - (phi'' - W'(phi)) W'''(phi),
    as a function from fields to fields."""
    grid = phi.grid
    w2, zeroth = second_variation_coefficients(phi, well)

    def apply(fld):
        av = spectral_derivative(fld, 2).values - w2 * fld.values
        av = ScalarField(grid, av)
        aav = spectral_derivative(av, 2).values - w2 * av.values
        return ScalarField(grid, aav - zeroth * fld.values)

    return apply


def from_modes(grid, vec):
    """The field whose weighted cosine coordinates are vec."""
    return ScalarField(grid, cosine_synth(vec / mode_norms(grid)))


def apply_symbol(symbol, fld):
    """The field whose cosine coefficients are fld's times symbol (g or g1 of
    `gradient_symbols`): G or G1 applied at the nodes, by one analysis and
    one synthesis."""
    return ScalarField(fld.grid, cosine_synth(cosine_coeffs(fld.values)
                                              * symbol))


# The nodal weighted-coordinate dense path that the cosine-mode
# SpectralContext replaced, kept as the oracle. In weighted coordinates
# u_w = sqrt(w) * u (w the quadrature weights) the X inner product is the
# plain dot product, so X-self-adjoint operators become symmetric matrices.


@lru_cache(maxsize=8)
def weighted_cosine_basis(grid):
    """Orthogonal matrix Q whose k-th column is the weighted cosine mode:
    Q = diag(sqrt(w)) E diag(1/nu_k), E the nodal cosine evaluation matrix
    and nu_k the quadrature norms."""
    e = dct(np.eye(grid.num_points), type=1, axis=0)
    e[:, 1:-1] *= 0.5
    return (np.sqrt(grid.quad_weights)[:, None] * e) / mode_norms(grid)[None, :]


def dense_spectral_multiplier(grid, multipliers):
    """The symmetric weighted matrix Q diag(multipliers) Q^T."""
    q = weighted_cosine_basis(grid)
    return (q * np.asarray(multipliers)[None, :]) @ q.T


def dense_second_derivative(grid):
    """The weighted matrix of d^2/dz^2."""
    return dense_spectral_multiplier(grid, -grid.wavenumbers**2)


def to_weighted(field):
    return np.sqrt(field.grid.quad_weights) * field.values


def dense_second_variation(phi, well):
    """The weighted matrix of the second variation at phi, symmetrized:
    (d^2 - W''(phi))^2 - (phi'' - W'(phi)) W'''(phi)."""
    w2, zeroth = second_variation_coefficients(phi, well)
    a = dense_second_derivative(phi.grid) - np.diag(w2)
    mat = a @ a - np.diag(zeroth)
    return 0.5 * (mat + mat.T)


def mode_field(grid, vec):
    """The zero-mass field with the mode coordinates vec of a spectrum
    report's vectors (mode 0 left out)."""
    return from_modes(grid, np.concatenate([[0.0], vec]))


def nodal_residuals(phi, well, report):
    """The residual norms ||Pi_0 L f - theta f||_X of a report's pairs in the
    nodal form that the factored `SpectralContext.residual` replaced: each
    vector synthesized to its field f, the second variation applied at the
    nodes. Its floor is eps*||L||."""
    sv = second_variation(phi, well)
    out = []
    for theta, vec in zip(report.eigenvalues, report.vectors.T):
        f = mode_field(phi.grid, vec)
        lf = zero_mass_projection(sv(f))
        out.append(norm(ScalarField(phi.grid, lf.values - theta * f.values),
                        "l2"))
    return np.array(out)


# The difference-of-flows forms that the exact Taylor remainders of
# `operators.nonlinear_remainder` and `operators.energy_remainder` replaced,
# and the nodal H4 loop that the Parseval sum of `core.norm` replaced, kept
# as the oracles. The differences cancel: 1e-14 noise on phi moves them by
# up to 1e-3 relative at |v| ~ 1/400.


def flow_field(u, well):
    """F(u) = -Pi_0 grad J(u), the zero-mass projected flow."""
    return -zero_mass_projection(variational_derivative(u, well))


def linearization(phi, well):
    """Flow linearization: minus the zero-mass-constrained second variation,
    with the projection on both sides, so that it annihilates constants.
    Returned as a function from fields to fields."""
    sv = second_variation(phi, well)

    def apply(fld):
        return -zero_mass_projection(sv(zero_mass_projection(fld)))

    return apply


def difference_remainder(phi, v, well):
    """N_S(v) = F(phi+v) - F(phi) - L v as a difference of whole flows."""
    lin = linearization(phi, well)
    fv = flow_field(phi + v, well)
    f0 = flow_field(phi, well)
    return ScalarField(phi.grid, fv.values - f0.values - lin(v).values)


def difference_energy_remainder(phi, v, well):
    """J(phi+v) - J(phi) - <grad J(phi), v> - <J''(phi) v, v>/2 as a
    difference of whole energies."""
    lin_term = inner_product_x(variational_derivative(phi, well), v)
    quad_term = 0.5 * inner_product_x(second_variation(phi, well)(v), v)
    return energy(phi + v, well) - energy(phi, well) - lin_term - quad_term


def nodal_h4_norm(field):
    """sqrt(sum_{m<=4} ||d^m f||_X^2) from nodal spectral derivatives."""
    total = 0.0
    for m in range(5):
        d = spectral_derivative(field, m)
        total += inner_product_x(d, d)
    return float(np.sqrt(total))


# The constrained negative index by formula and by brute force, criterion 6's
# oracle on small dense matrices.


@dataclass(frozen=True)
class IndexResult:
    formula_index: int
    brute_index: int
    shifted_index: int
    d_matrix: np.ndarray


def constrained_negative_index(operator, constraints, mu):
    """Negative index of the constrained operator, by formula and brute force.

    operator: dense symmetric matrix. constraints: arrays in the same
    coordinates, spanning the complement of the constrained subspace.
    Returns both the count n(L) - n(D), D_ij = <s_i, (L-mu)^{-1} s_j>, and the
    direct eigensolve of the projected operator; callers assert agreement.
    """
    mat = np.asarray(operator, dtype=float)
    smat = np.stack([np.asarray(s) for s in constraints], axis=1)
    shifted = mat - mu * np.eye(mat.shape[0])

    evals = np.linalg.eigvalsh(shifted)
    if np.min(np.abs(evals)) < 1e-11 * max(1.0, np.max(np.abs(evals))):
        raise ShiftError(
            f"operator is singular at shift mu = {mu:g}; choose a different mu"
        )
    n_l = int(np.count_nonzero(evals < 0.0))

    d_matrix = smat.T @ np.linalg.solve(shifted, smat)
    d_matrix = 0.5 * (d_matrix + d_matrix.T)
    n_d = int(np.count_nonzero(np.linalg.eigvalsh(d_matrix) < 0.0))

    basis = sla.null_space(smat.T)
    proj = basis.T @ shifted @ basis
    brute = int(np.count_nonzero(np.linalg.eigvalsh(proj) < 0.0))
    return IndexResult(
        formula_index=n_l - n_d,
        brute_index=brute,
        shifted_index=n_l,
        d_matrix=d_matrix,
    )


# The dense factors of the second variation in modes that the transform
# products of `SpectralContext` replaced, and the dense eigensolves that
# shift-invert Lanczos replaced in `SpectralContext.lowest` and in
# `coercivity_constant`, kept as the oracles. They share no solve with the
# package: the tangents are removed through an explicit complement basis.


def dense_factors(context):
    """(b, z): the zero-mass columns of B = -K^2 - M(W'') (all N rows) and
    the zero-mass block of M(Z), each a `mode_matrix`, so that the context's
    matrix is b^T b - z."""
    grid = context.grid
    b = mode_matrix(grid, -context.w2)
    b[np.diag_indices_from(b)] -= grid.wavenumbers**2
    return b[:, 1:], mode_matrix(grid, context.zeroth, start=1)


def dense_lowest(context, k, scale=None):
    """The lowest k eigenpairs of S L S by a dense eigensolver and one Ritz
    step on the columns S V, with one step of block inverse iteration before
    a second Ritz step when scaled: the scaled solve that the generalized
    shift-invert one replaced. The residual of the inverse-iteration step is
    formed from the dense factors."""
    mat = context.matrix
    if scale is None:
        return context.ritz(sla.eigh(mat, subset_by_index=[0, k - 1])[1])
    scale = scale[:, None]
    mat = scale * mat * scale.T
    _, vecs = sla.eigh(mat, subset_by_index=[0, k - 1])
    theta, w = context.ritz(scale * vecs)
    b, z = dense_factors(context)
    resid = scale * (b.T @ (b @ w) - z @ w) - w / scale * theta
    vecs, _ = np.linalg.qr(w / scale - np.linalg.solve(mat, resid))
    theta, w = context.ritz(scale * vecs)
    return theta, w / scale


def sobolev_whitening(grid, order):
    """S with S^2 the inverse zero-mass H^order Gram in modes."""
    return 1.0 / np.sqrt(h_mode_multipliers(grid, order)[1:])


def dense_min(mat):
    return float(sla.eigh(mat, subset_by_index=[0, 0], eigvals_only=True)[0])


def dense_coercivity_minima(context, tangents):
    """(mu_x, mu_H2, mu_H4): the lowest eigenvalues of the zero-mass second
    variation on the complement of the tangents, unwhitened, H2-whitened and
    H4-whitened, by dense eigensolves in an orthonormal basis of that
    complement (`null_space`). Whitened, u = S^{-1} v is orthogonal to S t."""
    t_modes = np.stack([to_modes(t)[1:] for t in tangents], axis=1)
    minima = []
    for order in (0, 2, 4):
        s = sobolev_whitening(context.grid, order)[:, None]
        basis = sla.null_space((s * t_modes).T)
        minima.append(dense_min(basis.T @ (s * context.matrix * s.T)
                                @ basis))
    return tuple(minima)


def every_shift(lowest, mu_tilde, gamma_sweep):
    """The chained-bound sweep that solves every shift with the solver that
    `spectral._best_shift` is given: (mu_e, gamma_e, bound), the first of
    equal bounds kept."""
    best_bound, best = -np.inf, (np.nan, np.nan)
    for ge in gamma_sweep:
        mu_e = lowest(ge)[0]
        bound = mu_tilde * mu_e / (mu_tilde + ge)
        if bound > best_bound:
            best_bound, best = bound, (mu_e, ge)
    return best[0], best[1], best_bound


def dense_shift_solver(mat, shift, solved=None):
    """lowest(gamma) for `spectral._best_shift` by a dense eigensolve of
    mat + gamma diag(shift): the lowest eigenvalue and its unit eigenvector,
    one column; each shift solved is appended to solved."""
    def lowest(gamma):
        if solved is not None:
            solved.append(gamma)
        vals, vecs = sla.eigh(mat + np.diag(gamma * shift),
                              subset_by_index=[0, 0])
        return float(vals[0]), vecs
    return lowest


def dense_ritz(mat, shift):
    """ritz(w, gamma) for `spectral._best_shift`: the Ritz values and vectors
    of mat + gamma diag(shift) on orthonormal columns w, by a dense
    eigensolve of the projected matrix; for an array of gammas, one row
    each."""
    def ritz(w, gamma):
        h = w.T @ mat @ w + np.multiply.outer(gamma,
                                              w.T @ (shift[:, None] * w))
        theta, y = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2)))
        return theta, w @ y
    return ritz


def shadow_locations(internal):
    """(p_0, p_{n+1}): the shadow-pulse locations of a closed profile, from
    its signed edge coefficients (`ansatz.InternalParams`). In the tail form
    A (1 + e z) e^{-+r(z - p)} of each side the amplitude is e^{r p_0} = a0 on
    the left and e^{r (L - p_{n+1})} = a1 - b1 L on the right; a location is
    NaN where its amplitude is not positive."""
    def log_amplitude(amplitude):
        return math.log(amplitude) if amplitude > 0.0 else math.nan
    right = log_amplitude(internal.a1 - internal.b1 * internal.length)
    return (log_amplitude(internal.a0) / internal.rate,
            internal.length - right / internal.rate)


def reduced_equispaced(model, n):
    """The n equispaced positions (i - 1/2) L / n, i = 1..n, of a
    `dynamics.ReducedModel` on its domain [0, L]."""
    spacing = model.domain_length / n
    return (np.arange(1, n + 1) - 0.5) * spacing


def far_field_samples(pulse):
    """(z, phi_bar) of a pulse on z > 0: the samples `far_field_params`
    fits."""
    tail = pulse.z > 0
    return pulse.z[tail], pulse.values[tail] - pulse.well.b_minus


def jacobian_at_equispaced(model, n):
    """Fixed-shadow tridiagonal form of a `dynamics.ReducedModel`, its
    eigenvalues, and the closed-form set.

    The matrix is the linearization of velocity() at the equispaced point
    with the shadow pulses held fixed, divided by 2 * rate: -gamma on the
    diagonal and gamma / 2 beside it, gamma = -F'(L/n) / rate. It is not
    d velocity / dp: the mirror shadows move with the boundary pulses,
    which doubles the boundary-gap sensitivity. The closed-form
    eigenvalues are -gamma*(1 + cos(k*pi/(n+1))).
    """
    spacing = model.domain_length / n
    # F' = -E'' / ||phi_h'||^2
    gamma = (float(model.pair(spacing, 2) / model.kernel_norm**2)
             / model.pair.rate)
    mat = -gamma * np.eye(n)
    for i in range(n - 1):
        mat[i, i + 1] = 0.5 * gamma
        mat[i + 1, i] = 0.5 * gamma
    eigs = np.linalg.eigvalsh(mat)
    k = np.arange(1, n + 1)
    closed = -gamma * (1.0 + np.cos(k * np.pi / (n + 1)))
    return mat, np.sort(eigs), np.sort(closed)


def full_point_spectrum(well, pulse):
    """The single-pulse point spectrum from full solves of the two parity
    blocks of `wellmodel.single_pulse_point_spectrum`, filtered to the
    eigenvalues above -alpha_minus + 1e-3 alpha_minus: the solve that the
    subset solve replaced."""
    window = 2.0 * pulse.half_width
    grid = Grid(2.0 * window, POINT_SPECTRUM_POINTS, h_max=0.2)
    q = well.d2W(well.b_minus + pulse.pulse_bar(grid.nodes - window))
    kappa2 = grid.wavenumbers**2
    evals = []
    for parity in (0, 1):
        block = mode_matrix(grid, -q, start=parity, step=2)
        block[np.diag_indices_from(block)] -= kappa2[parity::2]
        evals.append(np.linalg.eigvalsh(block))
    evals = np.concatenate(evals)
    edge = -well.alpha_minus
    return np.sort(evals[evals > edge + 1e-3 * abs(edge)])[::-1]


def dense_shift_sweep(context, mu_tilde):
    """The H2 chained-bound sweep over GAMMA_SWEEP that solves every shift
    by a dense eigensolve: (mu_e, gamma_e, bound)."""
    s2 = sobolev_whitening(context.grid, 2)
    m2 = s2[:, None] * context.matrix * s2[None, :]
    return every_shift(dense_shift_solver(m2, s2**2), mu_tilde, GAMMA_SWEEP)


# The scalar homoclinic inversion that the batched
# `_HomoclinicInverter.phi_bar` replaced, kept as its bitwise oracle: one
# scipy brentq per z over the scalar composite Gauss-Legendre rule.


def gauss_panels(fn, a, b, max_len=4.0):
    """Composite Gauss-Legendre rule on equal panels of length <= max_len.

    One integrand call covers every panel (one row each); the panel sums are
    added in panel order.
    """
    if b <= a:
        return 0.0
    n = max(1, int(np.ceil((b - a) / max_len)))
    edges = np.linspace(a, b, n + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    t = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (lo + hi)
    panels = 0.5 * (hi - lo)[:, 0] * np.sum(_GL_WEIGHTS * fn(t), axis=1)
    return float(sum(panels))


def phi_bar_oracle(inv, z):
    """phi_bar at a single z >= 0 by scalar brentq on either branch."""
    if z <= 0.0:
        return inv.e_star
    z_upper = lambda t: gauss_panels(inv._upper_integrand, 0.0, t, max_len=0.25)
    z_lower = lambda v: inv.z_mid + gauss_panels(inv._lower_integrand, v,
                                                 inv.v_mid)
    if z <= inv.z_mid:
        t = brentq(lambda t: z_upper(t) - z, 0.0, inv.t_mid,
                   xtol=1e-14, rtol=8.9e-16)
        return inv.e_star - t * t
    v_lo = inv.v_mid - inv.sqrt_am * (z - inv.z_mid) - 2.0
    while z_lower(v_lo) < z:
        v_lo -= 5.0
    v = brentq(lambda v: z_lower(v) - z, v_lo, inv.v_mid,
               xtol=1e-13, rtol=8.9e-16)
    return float(np.exp(v))


def exact_tail_amplitude(well):
    """Fit-free tail coefficient lim e^{sqrt(alpha)*z} phi_bar(z); test
    oracle for PulseProfile.phi_max.

    Computed from the regularized quadrature
    C = z_mid + v_mid/sqrt(alpha) + int_{-inf}^{v_mid} (q(v) - 1/sqrt(a)) dv,
    so that phi_bar ~ exp(sqrt(a) * (C - z)); independent of any fit.
    """
    inv = _HomoclinicInverter(well)
    reg = lambda v: inv._lower_integrand(v) - 1.0 / inv.sqrt_am
    tail = gauss_panels(reg, inv.v_mid - 60.0, inv.v_mid)
    c = inv.z_mid + inv.v_mid / inv.sqrt_am + tail
    return float(np.exp(inv.sqrt_am * c))


def count_background_work(monkeypatch, manifold):
    """Record the node count of every lattice evaluation of the background and
    the name of every cos/sin table with more than two rows made afterwards.

    The manifold's lattice table is built first: it is made once per manifold,
    not per call.
    """
    manifold._bg_table
    cls = type(manifold.bg2)
    real = cls.lattice_jet
    sizes, tables = [], []

    def counting(self, table, nodes, p, max_order):
        sizes.append(np.size(nodes))
        return real(self, table, nodes, p, max_order)

    def counting_trig(fn):
        def wrapped(a, *args, **kwargs):
            if np.ndim(a) == 2 and np.shape(a)[0] > 2:
                tables.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(cls, "lattice_jet", counting)
    monkeypatch.setattr(np, "cos", counting_trig(np.cos))
    monkeypatch.setattr(np, "sin", counting_trig(np.sin))
    return sizes, tables


def fresh_python(code, *args):
    """stdout of `code` run with `args` in a new interpreter on this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(fchpulse.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout
