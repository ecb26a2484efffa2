"""Eigenstructure diagnostics: slow/stable splitting, coercivity constants,
tangent alignment, the symmetrized gap, and the trapping-radius bounds.

Hypothesis checks record pass/fail instead of raising: sweeps over the
configuration sample must complete and report where the assumptions break.
`run_hypothesis_suite` returns its records in the one form that
`diagnose` writes, plain JSON dicts, the trapping radius last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, eigsh

from .core import (
    DomainError,
    Grid,
    ScalarField,
    ValidationError,
    cosine_coeffs,
    cosine_synth,
    h4_norm_from_coeffs,
    h_mode_multipliers,
    mode_derivative,
    mode_matrix,
    mode_norms,
    parseval_weights,
    smooth_probe_coeffs,
)
from .ansatz import h4_norm_from_stack, mass as field_mass
from .operators import (
    energy_remainder,
    gradient_symbols,
    scaled_nonlinearity_constant,
    scaled_residual_constant,
    second_variation_coefficients,
    tangent_amplification_constant,
    to_modes,
)

# Pinned diagnostic thresholds. The delta-relative caps absorb the large
# order-one constants this well family carries (phi_max^2 ~ 70 and secular
# overlap factors enter most interaction prefactors); the slow/stable
# dichotomy and the ell-scaling ratios are the teeth.
THRESHOLDS = {
    "slow_cap_over_delta": 1000.0,
    "edge_band": 0.20,
    "alignment_cap_over_delta": 5000.0,
    "beta_defect_cap_over_delta": 5000.0,
    "symmetrized_cap_over_delta_g": 15.0,
    "residual_cap_over_delta": 5000.0,
    "overlap_floor": 0.99,
    "eh2_stability_factor": 1.5,
    "eh2_cap": 50.0,
    "eh3_residual_cap": 1000.0,
    "eh3_tangent_cap": 10.0,
    "coercivity_slack": 1e-8,
    "semigroup_edge_slack": 1e-6,
}

# Eigenpairs solved beyond the n slow ones by the spectral gap report and by
# the symmetrized gap.
GAP_STABLE_PAIRS = 4
SYMMETRIZED_STABLE_PAIRS = 3
# Shifts gamma of the shifted-form coercivity fit (see _best_shift).
GAMMA_SWEEP = (0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
# Profiles of a hypothesis-suite sample that get the spectral checks.
SPECTRAL_SUBSET = 3
# Relative R-diagonal below which _metric_basis drops a held vector.
HELD_RANK_FLOOR = 1e-8
# Pairs a shift-invert solve computes beyond the k wanted (see _lanczos).
LANCZOS_EXTRA_PAIRS = 2
# Seed of the Gaussian start vector of every shift-invert Lanczos solve.
LANCZOS_SEED = 0
# The low-mode block of the inertia certificate starts where the symbol bound
# of the modes above it exceeds the counted shift this many times, and grows
# by INERTIA_GROWTH until it certifies the count (see certified_count).
INERTIA_SYMBOL_MARGIN = 1250.0
INERTIA_GROWTH = 1.5


class ShiftError(DomainError):
    """The shifted operator L - mu is numerically singular."""


def _projected_inverse(lu, t=None):
    """b -> y with A y - b in span(T) and T^T y = 0, for the symmetric A whose
    LU factors are lu: y = A^{-1} b - A^{-1} T (T^T A^{-1} T)^{-1} T^T A^{-1}
    b, the inverse of A on the complement of span(T). Without t, A^{-1} b."""
    def solve(b):
        return sla.lu_solve(lu, b, check_finite=False)
    if t is None:
        return solve
    at = solve(t)
    gram = t.T @ at

    def project(b):
        y = solve(b)
        return y - at @ np.linalg.solve(gram, t.T @ y)
    return project


def _lanczos(lu, k, m=None, t=None):
    """The k + LANCZOS_EXTRA_PAIRS eigenpairs nearest 0 of A x = theta M x,
    M = diag(m) (the identity without m), over x with T^T x = 0, for the
    symmetric A whose LU factors are lu: (values, vectors), the vectors
    M-orthonormal.

    The spectral transformation of Ericsson and Ruhe (Math. Comp. 35, 1980):
    Lanczos on A^{-1} M in the M inner product, run as ARPACK's mode 3
    (Lehoucq, Sorensen and Yang, 1998), with the LU applying the inverse
    (`_projected_inverse` with the constraints) and M applied as the
    elementwise product m * x. Every caller wants the lowest eigenvalues of a
    problem with none far below 0; after the inversion they are the largest
    and well separated, so a few restarts converge them. The extra pairs keep
    the edge of the wanted set away from the edge of the converged one;
    callers Ritz-refine all of them and keep k.

    The start vector is Gaussian, drawn from LANCZOS_SEED (ARPACK's own
    draw does not repeat bit for bit, and a parity-symmetric one would miss
    the odd eigenvectors of a symmetric configuration), and projected onto
    the complement of span(T), where every Lanczos vector then stays.
    """
    size = lu[0].shape[0]
    inverse = LinearOperator((size, size), dtype=float,
                             matvec=_projected_inverse(lu, t))
    metric = None if m is None else LinearOperator(
        (size, size), dtype=float, matvec=lambda x: m * x.ravel())
    start = np.random.default_rng(LANCZOS_SEED).standard_normal(size)
    if t is not None:
        q, _ = np.linalg.qr(t)
        start -= q @ (q.T @ start)
    # mode 3 applies only OPinv and M; the first argument gives the shape
    return eigsh(inverse, k + LANCZOS_EXTRA_PAIRS, sigma=0.0, OPinv=inverse,
                 M=metric, v0=start)


# ---------------------------------------------------------------------------
# The zero-mass second variation in cosine modes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralContext:
    """The second variation of one profile on the zero-mass space, in modes.

    With Q the weighted cosine basis and M(f) = Q^T diag(f) Q, B = -K^2 -
    M(W''(phi)), K = diag(kappa), and L = B B - M(Z) (see
    `second_variation_coefficients`). Mode 0 is the constant direction, so
    the zero-mass space is modes 1..N-1, and `matrix` is that block of L, the
    one N^2 array; one is built per profile (`ProfilePoint.context`), read by
    every check of that profile and dropped after them. B and M(Z) are kept
    as the nodal W'' (`w2`) and Z (`zeroth`), and applied to a few columns
    at a time by cosine transforms (`_multiply`).
    """

    grid: Grid
    w2: np.ndarray
    zeroth: np.ndarray
    matrix: np.ndarray

    def _multiply(self, f, v):
        """M(f) v for columns v of all N mode coordinates: Q v is the
        weighted synthesis of v / nu, so M(f) v = nu c(f synth(v / nu))."""
        nu = mode_norms(self.grid)[:, None]
        return nu * cosine_coeffs(f[:, None] * cosine_synth(v / nu))

    def _apply_b(self, v):
        """B v = -kappa^2 v - M(W'') v for columns v of all N modes."""
        bv = self.grid.wavenumbers[:, None] ** 2 * v
        bv += self._multiply(self.w2, v)
        return -bv

    def _factors(self, w):
        """(B w, M(Z) w) for zero-mass columns w, all N rows of each."""
        full = np.zeros((self.grid.num_points, w.shape[1]))
        full[1:] = w
        return self._apply_b(full), self._multiply(self.zeroth, full)

    def factor(self, shift=0.0):
        """The LU factors of matrix + shift I, made in one new array. It is
        symmetric, so its transpose, a Fortran-ordered view that LAPACK
        overwrites without a copy, is factored."""
        mat = self.matrix.copy()
        mat[np.diag_indices_from(mat)] += shift
        lu = sla.lu_factor(mat.T, overwrite_a=True, check_finite=False)
        if not np.all(np.diag(lu[0])):
            raise ShiftError(f"operator is singular at shift {shift:g}")
        return lu

    def ritz(self, w, shift=0.0):
        """One Rayleigh-Ritz step for L + shift on the span of the columns w,
        orthonormal in the metric of the problem they solve.

        H = (B W)^T (B W) - W^T Z W + shift W^T W is formed from the factors,
        so its slow entries carry errors relative to |B w|^2 instead of the
        eps*||L|| of an eigensolver (the graded-matrix argument of Demmel
        and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992): the slow Ritz
        values do not depend on the basis or the solver that produced w.
        Returns Ritz values and vectors. A 1-D array of shifts gives one
        step per shift from one pair of factored products, stacked along a
        leading axis, each bitwise the step at that shift alone.
        """
        bw, zw = self._factors(w)
        h = bw.T @ bw - w.T @ zw[1:] + np.multiply.outer(shift, w.T @ w)
        theta, y = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2)))
        return theta, w @ y

    def residual(self, w, theta, m=None):
        """L W - diag(m) W diag(theta) (the identity without m), with L W the
        zero-mass rows of B (B W) - M(Z) W: the factors that `ritz` reads, so
        a slow pair's residual has no eps*||L|| floor."""
        bw, zw = self._factors(w)
        resid = self._apply_b(bw)[1:] - zw[1:]
        resid -= (w if m is None else m[:, None] * w) * theta
        return resid

    def lowest(self, lu, k, m=None, t=None, shift=0.0):
        """The lowest k pairs (theta, w) of (L + shift) w = theta diag(m) w
        over zero-mass w with T^T w = 0, w orthonormal in diag(m): every
        eigenproblem of the checks. The shift-invert Lanczos vectors of lu,
        the factors of L + shift (`factor`), are Ritz-refined."""
        _, vecs = _lanczos(lu, k, m, t)
        theta, w = self.ritz(vecs, shift)
        return theta[:k], w[:, :k]


def spectral_context(phi, well):
    """The SpectralContext of the second variation at phi, assembled in
    O(N^2) with no matrix product.

    Q is orthogonal, so M(f) M(g) = M(f g), and B B = K^4 + K^2 M(W'') +
    M(W'') K^2 + M(W''^2): the entry of modes i, j of L is kappa_i^4 [i = j]
    + (kappa_i^2 + kappa_j^2) M(W'')_ij + M(W''^2 - Z)_ij, two mode matrices
    and one symmetric scaling.
    """
    grid = phi.grid
    w2, zeroth = second_variation_coefficients(phi, well)
    kappa2 = grid.wavenumbers[1:] ** 2
    matrix = mode_matrix(grid, w2**2 - zeroth, start=1)
    cross = mode_matrix(grid, w2, start=1)
    cross *= kappa2[None, :]
    matrix += cross
    matrix += cross.T
    matrix[np.diag_indices_from(matrix)] += kappa2**2
    return SpectralContext(grid=grid, w2=w2, zeroth=zeroth, matrix=matrix)


@dataclass(eq=False)
class ProfilePoint:
    """One built profile of a manifold and what its checks share.

    The spectral-renormalization checks (gap, alignment, symmetrized gap) and
    the energy-landscape ones (coercivity, trapping radius) read the same
    context, tangent basis, gap report and residual_h4 record (the residual,
    its norms and the energy), and every unshifted solve reads one LU of the
    context's matrix (`lu`). The checks read the tangent plane in one
    coordinate system: `tangents`, the (N-1) x n zero-mass mode coordinates
    of the basis's fields, one column per tangent. Each is computed on first
    read and kept; `release` drops the N^2 arrays.
    """

    manifold: object
    profile: object

    @cached_property
    def context(self):
        return spectral_context(self.profile.phi, self.manifold.well)

    @cached_property
    def lu(self):
        return self.context.factor()

    @cached_property
    def basis(self):
        return self.manifold.tangent_basis(self.profile)

    @cached_property
    def tangents(self):
        return np.stack([to_modes(t)[1:] for t in self.basis[0]], axis=1)

    @cached_property
    def gap(self):
        return spectral_gap_report(self)

    @cached_property
    def coercivity(self):
        return coercivity_constant(self)

    @cached_property
    def residual(self):
        return self.manifold.residual_h4(self.profile)

    @property
    def energy(self):
        return self.residual[3]

    def release(self, context=True):
        """Drop the LU, and with context the context too."""
        self.__dict__.pop("lu", None)
        if context:
            self.__dict__.pop("context", None)


@dataclass
class SpectrumReport:
    """Eigenpairs of a self-adjoint map with the slow/stable bookkeeping:
    the Ritz vectors in zero-mass mode coordinates, one column each, and the
    norms of their factored residuals. fitted_c is max |slow| / delta, for
    the symmetrized gap max(|slow|, alignment_errors) / delta.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    fitted_c: float
    delta: float = np.nan
    slow_dim: int = 0
    stable_edge: float = np.nan
    k_s: float = np.nan
    passed: bool = True
    failures: list = field(default_factory=list)
    alignment_errors: np.ndarray | None = None


def spectral_gap_report(point):
    """Spectrum of -L on the zero-mass space with the slow/stable split.

    The lowest n + GAP_STABLE_PAIRS eigenpairs of the point's context are
    solved on the point's LU. The slow set is every eigenvalue below half the
    single-pulse edge floor k_s, the pulse's `edge_floor`; the report asserts
    the slow dimension equals n, that the slow set is O(delta)-small, and that
    the stable edge sits within the pinned band of k_s. Failures are
    recorded, not raised. The eigenpairs are Ritz-refined
    (SpectralContext.ritz).
    """
    manifold = point.manifold
    n = manifold.n
    delta = manifold.params.tail_scale
    k_s = manifold.pulse.edge_floor
    context = point.context
    k = n + GAP_STABLE_PAIRS
    evals, vecs = context.lowest(point.lu, k)

    slow_dim = int(np.count_nonzero(evals < 0.5 * k_s))
    failures = []
    if slow_dim != n:
        failures.append(
            f"slow dimension {slow_dim} != number of pulses {n}"
        )
    slow_cap = THRESHOLDS["slow_cap_over_delta"] * delta
    slow = evals[:slow_dim] if slow_dim else evals[:0]
    if slow_dim and np.max(np.abs(slow)) > slow_cap:
        failures.append(
            f"max slow |eig| {np.max(np.abs(slow)):.3e} exceeds "
            f"{THRESHOLDS['slow_cap_over_delta']:g}*delta"
        )
    stable_edge = float(evals[slow_dim]) if slow_dim < k else np.nan
    band = THRESHOLDS["edge_band"]
    if np.isfinite(stable_edge) and not (
        (1.0 - band) * k_s <= stable_edge <= (1.0 + band) * k_s
    ):
        failures.append(
            f"stable edge {stable_edge:.4f} outside {band:.0%} band of "
            f"k_s = {k_s:.4f}"
        )
    return SpectrumReport(
        eigenvalues=evals,
        vectors=vecs,
        residuals=np.linalg.norm(context.residual(vecs, evals), axis=0),
        fitted_c=float(np.max(np.abs(slow)) / delta) if slow_dim else 0.0,
        delta=delta,
        slow_dim=slow_dim,
        stable_edge=stable_edge,
        k_s=k_s,
        passed=not failures,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Coercivity constants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoercivityReport:
    mu_e: float
    gamma_e: float
    mu_tilde: float
    mu_x: float
    mu_h2: float
    sigma_top: float
    bound: float
    unconstrained_x_min: float
    passed: bool
    gammas_solved: tuple = ()

    def relation_holds(self):
        return self.mu_h2 >= self.bound - THRESHOLDS["coercivity_slack"]


def _metric_basis(held, metric):
    """Columns w spanning at most span(held), orthonormal in diag(metric):
    QR in the coordinates sqrt(metric) x, dropping each column whose R
    diagonal falls below HELD_RANK_FLOOR times the largest (a near-dependent
    one, whose Q column would be mostly rounding)."""
    scale = np.sqrt(metric)[:, None]
    q, r = np.linalg.qr(scale * held)
    pivots = np.abs(np.diag(r))
    return q[:, pivots > HELD_RANK_FLOOR * np.max(pivots)] / scale


def _best_shift(lowest, ritz, metric, held, mu_tilde, gamma_sweep):
    """The shift of gamma_sweep with the largest chained bound
    mu_tilde*mu_e/(mu_tilde + gamma); of equal bounds, the first in the
    sweep wins.

    mu_e(gamma) is the lowest eigenvalue of (A + gamma D) w = theta
    diag(metric) w (A symmetric, D diagonal). lowest(gamma) returns it and
    the Ritz vectors of its solve, one column each; ritz(w, gammas) returns
    the Ritz values of A + gamma D on diag(metric)-orthonormal columns w, one
    row per gamma of the array gammas. By Courant-Fischer the lowest Ritz
    value on any subspace bounds mu_e(gamma) from above; the ceiling at gamma
    is that on the span of held and of the Ritz vectors of every shift solved
    so far (`_metric_basis`). The shifts are tried from the middle of the
    sweep outward, where the desk bound peaks; after each solve, one ritz
    call gives the ceilings of every shift still to try. A shift whose bound
    from its ceiling (plus 1e-8 (1 + |ceiling|) for rounding) falls below the
    best bound so far cannot win and is not solved, so the result is that of
    solving every shift. Returns (mu_e, gamma_e, bound, the shifts solved in
    the order solved).
    """
    mid = (len(gamma_sweep) - 1) // 2
    order = sorted(range(len(gamma_sweep)), key=lambda i: (abs(i - mid), i))
    solved, best_key, best = [], (-np.inf, 0), (np.nan, np.nan)
    ceilings = None
    for pos, i in enumerate(order):
        ge = gamma_sweep[i]
        if solved:
            if ceilings is None:
                rest = np.array([gamma_sweep[j] for j in order[pos:]])
                basis = _metric_basis(held, metric)
                ceilings = iter(ritz(basis, rest)[0][:, 0])
            ceiling = next(ceilings)
            ceiling += 1e-8 * (1.0 + abs(ceiling))
            if mu_tilde * ceiling / (mu_tilde + ge) < best_key[0]:
                continue
        mu_e, w = lowest(ge)
        solved.append(ge)
        held, ceilings = np.hstack([held, w]), None
        key = (mu_tilde * mu_e / (mu_tilde + ge), -i)
        if key > best_key:
            best_key, best = key, (mu_e, ge)
    return best[0], best[1], best_key[0], tuple(solved)


def coercivity_constant(point):
    """Normal coercivity constants of the constrained second variation in H2.

    L is fourth order, so <L v, v> bounds ||v||_{H2}^2 and no stronger norm:
    its H4 minimum is the grid's top mode, sigma_top = (kappa_max^2 +
    alpha_-)^2 / sum_{m<=4} kappa_max^{2m}, falling 16x per doubling of N.
    The report carries it in closed form.

    mu_h2 and mu_x are the minima of <L v, v> over the H2 and L2 unit spheres
    of zero-mass v orthogonal to the tangent plane. (mu_e, gamma_e) fit
    <(L + gamma) v, v> >= mu_e ||v||_{H2}^2 on the zero-mass space; bound is
    the chained lower bound mu_tilde*mu_e/(mu_tilde + gamma_e) of mu_h2,
    mu_tilde = 0.75 k_s, valid while mu_x >= mu_tilde; gammas_solved lists
    the shifts of GAMMA_SWEEP that _best_shift solved. The check passes when
    mu_h2 > 0, which does not depend on the norm.

    In cosine modes zero mass drops mode 0 and the Sobolev Grams are the
    diagonal h_mode_multipliers, the metrics of the solves
    (SpectralContext.lowest), and the tangent plane is their constraint. mu_x
    and mu_h2 read the point's LU; each solved shift of the sweep factors its
    own copy of L + gamma after that LU is dropped, so at most one N^2 array
    is held beside the context. A shift is solved only if the Ritz value of
    L + gamma on the gap report's vectors and the solved shifts' Ritz vectors
    leaves it a chance to win (_best_shift); the Ritz values of every shift
    still to try come from one set of factored products of those vectors,
    formed again only after a solve adds vectors, and their work arrays are
    a few columns of N. At desk, gamma = 1 alone is solved, and one Ritz
    call gives the ceilings of the other six shifts. The unconstrained
    minimum is the lowest Ritz value of the point's gap report.
    """
    manifold = point.manifold
    grid = manifold.grid
    mu_tilde = 0.75 * manifold.pulse.edge_floor
    context = point.context
    unconstrained = float(point.gap.eigenvalues[0])
    h2 = h_mode_multipliers(grid, 2)[1:]
    mu_x = float(context.lowest(point.lu, 1, t=point.tangents)[0][0])
    mu_h2 = float(context.lowest(point.lu, 1, h2, point.tangents)[0][0])
    point.release(context=False)

    def shifted(gamma):
        theta, w = context.lowest(context.factor(gamma), 1, h2, shift=gamma)
        return float(theta[0]), w

    mu_e, gamma_e, bound, solved = _best_shift(
        shifted, context.ritz, h2, point.gap.vectors, mu_tilde, GAMMA_SWEEP)
    return CoercivityReport(
        mu_e=mu_e,
        gamma_e=gamma_e,
        mu_tilde=mu_tilde,
        mu_x=mu_x,
        mu_h2=mu_h2,
        sigma_top=float((grid.wavenumbers[-1] ** 2 + manifold.well.alpha_minus)
                        ** 2 / h_mode_multipliers(grid, 4)[-1]),
        bound=bound,
        unconstrained_x_min=unconstrained,
        passed=mu_h2 > 0.0,
        gammas_solved=solved,
    )


# ---------------------------------------------------------------------------
# Tangent alignment (slow eigenfields vs the tangent plane).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentReport:
    max_error: float
    errors: np.ndarray
    beta: np.ndarray
    beta_defect: float
    passed: bool


def _procrustes_align(slow, tangents):
    """(beta, slow rotated onto the columns of tangents, those columns
    normalized) by the orthogonal Procrustes rotation of beta."""
    t_mat = tangents / np.linalg.norm(tangents, axis=0)
    beta = t_mat.T @ slow
    u, _, vt = np.linalg.svd(beta)
    rotated = slow @ (u @ vt).T
    return beta, rotated, t_mat


def tangent_alignment(point):
    """Max H4 distance between slow eigenfields and normalized tangents.

    The slow eigenbasis is matched to the point's tangent columns by the
    optimal orthogonal transformation (the beta reparameterization); errors are
    measured in the H4 norm with the tangent derivatives assembled
    analytically and the eigenfield derivatives synthesized from the rotated
    zero-mass mode coordinates of the gap report (`mode_derivative`).
    """
    manifold = point.manifold
    report = point.gap
    n = manifold.n
    delta = manifold.params.tail_scale
    if report.slow_dim != n:
        return AlignmentReport(
            max_error=np.nan, errors=np.full(n, np.nan),
            beta=np.full((n, n), np.nan), beta_defect=np.nan, passed=False,
        )
    stacks = point.basis[1]
    t_norms = np.linalg.norm(point.tangents, axis=0)
    beta, rotated, _ = _procrustes_align(report.vectors[:, :n], point.tangents)

    grid = manifold.grid
    coeffs = np.zeros((grid.num_points, n))
    coeffs[1:] = rotated / mode_norms(grid)[1:, None]
    eig = np.stack([mode_derivative(coeffs, grid.wavenumbers, m)
                    for m in range(5)])
    errors = np.array([h4_norm_from_stack(grid, eig[..., i] - stacks[i] / t)
                       for i, t in enumerate(t_norms)])
    beta_defect = float(np.linalg.norm(beta.T @ beta - np.eye(n)))
    passed = (
        float(np.max(errors)) <= THRESHOLDS["alignment_cap_over_delta"] * delta
        and beta_defect <= THRESHOLDS["beta_defect_cap_over_delta"] * delta
    )
    return AlignmentReport(
        max_error=float(np.max(errors)),
        errors=errors,
        beta=beta,
        beta_defect=beta_defect,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Symmetrized operator G1 L G1.
# ---------------------------------------------------------------------------


def symmetrized_gap(point, s):
    """Spectrum of G1*L*G1 on the zero-mass space and its slow alignment.

    Asserts n slow eigenvalues of size O(delta_g), a stable remainder, and
    alignment of the slow eigenfields with the normalized G1^{-1} tangents,
    the point's `tangents` over g1 = k^s (`gradient_symbols`). G1 is
    diagonal in modes, so G1 L G1 y = theta y is L w = theta G1^{-2} w with
    y = G1^{-1} w, solved on the point's LU with the metric G1^{-2}
    (SpectralContext.lowest); the residuals are those of G1 L G1. At s = 0
    this reproduces the plain spectral gap report.
    """
    manifold = point.manifold
    params = manifold.params
    delta_g = params.require_srn_regime(s)
    n = manifold.n

    context = point.context
    g1 = gradient_symbols(manifold.grid, s)[1][1:]
    metric = g1**-2.0
    k = n + SYMMETRIZED_STABLE_PAIRS
    evals, w = context.lowest(point.lu, k, metric)
    vecs = w / g1[:, None]

    failures = []
    cap = THRESHOLDS["symmetrized_cap_over_delta_g"] * delta_g
    slow = evals[:n]
    stable_edge = float(evals[n])
    if np.max(np.abs(slow)) > cap:
        failures.append(
            f"max slow |eig| {np.max(np.abs(slow)):.3e} exceeds "
            f"{THRESHOLDS['symmetrized_cap_over_delta_g']:g}*delta_g "
            f"= {cap:.3e}"
        )
    # delta_g need not be tiny at desk scale (s = 1 gives delta*rho^3 ~ 0.6),
    # so only the ordering of the split is asserted here; the size of the
    # slow set is covered by the cap above
    if stable_edge <= np.max(np.abs(slow)) * 1.2:
        failures.append("no clear slow/stable separation")

    # alignment of slow eigenfields with normalized G1^{-1} tangents
    _, rotated, t_mat = _procrustes_align(vecs[:, :n], point.tangents
                                          / g1[:, None])
    errors = np.linalg.norm(rotated - t_mat, axis=0)
    if np.max(errors) > cap:
        failures.append(
            f"slow-eigenfield alignment error {np.max(errors):.3e} exceeds "
            f"{cap:.3e}"
        )
    return SpectrumReport(
        eigenvalues=evals,
        vectors=vecs,
        residuals=np.linalg.norm(
            g1[:, None] * context.residual(g1[:, None] * vecs, evals, metric),
            axis=0),
        fitted_c=float(max(np.max(np.abs(slow)), np.max(errors)) / delta_g),
        delta=delta_g,
        slow_dim=n,
        stable_edge=stable_edge,
        passed=not failures,
        failures=failures,
        alignment_errors=errors,
    )


# ---------------------------------------------------------------------------
# Trapping-radius (energy landscape) bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElBoundsReport:
    delta0: float
    delta1: float
    delta2: float
    mu2: float
    eta_star: float
    eta_upper: float
    rho_exp: float
    window_ok: bool


def eta_star_formula(delta0, delta1, delta2, mu2):
    """Trapping radius delta2/mu2 + sqrt(delta2^2/mu2^2 + 2(delta0+delta1)/mu2)."""
    lin = delta2 / mu2
    return lin + np.sqrt(lin**2 + 2.0 * (delta0 + delta1) / mu2)


def dual_h4_norm(field):
    """Norm of the pairing v -> <field, v> over the H4 unit ball.

    Parseval with inverse Sobolev weights; this is the sharp constant of the
    small-residual inequality, and the inverse weights make it insensitive to
    high-mode sampling noise.
    """
    grid = field.grid
    a = cosine_coeffs(field.values)
    m = h_mode_multipliers(grid, 4)
    return float(np.sqrt(np.sum(a**2 * parseval_weights(grid) / m)))


def el_bounds(points):
    """Measured trapping-radius ingredients over a manifold sample's points.

    delta0: max energy variation over the sample; delta1: the tail scale
    delta of the manifold's parameters; delta2: max residual
    projection constant (the H4-dual norm of Pi_0 grad J, the sharp constant
    of the small-residual pairing bound); mu2: the H2-Gram coercivity minimum
    (resolution-stable). The window eta_upper, capped at 1, reads two
    constants that the report does not keep: c2 fits the cubic remainder
    bound over 4 random probes about points[0], and c1, the projection
    Lipschitz constant, is the unit proxy.
    """
    manifold = points[0].manifold
    delta1 = manifold.params.tail_scale
    energies = [p.energy for p in points]
    delta0 = float(np.max(energies) - np.min(energies))
    delta2 = 0.0
    for p in points:
        delta2 = max(delta2, dual_h4_norm(p.residual[0]))
    mu2 = points[0].coercivity.mu_h2

    rng = np.random.default_rng(0)
    grid = manifold.grid
    phi = points[0].profile.phi
    c2 = 0.0
    c1 = 1.0
    for _ in range(4):
        coeffs = smooth_probe_coeffs(grid, rng, 4, 160, 2)
        coeffs *= 0.1 / h4_norm_from_coeffs(grid, coeffs)
        rem = energy_remainder(phi, ScalarField(grid, cosine_synth(coeffs)),
                               manifold.well)
        c2 = max(c2, abs(rem) / 0.1**3)
    rho_exp = 3.0
    eta_upper = min(1.0,
                    (1.0 / c1) * (mu2 / (2.0 * c2)) ** (1.0 / (rho_exp - 2.0)))
    eta_star = float(eta_star_formula(delta0, delta1, delta2, mu2))
    return ElBoundsReport(
        delta0=delta0,
        delta1=float(delta1),
        delta2=float(delta2),
        mu2=mu2,
        eta_star=eta_star,
        eta_upper=float(eta_upper),
        rho_exp=rho_exp,
        window_ok=bool(eta_star < eta_upper),
    )


# ---------------------------------------------------------------------------
# Semigroup decay and eigenfield regularity proxies.
# ---------------------------------------------------------------------------


def negative_count(mat, shift):
    """The number of eigenvalues of the symmetric mat below shift by
    Sylvester's law of inertia: those of the block diagonal D of the
    Bunch-Kaufman LDL^T of mat - shift (LAPACK sytrf) below 0. A 2x2 block
    starts where the 1-based pivot is negative, its off-diagonal below."""
    shifted = mat.copy()
    shifted[np.diag_indices_from(shifted)] -= shift
    size = mat.shape[0]
    lwork = int(sla.lapack.dsytrf_lwork(size, lower=1)[0])
    # symmetric, so its transpose is a Fortran-ordered view to factor in place
    ldu, piv, _ = sla.lapack.dsytrf(shifted.T, lower=1, lwork=lwork,
                                    overwrite_a=True)
    off, k = np.zeros(size - 1), 0
    while k < size - 1:
        if piv[k] < 0:
            off[k] = ldu[k + 1, k]
            k += 1
        k += 1
    return int(np.count_nonzero(
        sla.eigvalsh_tridiagonal(np.diag(ldu), off) < 0.0))


def certified_count(context, shift, floor):
    """(count, K, d): the number of eigenvalues of the context's L below
    shift, certified on its lowest K zero-mass modes, given floor, a lower
    bound of that number.

    Split the modes into the lowest K and the rest, L = [[A, C^T], [C, D]]
    with A and C slices of `matrix`. M(f) has the nodal values of f as its
    eigenvalues, so on the rest ||(diag(kappa^2) + M(W''))v|| >=
    (kappa_{K+1}^2 + min W'')||v|| while that factor is positive, and
    D >= d I with d = (kappa_{K+1}^2 + min W'')^2 - max Z. For d > shift, Haynsworth's inertia
    additivity (Linear Algebra Appl. 1, 1968) makes the count that of the
    Schur complement A - shift - C^T (D - shift)^{-1} C, which is at least
    A - shift - C^T C / (d - shift). So the count lies between floor and the
    negatives of that K x K matrix (`negative_count`), and is floor when the
    two meet. K starts at the least with d >= INERTIA_SYMBOL_MARGIN |shift|
    and grows by INERTIA_GROWTH until they do; at K = N - 1 the block is L
    itself, the count exact and d NaN. Until then the work arrays are K^2
    and (N - 1 - K) K, with no copy of the matrix.
    """
    matrix = context.matrix
    size = matrix.shape[0]
    # the symbol bound of the modes above K, for K = 1 .. N - 2
    low = context.grid.wavenumbers[2:] ** 2 + np.min(context.w2)
    bound = low**2 - np.max(context.zeroth)
    usable = ((low > 0.0) & (bound > shift)
              & (bound >= INERTIA_SYMBOL_MARGIN * abs(shift)))
    k = int(np.argmax(usable)) + 1 if np.any(usable) else size
    while k < size:
        d = float(bound[k - 1])
        c = matrix[k:, :k]
        count = negative_count(matrix[:k, :k] - (c.T @ c) / (d - shift), shift)
        if count == floor:
            return count, k, d
        k = min(size, int(np.ceil(INERTIA_GROWTH * k)))
    return negative_count(matrix, shift), size, np.nan


def semigroup_decay_check(point):
    """Exponential decay of the linearized flow off the slow space.

    L is self-adjoint, so ||exp(-t L) u|| <= exp(-edge t) ||u|| for all t and
    all u orthogonal to the n slow eigenvectors exactly when no other
    eigenvalue lies below edge, the gap report's (n+1)-th Ritz value (above
    any eigenvalue the gap solve missed). `certified_count` counts the
    eigenvalues below (1 - eta) edge, eta = THRESHOLDS["semigroup_edge_slack"]
    far above its rounding, from the lowest K modes; the gap report's Ritz
    values below that shift are its floor, since each Ritz value lies above
    the eigenvalue of its rank. passed is count == n. Returns (passed, count,
    edge, K, d). The gap report's LU is dropped first, so at most a K^2 and
    an (N - 1 - K) K array, or at K = N - 1 one (N-1)^2 copy of the matrix,
    are held beside the context.
    """
    n = point.manifold.n
    values = point.gap.eigenvalues
    edge = float(values[n])
    point.release(context=False)
    shift = (1.0 - THRESHOLDS["semigroup_edge_slack"]) * edge
    count, block, bound = certified_count(
        point.context, shift, int(np.count_nonzero(values < shift)))
    return count == n, count, edge, block, bound


def eigenfield_continuity(point):
    """Slow-eigenfield continuity and p-Hessian magnitude along a p-path:
    the point's first pulse moved by +-0.05.

    The slow eigenvalues are nearly degenerate, so the eigenvectors inside
    the slow cluster are fixed only to rounding and may rotate arbitrarily
    along the path; continuity is a statement about the slow subspace. Each
    shifted slow basis is therefore aligned onto the center basis by the
    orthogonal Procrustes rotation before the second difference. A shifted
    profile solves only its n slow pairs (SpectralContext.lowest on its own
    LU) and drops its context and LU before the next is built. Returns (min
    subspace overlap, max second-difference H4 norm).
    """
    manifold = point.manifold
    n = manifold.n
    step = 0.05
    u_c = point.gap.vectors[:, :n]
    sub_overlap = 1.0
    aligned = []
    for shift in (-step, step):
        shifted = ProfilePoint(manifold, manifold.build(
            point.profile.config.shifted(0, shift)))
        u_s = shifted.context.lowest(shifted.lu, n)[1]
        shifted.release()
        # the subspace turns at a rate controlled by the gap to the stable part
        u, sigma, vt = np.linalg.svd(u_c.T @ u_s)
        sub_overlap = min(sub_overlap, float(np.min(sigma)))
        aligned.append(u_s @ (u @ vt).T)
    # coordinates a_k nu_k with nu_k^2 the Parseval weights: H4 by Parseval
    second = (aligned[0] - 2.0 * u_c + aligned[1]) / step**2
    weight = np.sqrt(h_mode_multipliers(manifold.grid, 4)[1:, None])
    return sub_overlap, float(np.max(np.linalg.norm(weight * second, axis=0)))


# ---------------------------------------------------------------------------
# Hypothesis suite.
# ---------------------------------------------------------------------------


def run_hypothesis_suite(points, s_values, seed):
    """Numerical verification of the standing hypotheses over sample points.

    Covers: quasi-steady residual smallness, slow/stable dichotomy, semigroup
    decay, tangent alignment, eigenfield regularity, energy flatness,
    invariant-plane membership, normal coercivity, the scaled-nonlinearity
    and scaled-residual bounds, tangent amplification, and the symmetrized
    gap for each requested s. The spectral checks run on the first
    SPECTRAL_SUBSET points, each of which releases its context after its
    checks; the equispaced point keeps its own until the symmetrized gaps
    have read it. One `el_bounds` over all the points gives the delta0 of
    energy flatness and the last record, the trapping radius.

    Returns the records as the plain dicts that diagnostics.json holds:
    hypothesis, config_id, constant, threshold, pass, and the details that
    each check adds.
    """
    manifold = points[0].manifold
    records = []

    def add(hypothesis, config_id, constant, threshold, passed, **details):
        records.append({"hypothesis": hypothesis, "config_id": config_id,
                        "constant": float(constant),
                        "threshold": float(threshold), "pass": bool(passed),
                        "details": details})

    params = manifold.params
    delta = params.tail_scale

    # residual smallness
    c0 = 0.0
    for p in points:
        c0 = max(c0, p.residual[1] / delta)
    add("residual_smallness", -1, c0, THRESHOLDS["residual_cap_over_delta"],
        c0 <= THRESHOLDS["residual_cap_over_delta"])

    # energy flatness over the manifold sample
    el = el_bounds(points)
    add("energy_flatness", -1, el.delta0 / delta,
        THRESHOLDS["residual_cap_over_delta"],
        el.delta0 <= THRESHOLDS["residual_cap_over_delta"] * delta)

    # invariant-plane membership: pairwise mass differences
    worst_mass = 0.0
    for p in points[1:]:
        worst_mass = max(
            worst_mass,
            abs(field_mass(p.profile.phi - points[0].profile.phi, 0.0)),
        )
    add("invariant_plane", -1, worst_mass, 1e-9, worst_mass <= 1e-9)

    # the gradient-family bounds are interior statements: measure them at the
    # equispaced point, away from the admissibility boundary where the
    # ansatz's residual boundary layer dominates the strong norms
    equi = manifold.equispaced()
    base = next((p for p in points if np.array_equal(
        p.profile.config.positions, equi.positions)), None)

    # spectral checks on a subset
    for i, p in enumerate(points[:SPECTRAL_SUBSET]):
        gap = p.gap
        add("slow_stable_split", i, gap.fitted_c,
            THRESHOLDS["slow_cap_over_delta"], gap.passed,
            failures=gap.failures, stable_edge=gap.stable_edge, k_s=gap.k_s)
        align = tangent_alignment(p)
        add("tangent_alignment", i, align.max_error / delta,
            THRESHOLDS["alignment_cap_over_delta"], align.passed,
            beta_defect=align.beta_defect)
        coer = p.coercivity
        add("normal_coercivity", i, coer.mu_h2, 0.0,
            coer.passed and coer.relation_holds(),
            mu_e=coer.mu_e, gamma_e=coer.gamma_e, bound=coer.bound,
            mu_x=coer.mu_x, sigma_top=coer.sigma_top)
        if i == 0:
            ok, count, edge, block, bound = semigroup_decay_check(p)
        if p is not base:
            p.release()

    add("semigroup_decay", 0, count, manifold.n, ok, edge=edge,
        low_modes=block, symbol_bound=bound)

    overlap, hess = eigenfield_continuity(points[0])
    add("eigenfield_regularity", 0, overlap, THRESHOLDS["overlap_floor"],
        overlap >= THRESHOLDS["overlap_floor"], hessian_norm=hess)

    # gradient-family checks
    rng = np.random.default_rng(seed)
    if base is None:
        base = ProfilePoint(manifold, manifold.build(equi))
    for s in s_values:
        g, g1 = gradient_symbols(manifold.grid, s)
        rho = params.gap_rho(s)

        # probes w, as cosine coefficients, with ||w||_{H_G1} = 0.5
        probes = []
        for _ in range(3):
            coeffs = smooth_probe_coeffs(manifold.grid, rng, 4, 120, 2)
            probes.append(coeffs * (0.5 / h4_norm_from_coeffs(
                manifold.grid, g1 * coeffs)))
        rho_nl = params.gap_rho(2.0 * s)
        c_a = scaled_nonlinearity_constant(base.profile.phi, manifold.well,
                                           g1, rho_nl, probes)
        c_b = scaled_nonlinearity_constant(base.profile.phi, manifold.well,
                                           g1, 2.0 * rho_nl, probes)
        # the quadratic leading order makes c non-increasing in rho, so the
        # rho-uniform bound is witnessed at the smaller rho
        c_eh2 = max(c_a, c_b)
        add("scaled_nonlinearity", -1, c_eh2, THRESHOLDS["eh2_cap"],
            c_eh2 <= THRESHOLDS["eh2_cap"]
            and c_b <= THRESHOLDS["eh2_stability_factor"] * c_a,
            s=s, c_small_rho=c_a, c_large_rho=c_b)

        c_res = scaled_residual_constant(base.residual[0], g, rho, delta)
        add("scaled_residual", -1, c_res, THRESHOLDS["eh3_residual_cap"],
            c_res <= THRESHOLDS["eh3_residual_cap"], s=s)
        c_tan = tangent_amplification_constant(base.tangents, g1[1:], rho)
        add("tangent_amplification", -1, c_tan, THRESHOLDS["eh3_tangent_cap"],
            c_tan <= THRESHOLDS["eh3_tangent_cap"], s=s)
        if s > 0.0:
            # outside the regime the check fails with its reason, unsolved
            try:
                params.require_srn_regime(s)
            except ValidationError as err:
                add("symmetrized_gap", 0, np.nan,
                    THRESHOLDS["symmetrized_cap_over_delta_g"], False,
                    s=s, gap_delta=params.gap_delta(s), failures=[str(err)])
                continue
            sym = symmetrized_gap(base, s)
            add("symmetrized_gap", 0, sym.fitted_c,
                THRESHOLDS["symmetrized_cap_over_delta_g"], sym.passed,
                s=s, failures=sym.failures)
    base.release()

    add("trapping_radius", -1, el.eta_star, el.eta_upper, el.window_ok,
        delta0=el.delta0, delta1=el.delta1, delta2=el.delta2, mu2=el.mu2)
    return records
