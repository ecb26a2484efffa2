"""Discrete realizations of the energy, its variations, and the gradients.

All differential operators act spectrally in the Neumann cosine basis. Dense
matrices, when requested, are assembled in "weighted coordinates"
u_w = sqrt(w) * u (w the quadrature weights), where the X inner product is the
plain dot product, so X-self-adjoint operators become symmetric matrices and
plain `eigh` returns X-orthonormal eigenfields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .core import (
    DomainError,
    Grid,
    ScalarField,
    cosine_coeffs,
    cosine_synth,
    h_mode_multipliers,
    inner_product_x,
    mean_value,
    norm,
    spectral_derivative,
)

MAX_DENSE_POINTS = 2048


@lru_cache(maxsize=8)
def weighted_cosine_basis(grid):
    """Orthogonal matrix Q whose k-th column is the weighted cosine mode.

    Q = diag(sqrt(w)) E diag(1/nu_k) with E the nodal cosine evaluation matrix
    and nu_k the quadrature norms, so Q^T Q = I and any spectral multiplier m
    lifts to the symmetric weighted matrix Q diag(m) Q^T.
    """
    n = grid.num_points
    e = dct(np.eye(n), type=1, axis=0)
    e[:, 1:-1] *= 0.5
    nu = np.full(n, np.sqrt(grid.length / 2.0))
    nu[0] *= np.sqrt(2.0)
    nu[-1] *= np.sqrt(2.0)
    q = (np.sqrt(grid.quad_weights)[:, None] * e) / nu[None, :]
    return q


def dense_spectral_multiplier(grid, multipliers):
    if grid.num_points > MAX_DENSE_POINTS:
        raise DomainError(
            f"dense assembly capped at {MAX_DENSE_POINTS} points, "
            f"got {grid.num_points}"
        )
    q = weighted_cosine_basis(grid)
    return (q * np.asarray(multipliers)[None, :]) @ q.T


@lru_cache(maxsize=8)
def dense_second_derivative(grid):
    """Weighted matrix of d^2/dz^2, built once per grid and read-only."""
    mat = dense_spectral_multiplier(grid, -grid.wavenumbers**2)
    mat.flags.writeable = False
    return mat


def dense_zero_mass_projection(grid):
    c = np.sqrt(grid.quad_weights)
    c = c / np.linalg.norm(c)
    return np.eye(grid.num_points) - np.outer(c, c)


def to_weighted(field):
    return np.sqrt(field.grid.quad_weights) * field.values


def from_weighted(grid, vec):
    return ScalarField(grid, vec / np.sqrt(grid.quad_weights))


@dataclass
class LinearMap:
    """A linear operator on fields with an optional dense realization."""

    grid: Grid
    apply: object
    self_adjoint: bool = True
    dense_builder: object = None
    _dense: np.ndarray | None = field(default=None, repr=False)

    def __call__(self, fld):
        return self.apply(fld)

    def dense_weighted(self):
        """Symmetric weighted-coordinate matrix (assembled once, cached)."""
        if self._dense is None:
            if self.dense_builder is None:
                raise DomainError("this LinearMap has no dense realization")
            mat = self.dense_builder()
            if self.self_adjoint:
                mat = 0.5 * (mat + mat.T)
            self._dense = mat
        return self._dense

    def check_self_adjoint(self, rng=None, trials=4, tol=1e-10):
        rng = np.random.default_rng(0) if rng is None else rng
        n = self.grid.num_points
        kmax = min(n // 3, 200)
        scale = 0.0
        worst = 0.0
        for _ in range(trials):
            u = _random_smooth(self.grid, rng, kmax)
            v = _random_smooth(self.grid, rng, kmax)
            au_v = inner_product_x(self.apply(u), v)
            u_av = inner_product_x(u, self.apply(v))
            worst = max(worst, abs(au_v - u_av))
            scale = max(scale, abs(au_v), 1.0)
        return worst <= tol * scale, worst / scale


def _random_smooth(grid, rng, kmax):
    coeffs = np.zeros(grid.num_points)
    coeffs[: kmax + 1] = rng.standard_normal(kmax + 1) / (
        1.0 + np.arange(kmax + 1) ** 2
    )
    return ScalarField(grid, cosine_synth(coeffs))


# ---------------------------------------------------------------------------
# Energy and its variations.
# ---------------------------------------------------------------------------


def energy(u, well):
    """J(u) = int (1/2) (u'' - W'(u))^2 dz."""
    w1 = spectral_derivative(u, 2).values - well.dW(u.values)
    return 0.5 * float(np.sum(u.grid.quad_weights * w1 * w1))


def variational_derivative(u, well):
    """grad J = (d^2 - W''(u)) (u'' - W'(u)), evaluated spectrally."""
    w1 = ScalarField(u.grid, spectral_derivative(u, 2).values - well.dW(u.values))
    return ScalarField(
        u.grid, spectral_derivative(w1, 2).values - well.d2W(u.values) * w1.values
    )


def zero_mass_projection(f):
    """Pi_0 f = f - <f>: removes the domain average."""
    return ScalarField(f.grid, f.values - mean_value(f))


def flow_field(u, well, family=None):
    """F(u) = -G grad J(u); the zero-mass projected flow when family is None."""
    g = variational_derivative(u, well)
    if family is None:
        return -zero_mass_projection(g)
    return -family.apply(g, "G")


def schroedinger_map(grid, potential_values):
    """L = d^2/dz^2 - q(z) as a LinearMap (used for L_n and the local maps)."""
    pot = np.asarray(potential_values, dtype=float)

    def apply(fld):
        return ScalarField(
            grid, spectral_derivative(fld, 2).values - pot * fld.values
        )

    def builder():
        return dense_second_derivative(grid) - np.diag(pot)

    return LinearMap(grid, apply, True, builder)


def second_variation(phi, well):
    """Second variation at phi: (d^2 - W''(phi))^2 - (phi'' - W'(phi)) W'''(phi)."""
    grid = phi.grid
    w2 = well.d2W(phi.values)
    rphi = spectral_derivative(phi, 2).values - well.dW(phi.values)
    zeroth = rphi * well.d3W(phi.values)

    def apply(fld):
        av = spectral_derivative(fld, 2).values - w2 * fld.values
        av = ScalarField(grid, av)
        aav = spectral_derivative(av, 2).values - w2 * av.values
        return ScalarField(grid, aav - zeroth * fld.values)

    def builder():
        a = dense_second_derivative(grid) - np.diag(w2)
        return a @ a - np.diag(zeroth)

    return LinearMap(grid, apply, True, builder)


def linearization(phi, well):
    """Flow linearization: minus the zero-mass-constrained second variation.

    Realized with the projection on both sides, which agrees with the
    output-only form on zero-mass inputs (the flow's invariant class) and
    annihilates constants exactly.
    """
    sv = second_variation(phi, well)
    grid = phi.grid

    def apply(fld):
        return -zero_mass_projection(sv.apply(zero_mass_projection(fld)))

    def builder():
        p0 = dense_zero_mass_projection(grid)
        return -(p0 @ sv.dense_weighted() @ p0)

    return LinearMap(grid, apply, True, builder)


def nonlinear_remainder(phi, v, well):
    """N_S(v) = F(phi+v) - F(phi) - L v for the zero-mass projected flow."""
    lin = linearization(phi, well)
    fv = flow_field(phi + v, well)
    f0 = flow_field(phi, well)
    return ScalarField(phi.grid, fv.values - f0.values - lin.apply(v).values)


# ---------------------------------------------------------------------------
# The H^{-s} gradient family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientFamily:
    """Spectral family G = lam1^s D^{-s}, G1 = G^{1/2} on the cosine modes.

    D is the Neumann inverse Laplacian with eigenvalues lam_k = (L/(pi k))^2,
    so G1 multiplies mode k by (lam1/lam_k)^{s/2} = k^s: it fixes the gravest
    mode and amplifies finer ones. Constants form the kernel of every member.
    """

    grid: Grid
    s: float

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise DomainError("gradient exponent s must lie in [0,1]")

    def eigenvalue_d(self, k):
        k = np.asarray(k, dtype=float)
        return (self.grid.length / (np.pi * k)) ** 2

    def multipliers(self, which):
        k = np.arange(self.grid.num_points, dtype=float)
        k[0] = 1.0  # placeholder; mode 0 handled below
        table = {
            "G": k ** (2.0 * self.s),
            "G1": k**self.s,
            "G1_inv": k ** (-self.s),
            "G_inv": k ** (-2.0 * self.s),
        }
        if which not in table:
            raise DomainError(f"unknown gradient direction {which!r}")
        m = table[which]
        m[0] = 0.0
        return m

    def apply(self, fld, which="G"):
        coeffs = cosine_coeffs(fld.values)
        if which in ("G1_inv", "G_inv"):
            scale = 1.0 + float(np.max(np.abs(fld.values)))
            if abs(coeffs[0]) > 1e-8 * scale:
                raise DomainError(
                    f"{which} requires a zero-mass field, mean = {coeffs[0]:.3e}"
                )
        out = coeffs * self.multipliers(which)
        return ScalarField(fld.grid, cosine_synth(out))

    def linear_map(self, which="G"):
        mult = self.multipliers(which)
        return LinearMap(
            self.grid,
            lambda fld: self.apply(fld, which),
            True,
            lambda: dense_spectral_multiplier(self.grid, mult),
        )

    def h_norm(self, fld):
        """The norm ||w||_{H_G1} = ||G1 w||_{H^4}."""
        return norm(self.apply(fld, "G1"), "h4")


# ---------------------------------------------------------------------------
# Operator bundle for one manifold point.
# ---------------------------------------------------------------------------


@dataclass
class OperatorBundle:
    """Second variation, flow linearization, superposition operator L_n, and
    the gradient family, all sharing one grid and one cosine basis."""

    grid: Grid
    well: object
    phi: ScalarField
    u_n: ScalarField
    family: GradientFamily
    second_variation: LinearMap
    linearization: LinearMap
    l_n: LinearMap

    @classmethod
    def from_ansatz(cls, ansatz, well, family):
        phi = ansatz.phi
        return cls(
            grid=phi.grid,
            well=well,
            phi=phi,
            u_n=ansatz.u_n,
            family=family,
            second_variation=second_variation(phi, well),
            linearization=linearization(phi, well),
            l_n=schroedinger_map(phi.grid, well.d2W(ansatz.u_n.values)),
        )

    def n_pulse_residual(self):
        """R_n = u_n'' - W'(u_n)."""
        return ScalarField(
            self.grid,
            spectral_derivative(self.u_n, 2).values - self.well.dW(self.u_n.values),
        )


# ---------------------------------------------------------------------------
# Scaled-hypothesis measurement helpers.
# ---------------------------------------------------------------------------


BAND_EDGE_KAPPA = 12.0


def band_limited_h_norm(field, multipliers=None, kappa_cut=BAND_EDGE_KAPPA,
                        max_order=4):
    """Sobolev norm restricted to physical wavenumbers kappa <= kappa_cut.

    Used by the scaled-gradient diagnostics: their symbols k^{2s} are
    unbounded, so beyond the band where the exponentially small signal lives
    they amplify double-precision sampling noise without limit. The band edge
    is fixed in physical units (about ten pulse decay rates), making the
    measurement resolution-independent.
    """
    from .core import cosine_coeffs as _coeffs

    grid = field.grid
    a = _coeffs(field.values)
    if multipliers is not None:
        a = a * multipliers
    kappa = grid.wavenumbers
    keep = kappa <= kappa_cut
    weights = np.full(grid.num_points, grid.length / 2.0)
    weights[0] = grid.length
    weights[-1] = grid.length
    m = h_mode_multipliers(grid, max_order)
    total = np.sum((a[keep] ** 2) * m[keep] * weights[keep])
    return float(np.sqrt(max(total, 0.0)))


def scaled_nonlinearity_constant(phi, well, family, rho, probes):
    """max over probes w of rho*||G1 N_S(G1 w / rho)||_{H_G1} / ||w||_{H_G1}^2.

    Norms are band-limited (see band_limited_h_norm).
    """
    g1 = family.multipliers("G1")
    worst = 0.0
    for w in probes:
        v = family.apply(w, "G1") * (1.0 / rho)
        ns = nonlinear_remainder(phi, v, well)
        lhs = rho * band_limited_h_norm(zero_mass_projection(ns), g1)
        denom = band_limited_h_norm(zero_mass_projection(w), g1) ** 2
        worst = max(worst, lhs / denom)
    return worst


def scaled_residual_constant(residual, family, rho, delta):
    """c in ||G1 R||_{H_G1} <= c rho^2 delta, band-limited."""
    mult = family.multipliers("G")
    return band_limited_h_norm(residual, mult) / (rho**2 * delta)


def tangent_amplification_constant(tangents, family, rho):
    """c in ||G1 t||_X <= c rho ||t||_X over the tangent fields."""
    worst = 0.0
    for t in tangents:
        t0 = zero_mass_projection(t)
        worst = max(
            worst, norm(family.apply(t0, "G1"), "l2") / (rho * norm(t0, "l2"))
        )
    return worst


# ---------------------------------------------------------------------------
# Dense-matrix dump (offline eigensolver cross-checks).
# ---------------------------------------------------------------------------

_DUMP_MAGIC = b"FPDENSE1"


def dump_dense(matrix, path):
    """Binary row-major dump: magic, int64 N, 8-byte dtype tag, payload."""
    mat = np.ascontiguousarray(matrix, dtype="<f8")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("dense dump expects a square matrix")
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<q", mat.shape[0]))
        fh.write(b"<f8".ljust(8))
        fh.write(mat.tobytes(order="C"))


def load_dense(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _DUMP_MAGIC:
            raise DomainError("not a dense-matrix dump")
        (n,) = struct.unpack("<q", fh.read(8))
        tag = fh.read(8).rstrip()
        if tag != b"<f8":
            raise DomainError(f"unsupported dtype tag {tag!r}")
        data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
    return data.reshape(n, n).copy()
