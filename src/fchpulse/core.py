"""Problem parameters, collocation grid, scalar fields, and the norm family.

Everything lives on the inner-variable interval [0, L] with L = d/epsilon.
Fields are sampled on uniform collocation nodes of the Neumann cosine basis
cos(k*pi*z/L); quadrature uses trapezoid weights, which are exact for that
basis, so transforms and inner products are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, dst
from scipy.linalg import toeplitz


class FchError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(FchError):
    """Field contains non-finite values."""


class GridMismatchError(FchError):
    """Binary field operation on fields with different grids."""


class DomainError(FchError):
    """Input outside an operator's domain (e.g. nonzero mass)."""


class AdmissibilityError(FchError):
    """Pulse configuration violates the admissible spacing rules."""


class MassSplitError(FchError):
    """Total mass cannot be split as n*M_h + M1 with M1 in (0, M_h)."""


class WellError(FchError):
    """Double well violates a standing assumption."""


class NoHomoclinicError(FchError):
    """The well admits no homoclinic connection to b_minus."""


class ToleranceError(FchError):
    """A solver failed to reach its requested tolerance."""


class RefinementError(FchError):
    """Boundary/mass closure could not be verified after refinement."""


class ChecksumError(FchError):
    """Checkpoint data do not match the sha256 digest its header records."""


class ExtractionError(FchError):
    """Pulse-position extraction found the wrong number of maxima."""

    def __init__(self, message, found=None):
        super().__init__(message)
        self.found = found


class StiffnessError(FchError):
    """Time step underflowed while seeking an energy-decreasing step."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ConfigError(FchError):
    """Malformed experiment configuration."""


class ValidationError(FchError):
    """Configuration violates a parameter invariant."""


@dataclass(frozen=True)
class SystemParams:
    """Scalar problem constants, validated once at construction.

    tail_scale is always derived as exp(-sqrt(alpha_minus)*min_spacing); it is
    the exponentially small pulse tail coupling that controls every smallness
    bound downstream. It is never set independently.
    """

    epsilon: float
    domain_d: float
    n_pulses: int
    total_mass: float
    min_spacing: float
    alpha_minus: float
    tail_scale: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.domain_d <= 0.0:
            raise ValidationError("domain_d must be positive")
        if self.n_pulses < 1:
            raise ValidationError("n_pulses must be >= 1")
        if self.min_spacing <= 0.0:
            raise ValidationError("min_spacing must be positive")
        if self.alpha_minus <= 0.0:
            raise ValidationError("alpha_minus must be positive")
        if self.domain_length < (self.n_pulses + 1) * self.min_spacing:
            raise ValidationError(
                "admissible set empty: d/epsilon = "
                f"{self.domain_length:g} < (n+1)*ell = "
                f"{(self.n_pulses + 1) * self.min_spacing:g}"
            )
        delta = float(np.exp(-np.sqrt(self.alpha_minus) * self.min_spacing))
        object.__setattr__(self, "tail_scale", delta)

    @property
    def domain_length(self):
        """Inner-variable domain length L = d/epsilon."""
        return self.domain_d / self.epsilon

    def gap_rho(self, s):
        """Scaling epsilon**(-s) used by the symmetrized-gap diagnostics."""
        return float(self.epsilon ** (-s))

    def gap_delta(self, s):
        """Rescaled smallness tail_scale * gap_rho**3 of the symmetrized flow."""
        return self.tail_scale * self.gap_rho(s) ** 3

    def require_srn_regime(self, s):
        dg = self.gap_delta(s)
        if dg >= 1.0:
            raise ValidationError(
                f"symmetrized-gap diagnostics need tail_scale*rho^3 < 1, got {dg:g}"
            )
        return dg


@dataclass(frozen=True)
class Grid:
    """Uniform collocation nodes z_j = j*h on [0, length], h = length/(N-1)."""

    length: float
    num_points: int
    h_max: float = 0.1

    def __post_init__(self):
        if self.num_points < 16:
            raise ValidationError("grid needs at least 16 points")
        if self.spacing > self.h_max:
            raise ValidationError(
                f"grid spacing {self.spacing:g} exceeds h_max {self.h_max:g}"
            )

    @property
    def spacing(self):
        return self.length / (self.num_points - 1)

    @cached_property
    def nodes(self):
        return np.linspace(0.0, self.length, self.num_points)

    @cached_property
    def quad_weights(self):
        """Trapezoid weights; exact for the cosine collocation basis."""
        w = np.full(self.num_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def wavenumbers(self):
        """Physical wavenumbers kappa_k = k*pi/length of the cosine modes."""
        return np.arange(self.num_points) * np.pi / self.length


@dataclass(frozen=True)
class ScalarField:
    """Samples of a scalar function on a Grid. Immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.num_points,):
            raise InvalidFieldError(
                f"field has {vals.shape} values for a {self.grid.num_points}-point grid"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidFieldError("field contains non-finite values")

    def _check_same_grid(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other):
        if isinstance(other, ScalarField):
            self._check_same_grid(other)
            return ScalarField(self.grid, self.values + other.values)
        return ScalarField(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            self._check_same_grid(other)
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - other)

    def __rsub__(self, other):
        return ScalarField(self.grid, other - self.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            self._check_same_grid(other)
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


# ---------------------------------------------------------------------------
# Cosine-basis transforms. Coefficients a_k satisfy
#   u(z_j) = sum_{k=0}^{N-1} a_k cos(k*pi*z_j/L)
# exactly at the collocation nodes (DCT-I). The transforms and mode_derivative
# act along axis 0, so a 2-D array is a stack of fields or coefficient vectors.
# ---------------------------------------------------------------------------


def cosine_coeffs(values):
    n = len(values)
    a = dct(values, type=1, axis=0) / (n - 1)
    a[0] *= 0.5
    a[-1] *= 0.5
    return a


def cosine_synth(coeffs):
    y = np.asarray(coeffs, dtype=float).copy()
    y[1:-1] *= 0.5
    return dct(y, type=1, axis=0)


def sine_synth(coeffs):
    """Evaluate sum_{k=1}^{N-2} b_k sin(k*pi*z_j/L) at the nodes."""
    b = np.asarray(coeffs, dtype=float)
    out = np.zeros(b.shape)
    if len(b) > 2:
        out[1:-1] = 0.5 * dst(b[1:-1], type=1, axis=0)
    return out


def mode_norms(grid):
    """Quadrature norms nu_k of cos(kappa_k z): the weighted cosine basis
    Q = diag(sqrt(w)) [cos(kappa_k z_j)] diag(1/nu) is orthogonal."""
    nu = np.full(grid.num_points, np.sqrt(grid.length / 2.0))
    nu[0] *= np.sqrt(2.0)
    nu[-1] *= np.sqrt(2.0)
    return nu


def parseval_weights(grid):
    """Quadrature squares of the cosine modes: L/2, with L at mode 0 and at
    the last mode, so that <u, u>_X = sum_k weights_k a_k^2 (Parseval)."""
    weights = np.full(grid.num_points, grid.length / 2.0)
    weights[0] = grid.length
    weights[-1] = grid.length
    return weights


def mode_matrix(grid, f, start=0, step=1):
    """Q^T diag(f) Q on the modes start, start + step, ... in O(N^2).

    With g(m) = sum_j w_j f_j cos(m pi z_j / L), one DCT-I of w*f, the entry
    of modes j, k is (g(|j - k|) + g(j + k)) / (2 nu_j nu_k): Toeplitz plus
    Hankel, and g(m) = g(2N - 2 - m) past N - 1. The Hankel part is added
    from a strided view of its generating vector, so the result is the only
    N^2 array made.
    """
    x = grid.quad_weights * np.asarray(f, dtype=float)
    x[[0, -1]] *= 2.0
    g = 0.5 * dct(x, type=1)
    g = np.concatenate([g, g[-2::-1]])
    modes = np.arange(start, grid.num_points, step)
    m = modes.size
    h = g[2 * start :: step][: 2 * m - 1]
    out = toeplitz(g[::step][:m])
    out += sliding_window_view(h, m)
    s = 1.0 / (np.sqrt(2.0) * mode_norms(grid)[modes])
    out *= s[:, None]
    out *= s[None, :]
    return out


def mode_derivative(coeffs, kappa, order):
    """Nodal values of d^order/dz^order of the cosine series with coefficients
    coeffs and wavenumbers kappa; odd orders are sine series."""
    kappa = np.reshape(kappa, (-1,) + (1,) * (np.ndim(coeffs) - 1))
    if order % 2 == 0:
        sign = (-1.0) ** (order // 2)
        return cosine_synth(sign * coeffs * kappa**order)
    sign = (-1.0) ** ((order + 1) // 2)
    return sine_synth(sign * coeffs * kappa**order)


# ---------------------------------------------------------------------------
# Norms and inner products.
# ---------------------------------------------------------------------------


def inner_product_x(u, v):
    """Quadrature approximation of the L2 pairing on [0, L]."""
    if u.grid != v.grid:
        raise GridMismatchError("inner product needs a shared grid")
    return float(np.sum(u.grid.quad_weights * u.values * v.values))


def integral(field):
    return float(np.sum(field.grid.quad_weights * field.values))


def mean_value(field):
    return integral(field) / field.grid.length


def norm(field, kind="l2"):
    """Norm family: 'l2' or 'h4' (orders 0..4). The H_G1 norm of a gradient
    family is the H4 norm of G1's multipliers times the cosine coefficients
    (`h4_norm_from_coeffs`)."""
    if not np.all(np.isfinite(field.values)):
        raise InvalidFieldError("field contains non-finite values")
    kind = kind.lower()
    if kind == "l2":
        return float(np.sqrt(max(inner_product_x(field, field), 0.0)))
    if kind == "h4":
        return h4_norm_from_coeffs(field.grid, cosine_coeffs(field.values))
    raise DomainError(f"unknown norm kind {kind!r}")


def h4_norm_from_coeffs(grid, coeffs):
    """H^4 norm of the cosine series with coefficients coeffs, by Parseval:
    sqrt(sum_k parseval_weights_k h_mode_multipliers_k a_k^2)."""
    weights = parseval_weights(grid) * h_mode_multipliers(grid, 4)
    return float(np.sqrt(np.sum(weights * coeffs**2)))


def smooth_probe_coeffs(grid, rng, divisor, cap, power):
    """Cosine coefficients of a random smooth zero-mass probe: mode k of
    1..min(N // divisor, cap) is a standard normal draw of rng over
    1 + k**power, and every other mode is 0."""
    coeffs = np.zeros(grid.num_points)
    kmax = min(grid.num_points // divisor, cap)
    coeffs[1 : kmax + 1] = rng.standard_normal(kmax) / (
        1.0 + np.arange(1, kmax + 1) ** power
    )
    return coeffs


def h_mode_multipliers(grid, max_order=4):
    """Diagonal Parseval weights sum_m kappa_k**(2m) of the Sobolev Gram."""
    kappa2 = grid.wavenumbers**2
    total = np.ones_like(kappa2)
    powers = np.ones_like(kappa2)
    for _ in range(max_order):
        powers = powers * kappa2
        total = total + powers
    return total
