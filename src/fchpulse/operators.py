"""Discrete realizations of the energy and its variations, and the symbols
of the gradient family.

All differential operators act spectrally in the Neumann cosine basis, and
the scaled-hypothesis diagnostics act on cosine coefficients. The gradient
family G = lam1^s D^{-s} is its two mode symbols, `gradient_symbols(grid, s)`:
each caller takes the array it reads, g of G or g1 of G1 = G^{1/2}.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DomainError,
    ScalarField,
    cosine_coeffs,
    cosine_synth,
    h4_norm_from_coeffs,
    mean_value,
    mode_derivative,
    mode_norms,
)


def to_modes(field):
    """Coordinates Q^T (sqrt(w) u) of a field in the weighted cosine basis Q
    of `mode_norms`; their dot product is the X inner product."""
    return mode_norms(field.grid) * cosine_coeffs(field.values)


# ---------------------------------------------------------------------------
# Energy and its variations.
# ---------------------------------------------------------------------------


def energy_terms(u_hat, values, grid, well):
    """(w1, J): w1 = u'' - W'(u) at the nodes and J(u) = int (1/2) w1^2 dz,
    from the cosine coefficients and the nodal values of u (one transform)."""
    w1 = mode_derivative(u_hat, grid.wavenumbers, 2) - well.dW(values)
    return w1, 0.5 * float(np.sum(grid.quad_weights * w1 * w1))


def gradient_values(values, f, grid, well):
    """(d^2 - W''(u)) f at the nodes, grad J for f = w1 (two transforms)."""
    return (mode_derivative(cosine_coeffs(f), grid.wavenumbers, 2)
            - well.d2W(values) * f)


def gradient_coeffs(values, w1, grid, well):
    """The cosine coefficients of grad J = (d^2 - W''(u)) w1, given w1 (two
    transforms)."""
    return (-1.0 * cosine_coeffs(w1) * grid.wavenumbers**2
            - cosine_coeffs(well.d2W(values) * w1))


def zero_mass_projection(f):
    """Pi_0 f = f - <f>: removes the domain average."""
    return ScalarField(f.grid, f.values - mean_value(f))


def second_variation_coefficients(phi, well):
    """(W''(phi), Z) at the nodes, with Z = (phi'' - W'(phi)) W'''(phi): the
    second variation at phi is (d^2 - W''(phi))^2 - Z."""
    u = phi.values
    rphi = energy_terms(cosine_coeffs(u), u, phi.grid, well)[0]
    return well.d2W(u), rphi * well.d3W(u)


def _taylor_terms(phi, v, well):
    """(w1, A v, q, a) at the nodes: the terms of the expansion of J about
    phi in v for the quartic well, from cosine coefficients. w1 = phi'' -
    W'(phi), A v = v'' - W''(phi) v, and the exact remainders q = w1(phi + v)
    - w1 - A v = -W'''(phi) v^2/2 - W'''' v^3/6 and a = W''(phi + v) -
    W''(phi) = W'''(phi) v + W'''' v^2/2."""
    grid, u, x = phi.grid, phi.values, v.values
    w1 = energy_terms(cosine_coeffs(u), u, grid, well)[0]
    d3, d4 = well.d3W(u), well.d4W(u)
    q = -0.5 * d3 * x**2 - d4 * x**3 / 6.0
    return w1, gradient_values(u, x, grid, well), q, d3 * x + 0.5 * d4 * x**2


def nonlinear_remainder(phi, v, well):
    """N_S(v) = F(phi+v) - F(phi) - L v of the zero-mass projected flow F =
    -Pi_0 grad J, for zero-mass v: the polynomial -Pi_0 [(d^2 - W''(phi)) q
    - W'''' v^2 w1 / 2 - a (A v + q)] in the terms of `_taylor_terms`. No
    difference of nearly equal flows is formed, so rounding in phi moves it
    at rounding level only."""
    w1, av, q, a = _taylor_terms(phi, v, well)
    u, x = phi.values, v.values
    grad = (gradient_values(u, q, phi.grid, well)
            - 0.5 * well.d4W(u) * x**2 * w1 - a * (av + q))
    return -zero_mass_projection(ScalarField(phi.grid, grad))


def energy_remainder(phi, v, well):
    """J(phi+v) - J(phi) - <grad J(phi), v> - <J''(phi) v, v>/2: the
    polynomial int [-W'''' v^3 w1 / 6 + (A v) q + q^2 / 2] dz in the terms of
    `_taylor_terms`, formed without cancellation."""
    w1, av, q, _ = _taylor_terms(phi, v, well)
    x = v.values
    density = -well.d4W(phi.values) * x**3 * w1 / 6.0 + av * q + 0.5 * q * q
    return float(np.sum(phi.grid.quad_weights * density))


# ---------------------------------------------------------------------------
# The H^{-s} gradient family: its mode symbols.
# ---------------------------------------------------------------------------


def gradient_symbols(grid, s):
    """(g, g1): the mode symbols k**(2s) of G = lam1^s D^{-s} and k**s of
    G1 = G^{1/2} on the N cosine modes, each 0 at mode 0 and read-only.

    D is the Neumann inverse Laplacian with eigenvalues lam_k = (L/(pi k))^2,
    so G1 multiplies mode k by (lam1/lam_k)^{s/2} = k^s: it fixes the gravest
    mode and amplifies finer ones. Constants form the kernel of every member.
    Every caller acts on cosine coefficients, and the H_G1 norm of w is the
    H^4 norm of g1 times w's coefficients (`h4_norm_from_coeffs`).
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError("gradient exponent s must lie in [0,1]")
    k = np.arange(grid.num_points, dtype=float)
    g, g1 = k ** (2.0 * s), k ** (1.0 * s)
    for m in (g, g1):
        m[0] = 0.0
        m.flags.writeable = False
    return g, g1


# ---------------------------------------------------------------------------
# Scaled-hypothesis measurement helpers. Each acts on cosine coefficients.
# ---------------------------------------------------------------------------


BAND_EDGE_KAPPA = 12.0


def band_limited_h_norm(grid, coeffs):
    """H4 norm of the cosine series with coefficients coeffs, restricted to
    physical wavenumbers kappa <= BAND_EDGE_KAPPA.

    Used by the scaled-gradient diagnostics: their symbols k^{2s} are
    unbounded, so beyond the band where the exponentially small signal lives
    they amplify double-precision sampling noise without limit. The band edge
    is fixed in physical units (about ten pulse decay rates), making the
    measurement resolution-independent.
    """
    return h4_norm_from_coeffs(
        grid, np.where(grid.wavenumbers <= BAND_EDGE_KAPPA, coeffs, 0.0))


def scaled_nonlinearity_constant(phi, well, g1, rho, probes):
    """max over probes w of rho*||G1 N_S(G1 w / rho)||_{H_G1} / ||w||_{H_G1}^2,
    each probe given by its cosine coefficients and g1 the symbol of G1.

    Norms are band-limited (see band_limited_h_norm); mode 0 of G1 is 0, so
    they see no mean.
    """
    grid = phi.grid
    worst = 0.0
    for w in probes:
        v = ScalarField(grid, cosine_synth(g1 * w) * (1.0 / rho))
        ns = cosine_coeffs(nonlinear_remainder(phi, v, well).values)
        lhs = rho * band_limited_h_norm(grid, g1 * ns)
        denom = band_limited_h_norm(grid, g1 * w) ** 2
        worst = max(worst, lhs / denom)
    return worst


def scaled_residual_constant(residual, g, rho, delta):
    """c in ||G1 R||_{H_G1} <= c rho^2 delta, band-limited; g is G's symbol."""
    return band_limited_h_norm(
        residual.grid, cosine_coeffs(residual.values) * g) / (rho**2 * delta)


def tangent_amplification_constant(tangents, g1, rho):
    """c in ||G1 t||_X <= c rho ||t||_X over the tangent columns: zero-mass
    mode coordinates, in which the X norm is the Euclidean one and g1, the
    multipliers of G1 on those modes, is diagonal."""
    ratios = (np.linalg.norm(g1[:, None] * tangents, axis=0)
              / (rho * np.linalg.norm(tangents, axis=0)))
    return float(np.max(ratios))
