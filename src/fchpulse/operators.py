"""Discrete realizations of the energy, its variations, and the gradients.

All differential operators act spectrally in the Neumann cosine basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError,
    Grid,
    ScalarField,
    cosine_coeffs,
    cosine_synth,
    h_mode_multipliers,
    mean_value,
    mode_norms,
    norm,
    parseval_weights,
    spectral_derivative,
)


def to_modes(field):
    """Coordinates Q^T (sqrt(w) u) of a field in the weighted cosine basis Q
    of `mode_norms`; their dot product is the X inner product."""
    return mode_norms(field.grid) * cosine_coeffs(field.values)


def from_modes(grid, vec):
    """The field whose weighted cosine coordinates are vec."""
    return ScalarField(grid, cosine_synth(vec / mode_norms(grid)))


# ---------------------------------------------------------------------------
# Energy and its variations.
# ---------------------------------------------------------------------------


def energy_terms(u_hat, values, grid, well):
    """(w1, J): w1 = u'' - W'(u) at the nodes and J(u) = int (1/2) w1^2 dz,
    from the cosine coefficients and the nodal values of u (one transform)."""
    w1 = cosine_synth(-1.0 * u_hat * grid.wavenumbers**2) - well.dW(values)
    return w1, 0.5 * float(np.sum(grid.quad_weights * w1 * w1))


def gradient_values(values, w1, grid, well):
    """grad J = (d^2 - W''(u)) w1 at the nodes, given w1 (two transforms)."""
    return (cosine_synth(-1.0 * cosine_coeffs(w1) * grid.wavenumbers**2)
            - well.d2W(values) * w1)


def gradient_coeffs(values, w1, grid, well):
    """The cosine coefficients of grad J = (d^2 - W''(u)) w1, given w1 (two
    transforms)."""
    return (-1.0 * cosine_coeffs(w1) * grid.wavenumbers**2
            - cosine_coeffs(well.d2W(values) * w1))


def energy(u, well):
    """J(u) = int (1/2) (u'' - W'(u))^2 dz."""
    return energy_terms(cosine_coeffs(u.values), u.values, u.grid, well)[1]


def variational_derivative(u, well):
    """grad J = (d^2 - W''(u)) (u'' - W'(u)), evaluated spectrally."""
    w1 = energy_terms(cosine_coeffs(u.values), u.values, u.grid, well)[0]
    return ScalarField(u.grid, gradient_values(u.values, w1, u.grid, well))


def zero_mass_projection(f):
    """Pi_0 f = f - <f>: removes the domain average."""
    return ScalarField(f.grid, f.values - mean_value(f))


def flow_field(u, well):
    """F(u) = -Pi_0 grad J(u), the zero-mass projected flow."""
    return -zero_mass_projection(variational_derivative(u, well))


def second_variation_coefficients(phi, well):
    """(W''(phi), Z) at the nodes, with Z = (phi'' - W'(phi)) W'''(phi): the
    second variation at phi is (d^2 - W''(phi))^2 - Z."""
    rphi = spectral_derivative(phi, 2).values - well.dW(phi.values)
    return well.d2W(phi.values), rphi * well.d3W(phi.values)


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


def linearization(phi, well):
    """Flow linearization: minus the zero-mass-constrained second variation.

    Realized with the projection on both sides, which agrees with the
    output-only form on zero-mass inputs (the flow's invariant class) and
    annihilates constants exactly. Returned, like `second_variation`, as a
    function from fields to fields.
    """
    sv = second_variation(phi, well)

    def apply(fld):
        return -zero_mass_projection(sv(zero_mass_projection(fld)))

    return apply


def nonlinear_remainder(phi, v, well):
    """N_S(v) = F(phi+v) - F(phi) - L v for the zero-mass projected flow."""
    lin = linearization(phi, well)
    fv = flow_field(phi + v, well)
    f0 = flow_field(phi, well)
    return ScalarField(phi.grid, fv.values - f0.values - lin(v).values)


# ---------------------------------------------------------------------------
# The H^{-s} gradient family.
# ---------------------------------------------------------------------------


MULTIPLIER_POWERS = {"G": 2.0, "G1": 1.0, "G1_inv": -1.0, "G_inv": -2.0}


@dataclass(frozen=True)
class GradientFamily:
    """Spectral family G = lam1^s D^{-s}, G1 = G^{1/2} on the cosine modes.

    D is the Neumann inverse Laplacian with eigenvalues lam_k = (L/(pi k))^2,
    so G1 multiplies mode k by (lam1/lam_k)^{s/2} = k^s: it fixes the gravest
    mode and amplifies finer ones. Constants form the kernel of every member.
    """

    grid: Grid
    s: float
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise DomainError("gradient exponent s must lie in [0,1]")

    def multipliers(self, which):
        """The mode multipliers of G, G1, G1_inv or G_inv: k**(p s) with p
        = 2, 1, -1, -2, and 0 at mode 0. Each is built on first use and kept
        as one read-only array per family and direction."""
        if which not in self._tables:
            if which not in MULTIPLIER_POWERS:
                raise DomainError(f"unknown gradient direction {which!r}")
            k = np.arange(self.grid.num_points, dtype=float)
            k[0] = 1.0  # placeholder; mode 0 handled below
            m = k ** (MULTIPLIER_POWERS[which] * self.s)
            m[0] = 0.0
            m.flags.writeable = False
            self._tables[which] = m
        return self._tables[which]

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

    def h_norm(self, fld):
        """The norm ||w||_{H_G1} = ||G1 w||_{H^4}."""
        return norm(self.apply(fld, "G1"), "h4")


# ---------------------------------------------------------------------------
# Scaled-hypothesis measurement helpers.
# ---------------------------------------------------------------------------


BAND_EDGE_KAPPA = 12.0


def band_limited_h_norm(field, multipliers):
    """H4 norm of the field with its cosine modes scaled by multipliers,
    restricted to physical wavenumbers kappa <= BAND_EDGE_KAPPA.

    Used by the scaled-gradient diagnostics: their symbols k^{2s} are
    unbounded, so beyond the band where the exponentially small signal lives
    they amplify double-precision sampling noise without limit. The band edge
    is fixed in physical units (about ten pulse decay rates), making the
    measurement resolution-independent.
    """
    grid = field.grid
    a = cosine_coeffs(field.values) * multipliers
    keep = grid.wavenumbers <= BAND_EDGE_KAPPA
    weights = parseval_weights(grid)
    m = h_mode_multipliers(grid, 4)
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
