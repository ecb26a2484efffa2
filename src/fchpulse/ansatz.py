"""Construction of the quasi-steady n-pulse manifold.

A manifold point is assembled as
    Phi(z; p) = u_n(z; p) + lambda * B_{2,n}(z; p) + E(z; p),
where u_n superposes pulse translates over the background state b_minus,
lambda * B_{2,n} carries the excess mass M1 = M - n*M_h, and E is the
boundary correction built from shadow-pulse tails,
    E(z) = A e^{-rz} (a0 + b0 z) + A e^{r(z-L)} (a1 + b1 (z-L)),
with A = phi_max and r = sqrt(alpha_minus). Written in the signed
coefficients (a0, b0, a1, b1), the four no-flux boundary conditions and the
discrete mass constraint are linear in (a0, b0, a1, b1, lambda), so one
direct solve closes the manifold. Because the closure is linear, the tangents
dPhi/dp_i are exact: the derivative of the translates plus one more solve
with the same fixed edge matrix and the mass equation, with no rebuild.

Smallness measurements in the H^4 norm are assembled from analytic component
derivatives (chain rule through the pulse first integral, termwise series
for the backgrounds, closed forms for E): spectral differentiation of sampled
fields would amplify interpolation round-off by kappa_max^4 and bury the
exponentially small quantities being measured. Every pulse and background
translate is read through one kernel, `PulseManifold._translates`, which
evaluates each translate once for every order it is asked for; grid nodes
lie on a lattice, so every background translate is read from one table of
lattice phases per manifold. A profile is built, measured (residual and
energy from one order-8 stack) and given its tangents with three
evaluations of each translate, and keeps none of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .core import (
    AdmissibilityError,
    MassSplitError,
    RefinementError,
    ScalarField,
    integral,
)
from .wellmodel import leibniz, well_jet

BC_TOL = 1e-8
MASS_RTOL = 1e-10


def latin_hypercube(count, dim, seed):
    """(count, dim) Latin-hypercube sample of [0, 1)^dim.

    The base algorithm of scipy's `qmc.LatinHypercube(d=dim, seed=seed)`,
    draw for draw, so the sample equals its `random(count)` bit for bit
    without importing scipy.stats: one uniform jitter per cell, then one
    shuffle of the strata 1..count per dimension.
    """
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(count, dim))
    perms = np.tile(np.arange(1, count + 1), (dim, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - jitter) / count


def mirror_gaps(p, length):
    """The n + 1 gaps of the increasing positions p on [0, length] with the
    mirror shadow pulses -p_1 and 2 length - p_n: 2 p_1, the interior gaps,
    and (2 length - p_n) - p_n."""
    return np.diff(np.concatenate([[-p[0]], p, [2.0 * length - p[-1]]]))


@dataclass(frozen=True)
class PulseConfiguration:
    """Ordered pulse centers with the admissibility rules baked in.

    The boundary gaps are measured against the mirror shadow pulses
    p_0 = -p_1 and p_{n+1} = 2L - p_n, so admissibility reads
    min(2 p_1, p_2-p_1, ..., 2(L - p_n)) >= ell.
    """

    positions: np.ndarray
    min_spacing: float
    domain_length: float

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "positions", p)
        if p.ndim != 1 or p.size < 1:
            raise AdmissibilityError("need at least one pulse position")
        if np.any(np.diff(p) <= 0.0):
            raise AdmissibilityError("pulse positions must be strictly increasing")
        if p[0] <= 0.0 or p[-1] >= self.domain_length:
            raise AdmissibilityError("pulse positions must lie inside (0, L)")
        if self.min_gap < self.min_spacing - 1e-12:
            raise AdmissibilityError(
                f"minimum gap {self.min_gap:.6g} below spacing floor "
                f"{self.min_spacing:g}"
            )

    @property
    def n(self):
        return self.positions.size

    @property
    def min_gap(self):
        return float(np.min(mirror_gaps(self.positions, self.domain_length)))

    def shifted(self, i, delta):
        q = self.positions.copy()
        q[i] += delta
        return PulseConfiguration(q, self.min_spacing, self.domain_length)


@dataclass(frozen=True)
class InternalParams:
    """Signed edge coefficients, the mass multiplier and its leading-order
    seed, and the norm of the five closure residuals after the solve.

    rate and length are r = sqrt(alpha_minus) and L, from which the
    shadow-pulse locations of the tail form follow.
    """

    a0: float
    b0: float
    a1: float
    b1: float
    lam: float
    lam_seed: float
    residual: float
    rate: float
    length: float

    def as_dict(self):
        return asdict(self)

    @property
    def coefficients(self):
        return np.array([self.a0, self.b0, self.a1, self.b1])


@dataclass(frozen=True)
class AnsatzProfile:
    """A manifold point with its components and closure diagnostics."""

    config: PulseConfiguration
    internal: InternalParams
    phi: ScalarField
    u_n: ScalarField
    mass_correction: ScalarField
    boundary_correction: ScalarField
    mass_value: float
    bc_residuals: np.ndarray


def mass(field, b_minus):
    """Scaled mass: quadrature of (field - b_minus)."""
    return integral(field) - b_minus * field.grid.length


def h4_norm_from_stack(grid, stack):
    """H^4 norm from exact derivative samples (orders 0..4)."""
    w = grid.quad_weights
    total = 0.0
    for m in range(5):
        total += float(np.sum(w * stack[m] ** 2))
    return float(np.sqrt(max(total, 0.0)))


class PulseManifold:
    """Factory for manifold points sharing one well, one pulse, one grid."""

    def __init__(self, well, pulse, bg2, params, grid):
        self.well = well
        self.pulse = pulse
        self.bg2 = bg2
        self.params = params
        self.grid = grid
        self.n = params.n_pulses
        self.sqrt_am = float(np.sqrt(well.alpha_minus))
        self.mass_excess = params.total_mass - self.n * pulse.mass_h
        if not 0.0 < self.mass_excess < pulse.mass_h:
            raise MassSplitError(
                f"total mass must split as n*M_h + M1 with M1 in (0, M_h); "
                f"got M1 = {self.mass_excess:.6g}, M_h = {pulse.mass_h:.6g}"
            )
        if abs(grid.length - params.domain_length) > 1e-9 * params.domain_length:
            raise AdmissibilityError("grid length differs from d/epsilon")

    # -- configuration helpers ------------------------------------------------

    def configuration(self, positions):
        positions = np.asarray(positions, dtype=float)
        if positions.size != self.n:
            raise AdmissibilityError(
                f"need {self.n} pulse positions, got {positions.size}")
        return PulseConfiguration(
            positions,
            self.params.min_spacing,
            self.params.domain_length,
        )

    def equispaced(self):
        length = self.params.domain_length
        idx = np.arange(1, self.n + 1)
        return self.configuration((2.0 * idx - 1.0) * length / (2.0 * self.n))

    def sample_configurations(self, count, seed, include_equispaced=True):
        """Latin-hypercube sample of the admissible set plus the equispaced point."""
        length = self.params.domain_length
        ell = self.params.min_spacing
        budget = length - self.n * ell
        raw = latin_hypercube(count, self.n + 1, seed)
        configs = []
        margin = 1e-3
        for row in raw:
            extra = row * budget / (self.n + 1)
            p = np.empty(self.n)
            p[0] = 0.5 * ell + 0.5 * extra[0] + margin
            for i in range(1, self.n):
                p[i] = p[i - 1] + ell + extra[i] + margin
            configs.append(self.configuration(p))
        if include_equispaced:
            configs.append(self.equispaced())
        return configs

    # -- component evaluation --------------------------------------------------

    def lambda_seed(self):
        """Leading-order mass multiplier M1 / (L*B_{2,inf} + n*M_bar)."""
        denom = (
            self.params.domain_length * self.bg2.b_inf + self.n * self.bg2.mass_bar
        )
        return self.mass_excess / denom

    @cached_property
    def _bg_table(self):
        """Lattice phases of B_bar_2 on this grid, built on first use."""
        return self.bg2.lattice_table(self.grid.spacing)

    def _translates(self, config, nodes, max_order):
        """Rows m = 0..max_order of each phi_bar(z - p_j) and each
        B_bar_2(z - p_j) at the grid nodes of index `nodes`: two arrays of
        shape (n, max_order + 1, nodes.size), translate j in row j.

        The pulse translates are one pulse_jet call on the (n, size) offsets;
        each background translate reads its own lattice phase. Callers add
        the translates in pulse order.
        """
        offsets = self.grid.nodes[nodes][None, :] - config.positions[:, None]
        pulses = self.pulse.pulse_jet(offsets, max_order).swapaxes(0, 1)
        bgs = np.stack([
            self.bg2.lattice_jet(self._bg_table, nodes, p, max_order)
            for p in config.positions
        ])
        return pulses, bgs

    # -- boundary correction and closure ----------------------------------------

    def _edge_jet(self, z, max_order):
        """Rows m = 0..max_order of the four edge functions A e^{-rz},
        A z e^{-rz}, A e^{r(z-L)}, A (z-L) e^{r(z-L)}: shape
        (max_order + 1, 4, z.size), from one exponential per side."""
        rate, length = self.sqrt_am, self.params.domain_length
        out = np.empty((max_order + 1, 4, z.size))
        for col, (s, y) in enumerate(((-rate, z), (rate, z - length))):
            ex = self.pulse.phi_max * np.exp(s * y)
            for m in range(max_order + 1):
                out[m, 2 * col] = s**m * ex
                out[m, 2 * col + 1] = (s**m * y + m * s ** (m - 1)) * ex
        return out

    def _edge_sum(self, z, internal, max_order=0):
        """Rows m = 0..max_order of the boundary correction E."""
        return internal.coefficients @ self._edge_jet(z, max_order)

    @cached_property
    def _edge_system(self):
        """The closure's fixed part: the 4x4 matrix of the edge functions'
        orders 1 and 3 at z = 0, L (rows Phi_z(0), Phi_zzz(0), Phi_z(L),
        Phi_zzz(L)) and the four edge-function masses."""
        ends = np.array([0.0, self.params.domain_length])
        matrix = self._edge_jet(ends, 3)[[1, 3]].transpose(2, 0, 1).reshape(4, 4)
        masses = self._edge_jet(self.grid.nodes, 0)[0] @ self.grid.quad_weights
        return matrix, masses

    # -- assembly ---------------------------------------------------------------

    def build(self, config):
        """Assemble Phi, close it by one direct solve, verify the invariants.

        The no-flux conditions read T @ (1, lambda) + K @ c = 0 with T the
        end terms (Phi_z(0), Phi_zzz(0), Phi_z(L), Phi_zzz(L)) of u_n and
        B_{2,n} and K the edge matrix, so the solve of K against both columns
        of -T gives c = c_u + lambda * c_B, and lambda follows from the scalar
        mass equation.
        """
        z, w = self.grid.nodes, self.grid.quad_weights
        last = self.grid.num_points - 1
        pulses, bgs = self._translates(config, np.arange(last + 1), 0)
        u_n = sum(pulses[:, 0], self.well.b_minus)
        bg = sum(bgs[:, 0]) + self.bg2.b_inf
        ends = self._translates(config, np.array([0, last]), 3)
        terms = np.stack([sum(rows)[[1, 3]].T.ravel() for rows in ends], axis=1)

        total_mass = self.params.total_mass
        mass_pulse = float(np.sum(w * (u_n - self.well.b_minus)))
        mass_bg = float(np.sum(w * bg))
        matrix, masses = self._edge_system
        c_u, c_bg = np.linalg.solve(matrix, -terms).T
        lam = (total_mass - mass_pulse - masses @ c_u) / (
            mass_bg + masses @ c_bg
        )
        coef = c_u + lam * c_bg
        # the no-flux residuals, K c taken as the end derivatives of E
        edge = self._edge_jet(np.array([0.0, self.params.domain_length]), 3)
        bc = terms @ (1.0, lam) + (coef @ edge[[1, 3]]).T.ravel()
        residual = np.append(
            bc, mass_pulse + lam * mass_bg + masses @ coef - total_mass)
        internal = InternalParams(
            *map(float, coef),
            lam=float(lam),
            lam_seed=float(self.lambda_seed()),
            residual=float(np.linalg.norm(residual)),
            rate=self.sqrt_am,
            length=self.params.domain_length,
        )
        e_vals = self._edge_sum(z, internal)[0]
        phi = ScalarField(self.grid, u_n + internal.lam * bg + e_vals)
        mass_value = mass(phi, self.well.b_minus)

        if np.max(np.abs(bc)) > BC_TOL:
            raise RefinementError(
                f"boundary residuals {np.max(np.abs(bc)):.2e} exceed {BC_TOL:g} "
                f"(closure residual {internal.residual:.2e})"
            )
        if abs(mass_value - total_mass) > MASS_RTOL * abs(total_mass):
            raise RefinementError(
                f"mass error {abs(mass_value - total_mass):.2e} "
                "exceeds tolerance"
            )

        return AnsatzProfile(
            config=config,
            internal=internal,
            phi=phi,
            u_n=ScalarField(self.grid, u_n),
            mass_correction=ScalarField(self.grid, internal.lam * bg),
            boundary_correction=ScalarField(self.grid, e_vals),
            mass_value=mass_value,
            bc_residuals=bc,
        )

    # -- analytic derivative stacks ----------------------------------------------

    def derivative_stack(self, profile, max_order=4):
        """Exact derivative samples of Phi, orders 0..max_order <= 8, with
        each pulse and background translate evaluated once for all orders."""
        # keep only the sums: the (n, K, N) rows go before the edge jet
        u_n, bg = (sum(rows) for rows in self._translates(
            profile.config, np.arange(self.grid.num_points), max_order))
        u_n[0] += self.well.b_minus
        bg[0] += self.bg2.b_inf
        e_rows = self._edge_sum(self.grid.nodes, profile.internal, max_order)
        return u_n + (profile.internal.lam * bg + e_rows)

    def gradient_stack(self, phi):
        """Exact derivative samples of grad J(Phi), orders 0..K-4, from the
        derivative stack phi of Phi, orders 0..K.

        grad J = Phi'''' - 2 W''(Phi) Phi'' - W'''(Phi) Phi'^2 + W''(Phi) W'(Phi),
        assembled from the jets of Phi and of W^(j)(Phi).
        """
        size = len(phi) - 4
        # the jet of the k-th derivative of Phi is phi[k:], cut to size rows
        d0, d1, d2, d4 = (phi[k : k + size] for k in (0, 1, 2, 4))
        w1, w2, w3 = (well_jet(self.well, j, d0, 0.0) for j in (1, 2, 3))
        return (
            d4
            - 2.0 * leibniz(w2, d2)
            - leibniz(w3, leibniz(d1, d1))
            + leibniz(w2, w1)
        )

    def residual_h4(self, profile):
        """(R field, ||R||_H4, ||R||_L2, J(Phi)) with R = -Pi_0 grad J(Phi),
        all from one order-8 derivative stack of Phi."""
        phi = self.derivative_stack(profile, max_order=8)
        g = self.gradient_stack(phi)
        w = self.grid.quad_weights
        mean = float(np.sum(w * g[0])) / self.grid.length
        r0 = -(g[0] - mean)
        stack = np.vstack([r0[None, :], -g[1:]])
        r_field = ScalarField(self.grid, r0)
        h4 = h4_norm_from_stack(self.grid, stack)
        l2 = float(np.sqrt(np.sum(w * r0**2)))
        w1 = phi[2] - self.well.dW(phi[0])
        return r_field, h4, l2, 0.5 * float(np.sum(w * w1 * w1))

    # -- tangents -----------------------------------------------------------------

    def tangent_basis(self, profile):
        """Exact tangents dPhi/dp_i with their derivative stacks, orders 0..4.

        Moving p_i moves u_n + lambda * B_{2,n} by g_i = -(phi_bar + lambda *
        B_bar_2)'(z - p_i), and the closure moves with it (implicit-function
        theorem): K dc_i = -(end terms of g_i), with K the fixed edge matrix,
        and dlambda_i keeps the mass, so the edge coefficients move by
        dc_i + dlambda_i * c_B, where c_B solves the closure against the end
        terms of B_{2,n}. Returns the n tangent fields and their (n, 5, N)
        stacks, whose row 0 is the field.
        """
        z, w = self.grid.nodes, self.grid.quad_weights
        lam = profile.internal.lam
        pulses, bgs = self._translates(profile.config, np.arange(z.size), 5)
        bg = sum(b[:5] for b in bgs)
        bg[0] += self.bg2.b_inf
        # rows 0..4 of each g_i, then of B_{2,n}: shape (n + 1, 5, N)
        cols = np.stack([*(-(p + lam * b)[1:] for p, b in zip(pulses, bgs)),
                         bg])
        del pulses, bgs  # cols holds their rows; free them before the edge jet
        matrix, masses = self._edge_system
        ends = cols[:, [1, 3]][:, :, [0, -1]].transpose(2, 1, 0).reshape(4, -1)
        coef = np.linalg.solve(matrix, -ends)
        moved = cols[:, 0] @ w + masses @ coef
        dlam = -moved[:-1] / moved[-1]
        coef = coef[:, :-1] + dlam * coef[:, -1:]
        stacks = (cols[:-1] + dlam[:, None, None] * cols[-1]
                  + np.einsum("ki,mkz->imz", coef, self._edge_jet(z, 4)))
        return [ScalarField(self.grid, s[0]) for s in stacks], stacks
