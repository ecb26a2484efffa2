"""Time integration of the gradient flow and the reduced pulse-position ODE.

The PDE stepper is linearly implicit: the stiff constant-coefficient part
G(d^4/dz^4 + kappa) is inverted diagonally in the cosine basis, where G acts
as its mode symbol g (`operators.gradient_symbols`), the remainder is
explicit, and a step is accepted only if the energy did not increase beyond
a fixed slack. The state is the cosine coefficients of u: a step updates
them, synthesizes u from them, and carries them with those of grad J(u) to
the next step. Every `SimulationState` is complete: a run starts from
`SimulationState.start` or a checkpoint's `SimulationState.at`, both of which
form its energy and gradient by `flow_terms`, and `step` returns the next one.
An accepted step costs 4 cosine transforms, a rejected trial 2, and mode 0,
the mass, is never changed. The module opens no file: `run` hands each
recorded state it continues from to its caller's `checkpoint`, and `harness`
writes and reads the checkpoints. The reduced model is the nearest-neighbour
pair-force ODE: the force comes from the pair interaction energy of J, and
mirror shadow pulses close the boundary terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    AdmissibilityError,
    ExtractionError,
    RefinementError,
    ScalarField,
    StiffnessError,
    cosine_coeffs,
    cosine_synth,
    norm,
    parseval_weights,
)
from .ansatz import mass as field_mass, mirror_gaps
from .operators import energy_terms, gradient_coeffs, gradient_symbols, to_modes
from .wellmodel import PairEnergy

DT_MIN = 1e-12
ENERGY_SLACK = 1e-10
# Accepted first tries after which dt doubles (up to dt_max).
GROWTH_PATIENCE = 5


@dataclass(frozen=True)
class StepControls:
    """Stabilization constant and largest step of the semi-implicit stepper."""

    kappa: float
    dt_max: float = 0.02

    @classmethod
    def for_initial_state(cls, u, well, dt_max=0.02):
        kappa = 2.0 * float(np.max(np.abs(well.d2W(u.values)))) ** 2
        return cls(kappa=kappa, dt_max=dt_max)


@dataclass(frozen=True)
class SimulationState:
    """One accepted point of a gradient-flow trajectory.

    u_hat, the cosine coefficients of u, is the state that `step` advances;
    u is their synthesis. grad_hat holds the coefficients of grad J(u), and
    energy is J(u), both formed from u_hat and u by `flow_terms`; neither
    depends on the gradient family. `start` and `at` form them for a state
    that `step` did not return, to the bits that `step` would have carried.
    """

    time: float
    u: ScalarField
    dt: float
    step_index: int
    accept_streak: int
    energy: float
    u_hat: np.ndarray = field(compare=False, repr=False)
    grad_hat: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def at(cls, u, u_hat, well, time, dt, step_index, accept_streak):
        """The complete state of u, with cosine coefficients u_hat, at
        `time` (a checkpoint's, say); dt is its next step."""
        e, g_hat = flow_terms(u_hat, u, well)
        return cls(time=time, u=u, dt=dt, step_index=step_index,
                   accept_streak=accept_streak, energy=e, u_hat=u_hat,
                   grad_hat=g_hat)

    @classmethod
    def start(cls, u, well, dt):
        """The state of the initial field u at t = 0, with coefficients
        cosine_coeffs(u) and first step dt (`fresh_dt` for a run)."""
        return cls.at(u, cosine_coeffs(u.values), well, 0.0, dt, 0, 0)


def fresh_dt(grid):
    """The first step of a run from an initial field: 0.1 h^2."""
    return 0.1 * grid.spacing**2


def flow_terms(u_hat, u, well):
    """(J, grad_hat) of the field u from its cosine coefficients u_hat and
    its nodal values (three transforms)."""
    grid = u.grid
    w1, e = energy_terms(u_hat, u.values, grid, well)
    return e, gradient_coeffs(u.values, w1, grid, well)


def step(state, well, g, controls):
    """One accepted semi-implicit step; halves dt until the energy decreases.

    The update reads, mode by mode, with g the symbol of G (`gradient_symbols`),
        u_hat_new = u_hat - dt * g_k grad_hat_k / (1 + dt * g_k (kappa_k^4 + kappa)),
    which treats G(d^4 + kappa)(u_new - u_old) implicitly. g_0 = 0, so
    u_hat[0] is carried unchanged and the mass is conserved exactly.

    A trial costs two transforms: the synthesis of u_new and that of u_new''
    for J(u_new). An accepted one adds two for grad_hat. The result carries
    u_hat_new itself and grad_hat, so the next step starts from them; its
    energy and grad_hat are those of `flow_terms` at (u_hat_new, u_new) bit
    for bit.
    They agree with the nodal energy and grad J of u_new (the `energy` and
    `variational_derivative` oracles of tests/conftest.py) and with
    `flow_terms` at cosine_coeffs(u_new) to rounding, since those
    coefficients differ from u_hat_new by the rounding of one transform pair.
    """
    grid = state.u.grid
    denom_base = g * (grid.wavenumbers**4 + controls.kappa)

    flow_hat = g * state.grad_hat

    dt = state.dt
    while True:
        new_hat = state.u_hat - dt * flow_hat / (1.0 + dt * denom_base)
        u_new = ScalarField(grid, cosine_synth(new_hat))
        w1, e_new = energy_terms(new_hat, u_new.values, grid, well)
        if e_new <= state.energy + ENERGY_SLACK:
            break
        dt *= 0.5
        if dt < DT_MIN:
            raise StiffnessError(
                f"dt underflow at t = {state.time:g}: no energy-decreasing step",
                state=state,
            )

    first_try = dt == state.dt
    streak = state.accept_streak + 1 if first_try else 0
    dt_next = dt
    if streak >= GROWTH_PATIENCE:
        dt_next = min(2.0 * dt, controls.dt_max)
        streak = 0
    g_hat = gradient_coeffs(u_new.values, w1, grid, well)
    return SimulationState(
        time=state.time + dt,
        u=u_new,
        dt=dt_next,
        step_index=state.step_index + 1,
        accept_streak=streak,
        energy=e_new,
        u_hat=new_hat,
        grad_hat=g_hat,
    )


def extract_pulse_positions(u, n_expected, well, pulse):
    """Sub-grid pulse centers from 3-point parabolic fits around each maximum."""
    vals = u.values
    threshold = well.b_minus + 0.5 * pulse.peak_height
    interior = vals[1:-1]
    is_max = (interior > vals[:-2]) & (interior >= vals[2:]) & (
        interior > threshold
    )
    idx = np.nonzero(is_max)[0] + 1
    if idx.size != n_expected:
        raise ExtractionError(
            f"expected {n_expected} pulses, found {idx.size}", found=int(idx.size)
        )
    h = u.grid.spacing
    z = u.grid.nodes
    pos = []
    for i in idx:
        denom = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
        shift = 0.5 * (vals[i - 1] - vals[i + 1]) / denom if denom != 0.0 else 0.0
        pos.append(z[i] + h * shift)
    return np.asarray(pos)


@dataclass
class Trajectory:
    """Output record of a PDE run. w_norm_nan holds (t, message) of each
    record whose w_norm is NaN: the error that refused its manifold point."""

    times: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    masses: list = field(default_factory=list)
    w_norms: list = field(default_factory=list)
    w_norm_nan: list = field(default_factory=list)
    t_exit: float | None = None
    exit_reason: str = ""
    final_state: SimulationState | None = None

    def as_arrays(self):
        return (
            np.asarray(self.times),
            np.asarray(self.positions),
            np.asarray(self.energies),
            np.asarray(self.masses),
            np.asarray(self.w_norms),
        )


def run(manifold, g, state, t_final, controls, output_every=50,
        checkpoint=None):
    """Evolve u_t = -G grad J(u) from state under controls, recording pulse
    diagnostics; g is the mode symbol of G, as `step` reads it.

    The state is `SimulationState.start` of an initial field or a
    checkpoint's: its time, step index, dt and accept streak carry on, so
    with the same controls a resumed run takes the steps of the
    uninterrupted one. No step exceeds controls.dt_max, the first one
    included. t_final is absolute. checkpoint, if given, is called with
    every recorded state that the run continues from.

    Exits early (recording t_exit) when pulse extraction fails or the minimum
    gap falls below half the admissible spacing.
    """
    well = manifold.well
    params = manifold.params
    grid = state.u.grid
    traj = Trajectory()
    n = params.n_pulses

    def record(st):
        try:
            pos = extract_pulse_positions(st.u, n, well, manifold.pulse)
        except ExtractionError:
            return None
        traj.times.append(st.time)
        traj.positions.append(pos)
        traj.energies.append(st.energy)
        traj.masses.append(field_mass(st.u, well.b_minus))
        w_norm = np.nan
        try:
            ref = manifold.build(manifold.configuration(pos))
            w_norm = norm(st.u - ref.phi, "h4")
        except (AdmissibilityError, RefinementError) as err:
            # the extracted positions have no manifold point
            traj.w_norm_nan.append((float(st.time), str(err)))
        traj.w_norms.append(w_norm)
        return pos

    pos = record(state)
    if pos is None:
        raise ExtractionError("initial state has no recognizable pulse train")

    state = replace(state, dt=min(state.dt, controls.dt_max))
    while state.time < t_final:
        state = step(state, well, g, controls)
        if state.step_index % output_every == 0 or state.time >= t_final:
            pos = record(state)
            if pos is None:
                traj.t_exit = state.time
                traj.exit_reason = "pulse extraction failed (collision/merger)"
                break
            if np.min(mirror_gaps(pos, grid.length)) < 0.5 * params.min_spacing:
                traj.t_exit = state.time
                traj.exit_reason = "minimum gap fell below ell/2"
                break
            if checkpoint is not None:
                checkpoint(state)
    traj.final_state = state
    return traj


# ---------------------------------------------------------------------------
# Reduced pulse-position model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedModel:
    """Nearest-neighbour pair-force ODE for the pulse positions.

        velocity_i = F(p_i - p_{i-1}) - F(p_{i+1} - p_i),

    with mirror shadow pulses p_0 = -p_1 and p_{n+1} = 2L - p_n. The pair
    force is F(g) = -E'(g) / ||phi_h'||^2, where E is the interaction energy
    of two pulse translates under J (wellmodel.PairEnergy):

        E(g) = 1/2 int [W'(b_- + phi_bar(z)) + W'(b_- + phi_bar(z - g))
                        - W'(b_- + phi_bar(z) + phi_bar(z - g))]^2 dz.

    The pulse is an exact zero of the energy density of J, so E is quadratic
    in the tail overlap: E(g) ~ (A g + B) e^{-2 r g}, r = sqrt(alpha_minus),
    with A = W'''(b_-)^2 phi_max^4 / 2 in closed form (7.405e4 at tau = -0.3)
    and B from quadrature (-4.296e5). E is computed once per pulse by
    trapezoid quadrature at the gaps 0..16 and interpolated between them;
    beyond gap 16 the asymptote is used. At tau = -0.3, F is repulsive for
    gaps >= 4 and decreasing for gaps >= 5.
    """

    pair: PairEnergy
    kernel_norm: float
    domain_length: float
    min_spacing: float

    @classmethod
    def from_pulse(cls, pulse, params):
        return cls(
            pair=pulse.pair_energy,
            kernel_norm=pulse.kernel_norm,
            domain_length=params.domain_length,
            min_spacing=params.min_spacing,
        )

    def force(self, g):
        """Pair force F(g) = -E'(g) / ||phi_h'||^2."""
        return -self.pair(g, 1) / self.kernel_norm**2

    def _check(self, p):
        gaps = self.gaps(p)
        if np.min(gaps) < self.min_spacing - 1e-9:
            raise AdmissibilityError(
                f"reduced model evaluated outside the admissible set "
                f"(min gap {np.min(gaps):.6g})"
            )

    def gaps(self, p):
        return mirror_gaps(np.asarray(p, dtype=float), self.domain_length)

    def velocity(self, p, check=True):
        p = np.asarray(p, dtype=float)
        if check:
            self._check(p)
        f = self.force(self.gaps(p))
        return f[:-1] - f[1:]


def pulse_velocity_projection(manifold, config):
    """Velocity from projecting the quasi-steady residual R onto the tangents.

    In the mode coordinates of `to_modes`, where the X inner product is the
    dot product, solves T^T T pdot = T^T R with T the tangent columns: the
    full tangent Gram matrix against the projections <R, dPhi/dp_i>.
    """
    profile = manifold.build(config)
    r = to_modes(manifold.residual_h4(profile)[0])
    t = np.stack([to_modes(f) for f in manifold.tangent_basis(profile)[0]],
                 axis=1)
    return np.linalg.solve(t.T @ t, t.T @ r)


def alpha_scaling(s, grid, pulse):
    """alpha(s) = ||G1^{-1} Pi_0 phi_h'||_{L2} for a pulse centred at L/2:
    by Parseval, the square root of sum_{k>=1} c_k (a_k / g1_k)^2 over the
    cosine coefficients a of phi_h', c the Parseval weights, g1 G1's symbol."""
    center = 0.5 * grid.length
    a = cosine_coeffs(pulse.pulse_bar_deriv(grid.nodes - center, 1))[1:]
    scaled = a / gradient_symbols(grid, s)[1][1:]
    return float(np.sqrt(np.sum(parseval_weights(grid)[1:] * scaled**2)))


def integrate_reduced(model, p0, t_final, velocity_scale=1.0, t_eval=None):
    """Adaptive RK45 integration of pdot = velocity_scale * velocity(p), at
    rtol 1e-10 and atol 1e-12.

    velocity_scale carries the alpha(0)^2/alpha(s)^2 gradient rescaling; at
    s = 0 the caller passes exactly 1.0 so the integrator path is identical
    to the unscaled flow. Integration stops at the admissibility boundary.
    """
    p0 = np.asarray(p0, dtype=float)
    model._check(p0)

    def rhs(_t, p):
        return velocity_scale * model.velocity(p, check=False)

    def exit_event(_t, p):
        return float(np.min(model.gaps(p)) - model.min_spacing)

    exit_event.terminal = True
    exit_event.direction = -1.0

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        p0,
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        t_eval=t_eval,
        events=exit_event,
        dense_output=True,
    )
    t_exit = sol.t_events[0][0] if sol.t_events[0].size else None
    return sol, t_exit
