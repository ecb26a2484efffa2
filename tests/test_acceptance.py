"""Acceptance criteria, one test per criterion, at the desk-scale preset
(tilt -0.3, d/epsilon = 160, n <= 3, spacing floor 8, N = 2048).

Each test prints one pass/fail line with the measured quantities and then
asserts the criterion at its stated tolerance.

The reduced law is the pair force of the interaction energy of J itself,
which is quadratic in the tail overlap because the pulse is an exact zero of
the energy density (dynamics.ReducedModel). It agrees with the tangent
projection to 1.8% at gap 8 (criterion 11). Criterion 15 measures the
delta^{1/2} slope of the trapping radius at spacing floors 14, 16 and 18,
where its precondition holds and is asserted; at floors 8-12 delta0 ~
1.65e5 delta1^2 and the linear term delta2/mu2 still compete.

Criterion 13 fails and prints its numbers. Its decay half compares the
antisymmetric PDE amplitude with the antisymmetric eigenvalue of the
linearized law: 0.0053 against 0.0221. Its velocity half is 0.35 (s=0) and
0.60 (s=1) away from the law, and the tangent projection is itself 0.36 and
0.61 away from the PDE: the PDE leaves the manifold (at s=0, t=10 its energy
is 4.3e-4 against J = 3.0e-3 on the manifold at the extracted positions),
and at s=1 the scalar time rescaling alpha(0)^2/alpha(1)^2 = 4.90 does not
hold pulse by pulse (the PDE velocity ratios are 2.98 and 5.69). The s=1
runs are outside the SRN regime: delta_g(1) = 21.6 on this testbed, against
delta_g < 1. The test computes each of these numbers from its own runs. The
model description does not settle which reduced law the flow follows off
the manifold, so the tolerances stay as they are.
"""

import dataclasses

import numpy as np

from fchpulse import (
    Grid,
    ProfilePoint,
    ReducedModel,
    ScalarField,
    alpha_scaling,
    coercivity_constant,
    el_bounds,
    gradient_symbols,
    integrate_reduced,
    mass,
    norm,
    pulse_velocity_projection,
    run,
    spectral_gap_report,
    symmetrized_gap,
    tangent_alignment,
)
from fchpulse.core import cosine_synth
from fchpulse.dynamics import SimulationState, step, velocity_scale
from fchpulse.wellmodel import _fd_residual, far_field_params
from conftest import (
    cluster_config,
    constrained_negative_index,
    dissipation,
    far_field_samples,
    jacobian_at_equispaced,
    moderate_config,
    reduced_equispaced,
)


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {status}  {detail}"
    print("\n" + line)
    assert passed, line


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_homoclinic(well, pulse):
    residual = _fd_residual(pulse.z, pulse.values, well)
    fi_defect = float(
        np.max(np.abs(0.5 * pulse.pulse_jet(pulse.z, 1)[1]**2
                      - well.W(pulse.values)))
    )
    fit = far_field_params(*far_field_samples(pulse))
    rate_err = abs(fit.decay_rate - np.sqrt(well.alpha_minus)) / np.sqrt(
        well.alpha_minus
    )
    passed = residual < 1e-8 and fi_defect < 1e-8 and rate_err < 1e-4
    _report(
        1, passed,
        f"pulse residual {residual:.2e} (<1e-8), first-integral defect "
        f"{fi_defect:.2e} (<1e-8), decay-rate rel err {rate_err:.2e} (<1e-4)",
    )


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_background_constants(well, backgrounds):
    bg1, bg2 = backgrounds
    err1 = abs(bg1.b_inf - (-1.0 / well.alpha_minus))
    err2 = abs(bg2.b_inf - 1.0 / well.alpha_minus**2)
    passed = err1 < 1e-6 and err2 < 1e-6
    _report(
        2, passed,
        f"background constants: first-order err {err1:.2e}, second-order err "
        f"{err2:.2e} (both <1e-6)",
    )


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_ansatz_closure(desk_manifold):
    delta = desk_manifold.params.tail_scale
    total = desk_manifold.params.total_mass
    worst_bc, worst_mass, worst_lam = 0.0, 0.0, 0.0
    for cfg in (desk_manifold.equispaced(), moderate_config(desk_manifold)):
        prof = desk_manifold.build(cfg)
        worst_bc = max(worst_bc, float(np.max(np.abs(prof.bc_residuals))))
        worst_mass = max(
            worst_mass, abs(prof.mass_value - total) / abs(total)
        )
        worst_lam = max(
            worst_lam, abs(prof.internal.lam / prof.internal.lam_seed - 1.0)
        )
    passed = worst_bc < 1e-8 and worst_mass < 1e-10 and worst_lam <= 10 * delta
    _report(
        3, passed,
        f"boundary residuals {worst_bc:.2e} (<1e-8), mass rel err "
        f"{worst_mass:.2e} (<1e-10), multiplier vs seed {worst_lam:.2e} "
        f"(<=10*delta={10 * delta:.2e})",
    )


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_residual_sweep_stability(manifold_factory):
    c0 = {}
    for ell in (8.0, 10.0):
        man = manifold_factory(ell=ell)
        worst = 0.0
        for cfg in man.sample_configurations(32, seed=0):
            prof = man.build(cfg)
            h4 = man.residual_h4(prof)[1]
            worst = max(worst, h4 / man.params.tail_scale)
        c0[ell] = worst
    ratio = c0[10.0] / c0[8.0]
    passed = 0.5 <= ratio <= 2.0 and np.isfinite(c0[8.0])
    _report(
        4, passed,
        f"residual sweep: C0(ell=8)={c0[8.0]:.1f}, C0(ell=10)={c0[10.0]:.1f}, "
        f"stability ratio {ratio:.3f} (within [0.5, 2])",
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_spectral_gap(manifold_factory, edge_floor):
    reports = {}
    for n_pts in (1024, 2048):
        man = manifold_factory(num_points=n_pts)
        prof = man.build(man.configuration([12.0, 22.0, 34.0]))
        reports[n_pts] = spectral_gap_report(ProfilePoint(man, prof))
    rep = reports[1024]
    fitted_c0 = rep.fitted_c
    edge_ok = (
        0.8 * edge_floor <= rep.stable_edge <= 1.2 * edge_floor
    )
    count_invariant = reports[2048].slow_dim == rep.slow_dim == 3
    passed = rep.passed and edge_ok and count_invariant
    _report(
        5, passed,
        f"slow dim {rep.slow_dim} (=n), fitted c0 {fitted_c0:.1f}, stable "
        f"edge {rep.stable_edge:.4f} within 20% of k_s={edge_floor:.4f}, "
        f"slow count invariant under grid doubling: {count_invariant}",
    )


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_constrained_index_oracle():
    rng = np.random.default_rng(2024)
    trials, agree = 200, 0
    for _ in range(trials):
        a = rng.standard_normal((8, 8))
        matrix = 0.5 * (a + a.T)
        m = int(rng.integers(1, 4))
        constraints = [rng.standard_normal(8) for _ in range(m)]
        res = constrained_negative_index(matrix, constraints, mu=0.0)
        agree += int(res.formula_index == res.brute_index)
    passed = agree == trials
    _report(
        6, passed,
        f"index formula vs projected eigensolve: {agree}/{trials} exact "
        "integer agreements",
    )


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_coercivity(diag_manifold):
    sample = diag_manifold.sample_configurations(2, seed=4)
    sample.append(moderate_config(diag_manifold))
    reps = []
    for cfg in sample:
        prof = diag_manifold.build(cfg)
        reps.append(coercivity_constant(ProfilePoint(diag_manifold, prof)))
    ok = all(r.passed and r.relation_holds() for r in reps)
    mus = [r.mu_h2 for r in reps]
    bounds = [r.bound for r in reps]
    _report(
        7, ok,
        f"normal coercivity in H2: mu_H2 in [{min(mus):.4f}, {max(mus):.4f}] "
        f"> 0 over {len(sample)} configurations, H2 chained bound "
        f"[{min(bounds):.4f}, {max(bounds):.4f}] <= mu_H2 within 1e-8 "
        f"(H4 minimum is the top mode sigma_top = {reps[0].sigma_top:.3e})",
    )


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_tangent_alignment(manifold_factory, well):
    errs, c3 = {}, {}
    for ell in (8.0, 10.0):
        man = manifold_factory(num_points=1024, ell=ell)
        prof = man.build(cluster_config(man, ell))
        ali = tangent_alignment(ProfilePoint(man, prof))
        errs[ell] = ali.max_error
        c3[ell] = ali.max_error / man.params.tail_scale
    ratio = errs[10.0] / errs[8.0]
    predicted = np.exp(-2.0 * np.sqrt(well.alpha_minus))
    ratio_ok = predicted / 3.0 <= ratio <= 3.0 * predicted
    cap_ok = c3[8.0] <= 5000.0
    passed = ratio_ok and cap_ok
    _report(
        8, passed,
        f"alignment C3(ell=8)={c3[8.0]:.0f}, C3(ell=10)={c3[10.0]:.0f} "
        f"(ell-independent up to tail factors), shrink ratio {ratio:.4f} vs "
        f"exp(-2 sqrt(alpha))={predicted:.4f} within x3: {ratio_ok}",
    )


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_symmetrized_gap(diag_manifold):
    prof = diag_manifold.build(moderate_config(diag_manifold))
    results = {}
    ok = True
    for s in (0.5, 1.0):
        rep = symmetrized_gap(ProfilePoint(diag_manifold, prof), s)
        results[s] = rep.fitted_c
        ok = ok and rep.passed and rep.slow_dim == 3
    passed = ok and max(results.values()) <= 15.0
    _report(
        9, passed,
        f"symmetrized gap: n slow eigenvalues with fitted c(s=0.5)="
        f"{results[0.5]:.2f}, c(s=1)={results[1.0]:.2f} (<=15, order one), "
        "slow eigenfields aligned with scaled tangents",
    )


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_jacobian_spectrum(pulse, manifold_factory):
    worst = 0.0
    all_negative = True
    for n in range(1, 7):
        man = manifold_factory(length=8.0 * (n + 1), n=n, ell=6.0,
                               num_points=1024)
        model = ReducedModel.from_pulse(pulse, man.params)
        _, eigs_num, closed = jacobian_at_equispaced(model, n)
        worst = max(worst, float(np.max(np.abs(eigs_num - closed))))
        all_negative = all_negative and bool(np.all(eigs_num < 0.0))
    passed = worst < 1e-12 and all_negative
    _report(
        10, passed,
        f"tridiagonal spectrum vs closed-form set: max discrepancy "
        f"{worst:.2e} (<1e-12) for n=1..6, all eigenvalues negative",
    )


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_reduced_flow_consistency(manifold_factory, pulse):
    # symmetric pair at gap 8 in a wide domain: pair-force law vs projection
    man = manifold_factory(length=120.0, n=2, ell=6.0, num_points=1536)
    model = ReducedModel.from_pulse(pulse, man.params)
    p = np.array([56.0, 64.0])
    v_law = model.velocity(p)
    v_proj = pulse_velocity_projection(man, man.configuration(p))
    rel = np.max(np.abs(v_law - v_proj) / np.abs(v_proj))

    # equispaced three-pulse with spacing 8: velocity magnitude scale, in
    # units of the first-order tail coefficient 2 alpha phi_max^2/||phi_h'||^2
    man3 = manifold_factory(length=24.0, n=3, ell=6.0, num_points=384)
    p_eq = man3.equispaced()
    v_eq = pulse_velocity_projection(man3, p_eq)
    alpha = man3.well.alpha_minus
    tail_coefficient = 2.0 * alpha * pulse.phi_max**2 / pulse.kernel_norm**2
    delta8 = float(np.exp(-np.sqrt(alpha) * 8.0))
    eq_bound = 10.0 * tail_coefficient * delta8**1.5
    eq_ok = float(np.max(np.abs(v_eq))) <= eq_bound

    passed = rel <= 0.10 and eq_ok
    _report(
        11, passed,
        f"pair-force law {v_law[0]:+.3e} vs projection {v_proj[0]:+.3e} at "
        f"gap 8: relative gap {rel:.3f} (required <=0.10); equispaced speed "
        f"{np.max(np.abs(v_eq)):.2e} <= {eq_bound:.2e}: {eq_ok}",
    )


# -- 12 ----------------------------------------------------------------------


def test_criterion_12_pde_flow(small_manifold, well):
    grid = small_manifold.grid
    prof = small_manifold.build(small_manifold.configuration([4.5, 12.0]))
    rng = np.random.default_rng(12)
    coeffs = np.zeros(grid.num_points)
    coeffs[3:43] = rng.standard_normal(40)
    noise = ScalarField(grid, cosine_synth(coeffs))
    u0 = prof.phi + noise * (1e-3 / norm(noise, "l2"))
    g_sym = gradient_symbols(grid, 0.0)[0]

    dt = 2e-4
    st = dataclasses.replace(SimulationState.start(u0, well), dt=dt)
    m0 = mass(u0, well.b_minus)
    energies = [st.energy]
    drift = 0.0
    rel_errs = []
    for k in range(10_000):
        prev_e, prev_d = st.energy, dissipation(st, g_sym)
        st = step(st, well, g_sym, dt)
        energies.append(st.energy)
        if k % 100 == 0:
            drift = max(drift, abs(mass(st.u, well.b_minus) - m0) / abs(m0))
        if k < 2000 and k % 5 == 0 and prev_d > 1e-8:
            rate = (st.energy - prev_e) / dt
            midpoint = -0.5 * (prev_d + dissipation(st, g_sym))
            rel_errs.append(abs(rate - midpoint) / abs(midpoint))
    monotone = bool(np.all(np.diff(energies) <= 1e-10))
    diss_err = float(np.quantile(rel_errs, 0.9))
    passed = monotone and drift < 1e-9 and diss_err < 0.02
    _report(
        12, passed,
        f"energy non-increasing over 1e4 accepted steps: {monotone}; mass "
        f"drift {drift:.2e} (<1e-9); dissipation identity 90th-percentile "
        f"error {diss_err:.4f} (<0.02)",
    )


# -- 13 ----------------------------------------------------------------------


def test_criterion_13_pde_vs_ode(small_manifold, pulse, well):
    grid = small_manifold.grid
    model = ReducedModel.from_pulse(pulse, small_manifold.params)
    start = small_manifold.configuration([4.5, 12.0])
    prof = small_manifold.build(start)

    vel_dev, proj_dev, v_runs = {}, {}, {}
    for s in (0.0, 1.0):
        g_sym = gradient_symbols(grid, s)[0]
        scale = velocity_scale(s, grid, pulse)
        t_final = 10.0 / scale
        state = SimulationState.start(prof.phi, well)
        traj = run(small_manifold, g_sym, state, t_final,
                   0.02 / max(scale, 1.0), 40)
        t, p, _, _, _ = traj.as_arrays()
        window = t >= 0.3 * t_final
        v_pde = np.array(
            [np.polyfit(t[window], p[window, i], 1)[0] for i in range(2)]
        )
        p_mid = p[window].mean(axis=0)
        v_model = scale * model.velocity(p_mid, check=False)
        vel_dev[s] = float(np.max(np.abs(v_pde - v_model) / np.abs(v_model)))
        # the measured cause: the tangent projection at p_mid, the PDE
        # velocities per pulse, and at s = 0 the energy the run ends at
        v_proj = scale * pulse_velocity_projection(
            small_manifold, small_manifold.configuration(p_mid))
        proj_dev[s] = float(np.max(np.abs(v_pde - v_proj) / np.abs(v_proj)))
        v_runs[s] = v_pde
        if s == 0.0:
            t_end, e_pde = traj.final_state.time, traj.final_state.energy
            j_manifold = small_manifold.residual_h4(small_manifold.build(
                small_manifold.configuration(p[-1])))[3]
    ratios = v_runs[1.0] / v_runs[0.0]
    delta_g1 = small_manifold.params.gap_delta(1.0)

    # perturbed equispaced decay of the antisymmetric amplitude vs the
    # eigenvalue of the linearization of velocity() whose eigenvector is
    # (1, -1)/sqrt(2), chosen by eigenvector rather than by sort position
    p_eq = reduced_equispaced(model, 2)
    prof_pert = small_manifold.build(
        small_manifold.configuration(p_eq + np.array([0.5, 0.0]))
    )
    g_sym1 = gradient_symbols(grid, 1.0)[0]
    scale1 = velocity_scale(1.0, grid, pulse)
    state = SimulationState.start(prof_pert.phi, well)
    traj = run(small_manifold, g_sym1, state, 120.0, 0.005, 100)
    t, p, _, _, _ = traj.as_arrays()
    amp = 0.5 * (p[:, 0] - p_eq[0] - (p[:, 1] - p_eq[1]))
    sel = (t > 20.0) & (np.abs(amp) > 1e-4)
    rate = -np.polyfit(t[sel], np.log(np.abs(amp[sel])), 1)[0] / scale1
    h = 1e-6
    jac = np.column_stack([
        (model.velocity(p_eq + h * e) - model.velocity(p_eq - h * e)) / (2 * h)
        for e in np.eye(2)
    ])
    eigvals, eigvecs = np.linalg.eig(jac)
    antisymmetric = np.array([1.0, -1.0]) / np.sqrt(2.0)
    lam = abs(eigvals[np.argmax(np.abs(antisymmetric @ eigvecs))].real)
    rate_dev = abs(rate - lam) / lam

    passed = max(vel_dev.values()) <= 0.25 and rate_dev <= 0.30
    _report(
        13, passed,
        f"PDE-vs-reduced velocities: deviation {vel_dev[0.0]:.2f} (s=0), "
        f"{vel_dev[1.0]:.2f} (s=1) against the pair-force law (required "
        "<=0.25; measured cause: the PDE leaves the manifold, at s=0 and "
        f"t={t_end:.0f} its energy is {e_pde:.1e} against J = "
        f"{j_manifold:.1e} on the manifold at the extracted positions, and "
        f"the tangent projection is itself {proj_dev[0.0]:.2f} (s=0) and "
        f"{proj_dev[1.0]:.2f} (s=1) away from the PDE; at s=1 the scalar "
        f"rescaling alpha(0)^2/alpha(1)^2 = {scale1:.2f} does not hold pulse "
        f"by pulse, the PDE velocity ratios s=1 over s=0 being "
        f"{ratios[0]:.2f} and {ratios[1]:.2f}, and delta_g(1) = "
        f"{delta_g1:.1f} puts the s=1 runs outside the SRN regime "
        "(delta_g < 1)); "
        f"equispaced antisymmetric decay rate {rate:.4f} vs antisymmetric "
        f"eigenvalue {lam:.4f}, deviation {rate_dev:.2f} (required <=0.30)",
    )


# -- 14 ----------------------------------------------------------------------


def test_criterion_14_gradient_invariance(manifold_factory, pulse):
    man = manifold_factory(length=40.0, n=2, ell=8.0, num_points=512)
    model = ReducedModel.from_pulse(pulse, man.params)
    grid = man.grid
    p0 = np.array([8.0, 17.0])
    t_final = 400.0
    t_ref = np.linspace(0.0, t_final, 161)
    sol0, _ = integrate_reduced(model, p0, t_final,
                                velocity_scale=1.0, t_eval=t_ref)
    defect = 0.0
    for s in (0.5, 1.0):
        scale = velocity_scale(s, grid, pulse)
        sol_s, _ = integrate_reduced(model, p0, t_final / scale,
                                     velocity_scale=scale)
        vals = sol_s.sol(t_ref / scale)
        defect = max(defect, float(np.max(np.abs(vals - sol0.sol(t_ref)))))
    defect_ok = defect < 0.01 * man.params.min_spacing

    grid_alpha = Grid(160.0, 2048)
    alphas = [alpha_scaling(s, grid_alpha, pulse)
              for s in np.linspace(0.0, 1.0, 11)]
    monotone = bool(np.all(np.diff(alphas) < 0.0))
    a0_err = abs(alphas[0] - pulse.kernel_norm) / pulse.kernel_norm
    passed = defect_ok and monotone and a0_err < 1e-4
    _report(
        14, passed,
        f"rescaled trajectories coincide: sup defect {defect:.2e} (<1% of "
        f"spacing floor = {0.01 * man.params.min_spacing:.2f}); alpha "
        f"strictly decreasing over 11 points: {monotone}; alpha(0) matches "
        f"the kernel norm to {a0_err:.1e} (<1e-4)",
    )


# -- 15 ----------------------------------------------------------------------


def test_criterion_15_trapping_radius_scaling(manifold_factory):
    # eta_* = lin + sqrt(lin^2 + root^2), lin = delta2/mu2 and
    # root = sqrt(2 (delta0 + delta1)/mu2), scales like delta^{1/2} only where
    # delta0 = O(delta1) and lin is small against root. At ell = 8..12
    # neither holds (delta0 ~ 1.65e5 delta1^2 at ell = 8), so the slope is
    # measured at ell = 14, 16, 18 and the precondition asserted at each.
    etas, deltas, lin_ratios, mass_ratios = [], [], [], []
    for ell in (14.0, 16.0, 18.0):
        man = manifold_factory(num_points=1024, ell=ell)
        points = [ProfilePoint(man, man.build(c))
                  for c in man.sample_configurations(32, seed=0)]
        rep = el_bounds(points)
        etas.append(rep.eta_star)
        deltas.append(man.params.tail_scale)
        root = np.sqrt(2.0 * (rep.delta0 + rep.delta1) / rep.mu2)
        lin_ratios.append(rep.delta2 / rep.mu2 / root)
        mass_ratios.append(rep.delta0 / rep.delta1)
    slope = float(np.polyfit(np.log(deltas), np.log(etas), 1)[0])
    precondition = max(lin_ratios) <= 0.5 and max(mass_ratios) <= 2.0
    passed = 0.4 <= slope <= 0.6 and precondition
    _report(
        15, passed,
        f"trapping radius eta_* = {etas[0]:.3e}, {etas[1]:.3e}, {etas[2]:.3e} "
        f"at ell = 14, 16, 18; log-log slope {slope:.3f} (required 0.5 +/- "
        f"0.1); precondition at every floor: linear/square-root term "
        f"{', '.join(f'{r:.2f}' for r in lin_ratios)} (<=0.5), delta0/delta1 "
        f"{', '.join(f'{r:.2f}' for r in mass_ratios)} (<=2): {precondition}",
    )
