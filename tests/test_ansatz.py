"""Manifold construction: superposition, internal parameters, tangents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fchpulse import (
    AdmissibilityError,
    ExperimentConfig,
    MassSplitError,
    PulseConfiguration,
    PulseManifold,
    ReducedModel,
    ScalarField,
    SystemParams,
    inner_product_x,
    mass,
    norm,
    run_experiment,
)
from fchpulse.ansatz import h4_norm_from_stack

from conftest import (derivative_stack_oracle, edge_term_oracle, fd_tangents,
                      moderate_config, shadow_locations)


class TestConfiguration:
    def test_ordering_enforced(self, desk_manifold):
        with pytest.raises(AdmissibilityError):
            desk_manifold.configuration([30.0, 20.0, 40.0])

    def test_spacing_floor(self, desk_manifold):
        with pytest.raises(AdmissibilityError):
            desk_manifold.configuration([30.0, 35.0, 80.0])
        # boundary shadow gap: 2*p_1 >= ell
        with pytest.raises(AdmissibilityError):
            desk_manifold.configuration([3.0, 30.0, 80.0])

    @pytest.mark.parametrize("positions", [[40.0, 120.0],
                                           [30.0, 60.0, 90.0, 130.0]])
    def test_position_count_must_be_n(self, desk_manifold, positions):
        # two positions on the 3-pulse manifold built a 2-pulse profile
        # whose multiplier carried a whole pulse mass (113 x its seed)
        with pytest.raises(AdmissibilityError) as err:
            desk_manifold.configuration(positions)
        assert "need 3 pulse positions" in str(err.value)

    def test_min_gap_includes_shadows(self, desk_manifold):
        cfg = desk_manifold.configuration([4.5, 30.0, 80.0])
        assert cfg.min_gap == pytest.approx(9.0)

    @settings(max_examples=100, deadline=None)
    @given(interior=st.lists(st.floats(1.0, 99.0), max_size=3, unique=True),
           last=st.floats(100.0, 160.0, exclude_max=True))
    def test_min_gap_is_the_reduced_models_bitwise(self, interior, last):
        """Admissibility and the reduced model read one mirror-gap rule:
        2 (L - p_n) and (2 L - p_n) - p_n round differently for about one
        p_n in five of [100, 160] at L = 160."""
        p = np.array([*sorted(interior), last])
        cfg = PulseConfiguration(p, 1e-12, 160.0)
        model = ReducedModel(pair=None, kernel_norm=1.0, domain_length=160.0,
                             min_spacing=1e-12)
        assert cfg.min_gap == np.min(model.gaps(p))

    def test_sampling_admissible(self, desk_manifold):
        for cfg in desk_manifold.sample_configurations(16, seed=11):
            assert cfg.min_gap >= desk_manifold.params.min_spacing - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 6), count=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_latin_hypercube_is_scipys_bit_for_bit(self, dim, count, seed):
        from scipy.stats import qmc

        from fchpulse.ansatz import latin_hypercube

        ours = latin_hypercube(count, dim, seed)
        theirs = qmc.LatinHypercube(d=dim, seed=seed).random(count)
        assert ours.shape == theirs.shape == (count, dim)
        assert ours.tobytes() == theirs.tobytes()


class TestSuperposition:
    def test_single_pulse_translate(self, desk_manifold, pulse, well):
        length = desk_manifold.params.domain_length
        man1 = PulseManifold(
            well, pulse, desk_manifold.bg2,
            SystemParams(0.05, 8.0, 1, pulse.mass_h * 1.01, 8.0,
                         well.alpha_minus),
            desk_manifold.grid,
        )
        cfg = man1.configuration([length / 2])
        u = man1.build(cfg).u_n
        expected = well.b_minus + pulse.pulse_bar(
            desk_manifold.grid.nodes - length / 2
        )
        assert_allclose(u.values, expected, atol=1e-14)

    def test_additivity(self, desk_manifold, well):
        cfg_ab = desk_manifold.configuration([30.0, 60.0, 95.0])
        u_ab = desk_manifold.build(cfg_ab).u_n
        total = np.full_like(u_ab.values, well.b_minus)
        for p in cfg_ab.positions:
            total += desk_manifold.pulse.pulse_bar(
                desk_manifold.grid.nodes - p
            )
        assert_allclose(u_ab.values, total, atol=1e-14)

    def test_tail_bound_away_from_pulses(self, desk_manifold, well, pulse):
        cfg = desk_manifold.configuration([30.0, 60.0, 95.0])
        u = desk_manifold.build(cfg).u_n
        z = desk_manifold.grid.nodes
        ell = desk_manifold.params.min_spacing
        dist = np.min(
            np.abs(z[:, None] - cfg.positions[None, :]), axis=1
        )
        far = dist >= ell / 2
        bound = (
            cfg.n
            * pulse.phi_max
            * np.exp(-np.sqrt(well.alpha_minus) * ell / 2)
            * 1.01
        )
        assert np.max(np.abs(u.values[far] - well.b_minus)) <= bound


class TestInternalParameters:
    def test_mass_split_guard(self, desk_manifold, well, pulse):
        with pytest.raises(MassSplitError):
            PulseManifold(
                well, pulse, desk_manifold.bg2,
                SystemParams(0.05, 8.0, 3, 3 * pulse.mass_h, 8.0,
                             well.alpha_minus),
                desk_manifold.grid,
            )

    def test_symmetric_configuration_mirrors(self, desk_manifold):
        length = desk_manifold.params.domain_length
        cfg = desk_manifold.configuration([50.0, length / 2, length - 50.0])
        p0, p_np1 = shadow_locations(desk_manifold.build(cfg).internal)
        left = p0 + cfg.positions[0]
        right = p_np1 + cfg.positions[-1] - 2 * length
        assert left == pytest.approx(-right, abs=1e-6)

    def test_lambda_seed_agreement_documented_case(self, manifold_factory,
                                                   pulse):
        # L = 120, two pulses, excess mass M_h/2, equispaced: the refined
        # multiplier stays within O(delta) of the closed-form seed
        man = manifold_factory(length=120.0, n=2, ell=8.0, num_points=1536,
                               excess=0.5)
        internal = man.build(man.equispaced()).internal
        delta = man.params.tail_scale
        assert internal.residual <= 1e-13 * man.params.total_mass
        rel = abs(internal.lam / internal.lam_seed - 1.0)
        assert rel <= 10 * delta

    @pytest.mark.parametrize("setting, positions, mirrored", [
        # the right edge amplitude a1 - b1 L is negative
        (dict(length=120.0, n=2, ell=8.0, num_points=1536, excess=0.5),
         [30.0, 90.0], False),
        # Phi_zzz(0) balances lambda B_2 only with a negative left amplitude
        (dict(n=1), [41.8], False),
        # B_2 vanishes at both ends, so the mirror image is exact
        (dict(), [50.0, 80.0, 110.0], True),
    ])
    def test_closure_balances_each_term(self, manifold_factory, setting,
                                        positions, mirrored):
        """Each no-flux condition at z = 0, L balances to 1e-12 of its
        largest term (u_n, lambda B_{2,n} or E), and the mass to rounding;
        a mirror-symmetric configuration gets mirrored edge coefficients."""
        man = manifold_factory(**setting)
        cfg = man.configuration(positions)
        prof = man.build(cfg)
        internal = prof.internal
        ends = np.array([0.0, man.params.domain_length])
        pulse = sum(man.pulse.pulse_jet(ends - p, 3) for p in positions)
        last = man.grid.num_points - 1
        bg = internal.lam * sum(man._translates(cfg, np.array([0, last]), 3)[1])
        for order in (1, 3):
            edge = edge_term_oracle(man, internal, ends, order)
            terms = np.array([pulse[order], bg[order], edge])
            balance = np.abs(terms.sum(axis=0))
            assert np.all(balance <= 1e-12 * np.max(np.abs(terms), axis=0))
        total = man.params.total_mass
        assert abs(prof.mass_value - total) <= 16 * np.finfo(float).eps * total
        if mirrored:
            assert internal.a1 == pytest.approx(internal.a0, rel=1e-12, abs=0)
            assert internal.b1 == pytest.approx(-internal.b0, rel=1e-12, abs=0)

    def test_lambda_partial_derivative_small(self, desk_manifold):
        cfg = moderate_config(desk_manifold)
        h = 1e-4
        lp = desk_manifold.build(cfg.shifted(0, h)).internal.lam
        lm = desk_manifold.build(cfg.shifted(0, -h)).internal.lam
        eps_delta = (
            desk_manifold.params.epsilon * desk_manifold.params.tail_scale
        )
        assert abs(lp - lm) / (2 * h) <= 50 * eps_delta

    def test_shadow_mirror_to_tail_accuracy(self, desk_manifold):
        cfg = moderate_config(desk_manifold)
        p0 = shadow_locations(desk_manifold.build(cfg).internal)[0]
        # |p0 + p1| small (tail-correction sized, far below the gap scale)
        assert abs(p0 + cfg.positions[0]) < 0.05


class TestBuild:
    def test_closure_invariants(self, desk_manifold):
        prof = desk_manifold.build(moderate_config(desk_manifold))
        assert np.max(np.abs(prof.bc_residuals)) < 1e-8
        total = desk_manifold.params.total_mass
        assert abs(prof.mass_value - total) / total < 1e-10

    def test_mass_operator(self, desk_manifold, well):
        grid = desk_manifold.grid
        const = ScalarField(grid, np.full(grid.num_points, well.b_minus))
        assert mass(const, well.b_minus) == pytest.approx(0.0, abs=1e-12)
        f = desk_manifold.build(moderate_config(desk_manifold)).u_n
        g = desk_manifold.build(
            desk_manifold.configuration([40.0, 60.0, 90.0])
        ).u_n
        lhs = mass(f + g - well.b_minus, well.b_minus)
        assert lhs == pytest.approx(
            mass(f, well.b_minus) + mass(g, well.b_minus), rel=1e-12
        )

    def test_single_pulse_mass_truncation(self, manifold_factory, pulse,
                                          well):
        man = manifold_factory(length=160.0, n=1, ell=8.0, num_points=2048)
        cfg = man.configuration([80.0])
        u = man.build(cfg).u_n
        err = abs(mass(u, well.b_minus) - pulse.mass_h)
        bound = np.exp(-np.sqrt(well.alpha_minus) * 80.0)
        assert err <= max(bound, 1e-12)

    def test_correction_small_in_h4(self, desk_manifold):
        # || Phi - u_n ||_H4 <= C * delta across sampled configurations
        delta = desk_manifold.params.tail_scale
        worst = 0.0
        for cfg in desk_manifold.sample_configurations(5, seed=7):
            prof = desk_manifold.build(cfg)
            stack = derivative_stack_oracle(desk_manifold, prof, 4,
                                            "correction")
            worst = max(worst, h4_norm_from_stack(desk_manifold.grid, stack))
        assert worst <= 500 * delta

    def test_manifold_in_invariant_plane(self, desk_manifold):
        prof1 = desk_manifold.build(moderate_config(desk_manifold))
        prof2 = desk_manifold.build(desk_manifold.equispaced())
        assert abs(mass(prof1.phi - prof2.phi, 0.0)) < 1e-10

    def test_residual_smallness_sweep(self, desk_manifold):
        delta = desk_manifold.params.tail_scale
        for cfg in desk_manifold.sample_configurations(4, seed=2):
            prof = desk_manifold.build(cfg)
            h4 = desk_manifold.residual_h4(prof)[1]
            assert h4 <= 5000 * delta

    def test_export_roundtrip(self, desk_manifold, tmp_path):
        """The ansatz experiment writes the desk start, the equispaced
        profile, with every value read back to its bits."""
        import csv as csvmod
        import json

        run_experiment(ExperimentConfig(experiment="ansatz", sample_size=1,
                                        output_dir=str(tmp_path)))
        prof = desk_manifold.build(desk_manifold.equispaced())
        with open(tmp_path / "ansatz_profile.csv") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["z", "phi", "u_n", "correction"]
        assert len(rows) == desk_manifold.grid.num_points + 1
        cols = np.array(rows[1:], dtype=float).T
        corr = prof.mass_correction.values + prof.boundary_correction.values
        for col, want in zip(cols, (desk_manifold.grid.nodes, prof.phi.values,
                                    prof.u_n.values, corr)):
            assert np.array_equal(col, want)
        doc = json.loads((tmp_path / "ansatz_internal.json").read_text())
        assert doc == prof.internal.as_dict()
        assert doc["residual"] <= 1e-13 * desk_manifold.params.total_mass
        assert {"a0", "b0", "a1", "b1", "lam"} <= doc.keys()


def tangent_setups(desk, diag, testbed):
    """(manifold, configuration) of the desk grid (N = 2048), the diagnostic
    grid (N = 1024) and the N = 256 dynamics testbed."""
    return {
        "desk": (desk, moderate_config(desk)),
        "diag": (diag, moderate_config(diag)),
        "testbed": (testbed, testbed.configuration([4.5, 12.0])),
    }


def relative_gaps(man, got, ref):
    """L2 distance of each row of got from ref over the L2 norm of ref's
    row: shape (n, orders)."""
    w = man.grid.quad_weights
    return np.sqrt(np.sum(w * (got - ref) ** 2, axis=-1)
                   / np.sum(w * ref**2, axis=-1))


class TestTangents:
    def test_gram_structure(self, desk_manifold, pulse):
        cfg = moderate_config(desk_manifold)
        tans, _ = desk_manifold.tangent_basis(desk_manifold.build(cfg))
        delta = desk_manifold.params.tail_scale
        gram = np.array(
            [[inner_product_x(a, b) for b in tans] for a in tans]
        )
        knorm2 = pulse.kernel_norm**2
        for i in range(3):
            for j in range(3):
                target = knorm2 if i == j else 0.0
                assert abs(gram[i, j] - target) <= 200 * delta

    def test_zero_mass(self, desk_manifold):
        # the mass equation is solved with the tangent, so its mass is
        # rounding: measured at most 6.8e-17, where the difference quotient
        # of whole builds at rel_step 1e-5 reads 3.0e-11
        prof = desk_manifold.build(moderate_config(desk_manifold))
        for t in desk_manifold.tangent_basis(prof)[0]:
            assert abs(mass(t, 0.0)) <= 1e-14

    def test_leading_term(self, desk_manifold, pulse):
        cfg = moderate_config(desk_manifold)
        tans, _ = desk_manifold.tangent_basis(desk_manifold.build(cfg))
        delta = desk_manifold.params.tail_scale
        z = desk_manifold.grid.nodes
        for i in range(3):
            lead = ScalarField(desk_manifold.grid,
                               -pulse.pulse_bar_deriv(z - cfg.positions[i], 1))
            assert norm(tans[i] - lead, "l2") <= 100 * delta

    def test_fd_second_order(self, desk_manifold):
        cfg = moderate_config(desk_manifold)
        grid = desk_manifold.grid
        coarse, mid, fine = (
            ScalarField(grid, fd_tangents(desk_manifold, cfg, h)[1, 0])
            for h in (4e-5, 2e-5, 1e-5)
        )
        e1 = norm(coarse - fine, "l2")
        e2 = norm(mid - fine, "l2")
        assert e1 / max(e2, 1e-16) == pytest.approx(5.0, abs=2.0)

    @pytest.mark.parametrize("setup", ["desk", "diag", "testbed"])
    def test_exact_matches_fd_to_second_order(self, desk_manifold,
                                              diag_manifold, small_manifold,
                                              setup):
        # the finite-difference gap falls 4x per halving of the step, so the
        # exact tangent is its h -> 0 limit; measured 4.000 +- 0.002
        man, cfg = tangent_setups(desk_manifold, diag_manifold,
                                  small_manifold)[setup]
        _, stacks = man.tangent_basis(man.build(cfg))
        gaps = [np.max(relative_gaps(man, stacks[:, 0],
                                     fd_tangents(man, cfg, h)[:, 0]))
                for h in (4e-4, 2e-4, 1e-4, 5e-5)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=1.0)
        # measured: at most 1.0e-9 (desk) and 3.5e-10 (testbed)
        fine = relative_gaps(man, stacks[:, 0], fd_tangents(man, cfg, 1e-5)[:, 0])
        assert np.max(fine) <= 5e-9

    @pytest.mark.parametrize("setup", ["desk", "diag", "testbed"])
    def test_stacks_match_fd(self, desk_manifold, diag_manifold,
                             small_manifold, setup):
        # at rel_step 1e-5 the difference quotients are within 6.1e-9 of the
        # exact stacks at every order, except orders 1 and 3 of a translate
        # with a grid node within 1e-3 of its center (desk pulse 3, node 435
        # at z - p = 9.8e-4): 6.7e-7 and 4.6e-7, a gap that levels off as
        # the step shrinks instead of falling as h^2. The oracle carries it:
        # it differentiates phi_bar' = -sign(x) sqrt(2 W_bar(phi_bar)),
        # whose relative error grows near the peak as W_bar -> 0 (3.3e-6 at
        # x = 1e-3), while the exact order 1 is phi_bar'' = W'(b_minus +
        # phi_bar), which the second difference of phi_bar matches to 1.1e-8
        # there.
        man, cfg = tangent_setups(desk_manifold, diag_manifold,
                                  small_manifold)[setup]
        _, stacks = man.tangent_basis(man.build(cfg))
        gaps = relative_gaps(man, stacks, fd_tangents(man, cfg, 1e-5))
        assert stacks.shape == (man.n, 5, man.grid.num_points)
        assert np.all(gaps[:, [0, 2, 4]] <= 1e-8)
        assert np.all(gaps[:, [1, 3]] <= 1e-6)

    def test_tangent_at_the_admissibility_floor(self, desk_manifold):
        # the exact tangent needs no step across the floor, where the
        # difference quotient at rel_step 1e-3 raised AdmissibilityError
        cfg = desk_manifold.configuration([4.0001, 30.0, 80.0])
        tans, stacks = desk_manifold.tangent_basis(desk_manifold.build(cfg))
        assert np.all(np.isfinite(stacks))
        for t in tans:
            assert abs(mass(t, 0.0)) <= 1e-14
        # measured: at most 8.8e-10
        ref = fd_tangents(desk_manifold, cfg, 1e-5)
        assert np.max(relative_gaps(desk_manifold, stacks[:, 0],
                                    ref[:, 0])) <= 5e-9
