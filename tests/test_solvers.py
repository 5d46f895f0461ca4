"""Twisted-equation solvers: Fourier inversion, cyclotomic reduction,
shift formulas, uniqueness and oscillation diagnostics."""

import cmath

import numpy as np
import pytest

from cocyclelab.circle import GOLDEN_MEAN
from cocyclelab.errors import (
    ConfigInvalid,
    MeanObstruction,
    NonFinite,
    NotASolution,
    ScaleTooFine,
    SmallDivisor,
    TruncationTooSmall,
)
from cocyclelab.presets import (
    golden_rotation,
    jump_cascade,
    shift_compact_section,
    shift_geometric,
    shift_single_mode,
)
from cocyclelab import solvers
from cocyclelab.cocycles import ShiftCocycle
from cocyclelab.solvers import (
    Section,
    TwistedEquation,
    cyclotomic_rhs,
    cyclotomic_solve,
    cyclotomic_verify,
    fourier_solve,
    orbit_reconstruction,
    oscillation_estimate,
    oscillation_profile,
    residual,
    shift_solve_bilateral,
    shift_solve_unilateral,
    uniqueness_gap,
)
from cocyclelab.trigpoly import TrigPoly

from conftest import traced_peak

ALPHA = GOLDEN_MEAN


class TestFourierSolve:
    def test_zero_data_zero_solution(self):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.zero())
        phi = fourier_solve(eq)
        assert phi.poly.coeffs == {}

    def test_single_mode_closed_form(self):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.single_mode(1))
        phi = fourier_solve(eq)
        want = 1.0 / (cmath.exp(2j * cmath.pi * ALPHA) - cmath.exp(1j))
        assert abs(phi.poly.coeffs[1] - want) <= 1e-15
        assert residual(eq, phi) <= 1e-10

    def test_mean_obstruction(self):
        eq = TwistedEquation(ALPHA, 0.0, TrigPoly.constant(1.0))
        with pytest.raises(MeanObstruction):
            fourier_solve(eq)

    def test_untwisted_zero_mean_solves(self, rng):
        rho = TrigPoly.random(5, rng)
        rho = rho - TrigPoly.constant(rho.coeffs.get(0, 0.0))
        eq = TwistedEquation(ALPHA, 0.0, rho)
        phi = fourier_solve(eq)
        thetas = np.arange(4096) / 4096
        lhs = phi.poly(thetas + ALPHA) - phi.poly(thetas)
        assert np.max(np.abs(lhs - rho(thetas))) <= 1e-10

    def test_small_divisor_lists_modes(self):
        # Put the twist on top of the mode-5 rotation angle: one divisor
        # collapses while others stay healthy.
        beta = 2.0 * np.pi * ((5 * ALPHA) % 1.0) + 1e-10
        rho = TrigPoly({1: 1.0, 5: 1.0})
        eq = TwistedEquation(ALPHA, beta, rho)
        with pytest.raises(SmallDivisor) as err:
            fourier_solve(eq)
        assert err.value.modes == [5]

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -1e-8])
    def test_floor_must_be_finite_and_non_negative(self, floor):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.single_mode(1))
        with pytest.raises(ConfigInvalid):
            fourier_solve(eq, floor)

    def test_divisor_ledger_recorded(self, rng):
        rho = TrigPoly.random(4, rng)
        eq = TwistedEquation(ALPHA, 1.0, rho)
        assert set(eq.divisors) == set(rho.modes())
        for n, v in eq.divisors.items():
            assert abs(v - abs(eq.divisor(n))) <= 1e-15


class TestResidual:
    def test_exact_solution(self, rng):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.random(6, rng))
        assert residual(eq, fourier_solve(eq)) <= 1e-10

    def test_zero_candidate_gives_sup_of_data(self, rng):
        rho = TrigPoly.random(3, rng)
        eq = TwistedEquation(ALPHA, 1.0, rho)
        zero = Section.from_trigpoly(TrigPoly.zero())
        assert abs(residual(eq, zero) - rho.sup_norm()) <= 1e-12

    def test_perturbation_linearity(self):
        # phi + eps e^{2 pi i theta} adds exactly eps |e^{2 pi i a} - e^{i b}|.
        eps = 1e-3
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.single_mode(2))
        phi = fourier_solve(eq)
        bumped = Section.from_trigpoly(
            phi.poly + TrigPoly.single_mode(1, eps)
        )
        want = eps * abs(eq.divisor(1))
        assert abs(residual(eq, bumped) - want) <= 1e-12


class TestCyclotomic:
    def test_rhs_q_one_is_plain_substitution(self, rng):
        rho = TrigPoly.random(3, rng)
        got = cyclotomic_rhs(rho, ALPHA, 1.0, 1)
        want = rho.shift(ALPHA) - rho.scale(cmath.exp(1j))
        thetas = np.arange(512) / 512
        assert np.max(np.abs(got(thetas) - want(thetas))) <= 1e-12

    def test_rhs_constant_data(self):
        got = cyclotomic_rhs(TrigPoly.constant(2.0), ALPHA, 1.0, 3)
        want = 2.0 * (1.0 - cmath.exp(1j / 3.0))
        assert abs(got.coeffs[0] - want) <= 1e-14

    def test_solve_q1_matches_fourier(self, rng):
        rho = TrigPoly.random(4, rng)
        a = cyclotomic_solve(rho, ALPHA, 1.0, 1)
        eq = TwistedEquation(
            ALPHA, 1.0, rho.shift(ALPHA) - rho.scale(cmath.exp(1j))
        )
        b = fourier_solve(eq)
        for n in set(a.poly.coeffs) | set(b.poly.coeffs):
            assert abs(a.poly.coeffs.get(n, 0) - b.poly.coeffs.get(n, 0)) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_solutions_verify(self, rng, q):
        rho = TrigPoly.random(8, rng)
        phi = cyclotomic_solve(rho, ALPHA, 1.0, q)
        assert cyclotomic_verify(phi, rho, ALPHA, 1.0, q) <= 1e-8

    def test_q2_beta0_square_root_equation(self):
        # For q = 2, beta = 0 the combination is the half-step doubling
        # equation phi(theta + alpha/2) + phi(theta) = rho(theta).
        rho = TrigPoly.single_mode(1)
        phi = cyclotomic_solve(rho, ALPHA, 0.0, 2)
        thetas = np.arange(4096) / 4096
        lhs = phi.poly(thetas + ALPHA / 2.0) + phi.poly(thetas)
        assert np.max(np.abs(lhs - rho(thetas))) <= 1e-10

    def test_verify_zero_candidate(self, rng):
        rho = TrigPoly.random(3, rng)
        zero = Section.from_trigpoly(TrigPoly.zero())
        got = cyclotomic_verify(zero, rho, ALPHA, 1.0, 3)
        assert abs(got - rho.sup_norm()) <= 1e-12

    def test_root_map_iterates_to_original(self, rng):
        # phi defines a q-th root of the skew map: q applications of
        # (theta, z) -> (theta + a/q, e^{i b/q} z + phi(theta)) equal one
        # application of (theta, z) -> (theta + a, e^{i b} z + rho(theta)).
        q, beta = 3, 1.0
        rho = TrigPoly.random(5, rng)
        phi = cyclotomic_solve(rho, ALPHA, beta, q)
        for theta0, z0 in ((0.13, 0.4 + 0.2j), (0.71, -1.1j)):
            theta, z = theta0, z0
            for _ in range(q):
                z = cmath.exp(1j * beta / q) * z + complex(phi.poly(theta))
                theta = (theta + ALPHA / q) % 1.0
            z_direct = cmath.exp(1j * beta) * z0 + complex(rho(theta0))
            assert abs(z - z_direct) <= 1e-9
            assert abs(theta - (theta0 + ALPHA) % 1.0) <= 1e-12


class TestShiftSolvers:
    def test_zero_data(self):
        c = ShiftCocycle(base=golden_rotation(), rho_coords={}, truncation=6)
        sol = shift_solve_unilateral(c, 0.3)
        assert np.all(sol.coords == 0) and sol.norm == 0.0

    def test_single_mode_explicit_coordinates(self):
        # rho_0 = e^{2 pi i x}: coordinate j is e^{2 pi i (x - (j+1) a)}.
        c = shift_single_mode(truncation=16)
        x = 0.3
        sol = shift_solve_unilateral(c, x)
        for j in range(17):
            want = cmath.exp(2j * cmath.pi * (x - (j + 1) * ALPHA))
            assert abs(sol.coords[j] - want) <= 1e-9
        assert "NotSquareSummable" in sol.flags
        assert sol.invariance_residual <= 1e-10

    def test_norm_grows_like_sqrt_truncation(self):
        a = shift_solve_unilateral(shift_single_mode(truncation=16), 0.3)
        b = shift_solve_unilateral(shift_single_mode(truncation=64), 0.3)
        assert abs(a.norm - np.sqrt(17.0)) <= 1e-9
        assert abs(b.norm - np.sqrt(65.0)) <= 1e-9

    def test_geometric_coordinates_and_bound(self):
        # rho_j = 2^{-j}: coordinate j = 2 - 2^{-j} <= 2 (geometric series).
        c = shift_geometric(truncation=20, levels=20)
        sol = shift_solve_unilateral(c, 0.3)
        for j in range(21):
            assert abs(sol.coords[j] - (2.0 - 0.5 ** j)) <= 1e-12
        assert sol.coordinate_bound <= 2.0 + 1e-12
        assert sol.invariance_residual <= 1e-10

    def test_compact_section_recovered(self):
        # Data built from a finitely supported section: the solver returns
        # exactly that section's coordinates.
        c = shift_compact_section(truncation=24)
        x = 0.41
        sol = shift_solve_unilateral(c, x)
        for j in range(25):
            want = c.known_section[j](x) if j in c.known_section else 0.0
            assert abs(sol.coords[j] - want) <= 1e-9
        assert sol.tail_fraction <= 1e-12
        assert not sol.flags

    def test_truncation_too_small(self):
        c = ShiftCocycle(
            base=golden_rotation(),
            rho_coords={4: TrigPoly.constant(1.0)},
            truncation=2,
        )
        with pytest.raises(TruncationTooSmall):
            shift_solve_unilateral(c, 0.1)

    def test_bilateral_single_constant(self):
        c = ShiftCocycle(
            base=golden_rotation(),
            rho_coords={0: TrigPoly.constant(1.0)},
            bilateral=True,
            truncation=6,
        )
        tail = 40
        sol = shift_solve_bilateral(c, 0.3, tail)
        # coordinate n collects rho_0 once for each inner index j = n.
        for n in range(-6, 7):
            want = 1.0 if 0 <= n <= tail else 0.0
            assert abs(sol.coords[n + 6] - want) <= 1e-12
        assert sol.invariance_residual <= 1e-12

    @pytest.mark.parametrize("tail", [-1, -2])
    def test_bilateral_negative_tail_rejected(self, tail):
        c = ShiftCocycle(
            base=golden_rotation(),
            rho_coords={0: TrigPoly.constant(1.0)},
            bilateral=True,
            truncation=6,
        )
        with pytest.raises(ConfigInvalid):
            shift_solve_bilateral(c, 0.3, tail)

    def test_bilateral_residual_vanishes_with_tail(self, rng):
        coords = {j: TrigPoly.random(1, rng, 0.5) for j in range(-2, 3)}
        c = ShiftCocycle(
            base=golden_rotation(), rho_coords=coords,
            bilateral=True, truncation=4,
        )
        shallow = shift_solve_bilateral(c, 0.3, tail=3)
        deep = shift_solve_bilateral(c, 0.3, tail=12)
        assert deep.invariance_residual <= 1e-12
        assert shallow.invariance_residual > deep.invariance_residual


class TestUniqueness:
    def test_same_section_gives_zero(self, rng):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.random(4, rng))
        phi = fourier_solve(eq)
        rep = uniqueness_gap(phi, phi, eq)
        assert rep.max_dev_from_const <= 1e-12
        assert abs(rep.mean) <= 1e-12

    def test_untwisted_allows_constants(self, rng):
        rho = TrigPoly.random(4, rng)
        rho = rho - TrigPoly.constant(rho.coeffs.get(0, 0.0))
        eq = TwistedEquation(ALPHA, 0.0, rho)
        phi1 = fourier_solve(eq)
        phi2 = Section.from_trigpoly(phi1.poly + TrigPoly.constant(0.7))
        rep = uniqueness_gap(phi1, phi2, eq, rationally_independent=False)
        assert rep.max_dev_from_const <= 1e-10
        assert abs(rep.mean + 0.7) <= 1e-12
        assert rep.mean_ok

    def test_cross_solver_oracle(self, rng):
        # Fourier solution vs orbit-substitution reconstruction.
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.random(6, rng))
        phi = fourier_solve(eq)
        recon = orbit_reconstruction(eq, 0.05, 4000, phi.poly(0.05))
        rep = uniqueness_gap(phi, recon, eq)
        assert rep.max_dev_from_const <= 1e-8
        assert rep.rationally_independent
        assert rep.mean_ok

    def test_non_solution_rejected(self, rng):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.random(3, rng))
        phi = fourier_solve(eq)
        junk = Section.from_trigpoly(phi.poly + TrigPoly.single_mode(2, 0.1))
        with pytest.raises(NotASolution):
            uniqueness_gap(phi, junk, eq)

    def test_rational_dependence_probe(self):
        eq = TwistedEquation(ALPHA, 2.0 * np.pi * 3.0 * ALPHA,
                             TrigPoly.single_mode(1))
        phi = fourier_solve(eq)
        rep = uniqueness_gap(phi, phi, eq)
        assert not rep.rationally_independent


class TestNonFiniteChecks:
    """Every self-check is written so that NaN fails it."""

    @pytest.mark.parametrize("alpha, beta", [
        (np.nan, 1.0), (ALPHA, np.inf), (ALPHA, np.nan),
    ])
    def test_non_finite_angles_rejected(self, alpha, beta):
        with pytest.raises(NonFinite):
            TwistedEquation(alpha, beta, TrigPoly.single_mode(1))

    def test_nan_residual_fails_fourier_self_check(self):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly({1: complex(np.nan, 0.0)}))
        with pytest.raises(NotASolution, match="nan"):
            fourier_solve(eq)

    def test_nan_divisor_fails_floor(self):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.single_mode(1))
        eq.alpha = np.nan
        with pytest.raises(SmallDivisor):
            fourier_solve(eq)

    def test_nan_residual_fails_cyclotomic_check(self, monkeypatch):
        monkeypatch.setattr(solvers, "cyclotomic_verify",
                            lambda *args, **kwargs: np.nan)
        with pytest.raises(NotASolution, match="cyclotomic residual nan"):
            cyclotomic_solve(TrigPoly.single_mode(1), ALPHA, 1.0, 2)

    def test_nan_residual_fails_uniqueness_check(self):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.single_mode(1))
        phi = fourier_solve(eq)
        junk = Section.from_trigpoly(TrigPoly({1: complex(np.nan, 0.0)}))
        with pytest.raises(NotASolution, match="nan"):
            uniqueness_gap(phi, junk, eq)

    @pytest.mark.parametrize("grid", [0, -2])
    def test_residual_grid_below_one_rejected(self, grid):
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.single_mode(1))
        with pytest.raises(ConfigInvalid):
            residual(eq, fourier_solve(eq), grid)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, bad):
        thetas = np.arange(256) / 256
        sec = Section.from_samples(thetas, np.exp(2j * np.pi * thetas))
        with pytest.raises(ConfigInvalid, match="must be finite"):
            oscillation_profile(sec, 0.3, [0.05, bad])


class TestOscillation:
    def test_smooth_section_linear_decay(self):
        thetas = np.arange(4096) / 4096
        values = np.exp(2j * np.pi * thetas)
        sec = Section.from_samples(thetas, values)
        scales = [0.05, 0.02, 0.01]
        prof = oscillation_profile(sec, 0.3, scales)
        # Lipschitz section: proxy ~ 2 pi * (2 s), linear in the scale.
        for s in scales:
            assert prof[s] <= 2.0 * np.pi * 2.0 * s * 1.05
        assert prof[0.01] < prof[0.05]

    def test_jump_candidate_keeps_oscillation(self):
        jc = jump_cascade()
        thetas = np.arange(4096) / 4096
        sec = Section.from_samples(thetas, jc.candidate_values(thetas))
        prof = oscillation_profile(sec, 0.0, [0.05, 0.02, 0.01])
        for v in prof.values():
            assert v >= 0.9 * jc.jump

    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 300])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["C1", "C2"])
    def test_row_blocks_match_all_pairs(self, rng, m, shape):
        # The largest distance over the full m x m difference array, bit
        # for bit; the scan visits each pair once, in blocks of rows.
        thetas = np.sort(rng.random(m))
        values = (rng.standard_normal((m,) + shape)
                  + 1j * rng.standard_normal((m,) + shape))
        sec = Section.from_samples(thetas, values)
        flat = values.reshape(m, -1)
        diff = flat[:, None, :] - flat[None, :, :]
        want = float(np.max(np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))))
        # Scale 4 keeps every sample, and is not below 4 sample spacings.
        assert oscillation_profile(sec, 0.1, [4.0]) == {4.0: want}

    def test_scale_with_one_sample_or_none(self):
        thetas = np.arange(64) / 640
        sec = Section.from_samples(thetas, np.exp(2j * np.pi * thetas))
        assert oscillation_profile(sec, 0.5, [0.1]) == {0.1: 0.0}
        assert oscillation_profile(sec, 63 / 640 + 0.049, [0.05]) == {0.05: 0.0}

    def test_memory_stays_at_row_blocks(self):
        # Scale 0.25 keeps 2049 of 4096 samples, whose full complex
        # difference array alone is 67 MB.
        jc = jump_cascade()
        thetas = np.arange(4096) / 4096
        sec = Section.from_samples(thetas, jc.candidate_values(thetas))
        assert traced_peak(lambda: oscillation_profile(sec, 0.0, [0.25])) < 8e6

    def test_invariant_section_oscillation_along_orbit(self, rng):
        # For a skew-invariant section the oscillation proxy is nearly
        # invariant along the base orbit (10% at matched scales).
        eq = TwistedEquation(ALPHA, 1.0, TrigPoly.random(4, rng))
        phi = fourier_solve(eq)
        thetas = np.arange(8192) / 8192
        sec = Section.from_samples(thetas, phi.poly(thetas))
        x = 0.3
        tx = (x + ALPHA) % 1.0
        for s in (0.02, 0.01):
            a = oscillation_estimate(sec, x, [s])
            b = oscillation_estimate(sec, tx, [s])
            assert abs(a - b) <= 0.1 * max(a, b)

    def test_scale_too_fine(self):
        thetas = np.arange(256) / 256
        sec = Section.from_samples(thetas, np.zeros(256, dtype=complex))
        with pytest.raises(ScaleTooFine):
            oscillation_estimate(sec, 0.1, [1e-3])

    def test_needs_sampled_section(self):
        sec = Section.from_trigpoly(TrigPoly.single_mode(1))
        with pytest.raises(ConfigInvalid):
            oscillation_estimate(sec, 0.1, [0.05])


def test_trigpoly_serialization_round_trip(rng):
    poly = TrigPoly.random(5, rng)
    back = TrigPoly.from_json(poly.to_json())
    assert back.coeffs == poly.coeffs
