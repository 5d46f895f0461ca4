"""Reduction pipelines: coboundary construction, fiber sampling, centers,
orthogonal and conformal conjugation."""

import numpy as np
import pytest

from cocyclelab import centers, presets, spd
from cocyclelab.centers import PointSet, SPDSpace, chebyshev_center
from cocyclelab.circle import ParabolicBase
from cocyclelab.cocycles import MatrixCocycle, matrix_products
from cocyclelab.errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyCell,
    NonFinite,
    NotOrthogonal,
    NotPositiveDefinite,
    NotUnitDeterminant,
    SingularMatrix,
)
from cocyclelab.presets import (
    coboundary_cocycle,
    conformal_coboundary_cocycle,
    conjugacy_direction,
    golden_rotation,
    rotation_matrix,
    scalar_orthogonal_cocycle,
)
from cocyclelab.reduction import (
    construct_coboundary,
    oracle_section_distance,
    reduce_to_conformal,
    reduce_to_orthogonal,
    sample_fibers,
    section_from_centers,
)
from cocyclelab.solvers import Section

from conftest import (
    constant_generators,
    reference_invariance_residual,
    reference_oracle_distances,
    sequential_congruence_orbit,
)


def identity_cocycle(base):
    return MatrixCocycle(base, 2, constant_generators(np.eye(2)))


class TestConstructCoboundary:
    def test_trivial_loops_give_identity(self):
        base = golden_rotation()
        c = construct_coboundary(
            lambda x: np.eye(2), lambda x: np.eye(2), base
        )
        for x in (0.0, 0.3, 0.9):
            assert np.max(np.abs(c.generator(x) - np.eye(2))) <= 1e-12

    def test_non_orthogonal_q_rejected(self):
        base = golden_rotation()
        with pytest.raises(NotOrthogonal, match=r"q_gen at x = 0\.0 "):
            construct_coboundary(
                lambda x: np.eye(2), lambda x: np.diag([1.0, 1.1]), base
            )

    def test_non_finite_q_rejected(self):
        # NaN fails no orthogonality tolerance test, so it is refused first.
        base = golden_rotation()

        def q_gen(x):
            return np.full((2, 2), np.nan) if x == 0.5 else np.eye(2)

        with pytest.raises(NonFinite, match=r"q_gen at x = 0\.5 "):
            construct_coboundary(lambda x: np.eye(2), q_gen, base)

    def test_products_bounded_by_conjugacy(self):
        # ||A(k, x)|| <= e^{2 ||S0||} for B = exp(sin(2 pi x) S0).
        c = coboundary_cocycle(s0_norm=0.7)
        rep = matrix_products(c, 0.2, 100_000)
        assert rep.max_norm <= np.exp(2 * 0.7) + 1e-9
        assert rep.max_inv_norm <= np.exp(2 * 0.7) + 1e-9

    def test_oracle_section_is_invariant(self):
        c = coboundary_cocycle()
        base = c.base
        for x in np.linspace(0.05, 0.95, 7):
            lhs = spd.gl_action(c.generator(x), c.oracle_section(x))
            rhs = c.oracle_section(base.step(x))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_conformal_oracle_section_is_invariant(self):
        c = conformal_coboundary_cocycle()
        base = c.base
        for x in np.linspace(0.05, 0.95, 7):
            lhs = spd.conf_action(c.generator(x), c.oracle_section(x))
            rhs = c.oracle_section(base.step(x))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
            assert abs(np.linalg.det(c.oracle_section(x)) - 1.0) <= 1e-10

    def test_generator_batch_matches_scalar(self):
        c = coboundary_cocycle()
        xs = np.linspace(0.0, 0.99, 13)
        batch = c.generators_along(xs)
        for x, a in zip(xs, batch):
            assert np.max(np.abs(a - c.generator(x))) <= 1e-12

    @pytest.mark.parametrize("make", [
        coboundary_cocycle, conformal_coboundary_cocycle,
        scalar_orthogonal_cocycle, lambda: coboundary_3x3(),
    ])
    def test_oracle_section_is_array_valued(self, make):
        c = make()
        xs = np.linspace(0.0, 0.99, 17)
        stack = c.oracle_section(xs)
        assert stack.shape == (17, c.dim, c.dim)
        want = np.array([c.oracle_section(x) for x in xs])
        assert want.shape == stack.shape
        assert np.max(np.abs(stack - want)) <= 1e-15

    def test_stacks_scalar_maps_without_batches(self):
        # Without b_batch and q_batch the scalar maps are stacked; the
        # generators match the defining product point by point.
        c = coboundary_3x3()
        xs = np.linspace(0.05, 0.95, 9)
        b = [spd.spd_exp(np.sin(2 * np.pi * x) * S0_3X3) for x in xs]
        b_next = [spd.spd_exp(np.sin(2 * np.pi * c.base.step(x)) * S0_3X3)
                  for x in xs]
        q = [rotation_3x3(x) for x in xs]
        want = np.array([bn @ qq @ np.linalg.inv(bb)
                         for bn, qq, bb in zip(b_next, q, b)])
        assert np.max(np.abs(c.generators_along(xs) - want)) <= 1e-13
        phi = np.array([bb @ bb.T for bb in b])
        assert np.max(np.abs(c.oracle_section(xs) - phi)) <= 1e-13

    def test_singular_conjugacy_raises_typed_error(self):
        # B(x) = diag(1, 0) for x >= 0.9 has no inverse: SingularMatrix,
        # which the CLI maps to an exit code, naming the entry.
        def b_gen(x):
            return np.diag([1.0, 0.0 if x >= 0.9 else 1.0])

        with pytest.raises(SingularMatrix, match="entry"):
            construct_coboundary(b_gen, lambda x: np.eye(2), golden_rotation())
        # Singular only between the bound's sample points k / 64, so the
        # cocycle is built and its generators raise.
        def b_gap(x):
            return np.diag([1.0, 0.0 if 0.907 <= x < 0.92 else 1.0])

        c = construct_coboundary(b_gap, lambda x: np.eye(2), golden_rotation())
        with pytest.raises(SingularMatrix, match="entry 1"):
            c.generators_along(np.array([0.5, 0.91]))


S0_3X3 = np.array([[0.5, 0.2, -0.1], [0.2, -0.3, 0.25], [-0.1, 0.25, 0.1]])


def rotation_3x3(x):
    c, s = np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def coboundary_3x3(scalar_gen=None):
    """B(x) = exp(sin(2 pi x) S0), Q(x) the rotation by 2 pi x about e_3,
    given as scalar maps only."""
    return construct_coboundary(
        lambda x: spd.spd_exp(np.sin(2 * np.pi * x) * S0_3X3), rotation_3x3,
        golden_rotation(), dim=3, scalar_gen=scalar_gen,
    )


def constant_cocycle(a):
    return MatrixCocycle(golden_rotation(), len(a), constant_generators(a))


class TestSampleFibers:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("conformal", [False, True])
    def test_points_match_sequential_congruence(self, n, conformal):
        if n == 2:
            c = (conformal_coboundary_cocycle() if conformal
                 else coboundary_cocycle())
        else:
            c = coboundary_3x3(
                (lambda x: np.exp(0.3 * np.cos(2 * np.pi * np.asarray(x))))
                if conformal else None
            )
        x0, steps, cells = 0.2, 1600, 16
        v0 = c.oracle_section(x0)
        if conformal:
            v0 = spd.unit_determinant(v0)
        fb = sample_fibers(c, x0, v0, steps, cells, conformal=conformal)
        xs = c.base.orbit(x0, steps)
        want = sequential_congruence_orbit(
            c.generators_along(xs[:-1]), v0, conformal
        )
        cell = np.minimum((xs * cells).astype(int), cells - 1)
        want = want[np.argsort(cell, kind="stable")]
        got = np.concatenate(fb.cell_points)
        err = np.abs(got - want).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=(1, 2)))
        if conformal:
            # Renormalized once: no determinant drift along the orbit.
            assert np.abs(np.linalg.det(got) - 1.0).max() <= 5e-15

    def test_singular_conformal_generator_rejected(self):
        c = constant_cocycle(np.diag([1.0, 1e-13]))
        with pytest.raises(SingularMatrix):
            sample_fibers(c, 0.2, np.eye(2), 3200, 64, conformal=True)

    def test_degenerate_fibre_point_rejected(self):
        # A shear of det 1 whose first image M M^T = [[1 + t^2, t], [t, 1]]
        # loses its determinant to rounding at t = 1e9.
        c = constant_cocycle(np.array([[1.0, 1e9], [0.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            sample_fibers(c, 0.2, np.eye(2), 3200, 64, conformal=True)

    def test_identity_cocycle_degenerate_fibers(self, rng):
        base = golden_rotation()
        c = identity_cocycle(base)
        v0 = spd.spd_exp(0.3 * np.eye(2))
        fb = sample_fibers(c, 0.2, v0, 3000, 32)
        assert fb.min_occupancy >= 1
        assert fb.diameters.max() <= 1e-12
        for pts in fb.cell_points:
            assert np.max(np.abs(pts - v0)) <= 1e-12

    def test_occupancy_heuristic_enforced(self):
        c = identity_cocycle(golden_rotation())
        with pytest.raises(ConfigInvalid):
            sample_fibers(c, 0.2, np.eye(2), 100, 32)

    @pytest.mark.parametrize("cells", [0, -4])
    def test_cells_below_one_rejected(self, cells):
        c = identity_cocycle(golden_rotation())
        with pytest.raises(ConfigInvalid):
            sample_fibers(c, 0.2, np.eye(2), 1000, cells)

    def test_parabolic_base_fails_density(self):
        base = ParabolicBase()
        c = identity_cocycle(base)
        with pytest.raises(EmptyCell):
            sample_fibers(c, 0.3, np.eye(2), 3200, 64)

    def test_on_graph_diameters_shrink_under_refinement(self):
        c = coboundary_cocycle()
        v0 = c.oracle_section(0.2)
        coarse = sample_fibers(c, 0.2, v0, 8000, 32)
        fine = sample_fibers(c, 0.2, v0, 32000, 128)
        assert fine.diameters.max() < coarse.diameters.max()

    @pytest.mark.parametrize("conformal", [False, True])
    def test_certified_diameters_match_brute_force(self, conformal):
        c = (conformal_coboundary_cocycle() if conformal
             else coboundary_cocycle())
        fb = sample_fibers(c, 0.2, c.oracle_section(0.2), 6400, 64,
                           conformal=conformal)
        for pts, diam in zip(fb.cell_points, fb.diameters):
            assert abs(diam - spd.pairwise_spd_distances(pts).max()) <= 1e-12

    def test_off_graph_diameter_near_constancy(self):
        # Fibers of an orbit closure have constant diameter; the sampled
        # per-cell spread shrinks under refinement while the level stays.
        c = conformal_coboundary_cocycle()
        coarse = sample_fibers(c, 0.2, np.eye(2), 60_000, 64, conformal=True)
        fine = sample_fibers(c, 0.2, np.eye(2), 240_000, 128, conformal=True)
        assert fine.diameter_spread() < coarse.diameter_spread()
        assert abs(fine.diameters.mean() - coarse.diameters.mean()) <= 0.1
        assert coarse.diameters.mean() > 1.0  # genuinely non-degenerate


class TestSectionFromCenters:
    def test_singleton_fibers_return_the_point(self):
        c = identity_cocycle(golden_rotation())
        v0 = spd.spd_exp(0.4 * np.eye(2))
        fb = sample_fibers(c, 0.2, v0, 3000, 32)
        got = section_from_centers(fb)
        assert np.max(np.abs(got.section.values - v0)) <= 1e-12
        assert got.invariance_residual <= 1e-12

    def test_center_tol_is_accepted_and_ignored(self):
        # Kept for callers that still pass it; every centre is certified.
        c = coboundary_cocycle()
        fb = sample_fibers(c, 0.2, c.oracle_section(0.2), 4000, 16)
        a = section_from_centers(fb)
        b = section_from_centers(fb, center_tol=1e-2)
        assert np.array_equal(a.section.values, b.section.values)
        assert np.max(a.center_gaps) <= 1e-12

    def test_oracle_distance_decreases_under_refinement(self):
        c = coboundary_cocycle()
        v0 = c.oracle_section(0.2)
        coarse = section_from_centers(
            sample_fibers(c, 0.2, v0, 8000, 32)
        )
        fine = section_from_centers(
            sample_fibers(c, 0.2, v0, 48000, 128)
        )
        d_coarse = oracle_section_distance(coarse.section, c.oracle_section)
        d_fine = oracle_section_distance(fine.section, c.oracle_section)
        assert d_fine < d_coarse

    def test_off_graph_reports_match_chebyshev_center(self):
        # From v0 = I the fibres are off the graph of phi*: some cells fail
        # the pair certificate and take the tangent-ball search, from the
        # stored midpoint, exactly as chebyshev_center does.
        c = conformal_coboundary_cocycle()
        fb = sample_fibers(c, 0.2, np.eye(2), 1600, 16, conformal=True)
        got = section_from_centers(fb)
        space = SPDSpace(2, conformal=True)
        moved = 0
        for i, pts in enumerate(fb.cell_points):
            want = chebyshev_center(PointSet(space, pts))
            assert np.array_equal(got.section.values[i], want.center)
            assert got.center_gaps[i] == want.radius - want.lower_bound
            assert got.center_supports[i] == want.support
            moved += want.iterations > 0
        assert moved > 0

    def test_scans_do_not_grow_with_cells(self, monkeypatch):
        # Diameters and centres share one certificate of three segmented
        # scans per pass, so the number of distance scans of a pipeline
        # does not depend on the number of cells.
        c = coboundary_cocycle()
        v0 = c.oracle_section(0.2)
        real = spd.spd_distances_from
        scans = {}
        for cells in (64, 128):
            calls = []

            def counted(*args):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(spd, "spd_distances_from", counted)
            section_from_centers(sample_fibers(c, 0.2, v0, 6400, cells))
            monkeypatch.undo()
            scans[cells] = len(calls)
        assert scans[64] == scans[128] < 64

    def test_one_geodesic_call_per_pass(self, monkeypatch):
        # Each pass of the certificate takes all its midpoints in one
        # stacked geodesic call, whatever the number of cells.
        c = coboundary_cocycle()
        v0 = c.oracle_section(0.2)
        real_certify, real_geodesic = centers._certify, SPDSpace.geodesic
        for cells in (64, 128):
            passes, geodesics = [], []

            def certify(*args):
                passes.append(1)
                return real_certify(*args)

            def geodesic(*args):
                geodesics.append(1)
                return real_geodesic(*args)

            monkeypatch.setattr(centers, "_certify", certify)
            monkeypatch.setattr(SPDSpace, "geodesic", geodesic)
            section_from_centers(sample_fibers(c, 0.2, v0, 6400, cells))
            monkeypatch.undo()
            # 6400 points take two passes of at most PAIR_CHUNK points.
            assert len(geodesics) == len(passes) == 2

    def test_centers_commute_with_congruence(self, rng):
        # Recomputing after a fixed g in GL(2) conjugates the section.
        c = coboundary_cocycle()
        v0 = c.oracle_section(0.2)
        fb = sample_fibers(c, 0.2, v0, 4000, 16)
        got = section_from_centers(fb)
        g = rng.standard_normal((2, 2)) + 1.5 * np.eye(2)
        mapped_cells = [
            np.array([spd.gl_action(g, p) for p in pts])
            for pts in fb.cell_points
        ]
        space = SPDSpace(2)
        for i in (0, 7, 15):
            mapped_center = chebyshev_center(
                PointSet(space, mapped_cells[i])
            ).center
            want = spd.gl_action(g, got.section.values[i])
            assert spd.spd_distance(mapped_center, want) <= 1e-6


def reference_defects(c, phi, conformal):
    """Per-cell defects of the conjugated cocycle, one cell at a time."""
    if isinstance(phi, Section):
        thetas, cells = phi.thetas, len(phi.thetas)

        def here(i):
            return phi.values[i]

        def there(i):
            return phi.values[int(c.base.step(thetas[i]) * cells) % cells]
    else:
        thetas = (np.arange(512) + 0.5) / 512

        def here(i):
            return phi(thetas[i])

        def there(i):
            return phi(c.base.step(thetas[i]))
    defects, distortion = [], 0.0
    for i, x in enumerate(thetas):
        a = c.generator(x)
        a_tilde = np.linalg.inv(spd.spd_sqrt(there(i))) @ a @ spd.spd_sqrt(here(i))
        if conformal:
            a_tilde = spd.conf_normalizer(a) * a_tilde
            defects.append(np.linalg.norm(a_tilde @ a_tilde.T - np.eye(c.dim)))
            distortion = max(
                distortion, abs(np.linalg.cond(a_tilde, 2) - 1.0))
        else:
            defects.append(np.linalg.norm(a_tilde.T @ a_tilde - np.eye(c.dim)))
    return np.array(defects), distortion


def reduction_case(n, conformal):
    """A coboundary of dimension n and its exact section phi*, scaled to
    det 1 for the conformal pipeline."""
    if n == 2:
        c = conformal_coboundary_cocycle() if conformal else coboundary_cocycle()
    else:
        c = coboundary_3x3(
            (lambda x: np.exp(0.3 * np.cos(2 * np.pi * np.asarray(x))))
            if conformal else None
        )
    if not conformal:
        return c, c.oracle_section
    return c, lambda x: spd.unit_determinant(c.oracle_section(x))


class TestPerCellReferences:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("conformal", [False, True])
    def test_residual_and_oracle_distance_match_loop(self, n, conformal):
        c, oracle = reduction_case(n, conformal)
        fb = sample_fibers(c, 0.2, oracle(0.2), 1600, 32, conformal=conformal)
        got = section_from_centers(fb)
        want = reference_invariance_residual(fb, got.section.values)
        assert want > 1e-4  # a genuine residual, not rounding
        assert abs(got.invariance_residual - want) <= 1e-12
        distances = reference_oracle_distances(got.section, oracle)
        assert abs(oracle_section_distance(got.section, oracle)
                   - distances.max()) <= 1e-12

    @pytest.mark.parametrize("conformal", [False, True])
    def test_callable_of_wrong_shape_rejected(self, conformal):
        c = conformal_coboundary_cocycle()
        reduce = reduce_to_conformal if conformal else reduce_to_orthogonal
        with pytest.raises(DimensionMismatch, match="512 points"):
            reduce(c, lambda x: np.eye(2))
        with pytest.raises(DimensionMismatch, match="512 points"):
            reduce(c, lambda x: np.tile(np.eye(3), (len(x), 1, 1)))
        section = Section.from_samples(
            [0.25, 0.75], np.tile(np.eye(2), (2, 1, 1)))
        with pytest.raises(DimensionMismatch):
            oracle_section_distance(section, lambda x: np.eye(2))

    def test_callable_evaluated_twice_per_lookup(self):
        c = coboundary_cocycle()
        calls = []

        def oracle(xs):
            calls.append(np.shape(xs))
            return c.oracle_section(xs)

        reduce_to_orthogonal(c, oracle)
        assert calls == [(512,), (512,)]


class TestBatchedConjugation:
    @pytest.mark.parametrize("conformal", [False, True])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_matches_per_cell_loop(self, conformal, sampled):
        c = (conformal_coboundary_cocycle() if conformal
             else coboundary_cocycle())
        phi = c.oracle_section
        if sampled:
            thetas = (np.arange(96) + 0.5) / 96
            phi = Section.from_samples(
                thetas, np.array([c.oracle_section(x) for x in thetas]),
            )
        want, distortion = reference_defects(c, phi, conformal)
        if conformal:
            res = reduce_to_conformal(c, phi)
            assert abs(res.distortion_max_deviation - distortion) <= 1e-12
        else:
            res = reduce_to_orthogonal(c, phi)
        assert np.max(np.abs(res.per_cell_defect - want)) <= 1e-12


class TestReduceToOrthogonal:
    def test_identity_everything(self):
        c = identity_cocycle(golden_rotation())
        thetas = (np.arange(16) + 0.5) / 16
        phi = Section.from_samples(thetas, np.tile(np.eye(2), (16, 1, 1)))
        res = reduce_to_orthogonal(c, phi)
        assert res.defect <= 1e-14

    def test_oracle_section_reduces_exactly(self):
        c = coboundary_cocycle()
        res = reduce_to_orthogonal(c, c.oracle_section)
        assert res.defect <= 1e-9

    def test_center_section_reduces_with_cell_bias(self):
        c = coboundary_cocycle()
        v0 = c.oracle_section(0.2)
        fb = sample_fibers(c, 0.2, v0, 25_600, 128)
        got = section_from_centers(fb)
        res = reduce_to_orthogonal(c, got.section)
        assert res.defect <= 5e-2  # O(1/cells) lookup bias at 128 cells
        # Defect is controlled by the invariance residual (empirical 5x).
        assert res.defect <= 5.0 * max(got.invariance_residual, 1e-12)

    def test_b_is_spd_square_root(self):
        c = coboundary_cocycle()
        res = reduce_to_orthogonal(c, c.oracle_section)
        for i, theta in enumerate(res.section.thetas):
            b = res.b_values[i]
            assert spd.symmetry_defect(b) <= 1e-12
            assert spd.sym_eigen(b).values[-1] > 0
            phi = res.section.values[i]
            assert np.max(np.abs(b @ b.T - phi)) <= 1e-10


class TestReduceToConformal:
    def test_scalar_orthogonal_is_exactly_conformal(self):
        c = scalar_orthogonal_cocycle()
        fb = sample_fibers(c, 0.2, np.eye(2), 8000, 64, conformal=True)
        res = reduce_to_conformal(
            c, section_from_centers(fb).section
        )
        assert res.defect <= 1e-9
        assert res.distortion_max_deviation <= 1e-6

    def test_conformal_oracle_reduces_exactly(self):
        c = conformal_coboundary_cocycle()
        res = reduce_to_conformal(c, c.oracle_section)
        assert res.defect <= 1e-9
        assert res.distortion_max_deviation <= 1e-6

    def test_off_slice_section_rejected(self):
        c = coboundary_cocycle()
        with pytest.raises(NotUnitDeterminant):
            reduce_to_conformal(c, c.oracle_section)

    def test_conformal_center_path(self):
        c = conformal_coboundary_cocycle()
        fb = sample_fibers(c, 0.2, c.oracle_section(0.2), 25_600, 128,
                           conformal=True)
        res = reduce_to_conformal(
            c, section_from_centers(fb).section
        )
        assert res.defect <= 5e-2
        # Where the defect is tiny the reduced distortion is 1.
        assert res.distortion_max_deviation <= res.defect + 1e-9


class TestExpFamily:
    """B(x) = exp(sin(2 pi x) S0) from the spectral projectors of S0."""

    DIRECTIONS = [conjugacy_direction(0.7),
                  conjugacy_direction(0.7, traceless=True)]

    @pytest.mark.parametrize("s0", DIRECTIONS)
    def test_matches_matrix_exponential(self, s0):
        _, batch = presets._exp_family(s0)
        xs = np.concatenate([np.arange(256) / 256.0,
                             golden_rotation().orbit(0.2, 256)])
        got = batch(xs)
        for x, b in zip(xs, got):
            want = spd.spd_exp(np.sin(2.0 * np.pi * x) * s0)
            assert np.abs(b - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("s0", DIRECTIONS)
    def test_symmetric_bit_for_bit(self, s0):
        _, batch = presets._exp_family(s0)
        b = batch(golden_rotation().orbit(0.3, 5000))
        assert np.array_equal(b, b.transpose(0, 2, 1))

    @pytest.mark.parametrize("s0", DIRECTIONS)
    def test_single_is_batch_at_one_point(self, s0):
        single, batch = presets._exp_family(s0)
        for x in (0.0, 0.125, 0.3, 0.77):
            assert np.array_equal(single(x), batch([x])[0])


def test_sample_fibers_computes_one_orbit(monkeypatch):
    c = coboundary_cocycle()
    calls = []
    orbit = type(c.base).orbit
    monkeypatch.setattr(type(c.base), "orbit", lambda self, x0, n: (
        calls.append(n) or orbit(self, x0, n)))
    sample_fibers(c, 0.2, c.oracle_section(0.2), 3200, 64)
    assert calls == [3200]


def test_s0_scaling():
    s0 = conjugacy_direction(0.7)
    assert abs(np.linalg.norm(s0) - 0.7) <= 1e-12
    s0t = conjugacy_direction(0.7, traceless=True)
    assert abs(np.trace(s0t)) <= 1e-12
