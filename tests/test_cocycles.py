"""Cocycle algebra, twisted sums, probes, recurrence, shift machinery."""

import numpy as np
import pytest

from cocyclelab import cocycles
from cocyclelab.circle import GOLDEN_MEAN, RotationBase
from cocyclelab.cocycles import (
    SCAN_BLOCK,
    FiniteIsometry,
    GridIsometryTable,
    IsometryCocycle,
    MatrixCocycle,
    SemigroupPairCheck,
    ShiftCocycle,
    boundedness_probe,
    compose_along_orbit,
    gram_schmidt,
    iterate_skew,
    matrix_products,
    orbit_products,
    prefix_products,
    recurrence_isometries,
    semigroup_closure_check,
    shift_twisted_sum,
    twisted_birkhoff,
)
from cocyclelab.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonFinite,
    NotOrthogonal,
    TruncationTooSmall,
)
from cocyclelab.presets import (
    coboundary_isometry_cocycle,
    golden_rotation,
    jump_cascade,
    rotation_matrix,
    rotation_translation_cocycle,
    shift_compact_section,
)
from cocyclelab.trigpoly import TrigPoly

from conftest import (
    constant_generators,
    sequential_prefix_products,
    sequential_skew_orbit,
)


def constant_cocycle(base, dim, translation):
    vec = np.asarray(translation, dtype=float)
    return IsometryCocycle(
        base, dim,
        constant_linear=np.eye(dim),
        translation_batch_fn=lambda xs: np.tile(vec, (len(xs), 1)),
    )


def loop_gram_schmidt(M):
    """Modified Gram-Schmidt on the columns, one column at a time."""
    Q = np.array(M, dtype=float)
    for j in range(Q.shape[1]):
        for i in range(j):
            Q[:, j] -= (Q[:, i] @ Q[:, j]) * Q[:, i]
        Q[:, j] /= np.linalg.norm(Q[:, j])
    return Q


def scan_generators(rng, k, kind):
    """k random generators: scaled orthogonal d x d for kind "2" or "3",
    homogeneous [[Q, t], [0, 1]] with Q in O(2) for "affine3"."""
    d = 2 if kind == "affine3" else int(kind)
    q, _ = np.linalg.qr(rng.standard_normal((k, d, d)))
    if kind != "affine3":
        return q * np.exp(0.05 * rng.standard_normal((k, 1, 1)))
    gens = np.zeros((k, 3, 3))
    gens[:, :2, :2] = q
    gens[:, :2, 2] = rng.standard_normal((k, 2))
    gens[:, 2, 2] = 1.0
    return gens


# Orbit lengths at the scan's boundaries: one chunk, the totals of one
# chunk, and (1023 to 2051 with SCAN_BLOCK = 8) a third level of chunks.
B = SCAN_BLOCK
SCAN_LENGTHS = sorted({0, 1, 2, 3, B - 1, B, B + 1, B * B - 1, B * B,
                       B * B + 1, 2 * B * B + 3, 1023, 1024, 1025, 2051})


class TestPrefixProducts:
    @pytest.mark.parametrize("kind", ["2", "3", "affine3"])
    @pytest.mark.parametrize("k", SCAN_LENGTHS)
    def test_matches_sequential_loop(self, rng, kind, k):
        gens = scan_generators(rng, k, kind)
        got = prefix_products(gens)
        want = sequential_prefix_products(gens)
        assert got.shape == want.shape == (k + 1,) + gens.shape[1:]
        assert np.array_equal(got[0], np.eye(gens.shape[-1]))
        err = np.abs(got - want).max(axis=(1, 2))
        scale = np.maximum(np.abs(want).max(axis=(1, 2)), 1.0)
        assert np.all(err <= 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["2", "3", "affine3"])
    def test_prefix_stable(self, rng, kind):
        # M[j] must not depend on how far the orbit is walked: a shorter
        # stack gives the same bits, not just close values.
        gens = scan_generators(rng, SCAN_LENGTHS[-1], kind)
        full = prefix_products(gens)
        for j in SCAN_LENGTHS:
            assert np.array_equal(prefix_products(gens[:j])[-1], full[j]), j

    def test_names_first_non_finite_step(self, rng):
        # The error comes from the check of the whole result, so it names
        # the first product the NaN reaches, not a step of a chunk total.
        gens = scan_generators(rng, 2 * B * B + 3, "3")
        gens[B * B + 5] = np.nan
        with pytest.raises(NonFinite, match=rf"at step {B * B + 6} is"):
            prefix_products(gens)

    def test_non_finite_generator_rejected(self):
        def generators(xs):
            return np.where((np.asarray(xs) > 0.5)[:, None, None],
                            np.nan, np.eye(2))

        c = MatrixCocycle(golden_rotation(), 2, generators)
        with pytest.raises(NonFinite):
            matrix_products(c, 0.1, 100)

    def test_overflowing_products_rejected(self):
        c = MatrixCocycle(golden_rotation(), 2,
                          constant_generators(1e10 * np.eye(2)))
        with pytest.raises(NonFinite):
            matrix_products(c, 0.1, 100)

    def test_empty_orbit_generators(self):
        c = MatrixCocycle(golden_rotation(), 3, constant_generators(np.eye(3)))
        assert c.generators_along(np.array([])).shape == (0, 3, 3)
        rep = matrix_products(c, 0.1, 0)
        assert np.array_equal(rep.product, np.eye(3))


class TestGeneratorBatchShape:
    xs = np.array([0.1, 0.2, 0.3])

    def test_matrix_batch_of_wrong_layout_rejected(self):
        def rotations(xs):
            return np.stack([rotation_matrix(2 * np.pi * x) for x in xs])

        good = MatrixCocycle(golden_rotation(), 2, rotations)
        assert np.array_equal(good.generators_along(self.xs),
                              rotations(self.xs))
        assert np.array_equal(good.generator(0.2), rotations([0.2])[0])
        # Stacked along the last axis: the right size, the wrong order.
        last_axis = MatrixCocycle(
            golden_rotation(), 2,
            lambda xs: np.moveaxis(rotations(xs), 0, -1),
        )
        with pytest.raises(DimensionMismatch, match="3 points"):
            last_axis.generators_along(self.xs)
        flat = MatrixCocycle(golden_rotation(), 2,
                             lambda xs: np.ones((len(xs), 4)))
        with pytest.raises(DimensionMismatch):
            flat.generators_along(self.xs)

    def test_one_matrix_for_many_points_rejected(self):
        # A scalar map handed in as the generator answers one matrix.
        c = MatrixCocycle(golden_rotation(), 2, lambda xs: np.eye(2))
        with pytest.raises(DimensionMismatch, match="3 points"):
            c.generators_along(self.xs)

    def test_translation_batch_of_wrong_layout_rejected(self):
        def translations(xs):
            return np.column_stack([np.cos(xs), np.sin(xs)])

        good = IsometryCocycle(golden_rotation(), 2, constant_linear=np.eye(2),
                               translation_batch_fn=translations)
        assert np.array_equal(good.generators_along(self.xs)[:, :2, 2],
                              translations(self.xs))
        last_axis = IsometryCocycle(
            golden_rotation(), 2, constant_linear=np.eye(2),
            translation_batch_fn=lambda xs: translations(xs).T,
        )
        with pytest.raises(DimensionMismatch, match="3 points"):
            last_axis.generators_along(self.xs)
        one_linear = IsometryCocycle(
            golden_rotation(), 2, linear_batch_fn=lambda xs: np.eye(2),
            translation_batch_fn=translations,
        )
        with pytest.raises(DimensionMismatch):
            one_linear.generators_along(self.xs)

    @pytest.mark.parametrize("shape", [(3,), (3, 1)])
    def test_line_translations_as_vector_or_column(self, shape):
        c = IsometryCocycle(golden_rotation(), 1, constant_linear=np.eye(1),
                            translation_batch_fn=lambda xs: np.reshape(xs, shape))
        gens = c.generators_along(self.xs)
        assert np.array_equal(gens[:, 0, 1], self.xs)
        assert np.array_equal(gens[:, :, 0], np.tile([1.0, 0.0], (3, 1)))

    def test_line_translations_of_wrong_layout_rejected(self):
        c = IsometryCocycle(golden_rotation(), 1, constant_linear=np.eye(1),
                            translation_batch_fn=lambda xs: np.reshape(xs, (1, 3)))
        with pytest.raises(DimensionMismatch):
            c.generators_along(self.xs)


def skew_parts(kind, rng):
    """A cocycle with a constant, identity or table linear part, and its
    generator parts Psi(x), rho(x) evaluated point by point."""
    base = golden_rotation()
    if kind == "table":
        grid = np.arange(128) / 128
        table = GridIsometryTable(
            np.array([rotation_matrix(2 * np.pi * x) for x in grid]),
            np.column_stack([np.cos(2 * np.pi * grid), np.sin(4 * np.pi * grid)]),
            lipschitz_bound=20.0,
        )
        return (IsometryCocycle.from_table(base, table), table.linear_at,
                table.translation_at)
    poly = TrigPoly.random(3, rng)

    def rho(x):
        z = poly(x)
        return np.array([z.real, z.imag])

    psi = rotation_matrix(0.9) if kind == "constant" else np.eye(2)
    c = IsometryCocycle(
        base, 2, constant_linear=psi,
        translation_batch_fn=lambda xs: np.array([rho(x) for x in xs]),
    )
    return c, (lambda x: psi), rho


class TestAgainstSequentialLoop:
    @pytest.mark.parametrize("kind", ["constant", "identity", "table"])
    def test_iterate_skew_and_probe(self, rng, kind):
        c, psi, rho = skew_parts(kind, rng)
        # Long enough for three levels of carries at SCAN_BLOCK = 8: 257
        # chunks, 32 chunks of their totals, then 4.
        x0, v0, n = 0.2, np.array([0.3, -0.7]), 2053
        xs = c.base.orbit(x0, n)
        want = sequential_skew_orbit([psi(x) for x in xs],
                                     [rho(x) for x in xs], v0)
        tol = 1e-12 * max(1.0, np.abs(want).max())
        for k in (0, 1, SCAN_BLOCK, n):
            x_k, v_k = iterate_skew(c, x0, v0, k)
            assert x_k == c.base.step_n(x0, k)
            assert np.abs(v_k - want[k]).max() <= tol
        probe = boundedness_probe(c, x0, v0, n)
        norms = np.linalg.norm(want, axis=1)
        assert probe.norms.shape == (n + 1,)
        assert np.abs(probe.norms - norms).max() <= tol
        assert probe.argmax_k == int(np.argmax(norms))


class TestFiniteIsometry:
    def test_composition_rule(self, rng):
        # (P1, r1) o (P2, r2) = (P1 P2, P1 r2 + r1), checked via application.
        t1, t2 = rng.random(2), rng.random(2)
        i1 = FiniteIsometry(rotation_matrix(0.5), t1)
        i2 = FiniteIsometry(rotation_matrix(1.1), t2)
        v = rng.random(2)
        assert np.allclose(i1.compose(i2).apply(v), i1.apply(i2.apply(v)))

    def test_orthogonality_validated(self):
        with pytest.raises(NotOrthogonal):
            FiniteIsometry(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_linear_part_rejected(self, value):
        bad = rotation_matrix(0.5)
        bad[0, 1] = value
        with pytest.raises(NonFinite, match="linear part has non-finite"):
            FiniteIsometry(bad, np.zeros(2))
        with pytest.raises(NonFinite, match="constant linear part"):
            IsometryCocycle(golden_rotation(), 2, constant_linear=bad,
                            translation_batch_fn=lambda xs: np.zeros((len(xs), 2)))

    def test_left_invariant_metric(self, rng):
        i1 = FiniteIsometry(rotation_matrix(0.4), rng.random(2))
        i2 = FiniteIsometry(rotation_matrix(1.3), rng.random(2))
        g = FiniteIsometry(rotation_matrix(-0.9), rng.random(2))
        d0 = i1.distance_to(i2)
        d1 = g.compose(i1).distance_to(g.compose(i2))
        assert abs(d0 - d1) <= 1e-12


class TestGramSchmidt:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_matches_column_loop(self, rng, d):
        # Near-orthogonal matrices of both determinant signs, columns of
        # either orientation: R's diagonal signs matter.
        q, _ = np.linalg.qr(rng.standard_normal((12, d, d)))
        M = q + 1e-8 * rng.standard_normal((12, d, d))
        out = gram_schmidt(M)
        assert out.shape == M.shape
        for m, got in zip(M, out):
            assert np.max(np.abs(got - loop_gram_schmidt(m))) <= 1e-12
            assert np.max(np.abs(gram_schmidt(m) - got)) <= 1e-14


class TestIterateSkew:
    def test_zero_steps(self, rng):
        c = constant_cocycle(golden_rotation(), 2, [1.0, 0.0])
        x, v = 0.3, rng.random(2)
        x_out, v_out = iterate_skew(c, x, v, 0)
        assert x_out == x and np.array_equal(v_out, v)

    def test_pure_translation_cascade(self):
        c = constant_cocycle(golden_rotation(), 2, [0.5, -0.25])
        _, v = iterate_skew(c, 0.1, np.zeros(2), 40)
        assert np.allclose(v, [20.0, -10.0], atol=1e-12)

    def test_cocycle_identity_two_paths(self, rng):
        base = golden_rotation()
        c = rotation_translation_cocycle(base, 0.7, TrigPoly.random(3, rng))
        for _ in range(30):
            j, k = (int(t) for t in rng.integers(1, 60, 2))
            x = float(rng.random())
            whole = compose_along_orbit(c, x, j + k)
            split = compose_along_orbit(c, base.step_n(x, k), j).compose(
                compose_along_orbit(c, x, k)
            )
            assert whole.distance_to(split) <= 1e-10

    def test_isometry_preservation_along_orbit(self, rng):
        c = rotation_translation_cocycle(
            golden_rotation(), 1.2, TrigPoly.random(2, rng)
        )
        v, w = rng.random(2), rng.random(2)
        gap0 = np.linalg.norm(v - w)
        _, v_out = iterate_skew(c, 0.2, v, 5000)
        _, w_out = iterate_skew(c, 0.2, w, 5000)
        assert abs(np.linalg.norm(v_out - w_out) - gap0) <= 1e-10


class TestTwistedBirkhoff:
    def test_constant_translation(self):
        c = constant_cocycle(golden_rotation(), 2, [1.0, 2.0])
        s = twisted_birkhoff(c, 0.4, 25)
        assert np.allclose(s, [25.0, 50.0], atol=1e-12)

    def test_rotation_geometric_sum_bound(self):
        # Psi = rotation by beta, rho = (1, 0): |S_k| <= 2/|1 - e^{i beta}|.
        beta = 0.7
        c = rotation_translation_cocycle(
            golden_rotation(), beta, TrigPoly.constant(1.0)
        )
        bound = 2.0 / abs(1.0 - np.exp(1j * beta))
        for k in (10, 100, 1000, 5000):
            s = twisted_birkhoff(c, 0.1, k)
            # closed form: sum of e^{i j beta} applied to (1, 0)
            phases = np.exp(1j * beta * np.arange(k))
            total = phases.sum()
            assert abs(np.linalg.norm(s) - abs(total)) <= 1e-9
            assert np.linalg.norm(s) <= bound + 1e-9

    def test_equals_translation_part(self, rng):
        c = rotation_translation_cocycle(
            golden_rotation(), 0.9, TrigPoly.random(3, rng)
        )
        k = 137
        s = twisted_birkhoff(c, 0.25, k)
        full = compose_along_orbit(c, 0.25, k)
        assert np.max(np.abs(s - full.translation)) <= 1e-10

    def test_coboundary_telescoping(self, rng):
        # rho = phi o T - Psi phi: S_k = phi(T^k x) - Psi-product phi(x).
        base = golden_rotation()
        beta = 1.1
        phi = TrigPoly.random(4, rng)
        c = coboundary_isometry_cocycle(base, beta, phi)
        x = 0.3
        for k in (1, 17, 400):
            s = twisted_birkhoff(c, x, k)
            s_c = complex(s[0], s[1])
            x_k = base.step_n(x, k)
            want = phi(x_k) - np.exp(1j * beta * k) * phi(x)
            assert abs(s_c - want) <= 1e-9


class TestBoundednessProbe:
    def test_linear_drift(self):
        c = constant_cocycle(golden_rotation(), 2, [1.0, 0.0])
        rep = boundedness_probe(c, 0.1, np.zeros(2), 500)
        assert abs(rep.sup_norm - 500.0) <= 1e-9
        assert rep.argmax_k == 500
        assert rep.growth_slope > 10.0

    def test_coboundary_is_bounded(self, rng):
        phi = TrigPoly.random(4, rng)
        c = coboundary_isometry_cocycle(golden_rotation(), 1.3, phi)
        v0 = rng.random(2)
        rep = boundedness_probe(c, 0.2, v0, 20_000)
        bound = 2.0 * phi.sup_norm() + np.linalg.norm(v0)
        assert rep.sup_norm <= bound + 1e-9
        assert rep.growth_slope < 0.1

    def test_jump_cascade_bound(self):
        # Bounded cascade over the parabolic base: sup <= |v0| + 2 sup|psi|.
        jc = jump_cascade()
        v0 = np.array([0.5])
        rep = boundedness_probe(jc.cocycle, 0.3, v0, 100_000)
        assert rep.sup_norm <= np.linalg.norm(v0) + 2.0 * jc.sup_psi + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 500, 20_000])
    def test_slope_matches_polyfit(self, rng, n):
        phi = TrigPoly.random(4, rng)
        c = coboundary_isometry_cocycle(golden_rotation(), 1.3, phi)
        rep = boundedness_probe(c, 0.2, rng.random(2), n)
        running = np.maximum.accumulate(rep.norms)[1:]
        want = np.polyfit(np.log(np.arange(1, n + 1)), running, 1)[0]
        assert abs(rep.growth_slope - want) <= 1e-12 * max(abs(want), 1.0)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_short_walk_rejected(self, n):
        c = constant_cocycle(golden_rotation(), 2, [1.0, 0.0])
        with pytest.raises(ConfigInvalid):
            boundedness_probe(c, 0.1, np.zeros(2), n)


class TestRecurrence:
    def test_trivial_cocycle_returns_identity(self):
        c = constant_cocycle(golden_rotation(), 2, [0.0, 0.0])
        sample = recurrence_isometries(c, 0.1, 0.05, 2000)
        assert len(sample) > 0
        for _, iso in sample:
            assert iso.distance_to(FiniteIsometry.identity(2)) <= 1e-10

    def test_semigroup_closure(self, rng):
        c = rotation_translation_cocycle(
            golden_rotation(), 0.9, TrigPoly.random(2, rng, 0.3)
        )
        sample = recurrence_isometries(c, 0.1, 0.02, 30_000)
        checks = semigroup_closure_check(c, 0.1, sample, max_pairs=4)
        assert len(checks) >= 3
        for ch in checks:
            assert ch.ok, (ch.k1, ch.k2, ch.deviation, ch.bound)

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_closure_check_needs_a_pair(self, pairs):
        c = constant_cocycle(golden_rotation(), 2, [0.0, 0.0])
        sample = recurrence_isometries(c, 0.1, 0.05, 2000)
        with pytest.raises(ConfigInvalid):
            semigroup_closure_check(c, 0.1, sample, max_pairs=pairs)

    @pytest.mark.parametrize("beta, pairs", [(0.9, 4), (0.0, 6)])
    def test_closure_check_matches_walk_per_pair(self, rng, beta, pairs):
        # The check reads its products off one walk from x and one per k2;
        # a walk per pair, as the reference below takes, gives the same bits.
        c = rotation_translation_cocycle(
            golden_rotation(), beta, TrigPoly.random(2, rng, 0.2)
        )
        x = 0.1
        sample = recurrence_isometries(c, x, 0.02, 30_000)
        c_const = 1.0 + max(np.linalg.norm(iso.translation) for _, iso in sample)
        want = []
        for a in range(min(pairs, len(sample))):
            for b in range(a, min(pairs, len(sample))):
                (k1, i1), (k2, i2) = sample[a], sample[b]
                direct = compose_along_orbit(c, x, k1 + k2)
                shifted = compose_along_orbit(c, c.base.step_n(x, k2), k1)
                eps = shifted.distance_to(i1)
                dev = direct.distance_to(i1.compose(i2))
                bound = (2.0 + c_const) * eps + 1e-9
                want.append(SemigroupPairCheck(
                    k1=k1, k2=k2, deviation=dev, continuity_eps=eps,
                    bound=bound, ok=dev <= bound,
                ))
        assert len(want) >= 10
        assert semigroup_closure_check(c, x, sample, max_pairs=pairs) == want

    def test_stacked_check_names_the_failing_return(self, rng, monkeypatch):
        # The linear parts are checked once as a stack; a defect in one of
        # them names its return time, and the returned isometries are those
        # FiniteIsometry builds with its own check.
        c = rotation_translation_cocycle(
            golden_rotation(), 0.9, TrigPoly.random(2, rng, 0.3)
        )
        sample = recurrence_isometries(c, 0.1, 0.02, 30_000)
        for _, iso in sample:
            rebuilt = FiniteIsometry(iso.linear, iso.translation)
            assert np.array_equal(rebuilt.linear, iso.linear)
            assert np.array_equal(rebuilt.translation, iso.translation)
        bad = len(sample) // 2
        real = cocycles.gram_schmidt

        def skewed(M):
            out = real(M)
            out[bad, 0, 1] += 1e-9
            return out

        monkeypatch.setattr(cocycles, "gram_schmidt", skewed)
        with pytest.raises(NotOrthogonal, match=f"return k = {sample[bad][0]} "):
            recurrence_isometries(c, 0.1, 0.02, 30_000)

    def test_linear_parts_match_column_loop(self, rng):
        c = rotation_translation_cocycle(
            golden_rotation(), 0.9, TrigPoly.random(2, rng, 0.3)
        )
        sample = recurrence_isometries(c, 0.1, 0.02, 30_000)
        prods = orbit_products(c, 0.1, sample[-1][0])
        for k, iso in sample:
            want = loop_gram_schmidt(prods[k, :2, :2])
            assert np.max(np.abs(iso.linear - want)) <= 1e-12
            assert np.array_equal(iso.translation, prods[k, :2, 2])
        last = compose_along_orbit(c, 0.1, sample[-1][0])
        assert np.max(np.abs(last.linear - sample[-1][1].linear)) <= 1e-14

    def test_rotation_valued_sample_is_one_parameter(self, rng):
        # Linear parts of sampled returns are rotations: their logs are
        # collinear (all multiples of the standard symplectic generator).
        c = rotation_translation_cocycle(
            golden_rotation(), 0.9, TrigPoly.random(2, rng, 0.3)
        )
        sample = recurrence_isometries(c, 0.1, 0.02, 30_000)
        assert sample
        j_gen = np.array([[0.0, -1.0], [1.0, 0.0]])
        for _, iso in sample:
            angle = np.arctan2(iso.linear[1, 0], iso.linear[0, 0])
            log = angle * j_gen
            residual = np.linalg.norm(
                log - (np.sum(log * j_gen) / 2.0) * j_gen
            )
            assert residual <= 1e-6


class TestMatrixProducts:
    def test_zero_steps(self):
        c = MatrixCocycle(golden_rotation(), 2, constant_generators(np.eye(2)))
        rep = matrix_products(c, 0.1, 0)
        assert np.array_equal(rep.product, np.eye(2))
        assert rep.max_norm == 1.0 and rep.max_inv_norm == 1.0

    def test_constant_orthogonal_stays_orthogonal(self):
        q = rotation_matrix(0.37)
        c = MatrixCocycle(golden_rotation(), 2, constant_generators(q))
        rep = matrix_products(c, 0.1, 5000)
        assert abs(rep.max_norm - 1.0) <= 1e-9
        assert abs(rep.max_inv_norm - 1.0) <= 1e-9
        assert np.linalg.norm(
            rep.product.T @ rep.product - np.eye(2)
        ) <= 1e-9

    def test_coboundary_products_bounded(self):
        # A(x) = B(Tx) Q(x) B(x)^{-1} telescopes: norms stay below
        # sup||B|| * sup||B^{-1}||.
        from cocyclelab.presets import coboundary_cocycle

        c = coboundary_cocycle()
        rep = matrix_products(c, 0.2, 100_000)
        assert rep.max_norm <= c.bound + 1e-6
        assert rep.max_inv_norm <= c.bound + 1e-6


class TestGridTable:
    def test_interpolation_and_projection(self):
        size = 64
        xs = np.arange(size) / size
        linears = np.array([rotation_matrix(2 * np.pi * x) for x in xs])
        translations = np.column_stack([np.cos(2 * np.pi * xs),
                                        np.sin(2 * np.pi * xs)])
        table = GridIsometryTable(linears, translations, lipschitz_bound=10.0)
        got = table.linear_at(xs[10] + 1e-4)
        assert np.linalg.norm(got.T @ got - np.eye(2)) <= 1e-12
        mid = table.translation_at((xs[3] + xs[4]) / 2.0)
        want = (translations[3] + translations[4]) / 2.0
        assert np.max(np.abs(mid - want)) <= 1e-12

    def test_generators_match_per_point_projection(self, rng):
        # The table is projected once at load; the generators must equal,
        # bit for bit, an SVD projection of the nearest sample at every
        # point and the per-point interpolation of the translations.
        size = 256
        grid = np.arange(size) / size
        linears = np.array([rotation_matrix(2 * np.pi * x) for x in grid])
        linears += 0.01 * rng.standard_normal(linears.shape)
        translations = np.column_stack([np.cos(2 * np.pi * grid),
                                        np.sin(4 * np.pi * grid)])
        table = GridIsometryTable(linears, translations, lipschitz_bound=20.0)
        xs = golden_rotation().orbit(0.137, 3000)
        want = np.zeros((len(xs), 3, 3))
        for k, x in enumerate(xs):
            u, _, vt = np.linalg.svd(linears[int(np.floor((x % 1.0) * size + 0.5)) % size])
            pos = (x % 1.0) * size
            i = int(np.floor(pos)) % size
            frac = pos - np.floor(pos)
            want[k, :2, :2] = u @ vt
            want[k, :2, 2] = ((1.0 - frac) * translations[i]
                              + frac * translations[(i + 1) % size])
            want[k, 2, 2] = 1.0
        got = IsometryCocycle.from_table(golden_rotation(), table).generators_along(xs)
        assert np.array_equal(got, want)

    def test_lipschitz_validation(self):
        size = 16
        linears = np.array([np.eye(2)] * size)
        translations = np.zeros((size, 2))
        translations[7] = [5.0, 0.0]  # a jump the bound cannot cover
        with pytest.raises(ConfigInvalid):
            GridIsometryTable(linears, translations, lipschitz_bound=1.0)

    def test_cocycle_from_table(self, rng):
        size = 128
        xs = np.arange(size) / size
        linears = np.array([rotation_matrix(0.9)] * size)
        translations = np.column_stack([np.cos(2 * np.pi * xs),
                                        np.sin(2 * np.pi * xs)])
        table = GridIsometryTable(linears, translations, lipschitz_bound=10.0)
        c = IsometryCocycle.from_table(golden_rotation(), table)
        _, v = iterate_skew(c, 0.1, np.zeros(2), 50)
        assert np.isfinite(v).all()


class TestShiftCocycle:
    def test_twisted_sum_matches_direct_formula(self, rng):
        base = golden_rotation()
        coords = {0: TrigPoly.single_mode(1), 2: TrigPoly.constant(0.5)}
        c = ShiftCocycle(base=base, rho_coords=coords, truncation=8)
        y, n = 0.3, 5
        lo, got = shift_twisted_sum(c, y, n)
        # direct: coordinate j of sum_r shift^r rho(T^{n-r-1} y)
        want = np.zeros(2 + n, dtype=complex)
        for r in range(n):
            z = base.step_n(y, n - r - 1)
            for j, poly in coords.items():
                want[j + r] += poly(z)
        assert lo == 0
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_invariant_graph_norm_bound(self):
        # Samples on the graph of the known bounded section phi have norms
        # <= C; twisted sums from those base points obey ||I(n, y) 0|| <= 2C.
        c = shift_compact_section()
        base = c.base
        phi = c.known_section
        thetas = base.orbit(0.3, 60)
        c_bound = max(
            np.sqrt(sum(abs(p(x)) ** 2 for p in phi.values()))
            for x in thetas
        )
        for y in thetas[::7]:
            for n in (1, 3, 10, 25):
                _, coords = shift_twisted_sum(c, float(y), n)
                assert np.linalg.norm(coords) <= 2.0 * c_bound + 1e-6

    def test_negative_index_rejected_for_one_sided(self):
        with pytest.raises(ConfigInvalid):
            ShiftCocycle(
                base=golden_rotation(),
                rho_coords={-1: TrigPoly.constant(1.0)},
            )

    def test_truncation_guard(self):
        c = ShiftCocycle(
            base=golden_rotation(),
            rho_coords={5: TrigPoly.constant(1.0)},
            truncation=3,
        )
        with pytest.raises(TruncationTooSmall):
            c.require_truncation()
