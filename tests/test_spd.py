"""Geometry of Pos(n): eigensolver, exp/log, distance, geodesics, actions."""

import numpy as np
import pytest

from cocyclelab import spd
from cocyclelab.errors import (
    CocycleLabError,
    DimensionMismatch,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitDeterminant,
    SingularMatrix,
)

from conftest import random_spd, reference_geodesic_2x2, reference_spd_distance


class TestSymEigen:
    def test_diagonal_input(self):
        eig = spd.sym_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(eig.values, [3.0, 1.0])
        assert np.allclose(eig.rotation, np.eye(2))

    def test_characteristic_polynomial_roots(self):
        # [[2,1],[1,2]]: lambda^2 - 4 lambda + 3 = 0 -> 3, 1.
        eig = spd.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.values, [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_construct_then_decompose(self, rng, n):
        # Build Q Lambda Q^T with known spectrum, recover it.
        lam = np.sort(rng.uniform(0.1, 5.0, n))[::-1]
        g = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        P = q @ np.diag(lam) @ q.T
        eig = spd.sym_eigen((P + P.T) / 2.0)
        assert np.max(np.abs(eig.values - lam)) <= 1e-9
        norm = np.linalg.norm(P)
        assert np.linalg.norm(eig.reconstruct() - P) <= 1e-9 * norm
        assert np.linalg.norm(
            eig.rotation.T @ eig.rotation - np.eye(n)
        ) <= 1e-10

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            spd.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_deterministic(self, rng):
        P = random_spd(rng, 4)
        a = spd.sym_eigen(P)
        b = spd.sym_eigen(P)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.rotation, b.rotation)

    def test_dimension_range(self):
        with pytest.raises(DimensionMismatch):
            spd.sym_eigen(np.ones((9, 9)))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_lapack_contract(self, rng, n):
        P = random_spd(rng, n, spread=2.0)
        norm = np.linalg.norm(P)
        eig = spd.sym_eigen(P)
        want = np.linalg.eigvalsh(P)[::-1]
        assert np.max(np.abs(eig.values - want)) <= 1e-12 * norm
        assert np.linalg.norm(eig.reconstruct() - P) <= 1e-12 * norm
        # Canonical sign: each column's largest-magnitude entry is positive.
        top = np.argmax(np.abs(eig.rotation), axis=0)
        assert np.all(eig.rotation[top, np.arange(n)] > 0.0)
        again = spd.sym_eigen(P)
        assert eig.values.tobytes() == again.values.tobytes()
        assert eig.rotation.tobytes() == again.rotation.tobytes()


class TestExpLog:
    def test_log_identity_is_zero(self):
        assert np.allclose(spd.spd_log(np.eye(3)), 0.0, atol=1e-14)

    def test_log_of_diagonal(self):
        out = spd.spd_log(np.diag([np.e ** 2, 1.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(20):
            P = random_spd(rng, 3, spread=1.0)
            back = spd.spd_exp(spd.spd_log(P))
            assert np.max(np.abs(back - P)) <= 1e-9

    def test_round_trip_extreme_eigenvalues(self, rng):
        # Inverses on the eigenvalue range [1e-4, 1e4].
        g = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        P = q @ np.diag([1e-4, 1.0, 1e4]) @ q.T
        P = (P + P.T) / 2.0
        back = spd.spd_exp(spd.spd_log(P))
        assert np.max(np.abs(back - P)) <= 1e-9 * np.linalg.norm(P)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd.spd_log(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exp_stack_matches_one_matrix(self, rng, n):
        # One matrix's exponential is its entry of the stack's, bit for bit.
        g = rng.standard_normal((9, n, n))
        S = (g + np.swapaxes(g, 1, 2)) / 2.0
        out = spd.spd_exp(S)
        assert out.shape == (9, n, n)
        for s, e in zip(S, out):
            assert np.array_equal(spd.spd_exp(s), e)
        S[4, 0, 1] = np.nan
        with pytest.raises(NonFinite, match="matrix entry 4"):
            spd.spd_exp(S)


def tangent_matrix(v, n):
    """The symmetric matrix of tangent coordinates v: the upper triangle
    row by row, off-diagonal entries scaled by sqrt 2."""
    rows, cols = np.triu_indices(n)
    S = np.zeros((n, n))
    S[rows, cols] = v / np.where(rows == cols, 1.0, np.sqrt(2.0))
    return S + np.triu(S, 1).T


class TestWhitenedExp:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stack_matches_per_matrix_reference(self, rng, n):
        P = random_spd(rng, n, spread=1.0)
        L = np.linalg.cholesky(P)
        v = rng.standard_normal((2, 3, n * (n + 1) // 2))
        at = spd.Whitening(P)
        out = at.exp(v)
        assert out.shape == (2, 3, n, n)
        for k in np.ndindex(2, 3):
            S = tangent_matrix(v[k], n)
            # Tangent coordinates are isometric: |v| is the Frobenius norm.
            assert abs(np.linalg.norm(v[k]) - np.linalg.norm(S)) <= 1e-13
            want = L @ spd.spd_exp(S) @ L.T
            assert np.max(np.abs(out[k] - want)) <= 1e-12 * np.linalg.norm(want)
            assert spd.symmetry_defect(out[k]) == 0.0
            single = at.exp(v[k])
            assert np.max(np.abs(single - out[k])) <= 1e-14 * np.linalg.norm(want)

    def test_rejects_bad_stack(self, rng):
        P = random_spd(rng, 3)
        v = rng.standard_normal((4, 6))
        at = spd.Whitening(P)
        v[2, 1] = np.nan
        with pytest.raises(NonFinite, match="tangent vector entry 2"):
            at.exp(v)
        v[2, 1] = np.inf
        with pytest.raises(NonFinite, match="tangent vector entry 2"):
            at.exp(v)
        with pytest.raises(DimensionMismatch):
            at.exp(v[:, :3])
        with pytest.raises(DimensionMismatch):
            at.exp(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            at.exp(0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_paired_round_trip(self, rng, n):
        # Pairs (P_k, Q_k), one chart at each P_k: |log Q_k| = d(P_k, Q_k)
        # and exp inverts log, as for a whole batch at one point.
        P = np.array([random_spd(rng, n, spread=1.0) for _ in range(6)])
        Q = np.array([random_spd(rng, n, spread=1.0) for _ in range(6)])
        for p, q in zip(P, Q):
            at = spd.Whitening(p)
            v = at.log(spd.symmetrize(q)[None])
            assert v.shape == (1, n * (n + 1) // 2)
            assert abs(np.linalg.norm(v) - reference_spd_distance(p, q)) <= 1e-12
            assert np.max(np.abs(at.exp(v[0]) - q)) <= 1e-12 * np.abs(q).max()
        at = spd.Whitening(P[0])
        v = at.log(spd.symmetrize(Q))
        want = [reference_spd_distance(P[0], q) for q in Q]
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - want)) <= 1e-12
        assert np.max(np.abs(at.exp(v) - Q)) <= 1e-12 * np.abs(Q).max()
        with pytest.raises(NotPositiveDefinite, match="reference point"):
            spd.Whitening(-P[2])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stack_of_points(self, rng, n):
        # A chart at a stack of points: Q_i is logged at point seg[i], and
        # a paired exp takes one vector at each point; both equal the
        # charts at the points one by one, bit for bit.
        P = np.array([random_spd(rng, n, spread=1.0) for _ in range(4)])
        seg = np.array([0, 0, 1, 2, 2, 2, 3])
        Q = spd.symmetrize(np.array([random_spd(rng, n, spread=1.0)
                                     for _ in seg]))
        at = spd.Whitening(P)
        v = at.log(Q, seg)
        for i, p in enumerate(P):
            assert np.array_equal(v[seg == i], spd.Whitening(p).log(Q[seg == i]))
        steps = v[[0, 2, 3, 6]]
        out = at.exp(steps)
        assert out.shape == (4, n, n)
        for p, step, y in zip(P, steps, out):
            assert np.array_equal(spd.Whitening(p).exp(step[None])[0], y)
        with pytest.raises(DimensionMismatch):
            at.exp(steps[:3])
        with pytest.raises(DimensionMismatch):
            at.exp(steps[0])
        P[2] = -P[2]
        with pytest.raises(NotPositiveDefinite, match="reference point entry 2"):
            spd.Whitening(P)


class TestSqrtBatch:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_scalar_root(self, rng, n):
        # One matrix's root is its entry of the stack's, bit for bit.
        batch = np.array([random_spd(rng, n, spread=1.5) for _ in range(9)])
        roots = spd.spd_sqrt(batch)
        for P, R in zip(batch, roots):
            assert spd.spd_sqrt(P).tobytes() == R.tobytes()
            assert spd.symmetry_defect(R) == 0.0
            assert np.max(np.abs(R @ R - P)) <= 1e-12 * np.linalg.norm(P)
            if n == 2:
                # The closed form against the eigendecomposition.
                lam, v = np.linalg.eigh(P)
                want = (v * np.sqrt(lam)) @ v.T
                assert np.max(np.abs(R - want)) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_bad_entry(self, rng, n):
        batch = np.array([random_spd(rng, n) for _ in range(5)])
        batch[3] = -batch[3]
        with pytest.raises(NotPositiveDefinite, match="matrix entry 3"):
            spd.spd_sqrt(batch)
        with pytest.raises(NotPositiveDefinite, match="matrix is"):
            spd.spd_sqrt(batch[3])
        batch[3] = -batch[3]
        batch[3, 0, 1] += 1e-6
        with pytest.raises(NotSymmetric, match="matrix entry 3"):
            spd.spd_sqrt(batch)
        with pytest.raises(DimensionMismatch):
            spd.spd_sqrt(batch[None])


class TestDistance:
    def test_identity_to_diagonal(self):
        # log-eigenvalues (2, 0); Frobenius norm 2.
        d = spd.spd_distance(np.eye(2), np.diag([np.e ** 2, 1.0]))
        assert abs(d - 2.0) <= 1e-12

    def test_zero_on_diagonal_pairs(self, rng):
        P = random_spd(rng, 3)
        assert spd.spd_distance(P, P) <= 1e-9

    def test_congruence_invariance(self, rng):
        for _ in range(25):
            P = random_spd(rng, 2)
            Q = random_spd(rng, 2)
            g = rng.standard_normal((2, 2))
            while abs(np.linalg.det(g)) < 1e-3:
                g = rng.standard_normal((2, 2))
            d0 = spd.spd_distance(P, Q)
            d1 = spd.spd_distance(spd.gl_action(g, P), spd.gl_action(g, Q))
            assert abs(d0 - d1) <= 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            p, q, w = (random_spd(rng, 2, 0.8) for _ in range(3))
            assert (spd.spd_distance(p, q)
                    <= spd.spd_distance(p, w) + spd.spd_distance(w, q) + 1e-9)

    def test_squared_distance_to_identity(self, rng):
        # d(P, Id)^2 equals the sum of squared log-eigenvalues.
        for n in (2, 4):
            P = random_spd(rng, n, 1.2)
            d2 = spd.spd_distance(P, np.eye(n)) ** 2
            logs = np.log(spd.sym_eigen(P).values)
            assert abs(d2 - np.sum(logs ** 2)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd.spd_distance(np.eye(2), np.eye(3))

    def test_batch_matches_scalar(self, rng):
        P = random_spd(rng, 2)
        batch = np.array([random_spd(rng, 2) for _ in range(10)])
        got = spd.spd_distances_from(P, batch)
        want = [spd.spd_distance(P, q) for q in batch]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_pairwise_matches_scalar(self, rng):
        batch = np.array([random_spd(rng, 2) for _ in range(6)])
        got = spd.pairwise_spd_distances(batch)
        iu, ju = np.triu_indices(6, k=1)
        want = [spd.spd_distance(batch[i], batch[j]) for i, j in zip(iu, ju)]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_near_coincident_2x2(self):
        # Q is 7.5e-9 from P; the root of tr^2 - 4 det returned 1.5e-8 here.
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        Q = P + 1e-8 * np.array([[1.0, 0.2], [0.2, -0.5]])
        want = reference_spd_distance(P, Q)
        assert 5e-9 < want < 1e-8
        assert abs(spd.spd_distance(P, Q) - want) <= 1e-14
        assert abs(spd.spd_distances_from(P, Q[np.newaxis])[0] - want) <= 1e-14
        assert abs(spd.pairwise_spd_distances(np.array([P, Q]))[0] - want) <= 1e-14

    def test_pairwise_2x2_across_slices(self, rng):
        batch = np.array([random_spd(rng, 2) for _ in range(100)])
        got = spd.pairwise_spd_distances(batch)
        assert len(got) > spd.PAIR_CHUNK
        iu, ju = np.triu_indices(len(batch), k=1)
        want = [reference_spd_distance(batch[i], batch[j]) for i, j in zip(iu, ju)]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_pairwise_3x3_across_slices(self, rng):
        batch = np.array([random_spd(rng, 3) for _ in range(92)])
        got = spd.pairwise_spd_distances(batch)
        assert len(got) > spd.PAIR_CHUNK
        iu, ju = np.triu_indices(len(batch), k=1)
        want = [reference_spd_distance(batch[i], batch[j]) for i, j in zip(iu, ju)]
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_scan_matches_reference(self, rng, n):
        P = random_spd(rng, n)
        batch = np.array([random_spd(rng, n) for _ in range(8)])
        got = spd.spd_distances_from(P, batch)
        scalar = [spd.spd_distance(P, q) for q in batch]
        reference = [reference_spd_distance(P, q) for q in batch]
        assert np.max(np.abs(got - scalar)) <= 1e-12
        assert np.max(np.abs(got - reference)) <= 1e-12
        pairs = spd.pairwise_spd_distances(batch)
        iu, ju = np.triu_indices(len(batch), k=1)
        want = [reference_spd_distance(batch[i], batch[j]) for i, j in zip(iu, ju)]
        assert np.max(np.abs(pairs - want)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("k", [0, 4])
    def test_scan_rejects_bad_entry(self, rng, n, k):
        P = random_spd(rng, n)
        batch = np.array([random_spd(rng, n) for _ in range(6)])
        skewed = batch.copy()
        skewed[k, 0, 1] += 1e-3
        with pytest.raises(NotSymmetric, match=f"entry {k}"):
            spd.spd_distances_from(P, skewed)
        with pytest.raises(NotSymmetric, match=f"entry {k}"):
            spd.pairwise_spd_distances(skewed)
        indefinite = batch.copy()
        indefinite[k] = -indefinite[k]
        with pytest.raises(NotPositiveDefinite, match=f"entry {k}"):
            spd.spd_distances_from(P, indefinite)
        with pytest.raises(NotPositiveDefinite, match=f"entry {k}"):
            spd.pairwise_spd_distances(indefinite)


    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_paired_scan_matches_reference(self, rng, n):
        P = np.array([random_spd(rng, n) for _ in range(7)])
        Q = np.array([random_spd(rng, n) for _ in range(7)])
        got = spd.spd_distances_from(P, Q)
        want = [reference_spd_distance(p, q) for p, q in zip(P, Q)]
        assert np.max(np.abs(got - want)) <= 1e-12
        with pytest.raises(DimensionMismatch):
            spd.spd_distances_from(P[:6], Q)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 4])
    def test_paired_scan_names_bad_reference(self, rng, n, k):
        P = np.array([random_spd(rng, n) for _ in range(6)])
        Q = np.array([random_spd(rng, n) for _ in range(6)])
        indefinite = P.copy()
        indefinite[k] = -indefinite[k]
        with pytest.raises(NotPositiveDefinite, match=f"reference point entry {k}"):
            spd.spd_distances_from(indefinite, Q)
        with pytest.raises(NotPositiveDefinite, match=f"batch entry {k}"):
            spd.spd_distances_from(Q, indefinite)
        non_finite = P.copy()
        non_finite[k] = _with_entry(P[k], np.nan)
        with pytest.raises(NonFinite, match=f"reference point entry {k}"):
            spd.spd_distances_from(non_finite, Q)
        if n > 2:  # the 2x2 closed form reads upper triangles only
            skewed = P.copy()
            skewed[k, 0, 1] += 1e-3
            with pytest.raises(NotSymmetric, match=f"reference point entry {k}"):
                spd.spd_distances_from(skewed, Q)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_segment_scan_matches_paired_stack(self, rng, n):
        # One reference per segment gives the bits of the paired stack
        # P[seg], the 2x2 references being symmetric only to an ulp, so
        # that reading P[..., 1, 0] in place of P[..., 0, 1] would show.
        P = np.array([random_spd(rng, n, spread=1.0) for _ in range(5)])
        assert (P != np.swapaxes(P, 1, 2)).any()
        seg = np.repeat(np.arange(5), [3, 1, 6, 2, 4])
        Q = np.array([random_spd(rng, n, spread=1.0) for _ in seg])
        got = spd.spd_distances_from(P, Q, seg)
        assert np.array_equal(got, spd.spd_distances_from(P[seg], Q))
        want = [reference_spd_distance(P[s], q) for s, q in zip(seg, Q)]
        assert np.max(np.abs(got - want)) <= 1e-12
        with pytest.raises(DimensionMismatch, match="segment indices"):
            spd.spd_distances_from(P, Q, seg[:-1])
        with pytest.raises(DimensionMismatch):
            spd.spd_distances_from(P[0], Q, seg)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_segment_scan_names_bad_reference(self, rng, n):
        # A reference is checked once, and an error names its entry of P.
        P = np.array([random_spd(rng, n) for _ in range(4)])
        seg = np.repeat(np.arange(4), 3)
        Q = np.array([random_spd(rng, n) for _ in seg])
        indefinite = P.copy()
        indefinite[2] = -indefinite[2]
        with pytest.raises(NotPositiveDefinite, match="reference point entry 2"):
            spd.spd_distances_from(indefinite, Q, seg)
        non_finite = P.copy()
        non_finite[3] = _with_entry(P[3], np.nan)
        with pytest.raises(NonFinite, match="reference point entry 3"):
            spd.spd_distances_from(non_finite, Q, seg)


class TestMatmul:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_matmul(self, rng, n):
        # BLAS may fuse its multiply-adds, so the 2x2 closed form agrees
        # with @ to a few ulps, not bit for bit; n >= 3 is @ itself.
        A = rng.standard_normal((500, n, n))
        B = rng.standard_normal((500, n, n))
        got = spd.matmul(A, B)
        want = A @ B
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        if n > 2:
            assert np.array_equal(got, want)
        # Broadcasting one matrix against a stack.
        want = A[0] @ B
        err = np.max(np.abs(spd.matmul(A[0], B) - want))
        assert err <= 4e-15 * np.max(np.abs(want))

    def test_congruence_is_exactly_symmetric(self, rng):
        W = rng.standard_normal((500, 2, 2))
        P = spd.matmul(W, np.swapaxes(W, 1, 2))
        assert np.array_equal(P, np.swapaxes(P, 1, 2))


class TestGeodesic:
    def test_endpoints(self, rng):
        P = random_spd(rng, 2)
        Q = random_spd(rng, 2)
        assert np.max(np.abs(spd.spd_geodesic(P, Q, 0.0) - P)) <= 1e-10
        assert np.max(np.abs(spd.spd_geodesic(P, Q, 1.0) - Q)) <= 1e-9

    def test_commuting_midpoint_is_geometric_mean(self):
        mid = spd.spd_geodesic(np.eye(2), np.diag([4.0, 1.0]), 0.5)
        assert np.allclose(mid, np.diag([2.0, 1.0]), atol=1e-12)

    def test_scalar_multiple(self):
        # Q = 4P: P^{-1} Q has the double eigenvalue 4, and P #_t Q = 4^t P.
        P = np.array([[2.0, 0.0], [0.0, 3.0]])
        for t in (1e-3, 0.3, 0.5, 0.97):
            want = 4.0 ** t * P
            got = spd.spd_geodesic(P, 4.0 * P, t)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.abs(want).max()

    def test_constant_speed(self, rng):
        for n in (2, 3):
            P = random_spd(rng, n)
            Q = random_spd(rng, n)
            d = spd.spd_distance(P, Q)
            for t in (0.25, 0.5, 0.75):
                g = spd.spd_geodesic(P, Q, t)
                assert abs(spd.spd_distance(P, g) - t * d) <= 1e-9

    def test_median_inequality(self, rng):
        # Nonpositive curvature: d(m,w)^2 <= d(p,w)^2/2 + d(q,w)^2/2
        # - d(p,q)^2/4 on random triples.
        for _ in range(500):
            p, q, w = (random_spd(rng, 2, 0.7) for _ in range(3))
            m = spd.spd_geodesic(p, q, 0.5)
            lhs = spd.spd_distance(m, w) ** 2
            rhs = (spd.spd_distance(p, w) ** 2 / 2.0
                   + spd.spd_distance(q, w) ** 2 / 2.0
                   - spd.spd_distance(p, q) ** 2 / 4.0)
            assert lhs <= rhs + 1e-9

    def test_endpoints_exact_2x2(self, rng):
        # Off-diagonals are read as the mean of the two, which is exact for
        # symmetric input.
        for _ in range(50):
            P = spd.symmetrize(random_spd(rng, 2, spread=rng.uniform(0.1, 3.0)))
            Q = spd.symmetrize(random_spd(rng, 2, spread=rng.uniform(0.1, 3.0)))
            assert np.array_equal(spd.spd_geodesic(P, Q, 0.0), P)
            assert np.array_equal(spd.spd_geodesic(P, Q, 1.0), Q)
            assert np.array_equal(spd.spd_geodesic(P, P, 1.0), P)

    @pytest.mark.parametrize("n, tol", [(2, 1e-14), (3, 1e-13)])
    def test_reversal(self, rng, n, tol):
        # P #_t Q = Q #_{1-t} P: the same point from the other end.
        for _ in range(50):
            P = random_spd(rng, n, spread=rng.uniform(0.1, 3.0))
            Q = random_spd(rng, n, spread=rng.uniform(0.1, 3.0))
            for t in (1e-3, 0.3, 0.5, 0.97):
                G = spd.spd_geodesic(P, Q, t)
                back = spd.spd_geodesic(Q, P, 1.0 - t)
                assert np.max(np.abs(G - back)) <= tol * max(np.abs(G).max(), 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_congruence_equivariance(self, rng, n):
        # g (P #_t Q) g^T = (g P g^T) #_t (g Q g^T): congruences are isometries.
        for _ in range(20):
            P = random_spd(rng, n, spread=1.5)
            Q = random_spd(rng, n, spread=1.5)
            g = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            for t in (0.3, 0.5, 0.97):
                want = spd.gl_action(g, spd.spd_geodesic(P, Q, t))
                got = spd.spd_geodesic(spd.gl_action(g, P), spd.gl_action(g, Q), t)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()

    def test_matches_high_precision_reference(self):
        for P, Q in _reference_pairs():
            for t in (1e-3, 0.3, 0.5, 0.97):
                want = reference_geodesic_2x2(P, Q, t)
                err = np.max(np.abs(spd.spd_geodesic(P, Q, t) - want))
                assert err <= 1e-14 * max(np.abs(want).max(), 1.0), (P, Q, t)

    def test_stack_matches_high_precision_reference(self):
        P, Q = (np.array(ends) for ends in zip(*_reference_pairs()))
        for t in (1e-3, 0.3, 0.5, 0.97):
            got = spd.spd_geodesic(P, Q, t)
            for k in range(len(P)):
                want = reference_geodesic_2x2(P[k], Q[k], t)
                err = np.max(np.abs(got[k] - want))
                assert err <= 1e-14 * max(np.abs(want).max(), 1.0), (k, t)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_one_pair(self, rng, n):
        # Coincident and scalar-multiple pairs take the l = 0 branch of the
        # 2x2 closed form inside a stack.
        P = np.array([random_spd(rng, n, spread=rng.uniform(0.1, 3.0))
                      for _ in range(12)])
        Q = np.array([random_spd(rng, n, spread=rng.uniform(0.1, 3.0))
                      for _ in range(12)])
        Q[3] = P[3]
        Q[7] = 2.5 * P[7]
        for t in (1e-3, 0.3, 0.5, 0.97):
            got = spd.spd_geodesic(P, Q, t)
            assert got.shape == P.shape
            for k in range(len(P)):
                one = spd.spd_geodesic(P[k], Q[k], t)
                if n == 2:
                    assert np.array_equal(got[k], one)
                else:
                    assert np.max(np.abs(got[k] - one)) <= 1e-15 * np.abs(one).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_endpoints_exact(self, rng, n):
        P = np.array([random_spd(rng, n, spread=rng.uniform(0.1, 3.0))
                      for _ in range(10)])
        Q = np.array([random_spd(rng, n, spread=rng.uniform(0.1, 3.0))
                      for _ in range(10)])
        P, Q = spd.symmetrize(P), spd.symmetrize(Q)
        if n == 2:
            assert np.array_equal(spd.spd_geodesic(P, Q, 0.0), P)
            assert np.array_equal(spd.spd_geodesic(P, Q, 1.0), Q)
        else:
            scale = max(np.abs(P).max(), np.abs(Q).max())
            assert np.max(np.abs(spd.spd_geodesic(P, Q, 0.0) - P)) <= 1e-13 * scale
            assert np.max(np.abs(spd.spd_geodesic(P, Q, 1.0) - Q)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_names_bad_endpoint(self, rng, n):
        P = np.array([random_spd(rng, n) for _ in range(4)])
        Q = np.array([random_spd(rng, n) for _ in range(4)])
        skewed = Q.copy()
        skewed[2, 0, 1] += 1e-3
        non_finite = Q.copy()
        non_finite[2] = _with_entry(Q[2], np.nan)
        indefinite = Q.copy()
        indefinite[2] = -Q[2]
        own = ("geodesic endpoint",) * 2
        for bad, error, (first, second) in (
                (skewed, NotSymmetric, own), (non_finite, NonFinite, own),
                (indefinite, NotPositiveDefinite, own)):
            with pytest.raises(error, match=f"{first} entry 2 "):
                spd.spd_geodesic(bad, P, 0.5)
            with pytest.raises(error, match=f"{second} entry 2 "):
                spd.spd_geodesic(P, bad, 0.5)
        with pytest.raises(DimensionMismatch):
            spd.spd_geodesic(P, Q[:3], 0.5)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_t_rejected(self, rng, n, t):
        P, Q = random_spd(rng, n), random_spd(rng, n)
        with pytest.raises(NonFinite, match="geodesic parameter"):
            spd.spd_geodesic(P, Q, t)

    def test_unit_determinant_midpoint(self, rng):
        # On det-1 pairs P # Q = (P + Q) / sqrt(det(P + Q)).
        for _ in range(50):
            P, Q = spd.unit_determinant(np.array(
                [random_spd(rng, 2, spread=rng.uniform(0.1, 3.0)) for _ in range(2)]))
            want = (P + Q) / np.sqrt(np.linalg.det(P + Q))
            mid = spd.spd_geodesic(P, Q, 0.5)
            assert np.max(np.abs(mid - want)) <= 1e-14 * np.abs(want).max()


def _reference_pairs():
    """Generic pairs, near-scalar Q = sP + 1e-9 E and near-coincident
    Q = P + 1e-9 E, where eigenvalues of P^{-1} Q nearly coincide."""
    rng = np.random.default_rng(20261018)
    pairs = []
    for _ in range(40):
        P = random_spd(rng, 2, spread=rng.uniform(0.1, 3.0))
        E = spd.symmetrize(rng.standard_normal((2, 2)))
        pairs.append((P, random_spd(rng, 2, spread=rng.uniform(0.1, 3.0))))
        pairs.append((P, rng.uniform(0.3, 3.0) * P + 1e-9 * E))
        pairs.append((P, P + 1e-9 * E))
    return pairs


class TestActions:
    def test_identity_action(self, rng):
        P = random_spd(rng, 2)
        assert np.max(np.abs(spd.gl_action(np.eye(2), P) - P)) <= 1e-14

    def test_composition_law(self, rng):
        for _ in range(25):
            P = random_spd(rng, 2)
            g = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            h = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            left = spd.gl_action(g @ h, P)
            right = spd.gl_action(g, spd.gl_action(h, P))
            assert np.max(np.abs(left - right)) <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            spd.gl_action(np.zeros((2, 2)), np.eye(2))

    def test_conf_identity(self):
        P = spd.unit_determinant(np.diag([2.0, 1.0]))
        assert np.max(np.abs(spd.conf_action(np.eye(2), P) - P)) <= 1e-12

    def test_conf_scaling_acts_trivially(self):
        out = spd.conf_action(2.0 * np.eye(2), np.eye(2))
        assert np.max(np.abs(out - np.eye(2))) <= 1e-12

    def test_conf_preserves_determinant(self, rng):
        for _ in range(25):
            P = spd.unit_determinant(random_spd(rng, 2))
            g = rng.standard_normal((2, 2)) + 1.5 * np.eye(2)
            out = spd.conf_action(g, P)
            assert abs(np.linalg.det(out) - 1.0) <= 1e-9

    def test_conf_distance_preserving(self, rng):
        for _ in range(10):
            P = spd.unit_determinant(random_spd(rng, 2))
            Q = spd.unit_determinant(random_spd(rng, 2))
            g = rng.standard_normal((2, 2)) + 1.5 * np.eye(2)
            d0 = spd.spd_distance(P, Q)
            d1 = spd.spd_distance(spd.conf_action(g, P), spd.conf_action(g, Q))
            assert abs(d0 - d1) <= 1e-9

    def test_conf_requires_unit_determinant(self):
        with pytest.raises(NotUnitDeterminant):
            spd.conf_action(np.eye(2), np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacks_match_per_matrix(self, rng, n):
        P = np.array([random_spd(rng, n) for _ in range(5)])
        g = rng.standard_normal((5, n, n)) + 2.0 * np.eye(n)
        units = spd.unit_determinant(P)
        pairs = [
            (spd.unit_determinant(P), [spd.unit_determinant(p) for p in P]),
            (spd.gl_action(g, P), [spd.gl_action(a, p) for a, p in zip(g, P)]),
            (spd.conf_action(g, units),
             [spd.conf_action(a, u) for a, u in zip(g, units)]),
            (spd.conf_normalizer(g), [spd.conf_normalizer(a) for a in g]),
        ]
        for stacked, single in pairs:
            single = np.array(single)
            assert stacked.shape == single.shape
            assert np.max(np.abs(stacked - single)) <= 1e-14 * np.max(np.abs(single))

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_errors_name_the_entry(self, rng, n):
        P = np.array([random_spd(rng, n) for _ in range(5)])
        g = rng.standard_normal((5, n, n)) + 2.0 * np.eye(n)
        units = spd.unit_determinant(P)
        singular = g.copy()
        singular[3] = 0.0
        with pytest.raises(SingularMatrix, match="entry 3"):
            spd.gl_action(singular, P)
        with pytest.raises(SingularMatrix, match="entry 3"):
            spd.conf_normalizer(singular)
        with pytest.raises(SingularMatrix, match="entry 3"):
            spd.conf_action(singular, units)
        with pytest.raises(NotUnitDeterminant, match="entry 3"):
            spd.conf_action(g, np.concatenate([units[:3], P[3:]]))
        indefinite = P.copy()
        indefinite[3] = -indefinite[3]
        with pytest.raises(NotPositiveDefinite, match="entry 3"):
            spd.unit_determinant(indefinite)
        with pytest.raises(DimensionMismatch):
            spd.gl_action(g, P[:4])


class TestNormalizerDistortion:
    def test_normalizer_orthogonal(self):
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert abs(spd.conf_normalizer(q) - 1.0) <= 1e-12

    def test_normalizer_scaled_identity(self):
        # det(A^T A) = 81 for A = 3 Id (n = 2); 81^(-1/4) = 1/3.
        assert abs(spd.conf_normalizer(3.0 * np.eye(2)) - 1.0 / 3.0) <= 1e-12

    def test_normalizer_makes_unit_determinant(self, rng):
        for _ in range(20):
            A = rng.standard_normal((2, 2)) + 1.5 * np.eye(2)
            lam = spd.conf_normalizer(A)
            assert abs(abs(np.linalg.det(lam * A)) - 1.0) <= 1e-9



class TestDetInv:
    @pytest.mark.parametrize("n", [2, 3])
    def test_match_lapack_on_stacks(self, rng, n):
        A = rng.standard_normal((50, n, n))
        assert np.allclose(spd.det(A), np.linalg.det(A), rtol=1e-13, atol=1e-15)
        assert np.allclose(spd.inv(A), np.linalg.inv(A), rtol=1e-12, atol=1e-13)
        assert np.allclose(spd.inv(A) @ A, np.eye(n), atol=1e-10)
        # One matrix gives one entry's answer.
        assert np.allclose(spd.inv(A[7]), spd.inv(A)[7], rtol=1e-15, atol=0)
        assert np.ndim(spd.det(A[7])) == 0

    def test_closed_form_2x2(self):
        A = np.array([[2.0, 3.0], [5.0, 7.0]])
        assert spd.det(A) == -1.0
        assert np.array_equal(spd.inv(A), np.array([[-7.0, 3.0], [5.0, -2.0]]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_entry_named(self, rng, n):
        A = rng.standard_normal((4, n, n)) + 2.0 * np.eye(n)
        A[2] = np.diag([1.0] + [0.0] * (n - 1))
        with pytest.raises(SingularMatrix, match="matrix entry 2"):
            spd.inv(A)
        with pytest.raises(SingularMatrix, match="matrix has"):
            spd.inv(A[2])


def test_symmetry_enforced_after_operations(rng):
    # Every constructor/operation keeps the symmetry defect below 1e-12.
    P = random_spd(rng, 3)
    g = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    for out in (
        spd.spd_exp(spd.spd_log(P)),
        spd.gl_action(g, P),
        spd.spd_geodesic(P, random_spd(rng, 3), 0.3),
        spd.spd_sqrt(P),
    ):
        assert spd.symmetry_defect(out) <= 1e-12


def _with_entry(P, value):
    bad = P.copy()
    bad[0, 1] = bad[1, 0] = value
    return bad


# The closed forms run on the bad entries before the check that rejects
# them, so NumPy warns about the invalid arithmetic on the way.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_kernels_raise_non_finite(self, rng, n, value):
        P = random_spd(rng, n)
        Q = random_spd(rng, n)
        bad = _with_entry(Q, value)
        batch = np.array([random_spd(rng, n) for _ in range(4)])
        batch[2] = bad
        calls = [
            lambda: spd.spd_distance(P, bad),
            lambda: spd.spd_distance(bad, P),
            lambda: spd.spd_distances_from(P, batch),
            lambda: spd.spd_distances_from(bad, batch[:2]),
            lambda: spd.pairwise_spd_distances(batch),
            lambda: spd.spd_geodesic(P, bad, 0.5),
            lambda: spd.spd_geodesic(bad, P, 0.5),
            lambda: spd.spd_sqrt(bad),
            lambda: spd.require_spd(bad),
            lambda: spd.gl_action(P, bad),
            lambda: spd.gl_action(bad, P),
            lambda: spd.conf_action(bad, np.eye(n)),
            lambda: spd.conf_action(np.eye(n), bad),
            lambda: spd.conf_normalizer(bad),
            lambda: spd.require_unit_determinant(bad),
            lambda: spd._renormalize_det(bad),
            lambda: spd.unit_determinant(bad),
        ]
        for call in calls:
            with pytest.raises(NonFinite):
                call()
        # The same helpers on stacks name the bad entry.
        g = rng.standard_normal((4, n, n)) + 2.0 * np.eye(n)
        units = spd.unit_determinant(np.array([random_spd(rng, n) for _ in range(4)]))
        bad_g = g.copy()
        bad_g[2] = _with_entry(g[2], value)
        bad_units = units.copy()
        bad_units[2] = bad
        ends = np.array([random_spd(rng, n) for _ in range(4)])
        stack_calls = [
            lambda: spd.spd_geodesic(ends, batch, 0.5),
            lambda: spd.spd_geodesic(batch, ends, 0.5),
            lambda: spd.spd_sqrt(batch),
            lambda: spd.gl_action(g, batch),
            lambda: spd.gl_action(bad_g, units),
            lambda: spd.conf_action(g, bad_units),
            lambda: spd.conf_action(bad_g, units),
            lambda: spd.conf_normalizer(bad_g),
            lambda: spd.require_unit_determinant(bad_units),
            lambda: spd._renormalize_det(batch),
            lambda: spd.unit_determinant(batch),
        ]
        for call in stack_calls:
            with pytest.raises(NonFinite, match="entry 2"):
                call()

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_linalg_error_escapes(self, rng, n):
        P = random_spd(rng, n)
        bad_inputs = [
            _with_entry(P, np.nan),
            _with_entry(P, np.inf),
            np.zeros((n, n)),
            -P,
            np.diag([1.0] + [-1.0] * (n - 1)),
            np.ones((n, n)),
            P + np.triu(np.ones((n, n)), 1),
        ]
        calls = [
            spd.sym_eigen, spd.require_spd, spd.spd_log, spd.spd_exp,
            spd.spd_sqrt, spd.unit_determinant,
            lambda X: spd.spd_distance(P, X),
            lambda X: spd.spd_distance(X, P),
            lambda X: spd.spd_distances_from(P, np.array([P, X])),
            lambda X: spd.spd_distances_from(X, np.array([P])),
            lambda X: spd.pairwise_spd_distances(np.array([P, X, P])),
            lambda X: spd.spd_sqrt(np.array([P, X])),
            lambda X: spd.spd_geodesic(P, X, 0.5),
            lambda X: spd.spd_geodesic(X, P, 0.5),
        ]
        for X in bad_inputs:
            for call in calls:
                try:
                    call(X)
                except CocycleLabError:
                    pass
        # A non-symmetric endpoint is rejected at every n, as by
        # spd_distance, not read as the mean of its off-diagonals.
        for call in calls[-2:]:
            with pytest.raises(NotSymmetric):
                call(bad_inputs[-1])
