"""Centers and the quantitative lemma checks on Euclidean and Pos(2) data."""

from pathlib import Path

import numpy as np
import pytest

import cocyclelab
from cocyclelab import centers, spd
from cocyclelab.centers import (
    OUTER_STEP_CAP,
    _linearise,
    _tangent_bound,
    EuclideanSpace,
    PointSet,
    SPDSpace,
    bt_center,
    center_equivariance_check,
    chebyshev_center,
    check_ball_intersection_radius,
    check_center_continuity,
    check_diameter_shrink,
    diameter,
    hausdorff_distance,
    midpoint_set,
    pair_certificates,
    radius_at,
    space_selftest,
)
from cocyclelab.errors import (
    ConfigInvalid,
    EmptySet,
    NonFinite,
    NotIsometry,
    PreconditionViolated,
    SamplingFailure,
)

from conftest import (
    acute_scalene_triangle,
    exact_min_enclosing_ball,
    exact_min_enclosing_circle,
    random_spd,
    tetrahedron,
)

E2 = EuclideanSpace(2)
E3 = EuclideanSpace(3)
S2 = SPDSpace(2)


def spd_set(rng, m, spread=0.5):
    return PointSet(S2, np.array([random_spd(rng, 2, spread) for _ in range(m)]))


def elongated_sets(rng, dim, count):
    """Random sets of 3 to 12 points, squeezed across the first axis for
    every other set, so that both paths of the certificate occur."""
    for k in range(count):
        pts = rng.random((int(rng.integers(3, 13)), dim))
        if k % 2:
            pts[:, 1:] *= 0.2
        yield pts


def elongated_spd_sets(rng, n, count):
    """Pos(n) counterparts: exp(t S + noise) for t along a fixed direction."""
    direction = spd.symmetrize(rng.standard_normal((n, n)))
    for k in range(count):
        m = int(rng.integers(3, 13))
        noise = 0.5 if k % 2 == 0 else 0.05
        yield np.array([
            spd.spd_exp(rng.random() * direction + noise * spd.symmetrize(
                rng.standard_normal((n, n))))
            for _ in range(m)
        ])


class TestSpaces:
    def test_selftests(self, rng):
        planar = rng.random((30, 2))
        rep = space_selftest(E2, planar, rng, triples=120)
        assert rep["pass"], rep
        pts = np.array([random_spd(rng, 2, 0.6) for _ in range(20)])
        rep = space_selftest(S2, pts, rng, triples=120)
        assert rep["pass"], rep

    @pytest.mark.parametrize("space", [
        E2, E3, S2, SPDSpace(3), SPDSpace(2, conformal=True),
    ], ids=lambda s: s.name)
    def test_log_exp_isometric_and_inverse(self, rng, space):
        if isinstance(space, EuclideanSpace):
            z, pts = rng.random(space.dim), rng.random((6, space.dim))
        else:
            z, *pts = [random_spd(rng, space.n, 0.8) for _ in range(7)]
            if space.conformal:
                z, *pts = [spd.unit_determinant(p) for p in [z, *pts]]
            pts = np.array(pts)
        chart = space.chart(z)
        y = chart.log(space.points(pts))
        assert y.shape == (6, space.dim)
        # Row norms are distances from z, and exp_z inverts log_z.
        dists = space.distances_from(z, pts)
        assert np.max(np.abs(np.linalg.norm(y, axis=1) - dists)) <= 1e-12
        for p, v in zip(pts, y):
            assert space.distance(chart.exp(v), p) <= 1e-12
        # exp_z(t log_z p) runs along the geodesic from z to p.
        mid = chart.exp(0.5 * y[0])
        assert space.distance(mid, space.geodesic(z, pts[0], 0.5)) <= 1e-12
        if getattr(space, "conformal", False):
            assert abs(np.linalg.det(mid) - 1.0) <= 1e-12


class TestRadiusAndDiameter:
    def test_singleton(self):
        ps = PointSet(E2, np.zeros((1, 2)))
        assert radius_at(ps, ps.points[0]) == 0.0
        assert diameter(ps) == 0.0

    def test_two_points(self):
        ps = PointSet(E2, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert abs(radius_at(ps, np.zeros(2)) - 1.0) <= 1e-15

    def test_radius_matches_brute_scan(self, rng):
        pts = rng.random((40, 2))
        ps = PointSet(E2, pts)
        v = rng.random(2)
        brute = max(np.linalg.norm(p - v) for p in pts)
        assert abs(radius_at(ps, v) - brute) <= 1e-12

    def test_diameter_right_triangle(self):
        ps = PointSet(E2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert abs(diameter(ps) - np.sqrt(2.0)) <= 1e-15

    def test_diameter_matches_brute_force(self, rng):
        pts = rng.random((25, 2))
        ps = PointSet(E2, pts)
        brute = max(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(25) for j in range(i + 1, 25)
        )
        assert abs(diameter(ps) - brute) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            PointSet(E2, np.zeros((0, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, value):
        pts = rng.random((5, 2))
        pts[3, 1] = value
        with pytest.raises(NonFinite):
            PointSet(E2, pts)
        mats = np.array([random_spd(rng, 2) for _ in range(5)])
        mats[2, 0, 1] = mats[2, 1, 0] = value
        with pytest.raises(NonFinite):
            PointSet(S2, mats)


class TestChebyshevCenter:
    def test_two_points_midpoint(self, rng):
        p, q = rng.random(2), rng.random(2) + 2.0
        rep = chebyshev_center(PointSet(E2, np.array([p, q])))
        assert np.linalg.norm(rep.center - (p + q) / 2.0) <= 1e-12
        assert abs(rep.radius - np.linalg.norm(p - q) / 2.0) <= 1e-12
        assert rep.support == (1, 0) and rep.iterations == 0
        assert rep.lower_bound <= rep.radius <= rep.lower_bound * (1 + 1e-12)

    def test_equilateral_triangle(self):
        # Circumcenter = centroid, radius 1/sqrt(3); oracle: exact
        # enclosing ball by support-set enumeration.
        pts = np.array([
            [0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]
        ])
        rep = chebyshev_center(PointSet(E2, pts))
        _, r_star = exact_min_enclosing_ball(pts)
        assert abs(rep.radius - 1.0 / np.sqrt(3.0)) <= 1e-9
        assert abs(rep.radius - r_star) <= 1e-12
        assert np.linalg.norm(rep.center - pts.mean(axis=0)) <= 1e-9
        # Three support points: the pair certificate fails, the tangent
        # ball certifies in one move.
        assert rep.support == (0, 1, 2) and rep.iterations == 1
        assert rep.lower_bound <= r_star <= rep.radius

    def test_spd_two_points(self):
        # Midpoint of the geodesic minimizes the max distance; oracle:
        # 1-d grid search along the geodesic.
        P, Q = np.eye(2), np.diag([np.e ** 2, 1.0])
        ps = PointSet(S2, np.array([P, Q]))
        rep = chebyshev_center(ps)
        mid = spd.spd_geodesic(P, Q, 0.5)
        assert spd.spd_distance(rep.center, mid) <= 1e-9
        assert abs(rep.radius - 1.0) <= 1e-9
        grid_best = min(
            max(spd.spd_distance(spd.spd_geodesic(P, Q, t), P),
                spd.spd_distance(spd.spd_geodesic(P, Q, t), Q))
            for t in np.linspace(0, 1, 201)
        )
        assert rep.radius <= grid_best + 1e-9

    def test_covering_invariant(self, rng):
        for _ in range(10):
            pts = rng.random((int(rng.integers(2, 20)), 2))
            ps = PointSet(E2, pts)
            rep = chebyshev_center(ps)
            dists = np.linalg.norm(pts - rep.center, axis=1)
            assert dists.max() <= rep.radius + 1e-6

    def test_optimality_against_lattice(self, rng):
        # Euclidean d <= 3: radius vs the exact minimum enclosing ball,
        # found by enumerating every support set of 2 to d + 1 points.
        for dim, space in ((2, E2), (3, E3)):
            pts = rng.random((7, dim))
            rep = chebyshev_center(PointSet(space, pts))
            _, r_star = exact_min_enclosing_ball(pts)
            assert abs(rep.radius - r_star) <= 1e-12
            assert rep.radius >= r_star - 1e-12
            # The planar set has a two-point support; the 3-D one needs four.
            want = {2: 2, 3: 4}[dim]
            assert len(rep.support) == want
            if dim == 3:
                assert set(rep.support) == {0, 3, 5, 6}
            assert rep.lower_bound <= r_star

    def test_uniqueness_proxy_two_starts(self, rng):
        # The minimizer is unique: a permuted set, whose first point (the
        # start of the farthest-pair scan) differs, has the same centre.
        for dim, space in ((2, E2), (3, E3)):
            pts = rng.random((8, dim))
            a = chebyshev_center(PointSet(space, pts))
            for _ in range(3):
                perm = rng.permutation(len(pts))
                b = chebyshev_center(PointSet(space, pts[perm]))
                assert np.linalg.norm(a.center - b.center) <= 1e-12
                assert set(perm[list(b.support)]) == set(a.support)
        ps = spd_set(rng, 7)
        a = chebyshev_center(ps)
        b = chebyshev_center(PointSet(S2, ps.points[::-1]))
        assert spd.spd_distance(a.center, b.center) <= 1e-12

    def test_uniqueness_proxy_structured(self, rng):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        reps = [chebyshev_center(PointSet(E2, np.roll(square, i, axis=0)))
                for i in range(4)]
        for rep in reps[1:]:
            assert np.linalg.norm(rep.center - reps[0].center) <= 1e-12
        spd_pair = np.array([np.eye(2), np.diag([4.0, 0.5])])
        a = chebyshev_center(PointSet(S2, spd_pair))
        b = chebyshev_center(PointSet(S2, spd_pair[::-1]))
        assert spd.spd_distance(a.center, b.center) <= 1e-12

    def test_matches_exact_circle(self, rng):
        for _ in range(3):
            pts = rng.random((9, 2))
            rep = chebyshev_center(PointSet(E2, pts))
            c_star, r_star = exact_min_enclosing_circle(pts)
            assert rep.radius - r_star <= 1e-12
            assert rep.radius >= r_star - 1e-12


class TestCertificate:
    def test_pair_support_is_exact(self, rng):
        certified = 0
        for dim in (2, 3):
            for pts in elongated_sets(rng, dim, 40):
                rep = chebyshev_center(PointSet(EuclideanSpace(dim), pts))
                c_star, r_star = exact_min_enclosing_ball(pts)
                assert rep.lower_bound <= r_star + 1e-12
                assert rep.radius >= r_star - 1e-12
                assert abs(rep.radius - r_star) <= 1e-12
                # The oracle's support: the points on its sphere.
                far = np.linalg.norm(pts - c_star, axis=1)
                assert set(rep.support) == set(np.flatnonzero(far >= r_star - 1e-9))
                if rep.iterations == 0:
                    certified += 1
                    assert len(rep.support) == 2
        assert 20 <= certified < 80

    def test_certified_diameter_matches_brute_force(self, rng):
        sets = [(EuclideanSpace(dim), pts)
                for dim in (2, 3) for pts in elongated_sets(rng, dim, 20)]
        sets += [(SPDSpace(n), pts)
                 for n in (2, 3) for pts in elongated_spd_sets(rng, n, 20)]
        certified = 0
        for space, pts in sets:
            ps = PointSet(space, pts)
            brute = max(
                space.distance(pts[i], pts[j])
                for i in range(len(pts)) for j in range(i + 1, len(pts))
            )
            assert abs(diameter(ps) - brute) <= 1e-12
            certified += len(chebyshev_center(ps).support) == 2
        assert 0 < certified < len(sets)


    def test_lower_bound_is_exact_off_centre(self, rng):
        # In R^d, z + sum w_i y_i is the centre and F_w(z) - |sum w_i y_i|^2
        # the weighted variance of the support about it, r*^2, from any z.
        # Outside the set's bounding box |sum w_i y_i| >= 0.5, so the bound
        # is wrong there without that term.
        for dim in (2, 3):
            space = EuclideanSpace(dim)
            for pts in elongated_sets(rng, dim, 20):
                c_star, r_star = exact_min_enclosing_ball(pts)
                for z in (pts[0], pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5):
                    _, g, radius, bound = linearise_at(space, pts, z)
                    assert np.linalg.norm(z + g - c_star) <= 1e-12
                    assert abs(bound - r_star) <= 1e-12 * max(r_star, 1.0)
                    far = np.linalg.norm(pts - z, axis=1).max()
                    assert abs(radius - far) <= 1e-12 * max(far, 1.0)


def counting_balls(monkeypatch):
    """Patch ``centers._tangent_ball`` to record one entry per call."""
    calls = []
    real = centers._tangent_ball
    monkeypatch.setattr(centers, "_tangent_ball",
                        lambda y: calls.append(len(y)) or real(y))
    return calls


def linearise_at(space, pts, z, ball=None):
    """The re-linearisation of the centre search at z: ball, step g,
    covering radius and lower bound."""
    return _linearise(space.chart(z).log(space.points(pts)), ball)


def tangent_bound_at(space, pts, z, ball):
    """The lower bound of ``ball`` = (support, weights) at z."""
    y = space.chart(z).log(space.points(pts))
    return _tangent_bound(y, np.einsum("ij,ij->i", y, y), ball)[1]


class TestStaleWeights:
    def test_any_weights_bound_the_optimum(self, rng):
        # sqrt(F_w(z) - |g|^2) <= r* for every probability vector w and
        # every z, not only for the enclosing ball's weights at z.
        for dim in (2, 3):
            space = EuclideanSpace(dim)
            for pts in elongated_sets(rng, dim, 20):
                _, r_star = exact_min_enclosing_ball(pts)
                for _ in range(10):
                    z = pts.mean(axis=0) + rng.standard_normal(dim)
                    support = np.flatnonzero(rng.random(len(pts)) < 0.6)
                    if len(support) == 0:
                        support = np.arange(len(pts))
                    w = rng.dirichlet(np.ones(len(support)))
                    bound = tangent_bound_at(space, pts, z, (support, w))
                    assert bound <= r_star + 1e-12 * max(r_star, 1.0)

    def test_stale_bound_never_exceeds_fresh(self, rng):
        # Along the full steps of the search on Pos(2) sets, the last ball's
        # weights, and random weights, bound no more than a fresh ball at
        # the same z: the fresh weights maximise the weighted variance.
        compared = 0
        for m in range(3, 10):
            for _ in range(4):
                pts = np.array([random_spd(rng, 2, 0.6) for _ in range(m)])
                z = pair_certificates(S2, pts).mids[0]
                ball, g, _, _ = linearise_at(S2, pts, z)
                for _ in range(4):
                    z = S2.chart(z).exp(g)
                    fresh_ball, g, radius, fresh = linearise_at(S2, pts, z)
                    w = rng.dirichlet(np.ones(m))
                    for stale_ball in (ball, (np.arange(m), w)):
                        stale = tangent_bound_at(S2, pts, z, stale_ball)
                        assert stale <= fresh + 1e-12
                        assert stale <= radius + 1e-12
                        compared += 1
                    ball = fresh_ball
        assert compared == 7 * 4 * 4 * 2

    def test_euclidean_search_solves_one_ball(self, rng, monkeypatch):
        # The first move lands on the exact centre, where the same weights
        # certify: one ball and one move wherever the pair certificate fails.
        calls = counting_balls(monkeypatch)
        searched = 0
        for dim in (2, 3):
            triangle = np.pad(acute_scalene_triangle(), ((0, 0), (0, dim - 2)))
            for pts in [triangle, *elongated_sets(rng, dim, 30)]:
                calls.clear()
                rep = chebyshev_center(PointSet(EuclideanSpace(dim), pts))
                if rep.iterations == 0:
                    assert calls == []
                    continue
                assert (rep.iterations, len(calls)) == (1, 1)
                assert_certified(rep)
                searched += 1
        assert searched >= 20

    def test_spd_search_solves_one_ball_per_move(self, rng, monkeypatch):
        # One ball at each z but the last, which the stale weights certify.
        calls = counting_balls(monkeypatch)
        moves = 0
        for n in (2, 3):
            for m in range(3, 10):
                pts = np.array([random_spd(rng, n, 0.6) for _ in range(m)])
                calls.clear()
                rep = chebyshev_center(PointSet(SPDSpace(n), pts))
                assert len(calls) == rep.iterations
                assert_certified(rep)
                moves += rep.iterations
        assert moves >= 20


class TestTangentFactorisation:
    def test_one_cholesky_per_move(self, rng, monkeypatch):
        # Every z of the search is factorised once, for its log and its
        # exp, and the point stack is checked once per search.
        factorised, checked = [], []
        cholesky, symmetric = spd._cholesky, spd._symmetric
        monkeypatch.setattr(spd, "_cholesky", lambda P, what: (
            factorised.append(what) or cholesky(P, what)))
        monkeypatch.setattr(spd, "_symmetric", lambda a, what: (
            checked.append(np.shape(a)) or symmetric(a, what)))
        moves = 0
        for space in (SPDSpace(2), SPDSpace(3), SPDSpace(2, conformal=True)):
            for m in range(3, 10):
                pts = np.array([random_spd(rng, space.n, 0.6)
                                for _ in range(m)])
                if space.conformal:
                    pts = spd.unit_determinant(pts)
                z = pair_certificates(space, pts).mids[0]
                factorised.clear()
                checked.clear()
                rep = centers._tangent_center(space, pts, z)
                assert factorised == ["reference point"] * (rep.iterations + 1)
                assert checked.count(pts.shape) == 1
                assert_certified(rep)
                moves += rep.iterations
        assert moves >= 20


def ragged_segments(rng, space, sizes):
    """One point set per size: every other one along a line or geodesic,
    where the pair certificate tends to hold, the rest spread out."""
    if isinstance(space, EuclideanSpace):
        direction = rng.standard_normal(space.dim)
        for k, m in enumerate(sizes):
            pts = rng.standard_normal((m, space.dim))
            yield (np.outer(rng.random(m), direction) + 0.05 * pts
                   if k % 2 == 0 else pts)
        return
    n = space.n
    direction = spd.symmetrize(rng.standard_normal((n, n)))
    for k, m in enumerate(sizes):
        along, noise = (1.0, 0.02) if k % 2 == 0 else (0.0, 0.5)
        pts = np.array([
            spd.spd_exp(along * rng.random() * direction
                        + noise * spd.symmetrize(rng.standard_normal((n, n))))
            for _ in range(m)
        ])
        yield spd.unit_determinant(pts) if space.conformal else pts


def assert_same_report(got, want):
    assert np.array_equal(got.center, want.center)
    assert (got.radius, got.lower_bound, got.iterations, got.support) == (
        want.radius, want.lower_bound, want.iterations, want.support)


def assert_matches_one_segment_calls(space, segments):
    """The segmented certificate equals the one-segment call on every
    segment, field by field, with the same diameters and centres."""
    bounds = np.cumsum([0] + [len(pts) for pts in segments])
    cert = pair_certificates(space, np.concatenate(segments), bounds)
    diameters = cert.diameters()
    for i, pts in enumerate(segments):
        one = pair_certificates(space, pts)
        assert cert.first[i] == one.first[0]
        assert cert.second[i] == one.second[0]
        assert np.array_equal(cert.half[i], one.half[0])
        assert np.array_equal(cert.mids[i], one.mids[0])
        assert np.array_equal(cert.radius[i], one.radius[0])
        assert diameters[i] == diameter(PointSet(space, pts))
        assert_same_report(cert.center(i), chebyshev_center(PointSet(space, pts)))
    return cert


class TestPairCertificates:
    @pytest.mark.parametrize("space", [
        EuclideanSpace(3), SPDSpace(2), SPDSpace(2, conformal=True), SPDSpace(3),
    ], ids=lambda space: space.name)
    def test_segmented_equals_one_segment_calls(self, rng, space):
        sizes = (3, 300, 1, 2, 300, 1, 3)
        cert = assert_matches_one_segment_calls(
            space, list(ragged_segments(rng, space, sizes)))
        certified = [cert.center(i).iterations == 0
                     for i, m in enumerate(sizes) if m > 2]
        assert any(certified) and not all(certified)

    @pytest.mark.parametrize("space", [EuclideanSpace(3), SPDSpace(2)],
                             ids=lambda space: space.name)
    def test_passes_take_whole_segments(self, rng, space):
        # A segment longer than PAIR_CHUNK takes a pass alone; the others
        # share passes of at most PAIR_CHUNK points.
        sizes = (2, 300, spd.PAIR_CHUNK + 904, 1, 3000, 3, 3000)
        assert_matches_one_segment_calls(
            space, list(ragged_segments(rng, space, sizes)))

    def test_ties_take_the_first_index(self):
        # From 0, the points 1 and -1 tie at distance 1, so a = 1; from 1
        # the two copies of -1 tie, so b = 2.
        line = EuclideanSpace(1)
        tied = np.array([[0.0], [1.0], [-1.0], [-1.0], [1.0]])
        cert = pair_certificates(line, np.concatenate([[[5.0], [7.0]], tied, tied]),
                                 np.array([0, 2, 7, 12]))
        assert cert.first.tolist() == [1, 1, 1]
        assert cert.second.tolist() == [0, 2, 2]
        one = pair_certificates(line, tied)
        assert (one.first[0], one.second[0]) == (1, 2)
        assert chebyshev_center(PointSet(line, tied)).support == (1, 2)

    def test_failing_segments_match_chebyshev_center(self, rng):
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        segments = [triangle, rng.random((2, 2)), rng.random((9, 2)),
                    triangle + 3.0, rng.random((1, 2))]
        cert = assert_matches_one_segment_calls(E2, segments)
        # Neither triangle pair-certifies; the tangent ball takes one move.
        assert [cert.center(i).iterations for i in (0, 3)] == [1, 1]


def _regular_polygon(m):
    angles = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def battery_sets(rng):
    """Euclidean sets of 2 to 12 points in R^2 and R^3: random at two
    scales, with repeated points, collinear, regular polygons (also in a
    plane of R^3) and regular tetrahedra."""
    for dim in (2, 3):
        for m in range(2, 13):
            yield rng.random((m, dim))
            yield 3.0 * rng.standard_normal((m, dim))
            line = np.outer(rng.random(m), rng.standard_normal(dim))
            yield line + rng.random(dim)
            if m >= 3:
                pts = rng.random((m, dim))
                pts[m // 2:] = pts[:m - m // 2]
                yield pts
    for m in range(3, 13):
        yield _regular_polygon(m)
        yield np.column_stack([_regular_polygon(m), np.zeros(m)]) + 0.25
    yield tetrahedron()
    yield tetrahedron(2.5) - 1.0


def criterion_01_spd_sets(count):
    """The first ``count`` Pos(2) sets of acceptance criterion 01, drawn by
    replaying its generator: every point lies at distance 0.35 from I."""
    rng = np.random.default_rng(1)
    for _ in range(500):
        m = int(rng.integers(4, 16))
        rng.random((m, 2))
        rng.uniform(0.5, 2.0)
        rng.random(m)
        rng.random(m)
    for _ in range(count):
        m = int(rng.integers(4, 9))
        pts = np.array([random_spd(rng, 2, 0.35) for _ in range(m)])
        yield pts
        for _ in pts:
            rng.standard_normal((2, 2))
            rng.random()


def assert_certified(rep):
    assert rep.lower_bound <= rep.radius
    assert rep.radius - rep.lower_bound <= 1e-12 * max(rep.radius, 1.0)


class TestCertifiedBattery:
    def test_euclidean_against_exact_ball(self, rng):
        count = 0
        for pts in battery_sets(rng):
            rep = chebyshev_center(PointSet(EuclideanSpace(pts.shape[1]), pts))
            _, r_star = exact_min_enclosing_ball(pts)
            assert_certified(rep)
            # lower_bound <= r* <= radius, up to the oracle's own rounding
            # (it puts the unit hexagon's radius at 1 - 6e-16).
            ulps = 1e-14 * max(r_star, 1.0)
            assert rep.lower_bound <= r_star + ulps
            assert r_star <= rep.radius + ulps
            dists = np.linalg.norm(pts - rep.center, axis=1)
            assert dists.max() <= rep.radius + ulps
            assert rep.iterations <= 1
            count += 1
        assert count > 100

    @pytest.mark.parametrize("n", [2, 3])
    def test_gl_equivariance(self, rng, n):
        space = SPDSpace(n)
        for m in range(3, 10):
            pts = np.array([random_spd(rng, n, 0.6) for _ in range(m)])
            g = rng.standard_normal((n, n)) + 1.5 * np.eye(n)
            mapped = np.array([spd.gl_action(g, p) for p in pts])
            a = chebyshev_center(PointSet(space, pts))
            b = chebyshev_center(PointSet(space, mapped))
            assert_certified(a)
            assert_certified(b)
            assert spd.spd_distance(spd.gl_action(g, a.center), b.center) <= 1e-9
            assert abs(a.radius - b.radius) <= 1e-9

    def test_conformal_sets_stay_on_slice(self, rng):
        space = SPDSpace(2, conformal=True)
        for m in range(3, 9):
            pts = np.array([spd.unit_determinant(random_spd(rng, 2, 0.7))
                            for _ in range(m)])
            rep = chebyshev_center(PointSet(space, pts))
            assert_certified(rep)
            assert abs(np.linalg.det(rep.center) - 1.0) <= 1e-12

    def test_cospherical_criterion_01_sets_terminate(self):
        # Set 7 made an active set without the radius guard cycle forever.
        for i, pts in enumerate(criterion_01_spd_sets(12)):
            d = spd.spd_distances_from(np.eye(2), pts)
            assert np.max(np.abs(d - 0.35)) <= 1e-12
            assert_certified(chebyshev_center(PointSet(S2, pts)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_wide_spd_sets_certify(self, rng, n):
        # Radii up to ~3: full steps overshoot here and need the damping.
        for spread in (2.0, 3.0, 4.0):
            for _ in range(6):
                m = int(rng.integers(3, 9))
                pts = np.array([random_spd(rng, n, spread) for _ in range(m)])
                rep = chebyshev_center(PointSet(SPDSpace(n), pts))
                assert_certified(rep)
                assert rep.iterations < OUTER_STEP_CAP

    def test_library_does_not_import_the_oracle(self):
        src = Path(cocyclelab.__file__).parent
        for path in src.glob("*.py"):
            text = path.read_text()
            assert "conftest" not in text and "exact_min_enclosing" not in text


class TestBTCenter:
    def test_two_points(self, rng):
        p, q = rng.random(2), rng.random(2) + 1.0
        ps = PointSet(E2, np.array([p, q]))
        assert np.linalg.norm(bt_center(ps) - (p + q) / 2.0) <= 1e-12

    def test_acute_scalene_longest_side_midpoint(self):
        pts = acute_scalene_triangle()
        sides = [
            (np.linalg.norm(pts[i] - pts[j]), i, j)
            for i in range(3) for j in range(i + 1, 3)
        ]
        _, i, j = max(sides)
        star = bt_center(PointSet(E2, pts))
        assert np.linalg.norm(star - (pts[i] + pts[j]) / 2.0) <= 1e-6

    def test_differs_from_chebyshev_on_scalene(self):
        pts = acute_scalene_triangle()
        ps = PointSet(E2, pts)
        star = bt_center(ps)
        cheb = chebyshev_center(ps).center
        assert np.linalg.norm(star - cheb) > 1e-3

    def test_coincide_on_two_point_sets(self, rng):
        p, q = rng.random(2), rng.random(2) + 1.0
        ps = PointSet(E2, np.array([p, q]))
        star = bt_center(ps)
        cheb = chebyshev_center(ps).center
        assert np.linalg.norm(star - cheb) <= 1e-9

    def test_rounds_below_one_rejected(self, rng):
        with pytest.raises(ConfigInvalid):
            bt_center(PointSet(E2, rng.random((3, 2))), rounds=0)

    def test_tetrahedron_collapses_to_centroid(self):
        # Hand iteration: edge midpoints form an octahedron, whose
        # diametral midpoints all equal the centroid.
        pts = tetrahedron()
        star = bt_center(PointSet(E3, pts))
        assert np.linalg.norm(star - pts.mean(axis=0)) <= 1e-12


class TestMidpointSet:
    def test_pair(self, rng):
        p, q = rng.random(2), rng.random(2) + 1.0
        mids = midpoint_set(PointSet(E2, np.array([p, q])))
        assert len(mids) == 1
        assert np.linalg.norm(mids.points[0] - (p + q) / 2.0) <= 1e-12

    def test_square_collapses_to_center(self):
        # Both diagonals produce the same midpoint (enumeration oracle).
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mids = midpoint_set(PointSet(E2, corners))
        assert len(mids) == 1
        assert np.linalg.norm(mids.points[0] - [0.5, 0.5]) <= 1e-12

    def test_tetrahedron_edge_midpoints(self):
        pts = tetrahedron(side=1.0)
        mids = midpoint_set(PointSet(E3, pts))
        assert len(mids) == 6
        # Opposite-edge midpoint pairs realize the diameter s/sqrt(2).
        assert abs(diameter(mids) - 1.0 / np.sqrt(2.0)) <= 1e-12


class TestDiameterShrink:
    def test_segment_ratio_zero(self):
        ps = PointSet(E2, np.array([[0.0, 0.0], [1.0, 0.0]]))
        rep = check_diameter_shrink(ps)
        assert rep.ratio == 0.0 and rep.passed

    def test_tetrahedron_sharpness(self):
        rep = check_diameter_shrink(PointSet(E3, tetrahedron()))
        assert abs(rep.ratio - 1.0 / np.sqrt(2.0)) <= 1e-9
        assert rep.passed

    def test_random_planar_sets(self, rng):
        for _ in range(100):
            pts = rng.random((int(rng.integers(3, 10)), 2))
            rep = check_diameter_shrink(PointSet(E2, pts))
            assert rep.passed
            brute = np.linalg.norm(pts[:, None] - pts[None], axis=2).max()
            assert abs(rep.diam_before - brute) <= 1e-15


class TestCenterContinuity:
    def test_identical_sets(self, rng):
        pts = rng.random((6, 2))
        rep = check_center_continuity(PointSet(E2, pts), PointSet(E2, pts))
        assert rep.lhs <= 1e-12 and rep.passed and rep.radius_gap_ok

    def test_two_point_shift(self):
        # Shift one endpoint by eps along the segment: the center moves
        # eps/2, so lhs = eps^2/4 <= 8 eps r_B.
        eps = 1e-3
        a = PointSet(E2, np.array([[0.0, 0.0], [1.0, 0.0]]))
        b = PointSet(E2, np.array([[0.0, 0.0], [1.0 + eps, 0.0]]))
        rep = check_center_continuity(a, b)
        assert abs(rep.lhs - eps ** 2 / 4.0) <= 1e-10
        assert rep.passed and rep.radius_gap_ok

    def test_random_perturbations(self, rng):
        for eps in (1e-2, 1e-1):
            for _ in range(20):
                m = int(rng.integers(4, 12))
                pts = rng.random((m, 2))
                ang = rng.random(m) * 2 * np.pi
                rad = eps * np.sqrt(rng.random(m))
                pts_e = pts + np.column_stack(
                    [rad * np.cos(ang), rad * np.sin(ang)]
                )
                rep = check_center_continuity(
                    PointSet(E2, pts), PointSet(E2, pts_e)
                )
                assert rep.passed
                assert rep.radius_gap_ok

    def test_hausdorff_double_scan(self, rng):
        a = rng.random((8, 2))
        b = rng.random((5, 2))
        got = hausdorff_distance(PointSet(E2, a), PointSet(E2, b))
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert abs(got - want) <= 1e-12

    def test_hausdorff_spd_against_pairwise_distances(self, rng):
        a = np.array([random_spd(rng, 2, 0.8) for _ in range(7)])
        b = np.array([random_spd(rng, 2, 0.8) for _ in range(4)])
        got = hausdorff_distance(PointSet(S2, a), PointSet(S2, b))
        d = np.array([[spd.spd_distance(p, q) for q in b] for p in a])
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert abs(got - want) <= 1e-12
        assert got == hausdorff_distance(PointSet(S2, b), PointSet(S2, a))

    @pytest.mark.parametrize("space", [E2, S2], ids=["euclidean", "pos2"])
    @pytest.mark.parametrize("sizes", [(1, 1), (1, 5), (6, 1), (7, 3), (2, 9)])
    def test_hausdorff_against_brute_force(self, rng, space, sizes):
        def draw(m):
            if space is E2:
                return rng.random((m, 2))
            return np.array([random_spd(rng, 2, 0.8) for _ in range(m)])

        a, b = draw(sizes[0]), draw(sizes[1])
        d = np.array([[space.distance(p, q) for q in b] for p in a])
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        got = hausdorff_distance(PointSet(space, a), PointSet(space, b))
        assert abs(got - want) <= 1e-12


def scalar_ball_battery(space, v0, v0p, r0, eps, samples, rng):
    """Reference for check_ball_intersection_radius: one sample at a time,
    through scalar exp and distance, with its own traceless projection on
    the det-1 slice.  Returns (accepted, max distance to the midpoint)."""
    eps0 = space.distance(v0, v0p)
    mid = space.geodesic(v0, v0p, 0.5)
    cover = r0 + eps + 0.5 * eps0
    accepted, worst = 0, 0.0
    for _ in range(samples):
        u = rng.standard_normal(space.dim)
        if getattr(space, "conformal", False):
            # Tangent coordinates list the upper triangle row by row.
            rows, cols = np.triu_indices(space.n)
            u[rows == cols] -= np.mean(u[rows == cols])
        u = u / np.linalg.norm(u)
        y = space.chart(mid).exp(cover * rng.random() ** (1.0 / space.dim) * u)
        if space.distance(y, v0) <= r0 + eps and space.distance(y, v0p) <= r0 + eps:
            accepted += 1
            worst = max(worst, space.distance(y, mid))
    return accepted, worst


def ball_cases():
    """(space, v0, v0', r0, eps) at d(v0, v0') = 0.4 or 0.5, r0 = 1 and
    eps just under d^2 / 16."""
    half = np.diag([0.5, -0.5]) / np.sqrt(2.0)
    return [
        (E2, np.zeros(2), np.array([0.4, 0.0]), 1.0, 0.01),
        (S2, np.eye(2), spd.spd_exp(0.5 * np.eye(2) / np.sqrt(2.0)), 1.0, 0.015),
        (SPDSpace(3), np.eye(3), spd.spd_exp(0.5 * np.eye(3) / np.sqrt(3.0)),
         1.0, 0.015),
        (SPDSpace(2, conformal=True), np.eye(2), spd.spd_exp(half), 1.0, 0.015),
    ]


class TestBallIntersection:
    def test_degenerate_centers(self, rng):
        rep = check_ball_intersection_radius(
            E2, np.zeros(2), np.zeros(2), 1.0, 0.01, 100, rng
        )
        assert rep.degenerate and rep.passed

    def test_precondition(self, rng):
        with pytest.raises(PreconditionViolated):
            check_ball_intersection_radius(
                E2, np.zeros(2), np.array([0.4, 0.0]), 1.0, 0.02, 100, rng
            )

    def test_planar(self, rng):
        rep = check_ball_intersection_radius(
            E2, np.zeros(2), np.array([0.4, 0.0]), 1.0, 0.01, 10_000, rng
        )
        assert rep.samples_accepted > 100
        assert rep.passed
        assert rep.max_distance_to_midpoint <= 0.99

    def test_spd(self, rng):
        v0 = np.eye(2)
        v0p = spd.spd_exp(0.5 * np.eye(2) / np.sqrt(2.0))
        assert abs(spd.spd_distance(v0, v0p) - 0.5) <= 1e-12
        rep = check_ball_intersection_radius(
            S2, v0, v0p, 1.0, 0.015, 2_000, rng
        )
        assert rep.samples_accepted > 50
        assert rep.passed

    @pytest.mark.parametrize("case", ball_cases(), ids=lambda c: c[0].name)
    def test_batch_matches_scalar_reference(self, case):
        space, v0, v0p, r0, eps = case
        rep = check_ball_intersection_radius(
            space, v0, v0p, r0, eps, 1500, np.random.default_rng(11)
        )
        accepted, worst = scalar_ball_battery(
            space, v0, v0p, r0, eps, 1500, np.random.default_rng(11)
        )
        assert rep.samples_accepted == accepted > 50
        assert abs(rep.max_distance_to_midpoint - worst) <= 1e-12
        assert rep.passed

    @pytest.mark.parametrize("case", ball_cases(), ids=lambda c: c[0].name)
    def test_stacked_exp_matches_rows(self, rng, case):
        space, z = case[0], case[2]
        V = 0.7 * rng.standard_normal((6, space.dim))
        chart = space.chart(z)
        out = chart.exp(V)
        assert out.shape == (6,) + np.shape(z)
        for v, y in zip(V, out):
            assert np.max(np.abs(chart.exp(v) - y)) <= 1e-12
        if getattr(space, "conformal", False):
            assert np.max(np.abs(np.linalg.det(out) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_rejected(self, rng, samples):
        with pytest.raises(ConfigInvalid):
            check_ball_intersection_radius(
                E2, np.zeros(2), np.array([0.4, 0.0]), 1.0, 0.01, samples, rng
            )

    def test_no_sample_accepted(self):
        case = ball_cases()[0]
        seed = next(s for s in range(100) if scalar_ball_battery(
            *case, 1, np.random.default_rng(s))[0] == 0)
        with pytest.raises(SamplingFailure):
            check_ball_intersection_radius(*case, 1, np.random.default_rng(seed))


class TestEquivariance:
    def test_identity_map(self, rng):
        ps = PointSet(E2, rng.random((7, 2)))
        assert center_equivariance_check(ps, lambda p: p)

    def test_planar_rotation(self, rng):
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = np.array([0.3, -1.2])
        ps = PointSet(E2, rng.random((9, 2)))
        assert center_equivariance_check(ps, lambda p: rot @ p + shift)

    def test_gl2_action_on_spd_sets(self, rng):
        ps = spd_set(rng, 6)
        g = rng.standard_normal((2, 2)) + 1.5 * np.eye(2)
        assert center_equivariance_check(ps, lambda p: spd.gl_action(g, p))

    def test_non_isometry_rejected(self, rng):
        ps = PointSet(E2, rng.random((5, 2)))
        with pytest.raises(NotIsometry):
            center_equivariance_check(ps, lambda p: 2.0 * p)

    def test_semigroup_fix_property(self, rng):
        # iso(B) = B (a symmetry of the set) forces iso to fix the center.
        theta = 2.0 * np.pi / 4.0
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        center = np.array([0.4, -0.7])
        seed = rng.random(2)
        orbit = []
        p = seed.copy()
        for _ in range(4):
            orbit.append(center + p)
            p = rot @ p
        inner = 0.3 * (rng.random(2) - 0.5)
        q = inner.copy()
        for _ in range(4):
            orbit.append(center + q)
            q = rot @ q
        ps = PointSet(E2, np.array(orbit))

        def iso(v):
            return rot @ (v - center) + center

        mapped = np.array([iso(v) for v in ps.points])
        match = np.min(
            np.linalg.norm(mapped[:, None, :] - ps.points[None, :, :], axis=2),
            axis=1,
        )
        assert match.max() <= 1e-9  # iso(B) is B, pointwise
        rep = chebyshev_center(ps)
        assert np.linalg.norm(iso(rep.center) - rep.center) <= 1e-6
