"""Centers of bounded point sets in a CAT(0) space.

Two notions are implemented over an abstract space contract: distance,
geodesic (of one pair, or of each pair of two paired stacks), distance
scans, ``points(batch)``, which checks a batch once,
and ``chart(z)``, whose ``log`` and ``exp`` map such a batch and tangent
vectors between the space and isometric tangent coordinates at z:

* the Chebyshev center, the unique minimizer of the covering radius
  r_B(v) = max_w d(v, w), returned with a lower bound on the optimal
  radius within CERTIFICATE_SLACK of its own;
* the iterated-midpoint center, obtained by repeatedly replacing a set
  with the midpoints of its (nearly) diametral pairs.

Both the Chebyshev center and the diameter start from the two-point
certificate of :func:`pair_certificates`, which certifies the segments of
one stack together, many fibres at once or a single set.

Where it fails, the centre search re-linearises at z and bounds the
optimal radius from below by weights w on the points: r*^2 >= F_w(c*)
for F_w = sum w_i d(., p_i)^2, and F_w is 2-strongly geodesically convex
(Sturm 2003), so F_w(c*) >= F_w(z) - |sum w_i log_z p_i|^2.  Nothing in
this uses the choice of w beyond sum w_i = 1, w >= 0: the weights of the
tangent enclosing ball make the bound largest at the z where they were
solved, and the same weights, kept at the next z, still bound r*.  So a
move is certified first with the last ball's weights, and a new ball is
solved only when that stale bound falls short.

Pos(n) is one space, :class:`SPDSpace`, with :class:`spd.Whitening` as
its chart; det-1 sets need no other (see :class:`SPDSpace`).

The quantitative checks — center continuity d(ctr B, ctr B_eps)^2 <=
8 eps r_B, the sqrt(2) diameter shrink of midpoint sets, and the radius
drop of intersecting balls — live here as report-producing operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spd
from .errors import (
    ConfigInvalid,
    EmptySet,
    NoConvergence,
    NonFinite,
    NotIsometry,
    PreconditionViolated,
    SamplingFailure,
)

COVERING_SLACK = 1e-7
# Slack of every certificate: a centre whose covering radius exceeds the
# lower bound on the optimum by at most CERTIFICATE_SLACK * max(bound, 1)
# is accepted.  Relative for large sets; absolute for small ones,
# because a distance rounds at ~1e-16 whatever its size: in 10 of 512 cells
# of a 2e5-step Pos(2) reduction, cells of half-diameter 5e-5 to 9e-4 missed
# a purely relative 1e-12 by 2e-16 to 1e-15.
CERTIFICATE_SLACK = 1e-12
# Slack of the tangent ball's covering and weight tests, far below the above.
SUPPORT_TOL = 1e-14
# Moves of the centre after which chebyshev_center raises NoConvergence.
OUTER_STEP_CAP = 100


# -- space contracts ---------------------------------------------------------

class EuclideanSpace:
    """R^d with straight-line geodesics."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.name = f"euclidean:{self.dim}"
        self.curvature_bound = 0.0

    def distance(self, p, q) -> float:
        return float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float)))

    def geodesic(self, p, q, t: float):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        return (1.0 - t) * p + t * q

    def distances_from(self, p, batch: np.ndarray) -> np.ndarray:
        diff = np.asarray(batch, float) - np.asarray(p, float)
        return np.sqrt(np.sum(diff * diff, axis=1))

    def pairwise(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, float)
        iu, ju = np.triu_indices(batch.shape[0], k=1)
        diff = batch[iu] - batch[ju]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def points(self, batch: np.ndarray) -> np.ndarray:
        return np.asarray(batch, float)

    def chart(self, z) -> "_EuclideanChart":
        return _EuclideanChart(z)


class _EuclideanChart:
    """log_z and exp_z of R^d."""

    def __init__(self, z):
        self.z = np.asarray(z, float)

    def log(self, pts: np.ndarray) -> np.ndarray:
        return pts - self.z

    def exp(self, v: np.ndarray) -> np.ndarray:
        return self.z + v


class SPDSpace:
    """Pos(n) with the affine-invariant metric; also the space of sets on
    the det-1 slice Conf(n), which is closed, convex and totally geodesic:
    by the Bruhat-Tits centre lemma the centre of a bounded set lies in
    every closed convex set that contains it, so the geodesics and centres
    of det-1 points stay on the slice up to rounding."""

    def __init__(self, n: int):
        self.n = int(n)
        self.dim = self.n * (self.n + 1) // 2
        self.name = f"pos:{self.n}"
        self.curvature_bound = 0.5  # sectional curvatures lie in [-1/2, 0]

    def distance(self, p, q) -> float:
        return spd.spd_distance(p, q)

    def geodesic(self, p, q, t: float):
        return spd.spd_geodesic(p, q, t)

    def distances_from(self, p, batch: np.ndarray) -> np.ndarray:
        return spd.spd_distances_from(p, batch)

    def pairwise(self, batch: np.ndarray) -> np.ndarray:
        return spd.pairwise_spd_distances(batch)

    def points(self, batch: np.ndarray) -> np.ndarray:
        """The batch checked once, for :meth:`chart` logs."""
        return spd._symmetric(batch, "batch")

    def chart(self, z) -> spd.Whitening:
        return spd.Whitening(z)


def space_selftest(space, sample_points: np.ndarray, rng: np.random.Generator,
                   triples: int = 100, tol: float = 1e-9) -> dict:
    """Spot-check the metric axioms and the median inequality on samples."""
    pts = np.asarray(sample_points)
    m = pts.shape[0]
    worst_tri = 0.0
    worst_med = -np.inf
    worst_sym = 0.0
    for _ in range(triples):
        i, j, k = rng.integers(0, m, size=3)
        p, q, w = pts[i], pts[j], pts[k]
        dpq = space.distance(p, q)
        dqp = space.distance(q, p)
        worst_sym = max(worst_sym, abs(dpq - dqp))
        worst_tri = max(
            worst_tri, dpq - space.distance(p, w) - space.distance(w, q)
        )
        mid = space.geodesic(p, q, 0.5)
        lhs = space.distance(mid, w) ** 2
        rhs = (space.distance(p, w) ** 2 / 2.0
               + space.distance(q, w) ** 2 / 2.0
               - dpq ** 2 / 4.0)
        worst_med = max(worst_med, lhs - rhs)
    return {
        "symmetry_defect": worst_sym,
        "triangle_defect": worst_tri,
        "median_defect": worst_med,
        "pass": worst_sym <= tol and worst_tri <= tol and worst_med <= tol,
    }


# -- point sets --------------------------------------------------------------

@dataclass
class PointSet:
    """Finite nonempty sequence of points of one space.

    ``points`` is an array whose first axis indexes the points:
    (m, d) for Euclidean data, (m, n, n) for SPD data.
    """

    space: object
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape[0] == 0:
            raise EmptySet("point set is empty")
        if not np.all(np.isfinite(self.points)):
            raise NonFinite("point set has non-finite coordinates")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class CenterReport:
    """Centre of a point set with its certificate.

    ``lower_bound`` <= r* <= ``radius`` for the optimal radius r*, and
    radius - lower_bound <= CERTIFICATE_SLACK * max(radius, 1).  ``support``:
    the points with positive weight in the certificate, as the farthest pair
    (a, b), (0,) for a singleton, or sorted.  ``iterations``: moves made.
    """

    center: np.ndarray
    radius: float
    iterations: int
    lower_bound: float
    support: tuple


def radius_at(B: PointSet, v) -> float:
    """Covering radius of B seen from v: max_w d(v, w)."""
    return float(np.max(B.space.distances_from(v, B.points)))


@dataclass
class PairCertificates:
    """Two-point certificates of the segments ``points[bounds[i]:bounds[i+1]]``
    of one stack, from :func:`pair_certificates`.

    For segment i: ``first[i]`` = a and ``second[i]`` = b, indices within
    the segment, a farthest from the segment's first point and b farthest
    from a; ``half[i]`` = d(a, b)/2; ``mids[i]`` their geodesic midpoint c;
    and ``radius[i]`` the covering radius of the segment seen from c.  Any
    centre is at least d(a, b)/2 from a or from b, so r* >= d(a, b)/2: a
    segment that c covers within that radius has centre c and diameter
    d(a, b).
    """

    space: object
    points: np.ndarray
    bounds: np.ndarray
    first: np.ndarray
    second: np.ndarray
    half: np.ndarray
    mids: np.ndarray
    radius: np.ndarray

    def segment(self, i: int) -> np.ndarray:
        return self.points[self.bounds[i]:self.bounds[i + 1]]

    def diameter(self, i: int) -> float:
        """Largest pairwise distance of segment i, 0 for a singleton: d(a, b)
        when the certificate holds, since every pair then lies within
        2 r(c), which is d(a, b) up to CERTIFICATE_SLACK; else the O(m^2)
        pairwise scan."""
        pts = self.segment(i)
        if len(pts) < 2:
            return 0.0
        half = float(self.half[i])
        if _covers(half, float(self.radius[i])):
            return 2.0 * half
        return float(np.max(self.space.pairwise(pts)))

    def diameters(self) -> np.ndarray:
        return np.array([self.diameter(i) for i in range(len(self.half))])

    def center(self, i: int) -> CenterReport:
        """The certified Chebyshev centre of segment i, as
        :func:`chebyshev_center` returns it: the midpoint where the
        certificate holds, else the tangent-ball search from the midpoint."""
        pts = self.segment(i)
        if len(pts) == 1:
            return CenterReport(pts[0].copy(), 0.0, 0, 0.0, (0,))
        half, radius = float(self.half[i]), float(self.radius[i])
        if _covers(half, radius):
            # min(): rounding can put the computed radius a few ulps below half.
            return CenterReport(self.mids[i], radius, 0, min(half, radius),
                                (int(self.first[i]), int(self.second[i])))
        return _tangent_center(self.space, pts, self.mids[i])


def pair_certificates(space, points: np.ndarray,
                      bounds: np.ndarray | None = None) -> PairCertificates:
    """Pair certificates of every nonempty segment
    ``points[bounds[i]:bounds[i+1]]``; without ``bounds``, of all points.

    Three segmented scans: each ``space.distances_from`` call takes a stack
    of reference points paired with the points, the segment's first point,
    then a, then c, and segmented maxima (first index on ties, as
    ``np.argmax``) pick a, b and the radius.  Passes take whole segments,
    at most ``spd.PAIR_CHUNK`` points each unless one segment is longer.
    The midpoints of a pass are one ``space.geodesic`` call on the
    paired stacks of a and b.
    """
    points = np.asarray(points, dtype=float)
    bounds = (np.array([0, len(points)]) if bounds is None
              else np.asarray(bounds))
    parts, lo, last = [], 0, len(bounds) - 1
    while lo < last:
        hi = last
        if bounds[last] - bounds[lo] > spd.PAIR_CHUNK:
            hi = max(lo + 1, int(np.searchsorted(
                bounds, bounds[lo] + spd.PAIR_CHUNK, side="right")) - 1)
        parts.append(_certify(space, points[bounds[lo]:bounds[hi]],
                              bounds[lo:hi + 1] - bounds[lo]))
        lo = hi
    fields = (parts[0] if len(parts) == 1
              else [np.concatenate(field) for field in zip(*parts)])
    return PairCertificates(space, points, bounds, *fields)


def _certify(space, points: np.ndarray, bounds: np.ndarray):
    """One pass of :func:`pair_certificates`: (first, second, half, mids,
    radius) of the segments of ``points`` cut at ``bounds``, which start
    at 0, with one ``space.geodesic`` call for all the midpoints."""
    starts = bounds[:-1]
    # seg[j] is the segment of point j; with one segment no index arrays
    # are built and every reference is one point.
    seg = None if len(starts) == 1 else np.repeat(np.arange(len(starts)),
                                                  np.diff(bounds))

    def spread(stack, idx=None):
        """Entry idx[s] of ``stack``, or entry s without ``idx``, for every
        point of segment s."""
        if seg is None:
            return stack[0 if idx is None else idx[0]]
        return (stack if idx is None else stack[idx])[seg]

    def first_argmax(d):
        if seg is None:
            return d.argmax(keepdims=True)
        hits = np.flatnonzero(d == np.maximum.reduceat(d, starts)[seg])
        return hits[np.searchsorted(hits, starts)]

    a = first_argmax(space.distances_from(spread(points, starts), points))
    from_a = space.distances_from(spread(points, a), points)
    b = first_argmax(from_a)
    mids = space.geodesic(points[a], points[b], 0.5)
    radius = np.maximum.reduceat(
        space.distances_from(spread(mids), points), starts)
    return a - starts, b - starts, 0.5 * from_a[b], mids, radius


def _covers(half: float, mid_radius: float) -> bool:
    """Whether the two-point certificate holds, up to CERTIFICATE_SLACK."""
    return mid_radius - half <= CERTIFICATE_SLACK * max(half, 1.0)


def chebyshev_center(B: PointSet) -> CenterReport:
    """Chebyshev centre, returned only with a certificate of optimality.

    First the two-point certificate of :func:`pair_certificates`: a =
    farthest point from ``points[0]``, b = farthest from a; their midpoint c
    is the centre if it covers B within d(a, b)/2.  Otherwise, from z = c,
    tangent-space re-linearisation (Arnaudon & Nielsen, CGTA 2013): solve
    the minimum enclosing ball of y_i = log_z(p_i) exactly and move
    z <- exp_z(its centre).  Its weights w bound the optimum:
    F_w(x) = sum w_i d(x, p_i)^2 is 2-strongly geodesically convex on a
    CAT(0) space (Sturm 2003), so r*^2 >= F_w(z) - |sum w_i y_i|^2.  That
    holds for any probability weights, so each new z is certified first
    with the weights of the move before, and the ball is solved again only
    where they fall short: one ball per search in R^d.  Full steps, exact
    in R^d, until one fails to halve the one before; then damped steps.
    After OUTER_STEP_CAP moves without a certificate, NoConvergence is
    raised: no centre is returned uncertified.
    """
    if len(B) == 1:
        return CenterReport(B.points[0].copy(), 0.0, 0, 0.0, (0,))
    return pair_certificates(B.space, B.points).center(0)


def _tangent_center(space, pts: np.ndarray, z) -> CenterReport:
    """The tangent-ball search of :func:`chebyshev_center` from z.

    Each new z is certified first with the weights of the ball solved at
    the move before, and the enclosing ball is solved again only where
    that stale bound does not certify.  The fresh weights maximise the
    weighted variance F_w(z) - |g|^2 over all probability weights, so the
    stale bound never exceeds the fresh one: it certifies only where a
    fresh ball would, and the moves, the centre and the radius are those
    of a ball per move.  Only ``lower_bound`` and ``support`` may differ,
    by rounding or on cospherical sets.

    The points are checked once per search and every z is factorized
    once, in one ``space.chart`` for both its log and its exp."""
    pts = space.points(pts)
    damped, last, ball = False, np.inf, None
    for step in itertools.count():
        chart = space.chart(z)
        ball, g, radius, bound = _linearise(chart.log(pts), ball)
        if _tangent_covers(radius, bound):
            return CenterReport(z, radius, step, min(bound, radius),
                                tuple(sorted(ball[0])))
        if step == OUTER_STEP_CAP:
            raise NoConvergence(f"gap {radius - bound:.3e} after {step} moves")
        size = float(np.linalg.norm(g))
        damped |= size > 0.5 * last
        last = size
        x = radius * np.sqrt(space.curvature_bound)
        if damped and x > 0.0:
            # 2 / (1 + zeta), zeta = x coth x: with curvatures in [-kappa, 0]
            # the Hessian of d(., p)^2 / 2 at distance r has eigenvalues in
            # [1, zeta], so every error shrinks by (zeta - 1) / (zeta + 1).
            g = g * (2.0 * np.tanh(x) / (np.tanh(x) + x))
        z = chart.exp(g)


def _tangent_covers(radius: float, bound: float) -> bool:
    """Whether a lower bound certifies the covering radius from z."""
    return radius - bound <= CERTIFICATE_SLACK * max(radius, 1.0)


def _linearise(y: np.ndarray, ball):
    """One re-linearisation at z, from the tangent vectors y = log_z(p):
    the ball (support, weights), its step g and lower bound from
    :func:`_tangent_bound`, and the covering radius from z.

    A ``ball`` from an earlier z is tried first and kept if its bound
    certifies; otherwise, and without one, the minimum enclosing ball of
    the y_i gives the weights, the largest bound at z and the step."""
    dist2 = np.einsum("ij,ij->i", y, y)
    radius = float(np.sqrt(dist2.max()))
    if ball is not None:
        g, bound = _tangent_bound(y, dist2, ball)
        if _tangent_covers(radius, bound):
            return ball, g, radius, bound
    ball = _tangent_ball(y)
    g, bound = _tangent_bound(y, dist2, ball)
    return ball, g, radius, bound


def _tangent_bound(y: np.ndarray, dist2: np.ndarray, ball):
    """The step g = sum w_i y_i and the lower bound sqrt(F_w(z) - |g|^2)
    <= r* of probability weights w on the rows ``support`` of the tangent
    vectors y = log_z(p), whose squared norms are ``dist2``; ``ball`` is
    (support, w).  It holds for any probability weights (module
    docstring); those of the minimum enclosing ball of the y_i make it
    largest."""
    support, w = ball
    g = w @ y[support]
    return g, float(np.sqrt(max(w @ dist2[support] - g @ g, 0.0)))


def _tangent_ball(y: np.ndarray):
    """Support rows and weights of the minimum enclosing ball of y's rows.

    Active set: add the farthest row j the ball leaves uncovered.  j lies on
    the new ball (Welzl 1991), which is the first circumball of j and a subset
    of the support, largest first, with weights >= 0 that covers the support
    (KKT).  Stops when y is covered or, by rounding on a cospherical set, the
    radius stops increasing."""
    support, w = [int(np.argmax(np.einsum("ij,ij->i", y, y)))], np.ones(1)
    c, r = y[support[0]], 0.0
    while True:
        far = np.linalg.norm(y - c, axis=1)
        j = int(np.argmax(far))
        if far[j] <= r + SUPPORT_TOL * max(r, 1.0):
            return support, w
        for rest in (s for k in range(len(support), 0, -1)
                     for s in itertools.combinations(support, k)):
            a = y[list(rest)] - y[j]
            gram = a @ a.T
            try:
                lam = np.linalg.solve(gram, 0.5 * np.diagonal(gram))
            except np.linalg.LinAlgError:  # affinely dependent rows
                continue
            weights = np.concatenate([[1.0 - lam.sum()], lam])
            centre = y[j] + lam @ a
            radius = float(np.linalg.norm(y[j] - centre))
            if (radius > r and weights.min() >= -SUPPORT_TOL
                    and np.linalg.norm(y[support] - centre, axis=1).max()
                    <= radius + SUPPORT_TOL * max(radius, 1.0)):
                break
        else:
            return support, w
        keep = weights > SUPPORT_TOL
        support = [i for i, kept in zip([j, *rest], keep) if kept]
        w, c, r = weights[keep] / weights[keep].sum(), centre, radius


def diameter(B: PointSet) -> float:
    """Largest pairwise distance; 0 for singletons.

    :meth:`PairCertificates.diameter` of the one segment: d(a, b) when the
    two-point certificate holds, without the O(m^2) pairwise scan.
    """
    if len(B) < 2:
        return 0.0
    return pair_certificates(B.space, B.points).diameter(0)


def midpoint_set(B: PointSet, rel_tol: float = 1e-9) -> PointSet:
    """Midpoints of every pair within (1 - rel_tol) of the diameter.

    Coincident midpoints are merged, so e.g. the four corners of a square
    produce the single center point.
    """
    return _midpoints(B, rel_tol)[0]


def _midpoints(B: PointSet, rel_tol: float) -> tuple[PointSet, float]:
    """:func:`midpoint_set` and diam(B), read from its one pairwise scan."""
    space = B.space
    pts = B.points
    m = pts.shape[0]
    if m == 1:
        return PointSet(space, pts.copy()), 0.0
    iu, ju = np.triu_indices(m, k=1)
    dists = space.pairwise(pts)
    diam = float(np.max(dists))
    keep = dists >= (1.0 - rel_tol) * diam
    mids = space.geodesic(pts[iu[keep]], pts[ju[keep]], 0.5)
    unique: list[np.ndarray] = []
    merge_tol = 1e-12 * max(1.0, diam)
    for p in mids:
        if all(space.distance(p, q) > merge_tol for q in unique):
            unique.append(p)
    return PointSet(space, np.array(unique)), diam


def bt_center(B: PointSet, rounds: int = 60):
    """Iterated-midpoint center: collapse near-diametral pairs to midpoints.

    Iterates B <- midpoint_set(B) until the diameter falls below 1e-10 or
    the round budget is exhausted, then returns a remaining point.  Unlike
    the Chebyshev center this can sit on the midpoint of the longest side
    of a scalene triangle.
    """
    if rounds < 1:
        raise ConfigInvalid(f"rounds = {rounds} must be >= 1")
    current = B
    for _ in range(rounds):
        if diameter(current) < 1e-10:
            break
        current = midpoint_set(current, rel_tol=1e-9)
    return current.points[0].copy()


@dataclass
class ShrinkReport:
    ratio: float
    diam_before: float
    diam_after: float
    passed: bool


def check_diameter_shrink(B: PointSet) -> ShrinkReport:
    """Ratio diam(midpoints of diametral pairs) / diam(B) against 1/sqrt(2).

    diam(B) is read from the pairwise scan that finds the diametral pairs.
    """
    if len(B) < 2:
        raise EmptySet("need at least two points")
    mids, d0 = _midpoints(B, rel_tol=1e-9)
    d1 = diameter(mids)
    ratio = 0.0 if d0 == 0.0 else d1 / d0
    return ShrinkReport(
        ratio=ratio,
        diam_before=d0,
        diam_after=d1,
        passed=bool(ratio <= 1.0 / np.sqrt(2.0) + 1e-9),
    )


def hausdorff_distance(A: PointSet, B: PointSet) -> float:
    """max-min over the |A| x |B| distances, from one paired scan: every
    point of A repeated |B| times against B tiled |A| times."""
    m, k = len(A), len(B)
    tiles = (m,) + (1,) * (B.points.ndim - 1)
    cross = A.space.distances_from(np.repeat(A.points, k, axis=0),
                                   np.tile(B.points, tiles)).reshape(m, k)
    return float(max(cross.min(axis=1).max(), cross.min(axis=0).max()))


@dataclass
class ContinuityReport:
    lhs: float
    rhs: float
    eps: float
    radius: float
    radius_gap: float
    passed: bool
    radius_gap_ok: bool


def check_center_continuity(B: PointSet, B_eps: PointSet) -> ContinuityReport:
    """Center displacement against the 8*eps*r_B continuity bound.

    eps is the Hausdorff distance between the sets.  Also verifies the
    elementary radius estimate |r_B - r_{B_eps}| <= eps.
    """
    eps = hausdorff_distance(B, B_eps)
    rep = chebyshev_center(B)
    rep_eps = chebyshev_center(B_eps)
    lhs = B.space.distance(rep.center, rep_eps.center) ** 2
    rhs = 8.0 * eps * rep.radius
    gap = abs(rep.radius - rep_eps.radius)
    return ContinuityReport(
        lhs=lhs,
        rhs=rhs,
        eps=eps,
        radius=rep.radius,
        radius_gap=gap,
        passed=lhs <= rhs + COVERING_SLACK,
        radius_gap_ok=gap <= eps + COVERING_SLACK,
    )


@dataclass
class BallIntersectionReport:
    samples_accepted: int
    max_distance_to_midpoint: float
    bound: float
    passed: bool
    degenerate: bool = False


def check_ball_intersection_radius(space, v0, v0p, r0: float, eps: float,
                                   samples: int,
                                   rng: np.random.Generator) -> BallIntersectionReport:
    """Sample Ball(v0, r0+eps) ∩ Ball(v0', r0+eps); verify containment in
    Ball(midpoint, r0-eps).

    Valid whenever eps <= d(v0, v0')^2 / (16 r0); candidates are drawn in a
    geodesic ball around the midpoint large enough to cover the whole
    intersection, then rejected against both balls.  All ``samples``
    candidates are drawn as one stack and tested by three distance scans.
    """
    if samples < 1:
        raise ConfigInvalid(f"samples = {samples} must be >= 1")
    eps0 = space.distance(v0, v0p)
    if eps0 == 0.0:
        return BallIntersectionReport(0, 0.0, r0 - eps, True, degenerate=True)
    if eps > eps0 * eps0 / (16.0 * r0):
        raise PreconditionViolated(
            f"eps = {eps:g} exceeds eps0^2/(16 r0) = "
            f"{eps0 * eps0 / (16.0 * r0):g}"
        )
    mid = space.geodesic(v0, v0p, 0.5)
    ys = _sample_in_ball(space, mid, r0 + eps + 0.5 * eps0, samples, rng)
    inside = ((space.distances_from(v0, ys) <= r0 + eps)
              & (space.distances_from(v0p, ys) <= r0 + eps))
    if not np.any(inside):
        raise SamplingFailure("no sample landed in the ball intersection")
    worst = float(np.max(space.distances_from(mid, ys[inside])))
    return BallIntersectionReport(
        samples_accepted=int(np.count_nonzero(inside)),
        max_distance_to_midpoint=worst,
        bound=r0 - eps,
        passed=worst <= r0 - eps,
    )


def _sample_in_ball(space, center, radius: float, samples: int,
                    rng: np.random.Generator):
    """A (samples, ...) stack of uniform-ish points of the geodesic ball,
    mapped by one ``exp`` of ``space.chart(center)``.

    Each sample draws one ``standard_normal(dim)`` direction and then one
    ``random()`` for its radius, in that order, so the stream does not
    depend on how the stack is evaluated.
    """
    u = np.empty((samples, space.dim))
    t = np.empty(samples)
    for k in range(samples):
        u[k] = rng.standard_normal(space.dim)
        t[k] = rng.random()
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * t ** (1.0 / space.dim)
    return space.chart(center).exp(r[:, None] * u)


def center_equivariance_check(B: PointSet, iso: Callable, tol: float = 1e-6) -> bool:
    """True iff mapping the center agrees with the center of the mapped set.

    ``iso`` must preserve the pairwise distances of B within 1e-9 (checked;
    NotIsometry otherwise).
    """
    mapped = PointSet(B.space, np.array([iso(p) for p in B.points]))
    d_before = B.space.pairwise(B.points)
    d_after = B.space.pairwise(mapped.points)
    if d_before.size and float(np.max(np.abs(d_before - d_after))) > 1e-9:
        raise NotIsometry("map distorts pairwise distances beyond 1e-9")
    c = chebyshev_center(B).center
    c_mapped = chebyshev_center(mapped).center
    return B.space.distance(iso(c), c_mapped) <= tol
