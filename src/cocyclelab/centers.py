"""Centers of bounded point sets in a CAT(0) space.

Two notions are implemented over an abstract space contract: distance,
geodesic (of one pair, or of each pair of two paired stacks), distance
scans (from one point, or with ``seg`` from one reference per segment),
``points(batch)``, which checks a batch once,
and ``chart(z)``, whose ``log`` and ``exp`` map such a batch and tangent
vectors between the space and isometric tangent coordinates at z:

* the Chebyshev center, the unique minimizer of the covering radius
  r_B(v) = max_w d(v, w), returned with a lower bound on the optimal
  radius within CERTIFICATE_SLACK of its own;
* the iterated-midpoint center, obtained by repeatedly replacing a set
  with the midpoints of its (nearly) diametral pairs.

Both the Chebyshev center and the diameter start from the two-point
certificate of :func:`pair_certificates`, which certifies the segments of
one stack together, many fibres or sets at once or a single set.

Where it fails, the centre search re-linearises at z and bounds the
optimal radius from below by weights w on the points: r*^2 >= F_w(c*)
for F_w = sum w_i d(., p_i)^2, and F_w is 2-strongly geodesically convex
(Sturm 2003), so F_w(c*) >= F_w(z) - |sum w_i log_z p_i|^2.  Nothing in
this uses the choice of w beyond sum w_i = 1, w >= 0: the weights of the
tangent enclosing ball make the bound largest at the z where they were
solved, and the same weights, kept at the next z, still bound r*.  So a
move is certified first with the last ball's weights, and a new ball is
solved only when that stale bound falls short.  Every failing segment of a
stack searches at once, in lockstep (:meth:`PairCertificates.centers`):
one chart at the stack of current centres per move, one segmented
re-linearisation, and enclosing balls solved as stacks of one subset size.
A segment leaves when it certifies, with the report its own search gives.

Pos(n) is one space, :class:`SPDSpace`, with :class:`spd.Whitening` as
its chart; det-1 sets need no other (see :class:`SPDSpace`).

The quantitative checks — center continuity d(ctr B, ctr B_eps)^2 <=
8 eps r_B, over many pairs of sets in one call, the sqrt(2) diameter
shrink of midpoint sets, and the radius drop of intersecting balls — live
here as report-producing operations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spd
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
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

    def distances_from(self, p, batch: np.ndarray,
                       seg: np.ndarray | None = None) -> np.ndarray:
        p = np.asarray(p, float)
        diff = np.asarray(batch, float) - (p if seg is None else p[seg])
        return np.sqrt(np.sum(diff * diff, axis=1))

    def pairwise(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, float)
        iu, ju = spd.upper_pairs(batch.shape[0])
        diff = batch[iu] - batch[ju]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def points(self, batch: np.ndarray) -> np.ndarray:
        return np.asarray(batch, float)

    def chart(self, z) -> "_EuclideanChart":
        return _EuclideanChart(z)


class _EuclideanChart:
    """log_z and exp_z of R^d, at one z or at each of a stack, as
    :class:`spd.Whitening`."""

    def __init__(self, z):
        self.z = np.asarray(z, float)

    def log(self, pts: np.ndarray, seg: np.ndarray | None = None) -> np.ndarray:
        return pts - (self.z if seg is None else self.z[seg])

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

    def distances_from(self, p, batch: np.ndarray,
                       seg: np.ndarray | None = None) -> np.ndarray:
        return spd.spd_distances_from(p, batch, seg)

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

    def diameters(self) -> np.ndarray:
        """Largest pairwise distance of every segment, 0 for a singleton:
        d(a, b) where the certificate holds, since every pair then lies
        within 2 r(c), which is d(a, b) up to CERTIFICATE_SLACK; the O(m^2)
        pairwise scan only for the segments it does not cover."""
        sizes = np.diff(self.bounds)
        out = np.where(sizes < 2, 0.0, 2.0 * self.half)
        for i in np.flatnonzero((sizes >= 2)
                                & ~_covers(self.half, self.radius)).tolist():
            out[i] = np.max(self.space.pairwise(self.segment(i)))
        return out

    def centers(self) -> list[CenterReport]:
        """The certified Chebyshev centre of every segment, as
        :func:`chebyshev_center` returns it: a singleton's point, the
        midpoint where the certificate holds, and for all other segments
        one lockstep tangent-ball search from their midpoints."""
        sizes = np.diff(self.bounds)
        half, radius = self.half.tolist(), self.radius.tolist()
        pairs = zip(self.first.tolist(), self.second.tolist())
        covered = _covers(self.half, self.radius).tolist()
        reports = [None] * len(sizes)
        for i, (m, pair) in enumerate(zip(sizes.tolist(), pairs)):
            if m == 1:
                reports[i] = CenterReport(self.points[self.bounds[i]].copy(),
                                          0.0, 0, 0.0, (0,))
            elif covered[i]:
                # min(): rounding can put the computed radius a few ulps
                # below half.
                reports[i] = CenterReport(self.mids[i], radius[i], 0,
                                          min(half[i], radius[i]), pair)
        search = np.array([rep is None for rep in reports])
        if search.any():
            found = _tangent_centers(
                self.space, self.points[np.repeat(search, sizes)],
                sizes[search], self.mids[search])
            for i, rep in zip(np.flatnonzero(search).tolist(), found):
                reports[i] = rep
        return reports


def pair_certificates(space, points: np.ndarray,
                      bounds: np.ndarray | None = None) -> PairCertificates:
    """Pair certificates of every nonempty segment
    ``points[bounds[i]:bounds[i+1]]``; without ``bounds``, of all points.

    Three segmented scans: each ``space.distances_from`` call takes one
    reference point per segment, the segment's first point, then a, then
    c, with the segment of every point, and segmented maxima (first index
    on ties, as ``np.argmax``) pick a, b and the radius.  Passes take
    whole segments, at most ``spd.PAIR_CHUNK`` points each unless one
    segment is longer.
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

    def scan(refs):
        """Distances of every point from the reference of its segment."""
        return space.distances_from(refs if seg is not None else refs[0],
                                    points, seg)

    a = _first_argmax(scan(points[starts]), starts, seg)
    from_a = scan(points[a])
    b = _first_argmax(from_a, starts, seg)
    mids = space.geodesic(points[a], points[b], 0.5)
    radius = np.maximum.reduceat(scan(mids), starts)
    return a - starts, b - starts, 0.5 * from_a[b], mids, radius


def _first_argmax(d: np.ndarray, starts: np.ndarray, seg) -> np.ndarray:
    """Index into ``d`` of the largest entry of each segment, the first on
    ties, as ``np.argmax``; ``seg[j]`` is the segment of entry j, or None
    for one segment."""
    if seg is None:
        return d.argmax(keepdims=True)
    hits = np.flatnonzero(d == np.maximum.reduceat(d, starts)[seg])
    return hits[np.searchsorted(hits, starts)]


def _layout(sizes: np.ndarray):
    """(starts, seg) of consecutive segments of these sizes: the first row
    of each, and the segment of every row."""
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)


def _covers(half, mid_radius):
    """Whether the two-point certificate holds, up to CERTIFICATE_SLACK;
    elementwise on arrays."""
    return mid_radius - half <= CERTIFICATE_SLACK * np.maximum(half, 1.0)


def chebyshev_center(B: PointSet) -> CenterReport:
    """Chebyshev centre, returned only with a certificate of optimality:
    the one-segment case of :meth:`PairCertificates.centers`.

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
    raised: no centre is returned uncertified.  Many sets of one space
    are certified faster together, as the segments of one
    :func:`pair_certificates` stack.
    """
    return pair_certificates(B.space, B.points).centers()[0]


def _tangent_centers(space, pts: np.ndarray, sizes: np.ndarray,
                     z: np.ndarray) -> list[CenterReport]:
    """The tangent-ball search of :func:`chebyshev_center` on every segment
    of ``pts`` (consecutive, of the given sizes) from the stack ``z`` of
    starting points, in lockstep: each move takes one chart at the stack of
    the active z, one log of their points, one segmented
    :func:`_linearise` and one paired exp.  A segment leaves as soon as it
    certifies; its damping, step sizes and OUTER_STEP_CAP are its own, so
    its report is the one a search of that segment alone gives.

    Each new z is certified first with the weights of the ball solved at
    the move before, and the enclosing ball is solved again only where
    that stale bound does not certify.  The fresh weights maximise the
    weighted variance F_w(z) - |g|^2 over all probability weights, so the
    stale bound never exceeds the fresh one: it certifies only where a
    fresh ball would, and the moves, the centre and the radius are those
    of a ball per move.  Only ``lower_bound`` and ``support`` may differ,
    by rounding or on cospherical sets.

    The points are checked once, and every z is factorised once, in one
    stacked ``space.chart`` for both its log and its exp."""
    pts = space.points(pts)
    reports = [None] * len(sizes)
    searching = np.ones(len(sizes), bool)
    damped, last = np.zeros(len(sizes), bool), np.full(len(sizes), np.inf)
    ball, kappa = None, np.sqrt(space.curvature_bound)
    for step in itertools.count():
        todo = np.flatnonzero(searching)
        starts, seg = _layout(sizes[todo])
        chart = space.chart(z)
        y = chart.log(pts[np.repeat(searching, sizes)], seg)
        ball, g, gg, radius, bound = _linearise(y, starts, ball)
        done = _tangent_covers(radius, bound)
        for i in np.flatnonzero(done):
            reports[todo[i]] = CenterReport(
                z[i], float(radius[i]), step, float(min(bound[i], radius[i])),
                tuple(sorted(ball[i][0].tolist())))
        if done.all():
            return reports
        left = ~done
        if step == OUTER_STEP_CAP:
            i = int(np.argmax(left))
            raise NoConvergence(
                f"gap {radius[i] - bound[i]:.3e} after {step} moves")
        size = np.sqrt(gg)
        damped |= size > 0.5 * last
        last = size
        x = radius * kappa
        shrink = np.flatnonzero(damped & (x > 0.0))
        if len(shrink):
            # 2 / (1 + zeta), zeta = x coth x: with curvatures in [-kappa, 0]
            # the Hessian of d(., p)^2 / 2 at distance r has eigenvalues in
            # [1, zeta], so every error shrinks by (zeta - 1) / (zeta + 1).
            t = np.tanh(x[shrink])
            g[shrink] = g[shrink] * (2.0 * t / (t + x[shrink]))[:, None]
        z = chart.exp(g)[left]
        searching[todo[done]] = False
        damped, last = damped[left], last[left]
        ball = [b for b, stays in zip(ball, left) if stays]


def _tangent_covers(radius, bound):
    """Whether a lower bound certifies the covering radius from z;
    elementwise on arrays."""
    return radius - bound <= CERTIFICATE_SLACK * np.maximum(radius, 1.0)


def _linearise(y: np.ndarray, starts: np.ndarray, ball):
    """One re-linearisation of every segment at its z, from the tangent
    vectors y = log_z(p) of the consecutive segments that start at
    ``starts``: the balls, their steps g with |g|^2, the covering radii
    from z and the lower bounds of :func:`_tangent_bound`.

    Balls from an earlier z are tried first and kept where their bound
    certifies; elsewhere, and without them, the minimum enclosing balls of
    the y_i give the weights, the largest bound at z and the step."""
    dist2 = np.einsum("ij,ij->i", y, y)
    radius = np.sqrt(np.maximum.reduceat(dist2, starts))
    n = len(starts)
    if ball is None:
        ball, stale = [None] * n, np.ones(n, bool)
        g, gg, bound = np.empty((n, y.shape[1])), np.empty(n), np.empty(n)
    else:
        g, gg, bound = _tangent_bound(y, dist2, starts, ball)
        stale, ball = ~_tangent_covers(radius, bound), list(ball)
    if stale.any():
        sizes = np.diff(np.append(starts, len(y)))
        fresh = _tangent_balls(y[np.repeat(stale, sizes)], sizes[stale])
        for s, b in zip(np.flatnonzero(stale).tolist(), fresh):
            ball[s] = b
        g[stale], gg[stale], bound[stale] = _tangent_bound(
            y, dist2, starts[stale], fresh)
    return ball, g, gg, radius, bound


def _tangent_bound(y: np.ndarray, dist2: np.ndarray, starts: np.ndarray, ball):
    """The steps g = sum w_i y_i, |g|^2 and the lower bounds
    sqrt(F_w(z) - |g|^2) <= r* of probability weights w on rows of the
    tangent vectors y = log_z(p), whose squared norms are ``dist2``.

    ``ball[s]`` is (support, weights) of the segment that starts at
    ``starts[s]``, the support as indices within it.  Balls of one size
    are stacked, so each sum runs over its own length, as for one ball.
    The bound holds for any probability weights (module docstring); those
    of the minimum enclosing ball of the y_i make it largest."""
    k = [len(w) for _, w in ball]
    g, F = np.empty((len(ball), y.shape[1])), np.empty(len(ball))
    for size in set(k):
        same = np.flatnonzero(np.equal(k, size))
        rows = starts[same, None] + np.array([ball[s][0] for s in same])
        w = np.array([ball[s][1] for s in same])[:, None]
        g[same] = (w @ y[rows])[:, 0]
        F[same] = (w @ dist2[rows][..., None])[:, 0, 0]
    gg = (g[:, None] @ g[..., None])[:, 0, 0]
    return g, gg, np.sqrt(np.maximum(F - gg, 0.0))


@functools.cache
def _subsets(k: int):
    """The subsets of k support positions, largest first and in
    ``itertools.combinations`` order within a size, as (size, positions)
    with one row of positions per subset."""
    return [(q, np.array(list(itertools.combinations(range(k), q))))
            for q in range(k, 0, -1)]


def _tangent_balls(y: np.ndarray, sizes: np.ndarray) -> list:
    """(support rows, weights) of the minimum enclosing ball of the rows of
    each segment of y (consecutive, of the given sizes), in lockstep.

    Active set: add the farthest row j the ball leaves uncovered.  j lies on
    the new ball (Welzl 1991), which is the first circumball of j and a subset
    of the support, largest first, with weights >= 0 that covers the support
    (KKT).  A segment stops when y is covered or, by rounding on a
    cospherical set, the radius stops increasing.  Each round takes the
    growing segments by support size, and solves the circumballs of one
    subset size of all of them as one stack, until each has its ball."""
    starts, seg = _layout(sizes)
    first = _first_argmax(np.einsum("ij,ij->i", y, y), starts, seg)
    balls = [(np.array([i]), np.ones(1)) for i in (first - starts).tolist()]
    c, r = y[first], np.zeros(len(sizes))
    grow = np.arange(len(sizes))
    while True:
        far = np.linalg.norm(y - c[seg], axis=1)
        j = _first_argmax(far, starts, seg)
        grow = grow[far[j[grow]] > r[grow] + SUPPORT_TOL * np.maximum(r[grow], 1.0)]
        if not len(grow):
            return balls
        k = [len(balls[s][0]) for s in grow]
        grow = np.concatenate([
            _move_balls(y, starts, j, balls, c, r, grow[np.equal(k, size)])
            for size in set(k)])


def _move_balls(y, starts, far, balls, c, r, segs) -> np.ndarray:
    """Move the balls of the segments ``segs``, whose supports have one
    size, to the first circumball of their far row and a subset of their
    support that :func:`_tangent_balls` accepts: ``balls``, the centres c
    and the radii r in place.  Returns the segments that moved."""
    support = np.array([balls[s][0] for s in segs])
    base, yj = starts[segs, None], y[far[segs]]
    held = y[base + support]
    todo, moved = np.arange(len(segs)), []
    for q, positions in _subsets(support.shape[1]):
        rest = support[todo][:, positions]
        a = y[base[todo, :, None] + rest] - yj[todo, None, None]
        gram = a @ np.swapaxes(a, -1, -2)
        lam, solved = _solve_stack(gram.reshape(-1, q, q), 0.5 * np.diagonal(
            gram, axis1=-2, axis2=-1).reshape(-1, q))
        lam, solved = lam.reshape(rest.shape), solved.reshape(rest.shape[:2])
        weights = np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)
        centre = yj[todo, None] + (lam[..., None, :] @ a)[..., 0, :]
        gap = yj[todo, None] - centre
        radius = np.sqrt((gap[..., None, :] @ gap[..., None])[..., 0, 0])
        spread = np.linalg.norm(held[todo, None] - centre[:, :, None], axis=-1)
        ok = (solved & (radius > r[segs[todo], None])
              & (weights.min(axis=-1) >= -SUPPORT_TOL)
              & (spread.max(axis=-1) <= radius + SUPPORT_TOL * np.maximum(radius, 1.0)))
        hit = np.flatnonzero(ok.any(axis=1))
        pick = ok[hit].argmax(axis=1)
        done = segs[todo[hit]]
        # The members [j, *subset] of weight > SUPPORT_TOL, in order, and
        # their weights renormalised, moved to the front of each row.
        keep = weights[hit, pick] > SUPPORT_TOL
        order = np.argsort(~keep, axis=1, kind="stable")
        members = np.take_along_axis(np.concatenate(
            [(far[done] - starts[done])[:, None], rest[hit, pick]], axis=1),
            order, axis=1)
        w = np.take_along_axis(weights[hit, pick], order, axis=1)
        kept = keep.sum(axis=1)
        for size in set(kept.tolist()):
            same = kept == size
            w[same, :size] /= w[same, :size].sum(axis=1, keepdims=True)
        for s, m, v, size in zip(done.tolist(), members, w, kept.tolist()):
            balls[s] = (m[:size], v[:size])
        c[done], r[done] = centre[hit, pick], radius[hit, pick]
        moved.append(done)
        todo = np.delete(todo, hit)
        if not len(todo):
            break
    return np.concatenate(moved)


def _solve_stack(gram: np.ndarray, rhs: np.ndarray):
    """Solutions lam of gram lam = rhs for a stack, and which exist: one
    stacked solve; where LAPACK finds a matrix of the stack singular
    (affinely dependent rows), one solve per matrix of this stack."""
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0], np.ones(len(gram), bool)
    except np.linalg.LinAlgError:
        pass
    lam, solved = np.zeros_like(rhs), np.zeros(len(gram), bool)
    for i, (m, b) in enumerate(zip(gram, rhs)):
        try:
            lam[i] = np.linalg.solve(m, b[:, None])[:, 0]
            solved[i] = True
        except np.linalg.LinAlgError:
            pass
    return lam, solved


def diameter(B: PointSet) -> float:
    """Largest pairwise distance; 0 for singletons.

    :meth:`PairCertificates.diameters` of the one segment: d(a, b) when the
    two-point certificate holds, without the O(m^2) pairwise scan.
    """
    if len(B) < 2:
        return 0.0
    return float(pair_certificates(B.space, B.points).diameters()[0])


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
    iu, ju = spd.upper_pairs(m)
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


def hausdorff_distances(pairs) -> np.ndarray:
    """The Hausdorff distance of each pair (A, B) of point sets of one
    space: max-min over its |A| x |B| distances.  One paired scan takes
    every pair, each point of A repeated |B| times against B tiled |A|
    times; segmented minima over the rows and the columns of each pair's
    block, and maxima over its blocks, give the distances."""
    space = pairs[0][0].space
    m, k = np.array([[len(A), len(B)] for A, B in pairs]).T
    first, pair = _layout(m * k)
    t, m_t, k_t = np.arange(len(pair)) - first[pair], m[pair], k[pair]
    cross = space.distances_from(
        np.concatenate([A.points for A, _ in pairs])[(np.cumsum(m) - m)[pair] + t // k_t],
        np.concatenate([B.points for _, B in pairs])[(np.cumsum(k) - k)[pair] + t % k_t])
    # The rows of each block start where t % k = 0; read column by column,
    # its columns start where t % m = 0.
    rows = np.minimum.reduceat(cross, np.flatnonzero(t % k_t == 0))
    cols = np.minimum.reduceat(cross[first[pair] + t % m_t * k_t + t // m_t],
                               np.flatnonzero(t % m_t == 0))
    return np.maximum(np.maximum.reduceat(rows, np.cumsum(m) - m),
                      np.maximum.reduceat(cols, np.cumsum(k) - k))


@dataclass
class ContinuityReport:
    lhs: float
    rhs: float
    eps: float
    radius: float
    radius_gap: float
    passed: bool
    radius_gap_ok: bool


def check_center_continuity(pairs) -> list[ContinuityReport]:
    """Centre displacement against the 8*eps*r_B continuity bound, for
    each pair (B, B_eps) of point sets of one space.

    eps is the Hausdorff distance between the sets.  Also verifies the
    elementary radius estimate |r_B - r_{B_eps}| <= eps.  The centres of
    all the sets are one :meth:`PairCertificates.centers` call and the
    eps one :func:`hausdorff_distances` scan; one pair is a list of one.
    """
    if not pairs:
        raise EmptySet("no pairs of point sets")
    space = pairs[0][0].space
    sets = [ps for pair in pairs for ps in pair]
    if any(ps.space.name != space.name for ps in sets):
        raise DimensionMismatch("the point sets lie in different spaces")
    bounds = np.cumsum([0] + [len(ps) for ps in sets])
    reps = pair_certificates(space, np.concatenate([ps.points for ps in sets]),
                             bounds).centers()
    out = []
    for eps, rep, rep_eps in zip(hausdorff_distances(pairs).tolist(),
                                 reps[::2], reps[1::2]):
        lhs = space.distance(rep.center, rep_eps.center) ** 2
        rhs = 8.0 * eps * rep.radius
        gap = abs(rep.radius - rep_eps.radius)
        out.append(ContinuityReport(
            lhs=lhs,
            rhs=rhs,
            eps=eps,
            radius=rep.radius,
            radius_gap=gap,
            passed=lhs <= rhs + COVERING_SLACK,
            radius_gap_ok=gap <= eps + COVERING_SLACK,
        ))
    return out


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
    # Both centres from one two-segment search.
    rep, rep_mapped = pair_certificates(
        B.space, np.concatenate([B.points, mapped.points]),
        np.array([0, len(B), 2 * len(B)])).centers()
    return B.space.distance(iso(rep.center), rep_mapped.center) <= tol
