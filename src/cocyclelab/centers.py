"""Centers of bounded point sets in a CAT(0) space.

Two notions are implemented over an abstract space contract (distance +
geodesic):

* the Chebyshev center, the unique minimizer of the covering radius
  r_B(v) = max_w d(v, w), certified exactly when the midpoint of a
  farthest pair covers the set and found by geodesic farthest-point
  descent otherwise;
* the iterated-midpoint center, obtained by repeatedly replacing a set
  with the midpoints of its (nearly) diametral pairs.

The quantitative checks — center continuity d(ctr B, ctr B_eps)^2 <=
8 eps r_B, the sqrt(2) diameter shrink of midpoint sets, and the radius
drop of intersecting balls — live here as report-producing operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import spd
from .errors import (
    EmptySet,
    NoConvergence,
    NonFinite,
    NotIsometry,
    PreconditionViolated,
    SamplingFailure,
)

STALL_WINDOW = 50
DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 10 ** 6
COVERING_SLACK = 1e-7
# Slack of the two-point certificate: a midpoint whose covering radius
# exceeds d(a, b)/2 by at most CERTIFICATE_SLACK * max(d(a, b)/2, 1) is
# accepted as the centre.  Relative for large sets; absolute for small ones,
# because a distance rounds at ~1e-16 whatever its size: in 10 of 512 cells
# of a 2e5-step Pos(2) reduction, cells of half-diameter 5e-5 to 9e-4 missed
# a purely relative 1e-12 by 2e-16 to 1e-15.
CERTIFICATE_SLACK = 1e-12


# -- space contracts ---------------------------------------------------------

class EuclideanSpace:
    """R^d with straight-line geodesics."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.name = f"euclidean:{self.dim}"

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


class SPDSpace:
    """Pos(n) (or its det-1 slice) with the affine-invariant metric."""

    def __init__(self, n: int, conformal: bool = False):
        self.n = int(n)
        self.conformal = bool(conformal)
        self.name = f"{'conf' if conformal else 'pos'}:{self.n}"

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2

    def distance(self, p, q) -> float:
        return spd.spd_distance(p, q)

    def geodesic(self, p, q, t: float):
        out = spd.spd_geodesic(p, q, t)
        # Geodesics between det-1 endpoints stay det-1; renormalize drift.
        if self.conformal:
            out = spd._renormalize_det(out)
        return out

    def distances_from(self, p, batch: np.ndarray) -> np.ndarray:
        return spd.spd_distances_from(p, batch)

    def pairwise(self, batch: np.ndarray) -> np.ndarray:
        return spd.pairwise_spd_distances(batch)


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

    def subset(self, idx) -> "PointSet":
        return PointSet(self.space, self.points[idx])


@dataclass
class CenterReport:
    """Centre of a point set with its certified optimality gap.

    ``lower_bound`` <= r* <= ``radius`` always holds, where r* is the
    optimal covering radius.  ``support`` holds the indices of the two
    points whose geodesic midpoint is the returned centre when the
    two-point certificate held (one index for a singleton), and is None
    when the centre came from the descent.
    """

    center: np.ndarray
    radius: float
    iterations: int
    covering_residual: float
    lower_bound: float
    support: tuple | None


def radius_at(B: PointSet, v) -> float:
    """Covering radius of B seen from v: max_w d(v, w)."""
    return float(np.max(B.space.distances_from(v, B.points)))


def _pair_certificate(B: PointSet, start_index: int = 0):
    """Farthest pair (a, b) of B by two scans, and its geodesic midpoint.

    a is farthest from ``points[start_index]`` and b farthest from a.  Any
    centre is at least d(a, b)/2 from a or from b, so r* >= d(a, b)/2; if
    the midpoint c covers B within that radius, c is the centre and
    d(a, b) the diameter.  Returns the distances from the start point,
    (a, b), d(a, b)/2, c and the covering radius seen from c.
    """
    space = B.space
    pts = B.points
    dists = space.distances_from(pts[start_index], pts)
    a = int(np.argmax(dists))
    from_a = space.distances_from(pts[a], pts)
    b = int(np.argmax(from_a))
    half = 0.5 * float(from_a[b])
    mid = space.geodesic(pts[a], pts[b], 0.5)
    radius = float(np.max(space.distances_from(mid, pts)))
    return dists, (a, b), half, mid, radius


def _covers(half: float, mid_radius: float) -> bool:
    """Whether the two-point certificate holds, up to CERTIFICATE_SLACK."""
    return mid_radius - half <= CERTIFICATE_SLACK * max(half, 1.0)


def chebyshev_center(B: PointSet, tol: float = DEFAULT_TOL, *,
                     max_iterations: int = MAX_ITERATIONS,
                     start_index: int = 0, stall: bool = True) -> CenterReport:
    """Chebyshev centre: exact from a two-point certificate, else descent.

    a = farthest point from ``points[start_index]``, b = farthest from a,
    c = their geodesic midpoint.  If c covers B within d(a, b)/2, up to
    CERTIFICATE_SLACK, c is returned with ``iterations=0``: no centre
    covers B with a smaller radius than d(a, b)/2.

    Otherwise the covering radius is minimized by geodesic farthest-point
    descent from ``points[start_index]``: from v_k, step toward the
    farthest point of B with weight 1/(k + 2); the best visited point is
    returned.  The search stops once the best radius has improved by less
    than ``tol`` across a trailing window of at least ``STALL_WINDOW``
    steps; the window grows with the iteration count (max(50, k/2))
    because improvements of the harmonic schedule arrive in bursts
    separated by gaps proportional to k, so a fixed window would quit at
    radius error far above tol.  ``stall=False`` disables the window
    entirely and spends the full iteration budget, which is what precision
    studies need: some burst gaps exceed any fixed fraction of k.  Ties
    among farthest points break to the lowest index, which keeps both
    paths deterministic and equivariant under isometries of the space.
    """
    space = B.space
    pts = B.points
    if len(B) == 1:
        return CenterReport(pts[0].copy(), 0.0, 0, 0.0, 0.0, (0,))

    dists, pair, half, mid, mid_radius = _pair_certificate(B, start_index)
    if _covers(half, mid_radius):
        # min(): rounding can put the computed radius a few ulps below half.
        return CenterReport(mid, mid_radius, 0, 0.0, min(half, mid_radius), pair)

    v = pts[start_index]
    far = int(np.argmax(dists))
    best_r = float(dists[far])
    best_v = v
    k = 0
    history = [best_r]
    while k < max_iterations:
        if best_r <= tol:
            break
        v = space.geodesic(v, pts[far], 1.0 / (k + 2.0))
        dists = space.distances_from(v, pts)
        far = int(np.argmax(dists))
        r = float(dists[far])
        if r < best_r:
            best_r = r
            best_v = v
        history.append(best_r)
        k += 1
        if stall:
            window = max(STALL_WINDOW, k // 2)
            if k >= STALL_WINDOW and history[k - window] - best_r < tol:
                break

    radius = float(np.max(space.distances_from(best_v, pts)))
    report = CenterReport(
        center=best_v,
        radius=radius,
        iterations=k,
        covering_residual=radius - best_r,
        lower_bound=half,
        support=None,
    )
    if k >= max_iterations and report.covering_residual > 100.0 * tol:
        raise NoConvergence(
            f"covering residual {report.covering_residual:.3e} above "
            f"100 x tol after {max_iterations} steps"
        )
    return report


def diameter(B: PointSet) -> float:
    """Largest pairwise distance; 0 for singletons.

    When the two-point certificate holds, every pair lies within
    2 r(c), which is d(a, b) up to CERTIFICATE_SLACK, so d(a, b) is
    returned without the O(m^2) pairwise scan.
    """
    if len(B) < 2:
        return 0.0
    _, _, half, _, mid_radius = _pair_certificate(B)
    if _covers(half, mid_radius):
        return 2.0 * half
    return float(np.max(B.space.pairwise(B.points)))


def midpoint_set(B: PointSet, rel_tol: float = 1e-9) -> PointSet:
    """Midpoints of every pair within (1 - rel_tol) of the diameter.

    Coincident midpoints are merged, so e.g. the four corners of a square
    produce the single center point.
    """
    space = B.space
    pts = B.points
    m = pts.shape[0]
    if m == 1:
        return PointSet(space, pts.copy())
    iu, ju = np.triu_indices(m, k=1)
    dists = space.pairwise(pts)
    diam = float(np.max(dists))
    keep = dists >= (1.0 - rel_tol) * diam
    mids = [space.geodesic(pts[i], pts[j], 0.5)
            for i, j in zip(iu[keep], ju[keep])]
    unique: list[np.ndarray] = []
    merge_tol = 1e-12 * max(1.0, diam)
    for p in mids:
        if all(space.distance(p, q) > merge_tol for q in unique):
            unique.append(p)
    return PointSet(space, np.array(unique))


def bt_center(B: PointSet, rounds: int = 60):
    """Iterated-midpoint center: collapse near-diametral pairs to midpoints.

    Iterates B <- midpoint_set(B) until the diameter falls below 1e-10 or
    the round budget is exhausted, then returns a remaining point.  Unlike
    the Chebyshev center this can sit on the midpoint of the longest side
    of a scalene triangle.
    """
    if rounds < 1:
        raise EmptySet("rounds must be >= 1")
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
    """Ratio diam(midpoints of diametral pairs) / diam(B) against 1/sqrt(2)."""
    if len(B) < 2:
        raise EmptySet("need at least two points")
    d0 = diameter(B)
    mids = midpoint_set(B, rel_tol=1e-9)
    d1 = diameter(mids)
    ratio = 0.0 if d0 == 0.0 else d1 / d0
    return ShrinkReport(
        ratio=ratio,
        diam_before=d0,
        diam_after=d1,
        passed=bool(ratio <= 1.0 / np.sqrt(2.0) + 1e-9),
    )


def hausdorff_distance(A: PointSet, B: PointSet) -> float:
    """max-min scan between two finite sets of one space."""
    d_ab = max(
        float(np.min(A.space.distances_from(p, B.points))) for p in A.points
    )
    d_ba = max(
        float(np.min(A.space.distances_from(q, A.points))) for q in B.points
    )
    return max(d_ab, d_ba)


@dataclass
class ContinuityReport:
    lhs: float
    rhs: float
    eps: float
    radius: float
    radius_gap: float
    passed: bool
    radius_gap_ok: bool


def check_center_continuity(B: PointSet, B_eps: PointSet,
                            center_tol: float = DEFAULT_TOL) -> ContinuityReport:
    """Center displacement against the 8*eps*r_B continuity bound.

    eps is the Hausdorff distance between the sets.  Also verifies the
    elementary radius estimate |r_B - r_{B_eps}| <= eps.
    """
    eps = hausdorff_distance(B, B_eps)
    rep = chebyshev_center(B, center_tol)
    rep_eps = chebyshev_center(B_eps, center_tol)
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
    intersection, then rejected against both balls.
    """
    eps0 = space.distance(v0, v0p)
    if eps0 == 0.0:
        return BallIntersectionReport(0, 0.0, r0 - eps, True, degenerate=True)
    if eps > eps0 * eps0 / (16.0 * r0):
        raise PreconditionViolated(
            f"eps = {eps:g} exceeds eps0^2/(16 r0) = "
            f"{eps0 * eps0 / (16.0 * r0):g}"
        )
    mid = space.geodesic(v0, v0p, 0.5)
    cover = r0 + eps + 0.5 * eps0
    accepted = 0
    worst = 0.0
    for _ in range(samples):
        y = _sample_in_ball(space, mid, cover, rng)
        if space.distance(y, v0) <= r0 + eps and space.distance(y, v0p) <= r0 + eps:
            accepted += 1
            worst = max(worst, space.distance(y, mid))
    if accepted == 0:
        raise SamplingFailure("no sample landed in the ball intersection")
    return BallIntersectionReport(
        samples_accepted=accepted,
        max_distance_to_midpoint=worst,
        bound=r0 - eps,
        passed=worst <= r0 - eps,
    )


def _sample_in_ball(space, center, radius: float, rng: np.random.Generator):
    """Uniform-ish point of the geodesic ball: random direction, radius
    biased by u^(1/dim)."""
    if isinstance(space, EuclideanSpace):
        u = rng.standard_normal(space.dim)
        u /= np.linalg.norm(u)
        r = radius * rng.random() ** (1.0 / space.dim)
        return np.asarray(center, float) + r * u
    # SPD: shoot the exponential map at `center` along a random symmetric
    # direction; the affine-invariant norm of the step is the distance.
    n = center.shape[0]
    g = rng.standard_normal((n, n))
    g = spd.symmetrize(g)
    if getattr(space, "conformal", False):
        g = g - np.trace(g) / n * np.eye(n)
    g /= np.sqrt(np.sum(g * g))
    r = radius * rng.random() ** (1.0 / space.dim)
    root = spd.spd_sqrt(center)
    out = spd.symmetrize(root @ spd.spd_exp(r * g) @ root)
    if getattr(space, "conformal", False):
        out = spd._renormalize_det(out)
    return out


def center_equivariance_check(B: PointSet, iso: Callable, tol: float = 1e-6,
                              center_tol: float = DEFAULT_TOL) -> bool:
    """True iff mapping the center agrees with the center of the mapped set.

    ``iso`` must preserve the pairwise distances of B within 1e-9 (checked;
    NotIsometry otherwise).
    """
    mapped = PointSet(B.space, np.array([iso(p) for p in B.points]))
    d_before = B.space.pairwise(B.points)
    d_after = B.space.pairwise(mapped.points)
    if d_before.size and float(np.max(np.abs(d_before - d_after))) > 1e-9:
        raise NotIsometry("map distorts pairwise distances beyond 1e-9")
    c = chebyshev_center(B, center_tol).center
    c_mapped = chebyshev_center(mapped, center_tol).center
    return B.space.distance(iso(c), c_mapped) <= tol
