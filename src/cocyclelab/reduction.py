"""Reduction of bounded matrix cocycles to orthogonal / conformal ones.

Pipeline: iterate the skew action on Pos(n) along one long base orbit,
bucket the fiber samples over a uniform grid of base cells, take the
per-cell Chebyshev center as the invariant section phi, set
B(x) = phi(x)^{1/2}, and measure how far the conjugated cocycle

    A~(x) = B(x + alpha)^{-1} A(x) B(x)

is from the orthogonal group.  The conformal variant runs the same
construction on the det-1 slice with the normalized congruence action
and reports the defect of lambda(x) A~(x) instead.

The buckets are slices of one array sorted by cell.  One segmented pair
certificate (:func:`~cocyclelab.centers.pair_certificates`), three
distance scans over all cells per pass, is computed once in
:func:`sample_fibers` and kept on the buckets: it gives every cell's
diameter there and every cell's centre in :func:`section_from_centers`.
Only cells whose geodesic midpoint does not certify take a pairwise
diameter scan and the tangent-ball centre search.

Coboundary constructions A(x) = B(T x) Q(x) B(x)^{-1} provide ground
truth: their products are uniformly bounded and the exact section
phi*(x) = B(x) B(x)^T is attached for oracle comparisons.

Callable sections are array-valued: ``MatrixCocycle.oracle_section`` and
every callable that ``reduce_to_*`` accepts map an array of k base points
to a (k, n, n) stack of matrices, and one point to one (n, n) matrix; any
other shape raises DimensionMismatch.  The reduction, the invariance
residual and the oracle distances evaluate their callables once per stack
of cells and run on stacks alone, with one code path for sampled and
callable sections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .centers import PairCertificates, SPDSpace, pair_certificates
from .circle import is_dense
from .cocycles import MatrixCocycle, _batch, _require_orthogonal, prefix_products
from .errors import (
    ConfigInvalid,
    EmptyCell,
    SingularMatrix,
)
from .solvers import Section

ORTHOGONALITY_SAMPLE = 64
OCCUPANCY_FACTOR = 50
# Orbit points of the cell-scale density probe in sample_fibers.
DENSITY_PROBE_STEPS = 10 ** 5


def construct_coboundary(b_gen, q_gen, base, dim: int = 2, *,
                         b_batch=None, q_batch=None,
                         scalar_gen=None) -> MatrixCocycle:
    """Cocycle A(x) = B(T x) Q(x) B(x)^{-1} with known invariant section.

    ``b_gen`` maps x to an invertible matrix, ``q_gen`` to a finite orthogonal
    one (checked on a sample grid).  ``b_batch`` and ``q_batch``, when
    given, map an array of k points to the (k, n, n) stack of the same
    matrices; without them the scalar maps are stacked point by point
    (the one scalar-map entry left, because the benchmark's 3x3 workload
    passes its B and Q positionally).  The generators, the orthogonality
    check, the sup-norm bound and the oracle are all built from these
    stacks.  The returned cocycle carries
    ``oracle_section``  phi*(x) = B(x) B(x)^T, array-valued like every
    callable section; its products telescope, hence stay bounded by
    sup||B|| * sup||B^{-1}||.  An optional positive ``scalar_gen`` maps
    an array of points to the factors c(x) that multiply A, which the
    det-normalized (conformal) pipeline must absorb.

    Generators at k points cost two B stacks, at x and at T x, one Q
    stack, one generic :func:`spd.inv` and two stacked products.  The
    presets' ``b_batch`` is one matrix product onto the spectral
    projectors of S0 (see ``presets._exp_family``), so the products and
    the inverse take most of that time.  Along an orbit B(T x_k) =
    B(x_{k+1}), but the generators are not told that their points form
    one, so both B stacks are evaluated.
    """
    def stack(batch, single, xs):
        if batch is not None:
            return np.asarray(batch(xs), dtype=float)
        return np.array([single(x) for x in xs], dtype=float)

    sample = np.arange(ORTHOGONALITY_SAMPLE) / ORTHOGONALITY_SAMPLE
    _require_orthogonal(stack(q_batch, q_gen, sample), "q_gen at x =", sample)

    def generators(xs):
        xs = np.asarray(xs, dtype=float)
        b_next = stack(b_batch, b_gen, base.step_many(xs))
        out = (b_next @ stack(q_batch, q_gen, xs)
               @ spd.inv(stack(b_batch, b_gen, xs)))
        if scalar_gen is not None:
            out = out * np.asarray(scalar_gen(xs), dtype=float)[:, None, None]
        return out

    # Telescoping bound from a sample of the conjugacy loop.
    bs = stack(b_batch, b_gen, np.arange(64) / 64.0)
    bound = (np.linalg.norm(bs, 2, axis=(1, 2)).max()
             * np.linalg.norm(spd.inv(bs), 2, axis=(1, 2)).max())

    def oracle_section(x):
        xs = np.asarray(x, dtype=float)
        b = stack(b_batch, b_gen, xs.reshape(-1))
        return spd.symmetrize(b @ b.transpose(0, 2, 1)).reshape(
            xs.shape + (dim, dim))

    return MatrixCocycle(base, dim, generators, bound=float(bound),
                         oracle_section=oracle_section)


@dataclass
class FiberBuckets:
    """Orbit samples of the fiber, grouped by uniform base cells, with the
    pair certificate of every cell (``certificates``)."""

    cocycle: MatrixCocycle
    conformal: bool
    cells: int
    steps: int
    x0: float
    cell_points: list
    counts: np.ndarray
    diameters: np.ndarray
    certificates: PairCertificates

    @property
    def min_occupancy(self) -> int:
        return int(self.counts.min())

    @property
    def mean_occupancy(self) -> float:
        return float(self.counts.mean())

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) / self.cells

    def diameter_spread(self) -> float:
        return float(self.diameters.max() - self.diameters.min())


def _unit_det_generators(gens: np.ndarray) -> np.ndarray:
    """Each generator scaled to |det A| = 1; the normalized congruence
    action of the conformal pipeline ignores the scale."""
    dets = np.abs(spd.det(gens))
    singular = dets <= spd.SINGULAR_TOL
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularMatrix(
            f"generator {k}: |det A| = {dets[k]:.3e} <= {spd.SINGULAR_TOL:g}"
        )
    return gens / (dets ** (1.0 / gens.shape[-1]))[:, None, None]


def sample_fibers(c: MatrixCocycle, x0: float, v0: np.ndarray, steps: int,
                  cells: int, *, conformal: bool = False) -> FiberBuckets:
    """Fill base cells with the orbit of (x0, v0) under the skew action.

    The fiber moves by the congruence action (det-normalized when
    ``conformal``); every visited pair (x_k, P_k) lands in the cell of
    x_k.  The samples are sorted by cell once, ``cell_points`` are slices
    of that array, and one segmented pair certificate of all cells, kept
    as ``certificates``, gives the diameters.  The base orbit is computed
    once; its first DENSITY_PROBE_STEPS points must be 1/cells-dense.
    Raises EmptyCell when they are not or when some cell stays empty,
    which is also the honest failure mode for non-minimal bases.
    """
    if cells < 1:
        raise ConfigInvalid(f"cells = {cells} must be >= 1")
    if steps < OCCUPANCY_FACTOR * cells:
        raise ConfigInvalid(
            f"steps = {steps} below the occupancy heuristic "
            f"{OCCUPANCY_FACTOR} x cells = {OCCUPANCY_FACTOR * cells}"
        )
    v0 = spd.require_spd(np.asarray(v0, dtype=float))
    if conformal:
        v0 = spd.require_unit_determinant(v0)
    xs = c.base.orbit(x0, steps)
    if not is_dense(xs[:DENSITY_PROBE_STEPS], 1.0 / cells):
        raise EmptyCell(
            "orbit fails the cell-scale density probe; the base is not "
            "minimal at this resolution"
        )
    n = c.dim
    # P_k = A(k, x0) v0 A(k, x0)^T = W_k W_k^T with W_k = A(k, x0) chol(v0),
    # for k < steps: the generator at the last sample is never applied.
    gens = c.generators_along(xs[:-1])
    if conformal:
        gens = _unit_det_generators(gens)
    w = prefix_products(gens)
    del gens
    w = w @ np.linalg.cholesky(v0)
    # A contiguous copy of the transpose keeps the stacked matmul off its
    # strided loop; the products are the same bits.
    points = w @ np.ascontiguousarray(w.transpose(0, 2, 1))
    del w
    points += points.transpose(0, 2, 1)
    points *= 0.5
    if conformal:
        points = spd._renormalize_det(points)

    idx = np.minimum((xs * cells).astype(int), cells - 1)
    order = np.argsort(idx, kind="stable")
    bounds = np.searchsorted(idx[order], np.arange(cells + 1))
    counts = np.diff(bounds)
    if not counts.all():
        raise EmptyCell(f"cell {int(np.argmin(counts))} of {cells} "
                        f"received no samples")
    points = points[order]
    certificates = pair_certificates(SPDSpace(n, conformal=conformal),
                                     points, bounds)
    return FiberBuckets(
        cocycle=c, conformal=conformal, cells=cells, steps=steps, x0=x0,
        cell_points=[points[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])],
        counts=counts, diameters=certificates.diameters(),
        certificates=certificates,
    )


@dataclass
class SectionFromCenters:
    """Per-cell centres as a section, with each centre's certificate:
    ``center_gaps[i]`` = radius - lower bound of cell i, and
    ``center_supports[i]`` the support of its certificate."""

    section: Section
    invariance_residual: float
    center_gaps: np.ndarray
    center_supports: list


def section_from_centers(fb: FiberBuckets, *,
                         center_tol: float = 1e-6) -> SectionFromCenters:
    """Per-cell Chebyshev center of the fiber samples, as a sampled SPD section.

    The invariance residual  sup_i d(A(x_i) . phi(x_i), phi(x_i + alpha))
    (cells matched by nearest cell) quantifies how close the recovered
    section is to being skew-invariant; it acts on and measures all cells
    as one stack.  The centres are read from the pair certificate that
    :func:`sample_fibers` kept, so a cell whose geodesic midpoint covers it
    costs no further scan; only the others run the tangent-ball search of
    :func:`~cocyclelab.centers.chebyshev_center` from that midpoint.  Every
    centre is certified exact, so ``center_tol`` is accepted for
    compatibility and ignored.
    """
    c = fb.cocycle
    reports = [fb.certificates.center(i) for i in range(fb.cells)]
    # SPDSpace(conformal=True) keeps every centre on the det-1 slice.
    values = np.array([r.center for r in reports])

    thetas = fb.cell_centers()
    act = spd.conf_action if fb.conformal else spd.gl_action
    images = act(c.generators_along(thetas), values)
    nearest = values[_next_cell(c.base, thetas, fb.cells)]
    section = Section.from_samples(thetas, values)
    return SectionFromCenters(
        section=section,
        invariance_residual=float(spd.spd_distances_from(images, nearest).max()),
        center_gaps=np.array([r.radius - r.lower_bound for r in reports]),
        center_supports=[r.support for r in reports],
    )


@dataclass
class ReductionResult:
    """Conjugacy data and defect of a reduced cocycle.

    ``b_values[i]`` is the symmetric positive square root of the section
    at cell i, so phi = B B^T holds by construction; ``defect`` is the
    sup over cells of the orthogonality (or conformality) defect of the
    conjugated generator.
    """

    section: Section
    b_values: np.ndarray
    defect: float
    per_cell_defect: np.ndarray
    conformal: bool
    distortion_max_deviation: float | None = None


def _next_cell(base, thetas: np.ndarray, cells: int) -> np.ndarray:
    """Index of the uniform cell that holds T x for every cell centre x."""
    return (base.step_many(thetas) * cells).astype(int) % cells


def _evaluate(phi, xs: np.ndarray, n: int) -> np.ndarray:
    """A callable section at the points ``xs``: one (k, n, n) stack."""
    return _batch(phi(xs), (len(xs), n, n), "section")


def _section_lookup(phi, c: MatrixCocycle):
    """(section, next_values) for a Section or oracle.

    next_values[i] is the section at thetas[i] + alpha: the value of the
    nearest cell for a sampled Section, the exact value for a callable
    oracle, which is evaluated at all 512 cell centres in one call and at
    their images in one more.
    """
    if isinstance(phi, Section):
        return phi, phi.values[_next_cell(c.base, phi.thetas, len(phi.thetas))]
    thetas = (np.arange(512) + 0.5) / 512
    section = Section.from_samples(thetas, _evaluate(phi, thetas, c.dim))
    return section, _evaluate(phi, c.base.step_many(thetas), c.dim)


def _reduce(c: MatrixCocycle, phi, conformal: bool) -> ReductionResult:
    """Both reductions: conjugate by B = phi^{1/2} at every cell,
    A~ = B(x + alpha)^{-1} A(x) B(x), and measure the defect of A~ (of
    lambda A~ in the conformal case), all cells as one stack."""
    section, next_values = _section_lookup(phi, c)
    values = section.values
    a = c.generators_along(section.thetas)
    b_values = spd.spd_sqrt(values)
    a_tilde = spd.inv(spd.spd_sqrt(next_values)) @ a @ b_values
    distortion = None
    if conformal:
        spd.require_unit_determinant(values)
        a_tilde = spd.conf_normalizer(a)[:, None, None] * a_tilde
        # Operator-norm condition number of each A~; 1 iff A~ is conformal.
        sq = np.linalg.eigvalsh(a_tilde.transpose(0, 2, 1) @ a_tilde)
        distortion = float(np.max(np.abs(np.sqrt(sq[:, -1] / sq[:, 0]) - 1.0)))
    gram = (a_tilde @ a_tilde.transpose(0, 2, 1) if conformal
            else a_tilde.transpose(0, 2, 1) @ a_tilde)
    defects = np.linalg.norm(gram - np.eye(c.dim), axis=(1, 2))
    return ReductionResult(
        section=section,
        b_values=b_values,
        defect=float(defects.max()),
        per_cell_defect=defects,
        conformal=conformal,
        distortion_max_deviation=distortion,
    )


def reduce_to_orthogonal(c: MatrixCocycle, phi) -> ReductionResult:
    """Conjugate by B = phi^{1/2} and measure  sup ||A~^T A~ - Id||_F.

    ``phi`` is a sampled SPD section (x + alpha looked up in the nearest
    cell) or a callable oracle, array-valued as described in the module
    docstring (evaluated exactly, so a true coboundary reduces to
    rounding level).
    """
    return _reduce(c, phi, conformal=False)


def reduce_to_conformal(c: MatrixCocycle, phi) -> ReductionResult:
    """Conjugate by B = phi^{1/2} and measure
    sup ||(lambda A~)(lambda A~)^T - Id||_F  with lambda(x) the determinant
    normalizer of A(x).

    ``phi`` is a det-1 section, sampled or an array-valued callable
    oracle, as for :func:`reduce_to_orthogonal`.
    """
    return _reduce(c, phi, conformal=True)


def oracle_distances(section: Section, oracle) -> np.ndarray:
    """d(phi(x_i), phi*(x_i)) at every cell against a callable oracle,
    which is evaluated at all cells in one call."""
    exact = _evaluate(oracle, section.thetas, section.values.shape[-1])
    return spd.spd_distances_from(section.values, exact)


def oracle_section_distance(section: Section, oracle) -> float:
    """sup over cells of d(phi(x_i), phi*(x_i)) against a callable oracle."""
    return float(oracle_distances(section, oracle).max())
