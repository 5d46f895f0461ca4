"""Reduction of bounded matrix cocycles to orthogonal / conformal ones.

Pipeline: iterate the skew action on Pos(n) along one long base orbit,
bucket the fiber samples over a uniform grid of base cells, take the
per-cell Chebyshev center as the invariant section phi, set
B(x) = phi(x)^{1/2}, and measure how far the conjugated cocycle

    A~(x) = B(x + alpha)^{-1} A(x) B(x)

is from the orthogonal group.  The conformal variant runs the same
construction on the det-1 slice with the normalized congruence action
and reports the defect of lambda(x) A~(x) instead.

Coboundary constructions A(x) = B(T x) Q(x) B(x)^{-1} provide ground
truth: their products are uniformly bounded and the exact section
phi*(x) = B(x) B(x)^T is attached for oracle comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .centers import PointSet, SPDSpace, chebyshev_center, diameter
from .circle import minimality_probe
from .cocycles import MatrixCocycle, prefix_products
from .errors import (
    ConfigInvalid,
    EmptyCell,
    NotOrthogonal,
    NotPositiveDefinite,
    NotUnitDeterminant,
    SingularMatrix,
)
from .solvers import Section

ORTHOGONALITY_SAMPLE = 64
OCCUPANCY_FACTOR = 50


def construct_coboundary(b_gen, q_gen, base, dim: int = 2, *,
                         b_batch=None, q_batch=None,
                         scalar_gen=None) -> MatrixCocycle:
    """Cocycle A(x) = B(T x) Q(x) B(x)^{-1} with known invariant section.

    ``b_gen`` maps x to an invertible matrix, ``q_gen`` to an orthogonal
    one (checked on a sample grid).  The returned cocycle carries
    ``oracle_section``  phi*(x) = B(x) B(x)^T; its products telescope,
    hence stay bounded by sup||B|| * sup||B^{-1}||.
    An optional positive ``scalar_gen`` multiplies A by c(x), which the
    det-normalized (conformal) pipeline must absorb.
    """
    for x in np.arange(ORTHOGONALITY_SAMPLE) / ORTHOGONALITY_SAMPLE:
        q = np.asarray(q_gen(x), dtype=float)
        defect = np.linalg.norm(q.T @ q - np.eye(dim))
        if defect > 1e-10:
            raise NotOrthogonal(
                f"q_gen({x}) orthogonality defect {defect:.3e} > 1e-10"
            )

    def generator(x):
        a = b_gen(base.step(x)) @ q_gen(x) @ np.linalg.inv(b_gen(x))
        if scalar_gen is not None:
            a = scalar_gen(x) * a
        return a

    def generator_batch(xs):
        xs = np.asarray(xs, dtype=float)
        b_next = (b_batch((xs + _alpha_of(base)) % 1.0) if b_batch is not None
                  else np.array([b_gen(base.step(x)) for x in xs]))
        b_here = (b_batch(xs) if b_batch is not None
                  else np.array([b_gen(x) for x in xs]))
        qs = (q_batch(xs) if q_batch is not None
              else np.array([q_gen(x) for x in xs]))
        out = np.einsum("kij,kjl,klm->kim", b_next, qs,
                        np.linalg.inv(b_here))
        if scalar_gen is not None:
            out = out * np.asarray(scalar_gen(xs), dtype=float)[:, None, None]
        return out

    # Telescoping bound from a sample of the conjugacy loop.
    grid = np.arange(1024) / 1024.0
    sup_b = max(float(np.linalg.norm(b_gen(x), 2)) for x in grid[::16])
    sup_b_inv = max(
        float(np.linalg.norm(np.linalg.inv(b_gen(x)), 2)) for x in grid[::16]
    )

    def oracle_section(x):
        b = np.asarray(b_gen(x), dtype=float)
        return spd.symmetrize(b @ b.T)

    return MatrixCocycle(
        base, dim, generator, generator_batch=generator_batch,
        bound=sup_b * sup_b_inv, oracle_section=oracle_section,
    )


def _alpha_of(base) -> float:
    alpha = getattr(base, "alpha", None)
    if alpha is None:
        raise ConfigInvalid("batch coboundary generators need a rotation base")
    return alpha


@dataclass
class FiberBuckets:
    """Orbit samples of the fiber, grouped by uniform base cells."""

    cocycle: MatrixCocycle
    conformal: bool
    cells: int
    steps: int
    x0: float
    cell_points: list
    counts: np.ndarray
    diameters: np.ndarray

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
    dets = np.abs(np.linalg.det(gens))
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
    x_k.  Raises EmptyCell when some cell stays empty, which is also the
    honest failure mode for non-minimal bases.
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
    if not minimality_probe(c.base, x0, min(steps, 10 ** 5), 1.0 / cells):
        raise EmptyCell(
            "orbit fails the cell-scale density probe; the base is not "
            "minimal at this resolution"
        )
    xs = c.base.orbit(x0, steps)
    n = c.dim
    # P_k = A(k, x0) v0 A(k, x0)^T = W_k W_k^T with W_k = A(k, x0) chol(v0),
    # for k < steps: the generator at the last sample is never applied.
    gens = c.generators_along(xs[:-1])
    if conformal:
        gens = _unit_det_generators(gens)
    w = prefix_products(gens)
    del gens
    w = w @ np.linalg.cholesky(v0)
    points = w @ w.transpose(0, 2, 1)
    del w
    points += points.transpose(0, 2, 1)
    points *= 0.5
    if conformal:
        dets = np.linalg.det(points)
        if np.any(dets <= 0.0):
            k = int(np.argmax(dets <= 0.0))
            raise NotPositiveDefinite(
                f"fibre point {k}: determinant {dets[k]:.3e} <= 0"
            )
        points /= (dets ** (1.0 / n))[:, None, None]

    idx = np.minimum((xs * cells).astype(int), cells - 1)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    boundaries = np.searchsorted(sorted_idx, np.arange(cells + 1))
    cell_points = []
    counts = np.empty(cells, dtype=int)
    for i in range(cells):
        lo, hi = boundaries[i], boundaries[i + 1]
        counts[i] = hi - lo
        if hi == lo:
            raise EmptyCell(f"cell {i} of {cells} received no samples")
        cell_points.append(points[order[lo:hi]])
    space = SPDSpace(n, conformal=conformal)
    diameters = np.array([diameter(PointSet(space, pts)) for pts in cell_points])
    return FiberBuckets(
        cocycle=c, conformal=conformal, cells=cells, steps=steps, x0=x0,
        cell_points=cell_points, counts=counts, diameters=diameters,
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
    section is to being skew-invariant.  A cell whose farthest pair has a
    covering geodesic midpoint costs three distance scans.  Every centre
    is certified exact, so ``center_tol`` is accepted for compatibility
    and ignored.
    """
    n = fb.cocycle.dim
    space = SPDSpace(n, conformal=fb.conformal)

    reports = [chebyshev_center(PointSet(space, pts)) for pts in fb.cell_points]
    # SPDSpace(conformal=True) keeps every centre on the det-1 slice.
    values = np.array([r.center for r in reports])

    thetas = fb.cell_centers()
    residual = 0.0
    for i, x in enumerate(thetas):
        a = fb.cocycle.generator(x)
        image = (spd.conf_action(a, values[i]) if fb.conformal
                 else spd.gl_action(a, values[i]))
        j = int(fb.cocycle.base.step(x) * fb.cells) % fb.cells
        residual = max(residual, spd.spd_distance(image, values[j]))
    section = Section.from_samples(thetas, values, fiber="spd")
    return SectionFromCenters(
        section=section,
        invariance_residual=residual,
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
    oracle_max_distance: float | None = None
    invariance_residual: float | None = None

    def rows(self):
        for i, theta in enumerate(self.section.thetas):
            yield i, float(theta), float(self.per_cell_defect[i])


def _section_lookup(phi, base):
    """(thetas, values, next_values, next_index) for a Section or oracle.

    The section at thetas[i] + alpha is next_values[next_index[i]]: the
    value of the nearest cell for a sampled Section (next_values is then
    values itself), the exact value for a callable oracle.
    """
    if isinstance(phi, Section):
        thetas = phi.thetas
        cells = len(thetas)
        next_index = np.array(
            [int(base.step(x) * cells) % cells for x in thetas], dtype=int
        )
        return thetas, phi.values, phi.values, next_index
    # Callable oracle: exact evaluation on a default grid of cells.
    cells = 512
    thetas = (np.arange(cells) + 0.5) / cells
    values = np.array([np.asarray(phi(x), dtype=float) for x in thetas])
    next_values = np.array(
        [np.asarray(phi(base.step(x)), dtype=float) for x in thetas]
    )
    return thetas, values, next_values, np.arange(cells)


def _conjugate(a, values, next_values, next_index):
    """B = phi^{1/2} per cell and B(x + alpha)^{-1} A(x) B(x), stacked."""
    b_values = spd.spd_sqrt_batch(values)
    b_next = (b_values if next_values is values
              else spd.spd_sqrt_batch(next_values))[next_index]
    return b_values, np.linalg.inv(b_next) @ a @ b_values


def reduce_to_orthogonal(c: MatrixCocycle, phi) -> ReductionResult:
    """Conjugate by B = phi^{1/2} and measure  sup ||A~^T A~ - Id||_F.

    ``phi`` is a sampled SPD section (x + alpha looked up in the nearest
    cell) or a callable oracle (evaluated exactly, so a true coboundary
    reduces to rounding level).
    """
    thetas, values, next_values, next_index = _section_lookup(phi, c.base)
    b_values, a_tilde = _conjugate(
        c.generators_along(thetas), values, next_values, next_index
    )
    eye = np.eye(c.dim)
    defects = np.linalg.norm(a_tilde.transpose(0, 2, 1) @ a_tilde - eye,
                             axis=(1, 2))
    section = phi if isinstance(phi, Section) else Section.from_samples(
        thetas, values, fiber="spd"
    )
    return ReductionResult(
        section=section,
        b_values=b_values,
        defect=float(defects.max()),
        per_cell_defect=defects,
        conformal=False,
    )


def reduce_to_conformal(c: MatrixCocycle, phi) -> ReductionResult:
    """Conjugate by B = phi^{1/2} and measure
    sup ||(lambda A~)(lambda A~)^T - Id||_F  with lambda(x) the determinant
    normalizer of A(x).

    ``phi`` is a det-1 section, sampled or a callable oracle, as for
    :func:`reduce_to_orthogonal`.
    """
    n = c.dim
    thetas, values, next_values, next_index = _section_lookup(phi, c.base)
    a = c.generators_along(thetas)
    b_values, a_tilde = _conjugate(a, values, next_values, next_index)
    det_gap = np.abs(np.linalg.det(values) - 1.0)
    if np.any(det_gap > spd.UNIT_DET_TOL):
        k = int(np.argmax(det_gap))
        raise NotUnitDeterminant(
            f"cell {k}: |det P - 1| = {det_gap[k]:.3e} > {spd.UNIT_DET_TOL:g}"
        )
    det_ata = np.linalg.det(a.transpose(0, 2, 1) @ a)
    if np.any(det_ata <= spd.SINGULAR_TOL ** 2):
        raise SingularMatrix("det A^T A below invertibility tolerance")
    a_tilde = det_ata[:, None, None] ** (-1.0 / (2.0 * n)) * a_tilde
    eye = np.eye(n)
    defects = np.linalg.norm(a_tilde @ a_tilde.transpose(0, 2, 1) - eye,
                             axis=(1, 2))
    # Operator-norm condition number of each A~; 1 iff A~ is conformal.
    sq = np.linalg.eigvalsh(a_tilde.transpose(0, 2, 1) @ a_tilde)
    distortion = np.sqrt(sq[:, -1] / sq[:, 0])
    section = phi if isinstance(phi, Section) else Section.from_samples(
        thetas, values, fiber="spd"
    )
    return ReductionResult(
        section=section,
        b_values=b_values,
        defect=float(defects.max()),
        per_cell_defect=defects,
        conformal=True,
        distortion_max_deviation=float(np.max(np.abs(distortion - 1.0))),
    )


def oracle_section_distance(section: Section, oracle) -> float:
    """sup over cells of d(phi(x_i), phi*(x_i)) against a callable oracle."""
    worst = 0.0
    for theta, value in zip(section.thetas, section.values):
        worst = max(worst, spd.spd_distance(value, np.asarray(oracle(theta))))
    return worst
