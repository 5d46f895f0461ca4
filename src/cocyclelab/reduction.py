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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import spd
from .centers import PointSet, SPDSpace, bt_center, chebyshev_center
from .circle import minimality_probe
from .cocycles import MatrixCocycle
from .errors import ConfigInvalid, EmptyCell, NotOrthogonal
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


def _congruence_orbit_2x2(gens: np.ndarray, p0: np.ndarray,
                          renormalize_det: bool) -> np.ndarray:
    steps = gens.shape[0]
    out = np.empty((steps, 3))
    p00, p01, p11 = float(p0[0, 0]), float(p0[0, 1]), float(p0[1, 1])
    a_ = gens[:, 0, 0]
    b_ = gens[:, 0, 1]
    c_ = gens[:, 1, 0]
    d_ = gens[:, 1, 1]
    for k in range(steps):
        out[k, 0] = p00
        out[k, 1] = p01
        out[k, 2] = p11
        a, b, c, d = a_[k], b_[k], c_[k], d_[k]
        t00 = a * p00 + b * p01
        t01 = a * p01 + b * p11
        t10 = c * p00 + d * p01
        t11 = c * p01 + d * p11
        p00 = t00 * a + t01 * b
        p01 = t00 * c + t01 * d
        p11 = t10 * c + t11 * d
        if renormalize_det:
            det = p00 * p11 - p01 * p01
            scale = det ** -0.5
            p00 *= scale
            p01 *= scale
            p11 *= scale
    return out


def sample_fibers(c: MatrixCocycle, x0: float, v0: np.ndarray, steps: int,
                  cells: int, *, conformal: bool = False) -> FiberBuckets:
    """Fill base cells with the orbit of (x0, v0) under the skew action.

    The fiber moves by the congruence action (det-normalized when
    ``conformal``); every visited pair (x_k, P_k) lands in the cell of
    x_k.  Raises EmptyCell when some cell stays empty, which is also the
    honest failure mode for non-minimal bases.
    """
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
    gens = c.generators_along(xs)
    n = c.dim
    if n == 2:
        flat = _congruence_orbit_2x2(gens, v0, conformal)
        points = np.empty((steps, 2, 2))
        points[:, 0, 0] = flat[:, 0]
        points[:, 0, 1] = flat[:, 1]
        points[:, 1, 0] = flat[:, 1]
        points[:, 1, 1] = flat[:, 2]
    else:
        points = np.empty((steps, n, n))
        p = v0.copy()
        for k in range(steps):
            points[k] = p
            a = gens[k]
            p = spd.symmetrize(a @ p @ a.T)
            if conformal:
                p = spd._renormalize_det(p)

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
    diameters = np.array([
        float(np.max(spd.pairwise_spd_distances(pts))) if len(pts) > 1 else 0.0
        for pts in cell_points
    ])
    return FiberBuckets(
        cocycle=c, conformal=conformal, cells=cells, steps=steps, x0=x0,
        cell_points=cell_points, counts=counts, diameters=diameters,
    )


@dataclass
class SectionFromCenters:
    section: Section
    invariance_residual: float
    center_iterations: np.ndarray


def section_from_centers(fb: FiberBuckets, *, center_tol: float = 1e-6,
                         method: str = "chebyshev",
                         threads: int = 1) -> SectionFromCenters:
    """Per-cell center of the fiber samples, as a sampled SPD section.

    The invariance residual  sup_i d(A(x_i) . phi(x_i), phi(x_i + alpha))
    (cells matched by nearest cell) quantifies how close the recovered
    section is to being skew-invariant.  The per-cell search cost grows
    like cell diameter / center_tol; the default hits the nearest-cell
    bias floor long before it matters.
    """
    n = fb.cocycle.dim
    space = SPDSpace(n, conformal=fb.conformal)

    def center_of(pts):
        ps = PointSet(space, pts)
        if method == "bt":
            return bt_center(ps), 0
        rep = chebyshev_center(ps, center_tol)
        return rep.center, rep.iterations

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(center_of, fb.cell_points))
    else:
        results = [center_of(pts) for pts in fb.cell_points]
    values = np.array([r[0] for r in results])
    iterations = np.array([r[1] for r in results])
    if fb.conformal:
        values = np.array([spd._renormalize_det(v) for v in values])

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
        center_iterations=iterations,
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
    """(thetas, value_at_index, next_value_at_index) for a Section or oracle."""
    if isinstance(phi, Section):
        thetas = phi.thetas
        values = phi.values
        cells = len(thetas)

        def here(i):
            return values[i]

        def there(i):
            x_next = base.step(thetas[i])
            return values[int(x_next * cells) % cells]

        return thetas, here, there
    # Callable oracle: exact evaluation on a default grid of cells.
    cells = 512
    thetas = (np.arange(cells) + 0.5) / cells

    def here(i):
        return np.asarray(phi(thetas[i]), dtype=float)

    def there(i):
        return np.asarray(phi(base.step(thetas[i])), dtype=float)

    return thetas, here, there


def reduce_to_orthogonal(c: MatrixCocycle, phi) -> ReductionResult:
    """Conjugate by B = phi^{1/2} and measure  sup ||A~^T A~ - Id||_F.

    ``phi`` is a sampled SPD section (x + alpha looked up in the nearest
    cell) or a callable oracle (evaluated exactly, so a true coboundary
    reduces to rounding level).
    """
    thetas, here, there = _section_lookup(phi, c.base)
    m = len(thetas)
    n = c.dim
    b_values = np.empty((m, n, n))
    defects = np.empty(m)
    eye = np.eye(n)
    for i, x in enumerate(thetas):
        p_here = spd.require_spd(here(i))
        b_here = spd.spd_sqrt(p_here)
        b_next = spd.spd_sqrt(there(i))
        a = c.generator(x)
        a_tilde = np.linalg.inv(b_next) @ a @ b_here
        defects[i] = np.linalg.norm(a_tilde.T @ a_tilde - eye)
        b_values[i] = b_here
    section = phi if isinstance(phi, Section) else Section.from_samples(
        thetas, np.array([here(i) for i in range(m)]), fiber="spd"
    )
    return ReductionResult(
        section=section,
        b_values=b_values,
        defect=float(defects.max()),
        per_cell_defect=defects,
        conformal=False,
    )


def reduce_to_conformal(c: MatrixCocycle, *, x0: float = 0.1,
                        v0: np.ndarray | None = None,
                        steps: int = 100_000, cells: int = 256,
                        center_tol: float = 1e-6, method: str = "chebyshev",
                        threads: int = 1, phi=None) -> ReductionResult:
    """Full det-normalized pipeline: sample Conf(n) fibers, take centers,
    conjugate, and measure  sup ||(lambda A~)(lambda A~)^T - Id||_F  with
    lambda(x) the determinant normalizer of A(x)."""
    n = c.dim
    invariance = None
    if phi is None:
        if v0 is None:
            v0 = np.eye(n)
        fb = sample_fibers(c, x0, v0, steps, cells, conformal=True)
        got = section_from_centers(
            fb, center_tol=center_tol, method=method, threads=threads
        )
        phi = got.section
        invariance = got.invariance_residual

    thetas, here, there = _section_lookup(phi, c.base)
    m = len(thetas)
    b_values = np.empty((m, n, n))
    defects = np.empty(m)
    max_distortion_dev = 0.0
    eye = np.eye(n)
    for i, x in enumerate(thetas):
        p_here = spd.require_unit_determinant(spd.require_spd(here(i)))
        b_here = spd.spd_sqrt(p_here)
        b_next = spd.spd_sqrt(there(i))
        a = c.generator(x)
        lam = spd.conf_normalizer(a)
        a_tilde = lam * (np.linalg.inv(b_next) @ a @ b_here)
        defects[i] = np.linalg.norm(a_tilde @ a_tilde.T - eye)
        max_distortion_dev = max(
            max_distortion_dev,
            abs(spd.quasiconformal_distortion(a_tilde) - 1.0),
        )
        b_values[i] = b_here
    section = phi if isinstance(phi, Section) else Section.from_samples(
        thetas, np.array([here(i) for i in range(m)]), fiber="spd"
    )
    return ReductionResult(
        section=section,
        b_values=b_values,
        defect=float(defects.max()),
        per_cell_defect=defects,
        conformal=True,
        distortion_max_deviation=max_distortion_dev,
        invariance_residual=invariance,
    )


def oracle_section_distance(section: Section, oracle) -> float:
    """sup over cells of d(phi(x_i), phi*(x_i)) against a callable oracle."""
    worst = 0.0
    for theta, value in zip(section.thetas, section.values):
        worst = max(worst, spd.spd_distance(value, np.asarray(oracle(theta))))
    return worst
