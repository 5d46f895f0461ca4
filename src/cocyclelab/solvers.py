"""Solvers for the twisted cohomological equation over circle rotations.

The scalar model equation is

    phi(theta + alpha) - e^{i beta} phi(theta) = rho(theta),

solved mode by mode in Fourier space: phi_n = rho_n / (e^{2 pi i n alpha}
- e^{i beta}).  Each divisor is recorded; modes below the floor abort
with the offending list rather than being mollified.  On top of this
sit the q-th-root (cyclotomic) reduction, the explicit coordinate
formulas for shift cocycles, and the uniqueness / oscillation
diagnostics for sections.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .circle import circle_distance
from .cocycles import ShiftCocycle, shift_twisted_sum
from .errors import (
    ConfigInvalid,
    MeanObstruction,
    NonFinite,
    NotASolution,
    ScaleTooFine,
    SmallDivisor,
)
from .trigpoly import TrigPoly

DIVISOR_FLOOR = 1e-8
SOLVER_RESIDUAL_TOL = 1e-10
SOLUTION_RESIDUAL_TOL = 1e-8
DEFAULT_GRID = 4096


# -- sections ----------------------------------------------------------------

@dataclass
class Section:
    """A candidate solution: Fourier series or sampled values.

    Sampled values are complex scalars, vectors or SPD matrices, one per
    sample angle; when those angles form a rotation orbit
    (``orbit_alpha``), the equation can be checked exactly along
    consecutive samples.
    """

    poly: TrigPoly | None = None
    thetas: np.ndarray | None = None
    values: np.ndarray | None = None
    orbit_alpha: float | None = None

    @property
    def kind(self) -> str:
        return "fourier" if self.poly is not None else "grid"

    @classmethod
    def from_trigpoly(cls, poly: TrigPoly) -> "Section":
        return cls(poly=poly)

    @classmethod
    def from_samples(cls, thetas, values,
                     orbit_alpha: float | None = None) -> "Section":
        return cls(
            thetas=np.asarray(thetas, dtype=float),
            values=np.asarray(values),
            orbit_alpha=orbit_alpha,
        )

    def __call__(self, theta):
        if self.poly is None:
            raise ConfigInvalid("sampled sections evaluate only at their samples")
        return self.poly(theta)


def section_to_csv(section: Section, path, grid: int = DEFAULT_GRID):
    """Write (theta, re, im, ...) rows for plotting."""
    import csv
    from pathlib import Path

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if section.kind == "fourier":
        thetas = np.arange(grid) / grid
        values = section.poly(thetas)
    else:
        thetas = section.thetas
        values = section.values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if np.iscomplexobj(values) or values.ndim == 1:
            writer.writerow(["theta", "re", "im"])
            for t, v in zip(thetas, values):
                v = complex(v)
                writer.writerow([repr(float(t)), repr(v.real), repr(v.imag)])
        else:
            width = int(np.prod(values.shape[1:]))
            writer.writerow(["theta"] + [f"v{i}" for i in range(width)])
            for t, v in zip(thetas, values):
                writer.writerow([repr(float(t))]
                                + [repr(float(c)) for c in np.ravel(v)])


# -- the twisted equation ----------------------------------------------------

@dataclass
class TwistedEquation:
    """phi(theta + alpha) - e^{i beta} phi(theta) = rho(theta)."""

    alpha: float
    beta: float
    rho: TrigPoly
    divisors: dict[int, float] = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise NonFinite(f"alpha = {float(self.alpha)!r} and "
                            f"beta = {float(self.beta)!r} must be finite")
        self.divisors = {
            n: abs(self.divisor(n)) for n in self.rho.modes()
        }

    @property
    def twist(self) -> complex:
        return cmath.exp(1j * self.beta)

    def divisor(self, n: int) -> complex:
        return cmath.exp(2j * cmath.pi * n * self.alpha) - self.twist

    @property
    def untwisted(self) -> bool:
        return self.beta % (2.0 * np.pi) == 0.0


def fourier_solve(eq: TwistedEquation,
                  divisor_floor: float = DIVISOR_FLOOR) -> Section:
    """Invert the equation mode by mode; self-verifying.

    Raises SmallDivisor listing every mode whose divisor falls below the
    floor, and MeanObstruction for the untwisted equation with nonzero
    mean.  The returned section passes the substitution residual at
    1e-10 on the default grid.
    """
    untwisted = eq.untwisted
    if untwisted and abs(eq.rho.coeffs.get(0, 0.0)) > 0.0:
        raise MeanObstruction(
            "untwisted equation with nonzero mean has unbounded sums"
        )
    offending = []
    coeffs = {}
    for n, r in eq.rho.coeffs.items():
        if untwisted and n == 0:
            continue
        div = eq.divisor(n)
        if not abs(div) >= divisor_floor:
            offending.append(n)
        else:
            coeffs[n] = r / div
    if offending:
        raise SmallDivisor(sorted(offending), divisor_floor)
    phi = Section.from_trigpoly(TrigPoly(coeffs))
    res = residual(eq, phi, DEFAULT_GRID)
    if not res <= SOLVER_RESIDUAL_TOL:
        raise NotASolution(
            f"self-check residual {res:.3e} exceeds {SOLVER_RESIDUAL_TOL:g}"
        )
    return phi


def residual(eq: TwistedEquation, phi: Section, grid: int = DEFAULT_GRID) -> float:
    """Sup norm of phi(theta + alpha) - e^{i beta} phi(theta) - rho(theta)."""
    if grid < 1:
        raise ConfigInvalid(f"grid = {grid} must be >= 1")
    if phi.kind == "fourier":
        thetas = np.arange(grid) / grid
        lhs = phi.poly(thetas + eq.alpha) - eq.twist * phi.poly(thetas)
        return float(np.max(np.abs(lhs - eq.rho(thetas))))
    if phi.orbit_alpha is None or abs(phi.orbit_alpha - eq.alpha) > 1e-12:
        raise ConfigInvalid(
            "sampled section must lie on an orbit of the equation's rotation"
        )
    thetas = phi.thetas[:-1]
    lhs = phi.values[1:] - eq.twist * phi.values[:-1]
    return float(np.max(np.abs(lhs - eq.rho(thetas))))


def orbit_reconstruction(eq: TwistedEquation, x0: float, steps: int,
                         phi0: complex) -> Section:
    """Propagate a single fiber value along the orbit by substitution.

    Starting from phi(x0) = phi0, applies v <- e^{i beta} v + rho(theta)
    along theta = x0, x0 + alpha, ...; an orbit-sampled section that
    satisfies the equation along consecutive samples by construction.
    """
    thetas = np.mod(
        np.longdouble(x0)
        + np.arange(steps, dtype=np.longdouble) * np.longdouble(eq.alpha),
        1.0,
    ).astype(float)
    values = np.empty(steps, dtype=complex)
    v = complex(phi0)
    tw = eq.twist
    rhos = eq.rho(thetas)
    for k in range(steps):
        values[k] = v
        v = tw * v + rhos[k]
    return Section.from_samples(thetas, values, orbit_alpha=eq.alpha)


# -- cyclotomic reduction ----------------------------------------------------

def cyclotomic_rhs(rho: TrigPoly, alpha: float, beta: float, q: int) -> TrigPoly:
    """Right side rho(theta + alpha/q) - e^{i beta/q} rho(theta) of the
    reduced twisted equation for the q-th-root problem."""
    if q < 1:
        raise ConfigInvalid("q must be >= 1")
    return rho.shift(alpha / q) - rho.scale(cmath.exp(1j * beta / q))


def cyclotomic_solve(rho: TrigPoly, alpha: float, beta: float, q: int,
                     divisor_floor: float = DIVISOR_FLOOR) -> Section:
    """Solve the q-th-root equation

        sum_{k=0}^{q-1} e^{i k beta / q} phi(theta + (q-k-1) alpha / q)
            = rho(theta)

    by reduction to the twisted equation with angles (alpha, beta) and
    the corrected right side of :func:`cyclotomic_rhs`.  The output is
    substituted back and must verify within 1e-8.
    """
    eq = TwistedEquation(alpha, beta, cyclotomic_rhs(rho, alpha, beta, q))
    phi = fourier_solve(eq, divisor_floor)
    res = cyclotomic_verify(phi, rho, alpha, beta, q)
    if not res <= SOLUTION_RESIDUAL_TOL:
        raise NotASolution(
            f"cyclotomic residual {res:.3e} exceeds {SOLUTION_RESIDUAL_TOL:g}"
        )
    return phi


def cyclotomic_verify(phi: Section, rho: TrigPoly, alpha: float, beta: float,
                      q: int, grid: int = DEFAULT_GRID) -> float:
    """Sup norm of the q-term cyclotomic combination minus rho."""
    if grid < DEFAULT_GRID:
        raise ConfigInvalid(f"verification grid must be >= {DEFAULT_GRID}")
    thetas = np.arange(grid) / grid
    lhs = np.zeros(grid, dtype=complex)
    for k in range(q):
        weight = cmath.exp(1j * k * beta / q)
        lhs += weight * phi.poly(thetas + (q - k - 1) * alpha / q)
    return float(np.max(np.abs(lhs - rho(thetas))))


# -- shift-cocycle solvers ---------------------------------------------------

@dataclass
class ShiftSolution:
    """Coordinates of the section value at one base point, plus diagnostics.

    Square-summability of the full (untruncated) solution is reported,
    never assumed: ``flags`` carries "NotSquareSummable" when the
    coordinate mass shows no decay across the truncation window.
    """

    offset: int
    coords: np.ndarray
    norm: float
    coordinate_bound: float
    tail_fraction: float
    invariance_residual: float
    flags: list[str]


def _tail_diagnostics(coords: np.ndarray) -> tuple[float, list[str]]:
    mass = np.abs(coords) ** 2
    total = float(mass.sum())
    if total == 0.0:
        return 0.0, []
    half = len(coords) // 2
    tail = float(mass[half:].sum()) / total
    flags = ["NotSquareSummable"] if tail > 0.05 else []
    return tail, flags


def shift_solve_unilateral(c: ShiftCocycle, x: float) -> ShiftSolution:
    """Section value of the one-sided shift equation at x:

        coordinate j = sum_{r=0}^{j} rho_{j-r}(T^{-(r+1)} x),

    the unique formal solution: the first L + 1 coordinates of the twisted
    sum I(L + 1, T^{-(L+1)} x) 0.  The skew-invariance recurrence
    phi(T x)_j = rho_j(x) + phi(x)_{j-1} is re-checked coordinate-wise
    below the truncation frontier.
    """
    if c.bilateral:
        raise ConfigInvalid("cocycle carries two-sided data")
    c.require_truncation()
    L = c.truncation
    coords, coords_next = (
        shift_twisted_sum(c, c.base.step_n(y, -(L + 1)), L + 1)[1][:L + 1]
        for y in (x, c.base.step(x))
    )
    rho_here = np.array([c.rho_at(j, x) for j in range(L + 1)], dtype=complex)
    shifted = np.concatenate(([0.0], coords[:-1]))
    residual_ = float(np.max(np.abs(coords_next[:L] - (rho_here + shifted)[:L])))

    tail, flags = _tail_diagnostics(coords)
    return ShiftSolution(
        offset=0,
        coords=coords,
        norm=float(np.linalg.norm(coords)),
        coordinate_bound=float(np.max(np.abs(coords))),
        tail_fraction=tail,
        invariance_residual=residual_,
        flags=flags,
    )


def shift_solve_bilateral(c: ShiftCocycle, x: float, tail: int) -> ShiftSolution:
    """Truncated evaluation of the two-sided shift solution

        coordinate n = sum_{j=0}^{tail} rho_{n-j}(T^{-(j+1)} x)

    on the window |n| <= truncation: the twisted sum
    I(tail + 1, T^{-(tail+1)} x) 0, cut or padded with zeros to the window.
    Once tail >= truncation + support the window is exact and the
    invariance residual drops to rounding level; the residual is reported
    alongside the coordinates.
    """
    if not c.bilateral:
        raise ConfigInvalid("cocycle carries one-sided data")
    c.require_truncation()
    L = c.truncation
    coords, coords_next = np.zeros((2, 2 * L + 1), dtype=complex)
    for out, y in ((coords, x), (coords_next, c.base.step(x))):
        lo, window = shift_twisted_sum(c, c.base.step_n(y, -(tail + 1)), tail + 1)
        # window[i] is coordinate lo + i, and -L <= lo = -support.
        top = min(lo + len(window), L + 1)
        out[lo + L:top + L] = window[:top - lo]
    rho_here = np.array(
        [c.rho_at(n, x) for n in range(-L, L + 1)], dtype=complex
    )
    shifted = np.concatenate(([0.0], coords[:-1]))
    deviations = np.abs(coords_next - (rho_here + shifted))[1:]
    residual_ = float(np.max(deviations)) if deviations.size else 0.0

    tail_frac, flags = _tail_diagnostics(coords)
    return ShiftSolution(
        offset=-L,
        coords=coords,
        norm=float(np.linalg.norm(coords)),
        coordinate_bound=float(np.max(np.abs(coords))),
        tail_fraction=tail_frac,
        invariance_residual=residual_,
        flags=flags,
    )


# -- uniqueness and regularity diagnostics -----------------------------------

@dataclass
class UniquenessReport:
    max_dev_from_const: float
    mean: complex
    rationally_independent: bool
    mean_ok: bool


def _rationally_dependent(alpha: float, beta: float, max_den: int = 64,
                          tol: float = 1e-9) -> bool:
    # beta (radians) lies in alpha*Q + 2*pi*Q iff q*beta/(2 pi) - p*alpha
    # is an integer for some small integers q >= 1, p.
    beta_turns = beta / (2.0 * np.pi)
    for q in range(1, max_den + 1):
        for p in range(-max_den, max_den + 1):
            val = q * beta_turns - p * alpha
            if abs(val - round(val)) < tol:
                return True
    return False


def uniqueness_gap(phi1: Section, phi2: Section, eq: TwistedEquation,
                   grid: int = DEFAULT_GRID,
                   rationally_independent: bool | None = None
                   ) -> UniquenessReport:
    """Deviation of phi1 - phi2 from a constant.

    Both sections must solve the equation within 1e-8 (checked).  Two
    solutions may differ by a common eigenvector of the twists; when
    alpha and beta are rationally independent no such eigenvector exists
    and the mean difference must vanish as well.
    """
    for phi in (phi1, phi2):
        res = residual(eq, phi, grid)
        if not res <= SOLUTION_RESIDUAL_TOL:
            raise NotASolution(
                f"section residual {res:.3e} exceeds {SOLUTION_RESIDUAL_TOL:g}"
            )
    if phi1.kind == "grid":
        thetas = phi1.thetas
        v1 = phi1.values
    else:
        thetas = phi2.thetas if phi2.kind == "grid" else np.arange(grid) / grid
        v1 = phi1.poly(thetas)
    v2 = phi2.values if phi2.kind == "grid" else phi2.poly(thetas)
    delta = np.asarray(v1) - np.asarray(v2)
    mean = complex(np.mean(delta))
    dev = float(np.max(np.abs(delta - mean)))
    if rationally_independent is None:
        rationally_independent = not _rationally_dependent(eq.alpha, eq.beta)
    mean_ok = (not rationally_independent) or abs(mean) <= SOLUTION_RESIDUAL_TOL
    return UniquenessReport(
        max_dev_from_const=dev,
        mean=mean,
        rationally_independent=rationally_independent,
        mean_ok=mean_ok,
    )


def oscillation_profile(phi: Section, x: float, scales) -> dict[float, float]:
    """Oscillation proxy of a sampled section at each requested scale.

    For scale s this is the largest ||phi(y) - phi(z)|| over sample pairs
    y, z within s of x.  Scales below four sample spacings are refused
    (ScaleTooFine), and non-finite ones (ConfigInvalid).
    """
    if phi.kind != "grid":
        raise ConfigInvalid("oscillation needs a sampled section")
    scales = sorted(float(s) for s in np.atleast_1d(scales))
    if not np.all(np.isfinite(scales)):
        raise ConfigInvalid(f"scales {scales} must be finite")
    thetas = phi.thetas
    spacing = float(np.min(np.diff(np.sort(thetas)))) if len(thetas) > 1 else 1.0
    if scales[0] < 4.0 * spacing:
        raise ScaleTooFine(
            f"scale {scales[0]:g} below 4 x sample spacing {spacing:g}"
        )
    profile = {}
    for s in scales:
        mask = circle_distance(thetas, x) <= s
        vals = phi.values[mask]
        if vals.shape[0] < 2:
            profile[s] = 0.0
            continue
        flat = vals.reshape(vals.shape[0], -1)
        diff = flat[:, None, :] - flat[None, :, :]
        profile[s] = float(np.max(np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))))
    return profile


def oscillation_estimate(phi: Section, x: float, scales) -> float:
    """Finite-scale oscillation proxy at x: the profile value at the
    smallest requested scale."""
    profile = oscillation_profile(phi, x, scales)
    return profile[min(profile)]
