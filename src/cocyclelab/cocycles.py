"""Cocycles of affine isometries and matrix cocycles over a circle base.

A generator map x -> (Psi(x), rho(x)) induces the skew action

    (x, v)  ->  (T x, Psi(x) v + rho(x)),

whose k-th iterate applies the composition I(k, x) of generators along
the orbit.  The translation part of I(k, x) is the twisted Birkhoff sum

    S_k(rho)(x) = sum_i Psi(T^{k-1} x) ... Psi(T^{i+1} x) rho(T^i x).

Isometries are composed as homogeneous matrices [[Psi, rho], [0, 1]], so
isometry cocycles and matrix cocycles x -> A(x) in GL(n) share one kernel,
``prefix_products``: every orbit walk reads the left prefix products of
the generators along the orbit.  Shift cocycles carry finitely supported
coordinate data over the one-sided or two-sided coordinate shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import return_times
from .errors import (
    ConfigInvalid,
    NonFinite,
    NotOrthogonal,
    SingularMatrix,
    TruncationTooSmall,
)
from .trigpoly import TrigPoly

ORTHOGONALITY_TOL = 1e-10
ITERATION_CAP = 10 ** 7
# Generators per block of the doubling scan in prefix_products.  The scan's
# temporaries are one block of matrices, whatever the orbit length.
SCAN_BLOCK = 1024


@dataclass(frozen=True)
class FiniteIsometry:
    """Affine isometry v -> linear @ v + translation of R^l."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)
        defect = np.linalg.norm(lin.T @ lin - np.eye(lin.shape[0]))
        if defect > ORTHOGONALITY_TOL:
            raise NotOrthogonal(
                f"linear part orthogonality defect {defect:.3e} > "
                f"{ORTHOGONALITY_TOL:g}"
            )

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "FiniteIsometry":
        return cls(np.eye(dim), np.zeros(dim))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.linear @ np.asarray(v, dtype=float) + self.translation

    def compose(self, other: "FiniteIsometry") -> "FiniteIsometry":
        """self after other: (P1, r1) o (P2, r2) = (P1 P2, P1 r2 + r1)."""
        return FiniteIsometry(
            self.linear @ other.linear,
            self.linear @ other.translation + self.translation,
        )

    def distance_to(self, other: "FiniteIsometry") -> float:
        """Left-invariant metric ||P1 - P2||_op + ||r1 - r2||."""
        return float(
            np.linalg.norm(self.linear - other.linear, 2)
            + np.linalg.norm(self.translation - other.translation)
        )


def gram_schmidt(M: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a near-orthogonal matrix, or of each
    matrix of a (..., l, l) stack: the Q of M = QR, signed so that R has a
    positive diagonal, which is what Gram-Schmidt on the columns yields."""
    Q, R = np.linalg.qr(np.asarray(M, dtype=float))
    signs = np.where(np.diagonal(R, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return Q * signs[..., None, :]


class GridIsometryTable:
    """Generator table on a uniform grid of the circle.

    The linear part uses the nearest sample, re-projected onto the
    orthogonal group once at load; the translation part interpolates
    linearly between neighbours.  Both take a point or an array of points.
    Adjacent samples must differ by at most
    ``lipschitz_bound * spacing`` (checked at load), which is the
    continuity contract of the generator.
    """

    def __init__(self, linears: np.ndarray, translations: np.ndarray,
                 lipschitz_bound: float):
        self.linears = np.asarray(linears, dtype=float)
        self.translations = np.asarray(translations, dtype=float)
        self.size = self.linears.shape[0]
        if self.translations.shape[0] != self.size:
            raise ConfigInvalid("linear and translation tables differ in length")
        spacing = 1.0 / self.size
        for i in range(self.size):
            j = (i + 1) % self.size
            dl = np.linalg.norm(self.linears[i] - self.linears[j])
            dt = np.linalg.norm(self.translations[i] - self.translations[j])
            if max(dl, dt) > lipschitz_bound * spacing:
                raise ConfigInvalid(
                    f"table jump {max(dl, dt):.3e} between cells {i},{j} "
                    f"exceeds Lipschitz bound x spacing"
                )
        # Orthogonal polar factors M (M^T M)^{-1/2} of the samples.
        svds = map(np.linalg.svd, self.linears)
        self.orthogonals = np.array([u @ vt for u, _, vt in svds])

    def linear_at(self, x) -> np.ndarray:
        pos = (np.asarray(x, dtype=float) % 1.0) * self.size
        return self.orthogonals[np.floor(pos + 0.5).astype(int) % self.size]

    def translation_at(self, x) -> np.ndarray:
        pos = (np.asarray(x, dtype=float) % 1.0) * self.size
        i = np.floor(pos).astype(int) % self.size
        frac = (pos - np.floor(pos))[..., None]
        j = (i + 1) % self.size
        return (1.0 - frac) * self.translations[i] + frac * self.translations[j]


class IsometryCocycle:
    """Skew action data: a base map plus a generator x -> FiniteIsometry."""

    def __init__(self, base, dim: int, *, linear_batch_fn=None,
                 constant_linear: np.ndarray | None = None,
                 translation_batch_fn=None):
        self.base = base
        self.dim = int(dim)
        if constant_linear is not None:
            constant_linear = np.asarray(constant_linear, dtype=float)
            defect = np.linalg.norm(
                constant_linear.T @ constant_linear - np.eye(self.dim)
            )
            if defect > ORTHOGONALITY_TOL:
                raise NotOrthogonal("constant linear part is not orthogonal")
        self.constant_linear = constant_linear
        self._linear_batch_fn = linear_batch_fn
        self._translation_batch_fn = translation_batch_fn
        if constant_linear is None and linear_batch_fn is None:
            raise ConfigInvalid("need a linear part (constant or function)")
        if translation_batch_fn is None:
            raise ConfigInvalid("need a translation part")

    @classmethod
    def from_table(cls, base, table: GridIsometryTable) -> "IsometryCocycle":
        return cls(
            base,
            table.translations.shape[1],
            linear_batch_fn=table.linear_at,
            translation_batch_fn=table.translation_at,
        )

    def generators_along(self, xs: np.ndarray) -> np.ndarray:
        """Homogeneous generators [[Psi(x), rho(x)], [0, 1]] at the points xs."""
        k, l = len(xs), self.dim
        gens = np.zeros((k, l + 1, l + 1))
        if self.constant_linear is not None:
            gens[:, :l, :l] = self.constant_linear
        else:
            gens[:, :l, :l] = self._linear_batch_fn(xs)
        gens[:, :l, l] = np.reshape(self._translation_batch_fn(xs), (k, l))
        gens[:, l, l] = 1.0
        return gens


def prefix_products(gens: np.ndarray) -> np.ndarray:
    """Left prefix products of a stack of k square matrices.

    Returns M of shape (k + 1, d, d) with M[0] = I and
    M[j] = gens[j-1] ... gens[0].  For generators taken along an orbit,
    M[j] is the cocycle A(j, x), and M[j + i] = A(j, T^i x) M[i].  Inside
    each block of SCAN_BLOCK generators a doubling scan (Hillis & Steele,
    CACM 1986) forms the block's prefixes in log2(SCAN_BLOCK) stacked
    products; the block is then carried by the last product of the block
    before.  Raises NonFinite when a product is not finite: a non-finite
    generator spreads to every later product, and a product overflows
    (a partial product the scan forms on the way counts).
    """
    gens = np.asarray(gens, dtype=float)
    k, d = gens.shape[0], gens.shape[-1]
    out = np.empty((k + 1, d, d))
    out[0] = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, k, SCAN_BLOCK):
            block = out[lo + 1:lo + 1 + SCAN_BLOCK]
            block[:] = gens[lo:lo + SCAN_BLOCK]
            shift = 1
            while shift < len(block):
                block[shift:] = block[shift:] @ block[:-shift]
                shift *= 2
            block[:] = block @ out[lo]
    bad = ~np.isfinite(out).all(axis=(1, 2))
    if bad.any():
        raise NonFinite(f"product at step {int(np.argmax(bad))} is not finite")
    return out


def orbit_products(c, x: float, k: int) -> np.ndarray:
    """Prefix products A(j, x), j = 0..k, of a cocycle's generators."""
    if k > ITERATION_CAP:
        raise ConfigInvalid(f"iteration count {k} exceeds {ITERATION_CAP}")
    return prefix_products(c.generators_along(c.base.orbit(x, k)))


def iterate_skew(c: IsometryCocycle, x: float, v: np.ndarray, k: int):
    """k-th image of (x, v) under the skew action; returns (T^k x, I(k,x) v)."""
    last = orbit_products(c, x, k)[-1]
    l = c.dim
    v = last[:l, :l] @ np.asarray(v, dtype=float) + last[:l, l]
    return c.base.step_n(x, k), v


def twisted_birkhoff(c: IsometryCocycle, x: float, k: int) -> np.ndarray:
    """Twisted Birkhoff sum: the translation part of I(k, x)."""
    return orbit_products(c, x, k)[-1, :c.dim, c.dim].copy()


def compose_along_orbit(c: IsometryCocycle, x: float, k: int) -> FiniteIsometry:
    """Full isometry I(k, x), the last prefix product; its linear part is
    re-orthonormalized once against rounding drift."""
    last = orbit_products(c, x, k)[-1]
    l = c.dim
    return FiniteIsometry(gram_schmidt(last[:l, :l]), last[:l, l].copy())


@dataclass
class ProbeReport:
    sup_norm: float
    argmax_k: int
    growth_slope: float
    norms: np.ndarray  # ||I(k, x0) v0|| for k = 0..n


def boundedness_probe(c: IsometryCocycle, x0: float, v0: np.ndarray,
                      n: int) -> ProbeReport:
    """Track sup_k ||I(k, x0) v0|| for k <= n.

    The slope is a least-squares fit of the running maximum against log k
    — a growth diagnostic only, not a boundedness verdict.
    """
    prods = orbit_products(c, x0, n)
    l = c.dim
    traj = prods[:, :l, :l] @ np.asarray(v0, dtype=float) + prods[:, :l, l]
    del prods
    norms = np.linalg.norm(traj, axis=1)
    running = np.maximum.accumulate(norms)
    ks = np.arange(1, n + 1)
    slope = float(np.polyfit(np.log(ks), running[1:], 1)[0])
    argmax = int(np.argmax(norms))
    return ProbeReport(
        sup_norm=float(norms[argmax]), argmax_k=argmax, growth_slope=slope,
        norms=norms,
    )


def recurrence_isometries(c: IsometryCocycle, x: float, delta: float,
                          n: int) -> list[tuple[int, FiniteIsometry]]:
    """Pairs (k, I(k, x)) over the return times d(T^k x, x) < delta.

    One pass along the orbit; an empirical sample of the recurrence
    semigroup of x.
    """
    if n > 10 ** 6:
        raise ConfigInvalid("n exceeds the 1e6 recurrence bound")
    ks = return_times(c.base, x, delta, n)
    if len(ks) == 0:
        return []
    prods = orbit_products(c, x, int(ks[-1]))[ks]
    l = c.dim
    return [
        (int(k), FiniteIsometry(q, p[:l, l].copy()))
        for k, q, p in zip(ks, gram_schmidt(prods[:, :l, :l]), prods)
    ]


@dataclass
class SemigroupPairCheck:
    k1: int
    k2: int
    deviation: float
    continuity_eps: float
    bound: float
    ok: bool


def semigroup_closure_check(c: IsometryCocycle, x: float, delta: float,
                            n: int, max_pairs: int = 6
                            ) -> list[SemigroupPairCheck]:
    """Empirical closure of the recurrence sample under composition.

    For sampled returns I1 = I(k1, x), I2 = I(k2, x), the cocycle identity
    places I(k1 + k2, x) within (2 + C) * eps of I1 I2, where eps is the
    continuity gap of I(k1, .) over the return displacement and C bounds
    the right-translation distortion of the metric over the sampled
    family (C = 1 + max translation norm, measured, not assumed).
    """
    sample = recurrence_isometries(c, x, delta, n)
    if len(sample) < 2:
        return []
    c_const = 1.0 + max(
        float(np.linalg.norm(iso.translation)) for _, iso in sample
    )
    checks = []
    for a in range(min(max_pairs, len(sample))):
        for b in range(a, min(max_pairs, len(sample))):
            k1, i1 = sample[a]
            k2, i2 = sample[b]
            direct = compose_along_orbit(c, x, k1 + k2)
            shifted = compose_along_orbit(c, c.base.step_n(x, k2), k1)
            eps = shifted.distance_to(i1)
            dev = direct.distance_to(i1.compose(i2))
            bound = (2.0 + c_const) * eps + 1e-9
            checks.append(SemigroupPairCheck(
                k1=k1, k2=k2, deviation=dev, continuity_eps=eps,
                bound=bound, ok=dev <= bound,
            ))
    return checks


# -- matrix cocycles ---------------------------------------------------------

class MatrixCocycle:
    """Invertible-matrix cocycle x -> A(x) over a base map."""

    def __init__(self, base, dim: int, generator, *, generator_batch=None,
                 bound: float | None = None, oracle_section=None):
        self.base = base
        self.dim = int(dim)
        self._generator = generator
        self._generator_batch = generator_batch
        self.bound = bound
        # Known invariant section, attached by coboundary constructions
        # for oracle comparisons.  It is array-valued: an array of k points
        # gives a (k, n, n) stack, one point one (n, n) matrix.
        self.oracle_section = oracle_section

    def generator(self, x: float) -> np.ndarray:
        return np.asarray(self._generator(x), dtype=float)

    def generators_along(self, xs: np.ndarray) -> np.ndarray:
        if self._generator_batch is not None:
            gens = self._generator_batch(xs)
        else:
            gens = [self.generator(x) for x in xs]
        return np.reshape(np.asarray(gens, dtype=float),
                          (len(xs), self.dim, self.dim))


@dataclass
class MatrixProductReport:
    product: np.ndarray
    max_norm: float
    max_inv_norm: float
    max_condition: float


def matrix_products(c: MatrixCocycle, x: float, k: int) -> MatrixProductReport:
    """Left product A(T^{k-1} x) ... A(x), with the maxima of the norm, the
    inverse norm and the condition number over the products of steps
    1..k (of the identity alone when k = 0), from one stacked SVD.

    Products are left raw (no re-orthogonalization): drift and
    conditioning of the raw products are themselves diagnostics.
    """
    prods = orbit_products(c, x, k)
    sv = np.linalg.svd(prods[1:] if k else prods, compute_uv=False)
    smax, smin = sv[:, 0], sv[:, -1]
    singular = smin <= 0.0
    if singular.any():
        raise SingularMatrix(
            f"product singular at step {int(np.argmax(singular)) + 1}"
        )
    return MatrixProductReport(
        prods[-1].copy(), float(smax.max()), float((1.0 / smin).max()),
        float((smax / smin).max()),
    )


# -- shift cocycles ----------------------------------------------------------

@dataclass
class ShiftCocycle:
    """Coordinate-shift linear part with finitely supported translation data.

    ``rho_coords[j]`` is the trig-poly coordinate function rho_j; support
    is {0..J} in the one-sided case and {-J..J} in the two-sided case.
    ``truncation`` is the coordinate window used by the solvers.
    """

    base: object
    rho_coords: dict[int, TrigPoly] = field(default_factory=dict)
    bilateral: bool = False
    truncation: int = 8

    def __post_init__(self):
        self.rho_coords = {int(j): p for j, p in self.rho_coords.items()}
        if not self.bilateral and any(j < 0 for j in self.rho_coords):
            raise ConfigInvalid("one-sided data cannot carry negative indices")

    @property
    def support_level(self) -> int:
        return max((abs(j) for j in self.rho_coords), default=0)

    def require_truncation(self):
        if self.truncation < self.support_level:
            raise TruncationTooSmall(
                f"truncation {self.truncation} < support level "
                f"{self.support_level}"
            )

    def rho_at(self, j: int, x) -> complex:
        poly = self.rho_coords.get(j)
        if poly is None:
            return 0.0 + 0.0j
        return poly(x)


def shift_twisted_sum(c: ShiftCocycle, y: float, n: int):
    """Coordinates of I(n, y) 0 for the shift skew action.

    Evaluates  sum_{r<n} (shift^r rho)(T^{n-r-1} y)  coordinate by
    coordinate; exact up to rounding, no truncation of the result.
    Returns (offset, coords) with coords[i] the coordinate offset + i.
    """
    lo = -c.support_level if c.bilateral else 0
    hi = c.support_level + max(n, 1)
    coords = np.zeros(hi - lo, dtype=complex)
    # Term r is evaluated at T^{n-r-1} y: the orbit of y, reversed.
    points = c.base.orbit(y, n)[::-1]
    for j, poly in c.rho_coords.items():
        coords[j - lo:j - lo + n] += poly(points)
    return lo, coords
