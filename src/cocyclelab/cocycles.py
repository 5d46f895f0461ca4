"""Cocycles of affine isometries and matrix cocycles over a circle base.

A generator map x -> (Psi(x), rho(x)) induces the skew action

    (x, v)  ->  (T x, Psi(x) v + rho(x)),

whose k-th iterate applies the composition I(k, x) of generators along
the orbit.  The translation part of I(k, x) is the twisted Birkhoff sum

    S_k(rho)(x) = sum_i Psi(T^{k-1} x) ... Psi(T^{i+1} x) rho(T^i x).

Matrix cocycles x -> A(x) in GL(n) iterate by plain products; shift
cocycles carry finitely supported coordinate data over the one-sided or
two-sided coordinate shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import return_times
from .errors import ConfigInvalid, NotOrthogonal, SingularMatrix, TruncationTooSmall
from .trigpoly import TrigPoly

ORTHOGONALITY_TOL = 1e-10
REORTHONORMALIZE_EVERY = 10 ** 4
ITERATION_CAP = 10 ** 7


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
    """Orthonormalize the columns of a near-orthogonal matrix."""
    Q = np.array(M, dtype=float)
    for j in range(Q.shape[1]):
        for i in range(j):
            Q[:, j] -= (Q[:, i] @ Q[:, j]) * Q[:, i]
        Q[:, j] /= np.linalg.norm(Q[:, j])
    return Q


def polar_orthogonal(M: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor M (M^T M)^{-1/2}."""
    u, _, vt = np.linalg.svd(np.asarray(M, dtype=float))
    return u @ vt


class GridIsometryTable:
    """Generator table on a uniform grid of the circle.

    The linear part uses the nearest sample re-projected onto the
    orthogonal group; the translation part interpolates linearly between
    neighbours.  Adjacent samples must differ by at most
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

    def linear_at(self, x: float) -> np.ndarray:
        i = int(np.floor((x % 1.0) * self.size + 0.5)) % self.size
        return polar_orthogonal(self.linears[i])

    def translation_at(self, x: float) -> np.ndarray:
        pos = (x % 1.0) * self.size
        i = int(np.floor(pos)) % self.size
        frac = pos - np.floor(pos)
        j = (i + 1) % self.size
        return (1.0 - frac) * self.translations[i] + frac * self.translations[j]


class IsometryCocycle:
    """Skew action data: a base map plus a generator x -> FiniteIsometry."""

    def __init__(self, base, dim: int, *, linear_fn=None, translation_fn=None,
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
        self._linear_fn = linear_fn
        self._translation_fn = translation_fn
        self._translation_batch_fn = translation_batch_fn
        if constant_linear is None and linear_fn is None:
            raise ConfigInvalid("need a linear part (constant or function)")
        if translation_fn is None and translation_batch_fn is None:
            raise ConfigInvalid("need a translation part")

    @classmethod
    def from_table(cls, base, table: GridIsometryTable) -> "IsometryCocycle":
        return cls(
            base,
            table.translations.shape[1],
            linear_fn=table.linear_at,
            translation_fn=table.translation_at,
        )

    def linear_at(self, x: float) -> np.ndarray:
        if self.constant_linear is not None:
            return self.constant_linear
        return self._linear_fn(x)

    def translation_at(self, x: float) -> np.ndarray:
        if self._translation_fn is not None:
            return np.asarray(self._translation_fn(x), dtype=float)
        return self._translation_batch_fn(np.array([x]))[0]

    def translations_along(self, xs: np.ndarray) -> np.ndarray:
        if self._translation_batch_fn is not None:
            return np.asarray(self._translation_batch_fn(xs), dtype=float)
        return np.array([self.translation_at(x) for x in xs], dtype=float)

    def generator(self, x: float) -> FiniteIsometry:
        return FiniteIsometry(self.linear_at(x), self.translation_at(x))

    def identity_linear(self) -> bool:
        return (self.constant_linear is not None
                and np.array_equal(self.constant_linear, np.eye(self.dim)))


def _check_iteration_count(k: int):
    if k > ITERATION_CAP:
        raise ConfigInvalid(f"iteration count {k} exceeds {ITERATION_CAP}")


def iterate_skew(c: IsometryCocycle, x: float, v: np.ndarray, k: int):
    """k-th image of (x, v) under the skew action; returns (T^k x, I(k,x) v)."""
    _check_iteration_count(k)
    v = np.asarray(v, dtype=float).copy()
    if k == 0:
        return x, v
    xs = c.base.orbit(x, k)
    rhos = c.translations_along(xs)
    if c.identity_linear():
        return c.base.step_n(x, k), v + rhos.sum(axis=0)
    if c.constant_linear is not None:
        psi = c.constant_linear
        for j in range(k):
            v = psi @ v + rhos[j]
    else:
        for j in range(k):
            v = c.linear_at(xs[j]) @ v + rhos[j]
    return c.base.step_n(x, k), v


def twisted_birkhoff(c: IsometryCocycle, x: float, k: int) -> np.ndarray:
    """Twisted Birkhoff sum: the translation part of I(k, x), in one pass."""
    _check_iteration_count(k)
    return iterate_skew(c, x, np.zeros(c.dim), k)[1]


def compose_along_orbit(c: IsometryCocycle, x: float, k: int,
                        *, reorthonormalize_every: int = REORTHONORMALIZE_EVERY
                        ) -> FiniteIsometry:
    """Full isometry I(k, x), with periodic re-orthonormalization of the
    accumulated linear part to control drift along long products."""
    _check_iteration_count(k)
    lin = np.eye(c.dim)
    tr = np.zeros(c.dim)
    if k == 0:
        return FiniteIsometry(lin, tr)
    xs = c.base.orbit(x, k)
    rhos = c.translations_along(xs)
    for j in range(k):
        psi = c.linear_at(xs[j])
        lin = psi @ lin
        tr = psi @ tr + rhos[j]
        if (j + 1) % reorthonormalize_every == 0:
            lin = gram_schmidt(lin)
    lin = gram_schmidt(lin)
    return FiniteIsometry(lin, tr)


@dataclass
class ProbeReport:
    sup_norm: float
    argmax_k: int
    growth_slope: float


def boundedness_probe(c: IsometryCocycle, x0: float, v0: np.ndarray,
                      n: int) -> ProbeReport:
    """Track sup_k ||I(k, x0) v0|| for k <= n.

    The slope is a least-squares fit of the running maximum against log k
    — a growth diagnostic only, not a boundedness verdict.
    """
    _check_iteration_count(n)
    v0 = np.asarray(v0, dtype=float)
    xs = c.base.orbit(x0, n)
    rhos = c.translations_along(xs)
    norms = np.empty(n + 1)
    norms[0] = np.linalg.norm(v0)
    if c.identity_linear():
        traj = v0[np.newaxis, :] + np.cumsum(rhos, axis=0)
        norms[1:] = np.sqrt(np.sum(traj * traj, axis=1))
    else:
        v = v0.copy()
        constant = c.constant_linear
        for j in range(n):
            psi = constant if constant is not None else c.linear_at(xs[j])
            v = psi @ v + rhos[j]
            norms[j + 1] = np.linalg.norm(v)
    running = np.maximum.accumulate(norms)
    ks = np.arange(1, n + 1)
    slope = float(np.polyfit(np.log(ks), running[1:], 1)[0])
    argmax = int(np.argmax(norms))
    return ProbeReport(
        sup_norm=float(norms[argmax]), argmax_k=argmax, growth_slope=slope
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
    k_max = int(ks[-1])
    wanted = set(int(k) for k in ks)
    out = []
    lin = np.eye(c.dim)
    tr = np.zeros(c.dim)
    xs = c.base.orbit(x, k_max)
    rhos = c.translations_along(xs)
    for j in range(k_max):
        psi = c.linear_at(xs[j])
        lin = psi @ lin
        tr = psi @ tr + rhos[j]
        if (j + 1) % REORTHONORMALIZE_EVERY == 0:
            lin = gram_schmidt(lin)
        if (j + 1) in wanted:
            out.append((j + 1, FiniteIsometry(gram_schmidt(lin), tr.copy())))
    return out


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
        # for oracle comparisons.
        self.oracle_section = oracle_section

    def generator(self, x: float) -> np.ndarray:
        return np.asarray(self._generator(x), dtype=float)

    def generators_along(self, xs: np.ndarray) -> np.ndarray:
        if self._generator_batch is not None:
            return np.asarray(self._generator_batch(xs), dtype=float)
        return np.array([self.generator(x) for x in xs], dtype=float)


def _opnorms_2x2(m00, m01, m10, m11):
    e = m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11
    det = m00 * m11 - m01 * m10
    disc = max(e * e - 4.0 * det * det, 0.0) ** 0.5
    smax = ((e + disc) / 2.0) ** 0.5
    if smax == 0.0:
        raise SingularMatrix("zero matrix in product")
    smin = abs(det) / smax
    return smax, smin


@dataclass
class MatrixProductReport:
    product: np.ndarray
    max_norm: float
    max_inv_norm: float
    max_condition: float


def matrix_products(c: MatrixCocycle, x: float, k: int) -> MatrixProductReport:
    """Left product A(T^{k-1} x) ... A(x) with running norm extrema.

    Products are left raw (no re-orthogonalization): drift and
    conditioning of the raw products are themselves diagnostics.
    """
    _check_iteration_count(k)
    n = c.dim
    if k == 0:
        return MatrixProductReport(np.eye(n), 1.0, 1.0, 1.0)
    xs = c.base.orbit(x, k)
    gens = c.generators_along(xs)
    max_norm = 0.0
    max_inv = 0.0
    max_cond = 1.0
    if n == 2:
        p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
        for j in range(k):
            a = gens[j]
            a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
            p00, p01, p10, p11 = (
                a00 * p00 + a01 * p10,
                a00 * p01 + a01 * p11,
                a10 * p00 + a11 * p10,
                a10 * p01 + a11 * p11,
            )
            smax, smin = _opnorms_2x2(p00, p01, p10, p11)
            if smin <= 0.0:
                raise SingularMatrix(f"product singular at step {j + 1}")
            max_norm = max(max_norm, smax)
            max_inv = max(max_inv, 1.0 / smin)
            max_cond = max(max_cond, smax / smin)
        product = np.array([[p00, p01], [p10, p11]])
    else:
        product = np.eye(n)
        for j in range(k):
            product = gens[j] @ product
            sv = np.linalg.svd(product, compute_uv=False)
            if sv[-1] <= 0.0:
                raise SingularMatrix(f"product singular at step {j + 1}")
            max_norm = max(max_norm, float(sv[0]))
            max_inv = max(max_inv, float(1.0 / sv[-1]))
            max_cond = max(max_cond, float(sv[0] / sv[-1]))
    return MatrixProductReport(product, max_norm, max_inv, max_cond)


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
    points = [c.base.step_n(y, n - r - 1) for r in range(n)]
    for r in range(n):
        z = points[r]
        for j, poly in c.rho_coords.items():
            coords[j + r - lo] += poly(z)
    return lo, coords
