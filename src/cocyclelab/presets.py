"""Embedded experiment descriptors: named cocycles, equations and data
used by the CLI and the verification batteries, so standard runs need no
external files."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import GOLDEN_MEAN, ParabolicBase, RotationBase, base_from_descriptor
from .cocycles import IsometryCocycle, MatrixCocycle, ShiftCocycle
from .errors import ConfigInvalid, NonFinite
from .reduction import construct_coboundary
from .trigpoly import TrigPoly


def golden_rotation() -> RotationBase:
    return RotationBase(GOLDEN_MEAN)


def rotation_matrix(angle: float) -> np.ndarray:
    if not np.isfinite(angle):
        raise NonFinite(f"rotation angle {angle!r} is not finite")
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# -- matrix-cocycle presets ----------------------------------------------------

# Fixed symmetric direction of the conjugacy loop, scaled to a requested
# Frobenius norm.  The traceless variant keeps det B = 1 for the det-1 slice.
_S0_RAW = np.array([[0.8, 0.45], [0.45, -0.35]])
_S0_RAW_TRACELESS = np.array([[0.6, 0.5], [0.5, -0.6]])


def conjugacy_direction(norm: float = 0.7, traceless: bool = False) -> np.ndarray:
    raw = _S0_RAW_TRACELESS if traceless else _S0_RAW
    return raw * (norm / np.linalg.norm(raw))


def _exp_family(s0: np.ndarray):
    """x -> exp(sin(2 pi x) * s0) plus its vectorized form.

    B(x) = sum_k exp(sin(2 pi x) d_k) u_k u_k^T over the spectral
    projectors of s0, which do not depend on the signs ``eigh`` gives the
    u_k: a stack of m points is one (m, n) @ (n, n(n+1)/2) product onto
    the projectors' upper triangles, mirrored, so every B(x) is symmetric
    bit for bit."""
    d, u = np.linalg.eigh(s0)
    n = len(d)
    rows, cols = np.triu_indices(n)
    projectors = u[rows].T * u[cols].T
    mirror = np.empty((n, n), dtype=int)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(len(rows))
    mirror = mirror.ravel()

    def batch(xs: np.ndarray) -> np.ndarray:
        s = np.sin(2.0 * np.pi * np.asarray(xs, dtype=float))
        # [:, mirror] returns entry-major memory: each B[:, i, j] is
        # contiguous, which the 2x2 closed forms of spd.inv read fastest.
        # generators_along(38,400) ran ~1.5 ms faster than with np.take.
        return (np.exp(np.outer(s, d)) @ projectors)[:, mirror].reshape(-1, n, n)

    def single(x: float) -> np.ndarray:
        return batch([x])[0]

    return single, batch


def _rotation_family(winding: int):
    def single(x: float) -> np.ndarray:
        return rotation_matrix(2.0 * np.pi * winding * x)

    def batch(xs: np.ndarray) -> np.ndarray:
        ang = 2.0 * np.pi * winding * np.asarray(xs, dtype=float)
        c, s = np.cos(ang), np.sin(ang)
        out = np.empty((len(ang), 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        return out

    return single, batch


def coboundary_cocycle(base=None, *, s0_norm: float = 0.7,
                       winding: int = 1) -> MatrixCocycle:
    """Bounded GL(2) cocycle manufactured from a known conjugacy:
    A(x) = B(x + alpha) Q(x) B(x)^{-1} with B(x) = exp(sin(2 pi x) S0)."""
    base = base or golden_rotation()
    b_single, b_batch = _exp_family(conjugacy_direction(s0_norm))
    q_single, q_batch = _rotation_family(winding)
    return construct_coboundary(
        b_single, q_single, base, dim=2, b_batch=b_batch, q_batch=q_batch
    )


def conformal_coboundary_cocycle(base=None, *, s0_norm: float = 0.7,
                                 winding: int = 1,
                                 scalar_amplitude: float = 0.3) -> MatrixCocycle:
    """Coboundary with det B = 1 and a positive scalar factor c(x);
    the det-normalized pipeline must absorb the scalar exactly."""
    base = base or golden_rotation()
    b_single, b_batch = _exp_family(conjugacy_direction(s0_norm, traceless=True))
    q_single, q_batch = _rotation_family(winding)

    def scalar(xs):
        return np.exp(scalar_amplitude * np.cos(2.0 * np.pi * np.asarray(xs, float)))

    return construct_coboundary(
        b_single, q_single, base, dim=2, b_batch=b_batch, q_batch=q_batch,
        scalar_gen=scalar,
    )


def scalar_orthogonal_cocycle(base=None, *, amplitude: float = 0.4,
                              winding: int = 1) -> MatrixCocycle:
    """A(x) = c(x) Q(x): conformal at every point, nontrivial in GL(2)."""
    base = base or golden_rotation()
    _, q_batch = _rotation_family(winding)

    def generators(xs):
        xs = np.asarray(xs, dtype=float)
        scal = np.exp(amplitude * np.cos(2.0 * np.pi * xs))
        return scal[:, None, None] * q_batch(xs)

    return MatrixCocycle(
        base, 2, generators,
        oracle_section=lambda x: np.tile(np.eye(2), np.shape(x) + (1, 1)),
    )


# -- isometry-cocycle presets --------------------------------------------------

def rotation_translation_cocycle(base, beta: float,
                                 rho_poly: TrigPoly) -> IsometryCocycle:
    """Planar isometries with constant rotation by ``beta`` radians and
    translation part (Re rho, Im rho)."""

    def translation_batch(xs):
        vals = rho_poly(np.asarray(xs, dtype=float))
        return np.column_stack([vals.real, vals.imag])

    return IsometryCocycle(
        base, 2,
        constant_linear=rotation_matrix(beta),
        translation_batch_fn=translation_batch,
    )


def coboundary_isometry_cocycle(base, beta: float,
                                section_poly: TrigPoly) -> IsometryCocycle:
    """Cocycle whose translation part is rho = phi o T - Psi phi for the
    known bounded section phi; its skew orbits stay bounded."""
    tw = complex(*rotation_matrix(beta)[:, 0])
    rho_poly = section_poly.shift(getattr(base, "alpha")) - section_poly.scale(tw)
    cocycle = rotation_translation_cocycle(base, beta, rho_poly)
    cocycle.known_section = section_poly
    return cocycle


@dataclass
class JumpCascade:
    """Bounded cascade over the parabolic circle map whose cohomological
    equation has no continuous solution.

    psi has a single unit jump at the fixed point; the generator
    translation rho = psi - psi o T is continuous because the forward
    orbit limits cancel the jump there.
    """

    base: ParabolicBase
    cocycle: IsometryCocycle
    jump: float
    sup_psi: float

    def psi(self, xs):
        return np.mod(np.asarray(xs, dtype=float), 1.0)

    def candidate_values(self, thetas):
        """Values of the discontinuous candidate solution (psi itself,
        up to sign and an additive constant)."""
        return self.psi(thetas).astype(complex)


def jump_cascade() -> JumpCascade:
    base = ParabolicBase()

    def translation_batch(xs):
        xs = np.asarray(xs, dtype=float)
        rho = np.mod(xs, 1.0) - base.step_many(xs)
        return rho[:, None]

    cocycle = IsometryCocycle(
        base, 1,
        constant_linear=np.eye(1),
        translation_batch_fn=translation_batch,
    )
    return JumpCascade(base=base, cocycle=cocycle, jump=1.0, sup_psi=1.0)


# -- shift-cocycle presets -------------------------------------------------------

def shift_single_mode(base=None, truncation: int = 24) -> ShiftCocycle:
    """rho_0(x) = e^{2 pi i x}, all other coordinates zero: the formal
    solution has unit-size coordinates at every level (not square-summable)."""
    base = base or golden_rotation()
    return ShiftCocycle(
        base=base,
        rho_coords={0: TrigPoly.single_mode(1)},
        truncation=truncation,
    )


def shift_geometric(base=None, truncation: int = 24, levels: int = 12,
                    ratio: float = 0.5) -> ShiftCocycle:
    """rho_j = ratio^j constants for j <= levels; coordinates of the
    solution obey the geometric bound sum_m ratio^m <= 1/(1 - ratio)."""
    base = base or golden_rotation()
    coords = {j: TrigPoly.constant(ratio ** j) for j in range(levels + 1)}
    return ShiftCocycle(base=base, rho_coords=coords, truncation=truncation)


def shift_compact_section(base=None, truncation: int = 24,
                          support: int = 3) -> ShiftCocycle:
    """One-sided data manufactured from a finitely supported section
    phi_j(x) = 2^{-j} e^{2 pi i x}: rho_j = phi_j o T - phi_{j-1}, so the
    shift equation has the compactly supported solution phi."""
    base = base or golden_rotation()
    alpha = getattr(base, "alpha")
    coords: dict[int, TrigPoly] = {}
    phi = {j: TrigPoly.single_mode(1, 0.5 ** j) for j in range(support + 1)}
    for j in range(support + 2):
        rho_j = TrigPoly.zero()
        if j in phi:
            rho_j = rho_j + phi[j].shift(alpha)
        if j - 1 in phi:
            rho_j = rho_j - phi[j - 1]
        if rho_j.coeffs:
            coords[j] = rho_j
    c = ShiftCocycle(base=base, rho_coords=coords, truncation=truncation)
    c.known_section = phi
    return c


# -- descriptor plumbing for the CLI -----------------------------------------

def parse_alpha(text) -> float:
    if text in ("golden", None):
        return GOLDEN_MEAN
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"alpha {text!r} is not a number") from exc


def rho_from_descriptor(desc, rng: np.random.Generator) -> TrigPoly:
    """single-mode | random:<degree> | constant:<value> | JSON text."""
    if desc in (None, "single-mode"):
        return TrigPoly.single_mode(1)
    try:
        if isinstance(desc, str) and desc.startswith("random:"):
            return TrigPoly.random(int(desc.split(":", 1)[1]), rng)
        if isinstance(desc, str) and desc.startswith("constant:"):
            return TrigPoly.constant(complex(desc.split(":", 1)[1]))
        if isinstance(desc, str) and desc.strip().startswith("{"):
            return TrigPoly.from_json(desc)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed trig-poly descriptor {desc!r}: {exc}") from exc
    raise ConfigInvalid(f"unknown trig-poly descriptor {desc!r}")


def matrix_cocycle_from_descriptor(desc: dict) -> MatrixCocycle:
    base = base_from_descriptor(desc.get("base", {"type": "rotation",
                                                  "alpha": "golden"}))
    kind = desc.get("preset", "coboundary")
    if kind == "coboundary":
        return coboundary_cocycle(base, s0_norm=desc.get("s0_norm", 0.7),
                                  winding=desc.get("winding", 1))
    if kind == "conformal-coboundary":
        return conformal_coboundary_cocycle(
            base, s0_norm=desc.get("s0_norm", 0.7),
            winding=desc.get("winding", 1),
            scalar_amplitude=desc.get("scalar_amplitude", 0.3),
        )
    if kind == "scalar-orthogonal":
        return scalar_orthogonal_cocycle(
            base, amplitude=desc.get("amplitude", 0.4),
            winding=desc.get("winding", 1),
        )
    raise ConfigInvalid(f"unknown matrix-cocycle preset {kind!r}")
