"""Exact references the benchmark checks the program against.

Nothing here imports ``cocyclelab``: the distance, the exact sections and
the closed forms are computed from their definitions with NumPy's LAPACK
routines, so a fault in the program's own kernels cannot hide in them.
"""

from __future__ import annotations

import numpy as np

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0


# -- Pos(n) -------------------------------------------------------------------

def spd_distances(p: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Affine-invariant distances d(p, q) = ||log(p^{-1/2} q p^{-1/2})||_F.

    ``p`` is one matrix (n, n) or a stack (m, n, n) paired with ``qs``;
    ``qs`` is a stack (m, n, n).  The eigenvalues of p^{-1/2} q p^{-1/2}
    are those of the Cholesky-whitened L^{-1} q L^{-T}, taken with
    ``np.linalg.eigvalsh``.
    """
    linv = np.linalg.inv(np.linalg.cholesky(np.asarray(p, dtype=float)))
    w = linv @ np.asarray(qs, dtype=float) @ np.swapaxes(linv, -1, -2)
    lam = np.linalg.eigvalsh(0.5 * (w + np.swapaxes(w, -1, -2)))
    logs = np.log(lam)
    return np.sqrt(np.sum(logs * logs, axis=-1))


def spd_pairwise_max(points: np.ndarray) -> float:
    """Diameter max_{j<k} d(P_j, P_k) of a stack of SPD matrices."""
    m = points.shape[0]
    if m < 2:
        return 0.0
    j, k = np.triu_indices(m, 1)
    linv = np.linalg.inv(np.linalg.cholesky(points))
    w = linv[j] @ points[k] @ np.swapaxes(linv, -1, -2)[j]
    logs = np.log(np.linalg.eigvalsh(w))
    return float(np.sqrt(np.max(np.sum(logs * logs, axis=-1))))


def sym_expm(s: np.ndarray, ts) -> np.ndarray:
    """exp(t S) for a symmetric S and every t of ``ts``: shape (len(ts), n, n)."""
    w, u = np.linalg.eigh(s)
    scaled = np.exp(np.multiply.outer(np.asarray(ts, dtype=float), w))
    return np.einsum("ij,kj,lj->kil", u, scaled, u)


class ExpSection:
    """Exact invariant section phi*(x) = B(x) B(x)^T = exp(2 sin(2 pi x) S0)
    of a coboundary built from B(x) = exp(sin(2 pi x) S0)."""

    def __init__(self, s0: np.ndarray):
        self.s0 = np.asarray(s0, dtype=float)

    def __call__(self, xs) -> np.ndarray:
        return sym_expm(self.s0, 2.0 * np.sin(2.0 * np.pi * np.asarray(xs, float)))


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues' rotation by ``angle`` about a unit ``axis`` of R^3."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_points(x0: float, ks, alpha: float = GOLDEN_MEAN) -> np.ndarray:
    """x0 + k alpha (mod 1) for every k of ``ks``, in extended precision."""
    ks = np.asarray(ks, dtype=np.longdouble)
    return np.mod(np.longdouble(x0) + ks * np.longdouble(alpha), 1.0).astype(float)


def rotation_orbit(x0: float, steps: int, alpha: float = GOLDEN_MEAN) -> np.ndarray:
    """x0, x0 + alpha, ..., x0 + (steps - 1) alpha (mod 1)."""
    return rotation_points(x0, np.arange(steps), alpha)


def cell_groups(xs: np.ndarray, cells: int) -> list[np.ndarray]:
    """Orbit indices falling into each uniform cell, in orbit order."""
    idx = np.minimum((xs * cells).astype(int), cells - 1)
    return [np.flatnonzero(idx == i) for i in range(cells)]


# -- twisted Birkhoff sums ------------------------------------------------------

def birkhoff_rotation_norms(ks, beta: float, alpha: float = GOLDEN_MEAN) -> np.ndarray:
    """|S_k| for rho(x) = e^{2 pi i x} and constant rotation by beta:
    S_k = e^{2 pi i x} e^{i beta (k-1)} sum_{j<k} z^j with z = e^{i(2 pi alpha - beta)},
    so |S_k| = |1 - z^k| / |1 - z| whatever the start point."""
    z = np.exp(1j * (2.0 * np.pi * alpha - beta))
    ks = np.asarray(ks, dtype=float)
    return np.abs(1.0 - z ** ks) / abs(1.0 - z)


def birkhoff_coboundary_norms(ks, x0: float, beta: float, coeffs: dict,
                              alpha: float = GOLDEN_MEAN) -> np.ndarray:
    """|S_k| for rho = phi o T - e^{i beta} phi: the sum telescopes to
    phi(x0 + k alpha) - e^{i k beta} phi(x0)."""
    ks = np.asarray(ks, dtype=float)
    phi_k = trig_eval(coeffs, rotation_points(x0, ks, alpha))
    phi_0 = trig_eval(coeffs, np.array([x0]))[0]
    return np.abs(phi_k - np.exp(1j * ks * beta) * phi_0)


def parabolic_step_n(x: float, ks) -> np.ndarray:
    """T^k x for the projective shear t -> t / (1 + t), t = tan(pi x)."""
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    return np.mod(np.arctan2(s, np.asarray(ks, float) * s + c) / np.pi, 1.0)


def birkhoff_cascade_norms(ks, x0: float) -> np.ndarray:
    """|S_k| for rho = psi - psi o T with psi(x) = x mod 1: the sum
    telescopes to psi(x0) - psi(T^k x0)."""
    return np.abs((x0 % 1.0) - parabolic_step_n(x0, ks))


def trig_eval(coeffs: dict, thetas) -> np.ndarray:
    """sum_n c_n e^{2 pi i n theta}."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros(thetas.shape, dtype=complex)
    for n, c in coeffs.items():
        out += c * np.exp(2j * np.pi * n * thetas)
    return out


def random_trig_coeffs(degree: int, rng: np.random.Generator,
                       amplitude: float = 1.0) -> dict:
    """Coefficients drawn in the order the program's ``TrigPoly.random``
    draws them, so the same generator state gives the same polynomial."""
    return {
        n: amplitude * complex(rng.standard_normal(), rng.standard_normal())
        for n in range(-degree, degree + 1)
    }


# -- twisted equation -----------------------------------------------------------

def fourier_single_mode(thetas, beta: float, alpha: float = GOLDEN_MEAN) -> np.ndarray:
    """Solution of phi(t + alpha) - e^{i beta} phi(t) = e^{2 pi i t}."""
    div = np.exp(2j * np.pi * alpha) - np.exp(1j * beta)
    return np.exp(2j * np.pi * np.asarray(thetas, float)) / div


def cyclotomic_single_mode(thetas, beta: float, q: int,
                           alpha: float = GOLDEN_MEAN) -> np.ndarray:
    """Solution of sum_{k<q} e^{i k beta/q} phi(t + (q-k-1) alpha/q) = e^{2 pi i t}.

    Substituting phi = c e^{2 pi i t} gives c sum_k e^{i k beta/q} w^{q-k-1}
    = 1 with w = e^{2 pi i alpha/q}; the geometric sum equals
    (w^q - e^{i beta}) / (w - e^{i beta/q}).
    """
    w = np.exp(2j * np.pi * alpha / q)
    c = (w - np.exp(1j * beta / q)) / (w ** q - np.exp(1j * beta))
    return c * np.exp(2j * np.pi * np.asarray(thetas, float))


def geometric_shift_coords(indices, ratio: float, levels: int) -> np.ndarray:
    """Coordinates of the shift solution for constant data rho_j = ratio^j,
    j <= levels: coordinate n >= 0 is sum_{m <= min(n, levels)} ratio^m,
    and 0 below the support."""
    n = np.asarray(indices)
    top = np.minimum(n, levels)
    out = (1.0 - ratio ** (top + 1)) / (1.0 - ratio)
    return np.where(n >= 0, out, 0.0)
