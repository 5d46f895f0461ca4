"""Geometry of the cone Pos(n) of positive-definite symmetric matrices.

Pos(n) carries the affine-invariant metric

    d(P, Q) = || log(P^{-1/2} Q P^{-1/2}) ||_F,

which is invariant under the congruence action  g . P = g P g^T  of
GL(n, R) and makes Pos(n) a complete, nonpositively curved space.  The
det = 1 slice Conf(n) is totally geodesic; GL(n, R) acts on it through
the normalized congruence  g . P = (det g^T g)^{-1/n} g P g^T.

For n >= 3 the spectral work is LAPACK's, through ``numpy.linalg``:
:func:`sym_eigen` is ``eigh``, a positivity test is one Cholesky
factorization, and a distance scan whitens its whole batch by the Cholesky
factor L of the reference point and takes the eigenvalues of every
L^{-1} Q L^{-T} in one stacked ``eigvalsh``.  For n = 2 closed forms are
faster than a LAPACK call: one exact Jacobi rotation diagonalizes, and the
distance scans take the eigenvalues of the whitened 2x2 matrix directly.
Supported dimensions are 2 <= n <= 8.  Non-finite input raises
:class:`~cocyclelab.errors.NonFinite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitDeterminant,
    SingularMatrix,
)

SYMMETRY_TOL = 1e-12
UNIT_DET_TOL = 1e-10
SINGULAR_TOL = 1e-12
MIN_DIM = 2
MAX_DIM = 8
# Pairs per slice of the 2x2 pairwise kernel.  The slice's temporaries stay
# in cache: on 300 points this ran ~1.5x faster than one pass over all
# pairs and cut peak memory from 7.6 MB to 1.7 MB.
PAIR_CHUNK = 4096


def symmetry_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def require_square(a: np.ndarray, *, check_dim: bool = True) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if check_dim and not (MIN_DIM <= a.shape[0] <= MAX_DIM):
        raise DimensionMismatch(
            f"dimension {a.shape[0]} outside supported range "
            f"[{MIN_DIM}, {MAX_DIM}]"
        )
    return a


def require_symmetric(a: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    a = require_square(a)
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix has non-finite entries")
    defect = symmetry_defect(a)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if defect > tol * scale:
        raise NotSymmetric(f"symmetry defect {defect:.3e} exceeds {tol:g}")
    return symmetrize(a)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization P = rotation @ diag(values) @ rotation.T.

    ``values`` are sorted in descending order; ``rotation`` is orthogonal
    with the matching eigenvector columns.
    """

    values: np.ndarray
    rotation: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.rotation @ np.diag(self.values) @ self.rotation.T


def sym_eigen(P: np.ndarray) -> EigenDecomposition:
    """Diagonalize a symmetric matrix; eigenvalues descend.

    n = 2 is one exact Jacobi rotation, n >= 3 is LAPACK ``eigh``.  Each
    eigenvector is signed so that its largest-magnitude entry is positive,
    which makes the output a deterministic function of the input.
    """
    A = require_symmetric(P)
    if A.shape[0] == 2:
        l1, l2, c0, s0 = _eig_2x2_scalars(A[0, 0], A[0, 1], A[1, 1])
        values = np.array([l1, l2])
        Q = np.array([[c0, s0], [-s0, c0]])
    else:
        values, Q = np.linalg.eigh(A)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    Q = Q[:, order]
    # Canonical sign: largest-magnitude entry of each eigenvector positive.
    for j in range(Q.shape[1]):
        k = int(np.argmax(np.abs(Q[:, j])))
        if Q[k, j] < 0:
            Q[:, j] = -Q[:, j]
    return EigenDecomposition(values=values, rotation=Q)


def _cholesky(P: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a finite symmetric matrix; it exists
    exactly when the matrix is positive definite."""
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{what} is not positive definite") from None


def require_spd(P: np.ndarray) -> np.ndarray:
    P = require_symmetric(P)
    _cholesky(P, "matrix")
    return P


def _spectral(eig: EigenDecomposition, fn) -> np.ndarray:
    return symmetrize(eig.rotation @ (fn(eig.values)[:, None] * eig.rotation.T))


def spd_log(P: np.ndarray) -> np.ndarray:
    """Matrix logarithm Pos(n) -> Sym(n); inverse of :func:`spd_exp`."""
    eig = sym_eigen(P)
    if eig.values[-1] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {eig.values[-1]:.3e} <= 0")
    return _spectral(eig, np.log)


def spd_exp(S: np.ndarray) -> np.ndarray:
    """Matrix exponential Sym(n) -> Pos(n)."""
    return _spectral(sym_eigen(S), np.exp)


def spd_sqrt(P: np.ndarray) -> np.ndarray:
    eig = sym_eigen(P)
    if eig.values[-1] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {eig.values[-1]:.3e} <= 0")
    return _spectral(eig, np.sqrt)


def spd_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Affine-invariant distance: Frobenius norm of log(P^{-1/2} Q P^{-1/2})."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise DimensionMismatch(f"shapes {P.shape} and {Q.shape} differ")
    # The 2x2 scan reads only upper triangles, so both are checked whole here.
    P = require_symmetric(P)
    Q = require_symmetric(Q)
    return float(_distances_from(P, Q[np.newaxis])[0])


def _eig_2x2_scalars(a: float, b: float, c: float):
    if b == 0.0:
        return a, c, 1.0, 0.0
    tau = (c - a) / (2.0 * b)
    if tau >= 0.0:
        t = 1.0 / (tau + (1.0 + tau * tau) ** 0.5)
    else:
        t = -1.0 / (-tau + (1.0 + tau * tau) ** 0.5)
    c0 = 1.0 / (1.0 + t * t) ** 0.5
    return a - t * b, c + t * b, c0, t * c0


def _spectral_2x2(a, b, c, fn):
    # fn applied to the eigenvalues of [[a, b], [b, c]]; rebuilt in place.
    l1, l2, c0, s0 = _eig_2x2_scalars(a, b, c)
    f1, f2 = fn(l1), fn(l2)
    return (
        f1 * c0 * c0 + f2 * s0 * s0,
        (f2 - f1) * c0 * s0,
        f1 * s0 * s0 + f2 * c0 * c0,
    )


def _geodesic_2x2(P: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    pa, pb, pc = P[0, 0], 0.5 * (P[0, 1] + P[1, 0]), P[1, 1]
    qa, qb, qc = Q[0, 0], 0.5 * (Q[0, 1] + Q[1, 0]), Q[1, 1]
    if not math.isfinite(pa + pb + pc + qa + qb + qc):
        raise NonFinite("geodesic endpoint has non-finite entries")
    if pa * pc - pb * pb <= 0.0 or pa <= 0.0:
        raise NotPositiveDefinite("geodesic endpoint is not positive definite")
    ra, rb, rc = _spectral_2x2(pa, pb, pc, lambda v: v ** -0.5)
    # inner = rp @ Q @ rp with rp = [[ra, rb], [rb, rc]] symmetric.
    m00 = ra * qa + rb * qb
    m01 = ra * qb + rb * qc
    m10 = rb * qa + rc * qb
    m11 = rb * qb + rc * qc
    ia = m00 * ra + m01 * rb
    ib = m00 * rb + m01 * rc
    ic = m10 * rb + m11 * rc
    ib = 0.5 * (ib + (m10 * ra + m11 * rb))
    if ia * ic - ib * ib <= 0.0 or ia <= 0.0:
        raise NotPositiveDefinite("geodesic endpoint is not positive definite")
    ma, mb, mc = _spectral_2x2(ia, ib, ic, lambda v: v ** t)
    sa, sb, sc = _spectral_2x2(pa, pb, pc, lambda v: v ** 0.5)
    n00 = sa * ma + sb * mb
    n01 = sa * mb + sb * mc
    n10 = sb * ma + sc * mb
    n11 = sb * mb + sc * mc
    ga = n00 * sa + n01 * sb
    gb = 0.5 * ((n00 * sb + n01 * sc) + (n10 * sa + n11 * sb))
    gc = n10 * sb + n11 * sc
    return np.array([[ga, gb], [gb, gc]])


def spd_geodesic(P: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    """Point P^{1/2} (P^{-1/2} Q P^{-1/2})^t P^{1/2} on the geodesic P -> Q."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise DimensionMismatch(f"shapes {P.shape} and {Q.shape} differ")
    if P.shape[0] == 2:
        return _geodesic_2x2(P, Q, t)
    eigp = sym_eigen(P)
    if eigp.values[-1] <= 0.0:
        raise NotPositiveDefinite("geodesic endpoint is not positive definite")
    sp = _spectral(eigp, np.sqrt)
    rp = _spectral(eigp, lambda v: 1.0 / np.sqrt(v))
    inner = sym_eigen(symmetrize(rp @ Q @ rp))
    if inner.values[-1] <= 0.0:
        raise NotPositiveDefinite("geodesic endpoint is not positive definite")
    mid = _spectral(inner, lambda v: np.power(v, t))
    return symmetrize(sp @ mid @ sp)


def gl_action(g: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Congruence action g . P = g P g^T; an isometry of Pos(n)."""
    g = require_square(g)
    P = np.asarray(P, dtype=float)
    if g.shape != P.shape:
        raise DimensionMismatch(f"shapes {g.shape} and {P.shape} differ")
    if abs(np.linalg.det(g)) <= SINGULAR_TOL:
        raise SingularMatrix("|det g| below invertibility tolerance")
    return symmetrize(g @ P @ g.T)


def conf_normalizer(A: np.ndarray) -> float:
    """Scalar (det A^T A)^{-1/2n} making |det(lambda A)| = 1."""
    A = require_square(A)
    n = A.shape[0]
    det = np.linalg.det(A.T @ A)
    if det <= SINGULAR_TOL ** 2:
        raise SingularMatrix("det A^T A below invertibility tolerance")
    return float(det ** (-1.0 / (2.0 * n)))


def conf_action(g: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Normalized congruence g . P = (det g^T g)^{-1/n} g P g^T on Conf(n).

    The result is renormalized to determinant one to suppress drift.
    """
    P = require_unit_determinant(P)
    lam = conf_normalizer(g)
    out = symmetrize((lam * lam) * (g @ P @ g.T))
    return _renormalize_det(out)


def require_unit_determinant(P: np.ndarray, tol: float = UNIT_DET_TOL) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    det = np.linalg.det(P)
    if abs(det - 1.0) > tol:
        raise NotUnitDeterminant(f"|det P - 1| = {abs(det - 1.0):.3e} > {tol:g}")
    return P


def _renormalize_det(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    det = np.linalg.det(P)
    if det <= 0.0:
        raise NotPositiveDefinite("determinant lost positivity")
    return P / det ** (1.0 / n)


def unit_determinant(P: np.ndarray) -> np.ndarray:
    """Project an SPD matrix onto the det = 1 slice."""
    return _renormalize_det(require_spd(P))


def quasiconformal_distortion(A: np.ndarray) -> float:
    """Operator-norm condition number ||A|| * ||A^{-1}||; 1 iff conformal."""
    A = require_square(A)
    if abs(np.linalg.det(A)) <= SINGULAR_TOL:
        raise SingularMatrix("|det A| below invertibility tolerance")
    sv = sym_eigen(symmetrize(A.T @ A)).values
    return float(np.sqrt(sv[0] / sv[-1]))


# -- batched kernels ---------------------------------------------------------
#
# The center searches scan distances from one candidate point to every
# sample of a fiber.  Each scan whitens by the Cholesky factor L of the
# candidate P: the eigenvalues of P^{-1} Q are those of L^{-1} Q L^{-T}.

def _entry_error(what: str, *entries) -> Exception:
    """The error for a matrix that failed a positivity test."""
    if all(np.all(np.isfinite(e)) for e in entries):
        return NotPositiveDefinite(f"{what} is not positive definite")
    return NonFinite(f"{what} has non-finite entries")


def _distance_2x2(a, b, c, qa, qb, qc) -> np.ndarray:
    """d(P, Q) for P = [[a, b], [b, c]], already checked positive definite,
    and Q = [[qa, qb], [qb, qc]], elementwise over broadcast arrays.

    M = L^{-1} Q L^{-T} = [[m00, f/2], [f/2, m11]] has the eigenvalues
    ((m00 + m11) +- sqrt((m00 - m11)^2 + f^2)) / 2, and the smaller is
    taken as det Q / (det P * larger).  Neither step subtracts nearly
    equal numbers, so rounding moves the distance by ~1e-16 even when P
    and Q nearly coincide; the root of tr^2 - 4 det moves it by ~1e-8.
    """
    det_p = a * c - b * b
    r = b / a
    x = qb - r * qa
    m00 = qa / a
    m11 = (qc - r * (qb + x)) * (a / det_p)
    f = x * (2.0 / np.sqrt(det_p))
    e = m00 - m11
    lam1 = 0.5 * ((m00 + m11) + np.sqrt(e * e + f * f))
    lam2 = (qa * qc - qb * qb) / (det_p * lam1)
    # lam2 is the smaller eigenvalue of M, so it is positive exactly when
    # Q is positive definite; a NaN fails the test as well.
    positive = lam2 > 0.0
    if not np.all(positive):
        k = int(np.argmin(positive))
        raise _entry_error(f"batch entry {k}", qa[k], qb[k], qc[k])
    l1 = np.log(lam1)
    l2 = np.log(lam2)
    return np.sqrt(l1 * l1 + l2 * l2)


def _require_symmetric_batch(batch: np.ndarray) -> np.ndarray:
    """:func:`require_symmetric` for every entry of a (m, n, n) batch."""
    finite = np.all(np.isfinite(batch), axis=(1, 2))
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise NonFinite(f"batch entry {k} has non-finite entries")
    flipped = batch.transpose(0, 2, 1)
    defect = np.max(np.abs(batch - flipped), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(batch), axis=(1, 2)))
    asymmetric = defect > SYMMETRY_TOL * scale
    if np.any(asymmetric):
        k = int(np.argmax(asymmetric))
        raise NotSymmetric(
            f"batch entry {k}: symmetry defect {defect[k]:.3e} "
            f"exceeds {SYMMETRY_TOL:g}"
        )
    return 0.5 * (batch + flipped)


def _whitened_distances(L: np.ndarray, batch: np.ndarray,
                        first: int = 0) -> np.ndarray:
    """Distances from L L^T to every entry of a checked symmetric batch,
    whose entry k is called ``first + k`` in errors."""
    w = np.linalg.inv(L)
    lam = np.linalg.eigvalsh(w @ batch @ w.T)
    positive = lam[:, 0] > 0.0
    if not np.all(positive):
        k = first + int(np.argmin(positive))
        raise NotPositiveDefinite(f"batch entry {k} is not positive definite")
    logs = np.log(lam)
    return np.sqrt(np.sum(logs * logs, axis=1))


def _distances_from(P: np.ndarray, batch: np.ndarray) -> np.ndarray:
    if P.shape[0] == 2:
        # Only the entries the closed form reads are checked, to keep the
        # hot 2x2 scan to array arithmetic.
        a, b, c = P[0, 0], P[0, 1], P[1, 1]
        if not (a > 0.0 and a * c - b * b > 0.0 and math.isfinite(a + b + c)):
            raise _entry_error("reference point", a, b, c)
        return _distance_2x2(a, b, c, batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 1])
    L = _cholesky(require_symmetric(P), "reference point")
    return _whitened_distances(L, _require_symmetric_batch(batch))


def spd_distances_from(P: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Distances from ``P`` to every matrix of a (m, n, n) batch."""
    P = require_square(P)
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 3 or batch.shape[1:] != P.shape:
        raise DimensionMismatch(
            f"batch shape {batch.shape} incompatible with point {P.shape}"
        )
    return _distances_from(P, batch)


def pairwise_spd_distances(batch: np.ndarray) -> np.ndarray:
    """Condensed upper-triangle distances of a batch; empty for m < 2."""
    batch = np.asarray(batch, dtype=float)
    m = batch.shape[0]
    if m < 2:
        return np.zeros(0)
    if batch.ndim != 3 or batch.shape[1] != batch.shape[2]:
        raise DimensionMismatch(f"expected a (m, n, n) batch, got {batch.shape}")
    if batch.shape[1] == 2:
        a = batch[:, 0, 0]
        b = batch[:, 0, 1]
        c = batch[:, 1, 1]
        positive = (a > 0.0) & (a * c - b * b > 0.0) & np.isfinite(a + b + c)
        if not np.all(positive):
            k = int(np.argmin(positive))
            raise _entry_error(f"batch entry {k}", a[k], b[k], c[k])
        iu, ju = np.triu_indices(m, k=1)
        out = np.empty(len(iu))
        for lo in range(0, len(iu), PAIR_CHUNK):
            i = iu[lo:lo + PAIR_CHUNK]
            j = ju[lo:lo + PAIR_CHUNK]
            out[lo:lo + PAIR_CHUNK] = _distance_2x2(a[i], b[i], c[i], a[j], b[j], c[j])
        return out
    batch = _require_symmetric_batch(batch)
    return np.concatenate([
        _whitened_distances(
            _cholesky(batch[i], f"batch entry {i}"), batch[i + 1:], first=i + 1
        )
        for i in range(m - 1)
    ])
