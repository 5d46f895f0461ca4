"""Geometry of the cone Pos(n) of positive-definite symmetric matrices.

Pos(n) carries the affine-invariant metric

    d(P, Q) = || log(P^{-1/2} Q P^{-1/2}) ||_F,

which is invariant under the congruence action  g . P = g P g^T  of
GL(n, R) and makes Pos(n) a complete, nonpositively curved space.  The
det = 1 slice Conf(n) is totally geodesic; GL(n, R) acts on it through
the normalized congruence  g . P = (det g^T g)^{-1/n} g P g^T.

Every eigendecomposition is LAPACK's, through ``numpy.linalg``: the
matrix functions log, exp and square root take one ``eigh`` for one
matrix or a whole stack, and a positivity test is one Cholesky
factorization.  For n >= 3 a distance scan whitens its whole batch by the
Cholesky factor L of the reference point and takes the eigenvalues of
every L^{-1} Q L^{-T} in one stacked ``eigvalsh``.
For n = 2 closed forms are faster than a LAPACK call: the eigenvalues
lam1 >= lam2 of the whitened 2x2 matrix, which give the distance, and by
Cayley-Hamilton the geodesic, an affine combination of its endpoints;
:func:`spd_sqrt`, :func:`det` (ad - bc) and :func:`inv` (the adjugate
over det), all elementwise over stacks.
The logarithm and exponential maps at a point, on one Cholesky
factorization of it (:class:`Whitening`), take a whole stack through one
stacked ``eigh`` at every n.  The congruence helpers, :func:`spd_sqrt`
and :func:`spd_distances_from` take a (k, n, n) stack where they take one
point, and :func:`spd_geodesic` and :class:`Whitening` paired stacks;
they check it entry by entry and name the failing entry in errors.
:func:`sym_eigen` has no caller in the library; it is kept because the
benchmark's tracer wraps it by name.
Supported dimensions are 2 <= n <= 8.  Non-finite input raises
:class:`~cocyclelab.errors.NonFinite`.
"""

from __future__ import annotations

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
# Pairs per slice of the pairwise kernel.  The slice's temporaries stay in
# cache: on 300 2x2 points this ran ~1.5x faster than one pass over all
# pairs and cut peak memory from 7.6 MB to 1.7 MB.
PAIR_CHUNK = 4096


def symmetry_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 for one matrix or each entry of a (..., n, n) stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """One finite symmetric (n, n) matrix, symmetrized; a stack raises
    DimensionMismatch."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return _symmetric(a, "matrix")


def _require(ok, error, what: str, problem):
    """Raise ``error`` at the first entry where ``ok`` fails.

    ``ok`` is a NumPy boolean, 0-d for one matrix, which the message calls
    ``what``, or with one flag per entry of a stack, whose entry k the
    message calls "``what`` entry k".  ``problem`` ends the message; a
    callable gets k.
    """
    if not _holds(ok):
        k = int(np.argmin(ok))
        name = what if ok.ndim == 0 else f"{what} entry {k}"
        raise error(f"{name} {problem(k) if callable(problem) else problem}")


def _holds(ok) -> bool:
    # A one-matrix check's 0-d flag is read directly: ok.all() costs 40x.
    return bool(ok) if ok.ndim == 0 else bool(ok.all())


def _matrices(a, what: str) -> np.ndarray:
    """``a`` as one (n, n) float matrix or a (k, n, n) stack of them, with
    MIN_DIM <= n <= MAX_DIM and finite entries."""
    a = np.asarray(a, dtype=float)
    if (a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]
            or not MIN_DIM <= a.shape[-1] <= MAX_DIM):
        raise DimensionMismatch(
            f"{what}: expected an (n, n) matrix or a (k, n, n) stack with "
            f"{MIN_DIM} <= n <= {MAX_DIM}, got shape {a.shape}"
        )
    _require(np.isfinite(a).all(axis=(-2, -1)), NonFinite, what,
             "has non-finite entries")
    return a


def _symmetric(a, what: str) -> np.ndarray:
    """:func:`require_symmetric` for one matrix or every entry of a stack."""
    a = _matrices(a, what)
    flipped = np.swapaxes(a, -1, -2)
    # The .max method: np.max's dispatch costs more than a 2x2 reduction.
    defect = np.abs(a - flipped).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    _require(defect <= SYMMETRY_TOL * scale, NotSymmetric, what,
             lambda k: f"has symmetry defect {np.ravel(defect)[k]:.3e} "
                       f"exceeding {SYMMETRY_TOL:g}")
    return 0.5 * (a + flipped)


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
    """Diagonalize a symmetric matrix by LAPACK ``eigh``; eigenvalues
    descend.

    Each eigenvector is signed so that its largest-magnitude entry is
    positive, which makes the output a deterministic function of the input.
    """
    values, Q = np.linalg.eigh(require_symmetric(P))
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
    """Lower Cholesky factor of a finite symmetric matrix, or of each entry
    of a stack; it exists exactly when the matrix is positive definite."""
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        pass
    # LAPACK does not say which entry failed: name the one with the
    # smallest eigenvalue, which is not positive definite if any is.
    lowest = np.linalg.eigvalsh(P)[..., 0]
    _require(lowest > lowest.min(), NotPositiveDefinite, what,
             "is not positive definite")


def require_spd(P: np.ndarray) -> np.ndarray:
    P = require_symmetric(P)
    _cholesky(P, "matrix")
    return P


def _spectral(A: np.ndarray, fn, what: str | None = None) -> np.ndarray:
    """``fn`` applied to the spectrum of a symmetric matrix, or of each
    entry of a (k, n, n) stack, through one ``eigh``: V fn(lam) V^T,
    symmetrized.  With ``what``, every spectrum must be positive, and an
    error names the failing entry as :func:`_require` does."""
    lam, v = np.linalg.eigh(A)
    if what is not None:
        _require(lam[..., 0] > 0.0, NotPositiveDefinite, what,
                 "is not positive definite")
    return symmetrize((v * fn(lam)[..., None, :]) @ np.swapaxes(v, -1, -2))


def spd_log(P: np.ndarray) -> np.ndarray:
    """Matrix logarithm Pos(n) -> Sym(n); inverse of :func:`spd_exp`."""
    return _spectral(require_symmetric(P), np.log, "matrix")


def spd_exp(S: np.ndarray) -> np.ndarray:
    """Matrix exponential Sym(n) -> Pos(n)."""
    return _spectral(require_symmetric(S), np.exp)


def spd_sqrt(P: np.ndarray) -> np.ndarray:
    """Symmetric positive square root of one matrix or of each entry of a
    (m, n, n) stack.

    n = 2 is the closed form (P + sqrt(det P) I) / sqrt(tr P + 2 sqrt(det P)),
    n >= 3 one ``eigh``.  Every entry is checked as by :func:`require_spd`,
    and an error names a stack's failing entry.
    """
    P = _symmetric(P, "matrix")
    if P.shape[-1] != 2:
        return _spectral(P, np.sqrt, "matrix")
    a, b, c = P[..., 0, 0], P[..., 0, 1], P[..., 1, 1]
    det = a * c - b * b
    _require((a > 0.0) & (det > 0.0), NotPositiveDefinite, "matrix",
             "is not positive definite")
    s = np.sqrt(det)
    out = P.copy()
    out[..., 0, 0] += s
    out[..., 1, 1] += s
    return out / np.sqrt(a + c + 2.0 * s)[..., None, None]


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


def spd_geodesic(P: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    """Point P^{1/2} (P^{-1/2} Q P^{-1/2})^t P^{1/2} on the geodesic P -> Q,
    of one pair or of each pair of two paired (k, n, n) stacks.

    Both endpoints are checked as by :func:`require_spd`; an error names
    "geodesic endpoint entry k" of a stack, or at n >= 3 positivity the
    :class:`Whitening`'s entry.  n >= 3 is one paired
    :class:`Whitening`: P #_t Q = L exp(t log M) L^T.  For
    n = 2, with P = L L^T and M = L^{-1} Q L^{-T} of eigenvalues
    lam1 >= lam2, Cayley-Hamilton gives M^t = lam2^t I + c (M - lam2 I)
    with c = (lam1^t - lam2^t) / (lam1 - lam2), and L (M - lam2 I) L^T is
    Q - lam2 P, so P #_t Q = (lam2^t - c lam2) P + c Q.  c is evaluated as
    lam1^(t-1) expm1(-t l) / expm1(-l) with l = log(lam1 / lam2), which
    neither cancels for close eigenvalues nor overflows for distant ones,
    and t = 0 and t = 1 return P and Q exactly.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise DimensionMismatch(f"shapes {P.shape} and {Q.shape} differ")
    P = _symmetric(P, "geodesic endpoint")
    Q = _symmetric(Q, "geodesic endpoint")
    if P.shape[-1] != 2:
        at = Whitening(P)
        return at.exp(t * at.logs(Q))
    # NumPy scalars for one pair, as in _distances_from.
    a, b, c = P.T[0, 0], P.T[1, 0], P.T[1, 1]
    _require_positive((a > 0.0) & (a * c - b * b > 0.0), "geodesic endpoint")
    lam1, lam2 = _whitened_eigenvalues_2x2(
        a, b, c, Q.T[0, 0], Q.T[1, 0], Q.T[1, 1], "geodesic endpoint")
    ell = np.log(lam1 / lam2)
    # The ratio is t where l = 0 (P and Q proportional).  np.power, not
    # **, which is C pow on NumPy scalars: one pair matches its stack.
    k = np.power(lam1, t - 1.0) * np.divide(
        np.expm1(-t * ell), np.expm1(-ell),
        out=np.full(np.shape(ell), t, dtype=float), where=ell > 0.0)
    w = np.power(lam2, t) - k * lam2
    return w[..., None, None] * P + k[..., None, None] * Q


def det(A: np.ndarray):
    """Determinant of one (n, n) matrix or of each entry of a (..., n, n)
    stack: ad - bc for n = 2, LAPACK for n >= 3."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    return np.linalg.det(A)


def inv(A: np.ndarray) -> np.ndarray:
    """Inverse of one (n, n) matrix or of each entry of a (..., n, n) stack:
    the adjugate over the determinant for n = 2, LAPACK for n >= 3.

    Raises SingularMatrix, naming the entry, when |det| <= SINGULAR_TOL.
    """
    A = np.asarray(A, dtype=float)
    d = det(A)
    size = np.abs(d)
    _require(size > SINGULAR_TOL, SingularMatrix, "matrix",
             lambda k: f"has |det| = {np.ravel(size)[k]:.3e} "
                       f"<= {SINGULAR_TOL:g}")
    if A.shape[-1] != 2:
        return np.linalg.inv(A)
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1]
    out[..., 0, 1] = -A[..., 0, 1]
    out[..., 1, 0] = -A[..., 1, 0]
    out[..., 1, 1] = A[..., 0, 0]
    out /= np.asarray(d)[..., None, None]
    return out


# The congruence helpers take one (n, n) matrix or a (k, n, n) stack, act
# entry by entry, and name the failing entry of a stack in their errors.

def gl_action(g: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Congruence action g . P = g P g^T; an isometry of Pos(n)."""
    g = _matrices(g, "g")
    P = _matrices(P, "P")
    if g.shape != P.shape:
        raise DimensionMismatch(f"shapes {g.shape} and {P.shape} differ")
    _require(np.abs(det(g)) > SINGULAR_TOL, SingularMatrix, "g",
             "has |det g| below invertibility tolerance")
    return symmetrize(g @ P @ np.swapaxes(g, -1, -2))


def conf_normalizer(A: np.ndarray):
    """Scalar (det A^T A)^{-1/2n} making |det(lambda A)| = 1; an array of
    them for a stack."""
    A = _matrices(A, "A")
    gram = det(np.swapaxes(A, -1, -2) @ A)
    _require(gram > SINGULAR_TOL ** 2, SingularMatrix, "A",
             "has det A^T A below invertibility tolerance")
    lam = gram ** (-1.0 / (2.0 * A.shape[-1]))
    return float(lam) if A.ndim == 2 else lam


def conf_action(g: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Normalized congruence g . P = (det g^T g)^{-1/n} g P g^T on Conf(n).

    The result is renormalized to determinant one to suppress drift.
    """
    P = require_unit_determinant(P)
    lam = np.asarray(conf_normalizer(g))[..., None, None]
    return _renormalize_det((lam * lam) * gl_action(g, P))


def require_unit_determinant(P: np.ndarray, tol: float = UNIT_DET_TOL) -> np.ndarray:
    P = _matrices(P, "P")
    gap = np.abs(det(P) - 1.0)
    _require(gap <= tol, NotUnitDeterminant, "P",
             lambda k: f"has |det P - 1| = {np.ravel(gap)[k]:.3e} > {tol:g}")
    return P


def _renormalize_det(P: np.ndarray) -> np.ndarray:
    """P / det(P)^{1/n} for one matrix or each of a (..., n, n) stack."""
    size = det(P)
    _require(np.isfinite(size), NonFinite, "P", "has a non-finite determinant")
    _require(size > 0.0, NotPositiveDefinite, "P", "lost determinant positivity")
    scale = size ** (1.0 / P.shape[-1])
    # Indexing a NumPy scalar costs more than the division it feeds.
    return P / (scale if P.ndim == 2 else scale[..., None, None])


def unit_determinant(P: np.ndarray) -> np.ndarray:
    """Project an SPD matrix onto the det = 1 slice."""
    P = _symmetric(P, "P")
    _cholesky(P, "P")
    return _renormalize_det(P)


# -- batched kernels ---------------------------------------------------------
#
# The center searches scan distances from one candidate point to every
# sample of a fiber.  Each scan whitens by the Cholesky factor L of the
# candidate P: the eigenvalues of P^{-1} Q are those of L^{-1} Q L^{-T}.

def _require_positive(positive, what: str, *parts):
    """:func:`_require` for a positivity test of entries read from
    ``parts``; a failing entry with a non-finite part raises NonFinite."""
    if not _holds(positive):
        k = int(np.argmin(positive))
        finite = all(np.isfinite(np.ravel(part)[k]) for part in parts)
        _require(positive, NotPositiveDefinite if finite else NonFinite, what,
                 "is not positive definite" if finite else "has non-finite entries")


def _whitened_eigenvalues_2x2(a, b, c, qa, qb, qc, what: str = "batch"):
    """Eigenvalues lam1 >= lam2 of M = L^{-1} Q L^{-T}, which are those of
    P^{-1} Q, for P = [[a, b], [b, c]] = L L^T, already checked positive
    definite, and Q = [[qa, qb], [qb, qc]], elementwise over broadcast
    arrays.  A Q that is not positive definite raises, named ``what``.

    M = [[m00, f/2], [f/2, m11]] has the eigenvalues
    ((m00 + m11) +- sqrt((m00 - m11)^2 + f^2)) / 2, and the smaller is
    taken as det Q / (det P * larger).  Neither step subtracts nearly
    equal numbers, so rounding moves them by ~1e-16 relative even when P
    and Q nearly coincide; the root of tr^2 - 4 det moves them by ~1e-8.
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
    _require_positive(lam2 > 0.0, what, qa, qb, qc)
    return lam1, lam2


def _distance_2x2(a, b, c, qa, qb, qc) -> np.ndarray:
    """d(P, Q) = sqrt(log^2 lam1 + log^2 lam2) for the arguments of
    :func:`_whitened_eigenvalues_2x2`."""
    lam1, lam2 = _whitened_eigenvalues_2x2(a, b, c, qa, qb, qc)
    l1 = np.log(lam1)
    l2 = np.log(lam2)
    return np.sqrt(l1 * l1 + l2 * l2)


def _whitened_distances(w: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Distances from P = L L^T to every entry of a checked symmetric batch,
    given w = L^{-1}: one inverse factor, or a stack of them paired with
    the batch.  An error names the failing batch entry."""
    lam = np.linalg.eigvalsh(w @ batch @ np.swapaxes(w, -1, -2))
    _require(lam[:, 0] > 0.0, NotPositiveDefinite, "batch",
             "is not positive definite")
    logs = np.log(lam)
    return np.sqrt(np.sum(logs * logs, axis=1))


def _distances_from(P: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """d(P, Q) for every entry Q of a (m, n, n) batch; ``P`` is one
    reference point or a (m, n, n) stack paired with the batch."""
    if P.shape[-1] == 2:
        # Only the entries the closed form reads are checked, to keep the
        # hot 2x2 scan to array arithmetic.  P.T[j, i] is P[..., i, j]: a
        # NumPy scalar for one point, which computes faster than a 0-d array.
        a, b, c = P.T[0, 0], P.T[1, 0], P.T[1, 1]
        _require_positive((a > 0.0) & (a * c - b * b > 0.0)
                          & np.isfinite(a + b + c), "reference point", a, b, c)
        return _distance_2x2(a, b, c, batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 1])
    L = _cholesky(_symmetric(P, "reference point"), "reference point")
    return _whitened_distances(np.linalg.inv(L), _symmetric(batch, "batch"))


class Whitening:
    """A point P = L L^T of Pos(n), or a (k, n, n) stack of them paired
    with the methods' stacks, checked and Cholesky-factorized once, with
    the whitened logarithm and exponential at P as methods, so a caller
    that takes both at one point factorizes it once, and one that takes
    logs of one batch at many points checks the batch once."""

    def __init__(self, P: np.ndarray):
        self.L = _cholesky(_symmetric(P, "reference point"), "reference point")

    def logs(self, batch: np.ndarray) -> np.ndarray:
        """Tangent vectors log(L^{-1} Q L^{-T}) at P, of norm d(P, Q), of
        every entry Q of a (m, n, n) batch already checked symmetric and
        finite, as :func:`_symmetric` returns it."""
        w = np.linalg.inv(self.L)
        return _spectral(w @ batch @ np.swapaxes(w, -1, -2), np.log, "batch")

    def exp(self, S: np.ndarray) -> np.ndarray:
        """L exp(S) L^T of one symmetric (n, n) matrix or of each entry of a
        (..., n, n) stack, in its shape, by one stacked ``eigh``; the
        inverse of :meth:`logs`; at a stack of points, of its shape.  An
        error names the flattened index."""
        L = self.L
        S = np.asarray(S, dtype=float)
        if S.shape[-2:] != L.shape[-2:] or (L.ndim == 3 and S.shape != L.shape):
            raise DimensionMismatch(
                f"tangent shape {S.shape} incompatible with point {L.shape}"
            )
        out = L @ _spectral(_symmetric(S.reshape(-1, *L.shape[-2:]), "batch"),
                            np.exp) @ np.swapaxes(L, -1, -2)
        return symmetrize(out).reshape(S.shape)


def spd_distances_from(P: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Distances from ``P`` to every matrix of a (m, n, n) batch.

    ``P`` is one point, or a (m, n, n) stack of reference points paired
    with the batch: entry k is then d(P[k], batch[k]).  Every reference
    point is checked as one is, and an error names the entry.
    """
    P = np.asarray(P, dtype=float)
    batch = np.asarray(batch, dtype=float)
    if (batch.ndim != 3 or P.shape not in (batch.shape, batch.shape[1:])
            or not MIN_DIM <= batch.shape[-1] == batch.shape[-2] <= MAX_DIM):
        raise DimensionMismatch(
            f"batch shape {batch.shape} incompatible with point {P.shape}"
        )
    return _distances_from(P, batch)


def pairwise_spd_distances(batch: np.ndarray) -> np.ndarray:
    """Condensed upper-triangle distances of a batch, empty for m < 2, in
    slices of PAIR_CHUNK pairs: the closed form for n = 2, else a paired
    ``eigvalsh`` of W_i Q_j W_i^T on the inverse Cholesky factors W of
    the batch, factorized as one stack.  Every entry is checked once."""
    batch = np.asarray(batch, dtype=float)
    m = batch.shape[0]
    if m < 2:
        return np.zeros(0)
    if batch.ndim != 3 or batch.shape[1] != batch.shape[2]:
        raise DimensionMismatch(f"expected a (m, n, n) batch, got {batch.shape}")
    n = batch.shape[1]
    if n == 2:
        a, b, c = batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 1]
        _require_positive((a > 0.0) & (a * c - b * b > 0.0)
                          & np.isfinite(a + b + c), "batch", a, b, c)
    else:
        batch = _symmetric(batch, "batch")
        w = np.linalg.inv(_cholesky(batch, "batch"))
    iu, ju = np.triu_indices(m, k=1)
    out = np.empty(len(iu))
    for lo in range(0, len(iu), PAIR_CHUNK):
        i, j = iu[lo:lo + PAIR_CHUNK], ju[lo:lo + PAIR_CHUNK]
        out[lo:lo + PAIR_CHUNK] = (
            _distance_2x2(a[i], b[i], c[i], a[j], b[j], c[j]) if n == 2
            else _whitened_distances(w[i], batch[j]))
    return out
