"""Cocycles of affine isometries and matrix cocycles over a circle base.

A generator map x -> (Psi(x), rho(x)) induces the skew action

    (x, v)  ->  (T x, Psi(x) v + rho(x)),

whose k-th iterate applies the composition I(k, x) of generators along
the orbit.  The translation part of I(k, x) is the twisted Birkhoff sum

    S_k(rho)(x) = sum_i Psi(T^{k-1} x) ... Psi(T^{i+1} x) rho(T^i x).

Isometries are composed as homogeneous matrices [[Psi, rho], [0, 1]], so
isometry cocycles and matrix cocycles x -> A(x) in GL(n) share one kernel,
``walk_blocks``: every orbit walk reads the left prefix products of the
generators along the orbit in blocks of WALK_BLOCK steps.  Each block
makes its stretch of the base orbit, passed with its successor point
(m + 1 points for m steps), asks the cocycle for the m generators along
it (``orbit_generators``; a coboundary reads B(T x_k) off B(x_{k+1})
there, so it evaluates B once per point), scans them
(``prefix_products``, a chunked, work-efficient scan) and carries the
product of the blocks before by one matrix product; its reader keeps
what it needs (a norm, the last product, the rows at some steps) and
drops the block, so a walk holds O(WALK_BLOCK) matrices at any length up
to ITERATION_CAP.  Block starts are fixed, so the products do not depend
on how far the orbit is walked.  Shift cocycles carry finitely supported
coordinate data over the one-sided or two-sided coordinate shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import _require_probe, circle_distance, require_finite
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonFinite,
    NotOrthogonal,
    SingularMatrix,
    TruncationTooSmall,
)
from .trigpoly import TrigPoly

ORTHOGONALITY_TOL = 1e-10
ITERATION_CAP = 10 ** 7
# Chunk length of the scan in prefix_products.  It is fixed, not chosen
# from the orbit length, so that a product does not depend on how far the
# orbit is walked (prefix-stability); the scan's temporaries are one matrix
# per chunk.  Short chunks keep short orbits cheap: a chunk's prefixes are
# one stacked product per column, so a level costs SCAN_BLOCK calls.
SCAN_BLOCK = 8
# Steps per block of an orbit walk (walk_blocks).  Fixed for the same
# reason as SCAN_BLOCK; a walk holds a few stacks of this many matrices
# whatever its length.
WALK_BLOCK = SCAN_BLOCK ** 4


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
        _require_orthogonal(lin[None], "linear part")

    @classmethod
    def _checked(cls, linear: np.ndarray,
                 translation: np.ndarray) -> "FiniteIsometry":
        """An isometry from float arrays whose linear part has already
        passed :func:`_require_orthogonal`, built without checking again."""
        iso = object.__new__(cls)
        object.__setattr__(iso, "linear", linear)
        object.__setattr__(iso, "translation", translation)
        return iso

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


def _require_orthogonal(linears: np.ndarray, what: str, names=None) -> None:
    """Raise NonFinite if a matrix Q of a (k, l, l) stack has a non-finite
    entry, and NotOrthogonal unless every Q has ||Q^T Q - I||_F <=
    ORTHOGONALITY_TOL; the error names the first failing entry as ``what``
    or, with ``names``, as ``what`` names[i]."""
    def name(i: int) -> str:
        return what if names is None else f"{what} {names[i]}"

    finite = np.isfinite(linears).all(axis=(-2, -1))
    if not finite.all():
        raise NonFinite(f"{name(int(np.argmin(finite)))} has non-finite entries")
    defects = np.linalg.norm(
        np.swapaxes(linears, -1, -2) @ linears - np.eye(linears.shape[-1]),
        axis=(-2, -1))
    if np.any(defects > ORTHOGONALITY_TOL):
        i = int(np.argmax(defects > ORTHOGONALITY_TOL))
        raise NotOrthogonal(
            f"{name(i)} orthogonality defect {defects[i]:.3e} > "
            f"{ORTHOGONALITY_TOL:g}"
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
            _require_orthogonal(constant_linear[None], "constant linear part")
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
        """Homogeneous generators [[Psi(x), rho(x)], [0, 1]] at the points xs.

        The batch functions must answer a (k, l, l) linear stack and a
        (k, l) translation stack, or (k,) when l = 1; any other shape
        raises DimensionMismatch rather than being read in the wrong order.
        """
        k, l = len(xs), self.dim
        gens = np.zeros((k, l + 1, l + 1))
        if self.constant_linear is not None:
            gens[:, :l, :l] = self.constant_linear
        else:
            gens[:, :l, :l] = _batch(self._linear_batch_fn(xs), (k, l, l),
                                     "linear parts")
        rho = np.asarray(self._translation_batch_fn(xs), dtype=float)
        if l == 1 and rho.shape == (k,):
            rho = rho[:, None]
        gens[:, :l, l] = _batch(rho, (k, l), "translations")
        gens[:, l, l] = 1.0
        return gens

    def orbit_generators(self, pts: np.ndarray) -> np.ndarray:
        """The generators along an orbit stretch passed with its successor
        point, pts[i + 1] = T pts[i]: the m generators at pts[:-1]."""
        return self.generators_along(pts[:-1])


def _batch(values, shape: tuple, what: str) -> np.ndarray:
    """A batch function's answer as a float array of exactly ``shape``;
    for no points, any empty answer will do."""
    values = np.asarray(values, dtype=float)
    if values.size == 0 == shape[0]:
        return values.reshape(shape)
    if values.shape != shape:
        raise DimensionMismatch(
            f"{what} at {shape[0]} points have shape {values.shape}, "
            f"expected {shape}"
        )
    return values


def prefix_products(gens: np.ndarray) -> np.ndarray:
    """Left prefix products of a stack of k square matrices.

    Returns M of shape (k + 1, d, d) with M[0] = I and
    M[j] = gens[j-1] ... gens[0].  For generators taken along an orbit,
    M[j] is the cocycle A(j, x), and M[j + i] = A(j, T^i x) M[i].

    A chunked, work-efficient scan (Blelloch, "Prefix sums and their
    applications", 1990).  The generators are cut into chunks of
    SCAN_BLOCK.  Each chunk's own prefixes are formed one column at a
    time, by one stacked product over all chunks per column.  The chunk
    totals are scanned by the same method, which gives each chunk its
    carry, the product of every chunk before it, and each chunk is then
    multiplied by its carry.  That is about two stacked products per step,
    and the temporaries are O(k / SCAN_BLOCK) matrices.

    The scan is prefix-stable: the chunk length does not depend on k, so
    M[j] is bit-identical whatever the length of the stack it is read
    from.  Raises NonFinite, naming the first step, when a product is not
    finite: a non-finite generator spreads to every later product, and a
    product overflows (a partial product the scan forms on the way
    counts).  Orbit walks run this scan on one block at a time
    (:func:`walk_blocks`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _scan(np.asarray(gens, dtype=float))
    _require_finite_products(out, 0)
    return out


def _require_finite_products(prods: np.ndarray, first: int) -> None:
    """Raise NonFinite naming the first product of the stack that is not
    finite, prods[i] being the product at step first + i."""
    finite = np.isfinite(prods)
    if not finite.all():
        step = first + int(np.argmin(finite.all(axis=(1, 2))))
        raise NonFinite(f"product at step {step} is not finite")


def _scan(gens: np.ndarray) -> np.ndarray:
    """The unchecked scan of :func:`prefix_products`."""
    k, d = gens.shape[0], gens.shape[-1]
    chunks = -(-k // SCAN_BLOCK)
    # Whole chunks: the last one is padded with identities, and the result
    # is a view of the first k + 1 rows.
    buf = np.empty((chunks * SCAN_BLOCK + 1, d, d))
    buf[0] = np.identity(d)
    buf[k + 1:] = buf[0]
    body = buf[1:].reshape(chunks, SCAN_BLOCK, d, d)
    # Column j of every chunk is gens[j::SCAN_BLOCK] times column j - 1.
    # Reading the generators, not the buffer, keeps each product from
    # overwriting its own operand; padding rows are skipped, not formed.
    cols = body.swapaxes(0, 1)
    cols[0] = gens[::SCAN_BLOCK]
    unpadded = cols[:, :-1]
    filled = k - (chunks - 1) * SCAN_BLOCK
    for j in range(1, min(SCAN_BLOCK, k)):
        at = cols if j < filled else unpadded
        np.matmul(gens[j::SCAN_BLOCK], at[j - 1], out=at[j])
    # Chunk c > 0 is carried by the product of every chunk before it.  A
    # carry multiplies every matrix of its chunk on the right, so it acts
    # on the chunk's matrices stacked as one (SCAN_BLOCK * d, d) block, 64
    # chunks per stacked product (a temporary of 512 matrices whatever k).
    # The carries are the scan of the chunk totals, by the same method.
    # When the totals fit one chunk, that scan is sequential: the carry of
    # chunk c is then the last matrix of chunk c - 1 once it is carried, so
    # the chunks are carried one at a time, each reading the one before.
    if chunks > 1:
        rows = body.reshape(chunks, SCAN_BLOCK * d, d)
        if chunks > SCAN_BLOCK + 1:
            carries, group = _scan(body[:-1, -1])[1:], 64
        else:
            carries, group = body[:-1, -1], 1
        for lo in range(1, chunks, group):
            part = rows[lo:lo + group]
            part[...] = part @ carries[lo - 1:lo - 1 + group]
    return buf[:k + 1]


def walk_blocks(block, k: int, carry=None):
    """Walk k steps of an orbit in blocks of at most WALK_BLOCK steps,
    yielding each block's products for the reader to consume and drop.

    For the block of steps lo < j <= hi, ``block(lo, hi)`` returns its
    stretch pts = x_lo, ..., x_hi of the base orbit, with its successor
    point x_hi, and the (hi - lo, d, d) stack of generators A_lo, ...,
    A_{hi-1} at x_lo, ..., x_{hi-1}.  Yields (lo, pts, prods) with
    prods[i] = A_{lo+i} ... A_0 C, the product at step lo + i + 1 (at the
    point pts[i + 1]) times the start ``carry`` C, the identity when None.

    A block is one scan of its generators (see :func:`prefix_products`),
    then one 2-D product of its matrices, stacked as a (m d, d) array, with
    the carry: the last product of the block before, or C.  Blocks start
    at multiples of WALK_BLOCK, so the walk is prefix-stable, and a walk of
    at most WALK_BLOCK steps without C gives prefix_products(gens)[1:] bit
    for bit.  The walk holds O(WALK_BLOCK) matrices whatever k.  Raises
    NonFinite naming the step of the first product that is not finite.
    """
    for lo in range(0, k, WALK_BLOCK):
        pts, gens = block(lo, min(lo + WALK_BLOCK, k))
        with np.errstate(over="ignore", invalid="ignore"):
            prods = _scan(np.asarray(gens, dtype=float))[1:]
            if carry is not None:
                d = prods.shape[-1]
                prods = (prods.reshape(-1, d) @ carry).reshape(prods.shape)
        _require_finite_products(prods, lo + 1)
        carry = prods[-1].copy()
        yield lo, pts, prods


def orbit_products(c, x: float, k: int):
    """The walk of :func:`walk_blocks` along the base orbit of x, for
    k <= ITERATION_CAP steps of a cocycle's generators: yields
    (lo, pts, prods) per block, with pts = T^lo x, ..., T^hi x, the
    block's stretch with its successor point, and prods[i] =
    A(lo + i + 1, x), the product at pts[i + 1].  Each block makes one
    stretch of m + 1 points and asks the cocycle for its m generators
    (``orbit_generators``), so a cocycle that evaluates something at x_k
    and at T x_k evaluates it once per point.  A k < 0 or > ITERATION_CAP
    raises ConfigInvalid before anything is walked."""
    if k < 0:
        raise ConfigInvalid(f"iteration count {k} is negative")
    if k > ITERATION_CAP:
        raise ConfigInvalid(f"iteration count {k} exceeds {ITERATION_CAP}")
    require_finite(x)

    def block(lo, hi):
        pts = c.base.orbit(x, hi - lo + 1, lo)
        return pts, c.orbit_generators(pts)

    return walk_blocks(block, k)


def _order(c) -> int:
    """Size of the matrices an orbit walk of c multiplies: l + 1 for the
    homogeneous form of an isometry cocycle of R^l."""
    return c.dim + 1 if isinstance(c, IsometryCocycle) else c.dim


def _products_at(c, x: float, ks) -> np.ndarray:
    """A(k, x) for every step k of ``ks`` as one stack, A(0, x) = I, from
    one walk to the largest k that keeps only those rows.  A negative k
    raises ConfigInvalid."""
    ks, d = np.asarray(ks, dtype=int), _order(c)
    if ks.min(initial=0) < 0:
        raise ConfigInvalid(f"iteration count {int(ks.min())} is negative")
    out = np.empty((len(ks), d, d))
    out[ks == 0] = np.identity(d)
    for lo, _, prods in orbit_products(c, x, int(ks.max(initial=0))):
        hit = (ks > lo) & (ks <= lo + len(prods))
        out[hit] = prods[ks[hit] - lo - 1]
    return out


def iterate_skew(c: IsometryCocycle, x: float, v: np.ndarray, k: int):
    """k-th image of (x, v) under the skew action; returns (T^k x, I(k,x) v)."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise NonFinite(f"fibre point v = {v.tolist()} is not finite")
    last = _products_at(c, x, [k])[0]
    l = c.dim
    v = last[:l, :l] @ v + last[:l, l]
    return c.base.step_n(x, k), v


def twisted_birkhoff(c: IsometryCocycle, x: float, k: int) -> np.ndarray:
    """Twisted Birkhoff sum: the translation part of I(k, x)."""
    return _products_at(c, x, [k])[0, :c.dim, c.dim]


def compose_along_orbit(c: IsometryCocycle, x: float, k: int) -> FiniteIsometry:
    """Full isometry I(k, x), the last product of one walk; its linear part
    is re-orthonormalized once against rounding drift."""
    return _isometry(_products_at(c, x, [k])[0], c.dim)


def _isometry(product: np.ndarray, l: int) -> FiniteIsometry:
    """The isometry of one homogeneous (l + 1, l + 1) product, its linear
    part re-orthonormalized."""
    return FiniteIsometry(gram_schmidt(product[:l, :l]), product[:l, l].copy())


@dataclass
class ProbeReport:
    """What :func:`boundedness_probe` keeps of a walk of n steps: the sup
    of ||I(k, x0) v0|| over 0 <= k <= n, its first argmax, the growth
    slope, and the norms at the requested steps only, in their order."""

    sup_norm: float
    argmax_k: int
    growth_slope: float
    norms: np.ndarray  # ||I(k, x0) v0|| for k in ``at``


def boundedness_probe(c: IsometryCocycle, x0: float, v0: np.ndarray,
                      n: int, at=()) -> ProbeReport:
    """Track sup_k ||I(k, x0) v0|| for k <= n, and the norms at the steps
    of ``at``, integers in [0, n] in any order.

    The slope is the least-squares slope of the running maximum against
    log k, 1 <= k <= n — a growth diagnostic only, not a boundedness
    verdict.  A slope needs two points: n < 2 raises ConfigInvalid, as
    does a step of ``at`` outside [0, n]; a non-finite v0 raises NonFinite.

    The probe streams: each block of the walk updates the sup and its
    first argmax (ties as in np.argmax), the running maximum, the slope's
    means and co-moments, and the norms requested in it, and is then
    dropped, so the probe holds O(WALK_BLOCK) memory besides ``at``
    whatever n.  Blocks are merged by the pairwise update of Chan, Golub &
    LeVeque ("Updating formulae and a pairwise algorithm for computing
    sample variances", 1979).  The mean of the running maximum is kept as
    its offset below the maximum so far, so the merge forms every cross
    term, which is >= 0 since both the maximum and log k increase, from
    small differences.  The slope then stays within 4e-15 relative of the
    two-pass formula over all n + 1 norms up to n = 1e6; a mean kept at
    the level of the norms lost 2e-10 on a bounded walk of 2e5 steps.
    """
    if n < 2:
        raise ConfigInvalid(f"n = {n}: the growth slope needs n >= 2 steps")
    at = np.asarray(at, dtype=int).reshape(-1)
    if len(at) and not (0 <= at.min() and at.max() <= n):
        raise ConfigInvalid(f"requested steps {at.min()}..{at.max()} "
                            f"outside [0, {n}]")
    v0 = np.asarray(v0, dtype=float)
    if not np.isfinite(v0).all():
        raise NonFinite(f"fibre point v0 = {v0.tolist()} is not finite")
    l = c.dim

    def norms_of(prods):
        return np.linalg.norm(prods[:, :l, :l] @ v0 + prods[:, :l, l], axis=1)

    walk = orbit_products(c, x0, n)  # checks n before anything is allocated
    order = np.argsort(at)
    sorted_at = at[order]
    norms = np.empty(len(at))
    running = norms_of(np.identity(l + 1)[None])[0]  # the sup so far
    norms[at == 0] = running
    argmax = 0
    # The slope's state: the count, the mean of x = log k, the mean of the
    # running maximum y less its last value, and the co-moments of x with
    # y and with x.
    count, mean_x, offset, cxy, cxx = 0, 0.0, 0.0, 0.0, 0.0
    for lo, _, prods in walk:
        block = norms_of(prods)
        m = len(block)
        i, j = np.searchsorted(sorted_at, [lo + 1, lo + m + 1])
        norms[order[i:j]] = block[sorted_at[i:j] - lo - 1]
        top = int(np.argmax(block))
        if block[top] > running:
            argmax = lo + 1 + top
        y = np.maximum.accumulate(block)
        np.maximum(y, running, out=y)
        # The block mean of y less the mean so far: a sum of terms >= 0.
        rise = float((y - running).sum()) / m - offset
        last = y[-1]
        y -= last
        below = float(y.sum()) / m
        y -= below
        x = np.log(np.arange(lo + 1, lo + m + 1, dtype=float))
        block_mean_x = float(x.sum()) / m
        x -= block_mean_x
        total = count + m
        weight = count * m / total
        dx = block_mean_x - mean_x
        cxy += float(x @ y) + dx * rise * weight
        cxx += float(x @ x) + dx * dx * weight
        mean_x += dx * m / total
        offset = (count * (offset - (last - running)) + m * below) / total
        count, running = total, last
    return ProbeReport(
        sup_norm=float(running), argmax_k=argmax,
        growth_slope=float(cxy / cxx), norms=norms,
    )


def recurrence_isometries(c: IsometryCocycle, x: float, delta: float,
                          n: int) -> list[tuple[int, FiniteIsometry]]:
    """Pairs (k, I(k, x)) over the return times 1 <= k <= n with
    d(T^k x, x) < delta, ascending.

    One walk of n steps along the orbit: each block reads its return times
    off its own stretch of base points (the same bits as
    :func:`~cocyclelab.circle.return_times` gives) and keeps only the
    products there; an empirical sample of the recurrence semigroup of x.
    The orthonormalised linear parts are checked as one stack, and a
    failure names the return time.
    """
    if n > 10 ** 6:
        raise ConfigInvalid("n exceeds the 1e6 recurrence bound")
    _require_probe(x, n, delta)
    ks, kept = [], []
    for lo, pts, prods in orbit_products(c, x, n):
        hit = np.flatnonzero(circle_distance(pts[1:], x) < delta)
        ks.append(lo + 1 + hit)
        kept.append(prods[hit])
    ks, prods = np.concatenate(ks), np.concatenate(kept)
    if len(ks) == 0:
        return []
    l = c.dim
    linears = gram_schmidt(prods[:, :l, :l])
    _require_orthogonal(linears, "return k =", ks)
    return [
        (int(k), FiniteIsometry._checked(q, p[:l, l].copy()))
        for k, q, p in zip(ks, linears, prods)
    ]


@dataclass
class SemigroupPairCheck:
    k1: int
    k2: int
    deviation: float
    continuity_eps: float
    bound: float
    ok: bool


def semigroup_closure_check(c: IsometryCocycle, x: float,
                            sample: list[tuple[int, FiniteIsometry]],
                            max_pairs: int = 6) -> list[SemigroupPairCheck]:
    """Empirical closure of a recurrence sample under composition.

    ``sample`` is the output of :func:`recurrence_isometries` at x, so
    one orbit walk serves both.  For sampled returns I1 = I(k1, x),
    I2 = I(k2, x), the cocycle identity places I(k1 + k2, x) within
    (2 + C) * eps of I1 I2, where eps is the continuity gap of I(k1, .)
    over the return displacement and C bounds the right-translation
    distortion of the metric over the sampled family (C = 1 + max
    translation norm, measured, not assumed).

    I(k1 + k2, x) and I(k1, T^k2 x) are read from one walk from x and one
    walk from each T^k2 x, each keeping only the products the pairs read;
    they are the same bits as a walk per pair, because the walk is
    prefix-stable.
    """
    if max_pairs < 1:
        raise ConfigInvalid(f"max_pairs = {max_pairs} must be >= 1")
    if len(sample) < 2:
        return []
    translations = np.array([iso.translation for _, iso in sample])
    c_const = 1.0 + float(np.linalg.norm(translations, axis=1).max())
    m = min(max_pairs, len(sample))
    pairs = [(sample[a], sample[b]) for a in range(m) for b in range(a, m)]
    l = c.dim
    direct = _products_at(c, x, [k1 + k2 for (k1, _), (k2, _) in pairs])
    reads: dict[int, list] = {}
    for (k1, _), (k2, _) in pairs:
        reads.setdefault(k2, []).append(k1)
    shifted = {k2: dict(zip(k1s, _products_at(c, c.base.step_n(x, k2), k1s)))
               for k2, k1s in reads.items()}
    checks = []
    for ((k1, i1), (k2, i2)), product in zip(pairs, direct):
        eps = _isometry(shifted[k2][k1], l).distance_to(i1)
        dev = _isometry(product, l).distance_to(i1.compose(i2))
        bound = (2.0 + c_const) * eps + 1e-9
        checks.append(SemigroupPairCheck(
            k1=k1, k2=k2, deviation=dev, continuity_eps=eps,
            bound=bound, ok=dev <= bound,
        ))
    return checks


# -- matrix cocycles ---------------------------------------------------------

class MatrixCocycle:
    """Invertible-matrix cocycle x -> A(x) over a base map.  ``generator``
    is array-valued, as every section is: it maps an array of k points to
    the (k, n, n) stack of A there; :meth:`generator` is its one-point view.
    ``orbit_generator``, when given, is the same map on orbit stretches:
    it takes m + 1 points of an orbit and returns the m generators at the
    first m, as :meth:`orbit_generators` describes.
    """

    def __init__(self, base, dim: int, generator, *,
                 bound: float | None = None, oracle_section=None,
                 orbit_generator=None):
        self.base = base
        self.dim = int(dim)
        self._generators = generator
        # Optional orbit form: m + 1 points of an orbit stretch to the m
        # generators at its first m points (see orbit_generators).
        self._orbit_generators = orbit_generator
        self.bound = bound
        # Known invariant section, attached by coboundary constructions
        # for oracle comparisons.  It is array-valued: an array of k points
        # gives a (k, n, n) stack, one point one (n, n) matrix.
        self.oracle_section = oracle_section

    def generator(self, x: float) -> np.ndarray:
        return self.generators_along(np.array([x], dtype=float))[0]

    def generators_along(self, xs: np.ndarray) -> np.ndarray:
        """The generators at the points xs as one (k, n, n) stack; a batch
        of any other shape raises DimensionMismatch."""
        return _batch(self._generators(xs), (len(xs), self.dim, self.dim),
                      "generators")

    def orbit_generators(self, pts: np.ndarray) -> np.ndarray:
        """The generators along an orbit stretch passed with its successor
        point, pts[i + 1] = T pts[i]: the m generators at pts[:-1], from
        the cocycle's orbit form when it has one (which may read A(x_k) off
        values at x_{k+1} in place of T x_k), else generators_along."""
        if self._orbit_generators is None:
            return self.generators_along(pts[:-1])
        return _batch(self._orbit_generators(pts),
                      (len(pts) - 1, self.dim, self.dim), "generators")


@dataclass
class MatrixProductReport:
    product: np.ndarray
    max_norm: float
    max_inv_norm: float
    max_condition: float


def matrix_products(c: MatrixCocycle, x: float, k: int) -> MatrixProductReport:
    """Left product A(T^{k-1} x) ... A(x), with the maxima of the norm, the
    inverse norm and the condition number over the products of steps
    1..k (of the identity alone when k = 0), from one stacked SVD a block.

    Products are left raw (no re-orthogonalization): drift and
    conditioning of the raw products are themselves diagnostics.
    """
    product, maxima = np.identity(c.dim), []
    for lo, _, prods in orbit_products(c, x, k):
        maxima.append(_singular_maxima(prods, lo + 1))
        product = prods[-1].copy()
    top = np.max(maxima or [_singular_maxima(product[None], 0)], axis=0)
    return MatrixProductReport(product, *map(float, top))


def _singular_maxima(prods: np.ndarray, first: int) -> tuple:
    """(max norm, max inverse norm, max condition number) over a stack of
    products, prods[i] at step first + i; SingularMatrix names the first
    singular step."""
    sv = np.linalg.svd(prods, compute_uv=False)
    smax, smin = sv[:, 0], sv[:, -1]
    singular = smin <= 0.0
    if singular.any():
        raise SingularMatrix(
            f"product singular at step {first + int(np.argmax(singular))}"
        )
    return smax.max(), (1.0 / smin).max(), (smax / smin).max()


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
        if self.truncation < 0:
            raise ConfigInvalid(f"truncation {self.truncation} must be >= 0")

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
    if n < 0:
        raise ConfigInvalid(f"n = {n} must be >= 0")
    lo = -c.support_level if c.bilateral else 0
    hi = c.support_level + max(n, 1)
    coords = np.zeros(hi - lo, dtype=complex)
    # Term r is evaluated at T^{n-r-1} y: the orbit of y, reversed.
    points = c.base.orbit(y, n)[::-1]
    for j, poly in c.rho_coords.items():
        coords[j - lo:j - lo + n] += poly(points)
    return lo, coords
