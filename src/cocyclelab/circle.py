"""Base systems on the circle [0, 1): irrational rotations and one
deliberately non-minimal parabolic map.

Points are mod-1 representatives; the metric is the wrap-around distance
d(x, y) = min(|x - y|, 1 - |x - y|).  Each map has one array formula for
T^k x, ``_power``; ``orbit``, ``step_n``, ``step_many`` and ``step`` all
read it, so they give the same bits for the same (x, k).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ConfigInvalid, NonFinite

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0

# Largest denominator checked when certifying that a rotation angle is not
# rational, hence that the rotation is minimal for all practical horizons.
MINIMALITY_DENOMINATOR = 10 ** 6

# Largest |k| of an iterate T^k x.  The rotation splits alpha exactly into
# H / ALPHA_SPLIT + lo, an integer H <= 2^32 and |lo| <= 2^-33, so k H < 2^62
# is exact int64 arithmetic for |k| <= MAX_STEPS.
MAX_STEPS = 10 ** 9
ALPHA_SPLIT = 2 ** 32


def require_finite(x: float) -> float:
    """Return the base point x; raise NonFinite unless it is finite."""
    if not np.isfinite(x):
        raise NonFinite(f"base point x = {x!r} is not finite")
    return x


def circle_distance(x, y):
    """Wrap-around distance on [0, 1), elementwise."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def _steps(start: int, n: int = 1) -> np.ndarray:
    """The int64 step counts start, ..., start + n - 1, each |k| <= 1e9."""
    if n > 0 and max(abs(start), abs(start + n - 1)) > MAX_STEPS:
        raise ConfigInvalid("|k| exceeds the 1e9 iteration bound")
    return np.arange(start, start + n, dtype=np.int64)


class _CircleMap:
    """A circle map given by its formula ``_power(x, k)`` for T^k x; each
    subclass defines ``orbit``, where ``perfbench/spans.py`` looks it up."""

    def step(self, x: float) -> float:
        return self.step_n(x, 1)

    def step_n(self, x: float, k: int) -> float:
        """T^k x of one finite point, for |k| <= 1e9."""
        return float(self._power(require_finite(x), _steps(k)[0]))

    def step_many(self, xs: np.ndarray, k: int = 1) -> np.ndarray:
        """T^k of an array of points, for |k| <= 1e9."""
        return self._power(np.asarray(xs, dtype=float), _steps(k)[0])


class RotationBase(_CircleMap):
    """Rigid rotation x -> x + alpha (mod 1)."""

    def __init__(self, alpha: float, minimal: bool = True):
        alpha = float(alpha)
        if not np.isfinite(alpha):
            raise NonFinite(f"rotation angle alpha = {alpha!r} is not finite")
        alpha %= 1.0
        if minimal:
            frac = Fraction(alpha).limit_denominator(MINIMALITY_DENOMINATOR)
            if frac == Fraction(alpha):
                raise ConfigInvalid(
                    f"alpha = {alpha!r} is rational with denominator "
                    f"{frac.denominator} <= {MINIMALITY_DENOMINATOR}; "
                    "not a minimal rotation"
                )
        self.alpha = alpha
        self.minimal = minimal
        self._turns = round(alpha * ALPHA_SPLIT)
        self._lo = alpha - self._turns / ALPHA_SPLIT

    def _power(self, x, k):
        """T^k x = (x mod 1 + (frac(k H / 2^32) + k lo)) mod 1: the frac is
        exact and |k lo| < 0.12, so the product and the two sums round to
        within 3.4e-16 of the exact x + k alpha mod 1."""
        turn = k * self._turns % ALPHA_SPLIT / ALPHA_SPLIT
        return np.mod(np.mod(x, 1.0) + (turn + k * self._lo), 1.0)

    def orbit(self, x0: float, n: int, start: int = 0) -> np.ndarray:
        """T^k x0 for k = start, ..., start + n - 1, as step_n gives them."""
        return self._power(require_finite(x0), _steps(start, n))

    def descriptor(self) -> dict:
        return dict(type="rotation", alpha=self.alpha, minimal=self.minimal)

    def __repr__(self):
        return f"RotationBase(alpha={self.alpha!r})"


class ParabolicBase(_CircleMap):
    """Projective action of the unimodular shear [[1, 0], [1, 1]] on the circle.

    Chart: x in [0, 1) corresponds to the projective direction of angle
    pi * x, i.e. to t = tan(pi * x) in R u {inf}; the shear acts there as
    t -> t / (t + 1), with unique fixed point t = 0 (x = 0).  On the chart
    away from the gluing point x = 1/2 the map reads t -> t / (1 + t).
    All forward orbits converge to the fixed point from the x > 0 side.
    """

    fixed_point = 0.0

    def _power(self, x, k):
        # Homogeneous coordinates (sin pi x : cos pi x); the k-th power of
        # the shear is [[1, 0], [k, 1]], exact in float for |k| < 2^53.
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        return np.arctan2(s, k * s + c) / np.pi % 1.0

    def orbit(self, x0: float, n: int, start: int = 0) -> np.ndarray:
        """T^k x0 for k = start, ..., start + n - 1, as step_n gives them."""
        return self._power(require_finite(x0), _steps(start, n))

    def descriptor(self) -> dict:
        return {"type": "parabolic"}

    def __repr__(self):
        return "ParabolicBase()"


def base_from_descriptor(desc: dict):
    """Build a base map from its JSON descriptor."""
    kind = desc.get("type")
    if kind == "rotation":
        alpha = desc.get("alpha", "golden")
        if alpha == "golden":
            alpha = GOLDEN_MEAN
        try:
            alpha = float(alpha)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"alpha = {alpha!r} is not a number") from exc
        return RotationBase(alpha, minimal=desc.get("minimal", True))
    if kind == "parabolic":
        return ParabolicBase()
    raise ConfigInvalid(f"unknown base descriptor {desc!r}")


def is_dense(xs: np.ndarray, delta: float) -> bool:
    """True iff the nonempty points ``xs`` of [0, 1) are delta-dense: no
    gap between circularly consecutive points exceeds 2 delta."""
    xs = np.sort(xs)
    gaps = np.diff(xs)
    max_gap = max(
        float(gaps.max(initial=0.0)),
        float(1.0 - xs[-1] + xs[0]),
    )
    return max_gap <= 2.0 * delta


def _require_probe(x: float, n: int, delta: float):
    """Raise unless 1 <= n <= 1e7, 0 < delta < inf and x is finite."""
    if not (1 <= n <= 10 ** 7 and 0.0 < delta < np.inf):
        raise ConfigInvalid(f"n = {n} and delta = {delta!r}: a probe needs "
                            f"1 <= n <= 1e7 and 0 < delta < inf")
    require_finite(x)


def minimality_probe(base, x0: float, n: int, delta: float) -> bool:
    """True iff the first ``n`` forward iterates are delta-dense in [0, 1)."""
    _require_probe(x0, n, delta)
    return is_dense(base.orbit(x0, n), delta)


def return_times(base, x: float, delta: float, n: int) -> np.ndarray:
    """All 1 <= k <= n with d(T^k x, x) < delta, ascending."""
    _require_probe(x, n, delta)
    xs = base.orbit(x, n + 1)
    close = circle_distance(xs, x) < delta
    ks = np.nonzero(close)[0]
    return ks[ks >= 1]
