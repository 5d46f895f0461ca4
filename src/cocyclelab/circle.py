"""Base systems on the circle [0, 1): irrational rotations and one
deliberately non-minimal parabolic map.

Points are mod-1 representatives; the metric is the wrap-around distance
d(x, y) = min(|x - y|, 1 - |x - y|).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ConfigInvalid, NonFinite

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0

# Largest denominator checked when certifying that a rotation angle is not
# rational, hence that the rotation is minimal for all practical horizons.
MINIMALITY_DENOMINATOR = 10 ** 6


def circle_distance(x, y):
    """Wrap-around distance on [0, 1), elementwise."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


class RotationBase:
    """Rigid rotation x -> x + alpha (mod 1)."""

    def __init__(self, alpha: float, minimal: bool = True):
        alpha = float(alpha) % 1.0
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
        self._alpha_frac = Fraction(alpha)

    def step(self, x: float) -> float:
        return (x + self.alpha) % 1.0

    def step_n(self, x: float, k: int) -> float:
        """k-th iterate, exact: x + k*alpha is reduced in rational arithmetic.

        The float inputs are themselves dyadic rationals, so the reduction
        mod 1 is exact and only the final conversion rounds.
        """
        if abs(k) > 10 ** 9:
            raise ConfigInvalid("|k| exceeds the 1e9 iteration bound")
        if not np.isfinite(x):
            raise NonFinite(f"base point x = {x!r} is not finite")
        return float((Fraction(x) + k * self._alpha_frac) % 1)

    def orbit(self, x0: float, n: int) -> np.ndarray:
        """Forward orbit x0, T x0, ..., T^{n-1} x0.

        Accumulation k*alpha is carried in extended precision so 1e6-step
        orbits stay accurate to ~1e-13.
        """
        ks = np.arange(n, dtype=np.longdouble)
        xs = np.mod(np.longdouble(x0) + ks * np.longdouble(self.alpha), 1.0)
        return xs.astype(float)

    def step_many(self, xs: np.ndarray, k: int = 1) -> np.ndarray:
        """k-th iterate of an array of points."""
        return np.mod(np.asarray(xs, dtype=float) + k * self.alpha, 1.0)

    def descriptor(self) -> dict:
        return {"type": "rotation", "alpha": self.alpha}

    def __repr__(self):
        return f"RotationBase(alpha={self.alpha!r})"


class ParabolicBase:
    """Projective action of the unimodular shear [[1, 0], [1, 1]] on the circle.

    Chart: x in [0, 1) corresponds to the projective direction of angle
    pi * x, i.e. to t = tan(pi * x) in R u {inf}; the shear acts there as
    t -> t / (t + 1), with unique fixed point t = 0 (x = 0).  On the chart
    away from the gluing point x = 1/2 the map reads t -> t / (1 + t).
    All forward orbits converge to the fixed point from the x > 0 side.
    """

    fixed_point = 0.0

    def step(self, x: float) -> float:
        return self.step_n(x, 1)

    def step_n(self, x: float, k: int) -> float:
        if abs(k) > 10 ** 9:
            raise ConfigInvalid("|k| exceeds the 1e9 iteration bound")
        # Homogeneous coordinates (sin pi x : cos pi x); the k-th power of
        # the shear is [[1, 0], [k, 1]], exact in float for |k| < 2^53.
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        return float(np.arctan2(s, k * s + c) / np.pi % 1.0)

    def orbit(self, x0: float, n: int) -> np.ndarray:
        ks = np.arange(n, dtype=float)
        s = np.sin(np.pi * x0)
        c = np.cos(np.pi * x0)
        return np.arctan2(s, ks * s + c) / np.pi % 1.0

    def step_many(self, xs: np.ndarray, k: int = 1) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        s = np.sin(np.pi * xs)
        c = np.cos(np.pi * xs)
        return np.arctan2(s, k * s + c) / np.pi % 1.0

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
        return RotationBase(float(alpha), minimal=desc.get("minimal", True))
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


def minimality_probe(base, x0: float, n: int, delta: float) -> bool:
    """True iff the first ``n`` forward iterates are delta-dense in [0, 1)."""
    if n > 10 ** 7:
        raise ConfigInvalid("n exceeds the 1e7 probe bound")
    return is_dense(base.orbit(x0, n), delta)


def return_times(base, x: float, delta: float, n: int) -> np.ndarray:
    """All 1 <= k <= n with d(T^k x, x) < delta, ascending."""
    if n > 10 ** 7:
        raise ConfigInvalid("n exceeds the 1e7 probe bound")
    xs = base.orbit(x, n + 1)
    close = circle_distance(xs, x) < delta
    ks = np.nonzero(close)[0]
    return ks[ks >= 1]
