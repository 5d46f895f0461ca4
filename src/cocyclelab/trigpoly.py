"""Finite trigonometric polynomials on the circle [0, 1).

A polynomial is a finite table of complex coefficients ``c[n]`` for
``|n| <= degree`` and evaluates as  sum_n c[n] exp(2*pi*i*n*theta).
These are the data and solution spaces of the scalar twisted equations.
"""

from __future__ import annotations

import json
import cmath

import numpy as np

TWO_PI_I = 2.0j * np.pi


class TrigPoly:
    """Immutable finite Fourier series with integer frequencies."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, complex]):
        self.coeffs = {int(n): complex(c) for n, c in coeffs.items() if c != 0}

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def modes(self):
        return sorted(self.coeffs)

    def __call__(self, theta):
        """Evaluate at a scalar or an ndarray of angles in turns.

        One exp per point, z = e^{2 pi i theta}, and Horner's rule over the
        mode range: in z for the modes n >= 0 and in conj(z) = 1/z for the
        modes n < 0."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        if self.coeffs:
            z = np.exp(TWO_PI_I * theta)
            lo, hi = min(self.coeffs), max(self.coeffs)
            for n in range(hi, -1, -1):
                out *= z
                out += self.coeffs.get(n, 0.0)
            if lo < 0:
                w = z.conj()
                neg = np.zeros_like(out)
                for n in range(lo, 0):
                    neg += self.coeffs.get(n, 0.0)
                    neg *= w
                out += neg
        if out.shape == ():
            return complex(out)
        return out

    def shift(self, a: float) -> "TrigPoly":
        """Precompose with the rotation by ``a``: theta -> theta + a."""
        return TrigPoly(
            {n: c * cmath.exp(2j * cmath.pi * n * a) for n, c in self.coeffs.items()}
        )

    def scale(self, z: complex) -> "TrigPoly":
        return TrigPoly({n: z * c for n, c in self.coeffs.items()})

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0.0) + c
        return TrigPoly(out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1.0)

    def sup_norm(self, grid: int = 4096) -> float:
        thetas = np.arange(grid) / grid
        return float(np.max(np.abs(self(thetas))))

    # -- serialization: {"n": [re, im], ...} --------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {str(n): [c.real, c.imag] for n, c in sorted(self.coeffs.items())}
        )

    @classmethod
    def from_json(cls, text: str) -> "TrigPoly":
        raw = json.loads(text)
        return cls({int(n): complex(re, im) for n, (re, im) in raw.items()})

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls({})

    @classmethod
    def constant(cls, c: complex) -> "TrigPoly":
        return cls({0: c})

    @classmethod
    def single_mode(cls, n: int, c: complex = 1.0) -> "TrigPoly":
        return cls({n: c})

    @classmethod
    def random(cls, degree: int, rng: np.random.Generator,
               amplitude: float = 1.0) -> "TrigPoly":
        """Dense random polynomial with i.i.d. complex Gaussian coefficients."""
        coeffs = {}
        for n in range(-degree, degree + 1):
            coeffs[n] = amplitude * complex(rng.standard_normal(),
                                            rng.standard_normal())
        return cls(coeffs)

    def __repr__(self):
        return f"TrigPoly(degree={self.degree}, modes={len(self.coeffs)})"
