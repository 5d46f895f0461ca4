"""Evaluation of trigonometric polynomials against the direct mode sum."""

import numpy as np
import pytest

from cocyclelab.trigpoly import TWO_PI_I, TrigPoly


def direct_sum(poly, thetas):
    """sum_n c[n] exp(2 pi i n theta), one exp per mode and point."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros(thetas.shape, dtype=complex)
    for n, c in poly.coeffs.items():
        out += c * np.exp(TWO_PI_I * n * thetas)
    return out


POLYS = {
    "dense": TrigPoly.random(4, np.random.default_rng(3)),
    "dense-high": TrigPoly.random(24, np.random.default_rng(4)),
    "sparse": TrigPoly({7: 1.0 - 2.0j, -2: 0.5, 0: 3.0}),
    "positive-only": TrigPoly({3: 1.0j, 5: -0.25}),
    "negative-only": TrigPoly({-1: 2.0, -6: 1.0 + 1.0j}),
    "constant": TrigPoly.constant(2.5 - 1.0j),
}


@pytest.mark.parametrize("name", sorted(POLYS))
def test_horner_matches_direct_sum(name, rng):
    poly = POLYS[name]
    thetas = np.concatenate([rng.random(2000), rng.uniform(-3.0, 3.0, 200),
                             np.arange(64) / 64.0])
    scale = sum(abs(c) for c in poly.coeffs.values())
    assert np.abs(poly(thetas) - direct_sum(poly, thetas)).max() <= 1e-14 * scale


def test_scalar_and_shape():
    poly = POLYS["sparse"]
    value = poly(0.3)
    assert isinstance(value, complex)
    assert abs(value - direct_sum(poly, 0.3)) <= 1e-14 * 4.5
    grid = np.arange(12).reshape(3, 4) / 12.0
    assert poly(grid).shape == (3, 4)
    assert TrigPoly.zero()(grid).shape == (3, 4)
    assert TrigPoly.zero()(0.2) == 0
