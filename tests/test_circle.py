"""Circle bases: rotations, the parabolic map, density and return times."""

import numpy as np
import pytest

from cocyclelab.circle import (
    GOLDEN_MEAN,
    ParabolicBase,
    RotationBase,
    base_from_descriptor,
    circle_distance,
    minimality_probe,
    return_times,
)
from cocyclelab.errors import ConfigInvalid, NonFinite


class TestRotation:
    def test_single_step_mod_one(self):
        base = RotationBase(0.25, minimal=False)
        assert abs(base.step_n(0.9, 1) - 0.15) <= 1e-15

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_step_n_rejects_non_finite_point(self, x):
        with pytest.raises(NonFinite):
            RotationBase(GOLDEN_MEAN).step_n(x, 3)

    def test_minimal_flag_rejects_rationals(self):
        with pytest.raises(ConfigInvalid):
            RotationBase(0.25)
        with pytest.raises(ConfigInvalid):
            RotationBase(0.375)
        # float(1/3) is a dyadic rational with a huge denominator: accepted.
        RotationBase(1.0 / 3.0)

    def test_golden_fibonacci_returns(self):
        # Best approximations: d(F_n alpha) = |F_n alpha - F_{n-1}|.
        base = RotationBase(GOLDEN_MEAN)
        x = 0.3
        for f_prev, f in ((21, 34), (34, 55), (55, 89), (89, 144)):
            got = circle_distance(base.step_n(x, f), x)
            want = abs(f * GOLDEN_MEAN - f_prev)
            assert abs(got - want) <= 1e-9

    def test_step_composition(self):
        base = RotationBase(GOLDEN_MEAN)
        x = 0.123456
        for j, k in ((3, 5), (10000, -9999), (-271, 54), (9876, 10000)):
            once = base.step_n(x, j + k)
            twice = base.step_n(base.step_n(x, j), k)
            assert circle_distance(once, twice) <= 1e-12

    def test_rotation_is_base_isometry(self):
        base = RotationBase(GOLDEN_MEAN)
        x, y = 0.2, 0.55
        assert abs(
            circle_distance(base.step(x), base.step(y)) - circle_distance(x, y)
        ) <= 1e-15

    def test_orbit_matches_step_n(self):
        base = RotationBase(GOLDEN_MEAN)
        orbit = base.orbit(0.37, 2000)
        for k in (0, 1, 999, 1999):
            assert circle_distance(orbit[k], base.step_n(0.37, k)) <= 1e-12

    def test_long_orbit_accuracy(self):
        base = RotationBase(GOLDEN_MEAN)
        orbit = base.orbit(0.1, 10 ** 6)
        k = 10 ** 6 - 1
        assert circle_distance(orbit[k], base.step_n(0.1, k)) <= 1e-12


class TestParabolic:
    def test_unique_fixed_point(self):
        base = ParabolicBase()
        assert circle_distance(base.step(0.0), 0.0) <= 1e-12
        # No other fixed point: displacement is bounded away from zero on a
        # grid excluding the fixed point.
        xs = np.linspace(0.02, 0.98, 400)
        moved = circle_distance(base.step_many(xs), xs)
        assert moved.min() > 1e-4

    def test_forward_orbit_converges_to_fixed_point(self):
        base = ParabolicBase()
        orbit = base.orbit(0.3, 2000)
        dists = circle_distance(orbit, 0.0)
        # Monotone decay beyond a short transient, limit 0.
        assert np.all(np.diff(dists[10:]) <= 1e-15)
        assert dists[-1] <= 1e-3

    def test_matrix_power_composition(self):
        base = ParabolicBase()
        x = 0.77
        for j, k in ((5, 9), (100, -50), (10000, 123)):
            once = base.step_n(x, j + k)
            twice = base.step_n(base.step_n(x, j), k)
            assert circle_distance(once, twice) <= 1e-12

    def test_inverse_step(self):
        base = ParabolicBase()
        x = 0.41
        assert circle_distance(base.step_n(base.step(x), -1), x) <= 1e-13


class TestProbes:
    def test_golden_is_dense(self):
        base = RotationBase(GOLDEN_MEAN)
        assert minimality_probe(base, 0.1, 10 ** 4, 1e-3)

    def test_quarter_rotation_is_not(self):
        base = RotationBase(0.25, minimal=False)
        assert not minimality_probe(base, 0.1, 1000, 0.1)

    def test_parabolic_is_not(self):
        base = ParabolicBase()
        assert not minimality_probe(base, 0.3, 10 ** 5, 0.2)

    def test_return_times_golden_contains_fibonacci(self):
        base = RotationBase(GOLDEN_MEAN)
        ks = set(return_times(base, 0.3, 0.01, 200).tolist())
        assert {55, 89, 144}.issubset(ks)

    def test_return_times_match_brute_force(self):
        base = RotationBase(GOLDEN_MEAN)
        ks = return_times(base, 0.3, 0.05, 500)
        brute = [
            k for k in range(1, 501)
            if circle_distance(base.step_n(0.3, k), 0.3) < 0.05
        ]
        assert ks.tolist() == brute

    def test_parabolic_returns_empty(self):
        base = ParabolicBase()
        assert len(return_times(base, 0.3, 0.01, 10 ** 4)) == 0


def test_descriptors_round_trip():
    base = base_from_descriptor({"type": "rotation", "alpha": "golden"})
    assert isinstance(base, RotationBase)
    assert base.alpha == GOLDEN_MEAN
    assert base_from_descriptor(base.descriptor()).alpha == base.alpha
    assert isinstance(
        base_from_descriptor({"type": "parabolic"}), ParabolicBase
    )
    with pytest.raises(ConfigInvalid):
        base_from_descriptor({"type": "interval-exchange"})
