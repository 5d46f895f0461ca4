"""Circle bases: rotations, the parabolic map, density and return times."""

from fractions import Fraction

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
from cocyclelab.cocycles import ITERATION_CAP
from cocyclelab.errors import ConfigInvalid, NonFinite


def exact_rotation_error(got, x, k, alpha):
    """Circle distance from ``got`` to x + k alpha mod 1 in rationals."""
    d = (Fraction(got) - Fraction(x) - k * Fraction(alpha)) % 1
    return float(min(d, 1 - d))


class TestRotation:
    def test_single_step_mod_one(self):
        base = RotationBase(0.25, minimal=False)
        assert abs(base.step_n(0.9, 1) - 0.15) <= 1e-15

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_step_n_rejects_non_finite_point(self, x):
        with pytest.raises(NonFinite):
            RotationBase(GOLDEN_MEAN).step_n(x, 3)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, alpha):
        with pytest.raises(NonFinite):
            RotationBase(alpha)
        with pytest.raises(NonFinite):
            RotationBase(alpha, minimal=False)

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
        # orbit, step_n and step_many read one T^k formula: the same bits,
        # on both bases and for negative starts too.
        for base in (RotationBase(GOLDEN_MEAN), ParabolicBase()):
            for x in (0.37, 0.9999999, -2.25):
                for start in (-5000, 0, 4095, 12000):
                    orbit = base.orbit(x, 300, start)
                    for i in (0, 1, 150, 299):
                        k = start + i
                        assert orbit[i] == base.step_n(x, k)
                        assert orbit[i] == base.step_many([x], k)[0]

    @pytest.mark.parametrize("base", [RotationBase(GOLDEN_MEAN), ParabolicBase()],
                             ids=repr)
    def test_orbit_slices_equal_the_full_orbit(self, base):
        # Walk blocks start at multiples of 4096; every slice is the same
        # bits as the full orbit's.
        full = base.orbit(0.37, 3 * 4096 + 5)
        for start, n in ((0, 1), (0, 4096), (4095, 2), (4096, 4096),
                         (8192, 4096 + 5), (12000, 0)):
            assert np.array_equal(base.orbit(0.37, n, start),
                                  full[start:start + n])

    def test_long_orbit_accuracy(self):
        # The orbit of the float alpha against its exact rational orbit: at
        # both ends of a 1e6-step orbit, every 99,991 steps up to the
        # iteration cap, and at step_n's 1e9 bound.  A longdouble orbit
        # drifted to 4e-13 over the same range.
        base = RotationBase(GOLDEN_MEAN)
        for x in (0.1, 0.37, 0.9999999):
            orbit = base.orbit(x, 10 ** 6)
            got = [(k, orbit[k]) for k in (1, 10 ** 6 - 1)]
            got += [(k, base.orbit(x, 1, k)[0])
                    for k in range(0, ITERATION_CAP + 1, 99991)]
            got += [(k, base.step_n(x, k)) for k in (-10 ** 9, 10 ** 9)]
            for k, y in got:
                assert exact_rotation_error(y, x, k, base.alpha) <= 3.4e-16

    @pytest.mark.parametrize("base", [RotationBase(GOLDEN_MEAN), ParabolicBase()],
                             ids=repr)
    def test_iterates_beyond_the_bound_rejected(self, base):
        for call in (lambda: base.step_n(0.3, 10 ** 9 + 1),
                     lambda: base.step_many([0.3], -10 ** 9 - 1),
                     lambda: base.orbit(0.3, 2, 10 ** 9),
                     lambda: base.orbit(0.3, 10, -10 ** 9 - 5)):
            with pytest.raises(ConfigInvalid, match="1e9"):
                call()


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

    @pytest.mark.parametrize("probe", [minimality_probe, return_times])
    @pytest.mark.parametrize("n, delta", [
        (0, 0.1), (-3, 0.1), (100, 0.0), (100, -1.0), (100, np.nan),
        (100, np.inf),
    ])
    def test_vacuous_probe_rejected(self, probe, n, delta):
        # A probe with no steps or no admissible radius would pass vacuously.
        base = RotationBase(GOLDEN_MEAN)
        args = (0.3, n, delta) if probe is minimality_probe else (0.3, delta, n)
        with pytest.raises(ConfigInvalid):
            probe(base, *args)

    @pytest.mark.parametrize("probe", [minimality_probe, return_times])
    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, probe, x):
        args = (x, 100, 0.1) if probe is minimality_probe else (x, 0.1, 100)
        with pytest.raises(NonFinite):
            probe(RotationBase(GOLDEN_MEAN), *args)


def test_descriptors_round_trip():
    base = base_from_descriptor({"type": "rotation", "alpha": "golden"})
    assert isinstance(base, RotationBase)
    assert base.alpha == GOLDEN_MEAN
    assert base_from_descriptor(base.descriptor()).alpha == base.alpha
    rational = RotationBase(0.25, minimal=False)
    again = base_from_descriptor(rational.descriptor())
    assert (again.alpha, again.minimal) == (0.25, False)
    assert isinstance(
        base_from_descriptor({"type": "parabolic"}), ParabolicBase
    )
    with pytest.raises(ConfigInvalid):
        base_from_descriptor({"type": "interval-exchange"})
    for alpha in ("abc", [0.1], None):
        with pytest.raises(ConfigInvalid):
            base_from_descriptor({"type": "rotation", "alpha": alpha})
