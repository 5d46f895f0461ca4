"""Tests of the benchmark's own references (``oracles.py``).

Each reference is checked against a second derivation: a closed form
against a direct loop, a distance against its diagonal closed form and its
invariances, an exact section against the skew invariance it must satisfy.
"""

import numpy as np
import pytest

import oracles
import workloads

ALPHA = oracles.GOLDEN_MEAN


def _random_spd(rng, n, spread=0.8):
    g = rng.standard_normal((n, n))
    return oracles.sym_expm(spread * (g + g.T) / 2.0, [1.0])[0]


@pytest.mark.parametrize("n", [2, 3])
def test_distance_matches_diagonal_closed_form(n):
    rng = np.random.default_rng(1)
    a = rng.uniform(0.2, 5.0, size=n)
    bs = rng.uniform(0.2, 5.0, size=(6, n))
    got = oracles.spd_distances(np.diag(a), np.array([np.diag(b) for b in bs]))
    exact = np.sqrt(np.sum(np.log(bs / a) ** 2, axis=1))
    np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_distance_is_symmetric_and_congruence_invariant(n):
    rng = np.random.default_rng(2)
    p, q = _random_spd(rng, n), _random_spd(rng, n)
    g = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    d = oracles.spd_distances(p, q[None])[0]
    assert oracles.spd_distances(q, p[None])[0] == pytest.approx(d, rel=1e-12)
    moved = oracles.spd_distances(g @ p @ g.T, (g @ q @ g.T)[None])[0]
    assert moved == pytest.approx(d, rel=1e-10)


def test_pairwise_max_is_the_largest_scan():
    rng = np.random.default_rng(3)
    pts = np.array([_random_spd(rng, 3) for _ in range(9)])
    scans = max(oracles.spd_distances(p, pts).max() for p in pts)
    assert oracles.spd_pairwise_max(pts) == pytest.approx(scans, rel=1e-12)


def _rotation(beta):
    return np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])


def _loop_norms(ks, x0, linear, translation, step):
    """|S_k| by iterating v <- linear v + rho(x), x <- T x."""
    out, v, x = {}, np.zeros(len(translation(x0))), x0
    for k in range(1, max(ks) + 1):
        v = linear @ v + translation(x)
        x = step(x)
        out[k] = np.linalg.norm(v)
    return np.array([out[k] for k in ks])


def _rotate(x):
    return (x + ALPHA) % 1.0


def test_birkhoff_rotation_closed_form_matches_loop():
    ks, x0, beta = [1, 2, 7, 50, 333], 0.3, 0.9

    def rho(x):
        return np.array([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)])

    direct = _loop_norms(ks, x0, _rotation(beta), rho, _rotate)
    np.testing.assert_allclose(oracles.birkhoff_rotation_norms(ks, beta), direct,
                               rtol=1e-10, atol=1e-12)


def test_birkhoff_coboundary_closed_form_matches_loop():
    ks, x0, beta = [1, 3, 40, 257], 0.71, 1.7
    coeffs = oracles.random_trig_coeffs(4, np.random.default_rng(4))

    def rho(x):
        z = (oracles.trig_eval(coeffs, [x + ALPHA])[0]
             - np.exp(1j * beta) * oracles.trig_eval(coeffs, [x])[0])
        return np.array([z.real, z.imag])

    direct = _loop_norms(ks, x0, _rotation(beta), rho, _rotate)
    np.testing.assert_allclose(oracles.birkhoff_coboundary_norms(ks, x0, beta, coeffs),
                               direct, rtol=1e-10, atol=1e-12)


def test_birkhoff_cascade_closed_form_matches_loop():
    ks, x0 = [1, 2, 10, 500], 0.37

    def step(x):
        return float(oracles.parabolic_step_n(x, [1])[0])

    def rho(x):
        return np.array([x % 1.0 - step(x)])

    direct = _loop_norms(ks, x0, np.eye(1), rho, step)
    np.testing.assert_allclose(oracles.birkhoff_cascade_norms(ks, x0), direct,
                               rtol=1e-10, atol=1e-12)


def test_parabolic_step_n_composes():
    x = 0.42
    once = float(oracles.parabolic_step_n(x, [1])[0])
    twice = float(oracles.parabolic_step_n(once, [1])[0])
    assert oracles.parabolic_step_n(x, [2])[0] == pytest.approx(twice, abs=1e-14)


def test_fourier_and_cyclotomic_solutions_satisfy_their_equations():
    t = np.linspace(0.0, 1.0, 17)
    beta = 1.3
    phi = oracles.fourier_single_mode
    lhs = phi(t + ALPHA, beta) - np.exp(1j * beta) * phi(t, beta)
    np.testing.assert_allclose(lhs, np.exp(2j * np.pi * t), atol=1e-13)
    for q in (1, 2, 3):
        lhs = sum(np.exp(1j * k * beta / q)
                  * oracles.cyclotomic_single_mode(t + (q - k - 1) * ALPHA / q, beta, q)
                  for k in range(q))
        np.testing.assert_allclose(lhs, np.exp(2j * np.pi * t), atol=1e-12)


def test_geometric_shift_coords_satisfy_the_shift_recurrence():
    # For constant data the invariance phi(T x)_n = rho_n + phi(x)_{n-1}
    # reads c_n = rho_n + c_{n-1}.
    ratio, levels = 0.5, 12
    n = np.arange(-5, 30)
    c = oracles.geometric_shift_coords(n, ratio, levels)
    rho = np.where((n >= 0) & (n <= levels), ratio ** np.clip(n, 0, None), 0.0)
    np.testing.assert_allclose(c[1:], rho[1:] + c[:-1], rtol=1e-15, atol=0)
    assert c.max() <= 1.0 / (1.0 - ratio)


def test_pos3_section_is_skew_invariant():
    """A(x) phi*(x) A(x)^T = phi*(x + alpha) for the 3x3 coboundary the
    reduce-pos3 workload hands to the program."""
    cocycle = workloads.pos3_cocycle()
    phi_star = oracles.ExpSection(workloads.POS3_S0)
    xs = np.linspace(0.0, 1.0, 13, endpoint=False)
    for x, here, there in zip(xs, phi_star(xs), phi_star((xs + ALPHA) % 1.0)):
        a = cocycle.generator(x)
        np.testing.assert_allclose(a @ here @ a.T, there, rtol=1e-12, atol=1e-12)
        q = oracles.rotation_about(workloads.POS3_AXIS, 2 * np.pi * x)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-14)
        assert np.linalg.det(q) == pytest.approx(1.0)
