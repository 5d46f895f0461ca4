"""Shared fixtures and independent oracles for the test suite.

The oracles here (exact minimum enclosing circle by Welzl's algorithm,
exact minimum enclosing ball by support-set enumeration, brute-force scans,
a high-precision Decimal geodesic of Pos(2)) are deliberately separate from
the library code paths they check.  The
per-cell references run the library's one-matrix kernels one cell at a
time, against the stacked paths of the reduction.
"""

import itertools
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cocyclelab import spd

sys.setrecursionlimit(10000)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_spd(rng, n=2, spread=0.5):
    g = rng.standard_normal((n, n))
    s = (g + g.T) / 2.0
    s *= spread / max(np.linalg.norm(s), 1e-12)
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(vals)) @ vecs.T


def constant_generators(a):
    """The array-valued generator map of the constant cocycle x -> a."""
    return lambda xs: np.tile(a, (len(xs), 1, 1))


def reference_spd_distance(P, Q):
    """d(P, Q) from the eigenvalues of the Cholesky-whitened L^{-1} Q L^{-T}."""
    w = np.linalg.inv(np.linalg.cholesky(P))
    lam = np.linalg.eigvalsh(w @ Q @ w.T)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def _decimal_spectral_2x2(m, fn):
    """fn of the symmetric 2x2 (a, b, c) = [[a, b], [b, c]] by its
    eigendecomposition in Decimal: eigenvalues by the quadratic formula,
    eigenvectors (b, lam - a)."""
    a, b, c = m
    if b == 0:
        return fn(a), Decimal(0), fn(c)
    mid = (a + c) / 2
    root = (((a - c) / 2) ** 2 + b * b).sqrt()
    out = [Decimal(0)] * 3
    for lam in (mid + root, mid - root):
        v0, v1 = b, lam - a
        weight = fn(lam) / (v0 * v0 + v1 * v1)
        out[0] += weight * v0 * v0
        out[1] += weight * v0 * v1
        out[2] += weight * v1 * v1
    return tuple(out)


def _decimal_congruence_2x2(s, m):
    """s m s for symmetric 2x2 triples (a, b, c)."""
    (sa, sb, sc), (ma, mb, mc) = s, m
    r00, r01 = sa * ma + sb * mb, sa * mb + sb * mc
    r10, r11 = sb * ma + sc * mb, sb * mb + sc * mc
    return r00 * sa + r01 * sb, r00 * sb + r01 * sc, r10 * sb + r11 * sc


def reference_geodesic_2x2(P, Q, t, digits=40):
    """P^{1/2} (P^{-1/2} Q P^{-1/2})^t P^{1/2} in ``digits``-digit Decimal
    arithmetic, every matrix function by eigendecomposition, rounded once
    to float at the end."""
    with localcontext() as ctx:
        ctx.prec = digits
        p = tuple(Decimal(float(v)) for v in (P[0, 0], P[0, 1], P[1, 1]))
        q = tuple(Decimal(float(v)) for v in (Q[0, 0], Q[0, 1], Q[1, 1]))
        power = Decimal(float(t))
        root = _decimal_spectral_2x2(p, lambda v: v.sqrt())
        inv_root = _decimal_spectral_2x2(p, lambda v: 1 / v.sqrt())
        m = _decimal_congruence_2x2(inv_root, q)
        g = _decimal_congruence_2x2(root, _decimal_spectral_2x2(m, lambda v: v ** power))
        return np.array([[float(g[0]), float(g[1])], [float(g[1]), float(g[2])]])


def tetrahedron(side=1.0):
    pts = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    return pts * (side / np.sqrt(8.0))


def acute_scalene_triangle():
    # Side lengths ~ (1.17, 1.08, 1.0): all angles below 90 degrees.
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.42, 1.02]])


# -- exact minimum enclosing circle (Welzl), the planar center oracle --------

def _circle_two(p, q):
    c = (p + q) / 2.0
    return c, float(np.linalg.norm(p - c))


def _circle_three(p1, p2, p3):
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-30:
        return None
    ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
          + (cx ** 2 + cy ** 2) * (ay - by)) / d
    uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
          + (cx ** 2 + cy ** 2) * (bx - ax)) / d
    c = np.array([ux, uy])
    return c, float(np.linalg.norm(p1 - c))


def _trivial_circle(R):
    if len(R) == 0:
        return np.zeros(2), 0.0
    if len(R) == 1:
        return R[0], 0.0
    if len(R) == 2:
        return _circle_two(R[0], R[1])
    for i in range(3):
        for j in range(i + 1, 3):
            c, r = _circle_two(R[i], R[j])
            if all(np.linalg.norm(p - c) <= r + 1e-12 for p in R):
                return c, r
    return _circle_three(*R)


def _welzl(P, R):
    if not P or len(R) == 3:
        return _trivial_circle(R)
    p = P.pop()
    c, r = _welzl(P, R)
    if np.linalg.norm(p - c) <= r + 1e-12:
        P.append(p)
        return c, r
    res = _welzl(P, R + [p])
    P.append(p)
    return res


def exact_min_enclosing_circle(pts):
    P = [np.asarray(p, float) for p in pts]
    random.Random(0).shuffle(P)
    return _welzl(P, [])


# -- exact minimum enclosing ball by support-set enumeration, d <= 3 ---------

def _circumball(support):
    """Centre and radius of the ball through ``support`` whose centre lies
    in the affine hull of ``support``; None for an affinely dependent set."""
    p0 = support[0]
    a = support[1:] - p0
    gram = a @ a.T
    if abs(np.linalg.det(gram)) <= 1e-12 * max(np.trace(gram), 1e-300) ** len(a):
        return None
    lam = np.linalg.solve(gram, 0.5 * (a * a).sum(axis=1))
    c = p0 + lam @ a
    return c, float(np.linalg.norm(support - c, axis=1).max())


def exact_min_enclosing_ball(pts):
    """Minimum enclosing ball of a small point set in R^d by enumeration.

    The minimum enclosing ball is the circumball, taken in the affine hull,
    of a support set of 2 to d + 1 points. Enumerate all such sets, keep the
    balls that cover every point, and return the smallest. Exact up to
    rounding; meant for the handful of points and d <= 3 the tests use.
    """
    pts = np.asarray(pts, float)
    best_c, best_r = None, np.inf
    for k in range(2, pts.shape[1] + 2):
        for idx in itertools.combinations(range(len(pts)), k):
            ball = _circumball(pts[list(idx)])
            if ball is None:
                continue
            c, r = ball
            if r < best_r and np.linalg.norm(pts - c, axis=1).max() <= r + 1e-12:
                best_c, best_r = c, r
    return best_c, best_r


# -- per-cell references for the stacked reduction ----------------------------

def reference_oracle_distances(section, oracle):
    """d(phi(x_i), phi*(x_i)) one cell at a time: one scalar oracle call
    and one spd_distance per cell."""
    return np.array([
        spd.spd_distance(value, oracle(theta))
        for theta, value in zip(section.thetas, section.values)
    ])


def reference_invariance_residual(fb, values):
    """sup_i d(A(x_i) . phi(x_i), phi(x_i + alpha)) one cell at a time:
    the scalar generator, one gl_action or conf_action and one
    spd_distance per cell, x_i + alpha matched to its nearest cell."""
    residual = 0.0
    for i, x in enumerate(fb.cell_centers()):
        a = fb.cocycle.generator(x)
        image = (spd.conf_action(a, values[i]) if fb.conformal
                 else spd.gl_action(a, values[i]))
        j = int(fb.cocycle.base.step(x) * fb.cells) % fb.cells
        residual = max(residual, spd.spd_distance(image, values[j]))
    return residual


# -- sequential references for the orbit kernels ------------------------------

def sequential_prefix_products(gens):
    """M[0] = I and M[j] = gens[j-1] @ M[j-1]: one left product per step."""
    out = [np.eye(gens.shape[-1])]
    for g in gens:
        out.append(g @ out[-1])
    return np.array(out)


def sequential_congruence_orbit(gens, p0, conformal):
    """P_0 = p0 and P_{k+1} = A_k P_k A_k^T, symmetrized, and rescaled to
    det 1 when ``conformal``: the points P_0 .. P_k."""
    out = [p0]
    for a in gens:
        p = a @ out[-1] @ a.T
        p = (p + p.T) / 2.0
        if conformal:
            p = p / np.linalg.det(p) ** (1.0 / len(p))
        out.append(p)
    return np.array(out)


def sequential_skew_orbit(linears, translations, v0):
    """v_0 = v0 and v_{j+1} = linears[j] @ v_j + translations[j]."""
    out = [np.asarray(v0, dtype=float)]
    for psi, rho in zip(linears, translations):
        out.append(psi @ out[-1] + rho)
    return np.array(out)
