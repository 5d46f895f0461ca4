"""Shared fixtures and independent oracles for the test suite.

The oracles here (exact minimum enclosing circle by Welzl's algorithm,
exact minimum enclosing ball by support-set enumeration, brute-force scans)
are deliberately separate from the library code paths they check.
"""

import itertools
import random
import sys

import numpy as np
import pytest

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


def reference_spd_distance(P, Q):
    """d(P, Q) from the eigenvalues of the Cholesky-whitened L^{-1} Q L^{-T}."""
    w = np.linalg.inv(np.linalg.cholesky(P))
    lam = np.linalg.eigvalsh(w @ Q @ w.T)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


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
