"""Acceptance battery: every quantitative criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Budgets: criterion 1 must finish under 60 s, criterion 4
under 300 s.
"""

import time

import numpy as np
import pytest

from cocyclelab import spd
from cocyclelab.centers import (
    EuclideanSpace,
    PointSet,
    SPDSpace,
    bt_center,
    check_center_continuity,
    check_diameter_shrink,
    chebyshev_center,
)
from cocyclelab.circle import GOLDEN_MEAN
from cocyclelab.cocycles import (
    boundedness_probe,
    compose_along_orbit,
    shift_twisted_sum,
)
from cocyclelab.presets import (
    coboundary_cocycle,
    conformal_coboundary_cocycle,
    golden_rotation,
    jump_cascade,
    rotation_translation_cocycle,
    scalar_orthogonal_cocycle,
    shift_compact_section,
    shift_geometric,
)
from cocyclelab.reduction import (
    reduce_to_conformal,
    reduce_to_orthogonal,
    sample_fibers,
    section_from_centers,
)
from cocyclelab.solvers import (
    Section,
    TwistedEquation,
    cyclotomic_solve,
    cyclotomic_verify,
    fourier_solve,
    oscillation_profile,
    residual,
    shift_solve_unilateral,
)
from cocyclelab.trigpoly import TrigPoly

from conftest import acute_scalene_triangle, random_spd, tetrahedron

E2 = EuclideanSpace(2)
E3 = EuclideanSpace(3)
S2 = SPDSpace(2)


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_center_continuity():
    rng = np.random.default_rng(1)
    eps_cycle = [1e-3, 1e-2, 1e-1]
    t0 = time.perf_counter()
    e2_pairs, s2_pairs = [], []
    for i in range(500):
        m = int(rng.integers(4, 16))
        pts = rng.random((m, 2)) * rng.uniform(0.5, 2.0)
        eps = eps_cycle[i % 3]
        ang = rng.random(m) * 2.0 * np.pi
        rad = eps * np.sqrt(rng.random(m))
        pts_e = pts + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        e2_pairs.append((PointSet(E2, pts), PointSet(E2, pts_e)))
    for i in range(100):
        m = int(rng.integers(4, 9))
        pts = np.array([random_spd(rng, 2, 0.35) for _ in range(m)])
        eps = eps_cycle[i % 3]
        pts_e = []
        for p in pts:
            s = rng.standard_normal((2, 2))
            s = (s + s.T) / 2.0
            s *= (eps * rng.random()) / max(np.linalg.norm(s), 1e-12)
            root = spd.spd_sqrt(p)
            pts_e.append(spd.symmetrize(root @ spd.spd_exp(s) @ root))
        s2_pairs.append((PointSet(S2, pts), PointSet(S2, np.array(pts_e))))
    # One call per space, as the lemmas command makes.
    reps = check_center_continuity(e2_pairs) + check_center_continuity(s2_pairs)
    ok = all(rep.lhs <= 8.0 * rep.eps * rep.radius + 1e-7 for rep in reps)
    worst_margin = min(rep.rhs + 1e-7 - rep.lhs for rep in reps)
    cases = len(reps)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    verdict(1, ok,
            f"d^2 <= 8 eps r_B + 1e-7 on {cases} perturbed sets "
            f"(worst margin {worst_margin:.2e}), {elapsed:.1f}s < 60s")


def test_criterion_02_diameter_shrink():
    rng = np.random.default_rng(2)
    worst = 0.0
    ok = True
    for _ in range(500):
        m = int(rng.integers(3, 12))
        rep = check_diameter_shrink(PointSet(E2, rng.random((m, 2))))
        ok &= rep.passed
        worst = max(worst, rep.ratio)
    tetra = check_diameter_shrink(PointSet(E3, tetrahedron()))
    sharp_gap = abs(tetra.ratio - 1.0 / np.sqrt(2.0))
    ok &= worst <= 1.0 / np.sqrt(2.0) + 1e-9
    ok &= sharp_gap <= 1e-9
    verdict(2, ok,
            f"500 random sets ratio <= 1/sqrt(2)+1e-9 (worst {worst:.3f}); "
            f"tetrahedron gap {sharp_gap:.1e} <= 1e-9")


def test_criterion_03_ctr_vs_ctr_star():
    pts = acute_scalene_triangle()
    sides = [
        (np.linalg.norm(pts[i] - pts[j]), i, j)
        for i in range(3) for j in range(i + 1, 3)
    ]
    _, i, j = max(sides)
    ps = PointSet(E2, pts)
    star = bt_center(ps)
    mid_err = np.linalg.norm(star - (pts[i] + pts[j]) / 2.0)
    cheb = chebyshev_center(ps).center
    gap = np.linalg.norm(star - cheb)
    ok = mid_err <= 1e-6 and gap > 1e-3
    verdict(3, ok,
            f"ctr* hits the longest-side midpoint ({mid_err:.1e} <= 1e-6) "
            f"and differs from ctr by {gap:.3f} > 1e-3")


def test_criterion_04_orthogonal_reduction_pipeline():
    t0 = time.perf_counter()
    c = coboundary_cocycle(s0_norm=0.7)
    x0 = 0.2
    v0 = c.oracle_section(x0)

    oracle_res = reduce_to_orthogonal(c, c.oracle_section)

    fb = sample_fibers(c, x0, v0, 200_000, 512)
    got = section_from_centers(fb)
    res = reduce_to_orthogonal(c, got.section)

    fb_fine = sample_fibers(c, x0, v0, 800_000, 1024)
    got_fine = section_from_centers(fb_fine)
    res_fine = reduce_to_orthogonal(c, got_fine.section)

    elapsed = time.perf_counter() - t0
    # Every cell's centre is the certified midpoint of a farthest pair.
    certified = sum(len(s) == 2 for s in got.center_supports)
    ok = (res.defect <= 1e-2
          and oracle_res.defect <= 1e-9
          and res_fine.defect < res.defect
          and certified == 512
          and elapsed < 300.0)
    verdict(4, ok,
            f"defect {res.defect:.2e} <= 1e-2 at 512 cells / 2e5 steps; "
            f"oracle defect {oracle_res.defect:.1e} <= 1e-9; refinement "
            f"{res_fine.defect:.2e} < {res.defect:.2e}; {certified}/512 "
            f"centres certified; {elapsed:.0f}s < 300s")


def test_criterion_05_conformal_reduction_pipeline():
    so = scalar_orthogonal_cocycle()
    fb_so = sample_fibers(so, 0.2, np.eye(2), 8000, 64, conformal=True)
    res_so = reduce_to_conformal(
        so, section_from_centers(fb_so).section
    )
    c = conformal_coboundary_cocycle(s0_norm=0.7)
    fb = sample_fibers(c, 0.2, c.oracle_section(0.2), 200_000, 512,
                       conformal=True)
    got = section_from_centers(fb)
    res_cb = reduce_to_conformal(c, got.section)
    # Every cell's centre is the certified midpoint of a farthest pair.
    certified = sum(len(s) == 2 for s in got.center_supports)
    ok = (res_so.defect <= 1e-9
          and res_so.distortion_max_deviation <= 1e-6
          and res_cb.defect <= 1e-2
          and certified == 512)
    verdict(5, ok,
            f"scalar x orthogonal: defect {res_so.defect:.1e} <= 1e-9, "
            f"K-1 <= {res_so.distortion_max_deviation:.1e} <= 1e-6; "
            f"conformal coboundary via centers: defect "
            f"{res_cb.defect:.2e} <= 1e-2, {certified}/512 centres certified")


def test_criterion_06_twisted_fourier_solver():
    rng = np.random.default_rng(6)
    rho = TrigPoly.random(8, rng)
    grid = np.arange(4096) / 4096

    eq = TwistedEquation(GOLDEN_MEAN, 1.0, rho)
    phi = fourier_solve(eq)
    res_twisted = residual(eq, phi, 4096)

    rho0 = rho - TrigPoly.constant(rho.coeffs.get(0, 0.0))
    eq0 = TwistedEquation(GOLDEN_MEAN, 0.0, rho0)
    phi0 = fourier_solve(eq0)
    res_classical = float(np.max(np.abs(
        phi0.poly(grid + GOLDEN_MEAN) - phi0.poly(grid) - rho0(grid)
    )))

    eq_pi = TwistedEquation(GOLDEN_MEAN, np.pi, rho)
    phi_pi = fourier_solve(eq_pi)
    res_alternating = float(np.max(np.abs(
        phi_pi.poly(grid + GOLDEN_MEAN) + phi_pi.poly(grid) - rho(grid)
    )))

    ok = max(res_twisted, res_classical, res_alternating) <= 1e-10
    verdict(6, ok,
            f"degree-8 rho: twisted residual {res_twisted:.1e}, "
            f"untwisted (zero-mean) {res_classical:.1e}, "
            f"sign-alternating (beta = pi) {res_alternating:.1e}; "
            f"all <= 1e-10")


def test_criterion_07_cyclotomic_equivalence():
    rng = np.random.default_rng(7)
    rho = TrigPoly.random(8, rng)
    worst = 0.0
    for q in (2, 3, 5):
        phi = cyclotomic_solve(rho, GOLDEN_MEAN, 1.0, q)
        worst = max(worst, cyclotomic_verify(phi, rho, GOLDEN_MEAN, 1.0, q))
    ok = worst <= 1e-8
    verdict(7, ok,
            f"q in {{2, 3, 5}}: worst q-term substitution residual "
            f"{worst:.1e} <= 1e-8")


def test_criterion_08_shift_formulas():
    geo = shift_geometric(truncation=20, levels=20)
    sol = shift_solve_unilateral(geo, 0.3)
    inv_ok = sol.invariance_residual <= 1e-10
    bound_ok = sol.coordinate_bound <= 2.0 + 1e-12  # 2C with C = sup rho_0

    compact = shift_compact_section()
    base = compact.base
    phi = compact.known_section
    thetas = base.orbit(0.3, 64)
    c_bound = max(
        np.sqrt(sum(abs(p(x)) ** 2 for p in phi.values())) for x in thetas
    )
    worst = 0.0
    for y in thetas[::7]:
        for n in (1, 4, 12, 30):
            _, coords = shift_twisted_sum(compact, float(y), n)
            worst = max(worst, float(np.linalg.norm(coords)))
    orbit_ok = worst <= 2.0 * c_bound + 1e-6
    ok = inv_ok and bound_ok and orbit_ok
    verdict(8, ok,
            f"one-sided invariance residual {sol.invariance_residual:.1e} "
            f"<= 1e-10; geometric coordinate bound "
            f"{sol.coordinate_bound:.6f} <= 2; twisted sums on invariant "
            f"samples {worst:.4f} <= 2C + 1e-6 = {2 * c_bound + 1e-6:.4f}")


def test_criterion_09_counterexample():
    jc = jump_cascade()
    v0 = np.array([0.5])
    probe = boundedness_probe(jc.cocycle, 0.3, v0, 100_000)
    bound = 2.0 * jc.sup_psi + float(np.linalg.norm(v0))
    orbit_ok = probe.sup_norm <= bound

    thetas = np.arange(4096) / 4096
    section = Section.from_samples(thetas, jc.candidate_values(thetas))
    profile = oscillation_profile(section, 0.0, [0.05, 0.02, 0.01])
    osc_ok = min(profile.values()) >= 0.9 * jc.jump
    ok = orbit_ok and osc_ok
    verdict(9, ok,
            f"1e5-step orbit sup {probe.sup_norm:.4f} <= 2 sup|psi| + |v0| "
            f"= {bound:.1f}; oscillation proxy at the fixed point >= "
            f"{min(profile.values()):.3f} >= 0.9 x jump at every scale")


def test_criterion_10_cocycle_algebra_and_equivariance():
    rng = np.random.default_rng(10)
    base = golden_rotation()
    c = rotation_translation_cocycle(base, 0.7, TrigPoly.random(3, rng))
    worst = 0.0
    for _ in range(1000):
        j, k = (int(t) for t in rng.integers(1, 40, 2))
        x = float(rng.random())
        whole = compose_along_orbit(c, x, j + k)
        split = compose_along_orbit(c, base.step_n(x, k), j).compose(
            compose_along_orbit(c, x, k)
        )
        worst = max(worst, whole.distance_to(split))
    split_ok = worst <= 1e-10

    worst_eq = 0.0
    worst_gap = 0.0
    for _ in range(5):
        pts = np.array([random_spd(rng, 2, 0.5) for _ in range(6)])
        ps = PointSet(S2, pts)
        g = rng.standard_normal((2, 2)) + 1.5 * np.eye(2)
        mapped = PointSet(
            S2, np.array([spd.gl_action(g, p) for p in pts])
        )
        a = chebyshev_center(ps)
        b = chebyshev_center(mapped)
        worst_eq = max(worst_eq, spd.spd_distance(spd.gl_action(g, a.center),
                                                  b.center))
        for rep in (a, b):
            worst_gap = max(worst_gap, (rep.radius - rep.lower_bound)
                            / max(rep.radius, 1.0))
    eq_ok = worst_eq <= 1e-6
    gap_ok = worst_gap <= 1e-12
    ok = split_ok and eq_ok and gap_ok
    verdict(10, ok,
            f"splitting identity on 1e3 random (j, k, x): worst "
            f"{worst:.1e} <= 1e-10; GL(2) center equivariance on Pos(2): "
            f"worst {worst_eq:.1e} <= 1e-6; certified gap {worst_gap:.1e} "
            f"<= 1e-12")
