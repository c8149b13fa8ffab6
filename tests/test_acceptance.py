"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The reference parameter set is a = 10 m, k = 6.28e-2 1/m, 45 deg N,
density jump 4e-3.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves import verify
from pollardwaves.flowfield import Flow

from conftest import (REF_A, REF_K, REF_S0, both_roots, derivative_discriminant, nondim_of,
                      refine_root)
from equatorial import solve_equatorial


def report_line(number, name, passed):
    print(f"acceptance {number} ({name}): {'PASS' if passed else 'FAIL'}")


def test_criterion_1_exact_solution_residuals(ref_params, site45):
    """Euler residuals <= 1e-12 over a 16x16x5 (theta, s, t) grid in < 1 s."""
    config = verify.VerifyConfig(n_theta=16, n_s=16, n_time=5, n_random=1)
    grid = [a[:16 * 16 * 5] for a in verify._grid(ref_params, config)]  # the lattice alone
    assert grid[0].size == 16 * 16 * 5
    start = time.perf_counter()
    report = verify.check_euler(Flow(ref_params, *grid), config)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.max_residual <= 1e-12 and elapsed < 1.0
    report_line(1, "exact-solution residuals", ok)
    assert report.max_residual <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_dispersion_bracket_theorem():
    """20x20 sweep of (eps, F), as (alpha, beta): two real roots inside the bracket estimates,
    confirmed by a brute-force sign scan, in < 5 s."""
    start = time.perf_counter()
    xs = np.linspace(-3.0, 3.0, 60001)  # step 1e-4
    ok = True
    for eps in np.linspace(1e-3, 5e-2, 20):
        for F in np.linspace(0.42, 2.4, 20):
            nd = nondim_of(eps, F)
            assert derivative_discriminant(nd) < 0.0
            bracket_plus, bracket_minus = pw.root_brackets(nd)
            x_plus = refine_root(nd, *bracket_plus)
            x_minus = refine_root(nd, *bracket_minus)
            w = float(eps) * float(F)
            assert 0.0 < x_plus - 1.0 < w
            assert 0.0 < x_minus + 1.0 < w
            vals = nd.evaluate(xs)
            idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
            assert len(idx) == 2
            scanned = 0.5 * (xs[idx] + xs[idx + 1])
            assert abs(scanned[0] - x_minus) <= 1e-4
            assert abs(scanned[1] - x_plus) <= 1e-4
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report_line(2, "dispersion bracket theorem", ok)
    assert elapsed < 5.0


def test_criterion_3_equatorial_consistency(constants, strat):
    """Closed-form equatorial roots to 1e-12; the quartic's roots at phi = 0
    within 4 ulp of them, and at phi = 1e-3 rad within 1e-4 relative."""
    c_plus, c_minus = solve_equatorial(constants, strat, REF_K)
    disc = math.sqrt(constants.Omega**2 + REF_K * strat.g_tilde)
    closed = ((constants.Omega + disc) / REF_K,
              (constants.Omega - disc) / REF_K)
    ok = (abs(c_plus - closed[0]) <= 1e-12 * abs(closed[0])
          and abs(c_minus - closed[1]) <= 1e-12 * abs(closed[1]))
    equator = pw.coriolis(constants, 0.0)
    ok = ok and all(abs(c - exact) <= 4 * math.ulp(exact) for (_, c), exact in
                    zip(both_roots(equator, strat, REF_K), (c_plus, c_minus)))
    site = pw.coriolis(constants, 1e-3)
    _, c_near = pw.solve_branch(pw.nondimensionalize(site, strat, REF_K), "positive")
    ok = ok and abs(c_near - c_plus) <= 1e-4 * abs(c_plus)
    report_line(3, "equatorial consistency", ok)
    assert ok


def test_criterion_4_compatibility_chain(ref_params, site45, strat):
    """All compatibility conditions and the dimensional dispersion identity
    hold to 1e-12 relative; a 1% speed perturbation breaks the chain."""

    def chain_residuals(p):
        a, b, c, d, k, m = p.a, p.b, p.c, p.d, p.k, p.m
        f, fh = site45.f, site45.f_hat
        lhs = strat.rho0**2 * m**2 * (c**2 * k**2 - f**2)**2
        rhs = k**4 * (strat.rho0 * c * fh
                      + strat.g * (strat.rho_plus - strat.rho0))**2
        return (
            abs(m * a - k * b) / max(abs(m * a), abs(k * b)),
            abs(k * c * d + b * f) / max(abs(k * c * d), abs(b * f)),
            abs(m * k * c**2 * b + m * c * d * f - k**2 * c**2 * a)
            / (k**2 * c**2 * a),
            abs(b**2 - a**2 - d**2) / b**2,
            abs(lhs - rhs) / max(abs(lhs), abs(rhs)),
        )

    clean = chain_residuals(ref_params)
    perturbed = chain_residuals(dataclasses.replace(ref_params, c=1.01 * ref_params.c))
    ok = max(clean) <= 1e-12 and max(perturbed) >= 1e-4
    report_line(4, "compatibility-condition chain", ok)
    assert max(clean) <= 1e-12
    assert max(perturbed) >= 1e-4


def test_criterion_5_orbit_geometry(ref_params, constants, strat):
    """Circular orbits of radius b e^(-m s), tilt arctan(|d|/a), hemisphere
    sign flip of d."""
    radius = ref_params.b * math.exp(-ref_params.m * REF_S0)
    period = 2.0 * math.pi / (ref_params.k * ref_params.c)
    center = np.array([0.0, 0.0, REF_S0])
    orbit = np.array(Flow(ref_params, 0.0, 0.0, REF_S0, np.linspace(0.0, period, 10_000))
                     .position)
    dist = np.linalg.norm(orbit - center[:, None], axis=0)
    worst = float(np.max(np.abs(dist - radius) / radius))
    v1 = np.array(Flow(ref_params, 0.0, 0.0, REF_S0, 0.0).position) - center
    v2 = np.array(Flow(ref_params, 0.0, 0.0, REF_S0, period / 4.0).position) - center
    normal = np.cross(v1, v2)
    normal /= np.linalg.norm(normal)
    tilt = math.acos(min(1.0, abs(normal[1])))
    tilt_err = abs(tilt - math.atan(abs(ref_params.d) / ref_params.a))
    south_site = pw.coriolis(constants, math.radians(-45.0))
    south_nd = pw.nondimensionalize(south_site, strat, REF_K)
    _, south_c = pw.solve_branch(south_nd, "positive")
    south = pw.derive_parameters(south_nd, REF_A, south_c, REF_S0, 2000.0)
    sign_flip = ref_params.d < 0.0 < south.d
    ok = worst <= 1e-12 and tilt_err <= 1e-10 and sign_flip
    report_line(5, "orbit geometry", ok)
    assert worst <= 1e-12
    assert tilt_err <= 1e-10
    assert sign_flip


def test_criterion_6_decay_law(ref_params):
    """Profile amplitude at s0 + L/2 is e^(-m L / 2) of the thermocline
    amplitude (about e^(-pi), i.e. under 4%)."""
    qs = np.linspace(0.0, ref_params.L, 1024)
    base = Flow(ref_params, qs, 0.0, REF_S0, 0.0).position[2]
    upper = Flow(ref_params, qs, 0.0, REF_S0 + ref_params.L / 2.0, 0.0).position[2]
    p2p = lambda z: z.max() - z.min()
    ratio = p2p(upper) / p2p(base)
    expected = math.exp(-ref_params.m * ref_params.L / 2.0)
    ok = (abs(ratio - expected) <= 1e-6 * expected
          and abs(ratio - math.exp(-math.pi)) <= 1e-4)
    report_line(6, "decay law", ok)
    assert ratio == pytest.approx(expected, rel=1e-6)
    assert ratio == pytest.approx(math.exp(-math.pi), abs=1e-4)


def test_criterion_7_incompressibility_and_vorticity(ref_params, equatorial):
    """J time-invariant to 1e-14, FD divergence <= 1e-6 k c, vorticity
    matches the FD curl to 1e-5 and the equatorial closed forms."""
    reports = {r.check_name: r
               for r in pw.run_all(ref_params, verify.VerifyConfig(n_random=100))}
    inc, vort = reports["incompressibility"], reports["vorticity"]
    inc_fams = {c.name: c for c in inc.components}
    vort_fams = {c.name: c for c in vort.components}
    jac_ok = inc_fams["jacobian_time_invariance"].max_residual <= 1e-14
    div_ok = inc_fams["eulerian_divergence"].max_residual <= 1e-6
    curl_ok = vort_fams["fd_curl"].max_residual <= 1e-5
    mp_ok = vort_fams["matrix_product"].max_residual <= 1e-12
    eq_ok = True
    k, c = equatorial.k, equatorial.c
    for s in (55.0, 75.0):
        w1, w2, w3 = Flow(equatorial, 1.0, 0.0, s, 3.0).vorticity
        e2 = math.exp(-2.0 * k * s)
        expected = 2.0 * k * c * e2 / (1.0 - e2)
        eq_ok = eq_ok and w1 == 0.0 and w3 == 0.0
        eq_ok = eq_ok and abs(w2 - expected) <= 1e-12 * expected
    ok = jac_ok and div_ok and curl_ok and mp_ok and eq_ok
    report_line(7, "incompressibility and vorticity", ok)
    assert jac_ok and div_ok and curl_ok and mp_ok and eq_ok


def test_criterion_8_boundary_conditions(ref_params):
    """Dynamic residual <= 1e-9 |P0| and kinematic FD residual <= 1e-8 on
    the thermocline."""
    config = verify.VerifyConfig()
    report = verify.check_boundary(Flow(ref_params, *verify._grid(ref_params, config, sheet=True)),
                                   config)
    families = {c.name: c for c in report.components}
    dyn_ok = families["dynamic_condition"].max_residual <= 1e-9
    kin_ok = families["kinematic_condition"].max_residual <= 1e-8
    ok = dyn_ok and kin_ok and report.passed
    report_line(8, "boundary conditions", ok)
    assert dyn_ok and kin_ok and report.passed


def test_criterion_9_determinism(tmp_path):
    """cmd_verify twice with identical config and seed is byte-identical."""
    from pollardwaves.cli import main
    args = ["verify", "--n-theta", "8", "--n-s", "6", "--n-time", "3",
            "--n-random", "16", "--seed", "123"]
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    report_line(9, "determinism", ok)
    assert ok
