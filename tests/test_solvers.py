"""The safeguarded Newton solvers of ``dispersion``: 50-digit oracles and work counts.

The dispersion roots are compared with ``mpmath.polyroots`` and the interface
label with a 50-digit root of the thermocline-constant map.  The work counts
repeat exactly, so a return to bisection fails them loudly.
"""

import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pollardwaves as pw
from pollardwaves import cli, dispersion as dsp
from pollardwaves.cli import RunConfig, solve_configured
from pollardwaves.errors import InputError, NumericError

from conftest import (REF_A, REF_BETA0_OFFSET, REF_K, REF_S0, both_roots,
                      derivative_discriminant, nondim_of, refine_root)
from test_domain import draws as domain_draws

MP_DIGITS = 50


def critical_epsilon(F):
    """eps at which the discriminant of P' reaches zero for this F."""
    return (13.5 * F**2 / (1.0 + F**2) ** 3) ** 0.25


# criterion 2's (eps, F) grid, rotation near zero, and the discriminant
# boundary at F where the negative root keeps |P'| near 1; for F of about 2-3
# P' vanishes at that root as eps reaches the boundary, and no double-precision
# evaluation of P holds it to a few ulp there.  Each (eps, F) is solved as
# (alpha, beta) = (eps^2 (1 + F^2), eps F).
ROOT_CASES = (
    [(float(eps), float(F)) for eps in np.linspace(1e-3, 5e-2, 20)
     for F in np.linspace(0.42, 2.4, 20)]
    + [(eps, F) for eps in (1e-8, 1e-6, 1e-4) for F in (0.05, 1.0, 20.0)]
    + [(frac * critical_epsilon(F), F) for F in (5.0, 10.0, 20.0)
       for frac in (0.5, 0.9, 0.99, 0.999, 0.999999)]
)


def ulps_from(x, exact):
    with mpmath.workdps(MP_DIGITS):
        return float(abs(mpmath.mpf(x) - exact) / math.ulp(x))


def exact_real_roots(nd):
    """The real roots of P, ascending, in 50-digit arithmetic with the
    double-precision coefficients taken as exact."""
    with mpmath.workdps(MP_DIGITS):
        coeffs = (1.0, 0.0, -nd.alpha, -2.0 * nd.beta, -1.0)
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs],
                                 maxsteps=200, extraprec=200)
        return sorted(mpmath.re(r) for r in roots
                      if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30)


def test_roots_match_mpmath_polyroots():
    worst = 0.0
    for eps, F in ROOT_CASES:
        nd = nondim_of(eps, F)
        assert derivative_discriminant(nd) < 0.0
        real = exact_real_roots(nd)
        assert len(real) == 2, (eps, F)
        bracket_plus, bracket_minus = pw.root_brackets(nd)
        x_plus = refine_root(nd, *bracket_plus)
        x_minus = refine_root(nd, *bracket_minus)
        for x, exact in ((x_plus, real[1]), (x_minus, real[0])):
            distance = ulps_from(x, exact)
            assert distance <= 4.0, (eps, F, x, distance)
            worst = max(worst, distance)
    assert worst > 0.0  # the oracle is not comparing a root with itself


def strat_of(jump):
    return pw.reduced_gravity(pw.PhysicalConstants(), 1000.0, 1000.0 + jump)


def site_of(lat_deg):
    return pw.coriolis(pw.PhysicalConstants(), math.radians(lat_deg))


def nondim_at(lat_deg, jump, k):
    return pw.nondimensionalize(site_of(lat_deg), strat_of(jump), k)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def site_roots_checked(lat_deg, jump, k):
    """(X+, X-) of solve_branch at one site, each solved in at most 7 Newton
    steps (calls for P and P') and checked against the 50-digit root to 4 ulp."""
    nd = nondim_at(lat_deg, jump, k)
    x_minus, x_plus = exact_real_roots(nd)
    solved = []
    for branch, exact in (("positive", x_plus), ("negative", x_minus)):
        with pytest.MonkeyPatch.context() as patch:
            steps = count_calls(patch, pw.NondimDispersion, "value_and_slope")
            x, _ = pw.solve_branch(nd, branch)
        assert 1 <= len(steps) <= 7, (lat_deg, jump, k, branch)
        assert ulps_from(x, exact) <= 4.0, (lat_deg, jump, k, branch)
        solved.append(x)
    return tuple(solved)


def threshold_of(jump):
    return 4.0 * pw.PhysicalConstants().Omega**2 / strat_of(jump).g_tilde


# the Equator, 1e-8 deg and 15-85 deg in alternate hemispheres, density jumps
# 0.5, 4 and 20, and k from just above the 4 Omega^2 / g_tilde threshold to 1e7 times it
SITE_CASES = [
    (lat, jump, factor * threshold_of(jump))
    for lat in (0.0, 1e-8, 15.0, -25.0, 35.0, -45.0, 55.0, -65.0, 75.0, -85.0)
    for jump in (0.5, 4.0, 20.0)
    for factor in (1.0 + 1e-12, *(10.0**e for e in range(1, 8)))]


def test_roots_match_mpmath_polyroots_at_every_latitude():
    solved = [site_roots_checked(*case) for case in SITE_CASES]
    assert all(x_minus < 0.0 < x_plus for x_plus, x_minus in solved)
    # 75 and 85 deg just above the threshold, where alpha / sqrt(13.5) > cos(lat):
    # P' has three real zeros there, and P still one root on each side of 0
    assert sum(derivative_discriminant(nondim_at(*case)) >= 0.0 for case in SITE_CASES) == 6


# `dispersion --lat 82.6 --k 4.6e-6`, then lat 60-89.99 deg (89 deg and above in
# both hemispheres), density jumps of 0.5-20 and k from (1 + 1e-12) to 10 times
# the 4 Omega^2 / g_tilde threshold
HIGH_LATITUDE_CASES = [(82.6, 4.0, 4.6e-6)] + [
    (lat, jump, factor * threshold_of(jump))
    for lat in (60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 89.0, -89.0, 89.9, -89.9, 89.99, -89.99)
    for jump in (0.5, 20.0)
    for factor in (1.0 + 1e-12, 1.0 + 1e-9, 1.001, 1.01, 1.1, 1.5, 2.0, 4.0, 10.0)]


def test_high_latitude_roots_match_mpmath_polyroots():
    """Where P(-1) <= 0 the negative root lies below -1 (long waves at high
    latitudes), and near the poles P' has three real zeros; both roots still
    meet the 50-digit roots to 4 ulp in at most 7 Newton steps each."""
    solved = [site_roots_checked(*case) for case in HIGH_LATITUDE_CASES]
    below = sum(x_minus < -1.0 for _, x_minus in solved)
    assert below >= 10  # the P(-1) <= 0 side is reached, the CLI's point first
    three_zeros = sum(derivative_discriminant(nondim_at(*case)) >= 0.0
                      for case in HIGH_LATITUDE_CASES)
    assert three_zeros == 142  # the region the two-real-root analysis left out


def domain_sites(n, seed):
    """n (lat_deg, jump, k) drawn from a fixed seed: 1 in 8 on the Equator, the
    rest at up to 89 deg either side; density jumps of 1e-3 to 50 kg/m^3 and
    k of 1.0001 to 1e8 times the 4 Omega^2 / g_tilde threshold, log-uniform."""
    rng = random.Random(seed)
    sites = []
    for _ in range(n):
        lat_deg = 0.0 if rng.random() < 0.125 else rng.uniform(-89.0, 89.0)
        jump = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        factor = math.exp(rng.uniform(math.log(1.0001), math.log(1e8)))
        sites.append((lat_deg, jump, factor * threshold_of(jump)))
    return sites


def test_seeded_domain_roots_start_inside_their_brackets():
    """Over 7,282 roots (3,641 drawn sites, both branches) each Newton loop
    starts in its root_brackets bracket, between the inner end and the root
    (to 2 ulp at the Equator, where the start is the root), and takes at most
    7 steps (8 from the bracket's outer end); every 60th site meets the
    50-digit roots to 4 ulp.  About 0.3 s on a 2-core host."""
    starts, steps_taken = [], []
    pair = pw.NondimDispersion.value_and_slope
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pw.NondimDispersion, "value_and_slope",
                      lambda nd, x: starts.append(x) or pair(nd, x))
        for index, (lat_deg, jump, k) in enumerate(domain_sites(3641, seed=25)):
            nd = nondim_at(lat_deg, jump, k)
            solved = []
            for branch, (inner, outer) in zip(("positive", "negative"), pw.root_brackets(nd)):
                starts.clear()
                x, _ = pw.solve_branch(nd, branch)
                start = starts[0]
                assert min(inner, outer) <= start <= max(inner, outer), (lat_deg, k, branch)
                assert abs(start) <= abs(x) + 2.0 * math.ulp(x), (lat_deg, k, branch)
                steps_taken.append(len(starts))
                solved.append(x)
            if index % 60 == 0:
                x_minus, x_plus = exact_real_roots(nd)
                assert ulps_from(solved[0], x_plus) <= 4.0, (lat_deg, k)
                assert ulps_from(solved[1], x_minus) <= 4.0, (lat_deg, k)
    assert len(steps_taken) == 7282 and max(steps_taken) <= 7
    assert min(steps_taken) == 1  # the Equator's start is its root


def test_negative_bracket_stays_below_zero():
    # P(-1) <= 0, so X- < -1; and P(-1) > 0 with beta = 1.5, so -1 < X- < 0
    for nd in (nondim_at(82.6, 4.0, 4.6e-6),
               nondim_of(math.sqrt(0.05), 1.5 / math.sqrt(0.05))):
        assert derivative_discriminant(nd) < 0.0
        _, (inner, outer) = pw.root_brackets(nd)
        x_minus = exact_real_roots(nd)[0]
        assert outer < x_minus < inner == 0.0
        assert (x_minus < -1.0) == (nd.evaluate(-1.0) <= 0.0)
        assert ulps_from(refine_root(nd, inner, outer), x_minus) <= 4.0


def test_newton_doubles_its_distance_from_lo_on_a_bracket_open_above():
    """fun = x^3 - 3x - 100 falls on (-1, 1): from x = 0 the Newton step and the
    zero slope at x = 1 leave (lo, inf), so x - lo doubles from lo = -1 (0, 1,
    3) before Newton meets the root near 4.9 to 4 ulp."""
    iterates = []

    def fun(x):
        iterates.append(x)
        return (x * x - 3.0) * x - 100.0, 3.0 * x * x - 3.0

    x = dsp._newton(fun, -1.0, math.inf, 0.0, 0.0)
    assert iterates[:3] == [0.0, 1.0, 3.0]
    assert len(iterates) <= 9
    with mpmath.workdps(MP_DIGITS):
        exact = mpmath.findroot(lambda v: v**3 - 3 * v - 100, 4.9)
    assert ulps_from(x, exact) <= 4.0


def test_newton_raises_at_its_iteration_cap():
    """A function below 0 everywhere, with a zero slope, on a bracket open above:
    x doubles each step and never meets a root or an unhalvable bracket."""
    calls = []
    with pytest.raises(NumericError, match=f"within {dsp._MAX_STEPS} steps"):
        dsp._newton(lambda x: calls.append(x) or (-1.0, 0.0), 0.0, math.inf, 1.0, 0.0)
    assert calls == [2.0**i for i in range(dsp._MAX_STEPS)]


def test_roots_on_one_side_of_zero_are_rejected(monkeypatch, ref_nd):
    """Given the other branch's bracket, each branch's root fails its sign check,
    and the dispersion command, which solves both, exits 3."""
    plus, minus = pw.root_brackets(ref_nd)
    monkeypatch.setattr(dsp, "root_brackets", lambda nd: (minus, plus))
    for branch in ("positive", "negative"):
        with pytest.raises(NumericError, match=f"the {branch} root .* wrong side of 0"):
            pw.solve_branch(ref_nd, branch)
    assert cli.main(["dispersion"]) == cli.EXIT_NUMERIC


def grid_site(eps, F, strat):
    """(site, k) whose polynomial has this (eps, F), to rounding: F = cot(phi)
    and eps = f / sqrt(g_tilde k)."""
    site = pw.coriolis(pw.PhysicalConstants(), math.atan2(1.0, F))
    return site, site.f**2 / (eps**2 * strat.g_tilde)


def test_branch_solve_equals_both_root_solve(strat):
    """On criterion 2's (eps, F) grid, mapped to sites, and on the lat 60-85 deg
    grid, solve_branch's X and c equal Newton on root_brackets bit for bit."""
    cases = [(*grid_site(float(eps), float(F), strat), strat)
             for eps in np.linspace(1e-3, 5e-2, 20) for F in np.linspace(0.42, 2.4, 20)]
    cases += [(site_of(lat_deg), k, strat_of(jump)) for lat_deg, jump, k in HIGH_LATITUDE_CASES]
    solved = 0
    for site, k, case_strat in cases:
        nd = pw.nondimensionalize(site, case_strat, k)
        for branch, bracket in zip(("positive", "negative"), pw.root_brackets(nd)):
            x, c = pw.solve_branch(nd, branch)
            assert x.hex() == refine_root(nd, *bracket).hex()
            assert c.hex() == (x * math.sqrt(case_strat.g_tilde / k)).hex()
        solved += 1
    assert solved == 400 + len(HIGH_LATITUDE_CASES)  # every case, at every latitude


def exact_map(strat, f, f_hat, k, c, a, b, d, m):
    """The thermocline-constant map F(s) = (rho_plus - rho0) g s - rho0 A e^(-2 m s)
    of mpf parameters, in the working precision of its caller."""
    rho0, rho_plus, g = map(mpmath.mpf, (strat.rho0, strat.rho_plus, strat.g))
    wave = (-k**2 * c**2 * b**2 + f_hat * k * c * a * b - f * k * c * b * d) / 2
    return lambda s: (rho_plus - rho0) * g * s - rho0 * wave * mpmath.exp(-2 * m * s)


def interface_root(site, strat, params):
    """s solving the thermocline-constant map = beta0 in 50-digit arithmetic,
    with the double-precision parameters taken as exact."""
    with mpmath.workdps(MP_DIGITS):
        p = params
        F = exact_map(strat, *map(mpmath.mpf, (site.f, site.f_hat, p.k, p.c, p.a, p.b,
                                               p.d, p.m)))
        return mpmath.findroot(lambda s: F(s) - p.beta0, mpmath.mpf(p.s_plus))


def exact_parameters(config):
    """(params, exact, F(s0)): the solve_configured set of a config, the
    50-digit values of its solved fields c, m, b, d, L, P0_tilde, beta0 and
    s_plus, and the map at s0, which P0_tilde = P0 - F(s0) cancels against.

    The 50-digit solve takes the same doubles as exact: f, f_hat, rho0,
    rho_plus, g, k, a, s0 and the beta0 offset, with g_tilde formed in 50
    digits.  Its roots, X of P and the label s_plus, are met from the double
    solve's own."""
    _, site, strat, params = solve_configured(config)
    with mpmath.workdps(MP_DIGITS):
        mp = mpmath.mpf
        f, f_hat, k, a, s0 = map(mp, (site.f, site.f_hat, config.k, config.amplitude,
                                      config.s0))
        g_tilde = mp(strat.g) * (mp(strat.rho_plus) - mp(strat.rho0)) / mp(strat.rho0)
        alpha, beta = (f**2 + f_hat**2) / (g_tilde * k), f_hat / mpmath.sqrt(g_tilde * k)
        x = mpmath.findroot(lambda X: X**4 - alpha * X**2 - 2 * beta * X - 1,
                            mp(params.c) * mpmath.sqrt(k / g_tilde))
        c = x * mpmath.sqrt(g_tilde / k)
        m = mpmath.sqrt(k**4 * c**2 / (k**2 * c**2 - f**2))
        b, d = m * a / k, -f * m * a / (k**2 * c)
        F = exact_map(strat, f, f_hat, k, c, a, b, d, m)
        map_s0 = F(s0)
        beta0 = map_s0 + mp(config.beta0_offset)
        s_plus = mpmath.findroot(lambda s: F(s) - beta0, mp(params.s_plus))
        exact = {"c": c, "m": m, "b": b, "d": d, "L": 2 * mpmath.pi / k,
                 "P0_tilde": dsp.P0_STANDARD - map_s0, "beta0": beta0, "s_plus": s_plus}
    return params, exact, map_s0


# Worst ulps of each solved field from its 50-digit value over test_domain's
# draws (181 admitted), each bound just above the worst at version 0.14.0:
# c 1.62, m 2.06, b 2.30, d 3.57, L 0.84, P0_tilde 0.88, beta0 1.22, s_plus 2.24.
# P0_tilde's is in ulps of max(P0, |F(s0)|): P0 - F(s0) cancels at large s0,
# and 0.88 ulp of that scale was 33 ulp of P0_tilde itself.
FIELD_ULPS = {"c": 1.7, "m": 2.1, "b": 2.4, "d": 3.6, "L": 0.9,
              "P0_tilde": 0.9, "beta0": 1.3, "s_plus": 2.3}


def test_every_solved_field_meets_a_50_digit_solve():
    """Every WaveParameters field over test_domain's draws, with density jumps
    down to 1e-3 kg/m^3: the inputs and the gauge P0 exactly, and each solved
    field within its FIELD_ULPS bound of exact_parameters.  Version 0.12.0's
    s_plus, off by up to 2.2e-5 m at the smallest jumps, misses by 8e5 ulp."""
    worst, admitted = dict.fromkeys(FIELD_ULPS, 0.0), 0
    for config in domain_draws():
        try:
            params, exact, map_s0 = exact_parameters(config.validate())
        except InputError:
            continue
        admitted += 1
        _, site, strat = cli._setting(config)
        assert (params.a, params.k, params.s0, params.P0, params.f, params.f_hat,
                params.strat) == (config.amplitude, config.k, config.s0, dsp.P0_STANDARD,
                                  site.f, site.f_hat, strat)
        for name, value in exact.items():
            got = getattr(params, name)
            if name == "P0_tilde":
                scale = math.ulp(max(params.P0, abs(float(map_s0))))
                with mpmath.workdps(MP_DIGITS):
                    miss = float(abs(mpmath.mpf(got) - value) / scale)
            else:
                miss = ulps_from(got, value)
            worst[name] = max(worst[name], miss)
    assert admitted == 181
    assert all(worst[name] <= FIELD_ULPS[name] for name in FIELD_ULPS), worst
    assert worst["c"] > 0.0  # the oracle is not comparing a solve with itself


def interface_tolerance(site, strat, params):
    """1e-9 m, widened to 4 ulp(s) and to the map's own roundoff: 4 eps times
    the sum of the magnitudes of the reduced form's terms, (rho_plus - rho0) g s
    and rho0 A e^(-2 m s) with A's own terms, over its slope."""
    p, s = params, params.s_plus
    e2 = math.exp(-2.0 * p.m * s)
    wave = (p.k**2 * p.c**2 * p.b**2 + abs(site.f_hat * p.k * p.c * p.a * p.b)
            + abs(site.f * p.k * p.c * p.b * p.d))
    terms = strat.rho0 * 0.5 * wave * e2 + (strat.rho_plus - strat.rho0) * strat.g * s
    slope = strat.rho0 * strat.g_tilde * (1.0 - (p.m * p.a) ** 2 * e2)
    roundoff = 4.0 * np.finfo(float).eps * terms / slope
    return max(dsp.INTERFACE_TOL, 4.0 * math.ulp(s)) + roundoff


def solved_site(lat_deg, jump, k_over_threshold, branch):
    constants = pw.PhysicalConstants()
    site = pw.coriolis(constants, math.radians(lat_deg))
    strat = pw.reduced_gravity(constants, 1000.0, 1000.0 + jump)
    nd = pw.nondimensionalize(site, strat, k_over_threshold * pw.min_wavenumber(site, strat))
    return nd, pw.solve_branch(nd, branch)[1]


@settings(max_examples=80, deadline=None)
@given(lat_deg=st.one_of(st.just(0.0), st.floats(0.0, 89.99), st.floats(-89.99, 0.0)),
       jump_exp=st.floats(-3.0, math.log10(20.0)),
       k_exp=st.floats(0.05, 7.0),
       steepness=st.floats(0.0, 0.99),
       s0_exp=st.floats(0.0, 8.0),
       offset_exp=st.floats(0.0, 5.0),
       branch=st.sampled_from(("positive", "negative")))
def test_interface_label_property(lat_deg, jump_exp, k_exp, steepness, s0_exp,
                                  offset_exp, branch):
    """Over admitted sets, latitudes down to the smallest doubles, density
    jumps from 1e-3 to 20 kg/m^3 and s0 up to 1e8 m: s_plus > s0 solves the
    map to 1e-9 m (or a few ulp(s) and the map's roundoff) within the
    iteration cap."""
    try:
        nd, c = solved_site(lat_deg, 10.0**jump_exp, 10.0**k_exp, branch)
        m = dsp.orbit_parameters(nd.site.f, nd.k, 1.0, c)[0]
    except InputError:  # the set is not admitted: a typed input error ends the run
        assume(False)
    site, strat, k, s0 = nd.site, nd.strat, nd.k, 10.0**s0_exp
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, dsp, "_interface_map")
        params = pw.derive_parameters(nd, steepness / m, c, s0, 10.0**offset_exp)
    assert params.s_plus > s0
    # A <= 0: the map is convex, so Newton from the upper tangent bound stays above s_plus
    assert dsp.pressure_coefficient_a(params.f, params.f_hat, k, c, params.a, params.b,
                                      params.d) <= 0.0
    # F(s0) and at most _MAX_STEPS Newton iterations
    assert len(calls) <= dsp._MAX_STEPS + 1
    miss = abs(params.s_plus - float(interface_root(site, strat, params)))
    assert miss <= interface_tolerance(site, strat, params)


@pytest.mark.parametrize("lat_deg", [45.0, -30.0, 0.0])
@pytest.mark.parametrize("s0", [10.0, 50.0, 1000.0])
@pytest.mark.parametrize("offset", [1.0, 2000.0, 1e5])
def test_still_water_interface_in_one_step(monkeypatch, lat_deg, s0, offset):
    """a = 0 makes the map linear: the closed-form bracket's upper end is the
    root, and Newton accepts it with its first step."""
    nd, c = solved_site(lat_deg, 4.0, 1e5, "positive")
    calls = count_calls(monkeypatch, dsp, "_interface_map")
    params = pw.derive_parameters(nd, 0.0, c, s0, offset)
    assert len(calls) == 2  # F(s0) and the upper end, the root
    assert abs(params.s_plus - (s0 + offset / (nd.strat.rho0 * nd.strat.g_tilde))) <= 1e-9


def test_reference_solve_work_counts(monkeypatch, site45, strat, ref_nd):
    """Newton's work, counted exactly: bisection took about 47 P evaluations per
    root and 44 map calls.  Each Newton step is one call for (P, P') and the
    residual gate one evaluate; from the root of X^2 - beta X - 1, a root takes
    3 steps at the reference, 1 at the Equator, where that start is the root,
    and 5 at 82.6 deg and k = 4.6e-6 (4, 4 and 5 from the brackets' outer ends).
    The label takes F(s0) and 2 Newton steps, and a configured solve computes
    the wavenumber threshold once, in nondimensionalize's gate."""
    steps = count_calls(monkeypatch, pw.NondimDispersion, "value_and_slope")
    evaluations = count_calls(monkeypatch, pw.NondimDispersion, "evaluate")
    map_calls = count_calls(monkeypatch, dsp, "_interface_map")
    thresholds = count_calls(monkeypatch, dsp, "min_wavenumber")
    (_, c_plus), _ = both_roots(site45, strat, REF_K)
    assert (len(steps), len(evaluations)) == (6, 2)  # both roots
    pw.derive_parameters(ref_nd, REF_A, c_plus, REF_S0, REF_BETA0_OFFSET)
    assert len(map_calls) == 3
    configured = ((RunConfig(), 3), (RunConfig(latitude_deg=82.6, wavenumber=4.6e-6), 5),
                  (RunConfig(latitude_deg=0.0), 1))
    for config, bound in configured:
        for branch in ("positive", "negative"):  # a configured solve: its own branch only
            steps.clear()
            evaluations.clear()
            thresholds.clear()
            solve_configured(dataclasses.replace(config, branch=branch).validate())
            assert (len(steps), len(evaluations)) == (bound, 1), (config.latitude_deg, branch)
            assert len(thresholds) == 1, (config.latitude_deg, branch)
    for eps in np.linspace(1e-3, 5e-2, 20):
        for F in np.linspace(0.42, 2.4, 20):
            nd = nondim_of(eps, F)
            for bracket in pw.root_brackets(nd):
                steps.clear()
                refine_root(nd, *bracket)
                assert len(steps) <= 4, (eps, F)


def test_one_curve_builds_its_site_once(monkeypatch):
    """A 64-config dispersion curve at one site (32 wavenumbers x both branches)
    builds its Site and its Stratification once; the next site builds its own."""
    cli._site_setting.cache_clear()
    sites = count_calls(monkeypatch, cli, "coriolis")
    strats = count_calls(monkeypatch, cli, "reduced_gravity")
    curve = [RunConfig(latitude_deg=-37.5, rho_plus=1003.0, wavenumber=3e-3 * 100.0 ** (j / 31),
                       amplitude=0.2 / (3e-3 * 100.0 ** (j / 31)), branch=branch).validate()
             for j in range(32) for branch in ("positive", "negative")]
    solved = [solve_configured(config)[1:3] for config in curve]
    assert (len(sites), len(strats)) == (1, 1)
    assert all(pair[0] is solved[0][0] and pair[1] is solved[0][1] for pair in solved)
    solve_configured(RunConfig(latitude_deg=37.5, rho_plus=1003.0).validate())
    assert (len(sites), len(strats)) == (2, 2)
    cli._site_setting.cache_clear()


def test_shared_records_are_frozen_and_each_solve_builds_its_own_parameters():
    """Solves share their PhysicalConstants (cli.EARTH), Site and Stratification
    (cli._setting's memo), so these stay frozen; each solve builds its own plain
    WaveParameters, equal to the last one of the same config but not it."""
    constants, site, strat, params = solve_configured(RunConfig().validate())
    for record, name in ((constants, "g"), (site, "f"), (strat, "rho0")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0.0)
    again = solve_configured(RunConfig().validate())[3]
    assert again == params and again is not params


def test_perturb_c_copies_the_solved_set_through_replace(monkeypatch):
    """The negative control replaces c in a copy made by dataclasses.replace and
    leaves the solved set it copied as it was."""
    copies, replace = [], dataclasses.replace

    def spy(record, **changes):
        copies.append((record, dict(vars(record)), changes))
        return replace(record, **changes)

    monkeypatch.setattr(cli.dataclasses, "replace", spy)
    params = solve_configured(RunConfig(perturb_c=0.01).validate())[3]
    [(solved, fields, changes)] = copies
    assert changes == {"c": (1.0 + 0.01) * solved.c}
    assert params is not solved and vars(solved) == fields
    assert params == replace(solved, c=(1.0 + 0.01) * solved.c)
