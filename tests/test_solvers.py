"""The safeguarded Newton solvers of ``dispersion``: 50-digit oracles and work counts.

The dispersion roots are compared with ``mpmath.polyroots`` and the interface
label with a 50-digit root of the thermocline-constant map.  The work counts
repeat exactly, so a return to bisection fails them loudly.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pollardwaves as pw
from pollardwaves import dispersion as dsp
from pollardwaves.dispersion import _bisect_newton
from pollardwaves.errors import ConvergenceError, InputError

from conftest import REF_A, REF_BETA0_OFFSET, REF_K, REF_S0

MP_DIGITS = 50


def critical_epsilon(F):
    """eps at which the discriminant of P' reaches zero for this F."""
    return (13.5 * F**2 / (1.0 + F**2) ** 3) ** 0.25


# criterion 2's (eps, F) grid, rotation near zero, and the discriminant
# boundary at F where the negative root keeps |P'| near 1; for F of about 2-3
# P' vanishes at that root as eps reaches the boundary, and no double-precision
# evaluation of P holds it to a few ulp there
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
        roots = mpmath.polyroots([mpmath.mpf(c) for c in nd.coeffs],
                                 maxsteps=200, extraprec=200)
        return sorted(mpmath.re(r) for r in roots
                      if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30)


def test_roots_match_mpmath_polyroots():
    worst = 0.0
    for eps, F in ROOT_CASES:
        nd = pw.NondimDispersion(epsilon=eps, F=F)
        assert nd.discriminant < 0.0
        real = exact_real_roots(nd)
        assert len(real) == 2, (eps, F)
        (lo_p, hi_p), (lo_m, hi_m) = pw.root_brackets(nd)
        x_plus = _bisect_newton(nd, lo_p, hi_p, 1e-12)
        x_minus = _bisect_newton(nd, lo_m, hi_m, 1e-12)
        for x, exact in ((x_plus, real[1]), (x_minus, real[0])):
            distance = ulps_from(x, exact)
            assert distance <= 4.0, (eps, F, x, distance)
            worst = max(worst, distance)
    assert worst > 0.0  # the oracle is not comparing a root with itself


def strat_of(jump):
    return pw.reduced_gravity(pw.PhysicalConstants(), 1000.0, 1000.0 + jump)


# `dispersion --lat 82.6 --k 4.6e-6`, then lat 60-85 deg, density jumps of
# 0.5-20 and k from just above the 4 Omega^2 / g_tilde threshold to 10 times it
HIGH_LATITUDE_CASES = [(82.6, 4.0, 4.6e-6)] + [
    (lat, jump, factor * 4.0 * pw.PhysicalConstants().Omega**2 / strat_of(jump).g_tilde)
    for lat in (60.0, 65.0, 70.0, 75.0, 80.0, 85.0) for jump in (0.5, 20.0)
    for factor in (1.001, 1.01, 1.1, 1.5, 2.0, 4.0, 10.0)]


def test_high_latitude_roots_match_mpmath_polyroots():
    """Where P(-1) <= 0 the negative root lies below -1 (long waves at high
    latitudes); both roots still meet the 50-digit roots to 4 ulp."""
    below = 0
    for lat_deg, jump, k in HIGH_LATITUDE_CASES:
        site = pw.coriolis(pw.PhysicalConstants(), math.radians(lat_deg))
        strat = strat_of(jump)
        nd = pw.nondimensionalize(site, strat, k)
        if not nd.discriminant < 0.0:  # outside the mid-latitude regime
            continue
        roots = pw.solve_dispersion(nd, site, strat, k)
        x_minus, x_plus = exact_real_roots(nd)
        assert ulps_from(roots.x_plus, x_plus) <= 4.0, (lat_deg, jump, k)
        assert ulps_from(roots.x_minus, x_minus) <= 4.0, (lat_deg, jump, k)
        below += roots.x_minus < -1.0
    assert below >= 10  # the P(-1) <= 0 side is reached, the CLI's point first


def test_negative_bracket_stays_below_zero():
    # P(-1) <= 0: the bracket lies at or below -1; P(-1) > 0 with beta = 1.5:
    # (-1, -1 + beta) would reach past 0, where P = -1
    for nd in (pw.nondimensionalize(pw.coriolis(pw.PhysicalConstants(), math.radians(82.6)),
                                    strat_of(4.0), 4.6e-6),
               pw.NondimDispersion(epsilon=math.sqrt(0.05), F=1.5 / math.sqrt(0.05))):
        assert nd.discriminant < 0.0
        _, (lo, hi) = pw.root_brackets(nd)
        x_minus = exact_real_roots(nd)[0]
        assert lo < x_minus < hi <= 0.0
        assert (hi <= -1.0) == (nd.evaluate(-1.0) <= 0.0)
        assert ulps_from(_bisect_newton(nd, lo, hi, 1e-12), x_minus) <= 4.0


def test_roots_on_one_side_of_zero_are_rejected(monkeypatch, site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    positive, _ = pw.root_brackets(nd)
    monkeypatch.setattr(dsp, "root_brackets", lambda nd: (positive, positive))
    with pytest.raises(ConvergenceError, match="either side of 0"):
        pw.solve_dispersion(nd, site45, strat, REF_K)


def interface_root(site, strat, params):
    """s solving the thermocline-constant map = beta0 in 50-digit arithmetic,
    with the double-precision parameters taken as exact."""
    with mpmath.workdps(MP_DIGITS):
        mp = mpmath.mpf
        k, c, a, b, d, m, g = map(mp, (params.k, params.c, params.a, params.b,
                                       params.d, params.m, strat.g))
        f, f_hat = mp(site.f), mp(site.f_hat)

        def residual(s):
            wave = (-k**2 * c**2 * b**2 + f_hat * k * c * a * b - f * k * c * b * d) / 2
            value = (-mp(strat.rho0) * (wave * mpmath.exp(-2 * m * s) + g * s)
                     + mp(strat.rho_plus) * g * s)
            return value - mp(params.beta0)

        return mpmath.findroot(residual, mp(params.s_plus))


def interface_tolerance(site, strat, params):
    """1e-9 m, widened to 4 ulp(s) and to the map's own roundoff: 4 eps times
    the sum of the magnitudes of its terms, over its slope."""
    p, s = params, params.s_plus
    e2 = math.exp(-2.0 * p.m * s)
    wave = (p.k**2 * p.c**2 * p.b**2 + abs(site.f_hat * p.k * p.c * p.a * p.b)
            + abs(site.f * p.k * p.c * p.b * p.d))
    terms = strat.rho0 * 0.5 * wave * e2 + (strat.rho0 + strat.rho_plus) * strat.g * s
    slope = strat.rho0 * strat.g_tilde * (1.0 - (p.m * p.a) ** 2 * e2)
    roundoff = 4.0 * np.finfo(float).eps * terms / slope
    return max(dsp.INTERFACE_TOL, 4.0 * math.ulp(s)) + roundoff


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def solved_site(lat_deg, jump, k_over_threshold, branch):
    constants = pw.PhysicalConstants()
    site = pw.coriolis(constants, math.radians(lat_deg))
    strat = pw.reduced_gravity(constants, 1000.0, 1000.0 + jump)
    k = k_over_threshold * pw.min_wavenumber(site, strat)
    if site.f == 0.0:
        c_plus, c_minus = pw.solve_equatorial(constants, strat, k)
    else:
        roots = pw.solve_dispersion(pw.nondimensionalize(site, strat, k), site, strat, k)
        c_plus, c_minus = roots.c_plus, roots.c_minus
    return site, strat, k, c_plus if branch == "positive" else c_minus


@settings(max_examples=80, deadline=None)
@given(lat_deg=st.one_of(st.just(0.0), st.floats(0.0, 85.0), st.floats(-85.0, 0.0)),
       jump=st.floats(0.5, 20.0),
       k_exp=st.floats(0.05, 7.0),
       steepness=st.floats(0.0, 0.99),
       s0_exp=st.floats(0.0, 8.0),
       offset_exp=st.floats(0.0, 5.0),
       branch=st.sampled_from(("positive", "negative")))
def test_interface_label_property(lat_deg, jump, k_exp, steepness, s0_exp,
                                  offset_exp, branch):
    """Over admitted sets, latitudes down to the smallest doubles and s0 up to
    1e8 m: s_plus > s0 solves the map to 1e-9 m (or a few ulp(s) and the map's
    roundoff) within the iteration cap."""
    try:
        site, strat, k, c = solved_site(lat_deg, jump, 10.0**k_exp, branch)
        m = dsp.orbit_parameters(site.f, k, 1.0, c)[0]
    except InputError:  # the set is not admitted, e.g. outside the mid-latitude regime
        assume(False)
    s0 = 10.0**s0_exp
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, dsp, "_interface_map")
        params = pw.derive_parameters(site, strat, k, steepness / m, c, s0,
                                      10.0**offset_exp, beta0_is_offset=True)
    assert params.s_plus > s0
    # F(s0), the lower-bound check and at most _MAX_STEPS Newton iterations
    assert len(calls) <= dsp._MAX_STEPS + 2
    miss = abs(params.s_plus - float(interface_root(site, strat, params)))
    assert miss <= interface_tolerance(site, strat, params)


@pytest.mark.parametrize("lat_deg", [45.0, -30.0, 0.0])
@pytest.mark.parametrize("s0", [10.0, 50.0, 1000.0])
@pytest.mark.parametrize("offset", [1.0, 2000.0, 1e5])
def test_still_water_interface_in_one_step(monkeypatch, lat_deg, s0, offset):
    """a = 0 makes the map linear: the closed-form bracket's upper end is the
    root, and Newton accepts it with its first step."""
    site, strat, k, c = solved_site(lat_deg, 4.0, 1e5, "positive")
    calls = count_calls(monkeypatch, dsp, "_interface_map")
    params = pw.derive_parameters(site, strat, k, 0.0, c, s0, offset,
                                  beta0_is_offset=True)
    assert len(calls) == 2  # F(s0) and the upper end; the lower end coincides
    assert abs(params.s_plus - (s0 + offset / (strat.rho0 * strat.g_tilde))) <= 1e-9


def test_reference_solve_work_counts(monkeypatch, site45, strat):
    """Newton's work on the reference set, counted exactly: bisection took
    about 47 P evaluations per root and 44 map calls."""
    evaluations = count_calls(monkeypatch, pw.NondimDispersion, "evaluate")
    map_calls = count_calls(monkeypatch, dsp, "_interface_map")
    nd = pw.nondimensionalize(site45, strat, REF_K)
    roots = pw.solve_dispersion(nd, site45, strat, REF_K)
    assert len(evaluations) <= 2 * 8  # both roots, bracket checks included
    pw.derive_parameters(site45, strat, REF_K, REF_A, roots.c_plus, REF_S0,
                         REF_BETA0_OFFSET, beta0_is_offset=True)
    assert len(map_calls) <= 8
    evaluations.clear()
    for eps in np.linspace(1e-3, 5e-2, 20):
        for F in np.linspace(0.42, 2.4, 20):
            nd = pw.NondimDispersion(epsilon=float(eps), F=float(F))
            for lo, hi in pw.root_brackets(nd):
                evaluations.clear()
                _bisect_newton(nd, lo, hi, 1e-12)
                assert len(evaluations) <= 8, (eps, F)
