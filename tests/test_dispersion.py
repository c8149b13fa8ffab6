import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pollardwaves as pw
from pollardwaves.cli import RunConfig, solve_configured
from pollardwaves.dispersion import _interface_map, orbit_parameters, pressure_coefficient_a
from pollardwaves.errors import InputError

from conftest import (REF_A, REF_BETA0_OFFSET, REF_K, REF_S0, derivative_discriminant,
                      nondim_of, refine_root)
from equatorial import solve_equatorial
from ferrari import ferrari_roots


def scan_sign_changes(nd, lo=-3.0, hi=3.0, step=1e-4):
    """Brute-force root localization: midpoints of sign-change cells."""
    n = int(round((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, n)
    vals = nd.evaluate(xs)
    assert np.all(vals != 0.0)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return [0.5 * (xs[i] + xs[i + 1]) for i in idx]


# --- nondimensionalize -----------------------------------------------------

def test_nondim_f_ratio_is_one_at_45(site45, strat):
    """f = f_hat at 45 deg, so alpha = eps^2 + beta^2 = 2 beta^2."""
    nd = pw.nondimensionalize(site45, strat, REF_K)
    assert nd.alpha == pytest.approx(2.0 * nd.beta**2, rel=1e-12)


def test_nondim_epsilon_reference_value(site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    eps = math.sqrt(nd.alpha - nd.beta**2)
    assert eps == pytest.approx(2.077e-3, rel=1e-3)
    # defining identities: eps * sqrt(g_tilde k) = f, beta * sqrt(g_tilde k) = f_hat
    assert eps * math.sqrt(strat.g_tilde * REF_K) == pytest.approx(site45.f, rel=1e-14)
    assert nd.beta * math.sqrt(strat.g_tilde * REF_K) == pytest.approx(
        site45.f_hat, rel=1e-14)


def test_nondim_coefficients_explicit():
    """P(X) = X^4 - alpha X^2 - 2 beta X - 1 and its derivative, at eps = 0.05,
    F = 1; value_and_slope's P is evaluate's, bit for bit."""
    nd = nondim_of(0.05, 1.0)
    assert nd.alpha == pytest.approx(0.005, rel=1e-15)
    assert nd.beta == pytest.approx(0.05, rel=1e-15)
    for x in (-2.0, -0.5, 0.0, 0.5, 3.0):
        value, slope = nd.value_and_slope(x)
        assert value == nd.evaluate(x)
        assert value == pytest.approx(x**4 - 0.005 * x**2 - 0.1 * x - 1.0, rel=1e-15)
        assert slope == pytest.approx(4.0 * x**3 - 0.01 * x - 0.1, rel=1e-15)


def test_nondim_structural_coefficients(site45, strat):
    """No X^3 term and P(0) = -1: the roots multiply to -1 over the complex plane."""
    nd = pw.nondimensionalize(site45, strat, REF_K)
    assert nd.value_and_slope(0.0) == (-1.0, -2.0 * nd.beta)


def test_nondim_is_finite_at_the_equator(equator_site, strat):
    """At f = 0, alpha = beta^2 and P = (X^2 - beta X - 1)(X^2 + beta X + 1)."""
    nd = pw.nondimensionalize(equator_site, strat, REF_K)
    assert nd.alpha == pytest.approx(nd.beta**2, rel=1e-15)
    for x in (-1.5, -1.0, 0.5, 1.0, 2.0):
        factored = (x * x - nd.beta * x - 1.0) * (x * x + nd.beta * x + 1.0)
        assert nd.evaluate(x) == pytest.approx(factored, rel=1e-14, abs=1e-15)


def test_nondim_rejects_small_wavenumber(site45, strat):
    with pytest.raises(InputError, match=r"must exceed 4\*Omega\^2/g_tilde"):
        pw.nondimensionalize(site45, strat, 1e-8)


def test_nondim_southern_hemisphere_product_positive(constants, strat):
    south = pw.coriolis(constants, math.radians(-45.0))
    nd = pw.nondimensionalize(south, strat, REF_K)
    north = pw.nondimensionalize(pw.coriolis(constants, math.radians(45.0)), strat, REF_K)
    assert south.f < 0.0 < nd.beta
    assert (nd.alpha, nd.beta) == (north.alpha, north.beta)


# --- root brackets ----------------------------------------------------------

def test_brackets_reference_case(site45, strat):
    """(inner, outer) of each root: P(inner) < 0 < P(outer)."""
    nd = pw.nondimensionalize(site45, strat, REF_K)
    (in_p, out_p), (in_m, out_m) = pw.root_brackets(nd)
    assert in_p == 1.0 and out_p == pytest.approx(1.0020790, rel=1e-6)
    assert in_m == 0.0 and out_m == pytest.approx(-1.0000043, rel=1e-6)
    assert nd.evaluate(in_p) < 0 < nd.evaluate(out_p)
    assert nd.evaluate(in_m) < 0 < nd.evaluate(out_m)


def test_brackets_hold_sign_changes_at_large_eps():
    """Criterion 2's largest eps and F: P' has one real zero, and each bracket
    holds a sign change of P."""
    nd = nondim_of(0.05, 2.4)
    assert derivative_discriminant(nd) < 0.0
    for inner, outer in pw.root_brackets(nd):
        assert nd.evaluate(inner) < 0.0 < nd.evaluate(outer)


def test_bracket_width_shrinks_with_rotation():
    """Switching rotation off shrinks the positive bracket's width,
    sqrt(1 + alpha + 2 beta) - 1 = beta + O(beta^2) at F = 1, to zero."""
    widths = []
    for eps in (1e-2, 1e-4, 1e-6):
        (inner, outer), _ = pw.root_brackets(nondim_of(eps, 1.0))
        widths.append(outer - inner)
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] == pytest.approx(1e-6, rel=1e-12)


# --- solve_branch, both roots ----------------------------------------------

def test_reference_roots_against_scan_oracle(site45, strat, ref_roots):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    scale = math.sqrt(strat.g_tilde / REF_K)
    # brute-force sign scan over [0.9, 1.1] with step 1e-7 as oracle
    xs = np.linspace(0.9, 1.1, 2_000_001)
    vals = nd.evaluate(xs)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(idx) == 1
    oracle = 0.5 * (xs[idx[0]] + xs[idx[0] + 1])
    (x_plus, c_plus), _ = ref_roots
    assert x_plus == pytest.approx(oracle, abs=1e-7)
    # c = X sqrt(g_tilde / k), slightly above the rotationless speed;
    # agreement is limited by the scan resolution
    assert c_plus == pytest.approx(oracle * scale, abs=1e-7 * scale)
    delta = x_plus - 1.0
    assert 0.0 < delta < nd.beta
    assert scale == pytest.approx(0.7905, rel=1e-3)


def test_reference_roots_residual_and_identity(site45, strat, ref_roots):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    for x, c in ref_roots:
        assert abs(nd.evaluate(x)) <= 1e-12 * max(1.0, x**4)
        lhs = strat.rho0**2 * c**2 * (c**2 * REF_K**2 - site45.f**2)
        rhs = (strat.rho0 * c * site45.f_hat
               + strat.g * (strat.rho_plus - strat.rho0))**2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_root_count_matches_scan(site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    locations = scan_sign_changes(nd)
    assert len(locations) == 2


def test_cauchy_bound(site45, strat, ref_roots):
    (x_plus, _), (x_minus, _) = ref_roots
    assert abs(x_minus) <= x_plus


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=5e-2),
       st.floats(min_value=0.42, max_value=2.4))
def test_bracket_theorem_property(eps, F):
    nd = nondim_of(eps, F)
    bracket_plus, bracket_minus = pw.root_brackets(nd)
    # refine directly on the brackets; the dimensional identity does not
    # apply to a synthetic (eps, F) pair
    x_plus = refine_root(nd, *bracket_plus)
    x_minus = refine_root(nd, *bracket_minus)
    w = eps * F
    assert 0.0 < x_plus - 1.0 < w
    assert 0.0 < x_minus + 1.0 < w
    assert abs(x_minus) <= x_plus


@pytest.mark.parametrize("branch", ["equatorial", "Positive", ""])
def test_solve_branch_rejects_an_unknown_branch(ref_nd, branch):
    """The library's branch check: the CLI's validate stops these first."""
    with pytest.raises(InputError, match=f"^unknown branch {branch!r}$"):
        pw.solve_branch(ref_nd, branch)


# --- solve_equatorial -------------------------------------------------------

def test_equatorial_closed_form(constants, strat):
    c_plus, c_minus = solve_equatorial(constants, strat, REF_K)
    disc = math.sqrt(constants.Omega**2 + REF_K * strat.g_tilde)
    assert c_plus == pytest.approx((constants.Omega + disc) / REF_K, rel=1e-14)
    assert c_minus == pytest.approx((constants.Omega - disc) / REF_K, rel=1e-14)
    assert c_plus == pytest.approx(0.7917, rel=1e-3)
    for c in (c_plus, c_minus):
        residual = REF_K * c**2 - 2.0 * constants.Omega * c - strat.g_tilde
        assert abs(residual) <= 1e-12 * max(REF_K * c**2, strat.g_tilde)


def test_equatorial_nonrotating_limit(strat):
    slow = pw.PhysicalConstants(Omega=1e-30)
    c_plus, c_minus = solve_equatorial(slow, strat, REF_K)
    expected = math.sqrt(strat.g_tilde / REF_K)
    assert c_plus == pytest.approx(expected, rel=1e-12)
    assert c_minus == pytest.approx(-expected, rel=1e-12)


def test_equatorial_continuity_of_midlatitude_solver(constants, strat):
    """The solver near the Equator approaches the equatorial root."""
    c_eq, _ = solve_equatorial(constants, strat, REF_K)
    site = pw.coriolis(constants, 1e-3)
    _, c_plus = pw.solve_branch(pw.nondimensionalize(site, strat, REF_K), "positive")
    assert c_plus == pytest.approx(c_eq, rel=1e-4)


# --- derive_parameters ------------------------------------------------------

def test_equator_vertical_rate_equals_wavenumber(equatorial):
    assert equatorial.m == pytest.approx(REF_K, rel=1e-14)
    assert equatorial.d == 0.0
    assert equatorial.b == pytest.approx(equatorial.a, rel=1e-14)


def test_reference_parameter_values(ref_params):
    # m/k = 1 + O(eps^2), so b is within a few ppm of a
    assert ref_params.m == pytest.approx(0.06280013515, rel=1e-9)
    assert ref_params.b == pytest.approx(10.000021521, rel=1e-9)
    assert ref_params.d == pytest.approx(-0.020746636, rel=1e-7)
    assert ref_params.L == pytest.approx(2.0 * math.pi / REF_K, rel=1e-15)
    assert ref_params.s0 == REF_S0
    assert ref_params.s_plus > ref_params.s0


def test_parameter_identities(ref_params, site45):
    k, c, m, a, b, d = ref_params.k, ref_params.c, ref_params.m, ref_params.a, ref_params.b, ref_params.d
    f = site45.f
    assert m * a - k * b == pytest.approx(0.0, abs=1e-12 * m * a)
    assert k * c * d + b * f == pytest.approx(0.0, abs=1e-12 * abs(k * c * d))
    assert m * k * c**2 * b + m * c * d * f == pytest.approx(
        k**2 * c**2 * a, rel=1e-12)
    assert b**2 == pytest.approx(a**2 + d**2, rel=1e-12)
    assert m**2 == pytest.approx(k**4 * c**2 / (k**2 * c**2 - f**2), rel=1e-12)
    assert ref_params.m > 0
    # amplitude gate
    assert (m * a * math.exp(-m * ref_params.s0))**2 < 1.0


def test_hemisphere_mirror(constants, strat):
    north = pw.coriolis(constants, math.radians(45.0))
    south = pw.coriolis(constants, math.radians(-45.0))
    pn = _solve_params(north, strat)
    ps = _solve_params(south, strat)
    assert pn.c == pytest.approx(ps.c, rel=1e-13)
    assert pn.m == pytest.approx(ps.m, rel=1e-13)
    assert pn.b == pytest.approx(ps.b, rel=1e-13)
    assert pn.d == pytest.approx(-ps.d, rel=1e-13)
    assert pn.d < 0 < ps.d


def _solve_params(site, strat):
    nd = pw.nondimensionalize(site, strat, REF_K)
    _, c_plus = pw.solve_branch(nd, "positive")
    return pw.derive_parameters(nd, REF_A, c_plus, REF_S0, 2000.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=24.5, max_value=74.5), st.booleans(),
       st.floats(min_value=1e-3, max_value=1.0))
def test_consistency_chain_property(lat_deg, southern, k):
    """All four compatibility conditions hold simultaneously for solved sets."""
    const = pw.PhysicalConstants()
    site = pw.coriolis(const, math.radians(-lat_deg if southern else lat_deg))
    strat = pw.reduced_gravity(const, 1000.0, 1004.0)
    nd = pw.nondimensionalize(site, strat, k)
    _, c_plus = pw.solve_branch(nd, "positive")
    params = pw.derive_parameters(nd, 0.5 / k, c_plus, 50.0, 100.0)
    a, b, c, d, m, f = (params.a, params.b, params.c, params.d, params.m,
                        site.f)
    assert m * a - k * b == pytest.approx(0.0, abs=1e-12 * m * a)
    assert k * c * d + b * f == pytest.approx(0.0, abs=1e-12 * max(abs(k * c * d), 1e-300))
    assert m * k * c**2 * b + m * c * d * f == pytest.approx(
        k**2 * c**2 * a, rel=1e-12)
    assert b**2 == pytest.approx(a**2 + d**2, rel=1e-12)
    # hemisphere sign of the latitudinal orbit parameter (eastward branch)
    assert (params.d > 0) == southern or params.d == 0.0


def test_amplitude_gate_rejects_large_amplitude(ref_nd, ref_params):
    """a = 40 m at s0 = 1 m fails m^2 a^2 e^(-2 m s0) < 1; a = 16.5 m at s0 = 50 m
    meets it, but not the thermocline bound a <= 1/m (just under 16 m here);
    a = 1e200 m, whose m^2 a^2 e^(-2 m s0) overflows a double, fails both."""
    for a, s0 in ((40.0, 1.0), (16.5, 50.0), (1e200, 50.0)):
        with pytest.raises(InputError, match="1/m"):
            pw.derive_parameters(ref_nd, a, ref_params.c, s0, 2000.0)


def test_evanescent_regime_rejected(site45, ref_nd):
    slow_c = site45.f / REF_K * 0.5
    with pytest.raises(InputError, match=r"must exceed f\^2"):
        pw.derive_parameters(ref_nd, 1.0, slow_c, 50.0, 2000.0)


def test_derive_rejects_wavenumber_below_threshold(equator_site, strat):
    """derive_parameters takes only a polynomial that nondimensionalize built, and
    it builds none at k = 1e-7: 4 Omega^2 / g_tilde is about 5.4e-7 1/m for the
    reference densities."""
    with pytest.raises(InputError, match=r"must exceed 4\*Omega\^2/g_tilde"):
        pw.nondimensionalize(equator_site, strat, 1e-7)


@pytest.mark.parametrize("lat_deg", [45.0, 30.0, -60.0, 82.6])
def test_nondim_gate_is_min_wavenumber(constants, strat, lat_deg):
    """nondimensionalize admits exactly the k above min_wavenumber, also where
    (f^2 + f_hat^2) / g_tilde and 4 Omega^2 / g_tilde round apart (30, 82.6 deg)."""
    site = pw.coriolis(constants, math.radians(lat_deg))
    threshold = pw.min_wavenumber(site, strat)
    with pytest.raises(InputError, match=r"must exceed 4\*Omega\^2/g_tilde"):
        pw.nondimensionalize(site, strat, threshold)
    nd = pw.nondimensionalize(site, strat, math.nextafter(threshold, math.inf))
    assert nd.alpha < 1.0 and nd.beta > 0.0


def test_interface_gate_is_min_wavenumber(constants, equator_site, strat):
    threshold = pw.min_wavenumber(equator_site, strat)
    above = math.nextafter(threshold, math.inf)
    with pytest.raises(InputError, match=r"must exceed 4\*Omega\^2/g_tilde"):
        pw.nondimensionalize(equator_site, strat, threshold)
    params = pw.derive_parameters(pw.nondimensionalize(equator_site, strat, above), 0.1,
                                  solve_equatorial(constants, strat, above)[0],
                                  50.0, 2000.0)
    assert params.s_plus > params.s0


# --- interface label --------------------------------------------------------

def interface_coefficient(p):
    return pressure_coefficient_a(p.f, p.f_hat, p.k, p.c, p.a, p.b, p.d)


def interface_map(p, strat, s):
    """The thermocline map of p's set at the label s."""
    return _interface_map(strat, interface_coefficient(p), p.m, s)[0]


def interface_label(p, site, strat, beta0_offset):
    """s_plus of p's set re-derived for another beta0 offset."""
    nd = pw.nondimensionalize(site, strat, p.k)
    return pw.derive_parameters(nd, p.a, p.c, p.s0, beta0_offset).s_plus


def offset_of(p, strat, s):
    """The beta0 offset whose interface label is s: the map's rise from s0 to s."""
    return interface_map(p, strat, s) - interface_map(p, strat, p.s0)


def test_interface_round_trip(ref_params, site45, strat):
    target = ref_params.s0 + 1.0
    s_plus = interface_label(ref_params, site45, strat, offset_of(ref_params, strat, target))
    assert s_plus == pytest.approx(target, abs=1e-9)


def test_interface_map_slope_is_its_derivative(ref_params, equatorial, strat):
    """The slope _interface_map returns with the map is rho0 g_tilde
    (1 - m^2 a^2 e^(-2 m s)), positive under the amplitude gate, also at the
    Equator's critical amplitude a = 1/m, where it vanishes at s = 0."""
    for p in (ref_params, equatorial):
        for s in (0.0, p.s0, 0.5 * (p.s0 + p.s_plus), p.s_plus, 10.0 * p.s_plus):
            _, slope = _interface_map(strat, interface_coefficient(p), p.m, s)
            gate = (p.m * p.a) ** 2 * math.exp(-2.0 * p.m * s)
            assert slope == pytest.approx(strat.rho0 * strat.g_tilde * (1.0 - gate),
                                          rel=1e-12, abs=1e-12 * strat.rho0 * strat.g_tilde)


def test_interface_monotonicity(ref_params, site45, strat):
    lower = interface_label(ref_params, site45, strat, REF_BETA0_OFFSET)
    higher = interface_label(ref_params, site45, strat, REF_BETA0_OFFSET + 500.0)
    assert lower == ref_params.s_plus
    assert higher > lower


def test_interface_reference_inversion(ref_params, site45, strat):
    offset = offset_of(ref_params, strat, 60.0)
    assert interface_label(ref_params, site45, strat, offset) == pytest.approx(
        60.0, abs=1e-9)


def test_interface_ordering_error(ref_params, site45, strat):
    """beta0 = (P0 - P0_tilde) + offset must exceed P0 - P0_tilde: a negative
    offset fails, and so does 1e-20, which rounds away in the sum."""
    map_s0 = interface_map(ref_params, strat, ref_params.s0)
    assert map_s0 + 1e-20 == map_s0
    for offset in (-1.0, 1e-20):
        with pytest.raises(InputError, match="must exceed P0 - P0_tilde"):
            interface_label(ref_params, site45, strat, offset)


def test_derive_rejects_nonpositive_offset(ref_nd, ref_params):
    with pytest.raises(InputError, match="must exceed P0 - P0_tilde"):
        pw.derive_parameters(ref_nd, REF_A, ref_params.c, REF_S0, -1.0)


@pytest.mark.parametrize("s0, offset, configured", [
    (math.inf, 2000.0, True), (math.nan, 2000.0, True),
    (REF_S0, math.inf, True), (REF_S0, math.inf, False), (REF_S0, math.nan, False),
])
def test_derive_rejects_non_finite_s0_and_beta0(ref_nd, ref_params, s0, offset, configured):
    """A non-finite s0 or beta0 offset is an InputError, given to
    derive_parameters directly or through a config's solve_configured."""
    with pytest.raises(InputError, match="must both be finite"):
        if configured:
            solve_configured(RunConfig(s0=s0, beta0_offset=offset).validate())
        else:
            pw.derive_parameters(ref_nd, REF_A, ref_params.c, s0, offset)


@pytest.mark.parametrize("k", [1e77, 1e80, 2.0 * math.pi / 1e-300, math.inf])
def test_wavenumbers_whose_fourth_power_overflows_are_rejected(site45, strat, k):
    """k^4, taken by orbit_parameters, overflows above 1.16e77: the gate stops
    such k with a typed error before any power is taken, when the polynomial
    that solve_branch and derive_parameters take is built."""
    with pytest.raises(InputError, match="must be below 1e77"):
        pw.nondimensionalize(site45, strat, k)
    below = math.nextafter(1e77, 0.0)
    _, c = pw.solve_branch(pw.nondimensionalize(site45, strat, below), "positive")
    assert all(math.isfinite(v) for v in orbit_parameters(site45.f, below, 0.0, c))


# --- Ferrari cross-check ----------------------------------------------------

@pytest.mark.parametrize("eps, F", [(0.05, 2.4), (0.03, 1.0), (0.01, 0.5)])
def test_ferrari_agrees_with_refinement(eps, F):
    nd = nondim_of(eps, F)
    bracket_plus, bracket_minus = pw.root_brackets(nd)
    x_plus = refine_root(nd, *bracket_plus)
    x_minus = refine_root(nd, *bracket_minus)
    fer = ferrari_roots(nd)
    assert len(fer) == 2
    assert fer[1] == pytest.approx(x_plus, rel=1e-9)
    assert fer[0] == pytest.approx(x_minus, rel=1e-9)


def test_ferrari_agrees_with_numpy_roots():
    nd = nondim_of(0.04, 1.7)
    numpy_real = sorted(r.real for r in np.roots([1.0, 0.0, -nd.alpha, -2.0 * nd.beta, -1.0])
                        if abs(r.imag) < 1e-12)
    assert np.allclose(ferrari_roots(nd), numpy_real, rtol=1e-9)
