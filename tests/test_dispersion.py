import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pollardwaves as pw
from pollardwaves.dispersion import (
    _bisect_newton,
    _confirm_bracket,
    _interface_map,
    pressure_coefficient_a,
)
from pollardwaves.errors import (
    AmplitudeBoundError,
    BracketError,
    EquatorialBranchError,
    EvanescentRegimeError,
    InterfaceOrderingError,
    RegimeError,
    WavenumberError,
)

from conftest import REF_A, REF_K, REF_S0
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
    nd = pw.nondimensionalize(site45, strat, REF_K)
    assert nd.F == pytest.approx(1.0, rel=1e-12)


def test_nondim_epsilon_reference_value(site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    assert nd.epsilon == pytest.approx(2.077e-3, rel=1e-3)
    # defining identity: eps * sqrt(g_tilde k) = f
    assert nd.epsilon * math.sqrt(strat.g_tilde * REF_K) == pytest.approx(
        site45.f, rel=1e-14)


def test_nondim_coefficients_explicit():
    nd = pw.NondimDispersion(epsilon=0.05, F=1.0)
    assert nd.coeffs[0] == 1.0 and nd.coeffs[1] == 0.0 and nd.coeffs[4] == -1.0
    assert nd.coeffs[2] == pytest.approx(-0.005, rel=1e-15)
    assert nd.coeffs[3] == pytest.approx(-0.1, rel=1e-15)


def test_nondim_structural_coefficients(site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    assert nd.coeffs[1] == 0.0
    assert nd.coeffs[4] == -1.0


def test_nondim_rejects_equator(equator_site, strat):
    with pytest.raises(EquatorialBranchError):
        pw.nondimensionalize(equator_site, strat, REF_K)


def test_nondim_rejects_small_wavenumber(site45, strat):
    with pytest.raises(WavenumberError):
        pw.nondimensionalize(site45, strat, 1e-8)


def test_nondim_southern_hemisphere_product_positive(constants, strat):
    south = pw.coriolis(constants, math.radians(-45.0))
    nd = pw.nondimensionalize(south, strat, REF_K)
    assert nd.epsilon < 0 and nd.F < 0
    assert nd.epsilon * nd.F > 0


# --- root brackets ----------------------------------------------------------

def test_brackets_reference_case(site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    (lo_p, hi_p), (lo_m, hi_m) = pw.root_brackets(nd)
    assert lo_p == 1.0 and hi_p == pytest.approx(1.0020768, rel=1e-6)
    assert lo_m == -1.0 and hi_m == pytest.approx(-0.9979232, rel=1e-6)
    assert nd.evaluate(lo_p) < 0 < nd.evaluate(hi_p)
    assert nd.evaluate(lo_m) > 0 > nd.evaluate(hi_m)


def test_brackets_discriminant_gate_passes_at_large_eps():
    nd = pw.NondimDispersion(epsilon=0.05, F=2.4)
    assert nd.discriminant < 0.0
    pw.root_brackets(nd)


def test_brackets_regime_error_outside_analysis():
    # eps = 1, F = 2 - sqrt(3) puts the derivative discriminant above zero
    nd = pw.NondimDispersion(epsilon=1.0, F=2.0 - math.sqrt(3.0))
    assert nd.discriminant > 0.0
    with pytest.raises(RegimeError):
        pw.root_brackets(nd)


def test_bracket_width_shrinks_with_rotation():
    """Switching rotation off shrinks the bracket width eps*F to zero."""
    widths = []
    for eps in (1e-2, 1e-4, 1e-6):
        (lo, hi), _ = pw.root_brackets(pw.NondimDispersion(epsilon=eps, F=1.0))
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] == pytest.approx(1e-6, rel=1e-12)


def test_bracket_failure_without_sign_change():
    class Flat:
        discriminant = -1.0
        epsilon = 1e-3
        F = 1.0

        def evaluate(self, x):
            return -1.0

    with pytest.raises(BracketError):
        _confirm_bracket(Flat(), 1.0, 1.001)


# --- solve_dispersion -------------------------------------------------------

def test_rotationless_limit_roots(site45, strat):
    nd = pw.NondimDispersion(epsilon=0.0, F=1.0)
    roots = pw.solve_dispersion(nd, site45, strat, REF_K)
    # identity check against the dimensional relation is skipped for a
    # synthetic polynomial only through the exact +-1 roots
    assert roots.x_plus == 1.0
    assert roots.x_minus == -1.0


def test_reference_roots_against_scan_oracle(site45, strat, ref_roots):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    scale = math.sqrt(strat.g_tilde / REF_K)
    # brute-force sign scan over [0.9, 1.1] with step 1e-7 as oracle
    xs = np.linspace(0.9, 1.1, 2_000_001)
    vals = nd.evaluate(xs)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(idx) == 1
    oracle = 0.5 * (xs[idx[0]] + xs[idx[0] + 1])
    assert ref_roots.x_plus == pytest.approx(oracle, abs=1e-7)
    # c = X sqrt(g_tilde / k), slightly above the rotationless speed;
    # agreement is limited by the scan resolution
    assert ref_roots.c_plus == pytest.approx(oracle * scale, abs=1e-7 * scale)
    delta = ref_roots.x_plus - 1.0
    assert 0.0 < delta < nd.epsilon * nd.F
    assert scale == pytest.approx(0.7905, rel=1e-3)


def test_reference_roots_residual_and_identity(site45, strat, ref_roots):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    for x in (ref_roots.x_plus, ref_roots.x_minus):
        assert abs(nd.evaluate(x)) <= 1e-12 * max(1.0, x**4)
    for c in (ref_roots.c_plus, ref_roots.c_minus):
        lhs = strat.rho0**2 * c**2 * (c**2 * REF_K**2 - site45.f**2)
        rhs = (strat.rho0 * c * site45.f_hat
               + strat.g * (strat.rho_plus - strat.rho0))**2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_root_count_matches_scan(site45, strat):
    nd = pw.nondimensionalize(site45, strat, REF_K)
    locations = scan_sign_changes(nd)
    assert len(locations) == 2


def test_cauchy_bound(site45, strat, ref_roots):
    assert abs(ref_roots.x_minus) <= ref_roots.x_plus


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=5e-2),
       st.floats(min_value=0.42, max_value=2.4))
def test_bracket_theorem_property(eps, F):
    nd = pw.NondimDispersion(epsilon=eps, F=F)
    if not nd.discriminant < 0.0:
        return
    (lo_p, hi_p), (lo_m, hi_m) = pw.root_brackets(nd)
    # refine directly on the brackets; the dimensional identity does not
    # apply to a synthetic (eps, F) pair
    x_plus = _bisect_newton(nd, lo_p, hi_p, 1e-12)
    x_minus = _bisect_newton(nd, lo_m, hi_m, 1e-12)
    w = eps * F
    assert 0.0 < x_plus - 1.0 < w
    assert 0.0 < x_minus + 1.0 < w
    assert abs(x_minus) <= x_plus


# --- solve_equatorial -------------------------------------------------------

def test_equatorial_closed_form(constants, strat):
    c_plus, c_minus = pw.solve_equatorial(constants, strat, REF_K)
    disc = math.sqrt(constants.Omega**2 + REF_K * strat.g_tilde)
    assert c_plus == pytest.approx((constants.Omega + disc) / REF_K, rel=1e-14)
    assert c_minus == pytest.approx((constants.Omega - disc) / REF_K, rel=1e-14)
    assert c_plus == pytest.approx(0.7917, rel=1e-3)
    for c in (c_plus, c_minus):
        residual = REF_K * c**2 - 2.0 * constants.Omega * c - strat.g_tilde
        assert abs(residual) <= 1e-12 * max(REF_K * c**2, strat.g_tilde)


def test_equatorial_nonrotating_limit(strat):
    slow = pw.PhysicalConstants(Omega=1e-30)
    c_plus, c_minus = pw.solve_equatorial(slow, strat, REF_K)
    expected = math.sqrt(strat.g_tilde / REF_K)
    assert c_plus == pytest.approx(expected, rel=1e-12)
    assert c_minus == pytest.approx(-expected, rel=1e-12)


def test_equatorial_continuity_of_midlatitude_solver(constants, strat):
    """The mid-latitude solver near the Equator approaches the equatorial root."""
    c_eq, _ = pw.solve_equatorial(constants, strat, REF_K)
    site = pw.coriolis(constants, 1e-3)
    nd = pw.nondimensionalize(site, strat, REF_K)
    roots = pw.solve_dispersion(nd, site, strat, REF_K)
    assert roots.c_plus == pytest.approx(c_eq, rel=1e-4)


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
    roots = pw.solve_dispersion(nd, site, strat, REF_K)
    return pw.derive_parameters(site, strat, REF_K, REF_A, roots.c_plus,
                                REF_S0, 2000.0, beta0_is_offset=True)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=24.5, max_value=74.5), st.booleans(),
       st.floats(min_value=1e-3, max_value=1.0))
def test_consistency_chain_property(lat_deg, southern, k):
    """All four compatibility conditions hold simultaneously for solved sets."""
    const = pw.PhysicalConstants()
    site = pw.coriolis(const, math.radians(-lat_deg if southern else lat_deg))
    strat = pw.reduced_gravity(const, 1000.0, 1004.0)
    nd = pw.nondimensionalize(site, strat, k)
    roots = pw.solve_dispersion(nd, site, strat, k)
    params = pw.derive_parameters(site, strat, k, 0.5 / k, roots.c_plus,
                                  50.0, 100.0, beta0_is_offset=True)
    a, b, c, d, m, f = (params.a, params.b, params.c, params.d, params.m,
                        site.f)
    assert m * a - k * b == pytest.approx(0.0, abs=1e-12 * m * a)
    assert k * c * d + b * f == pytest.approx(0.0, abs=1e-12 * max(abs(k * c * d), 1e-300))
    assert m * k * c**2 * b + m * c * d * f == pytest.approx(
        k**2 * c**2 * a, rel=1e-12)
    assert b**2 == pytest.approx(a**2 + d**2, rel=1e-12)
    # hemisphere sign of the latitudinal orbit parameter (eastward branch)
    assert (params.d > 0) == southern or params.d == 0.0


def test_amplitude_gate_rejects_large_amplitude(site45, strat, ref_roots):
    with pytest.raises(AmplitudeBoundError) as err:
        pw.derive_parameters(site45, strat, REF_K, 40.0, ref_roots.c_plus,
                             1.0, 2000.0, beta0_is_offset=True)
    assert "1/m" in str(err.value)


def test_evanescent_regime_rejected(site45, strat):
    slow_c = site45.f / REF_K * 0.5
    with pytest.raises(EvanescentRegimeError):
        pw.derive_parameters(site45, strat, REF_K, 1.0, slow_c, 50.0,
                             2000.0, beta0_is_offset=True)


def test_derive_rejects_wavenumber_below_threshold(constants, equator_site, strat):
    # 4 Omega^2 / g_tilde is about 5.4e-7 1/m for the reference densities
    k = 1e-7
    c_plus, _ = pw.solve_equatorial(constants, strat, k)
    with pytest.raises(WavenumberError):
        pw.derive_parameters(equator_site, strat, k, 0.1, c_plus, 50.0,
                             2000.0, beta0_is_offset=True)


@pytest.mark.parametrize("lat_deg", [45.0, 30.0, -60.0, 82.6])
def test_nondim_gate_is_min_wavenumber(constants, strat, lat_deg):
    """nondimensionalize admits exactly the k above min_wavenumber, also where
    (f^2 + f_hat^2) / g_tilde and 4 Omega^2 / g_tilde round apart (30, 82.6 deg)."""
    site = pw.coriolis(constants, math.radians(lat_deg))
    threshold = pw.min_wavenumber(site, strat)
    with pytest.raises(WavenumberError):
        pw.nondimensionalize(site, strat, threshold)
    nd = pw.nondimensionalize(site, strat, math.nextafter(threshold, math.inf))
    assert nd.epsilon * nd.F > 0.0


def test_interface_gate_is_min_wavenumber(constants, equator_site, strat):
    threshold = pw.min_wavenumber(equator_site, strat)
    above = math.nextafter(threshold, math.inf)
    with pytest.raises(WavenumberError):
        pw.derive_parameters(equator_site, strat, threshold, 0.1,
                             pw.solve_equatorial(constants, strat, threshold)[0],
                             50.0, 2000.0, beta0_is_offset=True)
    params = pw.derive_parameters(equator_site, strat, above, 0.1,
                                  pw.solve_equatorial(constants, strat, above)[0],
                                  50.0, 2000.0, beta0_is_offset=True)
    assert params.s_plus > params.s0


# --- solve_interface --------------------------------------------------------

def interface_coefficient(p):
    return pressure_coefficient_a(p.f, p.f_hat, p.k, p.c, p.a, p.b, p.d)


def test_interface_round_trip(ref_params, site45, strat):
    target = ref_params.s0 + 1.0
    beta0 = _interface_map(strat, interface_coefficient(ref_params), ref_params.m, target)
    s_plus = pw.solve_interface(ref_params, site45, strat, beta0)
    assert s_plus == pytest.approx(target, abs=1e-9)


def test_interface_monotonicity(ref_params, site45, strat):
    lower = pw.solve_interface(ref_params, site45, strat, ref_params.beta0)
    higher = pw.solve_interface(ref_params, site45, strat, ref_params.beta0 + 500.0)
    assert higher > lower


def test_interface_reference_inversion(ref_params, site45, strat):
    beta0 = _interface_map(strat, interface_coefficient(ref_params), ref_params.m, 60.0)
    assert pw.solve_interface(ref_params, site45, strat, beta0) == pytest.approx(
        60.0, abs=1e-9)


def test_interface_ordering_error(ref_params, site45, strat):
    with pytest.raises(InterfaceOrderingError):
        pw.solve_interface(ref_params, site45, strat,
                           ref_params.P0 - ref_params.P0_tilde - 1.0)


def test_derive_rejects_nonpositive_offset(site45, strat, ref_roots):
    with pytest.raises(InterfaceOrderingError):
        pw.derive_parameters(site45, strat, REF_K, REF_A, ref_roots.c_plus,
                             REF_S0, -1.0, beta0_is_offset=True)


# --- Ferrari cross-check ----------------------------------------------------

@pytest.mark.parametrize("eps, F", [(0.05, 2.4), (0.03, 1.0), (0.01, 0.5)])
def test_ferrari_agrees_with_refinement(eps, F):
    nd = pw.NondimDispersion(epsilon=eps, F=F)
    (lo_p, hi_p), (lo_m, hi_m) = pw.root_brackets(nd)
    x_plus = _bisect_newton(nd, lo_p, hi_p, 1e-12)
    x_minus = _bisect_newton(nd, lo_m, hi_m, 1e-12)
    fer = ferrari_roots(nd)
    assert len(fer) == 2
    assert fer[1] == pytest.approx(x_plus, rel=1e-9)
    assert fer[0] == pytest.approx(x_minus, rel=1e-9)


def test_ferrari_agrees_with_numpy_roots():
    nd = pw.NondimDispersion(epsilon=0.04, F=1.7)
    numpy_real = sorted(r.real for r in np.roots(nd.coeffs)
                        if abs(r.imag) < 1e-12)
    assert np.allclose(ferrari_roots(nd), numpy_real, rtol=1e-9)
