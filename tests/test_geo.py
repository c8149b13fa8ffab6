import math

import pytest
from hypothesis import given, strategies as st

import pollardwaves as pw
from pollardwaves.errors import InputError


def test_default_constants_exact():
    const = pw.PhysicalConstants()
    assert const.g == 9.81
    assert const.Omega == 7.29e-5


@pytest.mark.parametrize("g, Omega", [
    (-9.81, 7.29e-5),
    (9.81, 0.0),
    (math.inf, 7.29e-5),
    (9.81, math.inf),
    (math.nan, 7.29e-5),
    (9.81, math.nan),
])
def test_constants_must_be_positive(g, Omega):
    with pytest.raises(InputError, match="positive and finite"):
        pw.PhysicalConstants(g=g, Omega=Omega)


def test_coriolis_at_equator(constants):
    site = pw.coriolis(constants, 0.0)
    assert site.f == 0.0
    assert site.f_hat == pytest.approx(1.458e-4, rel=1e-12)


def test_coriolis_at_45_degrees(constants):
    site = pw.coriolis(constants, math.radians(45.0))
    # typical quoted magnitude is 1e-4 1/s for both parameters
    assert site.f == pytest.approx(site.f_hat, rel=1e-12)
    assert site.f == pytest.approx(1.0e-4, rel=5e-2)
    # full-precision evaluation of 2 Omega sin(pi/4)
    assert site.f == pytest.approx(1.0309616869e-4, rel=1e-9)


@pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2, 2.0, -3.0])
def test_coriolis_rejects_out_of_range_latitude(constants, phi):
    with pytest.raises(InputError, match=r"\|phi\| < pi/2"):
        pw.coriolis(constants, phi)


@given(st.floats(min_value=-1.57, max_value=1.57))
def test_coriolis_pythagorean_identity(phi):
    const = pw.PhysicalConstants()
    site = pw.coriolis(const, phi)
    assert site.f**2 + site.f_hat**2 == pytest.approx(
        4.0 * const.Omega**2, rel=1e-12)


def test_reduced_gravity_typical_density_jump(constants):
    strat = pw.reduced_gravity(constants, 1000.0, 1004.0)
    # delta rho / rho0 = 4e-3 gives g_tilde = 9.81 * 4e-3
    assert strat.g_tilde == pytest.approx(0.03924, rel=1e-12)
    assert strat.g == constants.g


def test_reduced_gravity_smaller_jump(constants):
    strat = pw.reduced_gravity(constants, 1000.0, 1002.0)
    assert strat.g_tilde == pytest.approx(0.01962, rel=1e-12)


def test_reduced_gravity_vanishing_jump(constants):
    strat = pw.reduced_gravity(constants, 1000.0, 1000.0 + 1e-9)
    assert 0.0 < strat.g_tilde < 1e-10


@given(st.floats(min_value=1.0, max_value=2000.0),
       st.floats(min_value=1e-3, max_value=100.0))
def test_reduced_gravity_swap_raises_never_negative(rho0, jump):
    """Swapping the layer densities must raise, not return negative g_tilde."""
    const = pw.PhysicalConstants()
    rho_plus = rho0 + jump
    assert pw.reduced_gravity(const, rho0, rho_plus).g_tilde > 0.0
    with pytest.raises(InputError, match="unstable stratification"):
        pw.reduced_gravity(const, rho_plus, rho0)


def test_reduced_gravity_rejects_nonpositive_density(constants):
    with pytest.raises(InputError, match="rho0 must be positive"):
        pw.reduced_gravity(constants, -5.0, 1000.0)


@pytest.mark.parametrize("rho0, rho_plus", [
    (1000.0, math.inf), (math.inf, math.inf), (math.nan, 1004.0), (1000.0, math.nan),
    (-math.inf, 1004.0), (1e-10, 1e308),   # the last: finite densities, g_tilde overflows
])
def test_reduced_gravity_rejects_non_finite_inputs(constants, rho0, rho_plus):
    with pytest.raises(InputError, match="rho0 must be positive|unstable stratification|"
                                         "g_tilde must be finite"):
        pw.reduced_gravity(constants, rho0, rho_plus)


def test_min_wavenumber_reference_value(site45, strat):
    # 4 Omega^2 / g_tilde with the typical density jump
    threshold = pw.min_wavenumber(site45, strat)
    assert threshold == pytest.approx(5.4173e-7, rel=1e-4)
    # the reference wavenumber passes the gate with a wide margin
    assert 6.28e-2 > threshold


def test_min_wavenumber_scales_inversely_with_density_jump(constants, site45):
    one = pw.min_wavenumber(site45, pw.reduced_gravity(constants, 1000.0, 1002.0))
    two = pw.min_wavenumber(site45, pw.reduced_gravity(constants, 1000.0, 1004.0))
    assert one == pytest.approx(2.0 * two, rel=1e-12)


def test_min_wavenumber_vanishes_for_large_reduced_gravity(constants, site45):
    strat = pw.Stratification(rho0=1000.0, rho_plus=2000.0, g_tilde=1e9,
                              g=constants.g)
    assert pw.min_wavenumber(site45, strat) < 1e-16
