import math

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves.errors import DiffeomorphismError
from pollardwaves.flowfield import (
    dynamic_pressure,
    label_jacobian,
    sheet_elevation,
    velocity_label_gradient,
)

from conftest import REF_K, REF_S0


@pytest.fixture(scope="module")
def still(site45, strat, ref_roots):
    """Zero-amplitude regression set: still water."""
    return pw.derive_parameters(site45, strat, REF_K, 0.0, ref_roots.c_plus,
                                REF_S0, 2000.0, beta0_is_offset=True)


def wave_period(params):
    return 2.0 * math.pi / (params.k * abs(params.c))


# --- position ---------------------------------------------------------------

def test_zero_amplitude_is_identity_map(still):
    lab = pw.LagrangianLabel(q=12.0, r=-3.0, s=70.0)
    assert pw.position(still, lab, 17.3) == (12.0, -3.0, 70.0)


def test_position_at_zero_phase(ref_params):
    t = 4.2
    q = ref_params.c * t  # theta = 0
    lab = pw.LagrangianLabel(q=q, r=1.5, s=60.0)
    e = math.exp(-ref_params.m * 60.0)
    x, y, z = pw.position(ref_params, lab, t)
    assert x == pytest.approx(q, rel=1e-14)
    assert y == pytest.approx(1.5 - ref_params.d * e, rel=1e-12)
    assert z == pytest.approx(60.0 - ref_params.a * e, rel=1e-12)


def test_reference_thermocline_depth(ref_params):
    lab = pw.LagrangianLabel(q=0.0, r=0.0, s=ref_params.s0)
    _, _, z = pw.position(ref_params, lab, 0.0)
    assert z == pytest.approx(ref_params.s0 - 10.0 * math.exp(-ref_params.m * ref_params.s0),
                              rel=1e-12)


# --- velocity / acceleration -------------------------------------------------

def test_velocity_at_quarter_phase(ref_params):
    q = (math.pi / 2.0) / ref_params.k
    lab = pw.LagrangianLabel(q=q, r=0.0, s=55.0)
    e = math.exp(-ref_params.m * 55.0)
    kc = ref_params.k * ref_params.c
    u, v, w = pw.velocity(ref_params, lab, 0.0)
    assert u == pytest.approx(0.0, abs=1e-15 * kc * ref_params.b * e)
    assert v == pytest.approx(-kc * ref_params.d * e, rel=1e-12)
    assert w == pytest.approx(-kc * ref_params.a * e, rel=1e-12)


def test_acceleration_is_time_derivative_of_velocity(ref_params):
    lab = pw.LagrangianLabel(q=7.0, r=0.0, s=52.0)
    t = 11.0
    h = 1e-3 / (ref_params.k * ref_params.c)
    vel_p = np.array(pw.velocity(ref_params, lab, t + h))
    vel_m = np.array(pw.velocity(ref_params, lab, t - h))
    fd = (vel_p - vel_m) / (2.0 * h)
    acc = np.array(pw.acceleration(ref_params, lab, t))
    assert np.allclose(fd, acc, rtol=1e-5, atol=1e-12)


def test_particle_speed_is_constant(ref_params):
    lab = pw.LagrangianLabel(q=0.0, r=0.0, s=ref_params.s0)
    e = math.exp(-ref_params.m * ref_params.s0)
    expected = ref_params.k * abs(ref_params.c) * ref_params.b * e
    for t in np.linspace(0.0, wave_period(ref_params), 50):
        speed = np.linalg.norm(pw.velocity(ref_params, lab, float(t)))
        assert speed == pytest.approx(expected, rel=1e-12)


# --- jacobian ----------------------------------------------------------------

def test_jacobian_identity_for_still_water(still):
    mat, det = pw.jacobian(still, pw.LagrangianLabel(1.0, 2.0, 60.0), 5.0)
    assert np.array_equal(mat, np.eye(3))
    assert det == 1.0


def test_jacobian_matches_printed_entries(ref_params):
    lab = pw.LagrangianLabel(q=3.0, r=0.5, s=58.0)
    t = 2.5
    th = ref_params.k * (lab.q - ref_params.c * t)
    e = math.exp(-ref_params.m * lab.s)
    mat, det = pw.jacobian(ref_params, lab, t)
    expected = np.array([
        [1 - ref_params.k * ref_params.b * e * math.cos(th),
         ref_params.k * ref_params.d * e * math.sin(th),
         ref_params.k * ref_params.a * e * math.sin(th)],
        [0.0, 1.0, 0.0],
        [ref_params.m * ref_params.b * e * math.sin(th),
         ref_params.m * ref_params.d * e * math.cos(th),
         1 + ref_params.m * ref_params.a * e * math.cos(th)],
    ])
    assert np.allclose(mat, expected, rtol=1e-15, atol=0.0)
    assert det == pytest.approx(np.linalg.det(mat), rel=1e-12)


def test_jacobian_time_independent(ref_params):
    lab = pw.LagrangianLabel(q=0.0, r=0.0, s=ref_params.s0)
    _, det0 = pw.jacobian(ref_params, lab, 0.0)
    for t in np.linspace(0.0, wave_period(ref_params), 37):
        _, det = pw.jacobian(ref_params, lab, float(t))
        assert abs(det - det0) <= 1e-14


def test_jacobian_reference_value_at_thermocline(ref_params):
    lab = pw.LagrangianLabel(q=5.0, r=0.0, s=ref_params.s0)
    _, det = pw.jacobian(ref_params, lab, 1.0)
    expected = 1.0 - (ref_params.m * ref_params.a * math.exp(-ref_params.m * ref_params.s0))**2
    assert det == pytest.approx(expected, rel=1e-12)
    assert 0.0 < det < 1.0


def test_jacobian_raises_below_validity_floor(ref_params):
    with pytest.raises(DiffeomorphismError):
        pw.jacobian(ref_params, pw.LagrangianLabel(0.0, 0.0, -10.0), 0.0)


# --- pressure ----------------------------------------------------------------

def test_still_water_pressure_is_hydrostatic(still, strat):
    p1 = pw.pressure(still, strat, pw.LagrangianLabel(0.0, 0.0, 55.0), 0.0)
    p2 = pw.pressure(still, strat, pw.LagrangianLabel(40.0, 2.0, 75.0), 9.0)
    assert p1 - p2 == pytest.approx(strat.rho0 * strat.g * 20.0, rel=1e-12)


def test_dynamic_boundary_condition(ref_params, strat):
    worst = 0.0
    for q in np.linspace(0.0, ref_params.L, 64, endpoint=False):
        lab = pw.LagrangianLabel(q=float(q), r=0.0, s=ref_params.s0)
        p = pw.pressure(ref_params, strat, lab, 3.0)
        _, _, z = pw.position(ref_params, lab, 3.0)
        worst = max(worst, abs(p - (ref_params.P0 - strat.rho_plus * strat.g * z)))
    assert worst <= 1e-9 * abs(ref_params.P0)


def test_pressure_periodic_in_time(ref_params, strat):
    lab = pw.LagrangianLabel(q=2.0, r=0.0, s=ref_params.s0)
    period = wave_period(ref_params)
    for t in np.linspace(0.0, period, 7):
        p0 = pw.pressure(ref_params, strat, lab, float(t))
        p1 = pw.pressure(ref_params, strat, lab, float(t) + period)
        assert abs(p1 - p0) <= 1e-14 * abs(p0)


def test_pressure_independent_of_r(ref_params, strat):
    lab0 = pw.LagrangianLabel(q=9.0, r=0.0, s=61.0)
    lab1 = pw.LagrangianLabel(q=9.0, r=123.0, s=61.0)
    assert pw.pressure(ref_params, strat, lab0, 1.0) == pw.pressure(ref_params, strat, lab1, 1.0)


def test_pressure_splits_into_wave_and_column_parts(ref_params, strat):
    lab = pw.LagrangianLabel(q=4.0, r=0.0, s=66.0)
    total = pw.pressure(ref_params, strat, lab, 2.0)
    wave = dynamic_pressure(ref_params, strat, lab, 2.0)
    assert total == pytest.approx(
        wave - strat.rho0 * strat.g * lab.s + ref_params.P0_tilde, rel=1e-15)


# --- vorticity ---------------------------------------------------------------

def test_equatorial_critical_amplitude_vorticity(equatorial, equator_site):
    """At f=0, a=1/m, m=k the curl reduces to (0, 2kc e^(-2ks)/(1-e^(-2ks)), 0)."""
    k, c = equatorial.k, equatorial.c
    for s in (55.0, 70.0, 90.0):
        w1, w2, w3 = pw.vorticity(equatorial, equator_site,
                                  pw.LagrangianLabel(3.0, 1.0, s), 2.0)
        e2 = math.exp(-2.0 * k * s)
        assert w1 == 0.0 and w3 == 0.0
        assert w2 == pytest.approx(2.0 * k * c * e2 / (1.0 - e2), rel=1e-13)


def test_equatorial_general_amplitude_vorticity(constants, equator_site, strat):
    c_plus, _ = pw.solve_equatorial(constants, strat, REF_K)
    params = pw.derive_parameters(equator_site, strat, REF_K, 4.0, c_plus,
                                  REF_S0, 2000.0, beta0_is_offset=True)
    k, c, m, a = params.k, params.c, params.m, params.a
    s = 62.0
    e2 = math.exp(-2.0 * m * s)
    _, w2, _ = pw.vorticity(params, equator_site,
                            pw.LagrangianLabel(0.0, 0.0, s), 0.0)
    assert w2 == pytest.approx(
        2.0 * k * c * m**2 * a**2 * e2 / (1.0 - m**2 * a**2 * e2), rel=1e-13)


def test_still_water_is_irrotational(still, site45):
    assert pw.vorticity(still, site45, pw.LagrangianLabel(0.0, 0.0, 60.0),
                        1.0) == (0.0, 0.0, 0.0)


def test_vorticity_matches_matrix_product(ref_params, site45):
    """Independent construction: inverse label Jacobian times velocity gradient."""
    for (q, s, t) in [(0.0, 50.0, 0.0), (13.0, 55.0, 7.0), (40.0, 95.0, 60.0)]:
        lab = pw.LagrangianLabel(q=q, r=0.0, s=s)
        grad_t = np.linalg.solve(label_jacobian(ref_params, lab, t),
                                 velocity_label_gradient(ref_params, lab, t))
        gv = grad_t.T
        expected = (gv[2][1] - gv[1][2], gv[0][2] - gv[2][0],
                    gv[1][0] - gv[0][1])
        omega = pw.vorticity(ref_params, site45, lab, t)
        assert np.allclose(omega, expected, rtol=0.0,
                           atol=1e-12 * max(map(abs, expected)))


def test_vorticity_raises_below_validity_floor(ref_params, site45):
    with pytest.raises(DiffeomorphismError):
        pw.vorticity(ref_params, site45, pw.LagrangianLabel(0.0, 0.0, -10.0), 0.0)


# --- trajectory --------------------------------------------------------------

def test_trajectory_is_circle(ref_params, site45, strat):
    lab = pw.LagrangianLabel(q=0.0, r=0.0, s=ref_params.s0)
    radius = ref_params.b * math.exp(-ref_params.m * ref_params.s0)
    center = np.array([lab.q, lab.r, lab.s])
    samples = pw.trajectory(ref_params, site45, strat, lab,
                            (0.0, wave_period(ref_params)), 500)
    for sample in samples:
        dist = np.linalg.norm(np.array(sample.position) - center)
        assert abs(dist - radius) <= 1e-12 * radius


def test_trajectory_periodicity(ref_params):
    lab = pw.LagrangianLabel(q=3.0, r=1.0, s=60.0)
    period = wave_period(ref_params)
    p0 = np.array(pw.position(ref_params, lab, 0.25 * period))
    p1 = np.array(pw.position(ref_params, lab, 1.25 * period))
    assert np.allclose(p0, p1, rtol=1e-12)


def test_equatorial_orbit_is_vertical(equatorial, equator_site, strat):
    lab = pw.LagrangianLabel(q=0.0, r=2.0, s=60.0)
    samples = pw.trajectory(equatorial, equator_site, strat, lab,
                            (0.0, wave_period(equatorial)), 64)
    ys = {sample.position[1] for sample in samples}
    assert ys == {2.0}


def orbit_normal(params, lab):
    center = np.array([lab.q, lab.r, lab.s])
    period = wave_period(params)
    v1 = np.array(pw.position(params, lab, 0.0)) - center
    v2 = np.array(pw.position(params, lab, period / 4.0)) - center
    n = np.cross(v1, v2)
    return n / np.linalg.norm(n)


def test_orbit_plane_normal_and_tilt(ref_params):
    lab = pw.LagrangianLabel(q=0.0, r=0.0, s=ref_params.s0)
    n = orbit_normal(ref_params, lab)
    assert abs(n[0]) <= 1e-12  # no longitudinal component
    # tilt of the orbit plane from the vertical (x,z) plane
    tilt = math.acos(min(1.0, abs(n[1])))
    assert tilt == pytest.approx(math.atan(abs(ref_params.d) / ref_params.a), abs=1e-10)


def test_orbit_tilt_direction_flips_with_hemisphere(constants, strat):
    """Top of the circle is closer to the Equator on both hemispheres."""
    for lat, sign in ((45.0, -1.0), (-45.0, 1.0)):
        site = pw.coriolis(constants, math.radians(lat))
        nd = pw.nondimensionalize(site, strat, REF_K)
        roots = pw.solve_dispersion(nd, site, strat, REF_K)
        params = pw.derive_parameters(site, strat, REF_K, 10.0, roots.c_plus,
                                      REF_S0, 2000.0, beta0_is_offset=True)
        assert math.copysign(1.0, params.d) == sign


# --- profile -----------------------------------------------------------------

def test_profile_flat_for_still_water(still):
    sheet = pw.profile(still, 60.0, 0.0, 3.0, (0.0, 100.0), 11)
    assert all(p.position[2] == 60.0 for p in sheet)


def test_trochoid_troughs_narrower_than_crests(ref_params):
    n = 20001
    sheet = pw.profile(ref_params, ref_params.s0, 0.0, 0.0, (0.0, ref_params.L), n)
    xs = np.array([p.position[0] for p in sheet])
    zs = np.array([p.position[2] for p in sheet])
    mean = 0.5 * (zs.max() + zs.min())
    dx = np.diff(xs)
    below = (zs[:-1] < mean) & (zs[1:] < mean)
    above = (zs[:-1] > mean) & (zs[1:] > mean)
    trough_width = dx[below].sum()
    crest_width = dx[above].sum()
    # analytic widths differ by 4 b e^(-m s0)
    assert trough_width < crest_width
    assert crest_width - trough_width == pytest.approx(
        4.0 * ref_params.b * math.exp(-ref_params.m * ref_params.s0), rel=1e-2)


def test_amplitude_decay_over_half_wavelength(ref_params):
    n = 512
    top = pw.profile(ref_params, ref_params.s0 + ref_params.L / 2.0, 0.0, 0.0, (0.0, ref_params.L), n)
    bottom = pw.profile(ref_params, ref_params.s0, 0.0, 0.0, (0.0, ref_params.L), n)
    p2p = lambda sheet: (max(p.position[2] for p in sheet)
                         - min(p.position[2] for p in sheet))
    ratio = p2p(top) / p2p(bottom)
    assert ratio == pytest.approx(math.exp(-ref_params.m * ref_params.L / 2.0), rel=1e-6)
    # with m close to k the ratio is within a whisker of e^(-pi) ~ 4%
    assert ratio == pytest.approx(math.exp(-math.pi), rel=1e-4)
    assert ratio < 0.05


# --- inversion ----------------------------------------------------------------

def test_invert_still_water_in_one_step(still):
    lab = pw.invert_map(still, (5.0, -2.0, 70.0), 3.0)
    assert (lab.q, lab.r, lab.s) == (5.0, -2.0, 70.0)


def test_invert_round_trip_random_labels(ref_params):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        lab = pw.LagrangianLabel(q=float(rng.uniform(0.0, ref_params.L)),
                                 r=float(rng.uniform(-5.0, 5.0)),
                                 s=float(rng.uniform(ref_params.s0, ref_params.s_plus)))
        t = float(rng.uniform(0.0, wave_period(ref_params)))
        back = pw.invert_map(ref_params, pw.position(ref_params, lab, t), t)
        worst = max(worst, abs(back.q - lab.q), abs(back.r - lab.r),
                    abs(back.s - lab.s))
    assert worst <= 1e-9


def test_invert_converges_quickly(ref_params):
    target = pw.position(ref_params, pw.LagrangianLabel(10.0, 0.0, 55.0), 2.0)
    lab = pw.invert_map(ref_params, target, 2.0, max_iter=8)
    assert np.allclose(pw.position(ref_params, lab, 2.0), target, atol=1e-12)


def test_invert_newton_is_quadratic(ref_params):
    """Error ratios e_{n+1} / e_n^2 stay bounded along the iteration."""
    true_label = pw.LagrangianLabel(10.0, 0.0, 55.0)
    target = np.array(pw.position(ref_params, true_label, 2.0))
    truth = np.array([true_label.q, true_label.r, true_label.s])
    current = target.copy()  # default initial guess
    errors = []
    for _ in range(5):
        errors.append(np.linalg.norm(current - truth))
        here = pw.LagrangianLabel(*[float(v) for v in current])
        residual = np.array(pw.position(ref_params, here, 2.0)) - target
        mat = label_jacobian(ref_params, here, 2.0).T
        current = current - np.linalg.solve(mat, residual)
    for before, after in zip(errors, errors[1:]):
        if before < 1e-12:
            break
        # quadratic contraction until the roundoff floor
        assert after <= max(10.0 * before**2, 1e-15)


def test_eulerian_velocity_independent_of_y(ref_params):
    x, z, t = 20.0, 60.0, 5.0
    v1 = np.array(pw.eulerian_velocity(ref_params, (x, 0.0, z), t))
    v2 = np.array(pw.eulerian_velocity(ref_params, (x, 8.0, z), t))
    assert np.allclose(v1, v2, atol=1e-12)


# --- sheet elevation -----------------------------------------------------------

def test_sheet_elevation_consistent_with_particles(ref_params):
    for q in (0.0, 17.0, 44.0):
        lab = pw.LagrangianLabel(q=q, r=0.0, s=ref_params.s0)
        x, _, z = pw.position(ref_params, lab, 6.0)
        assert sheet_elevation(ref_params, ref_params.s0, x, 6.0) == pytest.approx(
            z, abs=1e-11)


def test_invert_stops_at_rounding_floor_for_long_waves():
    """At |x| ~ 1e5 m an absolute 1e-12 m is below the spacing of the
    coordinates; the inversion stops at 4 eps |target| instead of failing.
    The targets are finite-difference points of the verifier that an
    absolute stopping rule failed on (lat 5, k 7.5e-6, a 1000 m, s0 1 m)."""
    from pollardwaves.cli import RunConfig, solve_configured
    config = RunConfig(latitude_deg=5.0, wavenumber=7.5e-6, amplitude=1000.0, s0=1.0)
    params = solve_configured(config.validate())[3]
    for target, t in [
            ((347272.14586508356, -15.681170255824869, 1030.9973199172139), 9445.195280537442),
            ((685070.7977167111, -16.906562321385415, 998.0641879324634), 3743.4263603122095),
            ((9430.386986887572, -9.398589817408752, 703.8336220276968), 6546.814002625967)]:
        back = pw.invert_map(params, target, t)
        residual = np.subtract(pw.position(params, back, t), target)
        assert np.linalg.norm(residual) <= max(
            1e-12, 4 * np.finfo(float).eps * np.linalg.norm(target))
