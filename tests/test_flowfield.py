import math
import random

import mpmath
import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves.cli import solve_configured
from pollardwaves.errors import InputError, NumericError
from pollardwaves.flowfield import Flow

import inversion
from conftest import REF_K, REF_S0
from inversion import invert_labels, sheet_elevation
from test_domain import draws as domain_draws


@pytest.fixture(scope="module")
def still(ref_nd, ref_params):
    """Zero-amplitude regression set: still water."""
    return pw.derive_parameters(ref_nd, 0.0, ref_params.c, REF_S0, 2000.0)


def wave_period(params):
    return 2.0 * math.pi / (params.k * abs(params.c))


def floats(values):
    return tuple(float(v) for v in values)


def label_jacobian(flow):
    """3x3 matrix with rows d(x,y,z)/dq, d(x,y,z)/dr, d(x,y,z)/ds."""
    row_q, row_s = flow.jacobian
    return np.array([row_q, (0.0, 1.0, 0.0), row_s], dtype=float)


def velocity_label_gradient(flow):
    """3x3 matrix with rows d(u,v,w)/dq, d(u,v,w)/dr, d(u,v,w)/ds."""
    row_q, row_s = flow.velocity_gradient
    return np.array([row_q, (0.0, 0.0, 0.0), row_s], dtype=float)


# --- position ---------------------------------------------------------------

def test_zero_amplitude_is_identity_map(still):
    assert floats(Flow(still, 12.0, -3.0, 70.0, 17.3).position) == (12.0, -3.0, 70.0)


def test_position_at_zero_phase(ref_params):
    t = 4.2
    q = ref_params.c * t  # theta = 0
    e = math.exp(-ref_params.m * 60.0)
    x, y, z = Flow(ref_params, q, 1.5, 60.0, t).position
    assert x == pytest.approx(q, rel=1e-14)
    assert y == pytest.approx(1.5 - ref_params.d * e, rel=1e-12)
    assert z == pytest.approx(60.0 - ref_params.a * e, rel=1e-12)


def test_reference_thermocline_depth(ref_params):
    _, _, z = Flow(ref_params, 0.0, 0.0, ref_params.s0, 0.0).position
    assert z == pytest.approx(ref_params.s0 - 10.0 * math.exp(-ref_params.m * ref_params.s0),
                              rel=1e-12)


# --- velocity / acceleration -------------------------------------------------

def test_velocity_at_quarter_phase(ref_params):
    q = (math.pi / 2.0) / ref_params.k
    e = math.exp(-ref_params.m * 55.0)
    kc = ref_params.k * ref_params.c
    u, v, w = Flow(ref_params, q, 0.0, 55.0, 0.0).velocity
    assert u == pytest.approx(0.0, abs=1e-15 * kc * ref_params.b * e)
    assert v == pytest.approx(-kc * ref_params.d * e, rel=1e-12)
    assert w == pytest.approx(-kc * ref_params.a * e, rel=1e-12)


def test_acceleration_is_time_derivative_of_velocity(ref_params):
    t = 11.0
    h = 1e-3 / (ref_params.k * ref_params.c)
    vel_p = np.array(Flow(ref_params, 7.0, 0.0, 52.0, t + h).velocity)
    vel_m = np.array(Flow(ref_params, 7.0, 0.0, 52.0, t - h).velocity)
    fd = (vel_p - vel_m) / (2.0 * h)
    acc = np.array(Flow(ref_params, 7.0, 0.0, 52.0, t).acceleration)
    assert np.allclose(fd, acc, rtol=1e-5, atol=1e-12)


def test_particle_speed_is_constant(ref_params):
    e = math.exp(-ref_params.m * ref_params.s0)
    expected = ref_params.k * abs(ref_params.c) * ref_params.b * e
    ts = np.linspace(0.0, wave_period(ref_params), 50)
    speed = np.linalg.norm(Flow(ref_params, 0.0, 0.0, ref_params.s0, ts).velocity, axis=0)
    assert speed == pytest.approx(np.full(50, expected), rel=1e-12)


# --- jacobian ----------------------------------------------------------------

def test_jacobian_identity_for_still_water(still):
    flow = Flow(still, 1.0, 2.0, 60.0, 5.0)
    assert np.array_equal(label_jacobian(flow), np.eye(3))
    assert flow.det == 1.0


def test_jacobian_matches_printed_entries(ref_params):
    q, s, t = 3.0, 58.0, 2.5
    th = ref_params.k * (q - ref_params.c * t)
    e = math.exp(-ref_params.m * s)
    flow = Flow(ref_params, q, 0.5, s, t)
    mat, det = label_jacobian(flow), flow.det
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
    det0 = Flow(ref_params, 0.0, 0.0, ref_params.s0, 0.0).det
    ts = np.linspace(0.0, wave_period(ref_params), 37)
    det = Flow(ref_params, 0.0, 0.0, ref_params.s0, ts).det
    assert np.all(np.abs(det - det0) <= 1e-14)


def test_jacobian_reference_value_at_thermocline(ref_params):
    det = Flow(ref_params, 5.0, 0.0, ref_params.s0, 1.0).det
    expected = 1.0 - (ref_params.m * ref_params.a * math.exp(-ref_params.m * ref_params.s0))**2
    assert det == pytest.approx(expected, rel=1e-12)
    assert 0.0 < det < 1.0


def test_jacobian_raises_below_validity_floor(ref_params):
    with pytest.raises(NumericError, match="flow map is singular at s=-10.0"):
        Flow(ref_params, 0.0, 0.0, -10.0, 0.0).det


# --- pressure ----------------------------------------------------------------

def test_still_water_pressure_is_hydrostatic(still, strat):
    p1 = Flow(still, 0.0, 0.0, 55.0, 0.0).pressure
    p2 = Flow(still, 40.0, 2.0, 75.0, 9.0).pressure
    assert p1 - p2 == pytest.approx(strat.rho0 * strat.g * 20.0, rel=1e-12)


def test_dynamic_boundary_condition(ref_params, strat):
    qs = np.linspace(0.0, ref_params.L, 64, endpoint=False)
    flow = Flow(ref_params, qs, 0.0, ref_params.s0, 3.0)
    p, (_, _, z) = flow.pressure, flow.position
    worst = np.max(np.abs(p - (ref_params.P0 - strat.rho_plus * strat.g * z)))
    assert worst <= 1e-9 * abs(ref_params.P0)


def test_pressure_periodic_in_time(ref_params):
    period = wave_period(ref_params)
    ts = np.linspace(0.0, period, 7)
    p0 = Flow(ref_params, 2.0, 0.0, ref_params.s0, ts).pressure
    p1 = Flow(ref_params, 2.0, 0.0, ref_params.s0, ts + period).pressure
    assert np.all(np.abs(p1 - p0) <= 1e-14 * np.abs(p0))


def test_pressure_independent_of_r(ref_params):
    assert (Flow(ref_params, 9.0, 0.0, 61.0, 1.0).pressure
            == Flow(ref_params, 9.0, 123.0, 61.0, 1.0).pressure)


def test_pressure_splits_into_wave_and_column_parts(ref_params, strat):
    flow = Flow(ref_params, 4.0, 0.0, 66.0, 2.0)
    total = flow.pressure
    wave = flow.dynamic_pressure
    assert total == pytest.approx(
        wave - strat.rho0 * strat.g * 66.0 + ref_params.P0_tilde, rel=1e-15)


# Flow's fields computed on first use
LAZY_FIELDS = ("theta", "sin", "cos", "_complex_sin_cos", "position", "velocity",
               "acceleration", "jacobian", "det", "velocity_gradient", "dynamic_pressure",
               "pressure", "pressure_label_gradient", "vorticity")


def test_every_field_is_computed_once(ref_params):
    """A field's first read stores it in the instance, so a second read returns
    the same object.  The labels are complex, so the complex sine and cosine
    are among the fields."""
    flow = Flow(ref_params, np.linspace(0.0, ref_params.L, 5) + 1e-30j, 0.0, 66.0, 2.0)
    for name in LAZY_FIELDS:
        first = getattr(flow, name)
        assert getattr(flow, name) is first and vars(flow)[name] is first, name


def test_fields_read_on_the_class_are_documented_descriptors():
    """Flow.<field> is the class's own attribute, carrying its method's
    docstring; no other attribute of the class is computed on first use."""
    for name in LAZY_FIELDS:
        descriptor = getattr(Flow, name)
        assert descriptor is vars(Flow)[name] and descriptor.__doc__, name
    assert Flow.theta.__doc__ == "Phase theta = k (q - c t)."
    lazy = {name for name, attr in vars(Flow).items() if type(attr) is type(Flow.theta)}
    assert lazy == set(LAZY_FIELDS)


# --- vorticity ---------------------------------------------------------------

def test_equatorial_critical_amplitude_vorticity(equatorial):
    """At f=0, a=1/m, m=k the curl reduces to (0, 2kc e^(-2ks)/(1-e^(-2ks)), 0)."""
    k, c = equatorial.k, equatorial.c
    for s in (55.0, 70.0, 90.0):
        w1, w2, w3 = Flow(equatorial, 3.0, 1.0, s, 2.0).vorticity
        e2 = math.exp(-2.0 * k * s)
        assert w1 == 0.0 and w3 == 0.0
        assert w2 == pytest.approx(2.0 * k * c * e2 / (1.0 - e2), rel=1e-13)


def test_equatorial_general_amplitude_vorticity(equatorial, equator_site, strat):
    params = pw.derive_parameters(pw.nondimensionalize(equator_site, strat, REF_K), 4.0,
                                  equatorial.c, REF_S0, 2000.0)
    k, c, m, a = params.k, params.c, params.m, params.a
    s = 62.0
    e2 = math.exp(-2.0 * m * s)
    _, w2, _ = Flow(params, 0.0, 0.0, s, 0.0).vorticity
    assert w2 == pytest.approx(
        2.0 * k * c * m**2 * a**2 * e2 / (1.0 - m**2 * a**2 * e2), rel=1e-13)


def test_still_water_is_irrotational(still):
    assert floats(Flow(still, 0.0, 0.0, 60.0, 1.0).vorticity) == (0.0, 0.0, 0.0)


def test_vorticity_matches_matrix_product(ref_params):
    """Independent construction: inverse label Jacobian times velocity gradient."""
    for (q, s, t) in [(0.0, 50.0, 0.0), (13.0, 55.0, 7.0), (40.0, 95.0, 60.0)]:
        flow = Flow(ref_params, q, 0.0, s, t)
        grad_t = np.linalg.solve(label_jacobian(flow), velocity_label_gradient(flow))
        gv = grad_t.T
        expected = (gv[2][1] - gv[1][2], gv[0][2] - gv[2][0],
                    gv[1][0] - gv[0][1])
        omega = floats(flow.vorticity)
        assert np.allclose(omega, expected, rtol=0.0,
                           atol=1e-12 * max(map(abs, expected)))


def test_vorticity_raises_below_validity_floor(ref_params):
    with pytest.raises(NumericError, match="vorticity prefactor degenerate at s=-10.0"):
        Flow(ref_params, 0.0, 0.0, -10.0, 0.0).vorticity


# --- trajectory --------------------------------------------------------------

def test_trajectory_is_circle(ref_params):
    radius = ref_params.b * math.exp(-ref_params.m * ref_params.s0)
    center = np.array([0.0, 0.0, ref_params.s0])[:, None]
    ts = np.linspace(0.0, wave_period(ref_params), 500)
    position = np.array(Flow(ref_params, 0.0, 0.0, ref_params.s0, ts).position)
    dist = np.linalg.norm(position - center, axis=0)
    assert np.all(np.abs(dist - radius) <= 1e-12 * radius)


def test_trajectory_periodicity(ref_params):
    period = wave_period(ref_params)
    p0 = np.array(Flow(ref_params, 3.0, 1.0, 60.0, 0.25 * period).position)
    p1 = np.array(Flow(ref_params, 3.0, 1.0, 60.0, 1.25 * period).position)
    assert np.allclose(p0, p1, rtol=1e-12)


def test_equatorial_orbit_is_vertical(equatorial):
    ts = np.linspace(0.0, wave_period(equatorial), 64)
    _, y, _ = Flow(equatorial, 0.0, 2.0, 60.0, ts).position
    assert set(y.tolist()) == {2.0}


def orbit_normal(params, q, r, s):
    center = np.array([q, r, s])
    period = wave_period(params)
    v1 = np.array(Flow(params, q, r, s, 0.0).position) - center
    v2 = np.array(Flow(params, q, r, s, period / 4.0).position) - center
    n = np.cross(v1, v2)
    return n / np.linalg.norm(n)


def test_orbit_plane_normal_and_tilt(ref_params):
    n = orbit_normal(ref_params, 0.0, 0.0, ref_params.s0)
    assert abs(n[0]) <= 1e-12  # no longitudinal component
    # tilt of the orbit plane from the vertical (x,z) plane
    tilt = math.acos(min(1.0, abs(n[1])))
    assert tilt == pytest.approx(math.atan(abs(ref_params.d) / ref_params.a), abs=1e-10)


def test_orbit_tilt_direction_flips_with_hemisphere(constants, strat):
    """Top of the circle is closer to the Equator on both hemispheres."""
    for lat, sign in ((45.0, -1.0), (-45.0, 1.0)):
        site = pw.coriolis(constants, math.radians(lat))
        nd = pw.nondimensionalize(site, strat, REF_K)
        _, c_plus = pw.solve_branch(nd, "positive")
        params = pw.derive_parameters(nd, 10.0, c_plus, REF_S0, 2000.0)
        assert math.copysign(1.0, params.d) == sign


# --- profile -----------------------------------------------------------------

def test_profile_flat_for_still_water(still):
    _, _, z = Flow(still, np.linspace(0.0, 100.0, 11), 0.0, 60.0, 3.0).position
    assert np.all(z == 60.0)


def test_trochoid_troughs_narrower_than_crests(ref_params):
    n = 20001
    xs, _, zs = Flow(ref_params, np.linspace(0.0, ref_params.L, n), 0.0,
                     ref_params.s0, 0.0).position
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
    qs = np.linspace(0.0, ref_params.L, 512)
    top = Flow(ref_params, qs, 0.0, ref_params.s0 + ref_params.L / 2.0, 0.0).position[2]
    bottom = Flow(ref_params, qs, 0.0, ref_params.s0, 0.0).position[2]
    p2p = lambda z: z.max() - z.min()
    ratio = p2p(top) / p2p(bottom)
    assert ratio == pytest.approx(math.exp(-ref_params.m * ref_params.L / 2.0), rel=1e-6)
    # with m close to k the ratio is within a whisker of e^(-pi) ~ 4%
    assert ratio == pytest.approx(math.exp(-math.pi), rel=1e-4)
    assert ratio < 0.05


# --- inversion ----------------------------------------------------------------

def test_invert_still_water_in_one_step(still):
    assert floats(invert_labels(still, 5.0, -2.0, 70.0, 3.0)) == (5.0, -2.0, 70.0)


def test_invert_round_trip_random_labels(ref_params):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        lab = (float(rng.uniform(0.0, ref_params.L)), float(rng.uniform(-5.0, 5.0)),
               float(rng.uniform(ref_params.s0, ref_params.s_plus)))
        t = float(rng.uniform(0.0, wave_period(ref_params)))
        back = invert_labels(ref_params, *Flow(ref_params, *lab, t).position, t)
        worst = max(worst, *(abs(float(b) - v) for b, v in zip(back, lab)))
    assert worst <= 1e-9


def test_invert_converges_quickly(ref_params, monkeypatch):
    monkeypatch.setattr(inversion, "_INVERT_MAX_ITER", 8)
    target = Flow(ref_params, 10.0, 0.0, 55.0, 2.0).position
    lab = invert_labels(ref_params, *target, 2.0)
    assert np.allclose(Flow(ref_params, *lab, 2.0).position, target, atol=1e-12)


def test_invert_newton_is_quadratic(ref_params):
    """Error ratios e_{n+1} / e_n^2 stay bounded along the iteration."""
    truth = np.array([10.0, 0.0, 55.0])
    target = np.array(Flow(ref_params, *truth, 2.0).position)
    current = target.copy()  # default initial guess
    errors = []
    for _ in range(5):
        errors.append(np.linalg.norm(current - truth))
        here = Flow(ref_params, *current, 2.0)
        residual = np.array(here.position) - target
        mat = label_jacobian(here).T
        current = current - np.linalg.solve(mat, residual)
    for before, after in zip(errors, errors[1:]):
        if before < 1e-12:
            break
        # quadratic contraction until the roundoff floor
        assert after <= max(10.0 * before**2, 1e-15)


def test_eulerian_velocity_independent_of_y(ref_params):
    x, z, t = 20.0, 60.0, 5.0
    labels = invert_labels(ref_params, x, np.array([0.0, 8.0]), z, t)
    v1, v2 = np.array(Flow(ref_params, *labels, t).velocity).T
    assert np.allclose(v1, v2, atol=1e-12)


# --- sheet elevation -----------------------------------------------------------

def test_sheet_elevation_consistent_with_particles(ref_params):
    for q in (0.0, 17.0, 44.0):
        x, _, z = Flow(ref_params, q, 0.0, ref_params.s0, 6.0).position
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
        back = invert_labels(params, *target, t)
        residual = np.subtract(Flow(params, *back, t).position, target)
        assert np.linalg.norm(residual) <= max(
            1e-12, 4 * np.finfo(float).eps * np.linalg.norm(target))


# --- precision against a 50-digit evaluation ------------------------------------

def exact_flow(params, q, r, s, t):
    """(x, y, z, p) of Flow's closed forms at one label and time, in 50-digit
    arithmetic, with every double of the set and of (q, r, s, t) taken as
    exact: what Flow would return if it rounded nothing."""
    with mpmath.workdps(50):
        k, c, a, b, d, m, f, f_hat, rho0, g, p0_tilde, q, r, s, t = map(mpmath.mpf, (
            params.k, params.c, params.a, params.b, params.d, params.m, params.f,
            params.f_hat, params.strat.rho0, params.strat.g, params.P0_tilde, q, r, s, t))
        theta = k * (q - c * t)
        e, sin, cos = mpmath.exp(-m * s), mpmath.sin(theta), mpmath.cos(theta)
        A = (-k**2 * c**2 * b**2 + f_hat * k * c * a * b - f * k * c * b * d) / 2
        B = c * a * f_hat - c * d * f - k * c**2 * b - a * g
        return (q - b * e * sin, r - d * e * cos, s - a * e * cos,
                -rho0 * (A * e**2 + B * e * cos) - rho0 * g * s + p0_tilde)


def term_scales(flow):
    """Per sample, the largest term that x, z and p each sum; a trigonometric
    term counts at its amplitude times |theta| + 1, because theta = k (q - c t)
    is itself rounded before its sine is taken."""
    p, e = flow.params, flow.e
    A, B = flow._pressure_coefficients()
    trig = e * (np.abs(flow.theta) + 1.0)
    rho0, g = p.strat.rho0, p.strat.g
    return {"x": np.maximum(np.abs(flow.q), abs(p.b) * trig),
            "z": np.maximum(np.abs(flow.s), abs(p.a) * trig),
            "p": np.maximum.reduce([abs(rho0 * A) * e * e, abs(rho0 * B) * trig,
                                    rho0 * g * np.abs(flow.s),
                                    np.full_like(e, abs(p.P0_tilde))])}


# Worst error of each field over the admitted draws of test_domain.draws(300),
# 6 samples each, in ulp of its term_scales, each bound just above the worst at
# version 0.20.0: x 1.04, z 1.49, p 1.64.
FLOW_ULPS = {"x": 1.1, "z": 1.6, "p": 1.7}


def test_positions_and_pressure_meet_a_50_digit_evaluation():
    """Flow's x, z and p over the domain's admitted draws, at labels and times
    drawn across a wavelength, the layer [s0, s_plus] and a period, each
    within its FLOW_ULPS bound of exact_flow."""
    rng, worst, admitted = random.Random(1), dict.fromkeys(FLOW_ULPS, 0.0), 0
    for config in domain_draws(300):
        try:
            params = solve_configured(config.validate())[3]
        except InputError:
            continue
        admitted += 1
        period = 2.0 * math.pi / (params.k * abs(params.c))
        q, r, s, t = np.array([(rng.uniform(0.0, params.L), rng.uniform(-params.L, params.L),
                                rng.uniform(params.s0, params.s_plus), rng.uniform(0.0, period))
                               for _ in range(6)]).T
        flow = Flow(params, q, r, s, t)
        x, _, z = flow.position
        got, scales = {"x": x, "z": z, "p": flow.pressure}, term_scales(flow)
        for i in range(6):
            exact = dict(zip("xyzp", exact_flow(params, q[i], r[i], s[i], t[i])))
            for name in FLOW_ULPS:
                miss = float(abs(mpmath.mpf(float(got[name][i])) - exact[name]))
                worst[name] = max(worst[name], miss / math.ulp(float(scales[name][i])))
    assert admitted == 181
    assert all(worst[name] <= bound for name, bound in FLOW_ULPS.items()), worst
