"""The array kernel against the per-label ``math`` oracle, its closed-form
2x2 solves against numpy.linalg, its complex sin and cos against numpy's, the
batched inversions of the test oracle ``inversion``, and the verify report's
layout."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from pollardwaves import cli
from pollardwaves.errors import NumericError
from pollardwaves.flowfield import Flow

import inversion
import scalar_reference as ref
from inversion import invert_labels, sheet_label_q

N_LABELS = 200


@pytest.fixture(params=["reference", "equatorial"])
def scenario(request, ref_params, equatorial):
    return {"reference": ref_params, "equatorial": equatorial}[request.param]


def random_labels(params, seed, n=N_LABELS):
    rng = np.random.default_rng(seed)
    period = 2.0 * math.pi / (params.k * abs(params.c))
    return (rng.uniform(0.0, params.L, n), rng.uniform(-10.0, 10.0, n),
            rng.uniform(params.s0, params.s_plus, n), rng.uniform(0.0, period, n))


def flat_rows(rows):
    return tuple(x for row in rows for x in row)


# (name, kernel components, oracle components at one label)
QUANTITIES = [
    ("position", lambda f: f.position, lambda p, st, *x: ref.position(p, *x)),
    ("velocity", lambda f: f.velocity, lambda p, st, *x: ref.velocity(p, *x)),
    ("acceleration", lambda f: f.acceleration,
     lambda p, st, *x: ref.acceleration(p, *x)),
    ("jacobian", lambda f: flat_rows(f.jacobian),
     lambda p, st, *x: flat_rows(ref.jacobian_rows(p, *x))),
    ("det", lambda f: (f.det,), lambda p, st, *x: (ref.det(p, *x),)),
    ("dynamic_pressure", lambda f: (f.dynamic_pressure,),
     lambda p, st, *x: (ref.dynamic_pressure(p, st, *x),)),
    ("pressure", lambda f: (f.pressure,),
     lambda p, st, *x: (ref.pressure(p, st, *x),)),
    ("pressure_label_gradient", lambda f: f.pressure_label_gradient,
     lambda p, st, *x: ref.pressure_label_gradient(p, st, *x)),
    ("vorticity", lambda f: f.vorticity, lambda p, st, *x: ref.vorticity(p, *x)),
]


@pytest.mark.parametrize("name, kernel, oracle", QUANTITIES,
                         ids=[q[0] for q in QUANTITIES])
def test_kernel_matches_scalar_oracle(scenario, name, kernel, oracle):
    """Within 4 ulp of the oracle, or 1e-15 of the component's scale over
    the sampled labels."""
    labels = random_labels(scenario, seed=11)
    got = np.array(np.broadcast_arrays(*kernel(Flow(scenario, *labels))))
    want = np.array([oracle(scenario, scenario.strat, *x)
                     for x in zip(*(a.tolist() for a in labels))]).T
    scale = np.abs(want).max(axis=1, keepdims=True)
    bound = np.maximum(4.0 * np.spacing(np.abs(want)), 1e-15 * scale)
    assert np.all(np.abs(got - want) <= bound), (name, np.abs(got - want).max())


def test_block_solves_match_linalg_solve(ref_params):
    """J X = g and J^T X = g in closed form against LU solves of the 3x3."""
    flow = Flow(ref_params, *random_labels(ref_params, seed=5))
    g = np.random.default_rng(6).uniform(-1.0, 1.0, (3, N_LABELS))
    eulerian = np.array(flow.eulerian_gradient(*g))
    step = np.array(flow.newton_step(*g))
    (j00, j01, j02), (j20, j21, j22) = flow.jacobian
    for i in range(N_LABELS):
        mat = np.array([[j00[i], j01[i], j02[i]], [0.0, 1.0, 0.0],
                        [j20[i], j21[i], j22[i]]])
        assert np.allclose(eulerian[:, i], np.linalg.solve(mat, g[:, i]),
                           rtol=0.0, atol=1e-14)
        assert np.allclose(step[:, i], np.linalg.solve(mat.T, g[:, i]),
                           rtol=0.0, atol=1e-14)


def test_kernel_raises_on_any_singular_entry(ref_params):
    s = np.array([60.0, 55.0, -10.0, 70.0])
    flow = Flow(ref_params, 0.0, 0.0, s, 0.0)
    with pytest.raises(NumericError, match="flow map is singular at s=-10.0"):
        flow.det
    with pytest.raises(NumericError, match="vorticity prefactor degenerate at s=-10.0"):
        flow.vorticity
    assert np.all(np.isfinite(flow.position))


def test_flow_read_for_det_leaves_sin_uncomputed(ref_params):
    """The determinant reads cos(theta) only; sin(theta) waits for a field
    that reads it."""
    flow = Flow(ref_params, *random_labels(ref_params, 5))
    flow.det
    assert "cos" in vars(flow) and "sin" not in vars(flow)
    flow.velocity
    assert "sin" in vars(flow)


# --- complex phases ---------------------------------------------------------

def field_bits(flow):
    """dtype, shape and bytes of sin, cos and every QUANTITIES field of a Flow."""
    arrays = [flow.sin, flow.cos, *(v for _, kernel, _ in QUANTITIES for v in kernel(flow))]
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def with_numpy_trig(flow):
    """A Flow at the labels of ``flow`` whose sin and cos are numpy's complex ones."""
    twin = Flow(flow.params, flow.q, flow.r, flow.s, flow.t)
    twin.sin, twin.cos = np.sin(twin.theta), np.cos(twin.theta)
    return twin


@pytest.mark.parametrize("argv", [[], ["--lat", "0"], ["--lat", "-60", "--branch", "negative"]],
                         ids=["reference", "equator", "south-negative"])
def test_complex_trig_keeps_numpy_bits_at_the_verifiers_steps(argv, monkeypatch, tmp_path):
    """The verifier's four complex Flows (the pressure rows, the boundary's
    `at` and `q_h` flows and the probe's stepped labels) have cosh y = 1 and
    sinh y = y at theta = x + i y: every field, from sin and cos taken from
    real parts, has the bits it has from numpy's complex sin and cos."""
    flows, original = [], Flow.__init__
    monkeypatch.setattr(Flow, "__init__",
                        lambda self, *args: flows.append(self) or original(self, *args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", *argv, "--out", str(tmp_path / "report.json")]) == 0
    monkeypatch.undo()
    stepped = [flow for flow in flows if np.iscomplexobj(flow.theta)]
    assert len(stepped) == 4
    for flow in stepped:
        assert field_bits(flow) == field_bits(with_numpy_trig(flow))


def test_complex_trig_within_4_ulp_of_numpy(scenario):
    """At general complex phases, |Im theta| <= 5, sin and cos taken from real
    parts agree with numpy's complex sin and cos within 4 ulp in each of the
    real and imaginary parts (2 measured)."""
    q, r, s, t = random_labels(scenario, seed=12, n=2000)
    im = np.random.default_rng(13).uniform(-5.0, 5.0, q.size) / scenario.k
    split = Flow(scenario, q + 1j * im, r, s, t)
    twin = with_numpy_trig(split)
    assert np.max(np.abs(split.theta.imag)) <= 5.0
    for got, want in ((split.sin, twin.sin), (split.cos, twin.cos)):
        for part in (np.real, np.imag):
            a, b = part(got), part(want)
            assert np.all(np.abs(a - b) <= 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))


# --- batched inversions ---------------------------------------------------

def test_batched_inversion_equals_per_target_inversion(ref_params):
    q, r, s, t = random_labels(ref_params, seed=9, n=40)
    x, y, z = Flow(ref_params, q, r, s, t).position
    batch = invert_labels(ref_params, x, y, z, t)
    for i in range(q.size):
        one = invert_labels(ref_params, float(x[i]), float(y[i]), float(z[i]), float(t[i]))
        assert tuple(map(float, one)) == tuple(float(v[i]) for v in batch)
    assert np.allclose(batch[0], q, atol=1e-9) and np.allclose(batch[2], s, atol=1e-9)


def test_batched_inversion_fails_if_any_target_fails(ref_params, monkeypatch):
    monkeypatch.setattr(inversion, "_INVERT_MAX_ITER", 1)
    q, r, s, t = random_labels(ref_params, seed=10, n=8)
    x, y, z = Flow(ref_params, q, r, s, t).position
    with pytest.raises(NumericError, match="map inversion did not reach"):
        invert_labels(ref_params, x, y, z, t)


def test_inversion_keeps_array_shape(ref_params):
    x = np.full((2, 3), 20.0)
    q, r, s = invert_labels(ref_params, x, 0.0, 60.0, np.array([0.0, 5.0, 9.0]))
    assert q.shape == r.shape == s.shape == (2, 3)


def test_inversion_of_a_huge_target_squares_nothing(ref_params):
    """The residual size and the stop bound are scaled norms: at |target| 1e200
    a sum of squares overflowed with a RuntimeWarning, and its inf bound
    closed every entry after one step."""
    target = (1e200, 0.0, 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        label = invert_labels(ref_params, *target, 0.0)
        position = Flow(ref_params, *label, 0.0).position
    residual = math.hypot(*(float(p) - v for p, v in zip(position, target)))
    assert residual <= max(inversion._INVERT_TOL, 4 * np.finfo(float).eps * 1e200)


def test_batched_sheet_inversion_equals_scalar(ref_params):
    xs = np.linspace(-30.0, 130.0, 17)
    batch = sheet_label_q(ref_params, ref_params.s0, xs, 4.0)
    assert [float(sheet_label_q(ref_params, ref_params.s0, float(x), 4.0))
            for x in xs] == batch.tolist()
    z = Flow(ref_params, float(batch[3]), 0.0, ref_params.s0, 4.0).position[2]
    assert inversion.sheet_elevation(ref_params, ref_params.s0, xs, 4.0)[3] == z


def test_complex_step_inversions_match_the_inverse_jacobian(ref_params):
    """Complex-step derivatives of both inversions equal the closed-form
    inverse Jacobian to roundoff at entries whose real Newton residual starts
    within its bound.  Such an entry must still take a step: otherwise its
    imaginary part stays that of its start, and its derivative is the
    identity."""
    h = 1e-30
    # the sheet at theta = 0, where the real residual b e^(-m s) sin(theta) is 0
    q = sheet_label_q(ref_params, ref_params.s0, [1j * h, 0.0], [0.0, 1j * h])
    flow = Flow(ref_params, 0.0, 0.0, ref_params.s0, 0.0)
    assert q.real.tolist() == [0.0, 0.0]
    assert q.imag[0] / h == pytest.approx(1.0 / flow.jacobian[0][0], rel=1e-15)
    assert q.imag[1] / h == pytest.approx(-flow.velocity[0] / flow.jacobian[0][0], rel=1e-15)
    # 490 m deep, the start's residual ~ a e^(-m s) = 4e-13 m is within 1e-12 m,
    # while d(label)/d(x, y, z) differs from the identity by k a e^(-m s) = 3e-14
    label, t = (7.0, 1.0, 490.0), 2.0
    flow = Flow(ref_params, *label, t)
    points = np.array(flow.position)[:, None] + 1j * h * np.eye(3)   # (xyz, j)
    got = np.array(invert_labels(ref_params, *points, t))               # (qrs, j)
    assert np.all(np.abs(got.real - np.array(label)[:, None]) <= 1e-12)
    want = np.array([flow.newton_step(*e) for e in np.eye(3)]).T
    assert np.abs(want - np.eye(3)).max() > 1e-14
    assert np.abs(got.imag / h - want).max() <= 1e-15


def test_real_inputs_stay_float64_bit_for_bit(ref_params):
    """Real labels and times, -0.0 included, are kept bit for bit as float64,
    and every field on Python scalars and ints equals, bit for bit, the field
    on the same values as float64 arrays."""
    labels = (np.array([-0.0, 0.0, 3.5]), -0.0, np.array([50.0, 60.0, 70.0]), -0.0)
    flow = Flow(ref_params, *labels)
    for got, given in zip((flow.q, flow.r, flow.s, flow.t), labels):
        assert got.dtype == np.float64 and got.tobytes() == np.asarray(given).tobytes()
    fields = [lambda f: f.position, lambda f: f.velocity, lambda f: f.acceleration,
              lambda f: flat_rows(f.jacobian), lambda f: (f.det,),
              lambda f: flat_rows(f.velocity_gradient),
              lambda f: (f.pressure,), lambda f: f.pressure_label_gradient,
              lambda f: f.vorticity]
    for scalars in [(-0.0, -0.0, 50.0, -0.0), (3, 0, 60, 2), (7.25, -1.0, 55.5, 9.0)]:
        one = Flow(ref_params, *scalars)
        arrays = Flow(ref_params, *(np.array(v, dtype=np.float64) for v in scalars))
        for field in fields:
            for a, b in zip(field(one), field(arrays)):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_verify_report_layout_at_defaults(tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"passed", "config", "checks"}
    components = {}
    for check in report["checks"]:
        assert set(check) == {"check_name", "max_residual", "tolerance", "n_samples",
                              "passed", "worst_sample", "components"}
        assert set(check["worst_sample"]) == {"q", "r", "s", "t"}
        for comp in check["components"]:
            assert set(comp) == {"name", "max_residual", "tolerance", "worst_sample"}
            assert all(isinstance(v, float) for v in comp["worst_sample"].values())
        components[check["check_name"]] = (
            check["n_samples"], [c["name"] for c in check["components"]])
    assert components == {
        "boundary": (130, ["dynamic_condition", "kinematic_condition"]),
        "euler": (1330, ["momentum_residual"]),
        "incompressibility": (356, ["jacobian_time_invariance", "eulerian_divergence"]),
        "pressure_consistency": (1330, ["gradient_transport", "mixed_partials"]),
        "vorticity": (1380, ["matrix_product", "fd_curl"]),
    }
