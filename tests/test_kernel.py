"""The array kernel against the per-label ``math`` oracle, its closed-form
2x2 solves against numpy.linalg, the batched inversions, and guards that the
verifier and the CLI call no inversion."""

import contextlib
import io
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves import cli, flowfield, verify
from pollardwaves.errors import DiffeomorphismError, InversionError
from pollardwaves.flowfield import Flow, invert_labels, sheet_label_q

import scalar_reference as ref

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
    ("position", lambda f, st: f.position, lambda p, st, *x: ref.position(p, *x)),
    ("velocity", lambda f, st: f.velocity, lambda p, st, *x: ref.velocity(p, *x)),
    ("acceleration", lambda f, st: f.acceleration,
     lambda p, st, *x: ref.acceleration(p, *x)),
    ("jacobian", lambda f, st: flat_rows(f.jacobian),
     lambda p, st, *x: flat_rows(ref.jacobian_rows(p, *x))),
    ("det", lambda f, st: (f.det,), lambda p, st, *x: (ref.det(p, *x),)),
    ("dynamic_pressure", lambda f, st: (f.dynamic_pressure(st),),
     lambda p, st, *x: (ref.dynamic_pressure(p, st, *x),)),
    ("pressure", lambda f, st: (f.pressure(st),),
     lambda p, st, *x: (ref.pressure(p, st, *x),)),
    ("pressure_label_gradient", lambda f, st: f.pressure_label_gradient(st),
     lambda p, st, *x: ref.pressure_label_gradient(p, st, *x)),
    ("vorticity", lambda f, st: f.vorticity, lambda p, st, *x: ref.vorticity(p, *x)),
]


@pytest.mark.parametrize("name, kernel, oracle", QUANTITIES,
                         ids=[q[0] for q in QUANTITIES])
def test_kernel_matches_scalar_oracle(scenario, strat, name, kernel, oracle):
    """Within 4 ulp of the oracle, or 1e-15 of the component's scale over
    the sampled labels."""
    labels = random_labels(scenario, seed=11)
    got = np.array(np.broadcast_arrays(*kernel(Flow(scenario, *labels), strat)))
    want = np.array([oracle(scenario, strat, *x)
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
    with pytest.raises(DiffeomorphismError, match="s=-10.0"):
        flow.det
    with pytest.raises(DiffeomorphismError, match="s=-10.0"):
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
    monkeypatch.setattr(flowfield, "_INVERT_MAX_ITER", 1)
    q, r, s, t = random_labels(ref_params, seed=10, n=8)
    x, y, z = Flow(ref_params, q, r, s, t).position
    with pytest.raises(InversionError):
        invert_labels(ref_params, x, y, z, t)


def test_inversion_keeps_array_shape(ref_params):
    x = np.full((2, 3), 20.0)
    q, r, s = invert_labels(ref_params, x, 0.0, 60.0, np.array([0.0, 5.0, 9.0]))
    assert q.shape == r.shape == s.shape == (2, 3)


def test_batched_sheet_inversion_equals_scalar(ref_params):
    xs = np.linspace(-30.0, 130.0, 17)
    batch = sheet_label_q(ref_params, ref_params.s0, xs, 4.0)
    assert [float(sheet_label_q(ref_params, ref_params.s0, float(x), 4.0))
            for x in xs] == batch.tolist()
    z = Flow(ref_params, float(batch[3]), 0.0, ref_params.s0, 4.0).position[2]
    assert flowfield.sheet_elevation(ref_params, ref_params.s0, xs, 4.0)[3] == z


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


def test_real_inputs_stay_float64_bit_for_bit(ref_params, strat):
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
              lambda f: (f.pressure(strat),), lambda f: f.pressure_label_gradient(strat),
              lambda f: f.vorticity]
    for scalars in [(-0.0, -0.0, 50.0, -0.0), (3, 0, 60, 2), (7.25, -1.0, 55.5, 9.0)]:
        one = Flow(ref_params, *scalars)
        arrays = Flow(ref_params, *(np.array(v, dtype=np.float64) for v in scalars))
        for field in fields:
            for a, b in zip(field(one), field(arrays)):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


# --- no inversion in the verifier or the CLI --------------------------------

# the public inversions
INVERSIONS = ("invert_labels", "sheet_label_q", "sheet_elevation")


@pytest.fixture
def per_label_calls(monkeypatch):
    """Counts calls to the flowfield inversions, wherever the package holds
    them; a solve per label would show as one call per sample."""
    calls = Counter()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "pollardwaves" or name.startswith("pollardwaves.")]
    for name in INVERSIONS:
        original = getattr(flowfield, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_verify_and_cli_make_no_per_label_calls(per_label_calls, ref_params, strat,
                                                tmp_path):
    config = verify.VerifyConfig(n_theta=8, n_s=6, n_time=3, n_random=12, seed=3)
    assert all(r.passed for r in verify.run_all(ref_params, strat, config))
    out = str(tmp_path / "out.csv")
    assert cli.main(["field", "--nq", "16", "--ns", "4", "--out", out]) == 0
    assert cli.main(["trajectory", "--n", "16", "--out", out]) == 0
    assert cli.main(["profile", "--n", "16", "--out", out]) == 0
    # check_boundary's sheet labels and the probe's labels are each one
    # Newton step from labels the verifier holds: no inversion at all
    assert per_label_calls == {}
    pw.sheet_elevation(ref_params, ref_params.s0, 0.0, 0.0)  # counter works
    assert per_label_calls == {"sheet_elevation": 1, "sheet_label_q": 1}


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
