import dataclasses
import json
import math

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves import verify
from pollardwaves.flowfield import (
    Flow,
    LagrangianLabel,
    pressure_label_gradient,
    sheet_elevation,
)

from conftest import REF_K, REF_S0


@pytest.fixture(scope="module")
def still(site45, strat, ref_roots):
    return pw.derive_parameters(site45, strat, REF_K, 0.0, ref_roots.c_plus,
                                REF_S0, 2000.0, beta0_is_offset=True)


SMALL = verify.VerifyConfig(n_theta=8, n_s=6, n_time=3, n_random=12, seed=3)


# --- positive checks ----------------------------------------------------------

def test_all_checks_pass_for_reference_set(ref_params, site45, strat):
    reports = pw.run_all(ref_params, site45, strat, SMALL)
    assert [r.check_name for r in reports] == sorted(r.check_name for r in reports)
    for report in reports:
        assert report.passed, (report.check_name, report.max_residual)
        assert report.n_samples > 0


def test_all_checks_pass_for_still_water(still, site45, strat):
    for report in pw.run_all(still, site45, strat, SMALL):
        assert report.passed


def test_euler_still_water_exactly_hydrostatic(still, site45, strat):
    report = verify.check_euler(still, strat, config=SMALL)
    assert report.max_residual == 0.0


def test_report_invariant_passed_iff_within_tolerance(ref_params, site45, strat):
    report = verify.check_euler(ref_params, strat, config=SMALL)
    assert report.passed == (report.max_residual <= report.tolerance)
    assert set(report.worst_sample) == {"q", "r", "s", "t"}


def test_boundary_check_tolerances(ref_params, strat):
    report = verify.check_boundary(ref_params, strat, config=SMALL)
    families = {c.name: c for c in report.components}
    assert families["dynamic_condition"].tolerance == 1e-9
    assert families["kinematic_condition"].tolerance == 1e-8
    assert report.passed


def test_incompressibility_families(ref_params):
    report = verify.check_incompressibility(ref_params, config=SMALL)
    families = {c.name: c for c in report.components}
    assert families["jacobian_time_invariance"].max_residual <= 1e-14
    assert families["eulerian_divergence"].max_residual <= 1e-6
    assert report.passed


def test_vorticity_families(ref_params, site45):
    report = verify.check_vorticity(ref_params, config=SMALL)
    families = {c.name: c for c in report.components}
    assert families["matrix_product"].max_residual <= 1e-12
    assert families["fd_curl"].max_residual <= 1e-5
    assert report.passed


# --- negative controls ----------------------------------------------------------

def test_euler_fails_with_perturbed_phase_speed(ref_params, site45, strat):
    bad = dataclasses.replace(ref_params, c=1.01 * ref_params.c)
    report = verify.check_euler(bad, strat, config=SMALL)
    assert not report.passed
    assert report.max_residual > 1e-10  # far above the identity tolerance


def test_boundary_fails_with_perturbed_phase_speed(ref_params, strat):
    bad = dataclasses.replace(ref_params, c=1.01 * ref_params.c)
    report = verify.check_boundary(bad, strat, config=SMALL)
    families = {c.name: c for c in report.components}
    assert families["dynamic_condition"].max_residual > 1e-7
    assert not report.passed


def test_incompressibility_fails_with_broken_first_condition(ref_params):
    bad = dataclasses.replace(ref_params, b=1.01 * ref_params.b)
    report = verify.check_incompressibility(bad, config=SMALL)
    families = {c.name: c for c in report.components}
    assert families["jacobian_time_invariance"].max_residual > 1e-5
    assert not report.passed


def test_vorticity_fails_with_broken_first_condition(ref_params, site45):
    bad = dataclasses.replace(ref_params, b=1.01 * ref_params.b)
    report = verify.check_vorticity(bad, config=SMALL)
    assert not report.passed


def test_pressure_consistency_fails_with_broken_second_condition(ref_params, strat):
    bad = dataclasses.replace(ref_params, d=1.01 * ref_params.d)
    report = verify.check_pressure_consistency(bad, strat, config=SMALL)
    assert not report.passed


def test_perturbed_m_breaks_vorticity_and_euler(ref_params, site45, strat):
    bad = dataclasses.replace(ref_params, m=1.01 * ref_params.m)
    assert not verify.check_vorticity(bad, config=SMALL).passed
    assert not verify.check_euler(bad, strat, config=SMALL).passed


def test_kinematic_residual_with_mismatched_velocity_sheet(ref_params):
    """Velocity taken from labels one metre above the sheet must not satisfy
    the kinematic condition of the thermocline sheet."""
    t = 2.0
    ht = 1e-3 / (ref_params.k * ref_params.c)
    hx = 1e-4
    lab = LagrangianLabel(q=(math.pi / 2) / ref_params.k + ref_params.c * t, r=0.0,
                          s=ref_params.s0)
    x, _, _ = pw.position(ref_params, lab, t)
    wrong = LagrangianLabel(q=lab.q, r=lab.r, s=ref_params.s0 + 1.0)
    u, v, w = pw.velocity(ref_params, wrong, t)
    eta_t = (sheet_elevation(ref_params, ref_params.s0, x, t + ht)
             - sheet_elevation(ref_params, ref_params.s0, x, t - ht)) / (2 * ht)
    eta_x = (sheet_elevation(ref_params, ref_params.s0, x + hx, t)
             - sheet_elevation(ref_params, ref_params.s0, x - hx, t)) / (2 * hx)
    residual = abs(w - (eta_t + u * eta_x))
    assert residual > 1e-5


# --- finite-difference behaviour ---------------------------------------------

def test_pressure_gradient_fd_convergence_order(ref_params, strat):
    """Central differences converge at second order: halving the step cuts
    the error by about four."""
    lab = LagrangianLabel(q=(math.pi / 2) / ref_params.k, r=0.0, s=ref_params.s0)
    exact = pressure_label_gradient(ref_params, strat, lab, 0.0)[0]

    def fd_error(h):
        hi = pw.pressure(ref_params, strat, dataclasses.replace(lab, q=lab.q + h), 0.0)
        lo = pw.pressure(ref_params, strat, dataclasses.replace(lab, q=lab.q - h), 0.0)
        return abs((hi - lo) / (2 * h) - exact)

    ratio = fd_error(2e-2) / fd_error(1e-2)
    assert 3.5 < ratio < 4.5


def test_fd_gradient_matches_analytic_at_spec_step(ref_params, strat):
    lab = LagrangianLabel(q=(math.pi / 2) / ref_params.k, r=0.0, s=ref_params.s0)
    grad = pressure_label_gradient(ref_params, strat, lab, 0.0)
    h = 1e-4
    fd_q = (pw.pressure(ref_params, strat, dataclasses.replace(lab, q=lab.q + h), 0.0)
            - pw.pressure(ref_params, strat, dataclasses.replace(lab, q=lab.q - h), 0.0)) / (2 * h)
    fd_s = (pw.pressure(ref_params, strat, dataclasses.replace(lab, s=lab.s + h), 0.0)
            - pw.pressure(ref_params, strat, dataclasses.replace(lab, s=lab.s - h), 0.0)) / (2 * h)
    assert fd_q == pytest.approx(grad[0], rel=1e-6)
    assert fd_s == pytest.approx(grad[2], rel=1e-6)


# --- determinism ----------------------------------------------------------------

def test_run_all_is_deterministic(ref_params, site45, strat):
    first = pw.run_all(ref_params, site45, strat, SMALL)
    second = pw.run_all(ref_params, site45, strat, SMALL)
    assert first == second
    as_json = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in first]
    again = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in second]
    assert as_json == again


def test_run_all_does_each_piece_of_work_once(monkeypatch, ref_params, site45, strat):
    """One run at the defaults builds the volume and sheet grids once each and
    evaluates the kernel in at most 32 Flow objects (148 with a Flow per time,
    per stencil point and per sheet elevation)."""
    grids, flows = [], []
    original_grid, original_init = verify._grid, Flow.__init__
    monkeypatch.setattr(verify, "_grid",
                        lambda *args, **kw: grids.append(kw) or original_grid(*args, **kw))
    monkeypatch.setattr(Flow, "__init__",
                        lambda self, *args: flows.append(None) or original_init(self, *args))
    assert all(r.passed for r in pw.run_all(ref_params, site45, strat))
    assert grids == [{}, {"sheet": True}]
    assert len(flows) <= 32


def test_different_seeds_change_random_samples(ref_params, site45, strat):
    one = verify.build_grid(ref_params, dataclasses.replace(SMALL, seed=1))
    two = verify.build_grid(ref_params, dataclasses.replace(SMALL, seed=2))
    assert one != two
    assert len(one) == len(two) == SMALL.n_theta * SMALL.n_s * SMALL.n_time + SMALL.n_random


def test_grid_sizes(ref_params):
    config = verify.VerifyConfig(n_theta=4, n_s=3, n_time=2, n_random=5, seed=0)
    assert len(verify.build_grid(ref_params, config)) == 4 * 3 * 2 + 5
    assert len(verify.build_sheet_grid(ref_params, config)) == 4 * 2 + 5
    assert all(lab.s == ref_params.s0 for lab, _ in verify.build_sheet_grid(ref_params, config))


# --- sampling seeds and array bookkeeping --------------------------------------

def test_pressure_consistency_passes_for_sampling_seeds(ref_params, strat):
    """mixed_partials differences the wave part of P_s; the constant -rho0 g
    no longer turns into finite-difference roundoff near the tolerance."""
    for seed in range(40):
        config = verify.VerifyConfig(seed=seed)
        report = verify.check_pressure_consistency(ref_params, strat, config=config)
        assert report.passed, (seed, report.components)
        mixed = {c.name: c for c in report.components}["mixed_partials"]
        # truncation only: roundoff of the constant term reached ~2e-6 here
        assert mixed.max_residual <= 0.1 * config.tol_fd, seed


def test_pressure_consistency_control_fails_on_default_grid(ref_params, strat):
    bad = dataclasses.replace(ref_params, d=1.01 * ref_params.d)
    assert not verify.check_pressure_consistency(bad, strat).passed


def test_random_samples_follow_scalar_uniform_draws(ref_params):
    """The grid's random part is the sequence of scalar rng.uniform draws
    q, r, s, t per sample (q, r, t on the sheet)."""
    config = verify.VerifyConfig(n_theta=2, n_s=2, n_time=2, n_random=25, seed=17)
    period = verify.wave_period(ref_params)
    rng = np.random.default_rng(17)
    expected = []
    for _ in range(25):
        label = LagrangianLabel(q=float(rng.uniform(0.0, ref_params.L)),
                                r=float(rng.uniform(-10.0, 10.0)),
                                s=float(rng.uniform(ref_params.s0, ref_params.s_plus)))
        expected.append((label, float(rng.uniform(0.0, period))))
    assert verify.build_grid(ref_params, config)[8:] == expected
    rng = np.random.default_rng(18)
    sheet = []
    for _ in range(25):
        q, r = float(rng.uniform(0.0, ref_params.L)), float(rng.uniform(-10.0, 10.0))
        sheet.append((LagrangianLabel(q=q, r=r, s=ref_params.s0),
                      float(rng.uniform(0.0, period))))
    assert verify.build_sheet_grid(ref_params, config)[4:] == sheet


def test_worst_sample_is_first_largest_residual():
    where = tuple(np.arange(4.0) + k for k in range(4))
    comp = verify._component("x", np.array([1.0, 3.0, 2.0, 3.0]), 5.0, where)
    assert comp.max_residual == 3.0
    assert comp.worst_sample == {"q": 1.0, "r": 2.0, "s": 3.0, "t": 4.0}
    assert all(type(v) is float for v in comp.worst_sample.values())


def test_given_grid_matches_default_grid(ref_params, site45, strat):
    grid = verify.build_grid(ref_params, SMALL)
    assert (verify.check_vorticity(ref_params, grid=grid, config=SMALL)
            == verify.check_vorticity(ref_params, config=SMALL))
    sheet = verify.build_sheet_grid(ref_params, SMALL)
    assert (verify.check_boundary(ref_params, strat, grid=sheet, config=SMALL)
            == verify.check_boundary(ref_params, strat, config=SMALL))
