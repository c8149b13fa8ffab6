import dataclasses
import json
import math
import random

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves import verify
from pollardwaves.flowfield import Flow

from conftest import REF_S0
from inversion import sheet_elevation


@pytest.fixture(scope="module")
def still(ref_nd, ref_params):
    return pw.derive_parameters(ref_nd, 0.0, ref_params.c, REF_S0, 2000.0)


SMALL = verify.VerifyConfig(n_theta=8, n_s=6, n_time=3, n_random=12, seed=3)


def by_check(params, config=SMALL):
    """run_all's reports by check name."""
    return {r.check_name: r for r in pw.run_all(params, config)}


def volume(params, config=SMALL):
    """The Flow at the config's volume grid, as run_all evaluates it."""
    return Flow(params, *verify._grid(params, config))


# --- positive checks ----------------------------------------------------------

def test_all_checks_pass_for_reference_set(ref_params):
    reports = pw.run_all(ref_params, SMALL)
    assert [r.check_name for r in reports] == sorted(r.check_name for r in reports)
    for report in reports:
        assert report.passed, (report.check_name, report.max_residual)
        assert report.n_samples > 0


def test_all_checks_pass_for_still_water(still):
    for report in pw.run_all(still, SMALL):
        assert report.passed


def test_euler_still_water_exactly_hydrostatic(still):
    report = verify.check_euler(volume(still), SMALL)
    assert report.max_residual == 0.0


def test_report_invariant_passed_iff_within_tolerance(ref_params):
    report = verify.check_euler(volume(ref_params), SMALL)
    assert report.passed == (report.max_residual <= report.tolerance)
    assert set(report.worst_sample) == {"q", "r", "s", "t"}


def test_boundary_check_tolerances(ref_params):
    report = by_check(ref_params)["boundary"]
    families = {c.name: c for c in report.components}
    assert families["dynamic_condition"].tolerance == 1e-9
    assert families["kinematic_condition"].tolerance == 1e-8
    assert report.passed


def test_incompressibility_families(ref_params):
    report = by_check(ref_params)["incompressibility"]
    families = {c.name: c for c in report.components}
    assert families["jacobian_time_invariance"].max_residual <= 1e-14
    assert families["eulerian_divergence"].max_residual <= 1e-6
    assert report.passed


def test_vorticity_families(ref_params):
    report = by_check(ref_params)["vorticity"]
    families = {c.name: c for c in report.components}
    assert families["matrix_product"].max_residual <= 1e-12
    assert families["fd_curl"].max_residual <= 1e-5
    assert report.passed


# --- negative controls ----------------------------------------------------------

def test_euler_fails_with_perturbed_phase_speed(ref_params):
    bad = dataclasses.replace(ref_params, c=1.01 * ref_params.c)
    report = verify.check_euler(volume(bad), SMALL)
    assert not report.passed
    assert report.max_residual > 1e-10  # far above the identity tolerance


def test_boundary_fails_with_perturbed_phase_speed(ref_params):
    bad = dataclasses.replace(ref_params, c=1.01 * ref_params.c)
    report = by_check(bad)["boundary"]
    families = {c.name: c for c in report.components}
    assert families["dynamic_condition"].max_residual > 1e-7
    assert not report.passed


@pytest.mark.parametrize("name", ["m", "a", "b", "k"])
def test_incompressibility_fails_with_broken_first_condition(ref_params, name):
    """A 1 % error in any factor of m a = k b moves det J off its closed form."""
    bad = dataclasses.replace(ref_params, **{name: 1.01 * getattr(ref_params, name)})
    report = by_check(bad)["incompressibility"]
    families = {c.name: c for c in report.components}
    assert families["jacobian_time_invariance"].max_residual > 1e-5
    assert not report.passed


def test_jacobian_is_blind_to_the_phase_speed(ref_params):
    """det J does not depend on c, so a c error leaves it on its closed form."""
    bad = dataclasses.replace(ref_params, c=1.01 * ref_params.c)
    report = by_check(bad)["incompressibility"]
    families = {c.name: c for c in report.components}
    assert families["jacobian_time_invariance"].max_residual <= 1e-14


def test_vorticity_fails_with_broken_first_condition(ref_params):
    bad = dataclasses.replace(ref_params, b=1.01 * ref_params.b)
    report = by_check(bad)["vorticity"]
    assert not report.passed


def test_pressure_consistency_fails_with_broken_second_condition(ref_params):
    bad = dataclasses.replace(ref_params, d=1.01 * ref_params.d)
    report = verify.check_pressure_consistency(volume(bad), SMALL)
    assert not report.passed


def test_perturbed_m_breaks_vorticity_and_euler(ref_params):
    bad = dataclasses.replace(ref_params, m=1.01 * ref_params.m)
    checks = by_check(bad)
    assert not checks["vorticity"].passed
    assert not checks["euler"].passed


def test_kinematic_residual_with_mismatched_velocity_sheet(ref_params):
    """Velocity taken from labels one metre above the sheet must not satisfy
    the kinematic condition of the thermocline sheet."""
    t = 2.0
    ht = 1e-3 / (ref_params.k * ref_params.c)
    hx = 1e-4
    q = (math.pi / 2) / ref_params.k + ref_params.c * t
    x, _, _ = Flow(ref_params, q, 0.0, ref_params.s0, t).position
    u, v, w = Flow(ref_params, q, 0.0, ref_params.s0 + 1.0, t).velocity
    eta_t = (sheet_elevation(ref_params, ref_params.s0, x, t + ht)
             - sheet_elevation(ref_params, ref_params.s0, x, t - ht)) / (2 * ht)
    eta_x = (sheet_elevation(ref_params, ref_params.s0, x + hx, t)
             - sheet_elevation(ref_params, ref_params.s0, x - hx, t)) / (2 * hx)
    residual = abs(w - (eta_t + u * eta_x))
    assert residual > 1e-5


# --- finite-difference behaviour ---------------------------------------------

def test_pressure_gradient_fd_convergence_order(ref_params):
    """Central differences converge at second order: halving the step cuts
    the error by about four."""
    q, s = (math.pi / 2) / ref_params.k, ref_params.s0
    exact = Flow(ref_params, q, 0.0, s, 0.0).pressure_label_gradient[0]

    def fd_error(h):
        hi = Flow(ref_params, q + h, 0.0, s, 0.0).pressure
        lo = Flow(ref_params, q - h, 0.0, s, 0.0).pressure
        return abs((hi - lo) / (2 * h) - exact)

    ratio = fd_error(2e-2) / fd_error(1e-2)
    assert 3.5 < ratio < 4.5


def test_fd_gradient_matches_analytic_at_spec_step(ref_params):
    q, s = (math.pi / 2) / ref_params.k, ref_params.s0
    grad = Flow(ref_params, q, 0.0, s, 0.0).pressure_label_gradient
    h = 1e-4

    def pressure(q, s):
        return Flow(ref_params, q, 0.0, s, 0.0).pressure

    fd_q = (pressure(q + h, s) - pressure(q - h, s)) / (2 * h)
    fd_s = (pressure(q, s + h) - pressure(q, s - h)) / (2 * h)
    assert fd_q == pytest.approx(grad[0], rel=1e-6)
    assert fd_s == pytest.approx(grad[2], rel=1e-6)


# --- determinism ----------------------------------------------------------------

def test_run_all_is_deterministic(ref_params):
    first = pw.run_all(ref_params, SMALL)
    second = pw.run_all(ref_params, SMALL)
    assert first == second
    as_json = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in first]
    again = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in second]
    assert as_json == again


def test_run_all_does_each_piece_of_work_once(monkeypatch, ref_params):
    """One run at the defaults builds the volume and sheet grids once each and
    evaluates the kernel in 7 Flow objects (148 with a Flow per time, per
    stencil point and per sheet elevation): the volume, the sheet, the probe
    and its stepped labels, the pressure check's stepped rows, and the
    kinematic condition's two."""
    grids, flows = [], []
    original_grid, original_init = verify._grid, Flow.__init__
    monkeypatch.setattr(verify, "_grid",
                        lambda *args, **kw: grids.append(kw) or original_grid(*args, **kw))
    monkeypatch.setattr(Flow, "__init__",
                        lambda self, *args: flows.append(None) or original_init(self, *args))
    assert all(r.passed for r in pw.run_all(ref_params))
    assert grids == [{}, {"sheet": True}]
    assert len(flows) == 7


def test_different_seeds_change_random_samples(ref_params):
    one = verify._grid(ref_params, dataclasses.replace(SMALL, seed=1))
    two = verify._grid(ref_params, dataclasses.replace(SMALL, seed=2))
    assert not all(np.array_equal(a, b) for a, b in zip(one, two))
    assert ({a.size for a in one} == {b.size for b in two}
            == {SMALL.n_theta * SMALL.n_s * SMALL.n_time + SMALL.n_random})


def test_grid_sizes(ref_params):
    config = verify.VerifyConfig(n_theta=4, n_s=3, n_time=2, n_random=5, seed=0)
    assert {a.size for a in verify._grid(ref_params, config)} == {4 * 3 * 2 + 5}
    sheet = verify._grid(ref_params, config, sheet=True)
    assert {a.size for a in sheet} == {4 * 2 + 5}
    assert np.all(sheet[2] == ref_params.s0)


@pytest.mark.parametrize("field, value, message", [
    ("n_theta", 0, "n_theta must be at least 1"),
    ("n_s", -1, "n_s must be at least 1"),
    ("n_time", 0, "n_time must be at least 1"),           # the lattice is read in steps of it
    ("n_random", 0, "n_random must be at least 1"),       # no random sample to take a worst of
    ("seed", -1, "seed must be non-negative"),            # random.Random(-1) repeats seed 1
    ("tol_identity", 0.0, "tol_identity must be positive and finite"),
    ("tol_fd", math.nan, "tol_fd must be positive and finite"),
    ("tol_fd", math.inf, "tol_fd must be positive and finite"),
])
def test_verify_config_rejects_each_bad_field(ref_params, field, value, message):
    """A library caller's invalid VerifyConfig is an InputError that names the
    field, raised before run_all does any work, never a builtin exception."""
    with pytest.raises(pw.InputError, match=message):
        pw.run_all(ref_params, pw.VerifyConfig(**{field: value}))


# --- sampling seeds and array bookkeeping --------------------------------------

def test_pressure_consistency_passes_for_sampling_seeds(ref_params):
    """The complex step subtracts nothing, so mixed_partials stays at
    roundoff at every sampling seed; finite differences of P_s reached about
    2e-6 here."""
    for seed in range(40):
        config = verify.VerifyConfig(seed=seed)
        report = verify.check_pressure_consistency(volume(ref_params, config), config)
        assert report.passed, (seed, report.components)
        mixed = {c.name: c for c in report.components}["mixed_partials"]
        assert mixed.max_residual <= 0.1 * config.tol_fd, seed


def test_pressure_consistency_control_fails_on_default_grid(ref_params):
    bad = dataclasses.replace(ref_params, d=1.01 * ref_params.d)
    config = verify.VerifyConfig()
    assert not verify.check_pressure_consistency(volume(bad, config), config).passed


def test_verifier_reads_the_stratification_of_the_set(ref_params, constants):
    """A set carrying densities it was not solved under fails the dynamic
    condition: its P0_tilde pins P = P0 - rho_plus g z for the densities of
    the solve, so the verifier reads the set's own stratification."""
    other = pw.reduced_gravity(constants, 1025.0, 1029.0)
    reports = by_check(dataclasses.replace(ref_params, strat=other), verify.VerifyConfig())
    assert [name for name, r in reports.items() if not r.passed] == ["boundary"]
    dynamic = {c.name: c for c in reports["boundary"].components}["dynamic_condition"]
    assert dynamic.max_residual > dynamic.tolerance


def samples(grid):
    """(q, r, s, t) tuples of the grid's arrays, in sample order."""
    return list(zip(*(a.tolist() for a in grid)))


def test_random_samples_follow_scalar_uniform_draws(ref_params):
    """The random samples are the sequence of scalar random.Random.uniform
    draws q, r, s, t per sample (q, r, t on the sheet), from the streams
    seed (volume), seed + 1 (sheet) and seed + 2 (probe)."""
    config = verify.VerifyConfig(n_theta=2, n_s=2, n_time=2, n_random=25, seed=17)
    period = verify.wave_period(ref_params)

    def draws(seed, sheet=False):
        rng, out = random.Random(seed), []
        for _ in range(25):
            q, r = rng.uniform(0.0, ref_params.L), rng.uniform(-10.0, 10.0)
            s = ref_params.s0 if sheet else rng.uniform(ref_params.s0, ref_params.s_plus)
            out.append((q, r, s, rng.uniform(0.0, period)))
        return out

    assert samples(verify._grid(ref_params, config))[8:] == draws(17)
    assert samples(verify._grid(ref_params, config, sheet=True))[4:] == draws(18, sheet=True)
    probe, _ = verify._probe(ref_params, config)
    assert samples(verify._where(probe)) == draws(19)


def test_worst_sample_is_first_largest_residual():
    where = tuple(np.arange(4.0) + k for k in range(4))
    comp = verify._component("x", np.array([1.0, 3.0, 2.0, 3.0]), 5.0, where)
    assert comp.max_residual == 3.0
    assert comp.worst_sample == {"q": 1.0, "r": 2.0, "s": 3.0, "t": 4.0}
    assert all(type(v) is float for v in comp.worst_sample.values())


def test_incompressibility_reads_each_label_once(ref_params):
    """The Jacobian is read at one sample per label of the volume grid, in
    the order dict.fromkeys keeps them, and the probe at its n_random
    particles: n_theta n_s + 2 n_random samples."""
    config = verify.VerifyConfig(n_theta=5, n_s=4, n_time=3, n_random=7, seed=1)
    vol = volume(ref_params, config)
    report = verify.check_incompressibility(vol, verify._probe(ref_params, config), config)
    assert report.n_samples == 5 * 4 + 2 * 7
    one = verify._one_per_label(config, vol.q.size)
    expected = list(dict.fromkeys(zip(vol.q.tolist(), vol.r.tolist(), vol.s.tolist())))
    assert list(zip(vol.q[one].tolist(), vol.r[one].tolist(), vol.s[one].tolist())) == expected
