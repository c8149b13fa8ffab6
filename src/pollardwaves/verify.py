"""Numerical verification that the constructed fields solve the governing equations.

Every check compares independent evaluation routes:

* momentum balance: closed-form acceleration and Coriolis terms against the
  Eulerian gradient of the closed-form scalar pressure (transported through
  the label Jacobian) -- an identity check at near-machine tolerance;
* pressure consistency: the label gradient of the scalar pressure against
  the chain-rule transport of the momentum-equation gradient, and the
  symmetry of that transport's mixed partials;
* boundary conditions: the dynamic condition pointwise and the kinematic
  condition with the derivatives of the Eulerian sheet elevation;
* incompressibility: time invariance of the Jacobian determinant and the
  Eulerian divergence through the inverse map;
* vorticity: the closed form against the inverse-Jacobian matrix product
  and against the Eulerian curl through the inverse map.

Every derivative is a complex step, f'(x) = Im f(x + i h) / h.  The fields
are analytic and the step subtracts nothing, so with h 1e-30 of the wave's
length and time scales the derivatives are exact to roundoff at every scale:
there is no step to tune.  A stepped position's label is one Newton step
from the sample's own, label + i h J^-T e_j: the verifier inverts nothing.
Identity checks carry tol_identity and derivative checks tol_fd, the two
tolerances a run sets; the dynamic condition and the Jacobian's time
invariance have module constants.  All random sampling is seeded; reports
are deterministic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import IDENTITY_TOL, WaveParameters
from .flowfield import Flow
from .geo import Stratification


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling grids, random seed and the two tolerances a run may set."""

    n_theta: int = 16
    n_s: int = 16
    n_time: int = 5
    n_random: int = 50
    seed: int = 0
    tol_identity: float = IDENTITY_TOL  # closed-form identities, relative
    tol_fd: float = 1e-8                # derivative checks, relative


TOL_DYNAMIC = 1e-9         # dynamic condition, x |P0|
TOL_JACOBIAN_TIME = 1e-14  # |J(t) - J(0)| over 100 times in one period


@dataclass(frozen=True)
class CheckComponent:
    """One residual family inside a check, with its own tolerance."""

    name: str
    max_residual: float
    tolerance: float
    worst_sample: dict


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; headline numbers belong to the worst family."""

    check_name: str
    max_residual: float
    tolerance: float
    n_samples: int
    passed: bool
    worst_sample: dict
    components: tuple = field(default_factory=tuple)


def _component(name, residual, tolerance, where):
    """CheckComponent of residuals at ``where`` = (q, r, s, t); worst = first largest."""
    i = int(np.argmax(residual))
    return CheckComponent(name, float(residual[i]), tolerance,
                          {key: float(v[i]) for key, v in zip("qrst", where)})


def _where(flow):
    """The (q, r, s, t) sample arrays of a Flow."""
    return flow.q, flow.r, flow.s, flow.t


def _report(check_name, n_samples, components):
    worst = max(components, key=lambda c: c.max_residual / c.tolerance)
    return VerificationReport(check_name, worst.max_residual, worst.tolerance, n_samples,
                              all(c.max_residual <= c.tolerance for c in components),
                              worst.worst_sample, tuple(components))


def _max_abs(*values):
    return np.maximum.reduce([np.abs(v) for v in values])


def _relative_error(a, b, floor):
    """max_i |a_i - b_i| / max(|a|, |b|, floor) per sample, for vectors a, b."""
    err = _max_abs(*(x - y for x, y in zip(a, b)))
    return err / np.maximum(np.maximum(_max_abs(*a), _max_abs(*b)), floor)


def _curl(grad):
    """Curl of a velocity gradient grad[i][j] = d u_i / d x_j."""
    return (grad[2][1] - grad[1][2],
            grad[0][2] - grad[2][0],
            grad[1][0] - grad[0][1])


def _step(params):
    """Imaginary step [m] of the complex-step derivatives: 1e-30 of the
    length scale 1/k (a time step is this over |c|), so the step's relative
    error, of order (k h)^2, is far below roundoff for every wave."""
    return 1e-30 / params.k


def wave_period(params: WaveParameters) -> float:
    """Time period 2 pi / (k |c|) of the travelling wave."""
    return 2.0 * math.pi / (params.k * abs(params.c))


def _random_samples(params, rng, n, sheet=False):
    """(q, r, s, t) of n seeded interior samples, each drawing q, r, s, t in
    turn (not s on the sheet s = s0); lo + (hi - lo) u is rng.uniform(lo, hi)."""
    u = iter(rng.random((n, 3 if sheet else 4)).T)
    q = 0.0 + params.L * next(u)
    r = -10.0 + 20.0 * next(u)
    s = (np.full(n, params.s0) if sheet
         else params.s0 + (params.s_plus - params.s0) * next(u))
    return q, r, s, 0.0 + wave_period(params) * next(u)


def _grid(params, config, sheet=False):
    """(q, r, s, t) of the deterministic samples: a phase/height/time lattice
    (phase/time on the sheet s = s0) plus seeded random interior points."""
    qs = np.linspace(0.0, params.L, config.n_theta, endpoint=False)
    ss = [params.s0] if sheet else np.linspace(params.s0, params.s_plus, config.n_s)
    ts = np.linspace(0.0, wave_period(params), config.n_time, endpoint=False)
    q, s, t = (a.ravel() for a in np.meshgrid(qs, ss, ts, indexing="ij"))
    rng = np.random.default_rng(config.seed + (1 if sheet else 0))
    return tuple(np.concatenate(pair) for pair in zip(
        (q, np.zeros(q.size), s, t),
        _random_samples(params, rng, config.n_random, sheet)))


def check_euler(volume: Flow, strat: Stratification, config: VerifyConfig) -> VerificationReport:
    """Residuals of the three momentum equations at ``volume``, normalized by g.

    The pressure gradient is the Eulerian gradient of the closed-form
    scalar pressure; for a consistent parameter set all three residuals are
    pure roundoff.
    """
    f, fh, g = volume.params.f, volume.params.f_hat, strat.g
    du, dv, dw = volume.acceleration
    u, v, w = volume.velocity
    px, py, pz = volume.eulerian_gradient(*volume.pressure_label_gradient(strat))
    r1 = du + fh * w - f * v + px / strat.rho0
    r2 = dv + f * u + py / strat.rho0
    r3 = dw - fh * u + pz / strat.rho0 + g
    comp = _component("momentum_residual", _max_abs(r1, r2, r3) / g,
                      config.tol_identity, _where(volume))
    return _report("euler", volume.q.size, [comp])


def _transported_gradient(flow: Flow, strat: Stratification):
    """Label pressure gradient J . (P_x, P_y, P_z) by the chain rule, with
    (P_x, P_y, P_z) demanded by the momentum equations."""
    p = flow.params
    du, dv, dw = flow.acceleration
    u, v, w = flow.velocity
    gx = -strat.rho0 * (du + p.f_hat * w - p.f * v)
    gy = -strat.rho0 * (dv + p.f * u)
    gz = -strat.rho0 * (dw - p.f_hat * u + strat.g)
    (j00, j01, j02), (j20, j21, j22) = flow.jacobian
    return j00 * gx + j01 * gy + j02 * gz, gy, j20 * gx + j21 * gy + j22 * gz


def check_pressure_consistency(volume: Flow, strat: Stratification,
                               config: VerifyConfig) -> VerificationReport:
    """Complex-step label gradient of the scalar pressure against the
    chain-rule transport of the momentum-equation gradient at ``volume``.

    The transport's r component is compared with the exact P_r = 0, and its
    mixed partials, d/ds of its q component and d/dq of its s component, must
    agree: that is exactly the compatibility content of the construction.
    """
    params, (q, r, s, t) = volume.params, _where(volume)
    h = _step(params)
    floor = config.tol_fd * strat.rho0 * strat.g  # [Pa/m] noise floor
    # row 0 steps q by i h and row 1 steps s; each row's real part is the sample
    rows = Flow(params, q + [[1j * h], [0.0]], r, s + [[0.0], [1j * h]], t)
    transported = _transported_gradient(rows, strat)
    p_q, p_s = rows.pressure(strat).imag / h
    grad_res = np.maximum.reduce([
        _relative_error((a,), (b.real,), floor)
        for a, b in zip((p_q, 0.0, p_s), (v[0] for v in transported))])
    mixed_res = _relative_error((transported[0][1].imag / h,),
                                (transported[2][0].imag / h,), floor)
    comps = [
        _component("gradient_transport", grad_res, config.tol_fd, (q, r, s, t)),
        _component("mixed_partials", mixed_res, config.tol_fd, (q, r, s, t)),
    ]
    return _report("pressure_consistency", q.size, comps)


def check_boundary(sheet: Flow, strat: Stratification,
                   config: VerifyConfig) -> VerificationReport:
    """Dynamic and kinematic conditions at ``sheet``, on the thermocline s = s0.

    Dynamic: P = P0 - rho_plus g z pointwise, within TOL_DYNAMIC * |P0|.
    Kinematic: w = eta_t + u eta_x with the sheet's complex-step derivatives
    (eta is independent of y), relative to the sheet's velocity scale
    k |c| a e^(-m s0) and within tol_fd.
    """
    params, where, t = sheet.params, _where(sheet), sheet.t
    x, _, z = sheet.position
    p = sheet.pressure(strat)
    dyn_res = np.abs(p - (params.P0 - strat.rho_plus * strat.g * z)) / abs(params.P0)
    u, _, w = sheet.velocity
    # the labels at (x_h, t_h) = (x + i h, t) and (x, t + i h / |c|), one Newton
    # step from each sample's q; eta_t is a complex step, not the closed-form u
    h = _step(params)
    ht = h / abs(params.c)
    x_h, t_h = x + [[1j * h], [0.0]], t + [[0.0], [1j * ht]]
    at = Flow(params, sheet.q, 0.0, params.s0, t_h)
    q_h = sheet.q - (at.position[0] - x_h) / at.jacobian[0][0]
    eta_x, eta_t = Flow(params, q_h, 0.0, params.s0, t_h).position[2].imag / [[h], [ht]]
    # the sheet's velocity scale; below a displacement of tiny / (k h), still
    # water included, the steps' imaginary parts leave the normal doubles
    scale = params.k * abs(params.c) * max(params.a * math.exp(-params.m * params.s0),
                                           np.finfo(float).tiny / (params.k * h))
    kin_res = np.abs(w - (eta_t + u * eta_x)) / scale
    comps = [
        _component("dynamic_condition", dyn_res, TOL_DYNAMIC, where),
        _component("kinematic_condition", kin_res, config.tol_fd, where),
    ]
    return _report("boundary", t.size, comps)


def _probe(params, config):
    """(flow, grad): the flow at the config's n_random particles drawn with
    seed + 2, and the complex-step velocity gradient grad[i][j] = d u_i / d x_j
    there.  The labels of the points x + i h e_j are one Newton step from each
    particle's own label, whose real residual is 0: label + i h J^-T e_j."""
    h = _step(params)
    flow = Flow(params, *_random_samples(params, np.random.default_rng(config.seed + 2),
                                         config.n_random))
    steps = flow.newton_step(*(-1j * h * np.eye(3)[:, :, None]))  # (qrs, j, n)
    labels = [v - d for v, d in zip((flow.q, flow.r, flow.s), steps)]
    return flow, np.array(Flow(params, *labels, flow.t).velocity).imag / h  # (i, j, n)


def _distinct_labels(q, r, s):
    """(q, r, s) of the distinct labels in order of first appearance.  Labels
    are equal when every coordinate compares equal, as for float keys of a
    dict: -0.0 equals 0.0 and a NaN equals nothing."""
    order = np.lexsort((s, r, q))
    sorted_ = np.stack((q, r, s))[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(sorted_[:, 1:] != sorted_[:, :-1], axis=0)
    keep = np.sort(order[first])
    return q[keep], r[keep], s[keep]


def check_incompressibility(volume: Flow, probe, config: VerifyConfig) -> VerificationReport:
    """Volume preservation: J constant in time at the distinct labels of
    ``volume``, and zero Eulerian divergence at the ``probe`` of _probe.

    The complex-step divergence of the velocity through the inverse map is
    compared against zero at the scale k |c| (tolerance tol_fd * k |c|).
    """
    params = volume.params
    t_grid = np.linspace(0.0, wave_period(params), 100)
    q, r, s = _distinct_labels(volume.q, volume.r, volume.s)
    det = Flow(params, q, r, s, t_grid[:, None]).det  # (times, labels)
    jac_res = np.max(np.abs(det[1:] - det[0]), axis=0, initial=0.0)
    flow, grad = probe
    div_res = np.abs(grad[0][0] + grad[1][1] + grad[2][2]) / (params.k * abs(params.c))
    comps = [
        _component("jacobian_time_invariance", jac_res, TOL_JACOBIAN_TIME,
                   (q, r, s, np.full(q.size, t_grid[0]))),
        _component("eulerian_divergence", div_res, config.tol_fd, _where(flow)),
    ]
    return _report("incompressibility", q.size + flow.q.size, comps)


def check_vorticity(volume: Flow, probe, config: VerifyConfig) -> VerificationReport:
    """Analytic vorticity against two independent constructions.

    (i) the inverse-Jacobian matrix product (antisymmetrized velocity
    gradient) at the samples of ``volume``, an identity at tol_identity;
    (ii) the complex-step curl of the Eulerian velocity through the inverse
    map at the ``probe`` of _probe, at tol_fd.
    """
    params = volume.params
    # deep in the layer the vorticity decays like e^(-2 m s) while matrix
    # roundoff does not; a tiny fraction of the advective scale k|c| keeps
    # the relative comparison meaningful there
    scale_floor = 1e-6 * params.k * abs(params.c)
    row_q, row_s = volume.velocity_gradient
    grad = [volume.eulerian_gradient(row_q[i], 0.0, row_s[i]) for i in range(3)]
    mp_res = _relative_error(volume.vorticity, _curl(grad), scale_floor)
    fd_flow, fd_grad = probe
    curl_res = _relative_error(fd_flow.vorticity, _curl(fd_grad), scale_floor)
    comps = [
        _component("matrix_product", mp_res, config.tol_identity, _where(volume)),
        _component("fd_curl", curl_res, config.tol_fd, _where(fd_flow)),
    ]
    return _report("vorticity", volume.q.size + fd_flow.q.size, comps)


def run_all(params: WaveParameters, strat: Stratification,
            config: VerifyConfig | None = None):
    """Execute every check; reports are returned sorted by check name.

    The one place the verifier makes samples: it evaluates the volume grid,
    the sheet grid and the probe once, and each check reads the sets it
    needs.  Failures are collected, never short-circuited; output is
    deterministic for a fixed config (including its seed).
    """
    config = config or VerifyConfig()
    volume = Flow(params, *_grid(params, config))
    sheet = Flow(params, *_grid(params, config, sheet=True))
    probe = _probe(params, config)
    reports = [
        check_euler(volume, strat, config),
        check_pressure_consistency(volume, strat, config),
        check_boundary(sheet, strat, config),
        check_incompressibility(volume, probe, config),
        check_vorticity(volume, probe, config),
    ]
    return sorted(reports, key=lambda r: r.check_name)
