"""Numerical verification that the constructed fields solve the governing equations.

Every check compares independent evaluation routes:

* momentum balance: closed-form acceleration and Coriolis terms against the
  Eulerian gradient of the closed-form scalar pressure (transported through
  the label Jacobian) -- an identity check at near-machine tolerance;
* pressure consistency: finite differences of the scalar pressure against
  the chain-rule transport of the momentum-equation gradient;
* boundary conditions: the dynamic condition pointwise and the kinematic
  condition by finite differences of the Eulerian sheet elevation;
* incompressibility: time invariance of the Jacobian determinant and the
  finite-difference Eulerian divergence through map inversion;
* vorticity: the closed form against the inverse-Jacobian matrix product
  and against a finite-difference Eulerian curl.

Identity checks and finite-difference checks carry separate tolerances so a
failure distinguishes roundoff from truncation.  All random sampling is
seeded; reports are deterministic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import WaveParameters
from .flowfield import Flow, invert_labels, sheet_elevation
from .geo import Stratification


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling grids, random seed and tolerances for the checks."""

    n_theta: int = 16
    n_s: int = 16
    n_time: int = 5
    n_random: int = 50
    seed: int = 0
    tol_identity: float = 1e-12      # closed-form identities, relative
    tol_fd: float = 1e-6             # finite-difference checks, relative
    tol_jacobian_time: float = 1e-14  # |J(t) - J(0)|
    tol_curl: float = 1e-5           # FD curl vs analytic vorticity, relative
    tol_dynamic: float = 1e-9        # dynamic condition, x |P0|
    tol_kinematic: float = 1e-8      # kinematic condition [m/s]
    fd_space: float = 1e-4           # spatial FD step [m]
    fd_time_factor: float = 1e-3     # temporal FD step, / (k c)


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


def _inputs(params, config, grid, sheet=False):
    """The config (VerifyConfig() for None) and the (q, r, s, t) arrays of
    ``grid``, the config's default grid for None."""
    config = config or VerifyConfig()
    return config, _grid(params, config, sheet) if grid is None else grid


def check_euler(params: WaveParameters, strat: Stratification,
                grid=None, config: VerifyConfig | None = None) -> VerificationReport:
    """Residuals of the three momentum equations, normalized by g.

    The pressure gradient is the Eulerian gradient of the closed-form
    scalar pressure; for a consistent parameter set all three residuals are
    pure roundoff.
    """
    config, where = _inputs(params, config, grid)
    flow = Flow(params, *where)
    f, fh, g = params.f, params.f_hat, strat.g
    du, dv, dw = flow.acceleration
    u, v, w = flow.velocity
    px, py, pz = flow.eulerian_gradient(*flow.pressure_label_gradient(strat))
    r1 = du + fh * w - f * v + px / strat.rho0
    r2 = dv + f * u + py / strat.rho0
    r3 = dw - fh * u + pz / strat.rho0 + g
    comp = _component("momentum_residual", _max_abs(r1, r2, r3) / g,
                      config.tol_identity, where)
    return _report("euler", where[0].size, [comp])


def _transported_gradient(flow: Flow, strat: Stratification):
    """Label pressure gradient J . (P_x, P_y, P_z) by the chain rule, with
    (P_x, P_y, P_z) demanded by the momentum equations.  The s component
    omits its constant -rho0 g, so its differences do not cancel against it."""
    p = flow.params
    du, dv, dw = flow.acceleration
    u, v, w = flow.velocity
    gx = -strat.rho0 * (du + p.f_hat * w - p.f * v)
    gy = -strat.rho0 * (dv + p.f * u)
    gz = -strat.rho0 * (dw - p.f_hat * u + strat.g)
    (j00, j01, j02), (j20, j21, _) = flow.jacobian
    # J22 = 1 + m a e^(-m s) cos(theta); its 1 times gz carries the constant
    wave_s = (j20 * gx + j21 * gy + p.m * p.a * flow.e * flow.cos * gz
              - strat.rho0 * (dw - p.f_hat * u))
    return j00 * gx + j01 * gy + j02 * gz, gy, wave_s


def check_pressure_consistency(params: WaveParameters, strat: Stratification,
                               grid=None,
                               config: VerifyConfig | None = None) -> VerificationReport:
    """Finite-difference gradients of the scalar pressure against the
    chain-rule transport of the momentum-equation gradient.

    Also verifies that the pressure is independent of the latitudinal label
    and that the transported gradient has symmetric mixed partials, which is
    exactly the compatibility content of the construction.
    """
    config, where = _inputs(params, config, grid)
    q, r, s, t = where
    h = config.fd_space
    floor = config.tol_fd * strat.rho0 * strat.g  # [Pa/m] noise floor

    # one stacked evaluation; rows: here, +-h in q, r and s, and r + 7.5
    steps = np.array([(0, 0, 0), (h, 0, 0), (-h, 0, 0), (0, h, 0), (0, -h, 0),
                      (0, 0, h), (0, 0, -h), (0, 7.5, 0)])[:, :, None]
    stencil = Flow(params, q + steps[:, 0], r + steps[:, 1], s + steps[:, 2], t)

    def central(value, axis):  # central difference along label q, r, s = 0, 1, 2
        return (value[1 + 2 * axis] - value[2 + 2 * axis]) / (2 * h)

    transported = _transported_gradient(stencil, strat)
    t_q, t_r, t_s = (v[0] for v in transported)
    # q and r differences act on the wave part only: the hydrostatic
    # column term is constant in both and would otherwise dominate the
    # cancellation error
    wave, pressure = stencil.dynamic_pressure(strat), stencil.pressure(strat)
    fd = (central(wave, 0), central(wave, 1), central(pressure, 2))
    grad_res = np.maximum.reduce([
        _relative_error((a,), (b,), floor)
        for a, b in zip(fd, (t_q, t_r, t_s - strat.rho0 * strat.g))])
    # symmetric mixed partials d2P/dqds = d2P/dsdq; P_s differences its wave part
    mixed_res = _relative_error((central(transported[0], 2),),
                                (central(transported[2], 0),), floor)
    # r-independence of the scalar pressure
    p0, p1 = pressure[0], pressure[7]
    rfree_res = np.abs(p1 - p0) / np.maximum(np.abs(p0), np.abs(p1))
    comps = [
        _component("gradient_transport", grad_res, config.tol_fd, where),
        _component("mixed_partials", mixed_res, config.tol_fd, where),
        _component("r_independence", rfree_res, config.tol_identity, where),
    ]
    return _report("pressure_consistency", q.size, comps)


def check_boundary(params: WaveParameters, strat: Stratification,
                   grid=None, config: VerifyConfig | None = None) -> VerificationReport:
    """Dynamic and kinematic conditions on the thermocline sheet s = s0.

    Dynamic: P = P0 - rho_plus g z pointwise, within tol_dynamic * |P0|.
    Kinematic: w = eta_t + u eta_x + v eta_y with sheet derivatives by
    central differences (eta is independent of y), within tol_kinematic.
    """
    config, where = _inputs(params, config, grid, sheet=True)
    t = where[3]
    ht = config.fd_time_factor / (params.k * abs(params.c))
    hx = config.fd_space
    flow = Flow(params, *where)
    x, _, z = flow.position
    p = flow.pressure(strat)
    dyn_res = np.abs(p - (params.P0 - strat.rho_plus * strat.g * z)) / abs(params.P0)
    u, v, w = flow.velocity
    # one batched solve at (x, t + ht), (x, t - ht), (x + hx, t), (x - hx, t)
    eta = sheet_elevation(params, params.s0, np.stack((x, x, x + hx, x - hx)),
                          np.stack((t + ht, t - ht, t, t)))
    eta_t = (eta[0] - eta[1]) / (2 * ht)
    eta_x = (eta[2] - eta[3]) / (2 * hx)
    eta_y = 0.0  # the sheet is y-invariant
    kin_res = np.abs(w - (eta_t + u * eta_x + v * eta_y))
    comps = [
        _component("dynamic_condition", dyn_res, config.tol_dynamic, where),
        _component("kinematic_condition", kin_res, config.tol_kinematic, where),
    ]
    return _report("boundary", t.size, comps)


def _fd_velocity_gradient(flow: Flow, h):
    """Central-difference velocity gradient grad[i][j] = d u_i / d x_j at the
    particles of ``flow``, by one batched inversion of the points x +- h e_j."""
    params, t = flow.params, flow.t
    base = np.array(flow.position)                             # (xyz, n)
    steps = h * np.eye(3)[:, None, :, None] * np.array([1.0, -1.0])[:, None, None]
    points = base + steps                                      # (j, +-, xyz, n)
    labels = invert_labels(params, *np.moveaxis(points, 2, 0), t)
    vel = np.array(Flow(params, *labels, t).velocity)          # (i, j, +-, n)
    return (vel[:, :, 0] - vel[:, :, 1]) / (2 * h)


def check_incompressibility(params: WaveParameters, grid=None, t_grid=None,
                            config: VerifyConfig | None = None) -> VerificationReport:
    """Volume preservation: J constant in time and FD Eulerian divergence.

    The divergence of the velocity recovered through map inversion is
    compared against zero at the scale k |c| (tolerance tol_fd * k |c|).
    """
    config, where = _inputs(params, config, grid)
    t_grid = (np.linspace(0.0, wave_period(params), 100) if t_grid is None
              else np.asarray(t_grid, dtype=float))
    # distinct labels in order of first appearance
    labels = dict.fromkeys(zip(*(a.tolist() for a in where[:3])))
    q, r, s = np.array(list(labels), dtype=float).reshape(-1, 3).T
    det = Flow(params, q, r, s, t_grid[:, None]).det  # (times, labels)
    jac_res = np.max(np.abs(det[1:] - det[0]), axis=0, initial=0.0)
    rng = np.random.default_rng(config.seed + 2)
    where = _random_samples(params, rng, config.n_random)
    grad = _fd_velocity_gradient(Flow(params, *where), config.fd_space)
    div_res = np.abs(grad[0][0] + grad[1][1] + grad[2][2]) / (params.k * abs(params.c))
    comps = [
        _component("jacobian_time_invariance", jac_res, config.tol_jacobian_time,
                   (q, r, s, np.full(q.size, t_grid[0]))),
        _component("eulerian_divergence", div_res, config.tol_fd, where),
    ]
    return _report("incompressibility", q.size + config.n_random, comps)


def check_vorticity(params: WaveParameters, grid=None,
                    config: VerifyConfig | None = None) -> VerificationReport:
    """Analytic vorticity against two independent constructions.

    (i) the inverse-Jacobian matrix product (antisymmetrized velocity
    gradient), an identity at tol_identity; (ii) a finite-difference curl
    of the Eulerian velocity through map inversion, at tol_curl.
    """
    config, where = _inputs(params, config, grid)
    # deep in the layer the vorticity decays like e^(-2 m s) while matrix
    # roundoff does not; a tiny fraction of the advective scale k|c| keeps
    # the relative comparison meaningful there
    scale_floor = 1e-6 * params.k * abs(params.c)
    flow = Flow(params, *where)
    row_q, row_s = flow.velocity_gradient
    grad = [flow.eulerian_gradient(row_q[i], 0.0, row_s[i]) for i in range(3)]
    mp_res = _relative_error(flow.vorticity, _curl(grad), scale_floor)
    rng = np.random.default_rng(config.seed + 3)
    fd_where = _random_samples(params, rng, config.n_random)
    fd_flow = Flow(params, *fd_where)
    curl = _curl(_fd_velocity_gradient(fd_flow, config.fd_space))
    curl_res = _relative_error(fd_flow.vorticity, curl, scale_floor)
    comps = [
        _component("matrix_product", mp_res, config.tol_identity, where),
        _component("fd_curl", curl_res, config.tol_curl, fd_where),
    ]
    return _report("vorticity", where[0].size + config.n_random, comps)


def run_all(params: WaveParameters, strat: Stratification,
            config: VerifyConfig | None = None):
    """Execute every check; reports are returned sorted by check name.

    Failures are collected, never short-circuited; output is deterministic
    for a fixed config (including its seed).
    """
    config = config or VerifyConfig()
    grid, sheet = _grid(params, config), _grid(params, config, sheet=True)
    reports = [
        check_euler(params, strat, grid, config),
        check_pressure_consistency(params, strat, grid, config),
        check_boundary(params, strat, sheet, config),
        check_incompressibility(params, grid, config=config),
        check_vorticity(params, grid, config),
    ]
    return sorted(reports, key=lambda r: r.check_name)
