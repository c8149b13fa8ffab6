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
* incompressibility: the Jacobian determinant against its time-free closed
  form, and the Eulerian divergence at labels one Newton step away;
* vorticity: the closed form against the inverse-Jacobian matrix product
  and against the Eulerian curl at those stepped labels.

Every derivative is a complex step, f'(x) = Im f(x + i h) / h.  The fields
are analytic and the step subtracts nothing, so with h 1e-30 of the wave's
length and time scales the derivatives are exact to roundoff at every scale:
there is no step to tune.  A stepped position's label is one Newton step
from the sample's own, label + i h J^-T e_j: the verifier inverts nothing.
Identity checks carry tol_identity and derivative checks tol_fd, the two
tolerances a run sets; the dynamic condition and the Jacobian's closed
form have module constants.  All random sampling is seeded; reports
are deterministic.  The random samples come from the standard library's
``random.Random``, whose ``random()`` sequence for a seed Python keeps across
versions (numpy's ``Generator`` promises no such stream), and which spares
the process numpy.random's import.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .dispersion import IDENTITY_TOL, WaveParameters
from .errors import InputError
from .flowfield import Flow


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling grids, random seed and the two tolerances a run may set; an
    InputError unless each grid has a sample, the seed is non-negative and
    both tolerances are positive and finite."""

    n_theta: int = 16
    n_s: int = 16
    n_time: int = 5
    n_random: int = 50
    seed: int = 0
    tol_identity: float = IDENTITY_TOL  # closed-form identities, relative
    tol_fd: float = 1e-8                # derivative checks, relative

    def __post_init__(self):
        for name in ("tol_identity", "tol_fd"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not self.seed >= 0:
            raise InputError(f"seed must be non-negative, got {self.seed!r}")
        for name in ("n_theta", "n_s", "n_time", "n_random"):
            if not getattr(self, name) >= 1:
                raise InputError(f"{name} must be at least 1, got {getattr(self, name)!r}")


TOL_DYNAMIC = 1e-9         # dynamic condition, x |P0|
TOL_JACOBIAN_TIME = 1e-14  # |det J - (1 - m^2 a^2 e^(-2 m s))| at each label


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


def _random_samples(params, seed, n, sheet=False):
    """(q, r, s, t) of n interior samples drawn from random.Random(seed), each
    drawing q, r, s, t in turn (not s on the sheet s = s0); lo + (hi - lo) u
    is Random.uniform(lo, hi)."""
    rng, width = random.Random(seed), 3 if sheet else 4
    u = iter(np.array([rng.random() for _ in range(n * width)]).reshape(n, width).T)
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
    return tuple(np.concatenate(pair) for pair in zip(
        (q, np.zeros(q.size), s, t),
        _random_samples(params, config.seed + (1 if sheet else 0), config.n_random, sheet)))


def _momentum(flow: Flow):
    """Du/Dt + 2 Omega x u + g e_z per component; the momentum balance sets it to -grad P / rho0."""
    p = flow.params
    du, dv, dw = flow.acceleration
    u, v, w = flow.velocity
    return du + p.f_hat * w - p.f * v, dv + p.f * u, dw - p.f_hat * u + p.strat.g


def check_euler(volume: Flow, config: VerifyConfig) -> VerificationReport:
    """Residuals of the three momentum equations at ``volume``, normalized by g.

    The pressure gradient is the Eulerian gradient of the closed-form
    scalar pressure; for a consistent parameter set all three residuals are
    pure roundoff.
    """
    strat, grad = volume.params.strat, volume.eulerian_gradient(*volume.pressure_label_gradient)
    residual = [term + dp / strat.rho0 for term, dp in zip(_momentum(volume), grad)]
    comp = _component("momentum_residual", _max_abs(*residual) / strat.g,
                      config.tol_identity, _where(volume))
    return _report("euler", volume.q.size, [comp])


def _transported_gradient(flow: Flow):
    """Label pressure gradient J . (P_x, P_y, P_z) by the chain rule, with
    (P_x, P_y, P_z) demanded by the momentum equations."""
    gx, gy, gz = (-flow.params.strat.rho0 * t for t in _momentum(flow))
    (j00, j01, j02), (j20, j21, j22) = flow.jacobian
    return j00 * gx + j01 * gy + j02 * gz, gy, j20 * gx + j21 * gy + j22 * gz


def check_pressure_consistency(volume: Flow, config: VerifyConfig) -> VerificationReport:
    """Complex-step label gradient of the scalar pressure against the
    chain-rule transport of the momentum-equation gradient at ``volume``.

    The transport's r component is compared with the exact P_r = 0, and its
    mixed partials, d/ds of its q component and d/dq of its s component, must
    agree: that is exactly the compatibility content of the construction.
    """
    params, (q, r, s, t) = volume.params, _where(volume)
    h = _step(params)
    floor = config.tol_fd * params.strat.rho0 * params.strat.g  # [Pa/m] noise floor
    # row 0 steps q by i h and row 1 steps s; each row's real part is the sample
    rows = Flow(params, q + [[1j * h], [0.0]], r, s + [[0.0], [1j * h]], t)
    transported = _transported_gradient(rows)
    p_q, p_s = rows.pressure.imag / h
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


def check_boundary(sheet: Flow, config: VerifyConfig) -> VerificationReport:
    """Dynamic and kinematic conditions at ``sheet``, on the thermocline s = s0.

    Dynamic: P = P0 - rho_plus g z pointwise, within TOL_DYNAMIC * |P0|.
    Kinematic: w = eta_t + u eta_x with the sheet's complex-step derivatives
    (eta is independent of y), relative to the sheet's velocity scale
    k |c| a e^(-m s0) and within tol_fd.
    """
    params, where, t = sheet.params, _where(sheet), sheet.t
    x, _, z = sheet.position
    thermocline = params.P0 - params.strat.rho_plus * params.strat.g * z
    dyn_res = np.abs(sheet.pressure - thermocline) / abs(params.P0)
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
    flow = Flow(params, *_random_samples(params, config.seed + 2, config.n_random))
    steps = flow.newton_step(*(-1j * h * np.eye(3)[:, :, None]))  # (qrs, j, n)
    labels = [v - d for v, d in zip((flow.q, flow.r, flow.s), steps)]
    return flow, np.array(Flow(params, *labels, flow.t).velocity).imag / h  # (i, j, n)


def _one_per_label(config, n):
    """Indices of one sample per label of a volume grid of n samples: _grid
    repeats each lattice label over n_time consecutive times, t fastest."""
    n_lattice = config.n_theta * config.n_s * config.n_time
    return np.r_[0:n_lattice:config.n_time, n_lattice:n]


def check_incompressibility(volume: Flow, probe, config: VerifyConfig) -> VerificationReport:
    """Volume preservation: det J against its time-free closed form
    1 - (m a e^(-m s))^2 at one sample per label of ``volume``, the Flow of
    _grid(params, config), and zero Eulerian divergence at the ``probe`` of
    _probe, to tol_fd * k |c|.  A break of m a = k b adds terms in e^(-m s)
    cos(theta) and e^(-2 m s) to det J: agreement is time invariance."""
    params = volume.params
    one = _one_per_label(config, volume.q.size)
    jac_res = np.abs(volume.det[one] - (1.0 - (params.m * params.a * volume.e[one]) ** 2))
    flow, grad = probe
    div_res = np.abs(grad[0][0] + grad[1][1] + grad[2][2]) / (params.k * abs(params.c))
    comps = [
        _component("jacobian_time_invariance", jac_res, TOL_JACOBIAN_TIME,
                   tuple(v[one] for v in _where(volume))),
        _component("eulerian_divergence", div_res, config.tol_fd, _where(flow)),
    ]
    return _report("incompressibility", one.size + flow.q.size, comps)


def check_vorticity(volume: Flow, probe, config: VerifyConfig) -> VerificationReport:
    """Analytic vorticity against two independent constructions.

    (i) the inverse-Jacobian matrix product (antisymmetrized velocity
    gradient) at the samples of ``volume``, an identity at tol_identity;
    (ii) the complex-step curl of the Eulerian velocity at the ``probe`` of
    _probe, at tol_fd.
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


def run_all(params: WaveParameters, config: VerifyConfig | None = None):
    """Execute every check; reports are returned sorted by check name.

    The one place the verifier makes samples: it evaluates the volume grid,
    the sheet grid and the probe once, and each check reads the sets it
    needs.  Every physical parameter, rho0, rho_plus and g included, is read
    from ``params`` as it was solved.  Failures are collected, never
    short-circuited; output is deterministic for a fixed config (including
    its seed).
    """
    config = config or VerifyConfig()
    volume = Flow(params, *_grid(params, config))
    sheet = Flow(params, *_grid(params, config, sheet=True))
    probe = _probe(params, config)
    reports = [
        check_euler(volume, config),
        check_pressure_consistency(volume, config),
        check_boundary(sheet, config),
        check_incompressibility(volume, probe, config),
        check_vorticity(volume, probe, config),
    ]
    return sorted(reports, key=lambda r: r.check_name)
