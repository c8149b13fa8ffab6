"""Evaluation of the explicit Lagrangian wave solution.

A particle with label (q, r, s) sits at

    x = q - b e^(-m s) sin(theta),
    y = r - d e^(-m s) cos(theta),      theta = k (q - c t),
    z = s - a e^(-m s) cos(theta),

so every quantity below is a closed form in the label, the time and the
solved :class:`~pollardwaves.dispersion.WaveParameters`.  One array kernel,
:class:`Flow`, evaluates them over broadcast (q, r, s, t) arrays, real or, for
the verifier's complex-step derivatives, complex: every field is analytic.
Labels are not range-checked here: the latitudinal half-width r0 of the
strip and the vertical extent [s0, s_plus] are modelling choices enforced
upstream (the CLI's exports hold s to [s0, s_plus]), and every formula is
well defined wherever the flow map stays a local diffeomorphism.
"""

from functools import cached_property

import numpy as np

from .dispersion import WaveParameters, pressure_coefficient_a
from .errors import NumericError


def phase(params: WaveParameters, q, t):
    """Travelling-wave phase theta = k (q - c t)."""
    return params.k * (q - params.c * t)


def _array(v):
    """v as a float64 array, or a complex128 one when v is complex."""
    return np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)


def _require_positive(values, s, message):
    """Raise NumericError at the first entry of values whose real part is not > 0."""
    bad = np.flatnonzero(~(np.real(values) > 0.0))
    if bad.size:
        i, s = bad[0], np.broadcast_to(s, np.shape(values))
        raise NumericError(message.format(s=float(s.flat[i].real),
                                          value=float(values.flat[i].real)))


class Flow:
    """Every field of the wave at label and time arrays that broadcast.

    e^(-m s) is computed at construction, theta, sin(theta), cos(theta) and
    every field on first use, once, all from params (rho0 and g from its
    strat).  The label Jacobian's middle row d(x,y,z)/dr is (0, 1, 0), so its
    linear systems reduce to a closed-form 2x2 block."""

    def __init__(self, params: WaveParameters, q, r, s, t):
        self.params = params
        self.q, self.r, self.s, self.t = (_array(v) for v in (q, r, s, t))
        with np.errstate(over="ignore"):  # m s past a double (s > 0): e^(-m s) is 0 exactly
            exponent = -params.m * self.s
        self.e = np.exp(exponent)

    @cached_property
    def theta(self):
        """Phase theta = k (q - c t)."""
        return phase(self.params, self.q, self.t)

    @cached_property
    def sin(self):
        """sin(theta)."""
        return self._complex_sin_cos[0] if np.iscomplexobj(self.theta) else np.sin(self.theta)

    @cached_property
    def cos(self):
        """cos(theta)."""
        return self._complex_sin_cos[1] if np.iscomplexobj(self.theta) else np.cos(self.theta)

    @cached_property
    def _complex_sin_cos(self):
        """(sin theta, cos theta) of a complex theta = x + i y from real parts,
        sin x cosh y + i cos x sinh y and cos x cosh y - i sin x sinh y: under
        half the cost of complex sin and cos, with their bits wherever
        cosh y is 1 and sinh y is y, as at the verifier's steps."""
        x, y = self.theta.real, self.theta.imag
        sin_x, cos_x, cosh_y, sinh_y = np.sin(x), np.cos(x), np.cosh(y), np.sinh(y)
        sin, cos = np.empty_like(self.theta), np.empty_like(self.theta)
        sin.real, sin.imag = sin_x * cosh_y, cos_x * sinh_y
        cos.real, cos.imag = cos_x * cosh_y, -(sin_x * sinh_y)
        return sin, cos

    @cached_property
    def position(self):
        """Particle position (x, y, z)."""
        p, e = self.params, self.e
        return (self.q - p.b * e * self.sin,
                self.r - p.d * e * self.cos,
                self.s - p.a * e * self.cos)

    @cached_property
    def velocity(self):
        """Particle velocity (u, v, w)."""
        p, e = self.params, self.e
        kc = p.k * p.c
        return (kc * p.b * e * self.cos,
                -kc * p.d * e * self.sin,
                -kc * p.a * e * self.sin)

    @cached_property
    def acceleration(self):
        """Particle acceleration (Du/Dt, Dv/Dt, Dw/Dt)."""
        p, e = self.params, self.e
        kc2 = (p.k * p.c) ** 2
        return (kc2 * p.b * e * self.sin,
                kc2 * p.d * e * self.cos,
                kc2 * p.a * e * self.cos)

    @cached_property
    def jacobian(self):
        """Rows d(x,y,z)/dq and d(x,y,z)/ds of the label Jacobian."""
        p, e, ct, st = self.params, self.e, self.cos, self.sin
        k, m, a, b, d = p.k, p.m, p.a, p.b, p.d
        return ((1.0 - k * b * e * ct, k * d * e * st, k * a * e * st),
                (m * b * e * st, m * d * e * ct, 1.0 + m * a * e * ct))

    @cached_property
    def det(self):
        """Jacobian determinant 1 + (m a - k b) e^(-m s) cos(theta) - k m a b e^(-2 m s),
        time independent once m a = k b holds.  A non-positive value means the
        flow map degenerated (unreachable for gated parameter sets)."""
        p, e = self.params, self.e
        det = (1.0 + (p.m * p.a - p.k * p.b) * e * self.cos
               - p.k * p.m * p.a * p.b * e * e)
        _require_positive(det, self.s, "flow map is singular at s={s!r} (det={value!r})")
        return det

    @cached_property
    def velocity_gradient(self):
        """Rows d(u,v,w)/dq and d(u,v,w)/ds; d(u,v,w)/dr vanishes."""
        p, e, ct, st = self.params, self.e, self.cos, self.sin
        k, m, c, a, b, d = p.k, p.m, p.c, p.a, p.b, p.d
        return ((-k**2 * c * b * e * st, -k**2 * c * d * e * ct, -k**2 * c * a * e * ct),
                (-m * k * c * b * e * ct, m * k * c * d * e * st, m * k * c * a * e * st))

    def eulerian_gradient(self, g_q, g_r, g_s):
        """Eulerian gradient (X_x, X_y, X_z) of a field X with label gradient
        (X_q, X_r, X_s), solving J . (X_x, X_y, X_z) = (X_q, X_r, X_s)."""
        (j00, j01, j02), (j20, j21, j22) = self.jacobian
        h_q, h_s = g_q - j01 * g_r, g_s - j21 * g_r
        return ((j22 * h_q - j02 * h_s) / self.det, g_r,
                (j00 * h_s - j20 * h_q) / self.det)

    def newton_step(self, res_x, res_y, res_z):
        """Label change (dq, dr, ds) whose image under d(x,y,z)/d(q,r,s)
        equals the given position residual."""
        (j00, j01, j02), (j20, j21, j22) = self.jacobian
        dq = (j22 * res_x - j20 * res_z) / self.det
        ds = (j00 * res_z - j02 * res_x) / self.det
        return dq, res_y - j01 * dq - j21 * ds, ds

    def _pressure_coefficients(self):
        """(A, B) of the wave pressure -rho0 (A e^(-2 m s) + B e^(-m s) cos(theta))."""
        p = self.params
        return (pressure_coefficient_a(p.f, p.f_hat, p.k, p.c, p.a, p.b, p.d),
                p.c * p.a * p.f_hat - p.c * p.d * p.f - p.k * p.c**2 * p.b - p.a * p.strat.g)

    @cached_property
    def dynamic_pressure(self):
        """Wave part of the pressure: P + rho0 g s - P0_tilde [Pa].

        The pressure less its hydrostatic column term; it decays like
        e^(-m s) with depth, where the column term grows.
        """
        A, B = self._pressure_coefficients()
        return -self.params.strat.rho0 * (A * self.e * self.e + B * self.e * self.cos)

    @cached_property
    def pressure(self):
        """Pressure [Pa].

        The quadratic cos^2 term of the raw expression carries the
        coefficient a^2 + d^2 - b^2, identically zero for a solved set, and
        is dropped; the gauge constant P0_tilde pins P = P0 - rho_plus g z
        on the thermocline.
        """
        strat = self.params.strat
        return self.dynamic_pressure - strat.rho0 * strat.g * self.s + self.params.P0_tilde

    @cached_property
    def pressure_label_gradient(self):
        """Analytic gradient (P_q, P_r, P_s); P_r vanishes identically."""
        A, B = self._pressure_coefficients()
        k, m, e, strat = self.params.k, self.params.m, self.e, self.params.strat
        p_q = -strat.rho0 * (-k * B * e * self.sin)
        p_s = -strat.rho0 * (-2.0 * m * A * e * e - m * B * e * self.cos + strat.g)
        return p_q, np.zeros_like(p_q), p_s

    @cached_property
    def vorticity(self):
        """Vorticity (w_y - v_z, u_z - w_x, v_x - u_y).

        Closed form with prefactor 1/(1 - m^2 a^2 e^(-2 m s)).  The third
        component is f m a (cos(theta) + m a e^(-m s)) e^(-m s) times the
        prefactor, the sign of the inner product term following from the
        inverse-Jacobian construction."""
        p, e = self.params, self.e
        k, m, c, a, f = p.k, p.m, p.c, p.a, p.f
        denom = 1.0 - m**2 * a**2 * e * e
        _require_positive(denom, self.s,
                          "vorticity prefactor degenerate at s={s!r} "
                          "(1 - m^2 a^2 e^(-2 m s) = {value!r})")
        w1 = (m**2 * a * f / k) * e * self.sin
        w2 = (-c * (m**2 - k**2) * a * e * self.cos
              + c * m * a**2 * (m**2 + k**2) * e * e)
        w3 = f * m * a * (self.cos + m * a * e) * e
        return (w1 / denom, w2 / denom, w3 / denom)

