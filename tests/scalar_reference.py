"""Per-label closed forms of the flow fields in plain ``math``: a test oracle
independent of the package's numpy kernel.

Each function takes a solved parameter set, scalar label (q, r, s), time t
and, for the pressures, the stratification.
"""

import math


def _phase(p, q, s, t):
    th = p.k * (q - p.c * t)
    return math.exp(-p.m * s), math.cos(th), math.sin(th)


def position(p, q, r, s, t):
    e, ct, st = _phase(p, q, s, t)
    return (q - p.b * e * st, r - p.d * e * ct, s - p.a * e * ct)


def velocity(p, q, r, s, t):
    e, ct, st = _phase(p, q, s, t)
    kc = p.k * p.c
    return (kc * p.b * e * ct, -kc * p.d * e * st, -kc * p.a * e * st)


def acceleration(p, q, r, s, t):
    e, ct, st = _phase(p, q, s, t)
    kc2 = (p.k * p.c) ** 2
    return (kc2 * p.b * e * st, kc2 * p.d * e * ct, kc2 * p.a * e * ct)


def jacobian_rows(p, q, r, s, t):
    """Rows d(x,y,z)/dq and d(x,y,z)/ds; the row d/dr is (0, 1, 0)."""
    e, ct, st = _phase(p, q, s, t)
    k, m, a, b, d = p.k, p.m, p.a, p.b, p.d
    return ((1.0 - k * b * e * ct, k * d * e * st, k * a * e * st),
            (m * b * e * st, m * d * e * ct, 1.0 + m * a * e * ct))


def det(p, q, r, s, t):
    e, ct, _ = _phase(p, q, s, t)
    return 1.0 + (p.m * p.a - p.k * p.b) * e * ct - p.k * p.m * p.a * p.b * e * e


def dynamic_pressure(p, strat, q, r, s, t):
    e, ct, _ = _phase(p, q, s, t)
    e2 = e * e
    k, c, a, b, d, f, fh = p.k, p.c, p.a, p.b, p.d, p.f, p.f_hat
    return -strat.rho0 * (
        -0.5 * k**2 * c**2 * b**2 * e2
        + 0.5 * fh * k * c * a * b * e2
        - 0.5 * f * k * c * b * d * e2
        + (c * a * fh - c * d * f - k * c**2 * b - a * strat.g) * e * ct)


def pressure(p, strat, q, r, s, t):
    return dynamic_pressure(p, strat, q, r, s, t) - strat.rho0 * strat.g * s + p.P0_tilde


def pressure_label_gradient(p, strat, q, r, s, t):
    e, ct, st = _phase(p, q, s, t)
    e2 = e * e
    k, m, c, a, b, d, f, fh = p.k, p.m, p.c, p.a, p.b, p.d, p.f, p.f_hat
    cos_coeff = c * a * fh - c * d * f - k * c**2 * b - a * strat.g
    p_q = -strat.rho0 * (-k * cos_coeff * e * st)
    p_s = -strat.rho0 * (m * k**2 * c**2 * b**2 * e2
                         - m * fh * k * c * a * b * e2
                         + m * f * k * c * b * d * e2
                         - m * cos_coeff * e * ct
                         + strat.g)
    return (p_q, 0.0, p_s)


def vorticity(p, q, r, s, t):
    e, ct, st = _phase(p, q, s, t)
    k, m, c, a, f = p.k, p.m, p.c, p.a, p.f
    denom = 1.0 - m**2 * a**2 * e * e
    w1 = (m**2 * a * f / k) * e * st
    w2 = -c * (m**2 - k**2) * a * e * ct + c * m * a**2 * (m**2 + k**2) * e * e
    w3 = f * m * a * (ct + m * a * e) * e
    return (w1 / denom, w2 / denom, w3 / denom)
