"""Ferrari's closed form for the real roots of the dispersion quartic.

A test oracle independent of the safeguarded Newton solver.
"""

import math


def ferrari_roots(nd):
    """Real roots of P by Ferrari's closed form (cross-check oracle).

    Splits the depressed quartic into two quadratics through the resolvent
    cubic.  Accurate at moderate eps; for eps << 1 cancellation makes this
    inferior to the bracketed refinement, which is why it is only an oracle.
    Returns the sorted tuple of real roots.
    """
    p, q, r = -nd.alpha, -2.0 * nd.beta, -1.0  # X^4 + p X^2 + q X + r
    if q == 0.0:
        # biquadratic: X^2 = (-p +- sqrt(p^2 - 4r)) / 2
        roots = []
        disc = p * p - 4.0 * r
        if disc >= 0.0:
            for sign in (1.0, -1.0):
                y = 0.5 * (-p + sign * math.sqrt(disc))
                if y >= 0.0:
                    roots.extend((math.sqrt(y), -math.sqrt(y)))
        return tuple(sorted(set(roots)))
    # resolvent cubic 8 t^3 + 8 p t^2 + (2 p^2 - 8 r) t - q^2 = 0
    t = _cubic_positive_root(8.0, 8.0 * p, 2.0 * p * p - 8.0 * r, -q * q)
    g = math.sqrt(2.0 * t)
    # P = (X^2 + g X + p/2 + t - q/(2g)) (X^2 - g X + p/2 + t + q/(2g))
    roots = []
    for sign in (1.0, -1.0):
        bq = sign * g
        cq = 0.5 * p + t - sign * q / (2.0 * g)
        disc = bq * bq - 4.0 * cq
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend(((-bq + sq) / 2.0, (-bq - sq) / 2.0))
    return tuple(sorted(roots))


def _cubic_positive_root(a3, a2, a1, a0):
    """Largest real root of a cubic via Cardano / trigonometric form."""
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # depress: t = y - b/3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + sq) ** (1.0 / 3.0), -q / 2.0 + sq)
        v = math.copysign(abs(-q / 2.0 - sq) ** (1.0 / 3.0), -q / 2.0 - sq)
        return u + v + shift
    # three real roots: take the largest
    rho = math.sqrt(-(p / 3.0) ** 3)
    phi = math.acos(max(-1.0, min(1.0, -q / (2.0 * rho))))
    mag = 2.0 * math.sqrt(-p / 3.0)
    return max(mag * math.cos((phi + 2.0 * math.pi * j) / 3.0)
               for j in range(3)) + shift
