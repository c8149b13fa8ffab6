"""The Equator's closed form for the phase speeds: a test oracle.

At f = 0 the dispersion quartic factors as (X^2 - beta X - 1)(X^2 + beta X + 1),
and its two real roots are those of the first factor, the quadratic below.
"""

import math


def solve_equatorial(constants, strat, k):
    """Exact phase speeds on the Equator: k c^2 - 2 Omega c - g_tilde = 0.

    Returns (c_plus, c_minus) = (Omega +- sqrt(Omega^2 + k g_tilde)) / k.
    """
    disc = math.sqrt(constants.Omega**2 + k * strat.g_tilde)
    return ((constants.Omega + disc) / k, (constants.Omega - disc) / k)
