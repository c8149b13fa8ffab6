"""Physical constants, site (latitude) configuration and stratification.

All quantities are strict SI: metres, seconds, kilograms, radians.
Latitude in degrees is accepted only at the CLI boundary.
"""

import math
from dataclasses import dataclass

from .errors import InputError

# Defaults for Earth
G_STANDARD = 9.81        # gravitational acceleration [m s^-2]
OMEGA_EARTH = 7.29e-5    # rotational speed [rad s^-1]


@dataclass(frozen=True)
class PhysicalConstants:
    """Planetary constants: gravity g and rotation rate Omega."""

    g: float = G_STANDARD
    Omega: float = OMEGA_EARTH

    def __post_init__(self):
        if not (0 < self.g < math.inf and 0 < self.Omega < math.inf):
            raise InputError(f"g and Omega must be positive and finite, got g={self.g!r}, "
                           f"Omega={self.Omega!r}")


@dataclass(frozen=True)
class Site:
    """The f-plane Coriolis parameters of a fixed latitude phi.

    f = 2 Omega sin(phi) is the Coriolis parameter and
    f_hat = 2 Omega cos(phi) its reciprocal companion, both in s^-1.
    f > 0 in the Northern Hemisphere.
    """

    f: float
    f_hat: float


@dataclass(frozen=True)
class Stratification:
    """Two-layer densities and the reduced gravity of the interface.

    rho0 is the density above the thermocline, rho_plus below
    (rho_plus > rho0 in a stable stratification), both in kg m^-3.
    g_tilde = g (rho_plus - rho0) / rho0 > 0 is the reduced gravity
    [m s^-2].  The gravitational acceleration used to build the set is
    carried along so downstream pressure formulas need no extra input.
    """

    rho0: float
    rho_plus: float
    g_tilde: float
    g: float


def coriolis(constants: PhysicalConstants, phi: float) -> Site:
    """Build a Site at latitude phi [rad].

    Raises InputError unless |phi| < pi/2.
    """
    if not abs(phi) < math.pi / 2:
        raise InputError(f"latitude must satisfy |phi| < pi/2, got {phi!r}")
    return Site(2.0 * constants.Omega * math.sin(phi), 2.0 * constants.Omega * math.cos(phi))


def reduced_gravity(constants: PhysicalConstants, rho0: float,
                    rho_plus: float) -> Stratification:
    """Build a Stratification with g_tilde = g (rho_plus - rho0) / rho0.

    Raises InputError unless rho_plus > rho0 > 0 and g_tilde is finite.
    """
    if not rho0 > 0:
        raise InputError(f"rho0 must be positive, got {rho0!r}")
    if not rho_plus > rho0:
        raise InputError(f"unstable stratification: need rho_plus > rho0, "
                         f"got rho_plus={rho_plus!r}, rho0={rho0!r}")
    g_tilde = constants.g * (rho_plus - rho0) / rho0
    if not math.isfinite(g_tilde):
        raise InputError(
            f"g_tilde must be finite, got {g_tilde!r} from rho_plus={rho_plus!r}, rho0={rho0!r}")
    return Stratification(rho0, rho_plus, g_tilde, constants.g)


def min_wavenumber(site: Site, strat: Stratification) -> float:
    """Lower admissibility threshold 4 Omega^2 / g_tilde [m^-1], computed as
    (f f + f_hat f_hat) / g_tilde from the site's Coriolis pair: products,
    which give inf where a float power raises OverflowError, so an
    overflowing threshold admits no k.

    Wave constructions require a wavenumber strictly greater than this
    value; it guarantees positivity of m^2 and monotonicity of the
    interface pressure map.
    """
    return (site.f * site.f + site.f_hat * site.f_hat) / strat.g_tilde
