"""Physical constants, site (latitude) configuration and stratification.

All quantities are strict SI: metres, seconds, kilograms, radians.
Latitude in degrees is accepted only at the CLI boundary.
"""

import math
from dataclasses import dataclass

from .errors import LatitudeError, StratificationError

# Defaults for Earth
G_STANDARD = 9.81        # gravitational acceleration [m s^-2]
OMEGA_EARTH = 7.29e-5    # rotational speed [rad s^-1]
RADIUS_EARTH = 6.371e6   # mean radius [m]


@dataclass(frozen=True)
class PhysicalConstants:
    """Planetary constants: gravity g, rotation rate Omega, radius R."""

    g: float = G_STANDARD
    Omega: float = OMEGA_EARTH
    R: float = RADIUS_EARTH

    def __post_init__(self):
        if not (self.g > 0 and self.Omega > 0 and self.R > 0):
            raise ValueError("g, Omega and R must all be positive")


@dataclass(frozen=True)
class Site:
    """Fixed latitude phi [rad] with its f-plane Coriolis parameters.

    f = 2 Omega sin(phi) is the Coriolis parameter and
    f_hat = 2 Omega cos(phi) its reciprocal companion, both in s^-1.
    Positive phi is the Northern Hemisphere.
    """

    phi: float
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
    g: float = G_STANDARD


def coriolis(constants: PhysicalConstants, phi: float) -> Site:
    """Build a Site at latitude phi [rad].

    Raises LatitudeError unless |phi| < pi/2.
    """
    if not abs(phi) < math.pi / 2:
        raise LatitudeError(f"latitude must satisfy |phi| < pi/2, got {phi!r}")
    return Site(
        phi=phi,
        f=2.0 * constants.Omega * math.sin(phi),
        f_hat=2.0 * constants.Omega * math.cos(phi),
    )


def reduced_gravity(constants: PhysicalConstants, rho0: float,
                    rho_plus: float) -> Stratification:
    """Build a Stratification with g_tilde = g (rho_plus - rho0) / rho0.

    Raises StratificationError unless rho_plus > rho0 > 0.
    """
    if not rho0 > 0:
        raise StratificationError(f"rho0 must be positive, got {rho0!r}")
    if not rho_plus > rho0:
        raise StratificationError(
            f"unstable stratification: need rho_plus > rho0, "
            f"got rho_plus={rho_plus!r}, rho0={rho0!r}")
    g_tilde = constants.g * (rho_plus - rho0) / rho0
    return Stratification(rho0=rho0, rho_plus=rho_plus, g_tilde=g_tilde,
                          g=constants.g)


def min_wavenumber(site: Site, strat: Stratification) -> float:
    """Lower admissibility threshold 4 Omega^2 / g_tilde [m^-1], computed as
    (f^2 + f_hat^2) / g_tilde from the site's Coriolis pair.

    Wave constructions require a wavenumber strictly greater than this
    value; it guarantees positivity of m^2 and monotonicity of the
    interface pressure map.
    """
    return (site.f**2 + site.f_hat**2) / strat.g_tilde
