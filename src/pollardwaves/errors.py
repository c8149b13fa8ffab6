"""Exception hierarchy for the wave model.

Configuration-type errors (bad physical inputs) and numeric errors (solver
breakdowns) are kept in separate branches so the CLI can map them to
distinct exit codes.
"""


class PollardWaveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PollardWaveError):
    """Physically inadmissible input; maps to CLI exit code 2."""


class NumericError(PollardWaveError):
    """Numerical procedure failed to converge; maps to CLI exit code 3."""


class ConfigError(InputError):
    """Malformed or contradictory run configuration."""


class LatitudeError(InputError):
    """Latitude outside the open interval (-pi/2, pi/2)."""


class StratificationError(InputError):
    """Density ordering violates stable stratification (rho_plus > rho0 > 0)."""


class WavenumberError(InputError):
    """Wavenumber at or below the 4*Omega^2/g_tilde admissibility threshold."""


class AmplitudeBoundError(InputError):
    """Amplitude violates the local-diffeomorphism gate m^2 a^2 e^(-2 m s*) < 1."""


class EvanescentRegimeError(InputError):
    """Phase speed with k^2 c^2 <= f^2: the vertical decay rate m is not real."""


class InterfaceOrderingError(InputError):
    """Interface pressure constant beta0 does not exceed P0 - P0_tilde."""


class ConvergenceError(NumericError):
    """Iterative refinement did not reach the requested tolerance."""


class DiffeomorphismError(NumericError):
    """Jacobian determinant vanished; the flow map is singular at this label."""
