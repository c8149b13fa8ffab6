"""Exact rotating internal waves above the thermocline.

Parameter solving (dispersion), Lagrangian field evaluation (flowfield) and
numerical verification of the governing equations (verify), with a CLI for
data export (cli).
"""

from .dispersion import (
    NondimDispersion,
    WaveParameters,
    derive_parameters,
    nondimensionalize,
    root_brackets,
    solve_branch,
)
from .errors import InputError, NumericError, PollardWaveError
from .flowfield import Flow
from .geo import (
    PhysicalConstants,
    Site,
    Stratification,
    coriolis,
    min_wavenumber,
    reduced_gravity,
)
from .verify import VerificationReport, VerifyConfig, run_all

__version__ = "0.25.0"

__all__ = [
    "Flow",
    "InputError",
    "NondimDispersion",
    "NumericError",
    "PhysicalConstants",
    "PollardWaveError",
    "Site",
    "Stratification",
    "VerificationReport",
    "VerifyConfig",
    "WaveParameters",
    "coriolis",
    "derive_parameters",
    "min_wavenumber",
    "nondimensionalize",
    "reduced_gravity",
    "root_brackets",
    "run_all",
    "solve_branch",
]
