"""Exact rotating internal waves above the thermocline.

Parameter solving (dispersion), Lagrangian field evaluation (flowfield) and
numerical verification of the governing equations (verify), with a CLI for
data export (cli).
"""

from .dispersion import (
    DispersionRoots,
    NondimDispersion,
    WaveParameters,
    derive_parameters,
    nondimensionalize,
    root_brackets,
    solve_dispersion,
    solve_equatorial,
    solve_interface,
)
from .errors import PollardWaveError
from .flowfield import (
    FlowSample,
    LagrangianLabel,
    SurfaceSample,
    acceleration,
    eulerian_velocity,
    invert_map,
    jacobian,
    position,
    pressure,
    profile,
    sample_flow,
    trajectory,
    velocity,
    vorticity,
)
from .geo import (
    PhysicalConstants,
    Site,
    Stratification,
    coriolis,
    min_wavenumber,
    reduced_gravity,
)
from .verify import VerificationReport, VerifyConfig, run_all

__version__ = "0.1.0"

__all__ = [
    "DispersionRoots",
    "FlowSample",
    "LagrangianLabel",
    "NondimDispersion",
    "PhysicalConstants",
    "PollardWaveError",
    "Site",
    "Stratification",
    "SurfaceSample",
    "VerificationReport",
    "VerifyConfig",
    "WaveParameters",
    "acceleration",
    "coriolis",
    "derive_parameters",
    "eulerian_velocity",
    "invert_map",
    "jacobian",
    "min_wavenumber",
    "nondimensionalize",
    "position",
    "pressure",
    "profile",
    "reduced_gravity",
    "root_brackets",
    "run_all",
    "sample_flow",
    "solve_dispersion",
    "solve_equatorial",
    "solve_interface",
    "trajectory",
    "velocity",
    "vorticity",
]
