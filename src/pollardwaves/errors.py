"""The package's two error types, one per CLI exit code.

InputError covers every physically inadmissible or malformed input and
NumericError every solver breakdown; each raise site's message names the
gate that fired.
"""


class PollardWaveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PollardWaveError):
    """Physically inadmissible input; maps to CLI exit code 2."""


class NumericError(PollardWaveError):
    """Numerical procedure failed to converge; maps to CLI exit code 3."""
