"""Command-line interface: solve, export and verify wave datasets.

Subcommands
-----------
dispersion   solve the dispersion relation and print the parameter report
trajectory   particle path at a fixed label, sampled uniformly in time
profile      wave profile at fixed (s, r, t), sampled uniformly in q
field        flow samples on a (q, s) label lattice at a fixed time
verify       run the full verification suite and write a JSON report

Configuration is a flat JSON file; every key can be overridden on the
command line (CLI > file > defaults).  Latitudes are degrees here and
radians everywhere else.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 numeric error.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dispersion as dsp
from . import flowfield as flow
from . import verify as ver
from .errors import AmplitudeBoundError, ConfigError, InputError, NumericError
from .geo import PhysicalConstants, coriolis, min_wavenumber, reduced_gravity

FIELD_COLUMNS = ("t", "q", "r", "s", "x", "y", "z",
                 "u", "v", "w", "p", "w1", "w2", "w3")
PROFILE_COLUMNS = ("q", "x", "y", "z")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Flat run configuration; defaults reproduce the reference scenario
    (45 deg N, density jump 4e-3, k = 6.28e-2 1/m, a = 10 m)."""

    latitude_deg: float = 45.0
    rho0: float = 1000.0
    rho_plus: float = 1004.0
    wavenumber: float | None = 6.28e-2
    wavelength: float | None = None
    amplitude: float = 10.0
    s0: float = 50.0
    beta0_offset: float = 2000.0
    branch: str = "positive"
    output_format: str = "csv"
    seed: int = 0
    perturb_c: float = 0.0
    tol_identity: float = 1e-12
    tol_fd: float = 1e-6
    n_theta: int = 16
    n_s: int = 16
    n_time: int = 5
    n_random: int = 50

    def validate(self):
        has_k = self.wavenumber is not None
        has_l = self.wavelength is not None
        if has_k == has_l:
            raise ConfigError(
                "exactly one of wavenumber/wavelength must be set")
        if has_l and not self.wavelength > 0:
            raise ConfigError(f"wavelength must be positive, got {self.wavelength!r}")
        if has_k and not self.wavenumber > 0:
            raise ConfigError(f"wavenumber must be positive, got {self.wavenumber!r}")
        if self.branch not in ("positive", "negative", "equatorial"):
            raise ConfigError(f"unknown branch {self.branch!r}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if not abs(self.latitude_deg) < 90.0:
            raise ConfigError(
                f"latitude must satisfy |lat| < 90 deg, got {self.latitude_deg!r}")
        if self.branch == "equatorial" and self.latitude_deg != 0.0:
            raise ConfigError("the equatorial branch requires latitude 0")
        if self.amplitude < 0:
            raise ConfigError(f"amplitude must be non-negative, got {self.amplitude!r}")
        return self

    @property
    def k(self) -> float:
        if self.wavenumber is not None:
            return self.wavenumber
        return 2.0 * math.pi / self.wavelength

    def to_json(self) -> str:
        """Canonical serialization (sorted keys, trailing newline)."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**_clear_other_length(raw))


def _clear_other_length(settings: dict) -> dict:
    """``settings`` with the other of the exclusive pair wavenumber/wavelength
    set to None when they set only one, so that it replaces the default."""
    for key, other in (("wavenumber", "wavelength"), ("wavelength", "wavenumber")):
        if key in settings and other not in settings:
            return {**settings, other: None}
    return settings


def solve_configured(config: RunConfig):
    """Run the full parameter pipeline for a validated config.

    Returns (constants, site, strat, params).  The amplitude is capped at
    the thermocline bound 1/m as soon as m is known; the perturb_c
    negative control replaces the phase speed after the set is solved,
    leaving m, b, d untouched.
    """
    constants = PhysicalConstants()
    site = coriolis(constants, math.radians(config.latitude_deg))
    strat = reduced_gravity(constants, config.rho0, config.rho_plus)
    k = config.k
    # k at or below 4 Omega^2 / g_tilde: nondimensionalize or derive_parameters raise
    if site.f == 0.0:
        c_plus, c_minus = dsp.solve_equatorial(constants, strat, k)
        c = c_minus if config.branch == "negative" else c_plus
    else:
        nd = dsp.nondimensionalize(site, strat, k)
        roots = dsp.solve_dispersion(nd, site, strat, k, tol=config.tol_identity)
        c = roots.c_minus if config.branch == "negative" else roots.c_plus
    m = dsp.orbit_parameters(site.f, k, config.amplitude, c)[0]
    if config.amplitude > 1.0 / m:
        raise AmplitudeBoundError(
            f"amplitude {config.amplitude!r} exceeds the amplitude bound 1/m = {1.0 / m!r}")
    params = dsp.derive_parameters(site, strat, k, config.amplitude, c,
                                   config.s0, config.beta0_offset,
                                   beta0_is_offset=True)
    if config.perturb_c != 0.0:
        params = dataclasses.replace(params, c=(1.0 + config.perturb_c) * params.c)
    return constants, site, strat, params


def write_table(path: str, columns, rows, fmt: str):
    """Write a (n_rows, n_cols) float array as CSV (the bytes of f"{v:.17g}") or
    JSON column arrays (C-encoder floats in the layout of json.dumps(indent=2)),
    formatting each distinct bit pattern of a column (-0.0 apart from 0.0) once."""
    cells = []
    for column in rows.T:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        if fmt == "csv":
            strings = ("%.17g," * len(values) % tuple(values)).split(",")[:-1]
        else:
            strings = json.dumps(values)[1:-1].split(", ")
        cells.append(np.array(strings, dtype=object)[inverse].tolist())
    if fmt == "csv":
        text = "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"
    else:
        arrays = ("[\n    " + ",\n    ".join(c) + "\n  ]" if c else "[]" for c in cells)
        members = (f"  {json.dumps(n)}: {a}" for n, a in zip(columns, arrays))
        text = "{\n" + ",\n".join(members) + "\n}\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _flow_rows(fields: flow.Flow, strat):
    """FIELD_COLUMNS table of a kernel evaluation, in row-major label order."""
    columns = (fields.t, fields.q, fields.r, fields.s, *fields.position,
               *fields.velocity, fields.pressure(strat), *fields.vorticity)
    return np.column_stack([c.ravel() for c in np.broadcast_arrays(*columns)])


def cmd_dispersion(config: RunConfig, out: str | None, fmt: str) -> int:
    constants = PhysicalConstants()
    site = coriolis(constants, math.radians(config.latitude_deg))
    strat = reduced_gravity(constants, config.rho0, config.rho_plus)
    k = config.k
    report = {
        "latitude_deg": config.latitude_deg,
        "wavenumber": k,
        "wavelength": 2.0 * math.pi / k,
        "g_tilde": strat.g_tilde,
        "min_wavenumber": min_wavenumber(site, strat),
    }
    if site.f == 0.0:
        c_plus, c_minus = dsp.solve_equatorial(constants, strat, k)
        report.update({"mode": "equatorial", "c_plus": c_plus,
                       "c_minus": c_minus, "m": k})
        print("equatorial dispersion  k c^2 - 2 Omega c - g_tilde = 0")
        print(f"  c_plus  = {c_plus:.10g} m/s")
        print(f"  c_minus = {c_minus:.10g} m/s")
        print(f"  m = k   = {k:.10g} 1/m")
    else:
        nd = dsp.nondimensionalize(site, strat, k)
        roots = dsp.solve_dispersion(nd, site, strat, k, tol=config.tol_identity)
        c = roots.c_minus if config.branch == "negative" else roots.c_plus
        m, b, d = dsp.orbit_parameters(site.f, k, config.amplitude, c)
        # the sign-change bracket the root was refined in: (1, 1 + eps F) unless
        # root_brackets had to widen it (high latitudes, long waves)
        lo, hi = dsp.root_brackets(nd)[0]
        in_bracket = lo < roots.x_plus < hi
        w = nd.epsilon * nd.F
        shown = f"eps F = {w:.6g}" if hi == 1.0 + w else f"{hi - 1.0:.6g}"
        report.update({
            "mode": "midlatitude",
            "epsilon": nd.epsilon, "F": nd.F,
            "discriminant": nd.discriminant,
            "x_plus": roots.x_plus, "x_minus": roots.x_minus,
            "c_plus": roots.c_plus, "c_minus": roots.c_minus,
            "m": m, "b": b, "d": d,
            "bracket_ok": bool(in_bracket),
        })
        print(f"epsilon = {nd.epsilon:.10g}   F = {nd.F:.10g}")
        print(f"discriminant of P' = {nd.discriminant:.10g} "
              f"({'< 0: mid-latitude regime' if nd.discriminant < 0 else '>= 0'})")
        print(f"  X_plus  = {roots.x_plus:.12g}   c_plus  = {roots.c_plus:.10g} m/s")
        print(f"  X_minus = {roots.x_minus:.12g}   c_minus = {roots.c_minus:.10g} m/s")
        print(f"  m = {m:.10g} 1/m   b = {b:.10g} m   d = {d:.10g} m")
        print(f"  X_plus - 1 in (0, {shown}): {in_bracket}")
    if out:
        if fmt == "csv":
            text = "name,value\n" + "".join(
                f"{key},{value!r}\n" if isinstance(value, (str, bool))
                else f"{key},{value:.17g}\n" for key, value in report.items())
        else:
            text = json.dumps(report, indent=2) + "\n"
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return EXIT_OK


def cmd_trajectory(config: RunConfig, args) -> int:
    _, _, strat, params = solve_configured(config)
    s = params.s0 if args.s is None else args.s
    t1 = args.t1 if args.t1 is not None else ver.wave_period(params)
    ts = np.linspace(args.t0, t1, args.n)
    rows = _flow_rows(flow.Flow(params, args.q, args.r, s, ts), strat)
    write_table(args.out, FIELD_COLUMNS, rows, config.output_format)
    return EXIT_OK


def cmd_profile(config: RunConfig, args) -> int:
    _, _, _, params = solve_configured(config)
    s = params.s0 if args.s is None else args.s
    q1 = args.q1 if args.q1 is not None else params.L
    qs = np.linspace(args.q0, q1, args.n)
    rows = np.column_stack((qs, *flow.Flow(params, qs, args.r, s, args.t).position))
    write_table(args.out, PROFILE_COLUMNS, rows, config.output_format)
    return EXIT_OK


def cmd_field(config: RunConfig, args) -> int:
    _, _, strat, params = solve_configured(config)
    q1 = args.q1 if args.q1 is not None else params.L
    qs = np.linspace(args.q0, q1, args.nq)
    ss = np.linspace(params.s0, params.s_plus, args.ns)
    # rows run over q within each s
    rows = _flow_rows(flow.Flow(params, qs[None, :], args.r, ss[:, None], args.t), strat)
    write_table(args.out, FIELD_COLUMNS, rows, config.output_format)
    return EXIT_OK


def cmd_verify(config: RunConfig, out: str | None) -> int:
    _, _, strat, params = solve_configured(config)
    vconfig = ver.VerifyConfig(
        n_theta=config.n_theta, n_s=config.n_s, n_time=config.n_time,
        n_random=config.n_random, seed=config.seed,
        tol_identity=config.tol_identity, tol_fd=config.tol_fd)
    reports = ver.run_all(params, strat, vconfig)
    passed = all(r.passed for r in reports)
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(f"{r.check_name:22s} {state}  max_residual={r.max_residual:.6g}  "
              f"tolerance={r.tolerance:.6g}  samples={r.n_samples}")
    print("verification " + ("PASSED" if passed else "FAILED"))
    payload = {
        "passed": passed,
        "config": dataclasses.asdict(config),
        "checks": [dataclasses.asdict(r) for r in reports],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--lat", type=float, dest="latitude_deg",
                        help="latitude in degrees (positive north)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--k", type=float, dest="wavenumber",
                       help="wavenumber [1/m]")
    group.add_argument("--wavelength", type=float, help="wavelength [m]")
    parser.add_argument("--amplitude", type=float, help="amplitude a [m]")
    parser.add_argument("--rho0", type=float, help="upper-layer density [kg/m^3]")
    parser.add_argument("--rho-plus", type=float, dest="rho_plus",
                        help="lower-layer density [kg/m^3]")
    parser.add_argument("--s0", type=float, help="thermocline label [m]")
    parser.add_argument("--beta0-offset", type=float, dest="beta0_offset",
                        help="interface constant offset above P0 - P0_tilde [Pa]")
    parser.add_argument("--branch", choices=("positive", "negative", "equatorial"))
    parser.add_argument("--format", choices=("csv", "json"),
                        dest="output_format", help="output file format")
    parser.add_argument("--seed", type=int, help="seed for random sampling")
    parser.add_argument("--perturb-c", type=float, dest="perturb_c",
                        help="negative control: multiply solved c by (1 + x)")
    parser.add_argument("--tol-identity", type=float, dest="tol_identity")
    parser.add_argument("--tol-fd", type=float, dest="tol_fd")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="pollardwaves",
        description="Exact rotating internal waves above the thermocline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_disp = sub.add_parser("dispersion", help="solve and report the dispersion relation")
    _add_common(p_disp)
    p_disp.add_argument("--out", help="optional report file")

    p_traj = sub.add_parser("trajectory", help="particle path at one label")
    _add_common(p_traj)
    p_traj.add_argument("--q", type=float, default=0.0, help="label q [m]")
    p_traj.add_argument("--r", type=float, default=0.0, help="label r [m]")
    p_traj.add_argument("--s", type=float, default=None,
                        help="label s [m] (default: thermocline s0)")
    p_traj.add_argument("--t0", type=float, default=0.0)
    p_traj.add_argument("--t1", type=float, default=None,
                        help="end time [s] (default: one wave period)")
    p_traj.add_argument("--n", type=int, default=200, help="number of samples")
    p_traj.add_argument("--out", default="-", help="output path ('-' = stdout)")

    p_prof = sub.add_parser("profile", help="wave profile at fixed (s, r, t)")
    _add_common(p_prof)
    p_prof.add_argument("--s", type=float, default=None,
                        help="sheet label s [m] (default: thermocline s0)")
    p_prof.add_argument("--r", type=float, default=0.0)
    p_prof.add_argument("--t", type=float, default=0.0)
    p_prof.add_argument("--q0", type=float, default=0.0)
    p_prof.add_argument("--q1", type=float, default=None,
                        help="end label q [m] (default: one wavelength)")
    p_prof.add_argument("--n", type=int, default=200)
    p_prof.add_argument("--out", default="-")

    p_field = sub.add_parser("field", help="flow samples on a (q, s) lattice")
    _add_common(p_field)
    p_field.add_argument("--t", type=float, default=0.0)
    p_field.add_argument("--r", type=float, default=0.0)
    p_field.add_argument("--q0", type=float, default=0.0)
    p_field.add_argument("--q1", type=float, default=None)
    p_field.add_argument("--nq", type=int, default=64)
    p_field.add_argument("--ns", type=int, default=16)
    p_field.add_argument("--out", default="-")

    p_ver = sub.add_parser("verify", help="run the verification suite")
    _add_common(p_ver)
    for name in ("n_theta", "n_s", "n_time", "n_random"):
        p_ver.add_argument("--" + name.replace("_", "-"), type=int, dest=name)
    p_ver.add_argument("--out", help="JSON report file")
    return parser


def load_config(args) -> RunConfig:
    """Merge defaults, config file and CLI flags (CLI wins)."""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = RunConfig.from_json(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    else:
        config = RunConfig()
    overrides = {fld.name: getattr(args, fld.name) for fld in dataclasses.fields(RunConfig)
                 if getattr(args, fld.name, None) is not None}
    return dataclasses.replace(config, **_clear_other_length(overrides)).validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if getattr(args, "n", 2) < 2:  # trajectory and profile
            raise ConfigError(f"--n must be at least 2, got {args.n!r}")
        if args.command == "dispersion":
            return cmd_dispersion(config, args.out, config.output_format)
        if args.command == "trajectory":
            return cmd_trajectory(config, args)
        if args.command == "profile":
            return cmd_profile(config, args)
        if args.command == "field":
            return cmd_field(config, args)
        if args.command == "verify":
            return cmd_verify(config, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
