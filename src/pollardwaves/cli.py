"""Command-line interface: solve, export and verify wave datasets.

Subcommands
-----------
dispersion   solve the dispersion relation and print the parameter report
trajectory   particle path at a fixed label, sampled uniformly in time
profile      wave profile at fixed (s, r, t), sampled uniformly in q
field        flow samples on a (q, s) label lattice at a fixed time
verify       run the full verification suite and write a JSON report

Configuration is a flat JSON file that every command accepts whole; a
command takes a flag for each key it reads (CLI > file > defaults): --seed,
--tol-identity and --tol-fd only verify, --perturb-c every command but
dispersion.  Latitudes are degrees here and
radians everywhere else.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 numeric error.
"""

import argparse
import dataclasses
import functools
import json
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import dispersion as dsp
from . import flowfield as flow
from . import verify as ver
from .errors import InputError, NumericError
from .geo import PhysicalConstants, coriolis, min_wavenumber, reduced_gravity

FIELD_COLUMNS = ("t", "q", "r", "s", "x", "y", "z",
                 "u", "v", "w", "p", "w1", "w2", "w3")
PROFILE_COLUMNS = ("q", "x", "y", "z")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# ceilings checked before anything is allocated: rows per exported table
# (--n, or --nq x --ns) and samples per verify run
MAX_TABLE_ROWS = 1_000_000
MAX_VERIFY_SAMPLES = 100_000

EARTH = PhysicalConstants()  # frozen, so every configured solve shares it
_SITE_BITS = struct.Struct("3d")  # (latitude_deg, rho0, rho_plus), _setting's memo key

# a float field of a config file takes a JSON integer that a double holds, kept as it is
_JSON_TYPES = {float: (int, float), float | None: (int, float, type(None))}


@dataclass(frozen=True)
class RunConfig(ver.VerifyConfig):
    """Flat run configuration; defaults reproduce the reference scenario
    (45 deg N, density jump 4e-3, k = 6.28e-2 1/m, a = 10 m).  The sampling
    grids, seed and tolerances are VerifyConfig's fields, checked by validate."""

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
    perturb_c: float = 0.0

    def __post_init__(self):
        """Nothing: a flag may still override a file's value (load_config)."""

    def validate(self):
        """This config, if it passes the checks no solve gate makes; the
        amplitude and the wavenumber's sign are left to the solve's gates."""
        has_k = self.wavenumber is not None
        has_l = self.wavelength is not None
        if has_k == has_l:
            raise InputError("exactly one of wavenumber/wavelength must be set")
        if has_l and not self.wavelength > 0:
            raise InputError(f"wavelength must be positive, got {self.wavelength!r}")
        if self.branch not in ("positive", "negative"):
            raise InputError(f"unknown branch {self.branch!r}")
        if self.output_format not in ("csv", "json"):
            raise InputError(f"unknown output format {self.output_format!r}")
        if not abs(self.latitude_deg) < 90.0:
            raise InputError(
                f"latitude must satisfy |lat| < 90 deg, got {self.latitude_deg!r}")
        if not -1.0 < self.perturb_c <= 1.0:
            raise InputError(f"perturb_c must satisfy -1 < perturb_c <= 1, got {self.perturb_c!r}")
        ver.VerifyConfig.__post_init__(self)  # the sampling grids, seed and tolerances
        samples = self.n_theta * self.n_s * self.n_time + self.n_random
        if samples > MAX_VERIFY_SAMPLES:
            raise InputError(f"n_theta * n_s * n_time + n_random must be at most "
                             f"{MAX_VERIFY_SAMPLES}, got {samples}")
        return self

    @property
    def k(self) -> float:
        if self.wavenumber is not None:
            return self.wavenumber
        return 2.0 * math.pi / self.wavelength

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except ValueError as exc:  # also an integer of over 4300 digits
            raise InputError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError("config must be a JSON object")
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - set(fields))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in raw.items():
            kind = fields[name]
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES.get(kind, kind)):
                raise InputError(f"config key {name} must be of type "
                                 f"{getattr(kind, '__name__', kind)}, got {value!r}")
            if kind in _JSON_TYPES and isinstance(value, int):
                try:
                    float(value)
                except OverflowError as exc:
                    raise InputError(f"config key {name} is an integer too large "
                                     f"for a float") from exc
        return cls(**_clear_other_length(raw))


def _clear_other_length(settings: dict) -> dict:
    """``settings`` with the other of the exclusive pair wavenumber/wavelength
    set to None when they set only one, so that it replaces the default."""
    for key, other in (("wavenumber", "wavelength"), ("wavelength", "wavenumber")):
        if key in settings and other not in settings:
            return {**settings, other: None}
    return settings


def _setting(config: RunConfig):
    """(constants, site, strat) of a config: Earth's constants, its latitude's
    Coriolis pair and its two densities.  Consecutive configs at one site share
    its Site and Stratification, built again only when the latitude or either
    density changes its bit pattern (-0.0 and 0.0 are two sites).  Unstable or
    non-finite densities raise an InputError (exit 2) on every call."""
    return _site_setting(_SITE_BITS.pack(config.latitude_deg, config.rho0, config.rho_plus))


@functools.lru_cache(maxsize=1)
def _site_setting(bits):
    """_setting's one-entry memo, keyed on bytes alone; an error is raised, not stored."""
    latitude_deg, rho0, rho_plus = _SITE_BITS.unpack(bits)
    return (EARTH, coriolis(EARTH, math.radians(latitude_deg)),
            reduced_gravity(EARTH, rho0, rho_plus))


def solve_configured(config: RunConfig):
    """Run the full parameter pipeline for a validated config.

    Returns (constants, site, strat, params), with the site and stratification
    of the config before when it was at the same site (_setting).  Only the
    configured branch's root is solved and checked (solve_branch), at every
    latitude, after nondimensionalize gates k once; an overflowing k^4, a
    non-finite density, s0 or beta0 offset, an m that is not positive and
    finite and an amplitude above the thermocline bound 1/m are InputErrors
    (exit 2).  The perturb_c control replaces c after the solve, leaving m, b, d.
    """
    constants, site, strat = _setting(config)
    nd = dsp.nondimensionalize(site, strat, config.k)  # the one wavenumber gate
    _, c = dsp.solve_branch(nd, config.branch)
    params = dsp.derive_parameters(nd, config.amplitude, c, config.s0, config.beta0_offset)
    if config.perturb_c != 0.0:
        params = dataclasses.replace(params, c=(1.0 + config.perturb_c) * params.c)
    return constants, site, strat, params


def write_table(path: str, columns, values, fmt: str):
    """Write one float array per column, the arrays broadcasting to one table
    with rows in C order, as CSV (the bytes of f"{v:.17g}") or JSON column
    arrays (the bytes of json.dumps(indent=2) of the column lists).  Every
    value is spelled before the file is opened; then each chunk of the
    table's bytes is written as it is made: to a binary file handle, or as
    text to sys.stdout for path "-"."""
    from . import _floatfmt  # imported by the exports only, not at the CLI's startup
    chunks = _floatfmt.table_text(columns, values, fmt)
    if path == "-":
        for chunk in chunks:
            sys.stdout.write(chunk.decode("ascii"))
    else:
        with open(path, "wb") as handle:
            handle.writelines(chunks)


_JSON_STR = json.encoder.encode_basestring_ascii
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def json_text(value, sort_keys=False, newline="\n"):
    """The text of ``json.dumps(value, indent=2, sort_keys=sort_keys)`` for
    dicts with str keys, lists, tuples and JSON scalars.  Python lays out the
    containers and each scalar is spelled as json's C encoder spells it:
    ``indent`` runs json's pure-Python encoder instead."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOATS.get(text, text)
    if isinstance(value, str):
        return _JSON_STR(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    inner = newline + "  "
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        body = [_JSON_STR(key) + ": " + json_text(item, sort_keys, inner) for key, item in items]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        body, ends = [json_text(item, sort_keys, inner) for item in value], "[]"
    else:
        return int.__repr__(value)  # a TypeError for a value of no JSON type
    return ends[0] + inner + ("," + inner).join(body) + newline + ends[1] if body else ends


def _flow_columns(fields: flow.Flow):
    """FIELD_COLUMNS arrays of a kernel evaluation, each at its own broadcast shape."""
    return (fields.t, fields.q, fields.r, fields.s, *fields.position,
            *fields.velocity, fields.pressure, *fields.vorticity)


def cmd_dispersion(config: RunConfig, args) -> int:
    _, site, strat = _setting(config)
    nd = dsp.nondimensionalize(site, strat, config.k)  # the one wavenumber gate
    (x_plus, c_plus), (x_minus, c_minus) = (
        dsp.solve_branch(nd, branch) for branch in ("positive", "negative"))
    c = c_minus if config.branch == "negative" else c_plus
    params = dsp.derive_parameters(nd, config.amplitude, c, config.s0, config.beta0_offset)
    report = {"latitude_deg": config.latitude_deg, "wavenumber": config.k, "wavelength": params.L,
              "g_tilde": strat.g_tilde, "min_wavenumber": min_wavenumber(site, strat),
              "alpha": nd.alpha, "beta": nd.beta, "x_plus": x_plus, "x_minus": x_minus,
              "c_plus": c_plus, "c_minus": c_minus, "m": params.m, "b": params.b, "d": params.d}
    print(f"alpha = {nd.alpha:.10g}   beta = {nd.beta:.10g}")
    print(f"  X_plus  = {x_plus:.12g}   c_plus  = {c_plus:.10g} m/s")
    print(f"  X_minus = {x_minus:.12g}   c_minus = {c_minus:.10g} m/s")
    print(f"  m = {params.m:.10g} 1/m   b = {params.b:.10g} m   d = {params.d:.10g} m")
    if args.out:
        if config.output_format == "csv":
            text = "name,value\n" + "".join(
                f"{key},{value:.17g}\n" for key, value in report.items())
        else:
            text = json_text(report) + "\n"
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return EXIT_OK


def cmd_trajectory(config: RunConfig, args) -> int:
    _, _, _, params = solve_configured(config)
    s = params.s0 if args.s is None else args.s
    t1 = args.t1 if args.t1 is not None else ver.wave_period(params)
    _check_labels(args, params, s, (args.q, args.q), (args.t0, t1))
    ts = np.linspace(args.t0, t1, args.n)
    values = _flow_columns(flow.Flow(params, args.q, args.r, s, ts))
    write_table(args.out, FIELD_COLUMNS, values, config.output_format)
    return EXIT_OK


def cmd_profile(config: RunConfig, args) -> int:
    _, _, _, params = solve_configured(config)
    s = params.s0 if args.s is None else args.s
    q1 = args.q1 if args.q1 is not None else params.L
    _check_labels(args, params, s, (args.q0, q1), (args.t, args.t))
    qs = np.linspace(args.q0, q1, args.n)
    values = (qs, *flow.Flow(params, qs, args.r, s, args.t).position)
    write_table(args.out, PROFILE_COLUMNS, values, config.output_format)
    return EXIT_OK


def cmd_field(config: RunConfig, args) -> int:
    _, _, _, params = solve_configured(config)
    q1 = args.q1 if args.q1 is not None else params.L
    _check_labels(args, params, params.s0, (args.q0, q1), (args.t, args.t))
    qs = np.linspace(args.q0, q1, args.nq)
    ss = np.linspace(params.s0, params.s_plus, args.ns)
    # rows run over q within each s
    values = _flow_columns(flow.Flow(params, qs[None, :], args.r, ss[:, None], args.t))
    write_table(args.out, FIELD_COLUMNS, values, config.output_format)
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    _, _, _, params = solve_configured(config)
    reports = ver.run_all(params, config)
    passed = all(r.passed for r in reports)
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(f"{r.check_name:22s} {state}  max_residual={r.max_residual:.6g}  "
              f"tolerance={r.tolerance:.6g}  samples={r.n_samples}")
    print("verification " + ("PASSED" if passed else "FAILED"))
    # the dicts of dataclasses.asdict, without its deep copies
    payload = {
        "passed": passed,
        "config": vars(config),
        "checks": [{**vars(r), "components": [vars(c) for c in r.components]}
                   for r in reports],
    }
    text = json_text(payload, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


COMMANDS = {"dispersion": cmd_dispersion, "trajectory": cmd_trajectory,
            "profile": cmd_profile, "field": cmd_field, "verify": cmd_verify}


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
    parser.add_argument("--branch", choices=("positive", "negative"))
    parser.add_argument("--format", choices=("csv", "json"),
                        dest="output_format", help="output file format")


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
    p_ver.add_argument("--seed", type=int, help="seed for random sampling")
    p_ver.add_argument("--tol-identity", type=float, dest="tol_identity")
    p_ver.add_argument("--tol-fd", type=float, dest="tol_fd")
    for name in ("n_theta", "n_s", "n_time", "n_random"):
        p_ver.add_argument("--" + name.replace("_", "-"), type=int, dest=name)
    p_ver.add_argument("--out", help="JSON report file")
    for evaluating in (p_traj, p_prof, p_field, p_ver):  # dispersion reports the solve alone
        evaluating.add_argument("--perturb-c", type=float, dest="perturb_c",
                                help="negative control: multiply solved c by (1 + x)")
    return parser


def load_config(args) -> RunConfig:
    """Merge defaults, config file and CLI flags (CLI wins); without a file,
    one RunConfig is built, not the defaults and then a replaced copy."""
    overrides = _clear_other_length({fld.name: getattr(args, fld.name)
                                     for fld in dataclasses.fields(RunConfig)
                                     if getattr(args, fld.name, None) is not None})
    if not args.config:
        return RunConfig(**overrides).validate()
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = RunConfig.from_json(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    return dataclasses.replace(config, **overrides).validate()


def _check_table_size(args):
    """Reject a table size before anything is allocated: --n of trajectory and
    profile is at least 2, field's --nq and --ns are non-negative (0 gives a
    header-only table), and no table or field axis exceeds MAX_TABLE_ROWS."""
    if args.command == "field":
        axes = (("--nq", args.nq), ("--ns", args.ns))
        for flag, n in axes:
            if n < 0:
                raise InputError(f"{flag} must be non-negative, got {n!r}")
        rows = args.nq * args.ns
    else:
        if args.n < 2:
            raise InputError(f"--n must be at least 2, got {args.n!r}")
        axes, rows = (), args.n
    if rows > MAX_TABLE_ROWS:
        raise InputError(f"a table has at most {MAX_TABLE_ROWS} rows, got {rows}")
    for flag, n in axes:
        if n > MAX_TABLE_ROWS:
            raise InputError(f"{flag} must be at most {MAX_TABLE_ROWS}, got {n!r}")


def _check_labels(args, params, s, q_ends, t_ends):
    """Reject an export's labels and times before its table is allocated: every
    float flag given is finite, so are the spans of the q and t ends (defaults
    filled in) and the phase k (q - c t) at each pair of ends, and the label s
    lies in the layer [s0, s_plus] of the solved set."""
    for name in ("q", "r", "s", "t", "t0", "t1", "q0", "q1"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise InputError(f"--{name} must be finite, got {value!r}")
    for axis, (lo, hi) in (("q", q_ends), ("t", t_ends)):
        if not math.isfinite(hi - lo):
            raise InputError(f"the {axis} range [{lo!r}, {hi!r}] overflows a double")
    for q in q_ends:
        for t in t_ends:
            if not math.isfinite(flow.phase(params, q, t)):
                raise InputError(f"the phase k (q - c t) overflows a double at q={q!r}, t={t!r}")
    if not params.s0 <= s <= params.s_plus:
        raise InputError(f"--s={s!r} must lie in the layer [s0, s_plus] = "
                         f"[{params.s0!r}, {params.s_plus!r}]")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.command in ("trajectory", "profile", "field"):
            _check_table_size(args)
        return COMMANDS[args.command](config, args)
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
