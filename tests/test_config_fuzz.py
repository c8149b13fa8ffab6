"""Every --config file the CLI reads, and every label and time flag of the
exports, runs or exits with a typed error.

Each config case writes a config file of up to four keys drawn at random, each
with a value of its own type (its default or an extreme of the type) or
arbitrary JSON, and runs one command on it.  Each export case runs trajectory,
profile or field with some of its float flags set to extremes.
``cli.main`` must then exit 0-3 within CASE_SECONDS, print at most one
stderr line and raise nothing, numpy's floating-point warnings included.  A
``dispersion`` run that exits 0 must report finite numbers only, and one on a
config whose configured solve is an InputError must exit 2.
The tables are kept small, so that no case allocates much.
"""

import contextlib
import dataclasses
import io
import json
import math
import time
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from pollardwaves import cli
from pollardwaves.errors import InputError, NumericError

CASE_SECONDS = 5.0
# per command, the arguments after --config: small tables, a file for output
SIZES = {"dispersion": [], "trajectory": ["--n", "8"], "profile": ["--n", "8"],
         "field": ["--nq", "4", "--ns", "3"], "verify": []}

# tiny normal magnitudes reach an underflowing k^4 (k = 1e-200 over rho0 = 1e-200)
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e300, -1e300, 1e16]
# k^4 underflows, so m = 0: the amplitude gate's 1/m raised ZeroDivisionError
M_UNDERFLOW = {"rho0": 1e-200, "rho_plus": 1e-50, "wavenumber": 1e-100, "amplitude": 0.0}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["nan", "inf", "-1e400", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def typed(field):
    """A value of the field's own type: its default or an extreme of the type."""
    if field.name == "seed":
        return st.integers(0, 2**80)
    if field.type is int:
        return st.integers(1, 6)
    if field.type is str:
        return st.sampled_from(["positive", "negative", "csv", "json"])
    return st.sampled_from([field.default, *EXTREMES])


@st.composite
def configs(draw):
    """Up to four keys, each with a value of its own type or, one time in
    four, arbitrary JSON; the keys left out keep their defaults."""
    fields = draw(st.lists(st.sampled_from(dataclasses.fields(cli.RunConfig)),
                           unique=True, max_size=4))
    return {f.name: draw(JSON if draw(st.booleans()) and draw(st.booleans()) else typed(f))
            for f in fields}


def run_main(argv):
    """The exit code of cli.main(argv), run with warnings raised as errors,
    after asserting that it exited 0-3 within CASE_SECONDS with at most one
    stderr line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert time.perf_counter() - start < CASE_SECONDS, argv
    assert code in (0, 1, 2, 3), (code, argv)
    assert stderr.getvalue().count("\n") <= 1, (argv, stderr.getvalue())
    return code


def report_numbers(path):
    """The values of a dispersion report, CSV (name,value rows) or JSON."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("name,value\n"):
        return [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    return list(json.loads(text).values())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(SIZES)), config=configs())
@example(command="verify", config={"amplitude": 1e200})
@example(command="field", config={"perturb_c": 1e300})
@example(command="field", config={"wavenumber": 1e16, "beta0_offset": 1e300, "amplitude": 0.0})
@example(command="dispersion", config={"wavenumber": 1e16, "amplitude": 1e300})
@example(command="verify", config=M_UNDERFLOW)
@example(command="dispersion", config=M_UNDERFLOW)
def test_every_config_file_runs_or_exits_with_one_line(command, config, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "run.json").write_text(json.dumps(config))
    code = run_main([command, "--config", str(path / "run.json"), *SIZES[command],
                     "--out", str(path / "out")])
    if command == "dispersion" and code == 0:
        numbers = report_numbers(path / "out")
        assert all(map(math.isfinite, numbers)), (config, numbers)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
@example(config={"beta0_offset": -5.0})
@example(config={"beta0_offset": 1e306})
def test_dispersion_exits_2_where_the_configured_solve_is_rejected(config, tmp_path_factory):
    """dispersion reports the configured branch's (m, b, d), so it rejects
    every config whose configured solve is an InputError.  The converse need
    not hold: dispersion also solves the other root."""
    path = tmp_path_factory.mktemp("fuzz") / "run.json"
    path.write_text(json.dumps(config))
    try:
        cli.solve_configured(cli.RunConfig.from_json(path.read_text()).validate())
    except InputError:
        assert run_main(["dispersion", "--config", str(path)]) == 2, config
    except NumericError:  # exit 3, which the property leaves alone
        pass


# per export command, its float label and time flags; a flag left out keeps its default
EXPORT_FLAGS = {"trajectory": ["--q", "--r", "--s", "--t0", "--t1"],
                "profile": ["--s", "--r", "--t", "--q0", "--q1"],
                "field": ["--t", "--r", "--q0", "--q1"]}
FLAG_VALUES = [*EXTREMES, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
# inputs that wrote nan/inf rows, ended in a traceback under warnings as errors,
# or exited 3, before the label gate; each must exit 2
REPRODUCERS = [
    ("field", ("--q1=inf",)),
    ("field", ("--t=nan",)),
    ("trajectory", ("--t1=inf",)),
    ("trajectory", ("--r=nan",)),
    ("trajectory", ("--s=nan",)),
    ("trajectory", ("--q=-1.7e+308", "--t0=1.7e+308")),
    ("profile", ("--q0=-1.7e+308", "--q1=1.7e+308")),
    ("profile", ("--s=-1e+300",)),
]


@st.composite
def export_cases(draw):
    """An export command and some of its float flags, each set to an extreme."""
    command = draw(st.sampled_from(sorted(EXPORT_FLAGS)))
    flags = draw(st.lists(st.sampled_from(EXPORT_FLAGS[command]), unique=True, max_size=3))
    return command, tuple(f"{flag}={draw(st.sampled_from(FLAG_VALUES))!r}" for flag in flags)


def _with_reproducers(test):
    for case in REPRODUCERS:
        test = example(case=case)(test)
    return test


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=export_cases())
@_with_reproducers
def test_every_export_label_runs_or_exits_with_one_line(case, tmp_path_factory):
    """A non-finite flag exits 2, and so does each reproducer; an exit 2 comes
    before the table, so it leaves no output file."""
    command, flags = case
    out = tmp_path_factory.mktemp("fuzz") / "out"
    code = run_main([command, *SIZES[command], *flags, "--out", str(out)])
    if case in REPRODUCERS or not all(math.isfinite(float(f.split("=")[1])) for f in flags):
        assert code == 2, case
    assert code != 2 or not out.exists(), case
