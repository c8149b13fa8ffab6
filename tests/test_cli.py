import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves import cli, dispersion as dsp, verify
from pollardwaves.cli import (FIELD_COLUMNS, PROFILE_COLUMNS, RunConfig, main,
                              solve_configured)
from pollardwaves.errors import InputError

from conftest import REF_K, both_roots
from equatorial import solve_equatorial


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    return header, rows


# --- dispersion ----------------------------------------------------------------

def test_dispersion_prints_midlatitude_report(capsys):
    assert main(["dispersion"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "beta" in out
    assert "discriminant" not in out
    assert "X_plus" in out and "c_minus" in out


def test_dispersion_wavelength_200m_epsilon_small(tmp_path):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--wavelength", "200", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 1e-4 < math.sqrt(report["alpha"] - report["beta"]**2) < 5e-2  # eps
    assert report["wavelength"] == pytest.approx(200.0)


def test_dispersion_high_latitude_positive_root(tmp_path):
    """At 82.6 deg and k = 4.6e-6 the correct X+ = 1.05166 lies above 1 + beta."""
    out = tmp_path / "report.json"
    assert main(["dispersion", "--lat", "82.6", "--k", "4.6e-6", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    w = report["beta"]
    assert 1.0 + w < report["x_plus"] < 1.0 + 2.0 * w


@pytest.mark.parametrize("lat, k", [(45.0, REF_K), (82.6, 4.6e-6)])
def test_dispersion_evaluates_P_only_in_its_root_solves(monkeypatch, capsys, strat,
                                                        lat, k):
    """The command makes the Newton steps and residual gates of its two root
    solves only: 3 steps and one gate per root at the reference."""
    calls = {}
    for name in ("value_and_slope", "evaluate"):
        method, calls[name] = getattr(dsp.NondimDispersion, name), []
        monkeypatch.setattr(dsp.NondimDispersion, name,
                            lambda self, x, method=method, seen=calls[name]:
                            seen.append(x) or method(self, x))
    site = pw.coriolis(pw.PhysicalConstants(), math.radians(lat))
    both_roots(site, strat, k)
    solve = {name: len(seen) for name, seen in calls.items()}
    assert main(["dispersion", "--lat", str(lat), "--k", str(k)]) == 0
    assert {name: len(seen) for name, seen in calls.items()} == {
        name: 2 * n for name, n in solve.items()}
    assert solve["evaluate"] == 2
    assert solve["value_and_slope"] == 6 or lat != 45.0


def test_dispersion_report_orbit_parameters_equal_derived(tmp_path, ref_params):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["m"], report["b"], report["d"]) == (
        ref_params.m, ref_params.b, ref_params.d)


@pytest.mark.parametrize("lat, branch", [(45.0, "positive"), (-60.0, "negative"),
                                         (0.0, "negative")])
def test_dispersion_gates_its_wavenumber_once(monkeypatch, tmp_path, lat, branch):
    """One wavenumber gate serves both roots and the configured set: the
    command calls nondimensionalize once, and dispersion's min_wavenumber
    once; the report holds what separate solves give: each root of
    solve_branch and the (m, b, d) of solve_configured."""
    gates, thresholds = [], []
    for name, seen in (("nondimensionalize", gates), ("min_wavenumber", thresholds)):
        monkeypatch.setattr(dsp, name, lambda *args, fn=getattr(dsp, name), seen=seen:
                            seen.append(None) or fn(*args))
    out = tmp_path / "report.json"
    assert main(["dispersion", "--lat", str(lat), "--branch", branch, "--format", "json",
                 "--out", str(out)]) == 0
    assert len(gates) == 1 and len(thresholds) == 1
    report = json.loads(out.read_text())
    config = RunConfig(latitude_deg=lat, branch=branch).validate()
    _, site, strat, params = solve_configured(config)
    for root, sign in (("positive", "plus"), ("negative", "minus")):
        x, c = dsp.solve_branch(dsp.nondimensionalize(site, strat, REF_K), root)
        assert (report[f"x_{sign}"], report[f"c_{sign}"]) == (x, c)
    assert (report["m"], report["b"], report["d"]) == (params.m, params.b, params.d)


@pytest.mark.parametrize("command", ["dispersion", "verify"])
def test_underflowing_decay_rate_is_a_typed_error(command, capsys):
    """k^4 underflows at k = 1e-100, so m = 0, where the amplitude gate's 1/m
    raised ZeroDivisionError: a one-line typed error (exit 2)."""
    assert main([command, "--rho0", "1e-200", "--rho-plus", "1e-50", "--k", "1e-100",
                 "--amplitude", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "decay rate m=0.0" in err


def test_dispersion_report_speed_in_bracket(tmp_path, site45, strat):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    scale = math.sqrt(strat.g_tilde / REF_K)
    w = report["beta"]
    assert scale < report["c_plus"] < (1.0 + w) * scale


@pytest.mark.parametrize("lat", ["0", "1e-310", "1e-60", "-1e-60", "1e-300"])
def test_dispersion_near_the_equator_meets_the_equatorial_speeds(tmp_path, strat, lat):
    """On and next to the Equator (f = 0, or f below the smallest normal double
    at 1e-310 deg) the quartic's roots give the equatorial closed form's speeds."""
    out = tmp_path / "report.json"
    assert main(["dispersion", f"--lat={lat}", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for speed, exact in zip((report["c_plus"], report["c_minus"]),
                            solve_equatorial(pw.PhysicalConstants(), strat, REF_K)):
        assert abs(speed - exact) <= 4 * math.ulp(exact)


def test_dispersion_negative_root_below_minus_one(tmp_path):
    """At 82.6 deg and k = 4.6e-6 1/m, P(-1) < 0: X_minus lies below -1, and
    --branch negative reports the m, b, d of c_minus."""
    out = tmp_path / "report.json"
    assert main(["dispersion", "--lat", "82.6", "--k", "4.6e-6", "--branch", "negative",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["x_minus"] == pytest.approx(-1.0075356855168, abs=1e-12)
    assert report["c_minus"] < 0.0 < report["c_plus"]
    site = pw.coriolis(pw.PhysicalConstants(), math.radians(82.6))
    mbd = (report["m"], report["b"], report["d"])
    assert mbd == dsp.orbit_parameters(site.f, 4.6e-6, 10.0, report["c_minus"])
    # d = -f m a / (k^2 c) takes its sign from c: c_plus would give the other sign
    d_plus = dsp.orbit_parameters(site.f, 4.6e-6, 10.0, report["c_plus"])[2]
    assert mbd[2] * d_plus < 0.0


def test_dispersion_where_P_prime_has_three_real_zeros(tmp_path):
    """At 85 deg and k = 1e-6 1/m (1.85 times the threshold) P' has three real zeros;
    P still has one root on each side of 0, and the report names no discriminant."""
    out = tmp_path / "report.json"
    assert main(["dispersion", "--lat", "85", "--k", "1e-6", "--branch", "negative",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "discriminant" not in report
    assert report["x_plus"] == pytest.approx(1.17353353319, abs=1e-11)
    assert report["x_minus"] == pytest.approx(-1.11158597851, abs=1e-11)
    assert report["c_minus"] < 0.0 < report["c_plus"]


# --- data export -----------------------------------------------------------------

def test_trajectory_still_water_constant_rows(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--amplitude", "0", "--n", "5",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == list(FIELD_COLUMNS)
    positions = {(r[4], r[5], r[6]) for r in rows}
    assert len(positions) == 1


def test_trajectory_orbit_radii_decay_with_height(tmp_path, ref_params):
    radii = {}
    for s in (50.0, 60.0):
        out = tmp_path / f"traj{s}.csv"
        assert main(["trajectory", "--s", str(s), "--n", "64",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        dists = [math.dist((r[4], r[5], r[6]), (0.0, 0.0, s)) for r in rows]
        assert max(dists) == pytest.approx(min(dists), rel=1e-12)
        radii[s] = np.mean(dists)
    assert radii[60.0] / radii[50.0] == pytest.approx(
        math.exp(-10.0 * ref_params.m), rel=1e-9)


def test_trajectory_csv_floats_roundtrip(tmp_path, ref_params):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--q", "3", "--r", "1", "--s", "55",
                 "--t0", "0", "--t1", "10", "--n", "3",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ts = np.linspace(0.0, 10.0, 3)
    flow = pw.Flow(ref_params, 3.0, 1.0, 55.0, ts)
    columns = (*flow.position, *flow.velocity, flow.pressure, *flow.vorticity)
    assert len(rows) == 3
    for i, row in enumerate(rows):
        # 17 significant digits give exact double round-trips
        assert row[0] == ts[i]
        assert tuple(row[4:14]) == tuple(float(c[i]) for c in columns)


def test_profile_trochoid_shape_from_file(tmp_path, ref_params):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--n", "4001", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == list(PROFILE_COLUMNS)
    xs = np.array([r[1] for r in rows])
    zs = np.array([r[3] for r in rows])
    mean = 0.5 * (zs.max() + zs.min())
    dx = np.diff(xs)
    trough = dx[(zs[:-1] < mean) & (zs[1:] < mean)].sum()
    crest = dx[(zs[:-1] > mean) & (zs[1:] > mean)].sum()
    assert trough < crest


def test_profile_json_mirrors_columns(tmp_path):
    out = tmp_path / "profile.json"
    assert main(["profile", "--format", "json", "--n", "16",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == set(PROFILE_COLUMNS)
    assert all(len(v) == 16 for v in data.values())


def test_profile_deep_thermocline_terminates():
    """At s0 = 1e8 m the ulp of s exceeds the 1e-9 m interface tolerance;
    the interface label's Newton solve must still stop (at a step of 2 ulp)."""
    src = os.path.dirname(os.path.dirname(pw.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "pollardwaves.cli", "profile", "--s0", "1e8", "--n", "4"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=30)
    assert result.returncode == 0, result.stderr


def test_field_lattice(tmp_path):
    out = tmp_path / "field.csv"
    assert main(["field", "--nq", "4", "--ns", "3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == list(FIELD_COLUMNS)
    assert len(rows) == 12


def test_trajectory_json_mirrors_columns(tmp_path):
    out = tmp_path / "traj.json"
    assert main(["trajectory", "--format", "json", "--n", "7",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == set(FIELD_COLUMNS)
    assert all(len(v) == 7 for v in data.values())


def test_config_file_with_only_wavelength(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"wavelength": 150.0}))
    out = tmp_path / "report.json"
    assert main(["dispersion", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["wavenumber"] == pytest.approx(2.0 * math.pi / 150.0)


def test_trajectory_to_stdout(capsys):
    assert main(["trajectory", "--n", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(FIELD_COLUMNS) + "\n")


# --- verify ----------------------------------------------------------------------

VERIFY_FAST = ["--n-theta", "6", "--n-s", "4", "--n-time", "2",
               "--n-random", "8"]


def test_verify_reference_set_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", *VERIFY_FAST, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert {c["check_name"] for c in report["checks"]} == {
        "boundary", "euler", "incompressibility", "pressure_consistency",
        "vorticity"}
    assert "verification PASSED" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", [[], ["--lat", "0"], ["--lat", "-60", "--branch", "negative"]],
                         ids=["reference", "equator", "south-negative"])
def test_verify_passes_at_every_sampling_seed(scenario, capsys):
    """A correct set passes at sampling seeds 0-99 with the default grids.  A
    seed moves only the random samples; a verifier whose roundoff depends on
    them fails some seeds (finite differences failed mixed_partials at about
    6 % of reference seeds)."""
    failed = [seed for seed in range(100)
              if main(["verify", *scenario, "--seed", str(seed)]) != 0]
    capsys.readouterr()
    assert failed == []


def test_verify_negative_control_fails(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", *VERIFY_FAST, "--perturb-c", "0.01",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    by_name = {c["check_name"]: c for c in report["checks"]}
    assert by_name["euler"]["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_config_file_sets_every_verify_setting(tmp_path):
    """The seven VerifyConfig settings of a config file reach run_all: the
    report equals the library's run with them, and differs from it when any
    one of them is left at its default.  A JSON integer in a number field is
    kept as it is."""
    settings = {"n_theta": 4, "n_s": 3, "n_time": 2, "n_random": 7, "seed": 5,
                "tol_identity": 3e-12, "tol_fd": 2e-6}
    assert set(settings) == {f.name for f in dataclasses.fields(verify.VerifyConfig)}
    cfg, out = tmp_path / "run.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({**settings, "latitude_deg": 30}))
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["latitude_deg"] == 30
    assert isinstance(report["config"]["latitude_deg"], int)
    by_name = {c["check_name"]: c for c in report["checks"]}
    assert by_name["euler"]["n_samples"] == 4 * 3 * 2 + 7
    assert by_name["boundary"]["n_samples"] == 4 * 2 + 7
    assert by_name["euler"]["tolerance"] == 3e-12
    tolerances = {c["name"]: c["tolerance"]
                  for c in by_name["pressure_consistency"]["components"]}
    assert tolerances == {"gradient_transport": 2e-6, "mixed_partials": 2e-6}

    params = solve_configured(RunConfig(latitude_deg=30).validate())[3]

    def checks(**changes):
        config = verify.VerifyConfig(**{**settings, **changes})
        reports = verify.run_all(params, config)
        return json.loads(json.dumps([dataclasses.asdict(r) for r in reports]))

    assert report["checks"] == checks()
    for name in settings:
        default = getattr(verify.VerifyConfig(), name)
        assert checks(**{name: default}) != report["checks"], name


def test_verify_rejects_amplitude_beyond_bound(capsys):
    # 1/m is just under 16 m for the reference set
    assert main(["verify", "--amplitude", "16.5"]) == 2
    err = capsys.readouterr().err
    assert "amplitude" in err
    assert "1/m" in err


def test_dispersion_and_verify_share_the_amplitude_gate(capsys):
    """16.5 m, just above 1/m = 15.92 m at the reference, is the same one-line
    error (exit 2) from dispersion and verify; 15.9 m is reported."""
    errors = []
    for command in ("dispersion", "verify"):
        assert main([command, "--amplitude", "16.5"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].count("\n") == 1
    assert "a <= 1/m = 15.92" in errors[0]
    assert main(["dispersion", "--amplitude", "15.9"]) == 0
    assert "b = 15.9" in capsys.readouterr().out


def test_amplitude_bound_checked_before_interface_solve(monkeypatch):
    # 1/m is about 0.018 m; the rejected set must not pay for the interface solve
    original, calls = dsp._interface_map, []
    monkeypatch.setattr(dsp, "_interface_map",
                        lambda *args: calls.append(args) or original(*args))
    config = RunConfig(latitude_deg=1e-6, wavenumber=55.36,
                       rho_plus=1000.0000001).validate()
    with pytest.raises(InputError, match="1/m"):
        solve_configured(config)
    assert calls == []


def test_verify_byte_identical_reports(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", *VERIFY_FAST, "--seed", "42", "--out", str(out1)]) == 0
    assert main(["verify", *VERIFY_FAST, "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_runs_in_one_process_leave_no_state(tmp_path, capsys):
    """Criterion 9 across runs that share the parser: the defaults, a perturbed
    run at another seed, then the defaults again; the perturbed run also
    matches a fresh interpreter's."""
    runs = (["verify"], ["verify", "--seed", "7", "--perturb-c", "0.01"], ["verify"])
    reports, outputs = [], []
    for i, (argv, code) in enumerate(zip(runs, (0, 1, 0))):
        out = tmp_path / f"report{i}.json"
        assert main([*argv, "--out", str(out)]) == code
        reports.append(out.read_bytes())
        outputs.append(capsys.readouterr().out)
    assert reports[0] == reports[2] != reports[1]
    assert outputs[0] == outputs[2] != outputs[1]
    fresh = tmp_path / "fresh.json"
    result = subprocess.run(
        [sys.executable, "-m", "pollardwaves.cli", *runs[1], "--out", str(fresh)],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pw.__file__))},
        capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (1, outputs[1])
    assert fresh.read_bytes() == reports[1]


def test_parser_is_built_once(monkeypatch, tmp_path, capsys):
    cli.build_parser.cache_clear()
    builds = []
    original = cli._add_common
    monkeypatch.setattr(cli, "_add_common",
                        lambda parser: builds.append(parser) or original(parser))
    for _ in range(3):
        assert main(["dispersion"]) == 0
    assert main(["verify", *VERIFY_FAST, "--out", str(tmp_path / "r.json")]) == 0
    assert len(builds) == 5  # one parser: its five subcommands, each once


# --- configuration ----------------------------------------------------------------

def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"latitude_deg": 30.0, "amplitude": 5.0}))
    out = tmp_path / "report.json"
    assert main(["dispersion", "--config", str(cfg), "--lat", "45",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    const = pw.PhysicalConstants()
    site = pw.coriolis(const, math.radians(45.0))
    strat = pw.reduced_gravity(const, 1000.0, 1004.0)
    expected = site.f_hat / math.sqrt(strat.g_tilde * REF_K)
    assert report["beta"] == pytest.approx(expected, rel=1e-12)


def test_config_round_trip_is_idempotent(tmp_path):
    """The one place a config is written, the config block of verify's
    report, reads back through RunConfig.from_json to an equal config."""
    config = RunConfig(latitude_deg=33.0, amplitude=2.5, seed=9,
                       n_theta=6, n_s=4, n_time=2, n_random=8)
    out = tmp_path / "report.json"
    assert main(["verify", "--lat", "33", "--amplitude", "2.5", "--seed", "9",
                 *VERIFY_FAST, "--out", str(out)]) == 0
    text = json.dumps(json.loads(out.read_text())["config"], sort_keys=True)
    parsed = RunConfig.from_json(text)
    assert parsed == config
    assert json.dumps(vars(parsed), sort_keys=True) == text


def test_config_rejects_both_wavenumber_and_wavelength(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"wavenumber": 0.0628, "wavelength": 100.0}))
    assert main(["dispersion", "--config", str(cfg)]) == 2
    assert "wavenumber/wavelength" in capsys.readouterr().err


def test_cli_flags_are_mutually_exclusive():
    with pytest.raises(SystemExit) as err:
        main(["dispersion", "--k", "0.0628", "--wavelength", "100"])
    assert err.value.code == 2


def test_wavelength_clears_configured_wavenumber(tmp_path):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--wavelength", "100", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["wavenumber"] == pytest.approx(2.0 * math.pi / 100.0)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"wavelength": 100.0, "wavenumber": None,
                               "amplitud": 3.0}))
    assert main(["dispersion", "--config", str(cfg)]) == 2
    assert "amplitud" in capsys.readouterr().err


def test_config_rejects_out_of_range_latitude(capsys):
    assert main(["dispersion", "--lat", "95"]) == 2
    assert "latitude" in capsys.readouterr().err


def test_equatorial_branch_requires_equator(tmp_path, capsys):
    """The former branch "equatorial" is an unknown branch at every latitude."""
    with pytest.raises(SystemExit) as err:
        main(["dispersion", "--branch", "equatorial", "--lat", "0"])
    assert err.value.code == 2
    assert "invalid choice: 'equatorial'" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"branch": "equatorial", "latitude_deg": 0.0}))
    assert main(["dispersion", "--config", str(cfg)]) == 2
    assert "unknown branch 'equatorial'" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["dispersion", "--config", "/nonexistent/run.json"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1]", '"x"', "null"])
def test_config_that_is_not_a_json_object_is_a_config_error(text, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert main(["dispersion", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: config must be a JSON object\n"


@pytest.mark.parametrize("command", ["dispersion", "trajectory", "profile", "field", "verify"])
def test_out_into_a_missing_directory_is_an_io_error(command, tmp_path, capsys):
    """An --out that cannot be opened is a one-line i/o error (exit 2), not a traceback."""
    out = tmp_path / "missing" / "out"
    fast = VERIFY_FAST if command == "verify" else []
    assert main([command, *fast, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(out) in err and err.count("\n") == 1
    assert not out.parent.exists()


def test_negative_branch_selects_westward_speed(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--branch", "negative", "--n", "8",
                 "--amplitude", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 8
    # u = k c b e^(-m s) at zero phase is negative on the westward branch
    assert rows[0][7] < 0.0


def test_verify_long_wave_reaches_a_verdict(capsys):
    """The map inversion stops at the coordinates' rounding floor, so this
    admitted long-wave config gives a verdict, not a numeric error."""
    code = main(["verify", "--lat", "5", "--k", "7.5e-6", "--amplitude", "1000",
                 "--s0", "1"])
    assert code in (0, 1), capsys.readouterr().err


@pytest.mark.parametrize("command", ["trajectory", "profile"])
def test_sampled_commands_need_two_samples(command, capsys):
    assert main([command, "--n", "1"]) == 2
    assert "--n must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--perturb-c=-1"],          # c = 0: an infinite wave period
    ["trajectory", "--perturb-c=-1"],
    ["verify", "--perturb-c=-2"],
    ["verify", "--perturb-c=nan"],
    ["verify", "--perturb-c=inf"],
    ["verify", "--n-random", "0"],         # an empty random sample set
    ["verify", "--n-theta", "-1"],
    ["verify", "--n-theta", "0"],
    ["verify", "--n-s", "0"],
    ["verify", "--n-time", "0"],
    ["dispersion", "--amplitude", "nan"],
    ["dispersion", "--amplitude", "inf"],  # b = inf, d = -inf
    ["dispersion", "--rho-plus", "inf"],   # c = +-inf, m = b = d = nan
    ["field", "--beta0-offset", "inf"],    # s_plus = nan
    ["verify", "--beta0-offset", "inf"],
    ["verify", "--s0", "inf"],
    # rho_plus g s_plus overflows a double: the solve returned s_plus 1.8252e304,
    # where the interface map reads inf or 7.16e305, not beta0
    ["verify", "--beta0-offset", "1e306"],
    ["verify", "--beta0-offset", "1.7e308"],
    ["verify", "--tol-identity", "nan"],   # abs(p) > nan * ... never holds
    ["dispersion", "--tol-identity", "nan"],
    ["verify", "--tol-identity", "-1"],
    ["verify", "--tol-fd", "nan"],
    ["verify", "--tol-fd", "0"],
    # the dispersion relation overflows a double: c = +-inf, or a power in
    # the dimensional identity check
    ["dispersion", "--rho-plus", "1e299", "--k", "1e-20"],
    ["verify", "--rho-plus", "1e200", "--k", "1e-5", "--amplitude", "1"],
    # config files with values of the wrong JSON type
    ["verify", "--config", {"rho0": "1000"}],
    ["verify", "--config", {"n_theta": 2.5}],
    ["verify", "--config", {"seed": True}],
    ["dispersion", "--config", {"wavenumber": None, "wavelength": [100.0]}],
    ["dispersion", "--config", {"rho_plus": 10**400}],  # no double holds it
    ["verify", "--seed", "-1"],            # random.Random(-1) repeats seed 1
    ["verify", "--config", {"seed": -1}],
    ["field", "--nq", "-1"],               # np.linspace takes no negative count
    ["field", "--ns", "-3"],
    # the amplitude gate's square overflows a double; a > 1/m rejects it
    ["verify", "--amplitude", "1e200"],
    ["field", "--amplitude", "1e200"],
    # a control scales c by a factor in (0, 2]; 1e300 overflowed (k c)^2 in
    # verify and c^2 in field with a traceback, and 1e16 was admitted
    ["verify", "--perturb-c", "1e300"],
    ["field", "--config", {"perturb_c": 1e16}],
    # a finite amplitude whose m a overflows in b = m a / k: the report read
    # b = inf and d = -inf
    ["dispersion", "--k", "1e5", "--amplitude", "1e308"],
    # the amplitude gate at s0 = -1e300 overflowed e^(-m s0) in the report
    ["dispersion", "--s0=-1e300"],
    # the solve's own amplitude and wavenumber gates, which the config does not repeat
    ["verify", "--amplitude=-1"],
    ["field", "--amplitude=-1"],
    *([command, *flag] for command in ("dispersion", "verify", "field")
      for flag in (["--k=-1"], ["--k", "0"], ["--k", "nan"])),
    # (rho_plus - rho0) g s0 overflows the thermocline map; the message read
    # "beta0=inf must exceed P0 - P0_tilde=inf"
    *([command, "--amplitude", "0", "--s0", "1e308"]
      for command in ("dispersion", "verify", "field")),
])
def test_config_gate_rejects_degenerate_inputs(argv, capsys, tmp_path):
    """Each is a one-line configuration error (exit 2); a dict in argv is the
    content of a --config file."""
    cfg = tmp_path / "run.json"
    for value in argv:
        if isinstance(value, dict):
            cfg.write_text(json.dumps(value))
    assert main([str(cfg) if isinstance(v, dict) else v for v in argv]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and err.count("\n") == 1
    if argv[-2:] == ["--s0", "1e308"]:
        assert "s0=1e+308 overflows" in err


@pytest.mark.parametrize("settings, flags", [
    ({"seed": -1}, ["--seed", "3"]),
    ({"n_theta": 0}, ["--n-theta", "4"]),
    ({"tol_fd": 0}, ["--tol-fd", "1e-8"]),
])
def test_flags_override_a_files_verify_settings(settings, flags, capsys, tmp_path):
    """RunConfig checks VerifyConfig's fields in validate, after the flags are
    merged: a file's bad value that a flag overrides is never checked."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(settings))
    assert main(["verify", "--config", str(cfg), *flags]) == 0


def test_a_files_two_faults_are_named_in_validate_order(capsys, tmp_path):
    """validate checks the latitude before VerifyConfig's fields, so of a
    file's two faults the latitude is named."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -1, "latitude_deg": 95}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "latitude must satisfy" in capsys.readouterr().err


# the verifier's default grid: samples before the random ones
GRID = verify.VerifyConfig.n_theta * verify.VerifyConfig.n_s * verify.VerifyConfig.n_time


@pytest.mark.parametrize("argv", [
    ["field", "--nq", str(cli.MAX_TABLE_ROWS + 1), "--ns", "1"],
    ["field", "--nq", "1000", "--ns", str(cli.MAX_TABLE_ROWS // 1000 + 1)],
    ["trajectory", "--n", str(cli.MAX_TABLE_ROWS + 1)],
    ["profile", "--n", str(cli.MAX_TABLE_ROWS + 1)],
    ["verify", "--n-random", str(cli.MAX_VERIFY_SAMPLES - GRID + 1)],
    ["verify", "--n-theta", "100", "--n-s", "100", "--n-time", "10", "--n-random", "1"],
    ["verify", "--config", {"n_theta": 10**6}],
    ["field", "--nq", str(cli.MAX_TABLE_ROWS + 1), "--ns", "0"],
    ["field", "--nq", "0", "--ns", str(cli.MAX_TABLE_ROWS + 1)],
])
def test_sizes_past_their_ceiling_exit_before_allocating(argv, capsys, tmp_path):
    """One past a ceiling is a one-line configuration error within a second,
    and no output file is made; a dict in argv is a --config file's content.
    A field axis has a ceiling of its own, also when the other is empty."""
    cfg = tmp_path / "run.json"
    for value in argv:
        if isinstance(value, dict):
            cfg.write_text(json.dumps(value))
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main([str(cfg) if isinstance(v, dict) else v for v in argv] + ["--out", str(out)])
    assert code == 2 and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "configuration error" in err and "at most" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["field", "--nq", "1000", "--ns", str(cli.MAX_TABLE_ROWS // 1000)],
    ["trajectory", "--n", str(cli.MAX_TABLE_ROWS)],
    ["field", "--nq", str(cli.MAX_TABLE_ROWS), "--ns", "0"],
])
def test_tables_at_the_ceiling_are_admitted(argv):
    """Checked only, not run: the check passes a table of MAX_TABLE_ROWS rows."""
    cli._check_table_size(cli.build_parser().parse_args(argv))


def test_verify_run_at_the_ceiling_is_admitted():
    RunConfig(n_random=cli.MAX_VERIFY_SAMPLES - GRID).validate()


def test_config_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    """json.loads raises a plain ValueError, not a JSONDecodeError, for an
    integer of over 4300 digits."""
    cfg = tmp_path / "run.json"
    cfg.write_text('{"rho_plus": 1' + "0" * 5000 + "}")
    assert main(["dispersion", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config is not valid JSON" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["dispersion", "verify", "field"])
@pytest.mark.parametrize("length", [["--k", "1e80"], ["--wavelength", "1e-300"]])
def test_overflowing_wavenumber_is_a_typed_error(command, length, tmp_path, capsys):
    """k^4 would overflow a double: a one-line typed error, no traceback."""
    assert main([command, *length, "--out", str(tmp_path / "out")]) in (2, 3)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be below 1e77" in err
    assert not (tmp_path / "out").exists()


# configs of the memo tests: the reference, the Equator's two zeros (f = 0.0
# and f = -0.0), a density change at a fixed latitude, and a southern site
MEMO_CONFIGS = (
    RunConfig(),
    RunConfig(latitude_deg=0.0),
    RunConfig(latitude_deg=-0.0),
    RunConfig(latitude_deg=0.0, rho_plus=1010.0),
    RunConfig(latitude_deg=45.0, rho0=999.0),
    RunConfig(latitude_deg=-60.0, branch="negative"),
)


def test_configured_solve_is_independent_of_the_solve_before():
    """The site memo of _setting is invisible: each config's (site, strat,
    params) is the same solved fresh and solved right after any other config,
    including 0.0 after -0.0 and the reverse."""
    def solved(config):
        return repr(solve_configured(config.validate())[1:])

    fresh = []
    for config in MEMO_CONFIGS:
        cli._site_setting.cache_clear()
        fresh.append(solved(config))
    assert len(set(fresh)) == len(fresh)  # the zeros' f and d differ in sign
    assert "f=-0.0" in fresh[2] and "f=-0.0" not in fresh[1]
    for i, first in enumerate(MEMO_CONFIGS):
        for j, second in enumerate(MEMO_CONFIGS):
            cli._site_setting.cache_clear()
            solved(first)
            assert solved(second) == fresh[j], (i, j)


def test_bad_stratification_raises_on_every_call(capsys):
    """An error is not memoised, and does not evict or reuse the site before."""
    unstable = ["dispersion", "--rho0", "1004", "--rho-plus", "1000"]
    assert main(["dispersion"]) == 0
    good = capsys.readouterr().out
    for _ in range(2):
        assert main(unstable) == 2
        assert "unstable stratification" in capsys.readouterr().err
    assert main(["dispersion"]) == 0
    assert capsys.readouterr().out == good


def test_configured_solve_leaves_the_other_branch_alone(monkeypatch, ref_params):
    """solve_configured refines and checks its own branch only: a failing
    negative-branch solve does not fail a positive-branch run.  The Newton loop
    runs twice, on the positive root's bracket and on the label's, open above,
    each from a start inside its bracket."""
    refine, upper_ends = dsp._newton, []

    def positive_only(fun, lo, hi, x, tol):
        assert lo < x < hi  # the negative bracket (0, -sqrt(1 + alpha)) would fail
        upper_ends.append(hi)
        return refine(fun, lo, hi, x, tol)

    monkeypatch.setattr(dsp, "_newton", positive_only)
    assert solve_configured(RunConfig().validate())[3] == ref_params
    assert len(upper_ends) == 2 and math.isfinite(upper_ends[0]) and upper_ends[1] == math.inf
