import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pollardwaves as pw
from pollardwaves import cli, dispersion as dsp
from pollardwaves.cli import (FIELD_COLUMNS, PROFILE_COLUMNS, RunConfig, main,
                              solve_configured)
from pollardwaves.errors import AmplitudeBoundError

from conftest import REF_K


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
    assert "epsilon" in out
    assert "mid-latitude regime" in out
    assert "X_plus - 1 in (0, eps F" in out
    assert "True" in out


def test_dispersion_equatorial_closed_form(capsys):
    assert main(["dispersion", "--lat", "0"]) == 0
    out = capsys.readouterr().out
    assert "equatorial dispersion" in out
    assert "c_plus" in out


def test_dispersion_wavelength_200m_epsilon_small(tmp_path):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--wavelength", "200", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "midlatitude"
    assert 1e-4 < report["epsilon"] < 5e-2
    assert report["wavelength"] == pytest.approx(200.0)
    assert report["bracket_ok"] is True


def test_dispersion_bracket_ok_reads_the_verified_bracket(tmp_path, capsys):
    """At 82.6 deg and k = 4.6e-6 root_brackets widens the positive bracket to
    (1, 1 + 2 eps F): the correct X+ = 1.05166 lies in it, above 1 + eps F."""
    out = tmp_path / "report.json"
    assert main(["dispersion", "--lat", "82.6", "--k", "4.6e-6", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    w = report["epsilon"] * report["F"]
    assert 1.0 + w < report["x_plus"] < 1.0 + 2.0 * w
    assert report["bracket_ok"] is True
    lines = [line for line in capsys.readouterr().out.splitlines() if "X_plus - 1" in line]
    assert lines == ["  X_plus - 1 in (0, 0.0883985): True"]


def test_dispersion_report_orbit_parameters_equal_derived(tmp_path, ref_params):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["m"], report["b"], report["d"]) == (
        ref_params.m, ref_params.b, ref_params.d)


def test_dispersion_report_speed_in_bracket(tmp_path, site45, strat):
    out = tmp_path / "report.json"
    assert main(["dispersion", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    scale = math.sqrt(strat.g_tilde / REF_K)
    w = report["epsilon"] * report["F"]
    assert scale < report["c_plus"] < (1.0 + w) * scale


@pytest.mark.parametrize("lat", ["1e-60", "-1e-60", "1e-300"])
def test_dispersion_near_the_equator_meets_the_equatorial_speeds(tmp_path, strat, lat):
    """F = cot(phi) is huge there; the quartic's coefficients stay finite."""
    out = tmp_path / "report.json"
    assert main(["dispersion", f"--lat={lat}", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "midlatitude"
    for speed, exact in zip((report["c_plus"], report["c_minus"]),
                            dsp.solve_equatorial(pw.PhysicalConstants(), strat, REF_K)):
        assert abs(speed - exact) <= 4 * math.ulp(exact)


def test_dispersion_rejects_a_latitude_where_F_overflows(capsys):
    assert main(["dispersion", "--lat", "1e-310"]) == 2
    assert "F = f_hat/f overflows" in capsys.readouterr().err


def test_dispersion_negative_root_below_minus_one(tmp_path):
    """At 82.6 deg and k = 4.6e-6 1/m, P(-1) < 0: X_minus lies below -1."""
    out = tmp_path / "report.json"
    assert main(["dispersion", "--lat", "82.6", "--k", "4.6e-6", "--branch", "negative",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["x_minus"] == pytest.approx(-1.0075356855168, abs=1e-12)
    assert report["c_minus"] < 0.0 < report["c_plus"]
    site = pw.coriolis(pw.PhysicalConstants(), math.radians(82.6))
    # --branch negative solves with c_minus
    assert report["m"] == dsp.orbit_parameters(site.f, 4.6e-6, 10.0, report["c_minus"])[0]


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


def test_trajectory_csv_floats_roundtrip(tmp_path, ref_params, strat):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--q", "3", "--r", "1", "--s", "55",
                 "--t0", "0", "--t1", "10", "--n", "3",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ts = np.linspace(0.0, 10.0, 3)
    flow = pw.Flow(ref_params, 3.0, 1.0, 55.0, ts)
    columns = (*flow.position, *flow.velocity, flow.pressure(strat), *flow.vorticity)
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
    the interface bisection must still stop."""
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


def test_verify_negative_control_fails(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", *VERIFY_FAST, "--perturb-c", "0.01",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    by_name = {c["check_name"]: c for c in report["checks"]}
    assert by_name["euler"]["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_amplitude_beyond_bound(capsys):
    # 1/m is just under 16 m for the reference set
    assert main(["verify", "--amplitude", "16.5"]) == 2
    err = capsys.readouterr().err
    assert "amplitude" in err
    assert "1/m" in err


def test_amplitude_bound_checked_before_interface_solve(monkeypatch):
    # 1/m is about 0.018 m; the rejected set must not pay for the interface solve
    original, calls = dsp._interface_map, []
    monkeypatch.setattr(dsp, "_interface_map",
                        lambda *args: calls.append(args) or original(*args))
    config = RunConfig(latitude_deg=1e-6, wavenumber=55.36,
                       rho_plus=1000.0000001).validate()
    with pytest.raises(AmplitudeBoundError, match="1/m"):
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
    expected = site.f / math.sqrt(strat.g_tilde * REF_K)
    assert report["epsilon"] == pytest.approx(expected, rel=1e-12)


def test_config_round_trip_is_idempotent():
    config = RunConfig(latitude_deg=33.0, amplitude=2.5, seed=9)
    text = config.to_json()
    parsed = RunConfig.from_json(text)
    assert parsed == config
    assert parsed.to_json() == text


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


def test_equatorial_branch_requires_equator(capsys):
    assert main(["dispersion", "--branch", "equatorial", "--lat", "45"]) == 2
    assert "equatorial" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["dispersion", "--config", "/nonexistent/run.json"]) == 2
    assert "config" in capsys.readouterr().err


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
