"""Self-tests of the benchmark: every oracle accepts the program's output and
rejects the same output made with ``--perturb-c 0.01``; op generators are
deterministic; op times are scaled by the reference samples around them;
the tracer records spans and survives a missing target.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pollardwaves import cli  # noqa: E402

PERTURB = ["--perturb-c", "0.01"]
EQUATORIAL = {**workloads.REFERENCE, "latitude_deg": 0.0, "wavenumber": 0.2,
              "amplitude": 1.0, "branch": "negative"}
SOUTHERN = {**workloads.REFERENCE, "latitude_deg": -60.0, "rho_plus": 1010.0,
            "wavenumber": 4e-3, "amplitude": 50.0, "s0": 150.0}


def _solve(scenario, perturb_c=0.0):
    config = cli.RunConfig(**scenario, perturb_c=perturb_c).validate()
    return cli.solve_configured(config)[3]


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("scenario", [workloads.REFERENCE, EQUATORIAL, SOUTHERN],
                         ids=["reference", "equatorial", "southern"])
def test_parameter_oracle_rejects_perturbed_phase_speed(scenario):
    assert oracles.check_parameters(_solve(scenario), scenario) == []
    assert oracles.check_parameters(_solve(scenario, 0.01), scenario) != []


def test_field_oracle_rejects_perturbed_export(tmp_path):
    nq, ns, t = 16, 4, 37.25
    params = _solve(workloads.REFERENCE)
    texts = {}
    for label, extra in (("plain", []), ("perturbed", PERTURB)):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{label}.{fmt}"
            argv = ["field", "--nq", str(nq), "--ns", str(ns), "--t", repr(t),
                    "--format", fmt, "--out", str(out)] + extra
            assert _main(argv) == 0
            texts[label, fmt] = out.read_text()
    rows = range(nq * ns)
    for label in ("plain", "perturbed"):
        problems = oracles.check_field_tables(
            texts[label, "csv"], texts[label, "json"], params,
            workloads.REFERENCE, t, nq, ns, rows)
        assert (problems == []) == (label == "plain"), problems[:3]
    broken = texts["plain", "csv"].replace("\n", "\n9,", 1)
    assert oracles.check_field_tables(broken, texts["plain", "json"], params,
                                      workloads.REFERENCE, t, nq, ns, rows)


def test_verify_oracle_rejects_perturbed_report(tmp_path):
    out = str(tmp_path / "report.json")
    code = _main(["verify", "--out", out])
    accepted = oracles.check_verify_report(code, Path(out).read_text(), 0, 0.0, True)
    assert accepted == ([], [])
    code = _main(["verify", "--out", out] + PERTURB)
    text = Path(out).read_text()
    # expected to pass: the op fails, though the report itself is consistent
    assert oracles.check_verify_report(code, text, 0, 0.01, True)[0] != []
    # the same report is exactly what a control op must produce ...
    assert oracles.check_verify_report(code, text, 0, 0.01, False) == ([], [])
    # ... and a control op that passes is wrong output
    assert oracles.check_verify_report(0, text, 0, 0.01, False)[1] != []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    workload = workloads.WORKLOADS[name]()

    def ops(seed):
        return [workload.make_op(seed, index) for index in range(16)]

    assert ops(3) == ops(3)
    assert [op.inputs for op in ops(3)] != [op.inputs for op in ops(4)]


def test_verify_control_schedule():
    workload = workloads.VerifyRef()
    controls = [i for i in range(24) if not workload.make_op(0, i).expect_pass]
    assert controls == [7, 15, 23]
    argv, _, perturb = workload.make_op(0, 7).inputs
    assert argv[-1] == f"--perturb-c={perturb!r}" and perturb != 0.0


def test_verify_probe_seeds_are_deterministic():
    workload = workloads.VerifyRef()
    assert workload.probe_ops(3) == workload.probe_ops(3)
    seeds = [op.inputs[1] for op in workload.probe_ops(3)]
    assert len(set(seeds)) == workload.PROBE_SEEDS
    assert seeds != [op.inputs[1] for op in workload.probe_ops(4)]


def test_tracer_spans_counts_and_restore(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("dispersion", "removed_name", "span"),))
    original = cli.solve_configured
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        cli.solve_configured(cli.RunConfig().validate())
    finally:
        tracer.restore()
    assert cli.solve_configured is original
    assert tracer.absent == ["dispersion.removed_name"]
    names = [span[0] for span in tracer.spans]
    assert names == ["cli.solve_configured", "dispersion.solve_dispersion",
                     "dispersion.derive_parameters"]
    assert [span[3] for span in tracer.spans] == [None, 0, 0]
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["dispersion.calls"][0] == 2
    assert metrics["dispersion.interface_map_calls"][0] > 0
    assert metrics["cli.self_s"][0] > 0


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_op_times_divide_by_the_reference_samples_around_them():
    refs = [[0.5], [0.5, 0.5], [1.0, 2.0]]
    # op 0 sits between [0.5] and [0.5, 0.5]; op 1 between [0.5, 0.5] and [1.0, 2.0]
    assert run.in_reference_units([1.0, 3.0], refs) == [2.0, 4.0]
