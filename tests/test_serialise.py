"""Byte identity of the column-wise table writer with the row-wise oracle in
``table_reference``, through the CLI and on tables of edge-case floats, whole
or broadcast from smaller arrays; and of the JSON reports' layout function
with ``json.dumps(indent=2)``."""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pollardwaves import cli, flowfield, verify

import table_reference

T = repr(float(np.random.default_rng(7).uniform(0.0, 200.0)))  # a seeded time [s]
EXPORTS = [
    ["field"], ["field", "--t", T], ["field", "--nq", "0"],
    ["field", "--nq", "1", "--ns", "1"],
    ["trajectory"], ["trajectory", "--t0", T, "--n", "77"],
    ["profile"], ["profile", "--t", T],
]


def materialised(values):
    """The (n_rows, n_cols) table of column arrays that broadcast, rows in C order."""
    return np.column_stack([v.ravel() for v in np.broadcast_arrays(*map(np.asarray, values))])


def reference_writer(path, columns, values, fmt):
    table_reference.write_table(path, columns, materialised(values).tolist(), fmt)


def assert_written_as_reference(columns, values, fmt, tmp_path):
    """``cli.write_table`` writes the row-wise writer's bytes of the
    materialised table, to a file and to stdout."""
    want, got = tmp_path / "want", tmp_path / "got"
    reference_writer(str(want), columns, values, fmt)
    cli.write_table(str(got), columns, values, fmt)
    assert got.read_bytes() == want.read_bytes()
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        cli.write_table("-", columns, values, fmt)
    assert stdout.getvalue().encode() == want.read_bytes()


def export(monkeypatch, capsys, argv, writer):
    """Bytes that ``cli.main(argv)`` writes to stdout with ``writer`` in use."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "write_table", writer)
        assert cli.main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", EXPORTS, ids=" ".join)
def test_exports_match_row_wise_writer(argv, fmt, monkeypatch, capsys, tmp_path):
    argv = argv + ["--format", fmt]
    want = export(monkeypatch, capsys, argv + ["--out", "-"], reference_writer)
    assert export(monkeypatch, capsys, argv + ["--out", "-"], cli.write_table) == want
    path = tmp_path / f"table.{fmt}"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want


def edge_table(rng, n_rows):
    """Random floats mixed with -0.0, 0.0, nan, +-inf, subnormals and repeats."""
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0])
    shape = (n_rows, 5)
    spread = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values = np.where(rng.random(shape) < 0.5, rng.choice(special, shape), spread)
    values[:, 0] = rng.choice(special[:3], n_rows)  # a column of few distinct values
    return values


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 97, 1100])  # 1100: three CSV blocks
def test_edge_tables_match_row_wise_writer(n_rows, fmt, tmp_path):
    columns = ("a", "b", "c", "d", "e")
    table = edge_table(np.random.default_rng(n_rows), n_rows)
    want, got = tmp_path / "want", tmp_path / "got"
    table_reference.write_table(str(want), columns, table.tolist(), fmt)
    cli.write_table(str(got), columns, tuple(table.T), fmt)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (5, 1), (7, 13), (50, 13)])
def test_broadcast_columns_match_row_wise_writer(n, m, fmt, tmp_path):
    """0-d specials against (n, 1) and (1, m) edge arrays: the bytes of the
    materialised table, to a file and to stdout."""
    rng = np.random.default_rng(100 * n + m)
    values = (np.array(-0.0), edge_table(rng, n)[:, 1:2], np.array(np.nan),
              edge_table(rng, m)[:, 2][None, :], np.array(np.inf),
              edge_table(rng, n * m)[:, 3].reshape(n, m))
    columns = ("zero", "a", "nan", "b", "inf", "ab")
    assert materialised(values).shape == (n * m, len(columns))
    assert_written_as_reference(columns, values, fmt, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("shape", [(2, 3, 4), (1, 3, 4), (2, 1, 4), (2, 3, 1), (0, 3, 4), (2, 0, 4)])
def test_three_axis_broadcasts_match_row_wise_writer(shape, fmt, tmp_path):
    """Arrays broadcast along every subset of three axes: a broadcast axis
    above, between or below full ones."""
    rng = np.random.default_rng(sum(shape))
    kept = [(a, b, c) for a in (1, shape[0]) for b in (1, shape[1]) for c in (1, shape[2])]
    values = [edge_table(rng, math.prod(axes))[:, 1].reshape(axes) for axes in kept]
    assert materialised(values).shape == (math.prod(shape), len(kept))
    assert_written_as_reference([f"c{i}" for i in range(len(kept))], values, fmt, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_dimensional_columns_make_one_row(fmt, tmp_path):
    values = tuple(np.array(v) for v in (-0.0, np.nan, np.inf, 0.1, 5e-324))
    columns = ("a", "b", "c", "d", "e")
    want, got = tmp_path / "want", tmp_path / "got"
    table_reference.write_table(str(want), columns, [[float(v) for v in values]], fmt)
    cli.write_table(str(got), columns, values, fmt)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_to_redirected_stdout(fmt, monkeypatch, capsys):
    argv = ["field", "--nq", "9", "--ns", "4", "--t", T, "--format", fmt, "--out", "-"]
    want = export(monkeypatch, capsys, argv, reference_writer)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv) == 0
    assert stdout.getvalue().encode() == want



@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("nq, ns", [(300, 7), (128, 64)])  # 7 and 16 blocks of CSV rows
def test_multi_block_exports_match_row_wise_writer(nq, ns, fmt, monkeypatch, capsys, tmp_path):
    argv = ["field", "--nq", str(nq), "--ns", str(ns), "--t", T, "--format", fmt]
    want = export(monkeypatch, capsys, argv + ["--out", "-"], reference_writer)
    path = tmp_path / f"field.{fmt}"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv + ["--out", "-"]) == 0
    assert stdout.getvalue().encode() == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_streams_the_table(fmt, tmp_path):
    """No whole copy of the table's text is held: the memory traced while a
    256 x 128 field table is written stays below twice the file's size."""
    _, _, _, params = cli.solve_configured(cli.RunConfig().validate())
    qs = np.linspace(0.0, params.L, 256)
    ss = np.linspace(params.s0, params.s_plus, 128)
    values = cli._flow_columns(flowfield.Flow(params, qs[None, :], 0.0, ss[:, None], float(T)))
    path = tmp_path / f"field.{fmt}"
    tracemalloc.start()
    try:
        cli.write_table(str(path), cli.FIELD_COLUMNS, values, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


# --- JSON reports ---------------------------------------------------------------

# floats where repr changes its form (1e16 and 1e-4, the last 1e-5 form),
# the subnormals' ends and the signed zero
FORM_EDGES = [1e16, math.nextafter(1e16, 0.0), 1e-4, math.nextafter(1e-4, 0.0), 1e-5,
              5e-324, math.nextafter(2.2250738585072014e-308, 0.0), -0.0,
              math.nan, math.inf, -math.inf]
JSON_LEAVES = (st.floats() | st.sampled_from(FORM_EDGES) | st.integers() | st.booleans()
               | st.none() | st.text())  # text: non-ASCII, control and surrogate characters
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                                | st.dictionaries(st.text(), inner)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, sort_keys=st.booleans())
def test_json_text_is_the_stdlib_encoding(value, sort_keys):
    assert cli.json_text(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


def nan_acceleration():
    """A Flow whose vertical acceleration is NaN: the momentum checks read NaN."""
    def acceleration(flow):
        du, dv, _ = flowfield.Flow.acceleration.__get__(flow)
        return du, dv, math.nan * flow.cos
    return type("NanAcceleration", (flowfield.Flow,), {"acceleration": property(acceleration)})


REPORTS = {  # argv, exit code, the verifier's Flow
    "reference": (["verify"], 0, None),
    "equator": (["verify", "--lat", "0"], 0, None),
    "south": (["verify", "--lat", "-60", "--branch", "negative"], 0, None),
    "perturbed": (["verify", "--perturb-c", "0.01"], 1, None),
    "nan": (["verify"], 1, nan_acceleration()),
    "dispersion": (["dispersion", "--format", "json"], 0, None),
}


@pytest.mark.parametrize("argv, code, flow", REPORTS.values(), ids=REPORTS)
def test_json_reports_are_the_stdlib_encoding(argv, code, flow, monkeypatch, capsys, tmp_path):
    """A report file has the bytes of json.dumps(indent=2) of its payload, with
    sort_keys for verify's: the run is repeated with that encoder in place."""
    if flow is not None:
        monkeypatch.setattr(verify, "Flow", flow)
    reports = []
    for encoder in (cli.json_text, lambda value, sort_keys=False: json.dumps(
            value, indent=2, sort_keys=sort_keys)):
        out = tmp_path / f"report{len(reports)}.json"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "json_text", encoder)
            assert cli.main([*argv, "--out", str(out)]) == code
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert (b"NaN" in reports[0]) == (flow is not None)
