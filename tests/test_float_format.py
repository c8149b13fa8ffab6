"""The export kernel of ``_floatfmt`` against Python's float spelling, value by
value, and the work that it hands back to Python."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pollardwaves import _floatfmt, cli

from test_serialise import T, assert_written_as_reference, edge_table

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_float_format",
                                               ROOT / "scripts" / "check_float_format.py")
check_float_format = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_float_format)


@pytest.fixture(scope="module")
def values():
    """500k seeded doubles from every class of the check script, and its edge cases."""
    return check_float_format.sample(500_000, np.random.default_rng(20261018))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_spells_every_value_as_python_does(values, fmt):
    assert len(values) >= 500_000
    assert check_float_format.mismatches(values, fmt) == []


def test_check_script_runs_clean_from_its_entry_point(capsys):
    """The script's own main, as documented: argument parsing, the block loop
    and the per-format report, with no mismatch."""
    assert check_float_format.main(["--n", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "csv: " in out and "json: " in out and out.count(" 0 mismatches") == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_17_digit_ties_round_half_to_even(fmt):
    ties = np.array([2251799813685247.75, 2251799813685246.25, -2251799813685247.75])
    assert check_float_format.kernel_spellings(ties, fmt) == [
        "2251799813685247.8", "2251799813685246.2", "-2251799813685247.8"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_specials_zeros_and_range_ends(fmt):
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                         1.7976931348623157e308, 1e16, 1e-5])
    want = {"csv": ["0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
                    "1.7976931348623157e+308", "10000000000000000", "1.0000000000000001e-05"],
            "json": ["0.0", "-0.0", "NaN", "Infinity", "-Infinity", "5e-324",
                     "1.7976931348623157e+308", "1e+16", "1e-05"]}
    assert check_float_format.kernel_spellings(specials, fmt) == want[fmt]


def cell_text(form, last, json_):
    """The bytes a cell's slot values add to, by string construction: "0" for
    each shown digit and "." for a shown point, after the sign and prefix."""
    if form <= 16:  # fixed, form whole digits after d0; JSON shows ".0"
        prefix, before, whole = "", form, form + 2 * json_
    elif form <= 20:  # below 1, and no point among the digits
        prefix, before, whole = "0." + "0" * (form - 17), 16, 0
    else:  # scientific
        prefix, before, whole = "", 0, 0
    slots = "".join("." if s == before + 1 else "0" for s in range(1, max(last, whole) + 1))
    return ("\0" + prefix.ljust(5, "\0") + "0" + slots).ljust(32 + 8 * json_, "\0").encode()


def test_digit_tables_match_their_string_construction():
    t = _floatfmt._tables()
    quad = [int.from_bytes(bytes(map(int, f"{g:04d}")), "little") for g in range(10_000)]
    np.testing.assert_array_equal(t.quad, quad)
    for json_, spell in ((False, "{:.17g}".format), (True, repr)):
        scientific = ["e" in spell(float(f"1e{x}")) for x in range(-300, 301)]
        np.testing.assert_array_equal(t.form[json_] == 21, scientific)
        assert t.exponent[json_].tobytes() == b"".join(
            f"e{x:+03d}".encode().ljust(8, b"\0") if sci else bytes(8)
            for x, sci in zip(range(-300, 301), scientific))
        assert t.text[json_].tobytes() == b"".join(
            cell_text(form, last, json_) for form in range(22) for last in range(18))


def test_power_table_rows_are_double_doubles_of_ten_to_the_e():
    """Each row (hi, hh, hl, lo) of the power table, 10**e for e from
    _SCALE_MIN to 300: the Dekker halves of hi sum to it exactly, and hi + lo
    is 10**e to 2**-106 of it."""
    powers = _floatfmt._tables().powers
    assert powers.shape == (301 - _floatfmt._SCALE_MIN, 4) and powers.flags.c_contiguous
    for e, (hi, hh, hl, lo) in enumerate(powers.tolist(), start=_floatfmt._SCALE_MIN):
        assert hh + hl == hi
        ten = Fraction(10) ** e
        assert abs(Fraction(hi) + Fraction(lo) - ten) <= ten / 2**106, e


@pytest.fixture
def spelled_sizes(monkeypatch):
    """The number of values in each kernel call while in use."""
    sizes = []
    original = _floatfmt._spell

    def recording(x, *args):
        sizes.append(len(x))
        return original(x, *args)

    monkeypatch.setattr(_floatfmt, "_spell", recording)
    return sizes


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exports_spell_each_stored_value_once(fmt, spelled_sizes, tmp_path):
    out = str(tmp_path / "table")
    assert cli.main(["field", "--nq", "128", "--ns", "64", "--format", fmt, "--out", out]) == 0
    # t, q, r and s, then the ten fields on the whole lattice, in 8192-value slices
    assert spelled_sizes == [8192] * 10 + [194]
    assert sum(spelled_sizes) == 1 + 128 + 1 + 64 + 10 * 128 * 64  # the stored values
    spelled_sizes.clear()
    assert cli.main(["trajectory", "--n", "50", "--format", fmt, "--out", out]) == 0
    # every array in one call: t, q, r, s, then the ten fields over t
    assert spelled_sizes == [50 + 1 + 1 + 1 + 10 * 50]


@pytest.fixture
def python_spelled(monkeypatch):
    """The number of values that the kernel hands to Python while in use."""
    spelled = []
    original = _floatfmt._python_spelling

    def counting(values, json_):
        spelled.append(len(values))
        return original(values, json_)

    monkeypatch.setattr(_floatfmt, "_python_spelling", counting)
    return spelled


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("t", ["0", T])
def test_reference_field_export_spells_no_value_in_python(t, fmt, python_spelled, tmp_path):
    assert cli.main(["field", "--t", t, "--format", fmt, "--out", str(tmp_path / "field")]) == 0
    assert python_spelled == []  # not even an empty call


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_edge_table_spells_only_its_special_values_in_python(fmt, python_spelled, tmp_path):
    table = edge_table(np.random.default_rng(97), 97)
    cli.write_table(str(tmp_path / "edges"), ("a", "b", "c", "d", "e"), tuple(table.T), fmt)
    size = np.abs(table)
    special = ~np.isfinite(size) | ((size != 0) & ((size < 1e-280) | (size > 1e280)))
    if fmt == "json":  # a power of two has an uneven rounding interval
        special |= np.frexp(size)[0] == 0.5
    assert 0 < sum(python_spelled) <= special.sum()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grouped_arrays_keep_their_separators_beside_python_text(
        fmt, spelled_sizes, python_spelled, tmp_path):
    """Small arrays spelled in one kernel call, Python's text in cells that end
    in "," and in the last column's "\n": no text runs into a separator."""
    # a power of two falls back in JSON only
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 2.0**-20])
    values = (special, np.array(1e300), np.arange(7) / 10, special[::-1].copy())
    assert_written_as_reference(("a", "b", "c", "d"), values, fmt, tmp_path)
    assert spelled_sizes == [7 + 1 + 7 + 7] * 2  # to the file, then to stdout
    assert 0 < sum(python_spelled)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_calls_spell_consecutive_8192_value_slices(fmt, spelled_sizes, tmp_path):
    """The stored values, one array after another, in slices of 8192 that
    cut across arrays of any size."""
    rng = np.random.default_rng(8192)
    values = (rng.standard_normal((2, 1)), rng.standard_normal((1, 8191)), np.array(0.1),
              rng.standard_normal((2, 8191)), np.array(-2.5))
    assert_written_as_reference(("a", "b", "c", "d", "e"), values, fmt, tmp_path)
    assert spelled_sizes == [8192, 8192, 8192, 1] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("special", [np.nan, -np.inf, 5e-324, 1e300, 2.0**-20])
def test_python_text_at_either_side_of_a_slice_boundary(special, fmt, spelled_sizes, tmp_path):
    """Values that Python spells (a power of two in JSON only) at stored
    indices 8191 and 8192: the last of one call, ending a "," cell, and the
    first of the next, in the last CSV column."""
    rng = np.random.default_rng(8193)
    a, b = rng.standard_normal(8192), rng.standard_normal(8192)
    a[-1] = b[0] = special
    assert_written_as_reference(("a", "b"), (a, b), fmt, tmp_path)
    assert spelled_sizes == [8192, 8192] * 2


def slice_table(case):
    """Columns whose stored values the 8192-value slices cut in other places."""
    rng = np.random.default_rng(8194)
    return {"a slice across the last two columns": [rng.standard_normal(3000) for _ in range(3)],
            "a 0-d last column": [rng.standard_normal((2, 5000)), np.array(-0.0)],
            "one column": [np.append(rng.standard_normal(8999), np.nan)]}[case]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["a slice across the last two columns", "a 0-d last column",
                                  "one column"])
def test_newlines_end_the_last_column_however_slices_fall(case, fmt, tmp_path):
    values = slice_table(case)
    assert_written_as_reference(tuple("abc"[:len(values)]), values, fmt, tmp_path)


def significant_digits(value):
    """The digit count of Python's shortest spelling of a finite nonzero float."""
    return len(repr(value).split("e")[0].lstrip("-").replace(".", "").strip("0"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("open_after_two", ["none", "every", "mix"])
def test_columns_whose_entries_outlast_two_shortest_digit_passes(open_after_two, fmt, tmp_path):
    """JSON's shortest-digit search makes two passes, and the entries whose
    shortest digits number 15 or fewer outlast both: columns of 8192 values
    in which none, every or some entries do."""
    rng = np.random.default_rng(15)
    generic = rng.uniform(-1e3, 1e3, 3 * 8192)
    generic = generic[[significant_digits(v) >= 16 for v in generic.tolist()]][:8192]
    short = rng.integers(-10**6, 10**6, 8192) / 10.0 ** rng.integers(0, 12, 8192)
    short[short == 0.0] = 37.3
    column = {"none": generic, "every": short,
              "mix": np.where(rng.random(8192) < 0.1, short, generic)}[open_after_two]
    digits = [significant_digits(v) for v in column.tolist()]
    assert len(digits) == 8192
    assert {"none": min(digits) >= 16, "every": max(digits) <= 15,
            "mix": min(digits) <= 15 < max(digits)}[open_after_two]
    assert_written_as_reference(("x", "x2"), (column, column[::-1].copy()), fmt, tmp_path)
