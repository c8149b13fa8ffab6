"""Compare the export kernel's float spelling with Python's, value by value.

    PYTHONPATH=src python3 scripts/check_float_format.py --n 10000000 --seed 1

The kernel behind ``cli.write_table`` must spell every float64 with the bytes
of f"{v:.17g}" (CSV) and of the ``json.dumps`` float (JSON).  The values are
drawn in blocks of a million, an equal share from each class of ``sample``;
the script prints each format's mismatch count and first mismatches, and exits
1 on any mismatch.
"""

import argparse
import json
import sys

import numpy as np

from pollardwaves import _floatfmt

BLOCK = 1_000_000
COLUMN = 8192  # values per table column: the column length of the benchmark's field table
SIGNS = np.array([1.0, -1.0])

# Short decimals that lie exactly halfway between two doubles, odd * 5**21 *
# 2**j with a 54-bit odd part: JSON keeps one for the double with even mantissa.
HALFWAY = np.array([float(c * 5**21 * 2**j) for c in (19, 21, 23, 25, 27, 29, 31, 33, 37)
                    for j in range(21, 200, 3)])

# Specials, the normal and double range ends, the kernel's exact range ends,
# exact 17-digit ties, the doubles on either side of a halfway decimal, every
# power of two, every power of ten and subnormals.
EDGES = np.concatenate([
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     1e-280, 1e280, 0.1, 1.0, 37.3, 1e16, 1e17, 1e-4, 1e-5, 9.9999999999999995e22,
     2251799813685247.75, 2251799813685246.25, -2251799813685247.75],
    HALFWAY, np.nextafter(HALFWAY, np.inf), np.nextafter(HALFWAY, 0.0),
    np.ldexp(1.0, np.arange(-1074, 1024)),
    [float(f"1e{e}") for e in range(-323, 309)],
    np.random.default_rng(0).uniform(-1.0, 1.0, 500) * 2.0**-1022,
])


def sample(n, rng):
    """About n doubles, n // 7 from each class and then EDGES, in a seeded
    shuffled order: each column mixes short decimals, which outlast both
    passes of JSON's shortest-digit search, with generic doubles and specials."""
    k = n // 7
    sign = rng.choice(SIGNS, k)
    tens = np.array([float(f"1e{e}") for e in rng.integers(-307, 309, k)])
    digits = rng.integers(2, 7, k)  # ties: whole + odd / 2**digits has 18 digits, the last 5
    whole = rng.integers(10 ** (17 - digits), np.minimum(10 ** (18 - digits), 2 ** (53 - digits)))
    classes = [
        rng.integers(0, 2**64, k, dtype=np.uint64).view(np.float64),     # random bit patterns
        rng.standard_normal(k) * 10.0 ** rng.integers(-300, 301, k),     # N(0, 1) 10**k
        rng.uniform(-1e3, 1e3, k),                                       # uniform
        rng.integers(-10**6, 10**6, k) / 10.0 ** rng.integers(0, 7, k),  # short decimals
        rng.integers(-10**17, 10**17, k).astype(np.float64),             # integers up to 1e17
        sign * np.nextafter(tens, tens * rng.choice([0.0, np.inf], k)),  # powers of ten +-1 ulp
        sign * (whole + (2 * rng.integers(0, 2 ** (digits - 1)) + 1) / 2.0 ** digits),
    ]
    return rng.permutation(np.concatenate(classes + [EDGES]))


def kernel_spellings(values, fmt):
    """The kernel's spelling of each value, one export column at a time, each
    cell ending in a newline."""
    cells = (_floatfmt._spell(values[start:start + COLUMN], fmt == "json", b"\n").tobytes()
             for start in range(0, len(values), COLUMN))
    return b"".join(cells).translate(None, b"\0").decode("ascii").split("\n")[:-1]


def python_spellings(values, fmt):
    """Python's spelling of each value: f"{v:.17g}" or the json.dumps float."""
    if fmt == "csv":
        return [f"{v:.17g}" for v in values.tolist()]
    return json.dumps(values.tolist())[1:-1].split(", ")


def mismatches(values, fmt):
    """(python spelling, kernel spelling) of each value the two spell differently."""
    pairs = zip(python_spellings(values, fmt), kernel_spellings(values, fmt), strict=True)
    return [(want, got) for want, got in pairs if want != got]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, required=True, help="number of values per format")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    found = {"csv": [], "json": []}
    checked = 0
    while checked < args.n:
        values = sample(min(BLOCK, args.n - checked), rng)
        for fmt, bad in found.items():
            bad += mismatches(values, fmt)
        checked += len(values)
    for fmt, bad in found.items():
        print(f"{fmt}: {checked} values, {len(bad)} mismatches", *bad[:10], sep="\n  ")
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
