"""Exact float spelling for table exports, vectorised with numpy: the bytes of
f"{v:.17g}" (CSV) and of ``json.dumps`` (JSON) for every float64.

The digits come from y = |x| * 10**(16 - X), X = floor(log10 |x|), held as a
double-double by Dekker's (1971) exact TwoProduct against a (hi, lo) table of
powers of ten; entries it cannot decide exactly go to ``_python_spelling``, as
in Grisu3 (Loitsch, PLDI 2010).  A value fills a cell of six uint64 words, NUL
where a character is absent: byte 0 the sign, 1-5 the "0.000" of a fixed number
below 1, 6 the first digit, digit j = 1..16 at 6 + 2j after a point slot, 40-44
"e+ddd", 47 the separator.  ``bytearray.translate`` deletes the NULs.
"""

import functools
import json
import math
from types import SimpleNamespace

import numpy as np

_EXP_OFFSET = 300                       # exponent-table row of X = 0
_SCALE_MIN = -270                       # the power table holds 10**e, e in [-270, 300]
_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280  # no scaled product over- or underflows
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_BLOCK_ROWS = 512  # CSV rows per translate: their cells stay in cache


def _word(text):
    """Up to 8 bytes as one native uint64 word, NUL-padded."""
    return np.frombuffer(text.ljust(8, b"\0"), np.uint64)[0]


@functools.cache
def _tables():
    """Lookup tables, built on first use: powers of ten as double-doubles with
    hi in Dekker halves, and the words that spell the parts of a cell."""
    from fractions import Fraction  # imports decimal: keep it out of the package import
    ten = (Fraction(10) ** e for e in range(_SCALE_MIN, 301))  # float(): int / int, rounded
    hi, lo = np.array([(h := float(v), float(v - Fraction(h))) for v in ten]).T.copy()
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    spread = np.zeros((10_000, 4, 2), np.uint8)  # a 4-digit block at even bytes
    spread[..., 0] = digits + ord("0")
    last = np.max((digits > 0) * np.arange(1, 5), axis=1).astype(np.uint8)  # 0 for 0000
    byte, j = np.arange(40), np.arange(18)[:, None]
    keep = ((byte % 2 == 0) & (byte >= 8) & (byte < 2 * j + 6)) * np.uint8(255)
    point = ((byte == 2 * j + 5) & (j > 0)) * np.uint8(ord("."))
    head = [_word(sign + b"0.000"[:n].ljust(5, b"\0") + bytes([48 + d]))
            for sign in (b"\0", b"-") for n in range(6) for d in range(10)]
    exponent = [_word(f"e{x:+04d}".replace("+0", "+\0").replace("-0", "-\0").encode())
                for x in range(-_EXP_OFFSET, _EXP_OFFSET + 1)]
    return SimpleNamespace(
        hi=hi, lo=lo, halves=_split(hi), spread=spread.reshape(-1, 8).view(np.uint64)[:, 0],
        # digits of M, d0 included, when a block holds its last nonzero digit
        n_sig=(np.arange(1, 17, 4, dtype=np.uint8)[:, None] + last) * (last > 0),
        keep=keep.view(np.uint64).T.copy(), point=point.view(np.uint64).T.copy(),
        head=np.array(head), exponent=np.array(exponent))


def _split(a):
    """Dekker's split of a into halves of 26 bits each: a = hi + lo exactly."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scale(a, X, t):
    """(D, f, p, hi): y = a * 10**(16 - X) as the integer D nearest it, f = y - D,
    y's leading double p (an integer for y in [2**53, 1e17]) and the power's hi.
    y = p + err to 2**-104 * y: hi + lo is 10**e to 2**-106, a * hi = p + err
    exactly (TwoProduct), and a * lo and its sum round once each."""
    i = 16 - X - _SCALE_MIN
    hi, hh, hl, lo = t.hi[i], t.halves[0][i], t.halves[1][i], t.lo[i]
    ah, al = _split(a)
    p = a * hi
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    step = np.rint(err)
    return p.astype(np.int64) + step.astype(np.int64), err - step, p, hi


def _python_spelling(values, json_):
    """Python's spelling of each float in ``values``: the kernel's fallback."""
    return json.dumps(values)[1:-1].split(", ") if json_ else [f"{v:.17g}" for v in values]


def _mod(a, q):
    """a % q for int64 a >= 0: numpy divides faster than it takes remainders."""
    return a - a // q * q


def _spell(x, json_, tail):
    """The cells (n, 6) uint64 of the floats of x, with the separator word
    ``tail`` ORed into the last word of each."""
    t = _tables()
    a = np.abs(x)
    zero = a == 0.0
    exact = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)
    if json_:  # a power of two has a narrower rounding interval below than above
        exact &= (a.view(np.int64) & ((1 << 52) - 1)) != 0
    a = np.where(exact, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    D, f, p, hi = _scale(a, X, t)
    # log10 may miss floor(log10 a) by one near a power of ten: bring y into
    # [1e16, 1e17).  Where y is within its error of either end, both choices
    # spell the same digits, 10**X after the carry below.
    low, high = (D - _POW10[16]) + f < 0, (D - _POW10[17]) + f >= 0
    if low.any() or high.any():
        X += high.astype(np.int64) - low
        D, f, p, hi = _scale(a, X, t)
    # A decision is exact when its margin exceeds band: 16x y's error, plus for
    # JSON the errors of h, half the gap between x and its neighbours in units
    # of y (one rounding of hi), and of the round-trip tests' sums (h < 12).
    band = p * 2.0**-100
    if json_:
        h = (a.view(np.int64) & (0x7FF << 52)).view(np.float64) * 2.0**-53 * hi
        band += h * 2.0**-50
    fallback = ~(exact | zero) | (np.abs(np.abs(f) - 0.5) <= band)
    if json_:
        # Shortest digits: the nearest multiple of q = 10**k round-trips when
        # within h of y; that of 10q is never nearer, so the k that round-trip
        # are 1..K.  Only the decisions at K and K + 1 need to be exact.
        h_minus, h_plus = h - f, h + f
        alive, k_max = exact.copy(), np.zeros_like(D)
        for q in _POW10[1:17]:
            r = _mod(D, q)
            alive &= np.minimum(r - h_minus, (q - r) - h_plus) < 0
            if not alive.any():
                break
            k_max += alive
        for q in (_POW10[k_max + 1], _POW10[k_max]):  # K last: its r rounds below
            r = D % q
            fallback |= np.abs(np.minimum(r - h_minus, (q - r) - h_plus)) <= band
        twice = 2.0 * (r + f)  # twice the distance to the multiple below
        fallback |= np.abs(twice - q) <= 2.0 * band
        D = D - r + (twice > q) * q
    # Spell M = D, a 17-digit integer (0 for a zero), and X.
    carry = D >= _POW10[17]
    M = np.where(zero, 0, np.where(carry, D // 10, D))
    X = np.where(zero, 0, X + carry)
    lead = M // _POW10[16]
    high, low = _mod(M, _POW10[16]) // _POW10[8], _mod(M, _POW10[8])
    blocks = [high // _POW10[4], _mod(high, _POW10[4]), low // _POW10[4], _mod(low, _POW10[4])]
    n = functools.reduce(np.maximum, (t.n_sig[k][b] for k, b in enumerate(blocks)))  # 0: d0 only
    sci = (X < -4) | (X >= (16 if json_ else 17))
    n_int = np.where(sci, 1, np.maximum(X + 1, 0))  # digits before the point
    # JSON spells a whole number with ".0"; both drop trailing fraction zeros
    shown = np.maximum(n, n_int + (json_ & ~sci & (X >= 0)))
    point = np.where(shown > n_int, n_int, 0)  # a point before this digit; 0: none
    below_one = np.where(~sci & (X < 0), 1 - X, 0)
    words = np.empty((len(x), 6), np.uint64)
    words[:, 0] = t.head[(np.signbit(x) * 6 + below_one) * 10 + lead] | t.point[0][point]
    for k, b in enumerate(blocks, 1):
        words[:, k] = (t.spread[b] & t.keep[k][shown]) | t.point[k][point]
    words[:, 5] = t.exponent[X + _EXP_OFFSET] * sci | tail
    index = np.flatnonzero(fallback)
    texts = "".join(text.ljust(47, "\0") for text in _python_spelling(x[index].tolist(), json_))
    words.view(np.uint8)[index, :47] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, 47)
    return words


def _cells(a, json_, sep):
    """The cells (*a.shape, 6) of the floats of array a, each ending in byte ``sep``."""
    return _spell(a.ravel(), json_, _word(b"\0" * 7 + sep)).reshape(*a.shape, 6)


def table_text(columns, values, fmt):
    """The export bytes of float arrays that broadcast to one table shape, one
    array per column and one row per entry in C order: CSV rows of f"{v:.17g}"
    cells, or JSON column arrays in the layout of json.dumps(indent=2).

    Each array's own entries are spelled once and their cells broadcast onto
    the table.  ``translate`` deletes the NULs a block of rows (CSV) or a
    column (JSON) at a time, while its cells are still in cache."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast_shapes(*(a.shape for a in arrays)) or (1,)
    size = math.prod(shape)
    if fmt == "csv":
        seps = [b","] * (len(arrays) - 1) + [b"\n"]
        cells = [np.broadcast_to(_cells(a, False, sep), (*shape, 6)) for a, sep in zip(arrays, seps)]
        per_index = math.prod(shape[1:])  # rows per index of the first axis
        step = max(1, _BLOCK_ROWS // max(per_index, 1))
        parts = [(",".join(columns) + "\n").encode("ascii")]
        for i in range(0, shape[0], step):
            n = min(step, shape[0] - i)
            buffer = bytearray(n * per_index * len(arrays) * 48)
            block = np.frombuffer(buffer, np.uint64).reshape(n, *shape[1:], len(arrays), 6)
            for c, x in enumerate(cells):
                block[..., c, :] = x[i:i + n]
            parts.append(buffer.translate(None, b"\0"))
        return b"".join(parts)
    parts = [b"{\n"]
    for c, (name, a) in enumerate(zip(columns, arrays)):
        parts.append(b"%s  %s: [" % (b",\n" * (c > 0), json.dumps(name).encode("ascii")))
        if size:  # a cell and the word ",\n    " after it, none after the last
            buffer = bytearray(size * 56)
            column = np.frombuffer(buffer, np.uint64).reshape(*shape, 7)
            column[..., :6] = _cells(a, True, b"\0")
            column[..., 6] = _word(b",\n    ")
            column.reshape(-1, 7)[-1, 6] = 0
            parts += [b"\n    ", buffer.translate(None, b"\0"), b"\n  "]
        parts.append(b"]")
    return b"".join(parts + [b"\n}\n"])
