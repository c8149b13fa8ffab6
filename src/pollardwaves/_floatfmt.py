"""Exact float spelling for table exports, vectorised with numpy: the bytes of
f"{v:.17g}" (CSV) and of ``json.dumps`` (JSON) for every float64.

The digits come from y = |x| * 10**(16 - X), X = floor(log10 |x|), held as a
double-double by Dekker's (1971) exact TwoProduct against a (hi, lo) table of
powers of ten; entries it cannot decide exactly go to ``_python_spelling``, as
in Grisu3 (Loitsch, PLDI 2010).  A value fills a cell of four int64 words (five
for JSON), NUL where a character is absent: byte 0 the sign, 1-5 the "0.000" of
a fixed number below 1, 6-23 the 17 digits with the point's slot spliced in
after the digits before it, 24-28 "e+ddd", and the separator ends the cell.
``bytearray.translate`` deletes the NULs."""

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
_GROUP = 8192     # values per kernel call: a table's values in slices of this size
_FORMS, _SCI = 22, 21  # forms of a cell's text: 0-16 fixed, 17-20 below 1, 21 scientific
_SLOTS = 18            # a cell's digit slots: 17 digits and the point's
_JSON_SEP = b",\n    "  # ends each JSON cell; the text drops the last one


def _word(text):
    """Up to 8 bytes as one native int64 word, NUL-padded."""
    return np.frombuffer(text.ljust(8, b"\0"), np.int64)[0]


@functools.cache
def _tables():
    """Lookup tables, built on first use: the powers of ten as one row each of
    a double-double's hi, hi's two Dekker halves and lo, the digit values of
    0000-9999, and by format the form of each exponent, the text bytes of each
    form and last slot, and the exponent words."""
    rows = []
    for e in range(_SCALE_MIN, 301):  # 10**e = num / den; int / int rounds correctly
        num, den = 10 ** max(e, 0), 10 ** max(-e, 0)
        n, d = (hi := num / den).as_integer_ratio()
        rows.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(rows).T
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    # A cell's form by its exponent X: 0-16 fixed with X whole digits after d0,
    # 17-20 below 1 ("0." and -X - 1 zeros), 21 scientific.  ``before`` digits
    # follow d0 ahead of the point's slot: X, all 16 below 1 (no point), none.
    form = np.arange(_FORMS)
    before = np.select([form <= 16, form < _SCI], [form, 16], 0)
    x = np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1)
    exponent = np.array([_word(f"e{v:+03d}".encode()) for v in x])
    forms, texts, exponents = [], [], []
    for json_ in (False, True):
        sci = (x < -4) | (x >= (16 if json_ else 17))
        forms.append(np.where(sci, _SCI, np.where(x < 0, 16 - x, x)))
        exponents.append(exponent * sci)
        # text[form * _SLOTS + last], the bytes the slots' values add to: "0"
        # at d0 and each slot to the last nonzero one or, at and above 1, to the
        # last whole digit (JSON: ".0"), "." at the point's, and the prefix
        shown = np.maximum(np.arange(_SLOTS)[:, None], np.where(form <= 16, before + 2 * json_, 0))
        byte = np.arange(32 + 8 * json_)[:, None, None]
        text = np.where((byte >= 6) & (byte <= 6 + shown),
                        np.where(byte == 7 + before, ord("."), ord("0")), 0)
        prefix = (form > 16) & (form < _SCI) & (byte >= 1) & (byte <= form - 15)  # "0.000"
        text += prefix * np.where(byte == 2, ord("."), ord("0"))
        texts.append(text.astype(np.uint8).T.reshape(_FORMS * _SLOTS, -1).view(np.int64))
    return SimpleNamespace(
        powers=np.stack((hi, *_split(hi), lo), axis=1), quad=digits @ 256 ** np.arange(4),
        split=_POW10[16 - before], form=forms, text=texts, exponent=exponents)


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
    hi, hh, hl, lo = np.take(t.powers, 16 - X - _SCALE_MIN, axis=0).T
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


def _digits(x, json_, t):
    """(M, X, fallback): the 17 digits of each float of x as an integer M (0 for
    a zero), its decimal exponent X, and where Python must spell it instead.
    For JSON, M holds the shortest digits that round-trip, zeros after them."""
    a = np.abs(x)
    exact = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)
    if json_:  # a power of two has a narrower rounding interval below than above
        exact &= (a.view(np.int64) & ((1 << 52) - 1)) != 0
    every_exact = exact.all()
    if not every_exact:
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
    fallback = np.abs(np.abs(f) - 0.5) <= band
    if not every_exact:
        zero = x == 0.0
        fallback |= ~(exact | zero)
    if json_:
        # Shortest digits: the nearest multiple of q = 10**k round-trips when
        # within h of y; that of 10q is never nearer, so the k that round-trip
        # are 1..K.  Multiples of 100 lie 100 > 2h apart, so for K >= 2 the
        # nearest multiple of 10**K is also the nearest of 100: rounding y to
        # 10**min(K, 2) spells the same digits, and two passes find min(K, 2).
        # Only the decisions at it and at the next power need to be exact.
        h_minus, h_plus = h - f, h + f
        alive, k = exact, np.zeros_like(D)
        for q in _POW10[1:3]:
            r = _mod(D, q)
            alive = alive & (np.minimum(r - h_minus, (q - r) - h_plus) < 0)
            k += alive
        for q in (_POW10[k + 1], _POW10[k]):  # k last: its r rounds below
            r = _mod(D, q)
            fallback |= np.abs(np.minimum(r - h_minus, (q - r) - h_plus)) <= band
        twice = 2.0 * (r + f)  # twice the distance to the multiple below
        fallback |= np.abs(twice - q) <= 2.0 * band
        D = D - r + (twice > q) * q
    # M = D, a 17-digit integer (0 for a zero), and X
    carry = D >= _POW10[17]
    if carry.any():
        D = np.where(carry, D // 10, D)
        X = X + carry
    if not every_exact and zero.any():
        D = np.where(zero, 0, D)
        X = np.where(zero, 0, X)
    return D, X, fallback


def _slot_words(M, split, negative, t):
    """The three words of a cell that hold its sign and digits, as the value of
    each byte: the sign's at byte 0 and the 18 slots' at bytes 6-23.  The slots
    hold M with a 0 for the point spliced in before its digits below
    ``split``: M + 9 * (M - M mod split)."""
    M = M + M // split * split * 9
    top = M // _POW10[16]
    M = M - top * _POW10[16]
    words = [t.quad[top] << 32 | negative * ord("-")]
    high = M // _POW10[8]
    for w in (high, M - high * _POW10[8]):
        w_high = w // _POW10[4]
        words.append(t.quad[w_high] | t.quad[w - w_high * _POW10[4]] << 32)
    return words


def _last_slot(words):
    """The last nonzero slot of each cell, 0 for none after the first digit.
    With each word scaled by 2 ** (8 s + 1), s the slot at its byte 0, the
    largest one's biased float exponent // 8 - 128 is the slot of its highest
    nonzero byte: a digit, below 16, cannot round up into the next byte."""
    scaled = [np.multiply(w, 2.0 ** (8 * offset + 1)) for w, offset in zip(words, (-6, 2, 10))]
    last = np.maximum(np.maximum(*scaled[:2]), scaled[2]).view(np.int64) >> 55
    return np.maximum(last - 128, 0)


def _spell(x, json_, sep, out=None):
    """The cells (n, 4 + json_) int64 of the floats of x, each ending in the
    bytes ``sep``, written to ``out`` if given."""
    t = _tables()
    M, X, fallback = _digits(x, json_, t)
    row = X + _EXP_OFFSET
    form = t.form[json_][row]
    words = _slot_words(M, t.split[form], np.signbit(x), t)
    template = t.text[json_].copy()
    template[:, -1] |= _word(sep.rjust(8, b"\0"))
    index = form * _SLOTS + _last_slot(words)
    cells = np.take(template, index, axis=0, out=out, mode="clip")  # in range; "clip" writes out unbuffered
    for k, w in enumerate(words):
        cells[:, k] += w
    cells[:, 3] |= t.exponent[json_][row]
    if fallback.any():  # Python's text fills each such cell up to its separator
        index = np.flatnonzero(fallback)
        width = cells.shape[1] * 8 - len(sep)
        texts = "".join(text.ljust(width, "\0") for text in _python_spelling(x[index].tolist(), json_))
        cells.view(np.uint8)[index, :width] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, width)
    return cells


def table_text(columns, values, fmt):
    """The export bytes of float arrays that broadcast to one table shape, one
    array per column and one row per entry in C order, as an iterator of
    chunks: CSV rows of f"{v:.17g}" cells, or JSON column arrays in the
    layout of json.dumps(indent=2).

    Each array's own entries are spelled once, before this returns: all of
    them, one array after another, in consecutive slices of _GROUP values,
    each cell ending in the table's one separator.  A CSV cell's separator is
    one byte, its last, so the last array's cells then end in "\n" by one
    assignment.  The iterator makes each chunk as it is asked for:
    ``translate`` deletes the NULs of a block of about 512 rows (CSV) while
    its cells are still in cache, or of a JSON column's own cells, whose text
    a broadcast axis repeats."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast_shapes(*(a.shape for a in arrays)) or (1,)
    json_ = fmt == "json"
    offsets = np.cumsum([0, *(a.size for a in arrays)])  # each array's first row in the store
    flat = np.concatenate([a.ravel() for a in arrays])
    store = np.empty((offsets[-1], 4 + json_), np.int64)  # every array's cells, in one allocation
    for start in range(0, offsets[-1], _GROUP):
        _spell(flat[start:start + _GROUP], json_, _JSON_SEP if json_ else b",", store[start:start + _GROUP])
    if not json_:
        store.view(np.uint8)[offsets[-2]:, -1] = ord("\n")
    # each array's own cells, with the table's number of axes
    cells = [own.reshape(*(1,) * (len(shape) - a.ndim), *a.shape, 4 + json_)
             for a, own in zip(arrays, np.split(store, offsets[1:-1]))]
    if json_:
        return _json_chunks(columns, cells, shape)
    return _csv_chunks(columns, [np.broadcast_to(x, (*shape, 4)) for x in cells], shape)


def _csv_chunks(columns, cells, shape):
    """The header line, then the text of each block of about 512 rows."""
    yield (",".join(columns) + "\n").encode("ascii")
    per_index = math.prod(shape[1:])  # rows per index of the first axis
    step = max(1, _BLOCK_ROWS // max(per_index, 1))
    for i in range(0, shape[0], step):
        n = min(step, shape[0] - i)
        if i == 0 or n < step:  # the full blocks share one buffer
            buffer = bytearray(n * per_index * len(cells) * 32)
            block = np.frombuffer(buffer, np.int64).reshape(n, *shape[1:], len(cells), 4)
        for c, x in enumerate(cells):
            block[..., c, :] = x[i:i + n]
        yield buffer.translate(None, b"\0")


def _json_chunks(columns, cells, shape):
    """The object's text, a column's values and the separators around them at a time."""
    yield b"{\n"
    for c, (name, x) in enumerate(zip(columns, cells)):
        yield b"%s  %s: [" % (b",\n" * (c > 0), json.dumps(name).encode("ascii"))
        if math.prod(shape):
            text = _column_text(x, shape)
            del text[-len(_JSON_SEP):]
            yield b"\n    "
            yield text
            yield b"\n  "
        yield b"]"
    yield b"\n}\n"


def _column_text(cells, shape):
    """The text, as a bytearray, of an array's own cells broadcast onto the
    table shape (no axis of it 0) in C order.  The own cells are translated
    at once.  A full array's text is the column's.  A broadcast array's is cut,
    by each cell's count of nonzero bytes, into blocks over the full axes
    below its innermost broadcast axis, whose text is contiguous; each block
    is repeated over the run of broadcast axes ending there, and the axes
    above repeat the blocks by reference before one join.  The cut is of
    bytes, not of a bytearray: 100,000 slices of a bytearray took three
    times as long."""
    own = cells.shape[:-1]
    if own == shape:
        return bytearray(cells).translate(None, b"\0")
    inner = max(i for i, n in enumerate(own) if n < shape[i])
    run = inner
    while run > 0 and own[run - 1] < shape[run - 1]:
        run -= 1
    text = cells.tobytes().translate(None, b"\0")
    size = math.prod(own[inner + 1:])  # cells per block
    ends = np.cumsum(np.count_nonzero(cells.view(np.uint8), axis=-1).ravel())[size - 1::size].tolist()
    repeat = math.prod(shape[run:inner + 1])
    blocks = np.empty(len(ends), object)
    blocks[:] = [text[start:end] * repeat for start, end in zip([0, *ends], ends)]
    return bytearray().join(np.broadcast_to(blocks.reshape(own[:run]), shape[:run]).ravel().tolist())
