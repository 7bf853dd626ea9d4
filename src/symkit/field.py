"""Grid data model: scalar fields, cell-mask sets, file I/O.

Everything lives on uniform, origin-centered, cell-centered grids in dimension
1, 2 or 3.  The cell with multi-index ``(i_1, ..., i_d)`` has its center at
``((i_k - (n_k - 1)/2) * h)_k``, so the grid straddles the origin symmetrically
(for odd extents a cell center sits exactly at 0).  A field represents a
function supported in its box; every functional treats it as 0 outside.

Field files stream in fixed chunks (D24).  ``load`` reads every input once, in
text mode, and a block of lines that the vectorized parse rejects goes to the
per-line loop, which raises at the bad line.  Decimals are converted a chunk at
a time in exact arithmetic on arrays: the bytes written are those of ``repr``
and the bits read those of ``float()``, which convert the few values whose
decision is too close to call.

Every object defined here is immutable after construction and safe to share
between threads, and operations in this package are pure.  The one
exception in the package is a convolution plan (``functionals``), which
owns mutable FFT buffers: each thread needs its own.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

_SUPPORTED_DIMS = (1, 2, 3)
_FIELD_TAG = "SYMKIT-FIELD 1"
_SET_TAG = "SYMKIT-SET 1"
_CHUNK = 65_536  # values per write of save, characters per read of load (D24)
_PIECE = 16_384  # values save converts at a time, so that its temporaries stay in cache


class FieldFormatError(ValueError):
    """Structured parse error for field/set files; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid descriptor: per-axis extents and spacing."""

    shape: tuple[int, ...]
    h: float

    def __post_init__(self):
        if len(self.shape) not in _SUPPORTED_DIMS:
            raise ValueError(f"unsupported dimension {len(self.shape)}")
        if not all(0 < n < math.inf and n == int(n) for n in self.shape):
            raise ValueError(f"extents must be positive integers, got {self.shape}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"spacing must be positive and finite, got {self.h}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "h", float(self.h))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_coords(self, k: int) -> np.ndarray:
        """Cell-center coordinates along axis k."""
        n = self.shape[k]
        return (np.arange(n) - (n - 1) / 2.0) * self.h

    def coords(self) -> list[np.ndarray]:
        """Broadcastable cell-center coordinate arrays, one per axis."""
        return list(np.meshgrid(*[self.axis_coords(k) for k in range(self.dim)], indexing="ij"))

    def radius2(self) -> np.ndarray:
        """Squared distance of every cell center to the origin: the exact integer r^2 that
        ``cell_order`` sorts by, times (h/2)^2.  Every origin-centred profile reads it (D21)."""
        return _int_radius2(self.shape) * (self.h * self.h / 4.0)

    def half_widths(self) -> tuple[float, ...]:
        """Physical half-width of the box per axis (box edge, not last center)."""
        return tuple(n * self.h / 2.0 for n in self.shape)


def _int_radius2(shape: tuple[int, ...], dtype=np.int64) -> np.ndarray:
    """Exact integer squared cell-center distances to the origin, in units of (h/2)^2, as
    ``dtype``, which must hold their maximum."""
    axes = [((2 * np.arange(n, dtype=np.int64) - (n - 1)) ** 2).astype(dtype) for n in shape]
    return sum(np.ix_(*axes))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=a.dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled at cell centers, extended by 0 outside the box."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def dim(self) -> int:
        return self.grid.dim

    def integral(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume


@dataclass(frozen=True)
class GridSet:
    """Finite-measure set encoded as a boolean cell mask on a grid."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise ValueError(f"mask shape {m.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "mask", _freeze(m))

    def count(self) -> int:
        return int(self.mask.sum())

    def indicator(self) -> ScalarField:
        return ScalarField(self.grid, self.mask.astype(np.float64))


def measure(A: GridSet) -> float:
    """Measure of a grid set: (number of true cells) * h^d."""
    return A.count() * A.grid.cell_volume


# ----------------------------------------------------------------------------
# file format
#
# line 1: tag ("SYMKIT-FIELD 1" or "SYMKIT-SET 1")
# line 2: d
# line 3: n_1 ... n_d
# line 4: h  (shortest round-trip decimal)
# then one value per line, row-major with the last axis fastest.
# ----------------------------------------------------------------------------


def save(obj: ScalarField | GridSet, path) -> None:
    """Write a field or set; the round trip through load() is bit-exact."""
    if not isinstance(obj, (ScalarField, GridSet)):
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    g, tag = obj.grid, _FIELD_TAG if isinstance(obj, ScalarField) else _SET_TAG
    header = "\n".join([tag, str(g.dim), " ".join(str(n) for n in g.shape), repr(g.h)])
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        if tag == _SET_TAG:  # one "0\n" or "1\n" pair per cell
            pairs = np.full((g.ncells, 2), ord("\n"), dtype=np.uint8)
            pairs[:, 0] = obj.mask.ravel().view(np.uint8) + ord("0")
            fh.write(pairs)
            return
        flat = obj.values.ravel()
        for i in range(0, g.ncells, _CHUNK):
            fh.write(_format_decimals(flat[i : i + _CHUNK]))


def _parse_header(lines: list[str]):
    if not lines:
        raise FieldFormatError("empty file", line=1)
    tag = lines[0].strip()
    if tag not in (_FIELD_TAG, _SET_TAG):
        raise FieldFormatError(f"unrecognized format tag {tag!r}", line=1)
    if len(lines) < 4:
        raise FieldFormatError("truncated header (need 4 header lines)", line=len(lines))
    try:
        d = int(lines[1])
    except ValueError:
        raise FieldFormatError(f"dimension is not an integer: {lines[1].strip()!r}", line=2) from None
    if d not in _SUPPORTED_DIMS:
        raise FieldFormatError(f"unsupported dimension {d}", line=2)
    parts = lines[2].split()
    if len(parts) != d:
        raise FieldFormatError(f"expected {d} extents, got {len(parts)}", line=3)
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError:
        raise FieldFormatError(f"extents must be integers: {lines[2].strip()!r}", line=3) from None
    try:
        h = float(lines[3])
    except ValueError:
        raise FieldFormatError(f"spacing is not a number: {lines[3].strip()!r}", line=4) from None
    if not (h > 0 and math.isfinite(h)):
        raise FieldFormatError(f"spacing must be positive and finite, got {h}", line=4)
    try:
        grid = Grid(shape, h)
    except ValueError as e:
        raise FieldFormatError(str(e), line=3) from None
    return tag, grid


def _parse_lines(lines: list[str], line: int, as_mask: bool, count: int, ncells: int) -> np.ndarray:
    """The values of ``lines``, the first of which is line ``line``, after ``count`` of ``ncells``
    values: blank lines are skipped and each FieldFormatError is raised at its line."""
    vals = []
    for off, raw in enumerate(lines):
        s = raw.strip()
        if not s:
            continue
        lineno = line + off
        try:
            v = float(s)
        except ValueError:
            raise FieldFormatError(f"unparseable value {s!r}", line=lineno) from None
        if not math.isfinite(v):
            raise FieldFormatError(f"non-finite value {s!r}", line=lineno)
        if as_mask and v not in (0.0, 1.0):
            raise FieldFormatError(f"mask value must be 0 or 1, got {s!r}", line=lineno)
        vals.append(v)
        if count + len(vals) > ncells:
            raise FieldFormatError(
                f"cell-count mismatch: expected {ncells} values, found more", line=lineno
            )
    return np.array(vals, dtype=np.float64)


def _parse_block(buf: str, line: int, as_mask: bool, count: int, ncells: int) -> tuple[np.ndarray, int]:
    """The values and the line count of a block of whole lines (D24): "0\\n"/"1\\n" pairs by a
    byte view, plain decimals by ``_parse_decimals``, other lines by one ``np.array`` call,
    which hands each ``str`` to ``float()``; a block that each of them rejects goes to
    ``_parse_lines``, which raises at the bad line."""
    room = ncells - count
    if as_mask and buf.isascii() and len(buf) % 2 == 0 and len(buf) // 2 <= room:
        pairs = np.frombuffer(buf.encode(), dtype=np.uint8).reshape(-1, 2)
        digits = pairs[:, 0] - ord("0")
        if (pairs[:, 1] == ord("\n")).all() and (digits <= 1).all():
            return digits, digits.size
    arr, lines = _parse_decimals(buf), None
    if arr is None:
        lines = buf.split("\n")[:-1]
        try:
            arr = np.array(lines, dtype=np.float64)
        except ValueError:
            pass
    if arr is not None:
        mask_ok = not (as_mask and ((arr != 0.0) & (arr != 1.0)).any())
        if arr.size <= room and np.isfinite(arr).all() and mask_ok:
            return arr, arr.size
    lines = buf.split("\n")[:-1] if lines is None else lines
    return _parse_lines(lines, line, as_mask, count, ncells), len(lines)


def _invalid_utf8(text: str, line: int, fh) -> FieldFormatError | None:
    """The error of the first byte that is not UTF-8 in ``text``, which starts at line ``line``,
    or in the rest of ``fh``; None when there is none."""
    while True:
        try:  # surrogateescape reads each such byte as a lone surrogate, which cannot encode
            text.encode()
        except UnicodeEncodeError as e:
            line += text.count("\n", 0, e.start)
            return FieldFormatError(f"invalid UTF-8 byte 0x{ord(text[e.start]) - 0xDC00:02x}", line=line)
        line += text.count("\n")
        if not (text := fh.read(_CHUNK)):
            return None


def _read_payload(fh, grid: Grid, as_mask: bool) -> np.ndarray:
    """The flat values after the header, parsed in blocks of _CHUNK characters (D24).

    A regular file large enough to hold them gets the result array up front; a pipe, or a
    file too small, collects its blocks.  A partial last line is carried to the next block,
    and a last line without its newline is still a line.
    """
    ncells = grid.ncells
    st = os.fstat(fh.fileno())
    # every value takes at least two bytes, the last one at least one
    sized = stat.S_ISREG(st.st_mode) and st.st_size >= 2 * ncells - 1
    values = np.empty(ncells if sized else 0, dtype=bool if as_mask else np.float64)
    parts, count, line, tail = [values], 0, 5, ""
    while block := fh.read(_CHUNK) or (tail and "\n"):
        buf = tail + block
        cut = buf.rfind("\n") + 1
        buf, tail = buf[:cut], buf[cut:]
        try:
            part, nlines = _parse_block(buf, line, as_mask, count, ncells)
        except FieldFormatError as e:
            raise _invalid_utf8(buf + tail, line, fh) or e from None
        if sized:
            values[count : count + part.size] = part
        else:
            parts.append(part)
        count += part.size
        line += nlines
    if count != ncells:
        raise FieldFormatError(
            f"cell-count mismatch: expected {ncells} values, got {count}", line=line - 1
        )
    return values if sized else np.concatenate(parts)


def load(path) -> ScalarField | GridSet:
    """Load a field or set file in one pass, dispatching on its tag.

    Text mode decides the line ends; a byte that is not UTF-8 outranks every other error.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        head = [ln for ln in (fh.readline() for _ in range(4)) if ln]
        try:
            tag, grid = _parse_header([ln.removesuffix("\n") for ln in head])
        except FieldFormatError as e:
            raise _invalid_utf8("".join(head), 1, fh) or e from None
        values = _read_payload(fh, grid, as_mask=tag == _SET_TAG)
    if tag == _FIELD_TAG:
        return ScalarField(grid, values.reshape(grid.shape))
    return GridSet(grid, values.reshape(grid.shape).astype(bool, copy=False))


# ----------------------------------------------------------------------------
# decimal conversion (D24)
#
# save writes repr's bytes and load reads float()'s bits, a chunk of values at a
# time in exact arithmetic on arrays.  A value whose decision lies too close to
# call goes per value, to repr or float().
# ----------------------------------------------------------------------------

# both array routes round once in the x87 80-bit long double, whose 64-bit significand
# fills the low 8 of its 16 bytes; a platform without one takes the per-value route
_EXACT = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and np.little_endian
)
_NEAR = 2.0**-7  # a decision this close to its threshold goes per value
_MANTISSA = np.uint64((1 << 52) - 1)
_SHIFT52 = np.uint64(52)


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables of the decimal routes, built on first use."""
    from fractions import Fraction  # here, not at import time: with decimal it costs 4 ms

    ld = np.longdouble
    # per biased exponent E: the scale k = 16 - floor(log10 v) of the binade's least value v,
    # and the least double at or above the binade's next power of ten (then k is one less);
    # outside the binades of 2^-17 ... 2^54, k = 28, whose scale is 0 and whose point is flagged
    k0 = np.full(2048, 28, dtype=np.intp)
    bound = np.full(2048, np.inf)
    for e in range(-17, 54):
        j = len(str(2**e)) - 1 if e >= 0 else len(str(5**-e)) - 1 + e  # floor(log10 2^e)
        k0[e + 1023] = 16 - j
        ten = Fraction(10) ** (j + 1)
        if ten < Fraction(2) ** (e + 1):
            b = float(ten)
            bound[e + 1023] = b if Fraction(b) >= ten else math.nextafter(b, math.inf)
    p10 = np.zeros(29, dtype=ld)
    p10[:28] = np.cumprod(np.full(28, ld(10)))
    p10[:28] /= 10  # 10^0 ... 10^27, each exact in 64 bits, and 0
    # the 4-character words of every 4-digit group: in full; with leading zeros as NUL; the
    # same keeping the last digit; with trailing zeros as NUL; the same keeping the first
    i = np.arange(10_000)
    digits = (i[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    nz = digits != 0
    lead = np.logical_or.accumulate(nz, axis=1)
    trail = np.logical_or.accumulate(nz[:, ::-1], axis=1)[:, ::-1]
    keep = [np.ones_like(nz), lead, lead | (np.arange(4) == 3), trail, trail | (np.arange(4) == 0)]
    words = np.concatenate([np.where(m, digits + ord("0"), 0).astype(np.uint8) for m in keep])
    # the last fraction digit and the newline, the digit as NUL when zero (from 10 on)
    last = np.zeros((20, 4), dtype=np.uint8)
    last[:, 0] = np.tile(np.arange(10) + ord("0"), 2)
    last[10, 0] = 0
    last[:, 1] = ord("\n")
    point = np.zeros((4, 4), dtype=np.uint8)  # "." and 0-3 zeros
    point[:, 0] = ord(".")
    point[1:, 1:] = np.tril(np.full((3, 3), ord("0"), dtype=np.uint8))
    # per digit count L = 0 ... 27, the masks that keep the last L bytes of n words, n = 1 ... 4
    ones = np.uint64(2**64 - 1)
    drop = 8 - np.clip(np.arange(28)[:, None] - 8 * np.arange(3, -1, -1), 0, 8)
    keep = np.where(drop < 8, ones << (8 * drop).astype(np.uint64), np.uint64(0))
    return SimpleNamespace(
        keep=[np.ascontiguousarray(keep[:, 4 - n :]) for n in range(1, 5)],
        k0=k0,
        bound=bound,
        p10=p10,
        p10f=np.append(10.0 ** np.arange(28), 0.0),
        p10u=10 ** np.arange(20, dtype=np.uint64),
        half_ulp=np.ldexp(1.0, np.arange(2048) - 1076),
        words=words.view(np.uint32).ravel(),
        last=last.view(np.uint32).ravel(),
        point=point.view(np.uint32).ravel(),
    )


def _shortest_digits(v: np.ndarray):
    """The digits of ``repr(abs(x))`` for each x of ``v`` as a 17-digit integer padded with
    zeros, the position of its decimal point, and where the decision is left to ``repr``.

    s = |x| 10^k in [10^16, 10^17) is one long-double product, within 2^-8 of its exact value;
    the 15-, 16- and 17-digit roundings of s are the candidates, and ``repr`` prints the first
    that lies inside the rounding interval of x, whose half-width is ulp(x) 10^k / 2 (D24).
    """
    t = _tables()
    bits = v.view(np.uint64)
    a = np.abs(v)
    E = (bits >> _SHIFT52).astype(np.intp) & 0x7FF
    k = t.k0[E] - (a >= t.bound[E])
    s = a.astype(np.longdouble)
    s *= t.p10[k]
    T = s.astype(np.uint64)
    f = (s - T).astype(np.float64)
    hw = t.half_ulp[E] * t.p10f[k]
    q16 = T // np.uint64(10)
    q15 = q16 // np.uint64(10)
    r16 = (T - q16 * np.uint64(10)).astype(np.float64) + f
    r15 = (T - q15 * np.uint64(100)).astype(np.float64) + f
    d16 = np.minimum(r16, 10.0 - r16)
    d15 = np.minimum(r15, 100.0 - r15)
    in16 = d16 < hw
    in15 = d15 < hw
    tie = np.abs(np.where(in16, r16 - 5.0, f - 0.5))
    flag = np.abs(d15 - hw) < _NEAR
    flag |= ~in15 & ((np.abs(d16 - hw) < _NEAR) | (tie < _NEAR))
    D = np.where(
        in15,
        (q15 + (r15 > 50.0)) * np.uint64(100),
        np.where(in16, (q16 + (r16 > 5.0)) * np.uint64(10), T + (f > 0.5)),
    )
    decpt = 17 - k
    # repr's exponent form, and every power of two, whose interval is not symmetric; no
    # candidate of the fixed form rounds up to 10^17, since each power of ten in it is a double
    # or lies below its nearest double (D24)
    flag |= (decpt < -3) | (decpt > 16) | ((bits & _MANTISSA) == 0)
    zero = a == 0.0
    flag &= ~zero
    decpt[zero] = 0
    return D, decpt, flag


def _repr_lines(v: np.ndarray) -> bytes:
    """The per-value writer: ``repr`` of each value on its own line."""
    return ("\n".join(map(repr, v.tolist())) + "\n").encode()


def _format_decimals(v: np.ndarray) -> bytes:
    """``_repr_lines(v)``, byte for byte, from fixed-width digit fields on arrays (D24)."""
    if not _EXACT:
        return _repr_lines(v)
    return b"".join(_format_piece(v[i : i + _PIECE]) for i in range(0, v.size, _PIECE))


def _format_piece(v: np.ndarray) -> bytes:
    t = _tables()
    D, decpt, flag = _shortest_digits(v)
    if 2 * np.count_nonzero(flag) > v.size:  # mostly exponent forms: repr alone is faster (D24)
        return _repr_lines(v)
    neg = np.signbit(v)
    dp = np.maximum(decpt, 0)  # digits before the point; none prints "0"
    ngroups = -(-int(dp.max()) // 4) or 1
    signed = bool(neg.any())
    rows = np.empty((v.size, signed + ngroups + 6), dtype=np.uint32)
    c = 0
    if signed:
        rows[:, 0] = neg * np.uint32(ord("-"))
        c = 1
    # the integer part in groups of 4, leading zeros NUL but the last digit's
    div = t.p10u[17 - dp]
    I = D // div
    F = (D - I * div) * t.p10u[dp]
    groups = []
    for _ in range(ngroups):
        q = I // np.uint64(10_000)
        groups.append(I - q * np.uint64(10_000))
        I = q
    seen = np.zeros(v.size, dtype=bool)
    for j, g in enumerate(reversed(groups)):
        lead = 20_000 if j == ngroups - 1 else 10_000
        rows[:, c + j] = t.words[g.astype(np.intp) + np.where(seen, 0, lead)]
        seen |= g != 0
    c += ngroups
    rows[:, c] = t.point[np.clip(-decpt, 0, 3)]
    # the 17 fraction digits left-aligned, trailing zeros NUL but the first digit
    q1 = F // np.uint64(10)
    d17 = (F - q1 * np.uint64(10)).astype(np.intp)
    q2 = q1 // np.uint64(10_000)
    q3 = q2 // np.uint64(10_000)
    g1 = q3 // np.uint64(10_000)
    groups = (g1, q3 - g1 * np.uint64(10_000), q2 - q3 * np.uint64(10_000), q1 - q2 * np.uint64(10_000))
    later = d17 == 0
    rows[:, c + 5] = t.last[d17 + 10 * later]
    for j in (4, 3, 2):
        g = groups[j - 1]
        rows[:, c + j] = t.words[g.astype(np.intp) + 30_000 * later]
        later &= g == 0
    rows[:, c + 1] = t.words[g1.astype(np.intp) + 40_000 * later]
    rows8 = rows.view(np.uint8)
    if flag.any():  # repr's line, NUL-padded to the row's width
        width = rows8.shape[1]
        text = "".join(f"{repr(x)}\n".ljust(width, "\0") for x in v[flag].tolist())
        rows8[flag] = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, width)
    return rows.tobytes().translate(None, b"\0")


_PAD = 32  # zero bytes before a block, so that every read of a line's digits lies in it
_NL, _DOT, _MINUS = (np.uint8((ord(c) - ord("0")) % 256) for c in "\n.-")  # after the "0" shift
_SWAR = (  # fold the 8 digit values of a word, first digit in the low byte, to their integer
    (np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(10_000 << 32 | 1), np.uint64(32), np.uint64(0xFFFFFFFF)),
)


def _digit_words(data: np.ndarray, end: np.ndarray, length: np.ndarray, nwords: int) -> np.ndarray:
    """The ``nwords`` 8-digit words, the lowest last, of each field of ``length`` digit values
    that ends before byte ``end`` of ``data``."""
    width = 8 * nwords
    rows = np.lib.stride_tricks.as_strided(data, (data.size - width + 1, width), (1, 1))[end - width]
    w = rows.view("<u8")
    w &= _tables().keep[nwords - 1][length]  # clear the bytes before each field
    for mul, shift, mask in _SWAR:
        w *= mul
        w >>= shift
        w &= mask
    return w


def _fold(words: np.ndarray) -> np.ndarray:
    """The integers of 8-digit words, the lowest last, exact below 2^64 (a fourth word is 0)."""
    out = words[:, -1].copy()
    for j in range(2, min(words.shape[1], 3) + 1):
        out += words[:, -j] * np.uint64(10 ** (8 * j - 8))
    return out


def _line_layout(body: np.ndarray, at: np.ndarray, ch: np.ndarray):
    """The start, the point (the newline where there is none), the newline and the sign of each
    line of a block whose characters other than digits, ``ch`` at ``at``, are the newlines, a
    leading "-" and at most one "." a line; None for any other block."""
    i = np.flatnonzero(ch == _NL)
    nl = at[i]
    start = np.empty_like(nl)
    start[0] = 0
    start[1:] = nl[:-1] + 1
    neg = body[start] == _MINUS
    # a line's point is the character before its newline, if that is a "." (before the first
    # newline, i - 1 = -1 reads the block's last character, a newline)
    dot = ch[i - 1] == _DOT
    if at.size != nl.size + np.count_nonzero(dot) + np.count_nonzero(neg):
        return None  # another character, a second point, or a "-" that does not start its line
    return start, np.where(dot, at[i - 1], nl), nl, neg


def _parse_decimals(buf: str) -> np.ndarray | None:
    """The values of a block of whole lines when every line is ``-?[0-9]+([.][0-9]*)?`` with at
    most 27 fraction digits and a significand below 2^64, bit for bit those of ``float()``; None
    for any other block (D24).

    The significand M is read from the integer digits, one at a time back from the point, and
    the fraction digits, in fixed-width 8-digit words; M / 10^f is one long-double division, which rounds once; a quotient that lies on the midpoint of two doubles, where the
    second rounding could differ from ``float()``'s one, goes to ``float()``.
    """
    if not (_EXACT and buf and buf.isascii()):
        return None
    data = np.zeros(_PAD + len(buf), dtype=np.uint8)
    body = data[_PAD:]
    np.subtract(np.frombuffer(buf.encode(), dtype=np.uint8), ord("0"), out=body)
    at = np.flatnonzero(body > 9)
    ch = body[at]
    layout = _line_layout(body, at, ch)
    if layout is None:
        return None
    start, point, nl, neg = layout
    ilen = point - start - neg
    flen = np.maximum(nl - point - 1, 0)  # nl - point - 1 = -1 for a line without a point
    if ilen.min() < 1:
        return None
    imax, fmax = int(ilen.max()), int(flen.max())
    if imax > 19 or fmax > 27:
        return None
    t = _tables()
    M = body[point - 1].astype(np.uint64)  # the integer part, a digit at a time from the point
    for j in range(1, imax):
        M += np.where(ilen > j, data[point + (_PAD - 1 - j)], 0) * t.p10u[j]
    if fmax:
        words = _digit_words(data, nl + _PAD, flen, -(-fmax // 8))
        if imax + fmax > 19:  # M = I 10^f + F must stay below 2^64
            est = M * 10.0**flen + words @ 1e8 ** np.arange(words.shape[1] - 1, -1, -1)
            if not (est < 1.8e19).all():
                return None
        M *= t.p10u[np.minimum(flen, 19)]  # a line of more than 19 fraction digits has I = 0
        M += _fold(words)
    q = M.astype(np.longdouble)
    q /= t.p10[flen]
    values = q.astype(np.float64)
    np.negative(values, out=values, where=neg)
    # a midpoint of two doubles: the 11 bits below a double's 53 read 0x400
    for i in np.flatnonzero((q.view(np.uint64)[::2] & np.uint64(0x7FF)) == 0x400).tolist():
        values[i] = float(buf[start[i] : nl[i]])
    return values
