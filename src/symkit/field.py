"""Grid data model: scalar fields, cell-mask sets, file I/O.

Everything lives on uniform, origin-centered, cell-centered grids in dimension
1, 2 or 3.  The cell with multi-index ``(i_1, ..., i_d)`` has its center at
``((i_k - (n_k - 1)/2) * h)_k``, so the grid straddles the origin symmetrically
(for odd extents a cell center sits exactly at 0).  A field represents a
function supported in its box; every functional treats it as 0 outside.

Field files stream in fixed chunks (D24).  ``load`` reads every input once, in
text mode, and a block of lines that the vectorized parse rejects goes to the
per-line loop, which raises at the bad line.

Every object defined here is immutable after construction and safe to share
between threads, and operations in this package are pure.  The one
exception in the package is a convolution plan (``functionals``), which
owns mutable FFT buffers: each thread needs its own.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, field as dc_field

import numpy as np

_SUPPORTED_DIMS = (1, 2, 3)
_FIELD_TAG = "SYMKIT-FIELD 1"
_SET_TAG = "SYMKIT-SET 1"
_CHUNK = 65_536  # values per write of save, characters per read of load (D24)


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
        if any(int(n) <= 0 or int(n) != n for n in self.shape):
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

    @property
    def box_volume(self) -> float:
        return self.ncells * self.cell_volume

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


def _int_radius2(shape: tuple[int, ...]) -> np.ndarray:
    """Exact integer squared cell-center distances to the origin, in units of (h/2)^2."""
    axes = [(2 * np.arange(n, dtype=np.int64) - (n - 1)) ** 2 for n in shape]
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
    nonneg: bool = dc_field(init=False)  # computed from the values

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "nonneg", bool(v.min() >= 0.0) if v.size else True)

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def dim(self) -> int:
        return self.grid.dim

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)

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
        for i in range(0, g.ncells, _CHUNK):
            chunk = obj.values.ravel()[i : i + _CHUNK].tolist()
            fh.write(("\n".join(map(repr, chunk)) + "\n").encode())


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
    byte view, other lines by one ``np.array`` call, which hands each ``str`` to ``float()``; a
    block that either rejects goes to ``_parse_lines``, which raises at the bad line."""
    room = ncells - count
    if as_mask and buf.isascii() and len(buf) % 2 == 0 and len(buf) // 2 <= room:
        pairs = np.frombuffer(buf.encode(), dtype=np.uint8).reshape(-1, 2)
        digits = pairs[:, 0] - ord("0")
        if (pairs[:, 1] == ord("\n")).all() and (digits <= 1).all():
            return digits, digits.size
    lines = buf.split("\n")[:-1]
    try:
        arr = np.array(lines, dtype=np.float64)
    except ValueError:
        pass
    else:
        mask_ok = not (as_mask and ((arr != 0.0) & (arr != 1.0)).any())
        if arr.size <= room and np.isfinite(arr).all() and mask_ok:
            return arr, arr.size
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
