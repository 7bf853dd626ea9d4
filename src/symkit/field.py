"""Grid data model: scalar fields, cell-mask sets, file I/O.

Everything lives on uniform, origin-centered, cell-centered grids in dimension
1, 2 or 3.  The cell with multi-index ``(i_1, ..., i_d)`` has its center at
``((i_k - (n_k - 1)/2) * h)_k``, so the grid straddles the origin symmetrically
(for odd extents a cell center sits exactly at 0).  A field represents a
function supported in its box; every functional treats it as 0 outside.

Field files stream in fixed chunks (D24); a file the streamed reader does not
take whole is read again by the per-line loop, which raises at the bad line.

Every object defined here is immutable after construction and safe to share
between threads, and operations in this package are pure.  The one
exception in the package is a convolution plan (``functionals``), which
owns mutable FFT buffers: each thread needs its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

_SUPPORTED_DIMS = (1, 2, 3)
_FIELD_TAG = "SYMKIT-FIELD 1"
_SET_TAG = "SYMKIT-SET 1"
_CHUNK = 65_536  # values per write of save, bytes per read of load (D24)


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


def _parse_payload_loop(lines: list[str], grid: Grid, as_mask: bool) -> np.ndarray:
    ncells = grid.ncells
    vals = []
    for off, raw in enumerate(lines):
        s = raw.strip()
        if not s:
            continue
        lineno = 5 + off
        try:
            v = float(s)
        except ValueError:
            raise FieldFormatError(f"unparseable value {s!r}", line=lineno) from None
        if not math.isfinite(v):
            raise FieldFormatError(f"non-finite value {s!r}", line=lineno)
        if as_mask and v not in (0.0, 1.0):
            raise FieldFormatError(f"mask value must be 0 or 1, got {s!r}", line=lineno)
        vals.append(v)
        if len(vals) > ncells:
            raise FieldFormatError(
                f"cell-count mismatch: expected {ncells} values, found more", line=lineno
            )
    if len(vals) != ncells:
        raise FieldFormatError(
            f"cell-count mismatch: expected {ncells} values, got {len(vals)}",
            line=4 + len(lines),
        )
    return np.array(vals, dtype=np.float64)


def _split_lines(text: str) -> list[str]:
    r"""Lines as text mode reads them: only \n, \r\n and \r end a line.

    ``str.splitlines`` would also split at \x0b, \x0c, \x1c-\x1e, \x85,
    U+2028 and U+2029, which text mode keeps inside the line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_lines(path) -> list[str]:
    """The file's lines, split as in text mode; invalid UTF-8 is a format error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len(_split_lines(data[: e.start].decode("utf-8") + "x"))
        raise FieldFormatError(f"invalid UTF-8 byte 0x{data[e.start]:02x}", line=line) from None
    del data  # the bytes go before the lines are built, as in text mode
    return _split_lines(text)


def _parse_block(buf: bytes, as_mask: bool) -> np.ndarray | None:
    """Values of whole ASCII lines without \\r, or None for the per-line loop (D24): "0\\n"/"1\\n"
    pairs by a byte view, anything else by ``np.array``, which hands each ``str`` to ``float()``."""
    if not buf.isascii() or b"\r" in buf:
        return None
    if as_mask and len(buf) % 2 == 0:
        pairs = np.frombuffer(buf, dtype=np.uint8).reshape(-1, 2)
        digits = pairs[:, 0] - ord("0")
        if (pairs[:, 1] == ord("\n")).all() and (digits <= 1).all():
            return digits
    try:
        arr = np.array(buf.decode().split("\n")[:-1], dtype=np.float64)
    except ValueError:
        return None
    if np.isfinite(arr).all() and not (as_mask and ((arr != 0.0) & (arr != 1.0)).any()):
        return arr
    return None


def _load_streamed(path):
    """(tag, grid, flat values) read in blocks of _CHUNK bytes, or None (D24)."""
    if not os.path.isfile(path):  # a pipe can be read only once: the loop reads it
        return None
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(4)]
        if not all(ln.endswith(b"\n") and ln.isascii() and b"\r" not in ln for ln in head):
            return None
        try:
            tag, grid = _parse_header([ln[:-1].decode() for ln in head])
        except FieldFormatError:
            return None
        # every value takes at least two bytes, the last one at least one
        if os.fstat(fh.fileno()).st_size - fh.tell() < 2 * grid.ncells - 1:
            return None
        as_mask = tag == _SET_TAG
        values = np.empty(grid.ncells, dtype=bool if as_mask else np.float64)
        n, tail = 0, b""
        while block := fh.read(_CHUNK) or (tail and b"\n"):  # a last line may lack its \n
            buf = tail + block
            cut = buf.rfind(b"\n") + 1
            buf, tail = buf[:cut], buf[cut:]
            part = _parse_block(buf, as_mask)
            if part is None or n + part.size > values.size:
                return None
            values[n : n + part.size] = part
            n += part.size
    return (tag, grid, values) if n == values.size else None


def load(path) -> ScalarField | GridSet:
    """Load a field or set file, dispatching on its tag."""
    streamed = _load_streamed(path)
    if streamed is None:  # the per-line loop rereads the file and raises at the bad line
        lines = _read_lines(path)
        tag, grid = _parse_header(lines)
        values = _parse_payload_loop(lines[4:], grid, as_mask=tag == _SET_TAG)
    else:
        tag, grid, values = streamed
    if tag == _FIELD_TAG:
        return ScalarField(grid, values.reshape(grid.shape))
    return GridSet(grid, values.reshape(grid.shape).astype(bool, copy=False))
