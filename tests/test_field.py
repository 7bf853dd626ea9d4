import math
import os
from fractions import Fraction
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import symkit.field as field
from symkit.field import (
    FieldFormatError,
    Grid,
    GridSet,
    ScalarField,
    _parse_header,
    load,
    measure,
    save,
)

finite_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def small_fields(max_n=24):
    return st.integers(2, max_n).flatmap(
        lambda n: arrays(np.float64, (n,), elements=finite_vals).map(
            lambda v: ScalarField(Grid((n,), 0.25), v)
        )
    )


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            Grid((2, 2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            Grid((0,), 0.5)
        with pytest.raises(ValueError):
            Grid((4,), -1.0)

    def test_ncells_is_exact_beyond_int64(self):
        assert Grid((2**32, 2**32), 1.0).ncells == 2**64

    def test_centering(self):
        g = Grid((4,), 0.5)
        assert np.allclose(g.axis_coords(0), [-0.75, -0.25, 0.25, 0.75])
        g_odd = Grid((5,), 0.5)
        assert g_odd.axis_coords(0)[2] == 0.0

    def test_immutability(self):
        f = ScalarField(Grid((4,), 1.0), np.arange(4.0))
        with pytest.raises(ValueError):
            f.values[0] = 7.0

    def test_nonneg_is_computed_not_passed(self):
        # the readers that need the sign take it from the values
        g = Grid((3,), 1.0)
        with pytest.raises(TypeError):
            ScalarField(g, np.array([1.0, -1.0, 0.0]), nonneg=True)


class TestMeasure:
    def test_empty(self):
        g = Grid((10,), 0.5)
        assert measure(GridSet(g, np.zeros(10, bool))) == 0.0

    def test_full_line(self):
        g = Grid((10,), 0.5)
        assert measure(GridSet(g, np.ones(10, bool))) == 5.0

    @given(arrays(np.bool_, (6, 6)))
    def test_popcount_oracle(self, mask):
        g = Grid((6, 6), 0.5)
        assert measure(GridSet(g, mask)) == int(mask.sum()) * 0.25

    def test_monotone_under_inclusion(self):
        g = Grid((8, 8), 0.2)
        rng = np.random.default_rng(3)
        small = rng.random((8, 8)) > 0.6
        big = small | (rng.random((8, 8)) > 0.6)
        assert measure(GridSet(g, small)) <= measure(GridSet(g, big))


class TestFieldFile:
    @given(small_fields())
    @settings(max_examples=40)
    def test_round_trip_bit_exact(self, tmp_path_factory, f):
        path = tmp_path_factory.mktemp("io") / "f.sk"
        save(f, path)
        back = load(path)
        assert isinstance(back, ScalarField)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_set_round_trip(self, tmp_path):
        g = Grid((4, 3), 0.5)
        A = GridSet(g, np.arange(12).reshape(4, 3) % 3 == 0)
        save(A, tmp_path / "a.sk")
        back = load(tmp_path / "a.sk")
        assert isinstance(back, GridSet)
        assert back.grid == g
        assert np.array_equal(back.mask, A.mask)

    def test_unsupported_dimension(self, tmp_path):
        p = tmp_path / "bad.sk"
        p.write_text("SYMKIT-FIELD 1\n4\n2 2 2 2\n0.5\n" + "0\n" * 16)
        with pytest.raises(FieldFormatError, match="unsupported dimension"):
            load(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n5\n0.5\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="cell-count mismatch"):
            load(p)

    def test_overlong_payload(self, tmp_path):
        p = tmp_path / "long.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n1.0\n2.0\n3.0\n")
        with pytest.raises(FieldFormatError, match="cell-count mismatch"):
            load(p)

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "nan.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n1.0\nnan\n")
        with pytest.raises(FieldFormatError, match="non-finite"):
            load(p)

    def test_bad_tag_and_line_numbers(self, tmp_path):
        p = tmp_path / "tag.sk"
        p.write_text("NOT-A-TAG\n1\n2\n0.5\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="line 1"):
            load(p)

    def test_bad_spacing_reported_on_line_4(self, tmp_path):
        p = tmp_path / "h.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n-0.5\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="line 4: spacing must be positive"):
            load(p)

    def test_invalid_utf8_reported_with_line(self, tmp_path):
        p = tmp_path / "bytes.sk"
        p.write_bytes(b"SYMKIT-FIELD 1\n1\n2\n0.5\n1.0\n2.\xff0\n")
        with pytest.raises(FieldFormatError, match="line 6: invalid UTF-8 byte 0xff"):
            load(p)

    def test_cr_and_crlf_line_endings(self, tmp_path):
        p = tmp_path / "eol.sk"
        p.write_bytes(b"SYMKIT-FIELD 1\r\n1\r2\n0.5\r\n\r1.0\r\n2.0\r")
        assert np.array_equal(load(p).values, [1.0, 2.0])
        for eol in ("\r\n", "\r"):
            p.write_bytes(eol.join(["SYMKIT-FIELD 1", "1", "2", "0.5", "1.0", "x", ""]).encode())
            with open(p, encoding="utf-8") as fh:
                assert _read_lines(p) == [ln.rstrip("\n") for ln in fh]
            with pytest.raises(FieldFormatError, match=r"line 6: unparseable value 'x'"):
                load(p)

    @pytest.mark.parametrize("sep", ["\u2028", "\x1c", "\x85", "\x0c"])
    def test_only_text_mode_line_ends_split(self, tmp_path, sep):
        # str.splitlines would split "1.0<sep>2.0" into the two values
        p = tmp_path / "sep.sk"
        p.write_text(f"SYMKIT-FIELD 1\n1\n2\n0.5\n1.0{sep}2.0\n", encoding="utf-8", newline="")
        with open(p, encoding="utf-8") as fh:
            assert _read_lines(p) == [ln.rstrip("\n") for ln in fh]
        with pytest.raises(FieldFormatError, match=r"line 5: unparseable value"):
            load(p)

    def test_mask_values_validated(self, tmp_path):
        p = tmp_path / "m.sk"
        p.write_text("SYMKIT-SET 1\n1\n2\n0.5\n1\n0.5\n")
        with pytest.raises(FieldFormatError, match="0 or 1"):
            load(p)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "empty file"),
            ("SYMKIT-FIELD 1\n1\n", 2, "truncated header (need 4 header lines)"),
            ("SYMKIT-FIELD 1\n2.0\n2 2\n0.5\n", 2, "dimension is not an integer: '2.0'"),
            ("SYMKIT-FIELD 1\n2\n4\n0.5\n", 3, "expected 2 extents, got 1"),
            ("SYMKIT-FIELD 1\n1\n4.5\n0.5\n", 3, "extents must be integers: '4.5'"),
            ("SYMKIT-FIELD 1\n1\n0\n0.5\n", 3, "extents must be positive integers, got (0,)"),
            ("SYMKIT-SET 1\n1\n-3\n0.5\n", 3, "extents must be positive integers, got (-3,)"),
            ("SYMKIT-FIELD 1\n1\n2\nabc\n1.0\n2.0\n", 4, "spacing is not a number: 'abc'"),
        ],
    )
    def test_header_errors(self, tmp_path, text, line, message):
        p = tmp_path / "header.sk"
        p.write_text(text)
        with pytest.raises(FieldFormatError) as err:
            load(p)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


# The whole-file reader that load() replaced, kept verbatim as its oracle: it
# decodes the whole file, splits it into lines and parses them one by one.


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


def _loop_load(path):
    """load as the per-line loop reads the whole file: the one-pass reader's oracle."""
    lines = _read_lines(path)
    tag, grid = _parse_header(lines)
    values = _parse_payload_loop(lines[4:], grid, as_mask=tag == "SYMKIT-SET 1").reshape(grid.shape)
    return ScalarField(grid, values) if tag == "SYMKIT-FIELD 1" else GridSet(grid, values.astype(bool))


def _bits(obj):
    """A loaded object's grid and values as int64 bit patterns, a mask as 0.0 and 1.0."""
    values = obj.mask.astype(np.float64) if isinstance(obj, GridSet) else obj.values
    return obj.grid, values.ravel().view(np.int64).tolist()


def _outcome(read, path):
    """``_bits`` of what a read returns, or its error message and line."""
    try:
        return _bits(read(path))
    except FieldFormatError as e:
        return str(e), e.line


def _per_value_decimals(values) -> bytes:
    # the writer's oracle: repr of each value on its own line
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).ravel().tolist()).encode()


class TestVectorizedFieldIO:
    """The streamed parse and save against the per-value code they replaced."""

    _FINITE = st.floats(allow_nan=False, allow_infinity=False)
    _TOKENS = st.one_of(
        _FINITE.map(repr),
        st.sampled_from(
            ["0", "1", "-0", "0.5", "1.0", "nan", "inf", "-inf", "1e400", "bad", "1_000", "0x10", ""]
            + ["\u0661\u0662", "\u0661", "1\u00e9", "\u2028"]  # non-ASCII: float() reads \u0661 as 1
        ),
    )
    _PADS = st.sampled_from(["", " ", "\t", "\xa0"])
    _LINES = st.tuples(_PADS, _TOKENS, _PADS).map("".join)
    # a byte that is not UTF-8: alone, a lead byte without its continuation, a stray continuation
    _BAD_BYTES = st.none() | st.tuples(
        st.integers(0, 400), st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82"])
    )

    @given(
        st.integers(1, 6),
        st.lists(_LINES, max_size=9),
        st.booleans(),
        st.sampled_from([1, 3, 8, 64, field._CHUNK]),
        st.sampled_from(["\n", "\r\n", "\r", ""]),
        _BAD_BYTES,
    )
    @example(ncells=2, lines=["1.5", "", " -2.5\t"], as_mask=False, chunk=8, end="\n", bad=None)  # blank line
    @example(ncells=3, lines=["1", "-0", " 0"], as_mask=True, chunk=3, end="", bad=None)
    @example(ncells=2, lines=["\u0661\u0662", "x"], as_mask=False, chunk=64, end="\n", bad=(3, b"\xff"))
    @example(ncells=1, lines=["1", "0", "1"], as_mask=True, chunk=64, end="\n", bad=None)  # one block overflows
    @settings(max_examples=300)
    def test_parse_matches_per_line_loop(self, tmp_path_factory, ncells, lines, as_mask, chunk, end, bad):
        # whole files through load, read in blocks of `chunk` characters; `end` is the
        # last line's ending, and \r\n and \r also end every other line; `bad` puts a
        # byte that is not UTF-8 at a drawn offset, in the header too
        eol = end or "\n"
        tag = "SYMKIT-SET 1" if as_mask else "SYMKIT-FIELD 1"
        data = (eol.join([tag, "1", str(ncells), "0.5", *lines]) + end).encode()
        if bad is not None:
            at = bad[0] % (len(data) + 1)
            data = data[:at] + bad[1] + data[at:]
        p = tmp_path_factory.mktemp("io") / "f.sk"
        p.write_bytes(data)
        with mock.patch.object(field, "_CHUNK", chunk):
            assert _outcome(load, p) == _outcome(_loop_load, p)

    @staticmethod
    def _file(path, tag, tokens, eol="\n"):
        path.write_bytes((eol.join([tag, "1", str(len(tokens)), "0.5", *tokens]) + eol).encode())
        return path

    @pytest.mark.parametrize(
        "tag, fill, bad, message",
        [
            ("SYMKIT-FIELD 1", "1.25", "x.25", "unparseable value 'x.25'"),
            ("SYMKIT-FIELD 1", "1.25", " nan", "non-finite value 'nan'"),
            ("SYMKIT-SET 1", "1", "0.5", "mask value must be 0 or 1, got '0.5'"),
            ("SYMKIT-SET 1", "1", "2", "mask value must be 0 or 1, got '2'"),
        ],
    )
    @pytest.mark.parametrize("block", ["second", "last"])
    def test_errors_in_later_blocks_match_the_loop(self, tmp_path, tag, fill, bad, message, block):
        # 20-byte reads: the bad token starts in the second read, or is the last line
        tokens = [fill] * 64
        index = 20 // (len(fill) + 1) + 1 if block == "second" else len(tokens) - 1
        tokens[index] = bad
        p = self._file(tmp_path / "bad.sk", tag, tokens)
        with mock.patch.object(field, "_CHUNK", 20):
            assert _outcome(load, p) == _outcome(_loop_load, p) == (f"line {5 + index}: {message}", 5 + index)

    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("kind", [ScalarField, GridSet])
    def test_plain_files_never_reach_the_loop(self, tmp_path, kind, final_newline, monkeypatch):
        values = np.random.default_rng(6).random(200)
        obj = kind(Grid((200,), 0.5), values if kind is ScalarField else values < 0.3)
        p = tmp_path / "a.sk"
        save(obj, p)
        if not final_newline:
            p.write_bytes(p.read_bytes()[:-1])
        monkeypatch.setattr(field, "_parse_lines", None)  # the per-line loop
        for chunk in (1, 7, 64, field._CHUNK):
            with mock.patch.object(field, "_CHUNK", chunk):
                assert _bits(load(p)) == _bits(obj)

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    @pytest.mark.parametrize("tag", ["SYMKIT-FIELD 1", "SYMKIT-SET 1"])
    def test_cr_line_ends_give_the_values_of_the_lf_copy(self, tmp_path, eol, tag):
        values = np.random.default_rng(7).random(50)
        tokens = [repr(v) if "FIELD" in tag else str(int(v < 0.3)) for v in values.tolist()]
        lf = self._file(tmp_path / "lf.sk", tag, tokens)
        cr = self._file(tmp_path / "cr.sk", tag, tokens, eol)
        with mock.patch.object(field, "_CHUNK", 16):
            assert _outcome(load, cr) == _outcome(load, lf) == _outcome(_loop_load, lf)

    @pytest.mark.parametrize(
        "tag, payload",
        [
            ("SYMKIT-FIELD 1", "\u0661\u0662\n2.0\n"),  # Arabic-Indic digits, which float() reads as 12
            ("SYMKIT-FIELD 1", "\xa01.0\n2.0\n"),
            ("SYMKIT-FIELD 1", "1_000\n2.0\n"),
            ("SYMKIT-FIELD 1", "1.0\x00\n2.0\n"),
            ("SYMKIT-FIELD 1", "1.0\n\n2.0\n"),
            ("SYMKIT-FIELD 1", "1.0\n2.0"),  # no final newline
            ("SYMKIT-FIELD 1", "1.0\n\n2.0"),
            ("SYMKIT-FIELD 1", "1.0\n2.0\n\n\n"),
            ("SYMKIT-FIELD 1", "1.0\n2.0\n3.0"),
            ("SYMKIT-SET 1", "1 1\n"),  # two byte pairs, one line
            ("SYMKIT-SET 1", "10\n"),
            ("SYMKIT-SET 1", "1\n2.0\n"),
            ("SYMKIT-SET 1", " 1\n0.0\n"),
            ("SYMKIT-SET 1", "0\n1"),
            ("SYMKIT-SET 1", "1\n\n0\n"),
            ("SYMKIT-SET 1", "1\n0\n1\n"),  # one pair too many
        ],
    )
    def test_unusual_payloads_load_as_the_loop_reads_them(self, tmp_path, tag, payload):
        header = f"{tag}\n1\n2\n0.5\n"
        p = tmp_path / "odd.sk"
        p.write_bytes((header + payload).encode())
        q = tmp_path / "utf8.sk"  # an invalid UTF-8 byte in the last line
        last = payload.rstrip("\n").rfind("\n") + 1
        q.write_bytes((header + payload[:last]).encode() + b"\xff" + payload[last:].encode())
        for chunk in (1, 4, field._CHUNK):
            with mock.patch.object(field, "_CHUNK", chunk):
                assert _outcome(load, p) == _outcome(_loop_load, p)
                assert _outcome(load, q) == _outcome(_loop_load, q)

    def test_invalid_utf8_outranks_a_header_error_as_in_the_loop(self, tmp_path):
        p = tmp_path / "h.sk"
        p.write_bytes(b"SYMKIT-FIELD 1\n1\n2\nabc\n1.0\n\xff\n")
        assert _outcome(load, p) == _outcome(_loop_load, p) == ("line 6: invalid UTF-8 byte 0xff", 6)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd")
    def test_a_pipe_is_read_once(self):
        # the streamed reader would consume the header and leave the loop the rest
        r, w = os.pipe()
        try:
            os.write(w, b"SYMKIT-FIELD 1\n1\n2\n0.5\n1.0\n2.0\n")
            os.close(w)
            assert load(f"/dev/fd/{r}").values.tolist() == [1.0, 2.0]
        finally:
            os.close(r)

    def test_blank_line_payload_loads_as_the_loop_parses(self, tmp_path):
        lines = ["1.5", "", " -2.5\t"]
        p = tmp_path / "blank.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n" + "\n".join(lines) + "\n")
        expected = _parse_payload_loop(lines, Grid((2,), 0.5), as_mask=False)
        assert load(p).values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @staticmethod
    def _per_value_bytes(obj) -> bytes:
        # the body expressions save() used before it was vectorized
        if isinstance(obj, ScalarField):
            tag, body = "SYMKIT-FIELD 1", _per_value_decimals(obj.values).decode()
        else:
            tag, body = "SYMKIT-SET 1", "".join("1\n" if v else "0\n" for v in obj.mask.ravel())
        g = obj.grid
        header = "\n".join([tag, str(g.dim), " ".join(str(n) for n in g.shape), repr(g.h)])
        return (header + "\n" + body).encode()

    @given(arrays(np.float64, st.integers(1, 40), elements=_FINITE))
    @settings(max_examples=60)
    def test_save_bytes_match_per_value_writer(self, tmp_path_factory, vals):
        edge = np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(np.float64).tiny, 1e308, -1e308, 0.1])
        f = ScalarField(Grid((vals.size + edge.size,), 0.3), np.concatenate([vals, edge]))
        path = tmp_path_factory.mktemp("io") / "f.sk"
        save(f, path)
        assert path.read_bytes() == self._per_value_bytes(f)

    @pytest.mark.parametrize("n", [7, 8, 9])  # piece - 1, piece and piece + 1 values
    def test_save_at_chunk_edges_matches_per_value_writer(self, tmp_path, n):
        values = np.random.default_rng(n).standard_normal(n)
        for obj in (ScalarField(Grid((n,), 0.3), values), GridSet(Grid((n,), 0.3), values < 0)):
            with mock.patch.object(field, "_PIECE", 8):
                save(obj, tmp_path / "a.sk")
            assert (tmp_path / "a.sk").read_bytes() == self._per_value_bytes(obj)

    def test_set_save_bytes_match_per_value_writer(self, tmp_path):
        A = GridSet(Grid((5, 4, 3), 0.25), np.random.default_rng(4).random((5, 4, 3)) < 0.5)
        save(A, tmp_path / "a.sk")
        assert (tmp_path / "a.sk").read_bytes() == self._per_value_bytes(A)


def _finite_doubles(bits: np.ndarray) -> np.ndarray:
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


# raw 64-bit patterns: a sign, 52 mantissa bits and a biased exponent, three times in four
# around repr's fixed notation (2^-17 ... 2^56, from below 1e-4 to above 1e16), else anywhere
_EXPONENTS = st.one_of(*[st.integers(1006, 1079)] * 3, st.integers(0, 2046))
_RAW_BITS = st.tuples(st.integers(0, 1), _EXPONENTS, st.integers(0, 2**52 - 1)).map(
    lambda t: t[0] << 63 | t[1] << 52 | t[2]
)


def _count_float_lines(monkeypatch) -> dict:
    """Counts, in ``seen["lines"]``, the lines that field's reader hands to ``float()``: the
    ``str`` tokens of its ``np.array`` calls."""
    seen = {"lines": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def array(obj, *args, **kwargs):
            if isinstance(obj, list) and obj and isinstance(obj[0], str):
                seen["lines"] += len(obj)
            return np.array(obj, *args, **kwargs)

    monkeypatch.setattr(field, "np", CountingNumpy())
    return seen


def _ties() -> list[float]:
    """Doubles whose 15-, 16- or 17-digit rounding is an exact tie, with the digit count."""
    found = []
    for v in (562949953421312.5, 562949953421312.25, 1e15 + 0.25, 0.5 + 2.0**-30, 1.5, 4503599627370497.5):
        k = 16 - math.floor(math.log10(v))
        s = Fraction(v) * 10**k
        for digits, unit in ((15, 100), (16, 10), (17, 1)):
            if (s / unit) % 1 == Fraction(1, 2):
                found.append((v, digits))
    return found


class TestDecimalRoutes:
    """save's and load's array routes against repr and float(), at tolerance 0 (D24)."""

    @given(st.lists(_RAW_BITS, min_size=1, max_size=300).map(_finite_doubles).filter(len))
    @settings(max_examples=200)
    def test_raw_bit_patterns_round_trip_through_repr_bytes(self, tmp_path_factory, values):
        assert field._format_decimals(values) == _per_value_decimals(values)
        f = ScalarField(Grid((values.size,), 0.5), values)
        path = tmp_path_factory.mktemp("io") / "f.sk"
        save(f, path)
        assert _bits(load(path)) == _bits(f) == _outcome(_loop_load, path)

    def test_named_edge_values(self, tmp_path):
        tiny = np.finfo(np.float64).smallest_normal
        named = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 1.0)]
        named += [1e-4, 1e-5, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e15, 999999999999999.9]
        named += [1.7976931348623157e308, 0.1, 0.3, 2.0 / 3]
        named += [math.ldexp(1.0, e) * s for e in range(-20, 60) for s in (1, -1)]  # powers of two
        ties = _ties()
        assert {d for _, d in ties} == {15, 16, 17}  # each kind of tie is here
        named += [v * s for v, _ in ties for s in (1, -1)]
        values = np.array(named * 3)  # pieces that the array route converts, not only its fallback
        values = np.concatenate([values, np.random.default_rng(3).uniform(0.05, 1.0, 4 * values.size)])
        assert field._format_decimals(values) == _per_value_decimals(values)
        f = ScalarField(Grid((values.size,), 0.5), values)
        save(f, tmp_path / "f.sk")
        assert _bits(load(tmp_path / "f.sk")) == _bits(f)

    @pytest.mark.parametrize("piece", [8, 64])
    def test_chunk_and_piece_edges(self, tmp_path, piece):
        rng = np.random.default_rng(piece)
        for n in (piece - 1, piece, piece + 1, 3 * piece + 5):
            values = rng.uniform(0.05, 1.0, n)
            values[::5] = -values[::5]
            values[n // 2] = 0.5  # a power of two, converted per value
            values[-1] = 1e-7  # an exponent form, at the edge
            f = ScalarField(Grid((n,), 0.5), values)
            for chunk in (piece - 1, piece, 2 * piece):
                with mock.patch.object(field, "_PIECE", piece), mock.patch.object(field, "_CHUNK", chunk):
                    save(f, tmp_path / "f.sk")
                    assert _outcome(load, tmp_path / "f.sk") == _bits(f)
                assert (tmp_path / "f.sk").read_bytes().endswith(_per_value_decimals(values))

    def test_forced_per_value_route(self, tmp_path, monkeypatch):
        # a platform without the x87 long double converts every value with repr, and every
        # line with float() through the reader's one per-value call; no table is built
        values = np.random.default_rng(5).standard_normal(500)
        f = ScalarField(Grid((500,), 0.5), values)
        monkeypatch.setattr(field, "_EXACT", False)
        monkeypatch.setattr(field, "_shortest_digits", None)
        monkeypatch.setattr(field, "_tables", None)
        save(f, tmp_path / "f.sk")
        assert (tmp_path / "f.sk").read_bytes().endswith(_per_value_decimals(values))
        floats = _count_float_lines(monkeypatch)
        assert field._parse_decimals("0.5\n-2\n").tolist() == [0.5, -2.0]
        assert floats["lines"] == 2
        assert _outcome(load, tmp_path / "f.sk") == _bits(f) == _outcome(_loop_load, tmp_path / "f.sk")
        assert floats["lines"] == 2 + values.size

    @pytest.mark.parametrize(
        "token",
        [
            # the grammar's edges: signs, points, leading zeros, separators, exponents, padding
            *["0010.500", "-0", "0", "7", "-7", "1.", "-1.", ".5", "-.5", "+1", "1_0", "1e5", "1E5"],
            *["--1", "1-", "1.2.3", " 1.5", "1.5 ", "\t2.25", "\xa01.5", "-", "."],
            # 19 and 20 integer digits, and significands around 2^64
            *["1234567890123456789", "12345678901234567890", "18446744073709551615", "18446744073709551616"],
            "9999999999999999999.5",
            # 27 and 28 fraction digits, and fractions of 20 digits above 2^64
            *["0.123456789012345678901234567", "0.1234567890123456789012345678", "0.000000000000000000000000001"],
            *["1.000000000000000000000000001", "0.20000000000000000000", "0.99999999999999999999"],
            # repr forms, a midpoint of two doubles, and a long exact decimal
            *["-0.00027329697946493073", "123456789012.1234567", "0.30000000000000004"],
            *["9007199254740993", "9007199254740993.0", "0.500000000000000166533453693773481063544750213623046875"],
        ],
    )
    def test_reader_tokens_give_float_bits_or_the_loop_error(self, tmp_path, token):
        # the token alone, and in a block of plain decimals, first, in the middle and last
        plain = ["0.25", "-1.5", "3"]
        for lines in ([token], [token, *plain], [*plain, token, *plain], [*plain, token]):
            p = tmp_path / "t.sk"
            p.write_text("SYMKIT-FIELD 1\n1\n%d\n0.5\n" % len(lines) + "\n".join(lines) + "\n")
            for chunk in (5, field._CHUNK):
                with mock.patch.object(field, "_CHUNK", chunk):
                    assert _outcome(load, p) == _outcome(_loop_load, p)

    _DIGITS = "0123456789"
    # signed decimals of up to 21 integer and 29 fraction digits, beyond the array limits of 19
    # and 27, and repr's exponent forms below 1e-4; each padded with spaces or not
    _DECIMALS = st.tuples(
        st.sampled_from(["", " "]),
        st.one_of(
            st.tuples(
                st.sampled_from(["", "-", "+"]),
                st.one_of(st.text(_DIGITS, min_size=1, max_size=3), st.text(_DIGITS, min_size=1, max_size=21)),
                st.none() | st.text(_DIGITS, min_size=1, max_size=19) | st.text(_DIGITS, min_size=1, max_size=29),
            ).map(lambda t: t[0] + t[1] + ("" if t[2] is None else "." + t[2])),
            st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True).map(repr),
        ),
        st.sampled_from(["", " "]),
    ).map("".join)

    @given(st.lists(_DECIMALS, min_size=1, max_size=40))
    @example(tokens=["0.20000000000000000000"])  # a fraction of 20 digits above 2^64
    @example(tokens=["1.5", "-2.5e-05", "0.25"])  # an exponent form between plain lines
    @settings(max_examples=300)
    def test_plain_decimals_read_as_float_reads_them(self, tokens):
        got = field._parse_decimals("\n".join(tokens) + "\n")
        assert got.view(np.int64).tolist() == np.array([float(t) for t in tokens]).view(np.int64).tolist()

    @staticmethod
    def _near_midpoints(count: int) -> list[str]:
        """18-fraction-digit decimals within 2^-64 of a midpoint of two doubles in [1, 2), but
        not on it: the long double rounds each onto the midpoint, float() to the side it lies."""
        found = []
        for j in range(1_000_000):
            mid = 1 + Fraction(2 * j + 1, 2**53)
            near = Fraction(round(mid * 10**18), 10**18)
            if near != mid and abs(near - mid) < Fraction(1, 2**64):
                found.append(f"1.{near.numerator * 10**18 // near.denominator - 10**18:018d}")
                if len(found) == count:
                    return found
        raise AssertionError("too few decimals near a midpoint")

    def test_quotients_on_a_midpoint_go_to_float(self):
        tokens = self._near_midpoints(6) + ["9007199254740993", "9007199254740995", "4503599627370496.5"]
        want = np.array([float(t) for t in tokens])
        # one rounding in the long double, then a second to the double, misses float()
        significands = np.array([int(t.replace(".", "")) for t in tokens], dtype=np.uint64)
        places = np.array([len(t.partition(".")[2]) for t in tokens])
        twice = significands.astype(np.longdouble) / np.longdouble(10) ** places
        assert (twice.astype(np.float64) != want).any()
        got = field._parse_decimals("\n".join(tokens) + "\n")
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("kind", ["plane", "normal"])
    def test_the_plane_distribution_goes_per_value_rarely(self, tmp_path, monkeypatch, kind):
        # the audit's plane, uniform on [0.05, 1), and standard normal values, some in the
        # exponent form: fewer than 5% of the values go to repr and 1% of the lines to float(),
        # and no block of the file is refused by the reader's array route
        rng = np.random.default_rng(11)
        values = rng.uniform(0.05, 1.0, 100_000) if kind == "plane" else rng.standard_normal(100_000)
        f = ScalarField(Grid((values.size,), 0.004), values)
        calls = {"repr": 0, "blocks": 0, "refused": 0}

        def counted(name, fn):
            def call(x):
                calls[name] += 1
                return fn(x)

            return call

        parse = field._parse_decimals

        def spy(buf):
            out = parse(buf)
            calls["blocks"] += 1
            calls["refused"] += out is None
            return out

        monkeypatch.setattr(field, "repr", counted("repr", repr), raising=False)
        monkeypatch.setattr(field, "_parse_decimals", spy)
        save(f, tmp_path / "plane.sk")
        floats = _count_float_lines(monkeypatch)
        back = load(tmp_path / "plane.sk")
        assert back.values.tobytes() == f.values.tobytes()
        assert calls["repr"] < 0.05 * values.size, calls
        assert floats["lines"] < 0.01 * values.size, floats
        assert calls["blocks"] > 0 and calls["refused"] == 0, calls
        if kind == "normal":  # exponent forms are among its lines, read without a refusal
            assert (np.abs(values) < 1e-4).any()


def _traced(op):
    """What op() returns or the FieldFormatError it raises, and its tracemalloc peak."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = op()
    except FieldFormatError as e:
        out = e
    return out, tracemalloc.get_traced_memory()[1] - base


def test_streamed_io_runs_in_bounded_memory(tmp_path):
    # the bounds of DECISIONS.md D24, fixed before the first run: save within
    # 12 MiB at any value count, load within 8 bytes per value plus 2 MiB, also
    # for a copy with \r\n line ends and for one whose last value is bad
    f = ScalarField(Grid((500, 500), 0.01), np.random.default_rng(8).standard_normal((500, 500)))
    path, crlf, bad = tmp_path / "f.sk", tmp_path / "crlf.sk", tmp_path / "bad.sk"
    tracemalloc.start()
    try:
        _, save_peak = _traced(lambda: save(f, path))
        data = path.read_bytes()
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        bad.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1] + b"x\n")
        del data
        with mock.patch.object(field, "open", side_effect=open, create=True) as opened:
            loads = [_traced(lambda p=p: load(p)) for p in (path, crlf, bad)]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loads[0][0].values, f.values)
    assert np.array_equal(loads[1][0].values, f.values)
    last = 4 + f.grid.ncells
    assert (str(loads[2][0]), loads[2][0].line) == (f"line {last}: unparseable value 'x'", last)
    peaks = [save_peak] + [peak for _, peak in loads]
    assert save_peak <= 12 * 2**20, peaks
    assert all(peak <= 8 * f.grid.ncells + 2 * 2**20 for _, peak in loads), peaks
    assert [c.args[0] for c in opened.call_args_list] == [path, crlf, bad]  # one open per load


def test_set_loads_into_one_array(tmp_path):
    # a regular file whose size can hold the header's cell count is read into one
    # array sized up front: 1 byte per cell of a set, plus 1 MiB for one block
    A = GridSet(Grid((160, 160, 160), 0.08), np.random.default_rng(9).random((160, 160, 160)) < 0.3)
    save(A, tmp_path / "a.sk")
    tracemalloc.start()
    try:
        back, peak = _traced(lambda: load(tmp_path / "a.sk"))
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.mask, A.mask)
    assert peak <= A.grid.ncells + 2**20, peak
