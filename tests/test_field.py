import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from symkit.field import (
    FieldFormatError,
    Grid,
    GridSet,
    ScalarField,
    _read_lines,
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
        g = Grid((3,), 1.0)
        assert not ScalarField(g, np.array([1.0, -1.0, 0.0])).nonneg
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


class TestVectorizedFieldIO:
    """The vectorized parse and save against the per-value code they replaced."""

    _FINITE = st.floats(allow_nan=False, allow_infinity=False)
    _TOKENS = st.one_of(
        _FINITE.map(repr),
        st.sampled_from(
            ["0", "1", "-0", "0.5", "1.0", "nan", "inf", "-inf", "1e400", "bad", "1_000", "0x10", ""]
        ),
    )
    _PADS = st.sampled_from(["", " ", "\t", "\xa0"])
    _LINES = st.tuples(_PADS, _TOKENS, _PADS).map("".join)

    @given(st.integers(1, 6), st.lists(_LINES, max_size=9), st.booleans())
    @example(ncells=2, lines=["1.5", "", " -2.5\t"], as_mask=False)  # blank line, ncells values
    @settings(max_examples=300)
    def test_parse_matches_per_line_loop(self, ncells, lines, as_mask):
        from symkit.field import _parse_payload, _parse_payload_loop

        grid = Grid((ncells,), 0.5)

        def outcome(parse):
            try:
                return parse(lines, grid, as_mask).view(np.int64).tolist()
            except FieldFormatError as e:
                return str(e), e.line

        assert outcome(_parse_payload) == outcome(_parse_payload_loop)

    def test_blank_line_payload_loads_as_the_loop_parses(self, tmp_path):
        from symkit.field import _parse_payload_loop

        lines = ["1.5", "", " -2.5\t"]
        p = tmp_path / "blank.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n" + "\n".join(lines) + "\n")
        expected = _parse_payload_loop(lines, Grid((2,), 0.5), as_mask=False)
        assert load(p).values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @staticmethod
    def _per_value_bytes(obj) -> bytes:
        # the body expressions save() used before it was vectorized
        if isinstance(obj, ScalarField):
            tag, body = "SYMKIT-FIELD 1", "\n".join(repr(float(v)) for v in obj.values.ravel())
        else:
            tag, body = "SYMKIT-SET 1", "\n".join("1" if v else "0" for v in obj.mask.ravel())
        g = obj.grid
        header = "\n".join([tag, str(g.dim), " ".join(str(n) for n in g.shape), repr(g.h)])
        return (header + "\n" + body + "\n").encode()

    @given(arrays(np.float64, st.integers(1, 40), elements=_FINITE))
    @settings(max_examples=60)
    def test_save_bytes_match_per_value_writer(self, tmp_path_factory, vals):
        edge = np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(np.float64).tiny, 1e308, -1e308, 0.1])
        f = ScalarField(Grid((vals.size + edge.size,), 0.3), np.concatenate([vals, edge]))
        path = tmp_path_factory.mktemp("io") / "f.sk"
        save(f, path)
        assert path.read_bytes() == self._per_value_bytes(f)

    def test_set_save_bytes_match_per_value_writer(self, tmp_path):
        A = GridSet(Grid((5, 4, 3), 0.25), np.random.default_rng(4).random((5, 4, 3)) < 0.5)
        save(A, tmp_path / "a.sk")
        assert (tmp_path / "a.sk").read_bytes() == self._per_value_bytes(A)
