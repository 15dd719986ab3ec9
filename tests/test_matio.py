import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpca.matio import (
    FORMATS,
    MAGIC,
    MatrixIOError,
    _write_rows,
    read_matrix,
    write_matrix,
)


class TestBinary:
    def test_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 11))
        a[0, 0] = -0.0
        a[1, 2] = 1e-308
        path = tmp_path / "a.bin"
        write_matrix(a, path)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))  # bit exact

    def test_header_arithmetic(self, tmp_path):
        # magic(4) + version(2) + rows(8) + cols(8) + one float64(8) = 30 bytes
        path = tmp_path / "one.bin"
        write_matrix(np.array([[42.0]]), path)
        assert path.stat().st_size == 30

    def test_known_bytes(self, tmp_path):
        path = tmp_path / "known.bin"
        path.write_bytes(struct.pack("<4sHQQ", MAGIC, 1, 1, 2) + struct.pack("<2d", 1.5, -2.5))
        assert np.array_equal(read_matrix(path), [[1.5, -2.5]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<4sHQQ", b"NOPE", 1, 1, 1) + struct.pack("<d", 1.0))
        with pytest.raises(MatrixIOError, match="bad magic"):
            read_matrix(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.bin"
        path.write_bytes(struct.pack("<4sHQQ", MAGIC, 9, 1, 1) + struct.pack("<d", 1.0))
        with pytest.raises(MatrixIOError, match="unsupported version 9"):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"RPC")
        with pytest.raises(MatrixIOError, match="shorter than the 22-byte header"):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(struct.pack("<4sHQQ", MAGIC, 1, 2, 2) + struct.pack("<d", 1.0))
        with pytest.raises(MatrixIOError, match="payload holds 8 bytes, header promises 32"):
            read_matrix(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(struct.pack("<4sHQQ", MAGIC, 1, 0, 3))
        with pytest.raises(MatrixIOError, match=r"empty matrix \(0 x 3\)"):
            read_matrix(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "inf.bin"
        path.write_bytes(struct.pack("<4sHQQ", MAGIC, 1, 1, 1) + struct.pack("<d", np.inf))
        with pytest.raises(MatrixIOError, match="non-finite entries"):
            read_matrix(path)


class TestCsv:
    def test_literal_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_single_value_formatting(self, tmp_path):
        path = tmp_path / "half.csv"
        write_matrix(np.array([[0.5]]), path)
        assert path.read_text() == "0.5\n"

    def test_writer_golden_text(self, tmp_path):
        # a signed zero, the smallest subnormal, the largest finite value and
        # the 17 digits that round-trip 1/3 and 1e300
        path = tmp_path / "golden.csv"
        write_matrix(np.array([[-0.0, 5e-324, 1 / 3], [sys.float_info.max, -1.5, 1e300]]), path)
        assert path.read_bytes() == (
            b"-0,4.9406564584124654e-324,0.33333333333333331\n"
            b"1.7976931348623157e+308,-1.5,1.0000000000000001e+300\n"
        )

    def test_roundtrip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 4)) * np.logspace(-150, 150, 4)
        a[0, 0] = np.pi
        a[1, 1] = 1.0 / 3.0
        path = tmp_path / "r.csv"
        write_matrix(a, path)
        assert np.array_equal(read_matrix(path), a)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MatrixIOError, match="row 2 has 1 fields, expected 2"):
            read_matrix(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(MatrixIOError, match="unparseable"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("1,2\n\n3,4\n", "row 2 has 1 fields, expected 2", id="blank-line"),
            pytest.param("1,2\n3,4\n\n", "row 3 has 1 fields, expected 2", id="trailing-blank-line"),
            pytest.param("1\n\n2\n", "unparseable value in row 2", id="blank-line-one-column"),
            pytest.param("#1,2\n3,4\n", "unparseable value in row 1", id="no-comments"),
        ],
    )
    def test_blank_and_comment_lines_are_rejected(self, tmp_path, text, message):
        path = tmp_path / "lines.csv"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(MatrixIOError, match=message):
            read_matrix(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
            pytest.param(" 1 , 2 \n3,4\n", [[1.0, 2.0], [3.0, 4.0]], id="padded-values"),
            pytest.param("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]], id="no-final-newline"),
            pytest.param("1\n2\n3\n", [[1.0], [2.0], [3.0]], id="n-by-1"),
            pytest.param("1,2,3\n", [[1.0, 2.0, 3.0]], id="1-by-n"),
        ],
    )
    def test_accepted_layouts(self, tmp_path, text, expected):
        path = tmp_path / "layout.csv"
        path.write_bytes(text.encode("ascii"))
        back = read_matrix(path)
        assert back.shape == np.shape(expected) and np.array_equal(back, expected)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,nan\n2,3\n")
        with pytest.raises(MatrixIOError, match="non-finite entries"):
            read_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(MatrixIOError, match="empty"):
            read_matrix(path)


class TestFormatSelection:
    def test_empty_matrix_write_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            write_matrix(np.zeros((0, 2)), tmp_path / "e.bin")

    def test_unknown_suffix_needs_explicit_format(self, tmp_path):
        a = np.ones((2, 2))
        with pytest.raises(ValueError, match="infer"):
            write_matrix(a, tmp_path / "m.dat")

    def test_format_mismatch_is_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(np.ones((2, 2)), path)
        path = path.rename(tmp_path / "m.bin")  # CSV text behind a .bin suffix
        with pytest.raises(MatrixIOError, match="shorter than the 22-byte header"):
            read_matrix(path)


MAX = sys.float_info.max


@st.composite
def matrices(draw):
    # 1 x 1 to 6 x 6, so 1 x n and n x 1 too, with signed zeros, subnormals
    # and the largest finite magnitudes among ordinary values.
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2e-310, -2e-310, MAX, -MAX])
    finite = st.floats(allow_nan=False, allow_infinity=False)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.lists(st.one_of(special, finite), min_size=m * n, max_size=m * n))
    return np.array(values, dtype=np.float64).reshape(m, n)


@pytest.mark.parametrize("suffix", FORMATS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=matrices())
def test_roundtrip_property(tmp_path_factory, suffix, a):
    path = tmp_path_factory.getbasetemp() / f"property.{suffix}"
    write_matrix(a, path)
    back = read_matrix(path)
    # bytes, because np.array_equal does not see the sign of -0.0
    assert back.dtype == np.float64 and back.shape == a.shape
    assert back.tobytes() == a.tobytes()


@pytest.mark.parametrize("suffix", FORMATS)
def test_row_blocks_write_the_whole_matrix_bytes(tmp_path, suffix):
    # uneven blocks, an empty one among them: the bytes of write_matrix
    a = np.random.default_rng(6).standard_normal((23, 7))
    a[0, 0], a[5, 3] = -0.0, 5e-324
    whole, blocked = tmp_path / f"whole.{suffix}", tmp_path / f"blocks.{suffix}"
    write_matrix(a, whole)
    cuts = [0, 1, 9, 9, 16, 23]
    _write_rows((a[start:stop] for start, stop in zip(cuts, cuts[1:])), a.shape, blocked)
    assert blocked.read_bytes() == whole.read_bytes()


class TestBinaryMemory:
    def test_write_makes_no_full_size_copy(self, tmp_path, peak_buffers):
        a = np.random.default_rng(3).standard_normal((400, 400))
        _, peak = peak_buffers(lambda: write_matrix(a, tmp_path / "a.bin"), a.nbytes)
        assert peak <= 0.1, f"peak {peak:.2f} buffers"

    def test_read_allocates_the_matrix_once(self, tmp_path, peak_buffers):
        a = np.random.default_rng(4).standard_normal((400, 400))
        write_matrix(a, tmp_path / "a.bin")
        _, peak = peak_buffers(lambda: read_matrix(tmp_path / "a.bin"), a.nbytes)
        assert peak <= 1.1, f"peak {peak:.2f} buffers"


class TestCsvMemory:
    def test_read_converts_rows_as_it_reads(self, tmp_path, peak_buffers):
        # the float64 rows and the matrix stacked from them, not Python floats
        a = np.random.default_rng(5).standard_normal((400, 400))
        write_matrix(a, tmp_path / "a.csv")
        _, peak = peak_buffers(lambda: read_matrix(tmp_path / "a.csv"), a.nbytes)
        assert peak <= 2.1, f"peak {peak:.2f} buffers"
