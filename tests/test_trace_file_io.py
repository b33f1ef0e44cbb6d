"""Tests for trace serialisation round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.traces import file_io
from repro.traces.synthetic import generate_trace
from tests.conftest import make_trace, same_trace

traces_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 1 << 30).map(lambda a: a * 64),
        st.integers(0, 10_000),
    ),
    max_size=50,
).map(make_trace)


class TestRoundTrips:
    @given(traces_strategy)
    @settings(max_examples=20, deadline=None)
    def test_npz_roundtrip(self, trace):
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "t.npz"
            file_io.save_npz(trace, path)
            assert same_trace(file_io.load_npz(path), trace)

    @given(traces_strategy)
    @settings(max_examples=20, deadline=None)
    def test_text_roundtrip(self, trace):
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "t.trace"
            file_io.save_text(trace, path)
            assert same_trace(file_io.load_text(path), trace)

    def test_dispatch_by_extension(self, tmp_path):
        trace = generate_trace("wrf", 50, seed=2)
        file_io.save(trace, tmp_path / "a.npz")
        file_io.save(trace, tmp_path / "a.trace")
        assert same_trace(file_io.load(tmp_path / "a.npz"), trace)
        assert same_trace(file_io.load(tmp_path / "a.trace"), trace)
        assert (tmp_path / "a.trace").read_text().startswith("#")

    def test_real_trace_roundtrip(self, tmp_path):
        trace = generate_trace("mcf", 500, seed=1)
        file_io.save_npz(trace, tmp_path / "mcf.npz")
        loaded = file_io.load_npz(tmp_path / "mcf.npz")
        assert same_trace(loaded, trace)
        assert loaded.address.dtype == np.int64 and loaded.is_write.dtype == bool


class TestTextFormat:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\nR 0x1000 5\nW 0x2000 0\n")
        trace = file_io.load_text(path)
        assert len(trace) == 2
        assert trace.is_write.tolist() == [False, True]

    def test_byte_addresses_aligned_down(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("R 0x1007 0\n")
        assert file_io.load_text(path).address.tolist() == [0x1000]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("X 0x1000 5\n")
        with pytest.raises(TraceError):
            file_io.load_text(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("R zzz 5\n")
        with pytest.raises(TraceError):
            file_io.load_text(path)

    def test_missing_field_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(path, is_write=np.array([True]), address=np.array([0]))
        with pytest.raises(TraceError):
            file_io.load_npz(path)


class TestLoadedReferencesChecked:
    """A loaded file passes the engine's reference check, naming the file."""

    @pytest.mark.parametrize(
        "address, gap, message",
        [
            (0x1001, 0, "address 0x1001 not 64 B aligned"),
            (-64, 0, "negative address -0x40"),
            (0x1000, -1, "negative instruction gap -1"),
        ],
        ids=["misaligned", "negative-address", "negative-gap"],
    )
    def test_bad_npz_reference(self, tmp_path, address, gap, message):
        path = tmp_path / "bad.npz"
        np.savez(path, is_write=np.array([False, True]),
                 address=np.array([0, address]), gap=np.array([0, gap]))
        with pytest.raises(TraceError) as excinfo:
            file_io.load_npz(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_column_lengths_differ(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, is_write=np.array([True]), address=np.array([0, 64]),
                 gap=np.array([0]))
        with pytest.raises(TraceError, match="column lengths differ"):
            file_io.load_npz(path)

    @pytest.mark.parametrize(
        "content",
        [b"R 0x40 3\n", b"PK\x03\x04 broken zip", b"\x93NUMPY"],
        ids=["text", "broken-zip", "broken-npy"],
    )
    def test_not_an_npz(self, tmp_path, content):
        path = tmp_path / "t.npz"
        path.write_bytes(content)
        with pytest.raises(TraceError, match="not an .npz trace archive"):
            file_io.load_npz(path)

    def test_bare_npy_array_is_not_an_npz(self, tmp_path):
        path = tmp_path / "t.npz"
        with path.open("wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(TraceError, match="not an .npz trace archive"):
            file_io.load_npz(path)
