"""Tests for profiles (Table 3), synthetic traces, and workloads."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.config import LINE_BYTES, MemoryConfig, SystemConfig
from repro.core import schemes
from repro.core.engine import EventLoop
from repro.core.system import SDPCMSystem
from repro.errors import TraceError
from repro.traces import file_io
from repro.traces.profiles import PROFILES, WORKLOAD_ORDER, profile
from repro.traces.record import TraceArray, check_trace
from repro.traces.synthetic import SyntheticTraceGenerator, generate_trace
from repro.traces.workload import Workload, homogeneous_workload
from tests.conftest import make_trace, same_trace

TABLE3 = {
    "bwaves": (17.45, 0.47),
    "gemsFDTD": (9.62, 6.67),
    "lbm": (14.59, 7.29),
    "leslie3d": (2.39, 0.04),
    "mcf": (22.38, 20.47),
    "wrf": (0.14, 0.02),
    "xalan": (0.13, 0.13),
    "zeusmp": (4.11, 3.36),
    "stream": (2.32, 2.32),
}


class TestProfiles:
    def test_table3_values(self):
        for name, (rpki, wpki) in TABLE3.items():
            p = profile(name)
            assert p.rpki == rpki and p.wpki == wpki

    def test_all_ordered_workloads_exist(self):
        assert set(WORKLOAD_ORDER) == set(PROFILES)

    def test_unknown_profile(self):
        with pytest.raises(TraceError):
            profile("nope")

    def test_memory_intensive_includes_mcf(self):
        """Table 3's write-intensive programs (WPKI >= 3)."""
        assert profile("mcf").wpki >= 3.0 and profile("gemsFDTD").wpki >= 3.0
        assert profile("wrf").wpki < 3.0

    def test_gemsfdtd_flips_fewest_bits(self):
        """Section 6.4: gemsFDTD changes fewer bits per write."""
        gems = profile("gemsFDTD").flip_fraction
        assert all(
            gems < p.flip_fraction
            for n, p in PROFILES.items()
            if n != "gemsFDTD"
        )

    def test_mean_gap(self):
        assert profile("mcf").mean_gap == pytest.approx(1000 / 42.85, rel=1e-3)


class TestRecord:
    """The reference check every replayed or loaded trace passes."""

    def test_valid(self):
        trace = make_trace([(True, 0x1000, 5)])
        check_trace(trace)
        assert len(trace) == 1 and trace.address[0] >> 12 == 1

    def test_misaligned_rejected(self):
        with pytest.raises(TraceError, match="address 0x1001 not 64 B aligned"):
            check_trace(make_trace([(False, 0x1001, 0)]))

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError, match="negative instruction gap -1"):
            check_trace(make_trace([(False, 0x1000, -1)]))


class TestSynthetic:
    def test_deterministic(self):
        a = generate_trace("mcf", 500, seed=3)
        b = generate_trace("mcf", 500, seed=3)
        assert same_trace(a, b)

    def test_seed_changes_trace(self):
        a = generate_trace("mcf", 500, seed=3)
        b = generate_trace("mcf", 500, seed=4)
        assert not same_trace(a, b)

    def test_write_fraction_matches_profile(self):
        trace = generate_trace("mcf", 8000, seed=1)
        writes = int(trace.is_write.sum())
        expected = profile("mcf").write_fraction
        assert writes / len(trace) == pytest.approx(expected, abs=0.03)

    def test_mean_gap_matches_profile(self):
        trace = generate_trace("stream", 8000, seed=1)
        mean_gap = trace.gap.mean()
        assert mean_gap == pytest.approx(profile("stream").mean_gap - 1, rel=0.1)

    def test_addresses_within_working_set(self):
        bench = profile("xalan")
        trace = generate_trace("xalan", 2000, seed=1, base_page=0)
        max_page = int(trace.address.max()) >> 12
        assert max_page < bench.working_set_pages

    def test_streaming_benchmark_is_sequential(self):
        trace = generate_trace("stream", 2000, seed=1)
        seq = np.count_nonzero(np.diff(trace.address) == LINE_BYTES)
        assert seq / len(trace) > 0.8

    def test_pointer_benchmark_is_not_sequential(self):
        trace = generate_trace("mcf", 2000, seed=1)
        seq = np.count_nonzero(np.diff(trace.address) == LINE_BYTES)
        assert seq / len(trace) < 0.35

    @given(st.sampled_from(WORKLOAD_ORDER), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_alignment_property(self, bench, seed):
        trace = generate_trace(bench, 200, seed=seed)
        assert (trace.address % LINE_BYTES == 0).all()
        assert (trace.gap >= 0).all()


class TestWorkload:
    def test_homogeneous_shape(self):
        wl = homogeneous_workload("lbm", cores=4, length=100)
        assert wl.cores == 4
        assert all(len(t) == 100 for t in wl.traces)
        assert wl.flip_fractions == [profile("lbm").flip_fraction] * 4

    def test_cores_have_distinct_traces(self):
        wl = homogeneous_workload("lbm", cores=2, length=200)
        assert not same_trace(wl.traces[0], wl.traces[1])

    def test_cores_have_disjoint_address_spaces(self):
        wl = homogeneous_workload("lbm", cores=2, length=200)
        pages0 = set((wl.traces[0].address >> 12).tolist())
        pages1 = set((wl.traces[1].address >> 12).tolist())
        assert not (pages0 & pages1)

    def test_mixed_workload(self):
        profs = [profile("mcf"), profile("wrf")]
        traces = [generate_trace(p.name, 50, seed=0) for p in profs]
        wl = Workload("mix", traces, profs)
        assert wl.cores == 2
        assert wl.profiles[0].name == "mcf"
        assert wl.flip_fractions == [p.flip_fraction for p in profs]
        assert wl.flip_fractions[0] != wl.flip_fractions[1]

    def test_paper_workloads_complete(self):
        for name in WORKLOAD_ORDER:
            assert homogeneous_workload(name, cores=1, length=10).name == name

    def test_empty_mix_rejected(self):
        with pytest.raises(TraceError):
            Workload("mix", [], [])

    def test_total_instructions(self):
        wl = homogeneous_workload("wrf", cores=1, length=50)
        expected = 50 + sum(wl.traces[0].gap.tolist())
        assert wl.total_instructions == expected


class TestColumnReplay:
    """The engine replays every trace from validated numpy columns."""

    @pytest.mark.parametrize(
        "address, gap, message",
        [
            (0x1001, 0, "address 0x1001 not 64 B aligned"),
            (-64, 0, "negative address -0x40"),
            (0x1000, -1, "negative instruction gap -1"),
        ],
        ids=["misaligned", "negative-address", "negative-gap"],
    )
    def test_bad_trace_array_rejected_before_any_event(
        self, monkeypatch, address, gap, message
    ):
        good = generate_trace("bwaves", 40, seed=2)
        # The bad reference comes last, so a lazy check would only fire
        # after the good ones had been replayed.
        bad = TraceArray(
            np.append(good.is_write, False),
            np.append(good.address, address),
            np.append(good.gap, gap),
        )
        events_run = []
        monkeypatch.setattr(EventLoop, "run", lambda loop: events_run.append(loop))
        workload = Workload("bad", [bad], [profile("bwaves")])
        with pytest.raises(TraceError) as excinfo:
            SDPCMSystem(SystemConfig(cores=1)).run(workload)
        assert str(excinfo.value) == message
        assert events_run == []

    @pytest.mark.parametrize(
        "scheme",
        [schemes.lazyc_preread(), schemes.write_cancellation()],
        ids=["lazyc-preread", "write-cancellation"],
    )
    def test_saved_traces_replay_like_synthesized(self, scheme, tmp_path):
        # gen-trace writes one core's trace; core 0 replays it from the
        # .npz file and core 1 from the text file.  A 4-entry write queue
        # also drives cores through the full-queue retry path.
        paths = [tmp_path / "mcf.npz", tmp_path / "mcf.trace"]
        for path in paths:
            argv = ["gen-trace", "mcf", str(path), "--length", "400",
                    "--seed", "3"]
            assert main(argv) == 0
        loaded = [file_io.load(path) for path in paths]
        for trace in loaded:
            assert (trace.is_write.dtype, trace.address.dtype,
                    trace.gap.dtype) == (bool, np.int64, np.int64)
        synthesized = generate_trace("mcf", 400, seed=3)
        config = SystemConfig(
            cores=2, seed=3, memory=MemoryConfig(write_queue_entries=4)
        ).with_scheme(scheme)
        mcf = [profile("mcf")] * 2
        from_files = SDPCMSystem(config).run(Workload("mcf", loaded, mcf))
        from_synthesis = SDPCMSystem(config).run(
            Workload("mcf", [synthesized, synthesized], mcf))
        assert from_synthesis.counters.wq_full_stalls > 0
        assert dataclasses.asdict(from_files) == dataclasses.asdict(
            from_synthesis)
