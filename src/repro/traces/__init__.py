"""Workload substrate: Table 3 profiles, synthetic traces, workloads."""

from . import file_io
from .analysis import TraceProfile, analyse
from .profiles import PROFILES, WORKLOAD_ORDER, BenchmarkProfile, profile
from .record import TraceArray
from .synthetic import SyntheticTraceGenerator, generate_trace
from .workload import Workload, homogeneous_workload

__all__ = [
    "file_io",
    "TraceProfile",
    "analyse",
    "PROFILES",
    "WORKLOAD_ORDER",
    "BenchmarkProfile",
    "profile",
    "TraceArray",
    "SyntheticTraceGenerator",
    "generate_trace",
    "Workload",
    "homogeneous_workload",
]
