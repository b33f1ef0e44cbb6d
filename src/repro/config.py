"""System configuration dataclasses.

The defaults reproduce Table 2 of the paper (the "Baseline Configuration"):
an 8-core 4 GHz in-order CMP, one PCM channel with 2 ranks of 8 banks, a
32-entry write queue per bank, 400-cycle reads, 400/800-cycle RESET/SET, and
128-cell parallel SLC writes.

All latencies are expressed in CPU cycles at 4 GHz (1 ns = 4 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .errors import ConfigError

#: Bytes per memory line (cache line and PCM line size).
LINE_BYTES = 64
#: Bits per memory line.
LINE_BITS = LINE_BYTES * 8
#: 64-bit words per line.
LINE_WORDS = LINE_BITS // 64
#: Bytes per OS page / PCM device row.
PAGE_BYTES = 4096
#: Lines per page (and per device row).
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES
#: Pages per device strip (one strip = same row index across all banks).
PAGES_PER_STRIP = 16


@dataclass(frozen=True)
class TimingConfig:
    """PCM and CPU timing parameters (Table 2), in CPU cycles."""

    #: Average cycles per non-memory instruction.  The in-order core itself
    #: is CPI = 1, but the paper's simulator charges the L1/L2/DRAM-L3 hit
    #: latencies of the (filtered-out) cache-hitting accesses between two
    #: main-memory references; this factor folds that hierarchy cost in and
    #: is calibrated so scheme-vs-scheme factors match the paper's Figure 11.
    base_cpi: float = 8.0
    #: Array read latency (100 ns).
    read_cycles: int = 400
    #: RESET pulse latency (100 ns).
    reset_cycles: int = 400
    #: SET pulse latency (200 ns).
    set_cycles: int = 800
    #: Maximum SLC cells written in parallel per programming round.
    write_parallelism: int = 128

    def __post_init__(self) -> None:
        if self.read_cycles <= 0 or self.reset_cycles <= 0 or self.set_cycles <= 0:
            raise ConfigError("latencies must be positive")
        if self.write_parallelism <= 0:
            raise ConfigError("write_parallelism must be positive")
        if self.set_cycles < self.reset_cycles:
            raise ConfigError("SET must not be faster than RESET")


@dataclass(frozen=True)
class MemoryConfig:
    """Channel/rank/bank organisation and queue sizing (Table 2)."""

    ranks: int = 2
    banks_per_rank: int = 8
    write_queue_entries: int = 32
    #: Total memory capacity in bytes (8 GB in the paper; scaled working sets
    #: mean the simulator only materialises touched rows).
    capacity_bytes: int = 8 << 30

    def __post_init__(self) -> None:
        if self.ranks <= 0 or self.banks_per_rank <= 0:
            raise ConfigError("ranks and banks_per_rank must be positive")
        if self.write_queue_entries <= 0:
            raise ConfigError("write queue must have at least one entry")
        if self.capacity_bytes % PAGE_BYTES:
            raise ConfigError("capacity must be page aligned")

    @property
    def banks(self) -> int:
        """Total number of banks across all ranks."""
        return self.ranks * self.banks_per_rank

    @property
    def total_pages(self) -> int:
        return self.capacity_bytes // PAGE_BYTES

    @property
    def rows_per_bank(self) -> int:
        return self.total_pages // self.banks


@dataclass(frozen=True)
class DisturbanceConfig:
    """Write-disturbance probabilities (Table 1) and DIN calibration.

    ``p_bitline``/``p_wordline`` are per-vulnerable-cell disturbance
    probabilities for the super dense (4F^2) geometry.  ``din_residual_scale``
    models the stronger multi-bit codes of the full DIN scheme beyond our
    per-word inversion encoder; it scales the word-line probability applied
    *after* encoding so that the measured residual matches the paper's
    ~0.4 errors per line write (Figure 4a).
    """

    p_bitline: float = 0.115
    p_wordline: float = 0.099
    din_residual_scale: float = 0.25
    #: Process variation in WD susceptibility [4, 13, 25]: only this
    #: fraction of each line's cells is disturbance-prone ("weak"), with a
    #: proportionally higher per-cell probability so the *mean* rate stays
    #: at Table 1's values.  Weak-cell sets are fixed per line, so repeated
    #: disturbance hits the same cells — which is what keeps LazyC's ECP
    #: entry wear low (Figure 18).  1.0 disables the variation.
    weak_cell_fraction: float = 0.25

    def __post_init__(self) -> None:
        for name in ("p_bitline", "p_wordline", "din_residual_scale"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value!r}")
        if not 0.0 < self.weak_cell_fraction <= 1.0:
            raise ConfigError("weak_cell_fraction must be in (0, 1]")

    @property
    def p_bitline_weak(self) -> float:
        """Per-weak-cell bit-line probability preserving the Table 1 mean."""
        return min(1.0, self.p_bitline / self.weak_cell_fraction)


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic device-fault injection (the chaos model).

    A config is active when any of its three rates is positive.  All
    faults are sampled from dedicated per-line RNG streams derived from
    ``seed`` — never from the simulation's main RNG — so an active config
    does not perturb the disturbance/payload sample path, and an all-zero
    config is byte-identical to a fault-free run.  Three fault classes
    from the PCM reliability literature:

    * **stuck-at cells** — wear-out: cells that can no longer change phase.
      They are immune to WD, are covered by ECP hard-error entries while
      entries last, and become *uncorrectable* once the line's ECP is
      exhausted (driving the :class:`~repro.errors.ECPExhaustedError`
      fallback).
    * **resistance drift** — amorphous cells slowly lose resistance and
      read as ``1``; modelled as extra error bits surfacing at write-time
      verification, which stresses LazyCorrection overflow.
    * **ECP entry hard failures** — correction entries themselves wear out,
      shrinking the per-line ECP capacity.
    """

    seed: int = 0
    #: Poisson mean of stuck-at cells per 512-cell line.
    stuck_cells_per_line: float = 0.0
    #: Per-vulnerable-cell probability of a drift flip per verified write.
    drift_flip_prob: float = 0.0
    #: Independent probability that each ECP entry of a line is dead.
    ecp_entry_failure_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.stuck_cells_per_line < 0:
            raise ConfigError("stuck_cells_per_line must be >= 0")
        for name in ("drift_flip_prob", "ecp_entry_failure_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value!r}")

    @property
    def active(self) -> bool:
        """Whether any fault can actually be injected."""
        return (
            self.stuck_cells_per_line > 0
            or self.drift_flip_prob > 0
            or self.ecp_entry_failure_prob > 0
        )


#: The values of ``SchemeConfig.bitlines`` and ``.read_priority``.
BITLINES = ("wd_free", "unverified", "vnc")
READ_PRIORITIES = ("drain", "eager", "cancel", "pause")


@dataclass(frozen=True)
class SchemeConfig:
    """Which SD-PCM mechanisms are active (Section 5.3's compared schemes).

    The named schemes (:data:`repro.core.schemes.SCHEMES`) set these
    fields; any field not listed keeps its default:

    ========================  ==========================================
    Scheme                    Fields
    ========================  ==========================================
    ``DIN``                   ``bitlines="wd_free"``
    ``baseline``              defaults (``bitlines="vnc"``)
    ``LazyC``                 ``lazy_correction=True``
    ``LazyC+PreRead``         ``lazy_correction=True, preread=True``
    ``LazyC+(2:3)``           ``lazy_correction=True, nm_ratio=(2, 3)``
    ``LazyC+PreRead+(2:3)``   ``lazy_correction=True, preread=True,
                              nm_ratio=(2, 3)``
    ``(1:2)``                 ``nm_ratio=(1, 2)``
    ``PreRead``               ``preread=True``
    ``VnC``                   defaults (the same scheme as ``baseline``)
    ``WC``                    ``read_priority="cancel"``
    ``WC+LazyC``              ``read_priority="cancel", lazy_correction=True``
    ``WP``                    ``read_priority="pause"``
    ``WP+LazyC``              ``read_priority="pause", lazy_correction=True``
    ``eager``                 ``read_priority="eager"``
    ``LazyC-denseECP``        ``lazy_correction=True, low_density_ecp=False``
    unprotected (Figure 5)    ``bitlines="unverified"``
    ========================  ==========================================
    """

    #: One of :data:`BITLINES`.  ``"wd_free"`` is the DIN comparison
    #: point, an 8F^2 chip whose 4F bit-line spacing is WD-free: no
    #: bit-line WD and no VnC.  ``"unverified"`` is a super dense 4F^2
    #: array whose bit-line WD lands undetected (Figure 5's reference).
    #: ``"vnc"`` verifies and corrects the neighbours of every write
    #: (Section 3.2).
    bitlines: str = "vnc"
    #: LazyCorrection: buffer WD errors in ECP entries (Section 4.2).
    lazy_correction: bool = False
    #: Number of ECP entries per 64 B line (ECP-6 default).
    ecp_entries: int = 6
    #: PreRead: pre-write reads issued from the write queue (Section 4.3).
    preread: bool = False
    #: (n:m) allocation ratio; (1, 1) means all strips used (Section 4.4).
    nm_ratio: Tuple[int, int] = (1, 1)
    #: One of :data:`READ_PRIORITIES`.  ``"drain"`` buffers writes until
    #: the queue fills (the paper's default).  The other three schedule
    #: writes eagerly on idle banks: ``"eager"`` alone (it attributes WC's
    #: and WP's gains between scheduling and pre-emption), ``"cancel"``
    #: lets a demand read cancel an in-flight write, and ``"pause"`` stops
    #: it at a programming-round boundary and resumes it with no lost work.
    read_priority: str = "drain"
    #: Section 4.2 design choice: keep the ECP chip at low density (8F^2,
    #: WD-free).  Setting this False models the naive super dense ECP chip,
    #: whose entry writes suffer WD themselves and need their own VnC.
    low_density_ecp: bool = True

    def __post_init__(self) -> None:
        n, m = self.nm_ratio
        if not 0 < n <= m:
            raise ConfigError(f"(n:m) requires 0 < n <= m, got ({n}:{m})")
        if self.ecp_entries < 0:
            raise ConfigError("ecp_entries must be >= 0")
        for name, allowed in (("bitlines", BITLINES),
                              ("read_priority", READ_PRIORITIES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for an :class:`~repro.core.system.SDPCMSystem`."""

    cores: int = 8
    timing: TimingConfig = field(default_factory=TimingConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError("cores must be positive")

    def with_scheme(self, scheme: SchemeConfig) -> "SystemConfig":
        """Return a copy of this configuration with a different scheme."""
        return replace(self, scheme=scheme)
