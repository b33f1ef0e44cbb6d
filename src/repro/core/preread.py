"""PreRead analysis helpers (Section 4.3).

The mechanism is implemented across :class:`~repro.mem.controller.MemoryController`
(idle-bank scheduling of low-priority pre-reads, Figure 8's pr-bits and
buffers live in :class:`~repro.mem.request.WriteEntry`) and
:class:`~repro.core.vnc.VnCExecutor` (skipping the pre-write reads whose
slots were filled).  This module provides the hardware-overhead arithmetic
of Section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LINE_BYTES
from ..errors import ConfigError


@dataclass(frozen=True)
class PrereadHardwareCost:
    """Section 6.2: per-entry cost of the PreRead write-queue extension."""

    queue_entries: int = 32

    def __post_init__(self) -> None:
        if self.queue_entries <= 0:
            raise ConfigError("queue must have entries")

    @property
    def buffer_bits_per_entry(self) -> int:
        """Two 64 B data buffers plus two flag bits per entry."""
        return 2 * (LINE_BYTES * 8 + 1)

    @property
    def total_bytes(self) -> int:
        """Total addition for the whole queue (paper: 4 KB for 32 entries)."""
        total_bits = self.buffer_bits_per_entry * self.queue_entries
        return (total_bits + 7) // 8

    @property
    def original_buffer_bytes(self) -> int:
        """The pre-existing write buffer (32 x 64 B = 2 KB)."""
        return self.queue_entries * LINE_BYTES
