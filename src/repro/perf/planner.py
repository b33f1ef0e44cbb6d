"""Host fingerprint stamped on committed benchmark baselines.

Every ``BENCH_*.json`` file records the machine that measured it, so a
reader can tell whether its numbers transfer to the host at hand.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict


def host_fingerprint() -> Dict[str, object]:
    """The CPU count, architecture and Python version of this host."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
    }
