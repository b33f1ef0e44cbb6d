"""ECP substrate: per-line correction entries, the low-density ECP chip,
and the endurance model used by the lifetime experiments."""

from .chip import ECPChip, ECPChipGeometry
from .line_ecp import ECPLine
from .wear import WearModel

__all__ = [
    "ECPChip",
    "ECPChipGeometry",
    "ECPLine",
    "WearModel",
]
