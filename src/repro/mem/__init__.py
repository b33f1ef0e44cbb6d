"""Memory-system substrate: addressing, banks, queues, controller."""

from .address import AddressMapper
from .bank import BankState, InFlightOp
from .controller import FORWARD_READ_CYCLES, MemoryController
from .request import PrereadSlot, RequestKind, WriteEntry

__all__ = [
    "AddressMapper",
    "BankState",
    "InFlightOp",
    "MemoryController",
    "FORWARD_READ_CYCLES",
    "RequestKind",
    "WriteEntry",
    "PrereadSlot",
]
