"""Memory-system substrate: addressing, banks, queues, controller."""

from .address import AddressMapper
from .bank import BankState, InFlightOp
from .controller import FORWARD_READ_CYCLES, MemoryController, WriteOp
from .request import PrereadSlot, Request, RequestKind, WriteEntry

__all__ = [
    "AddressMapper",
    "BankState",
    "InFlightOp",
    "MemoryController",
    "WriteOp",
    "FORWARD_READ_CYCLES",
    "Request",
    "RequestKind",
    "WriteEntry",
    "PrereadSlot",
]
