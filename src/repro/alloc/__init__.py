"""OS allocation substrate: buddy system, (n:m)-Alloc, page table."""

from .buddy import BuddyAllocator
from .nm_alloc import BLOCK_ORDER, NMAllocManager
from .page_table import MAX_ALLOCATORS, TAG_BITS, PageTable
from .strips import (
    PAGES_PER_BLOCK,
    STRIPS_PER_BLOCK,
    adjacent_usage,
    is_no_use,
    no_use_positions,
    usable_fraction,
)

__all__ = [
    "BuddyAllocator",
    "NMAllocManager",
    "BLOCK_ORDER",
    "PageTable",
    "TAG_BITS",
    "MAX_ALLOCATORS",
    "adjacent_usage",
    "is_no_use",
    "no_use_positions",
    "usable_fraction",
    "PAGES_PER_BLOCK",
    "STRIPS_PER_BLOCK",
]
