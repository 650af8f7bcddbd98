"""Set-associative cache tag arrays with true-LRU replacement.

Caches in this model are *timing* structures: they track which lines are
resident (tags + dirty bits) so the hierarchy can decide how far an
access must travel, but the data itself lives in the node's flat
:class:`~repro.vm.physical.PhysicalMemory`. This separation means timing
bugs cannot corrupt data (see DESIGN.md).

Geometry defaults follow Table 1 of the paper: split 32 KB 2-way L1s
with 64-byte blocks and 32 MSHRs; a 4 MB 16-way L2.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..vm.address import CACHE_LINE_SIZE, line_align_down

__all__ = ["CacheConfig", "Cache", "EvictedLine"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``latency_ns`` is the tag+data access time charged on every probe of
    this level (Table 1: L1 3 cycles @ 2 GHz = 1.5 ns; L2 6 cycles = 3 ns).
    """

    name: str
    size_bytes: int
    associativity: int
    latency_ns: float
    mshrs: int = 32
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self):
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError("size and associativity must be positive")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.line_size}B lines"
            )
        if self.latency_ns < 0:
            raise ValueError("latency must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size


@dataclass
class EvictedLine:
    """A line displaced by a fill; ``dirty`` lines must be written back."""

    line_addr: int
    dirty: bool


class Cache:
    """One level of cache: a set-associative tag array with LRU.

    Addresses handed to the cache are physical line addresses; callers
    align them (``line_align_down``) or pass any address and the cache
    aligns internally.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_size = config.line_size
        self._num_sets = config.num_sets
        # set index -> OrderedDict[line_addr -> dirty_bit], LRU first. A
        # set exists from its first fill on; an absent set is empty.
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations = 0

    def _index(self, line_addr: int) -> int:
        return (line_addr // self._line_size) % self._num_sets

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Look up a line; updates LRU and dirty state. True on hit."""
        line = line_align_down(addr)
        cache_set = self._sets.get(self._index(line))
        if cache_set is not None and line in cache_set:
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Non-perturbing lookup (no LRU update, no counters)."""
        line = line_align_down(addr)
        cache_set = self._sets.get(self._index(line))
        return cache_set is not None and line in cache_set

    def fill(self, addr: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install a line after a miss; returns the victim, if any."""
        line = line_align_down(addr)
        index = self._index(line)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        victim = None
        if line in cache_set:
            # Already present (e.g. a racing fill); just refresh state.
            cache_set.move_to_end(line)
            cache_set[line] = cache_set[line] or dirty
            return None
        if len(cache_set) >= self.config.associativity:
            victim_addr, victim_dirty = cache_set.popitem(last=False)
            victim = EvictedLine(victim_addr, victim_dirty)
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
        cache_set[line] = dirty
        return victim

    def invalidate(self, addr: int) -> Optional[EvictedLine]:
        """Remove a line (coherence action); returns it if it was dirty."""
        line = line_align_down(addr)
        cache_set = self._sets.get(self._index(line))
        if cache_set is None:
            return None
        dirty = cache_set.pop(line, None)
        if dirty is None:
            return None
        self.invalidations += 1
        return EvictedLine(line, dirty)

    def flush(self) -> int:
        """Drop everything; returns the number of lines that were dirty."""
        dirty_count = 0
        for cache_set in self._sets.values():
            dirty_count += sum(1 for d in cache_set.values() if d)
        self._sets.clear()
        return dirty_count

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
