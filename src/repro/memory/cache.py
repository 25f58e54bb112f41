"""Set-associative cache with true-LRU replacement.

Only timing matters to the simulator, so lines carry tags but no data.
The cache counts accesses/hits/misses for the statistics and energy
accounting, and reports the latency of each access given a backing-store
latency supplied by the :class:`~repro.memory.hierarchy.MemoryHierarchy`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.common.config import CacheConfig

__all__ = ["Cache", "AccessResult"]


class AccessResult:
    """Outcome of one cache access."""

    __slots__ = ("hit", "latency")

    def __init__(self, hit: bool, latency: int) -> None:
        self.hit = hit
        self.latency = latency

    def __repr__(self) -> str:
        return f"AccessResult(hit={self.hit}, latency={self.latency})"


class Cache:
    """One cache level.

    LRU is modelled with a per-set ordered list (most recent last); a
    32 KB 4-way cache has 256 sets of 4 ways, so the lists stay tiny and
    the pure-Python overhead is acceptable.
    """

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self._sets: List[List[int]] = [[] for __ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        # Geometry constants hoisted out of the per-access path (the
        # num_sets property divides, and bit_length is not free at the
        # millions-of-lookups scale of a campaign).
        self._set_bits = config.num_sets.bit_length() - 1
        self._hit_latency = config.hit_latency
        self._associativity = config.associativity
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int, miss_latency: int) -> AccessResult:
        """Access ``addr``; on a miss the line is filled.

        ``miss_latency`` is the additional latency the backing store
        charges for the fill (the hierarchy computes it). The returned
        latency includes this cache's hit latency in both cases, matching
        the usual "lookup, then go down on miss" timing.
        """
        hit, latency = self.access_latency(addr, lambda: miss_latency)
        return AccessResult(hit, latency)

    def access_latency(self, addr: int, miss_latency_fn) -> tuple:
        """Access ``addr``; returns ``(hit, latency)``.

        ``miss_latency_fn`` is only called on a miss, so the backing
        level is touched lazily — the hot path of the hierarchy (one
        index computation, one LRU update, no result object).
        """
        line = addr >> self._line_shift
        tag = line >> self._set_bits
        ways = self._sets[line & self._set_mask]
        self.accesses += 1
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True, self._hit_latency
        self.misses += 1
        ways.append(tag)
        if len(ways) > self._associativity:
            ways.pop(0)
        return False, self._hit_latency + miss_latency_fn()

    def warm(self, addresses: Iterable[int]) -> Iterator[int]:
        """Touch each address in order; yield the addresses that missed.

        The tag/LRU update is exactly :meth:`access_latency`'s, but no
        counter moves and no latency is computed: this is the cache
        pre-warming walk, which is never measured. The generator is
        lazy, so feeding its output into the next level's ``warm`` fills
        that level miss by miss, in the order a real access stream would.
        """
        shift = self._line_shift
        set_bits = self._set_bits
        mask = self._set_mask
        sets = self._sets
        associativity = self._associativity
        for addr in addresses:
            line = addr >> shift
            tag = line >> set_bits
            ways = sets[line & mask]
            if tag in ways:
                ways.remove(tag)
                ways.append(tag)
                continue
            ways.append(tag)
            if len(ways) > associativity:
                ways.pop(0)
            yield addr

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no counters)."""
        line = addr >> self._line_shift
        return (line >> self._set_bits) in self._sets[line & self._set_mask]

    def state_snapshot(self) -> List[List[int]]:
        """Copy of the tag/LRU state (contents only, not counters)."""
        return [list(ways) for ways in self._sets]

    def restore_state(self, snapshot: List[List[int]]) -> None:
        """Restore tag/LRU state from :meth:`state_snapshot`; counters
        are zeroed, matching a freshly warmed, statistics-reset cache."""
        self._sets = [list(ways) for ways in snapshot]
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 if never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset_statistics(self) -> None:
        """Zero the counters without touching cache contents."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate every line (contents only; statistics kept)."""
        for ways in self._sets:
            ways.clear()

    def contents_summary(self) -> Dict[str, int]:
        """Occupancy snapshot, used by tests."""
        lines = sum(len(ways) for ways in self._sets)
        return {
            "lines_valid": lines,
            "lines_total": self.config.num_sets * self.config.associativity,
        }
