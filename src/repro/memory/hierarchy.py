"""The L1I / L1D / unified-L2 / main-memory hierarchy of Table 1."""

from __future__ import annotations

from typing import Iterable

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.memory.cache import Cache

__all__ = ["MemoryHierarchy"]


class MemoryHierarchy:
    """Owns the caches and answers latency queries from the pipeline.

    The hierarchy is intentionally simple — blocking fills, no MSHR
    modelling — because the paper's schemes interact with memory only
    through *when a load's value becomes available*. Port contention on
    the L1D (4 R/W ports) is enforced by the pipeline's issue logic, not
    here.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.l2 = Cache(config.l2cache)
        self._memory_latency = config.memory.access_latency(config.l2cache.line_bytes)

    def _l2_fill_latency(self, addr: int) -> int:
        """Latency the L2 charges for a fill request from an L1 miss."""
        __, latency = self.l2.access_latency(addr, lambda: self._memory_latency)
        return latency

    def instruction_fetch_latency(self, pc: int) -> int:
        """Cycles to fetch the line containing ``pc``.

        The L2 is only touched on a real L1 miss (lazy fill latency).
        """
        __, latency = self.icache.access_latency(
            pc, lambda: self._l2_fill_latency(pc)
        )
        return latency

    def data_access_latency(self, addr: int, is_store: bool = False) -> int:
        """Cycles for a load/store to reach its data.

        Stores are modelled as write-allocate: they take the same path as
        loads for timing purposes, though the pipeline retires them at
        commit so their latency rarely matters.
        """
        __, latency = self.dcache.access_latency(
            addr, lambda: self._l2_fill_latency(addr)
        )
        return latency

    def warm(self, l1: Cache, addresses: Iterable[int]) -> None:
        """Walk ``addresses`` through ``l1`` (the I- or D-cache) and the L2.

        Leaves exactly the tag/LRU state that one
        :meth:`instruction_fetch_latency` / :meth:`data_access_latency`
        call per address would, in one flat loop per level and without
        moving any counter (see :meth:`Cache.warm`).
        """
        for __ in self.l2.warm(l1.warm(addresses)):
            pass

    def state_snapshot(self) -> tuple:
        """Tag/LRU state of all three caches (for pre-warm reuse)."""
        return (
            self.icache.state_snapshot(),
            self.dcache.state_snapshot(),
            self.l2.state_snapshot(),
        )

    def restore_state(self, snapshot: tuple) -> None:
        """Restore all three caches from :meth:`state_snapshot`."""
        icache, dcache, l2 = snapshot
        self.icache.restore_state(icache)
        self.dcache.restore_state(dcache)
        self.l2.restore_state(l2)

    def dcache_hit_latency(self) -> int:
        """The L1D hit latency (the load latency assumed at dispatch)."""
        return self.config.dcache.hit_latency

    def collect_events(self, events: StatCounters) -> None:
        """Export access counts for the energy model."""
        events.add("icache_accesses", self.icache.accesses)
        events.add("icache_misses", self.icache.misses)
        events.add("dcache_accesses", self.dcache.accesses)
        events.add("dcache_misses", self.dcache.misses)
        events.add("l2_accesses", self.l2.accesses)
        events.add("l2_misses", self.l2.misses)
        self.icache.reset_statistics()
        self.dcache.reset_statistics()
        self.l2.reset_statistics()
