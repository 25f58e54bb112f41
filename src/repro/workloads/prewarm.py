"""Cache pre-warming: bring the memory hierarchy to steady state.

The paper simulates 100M instructions per benchmark *after skipping the
initialization part*, so its caches are warm and the measured miss rates
are the programs' recurrent (capacity/conflict) miss rates. A
pure-Python cycle simulator runs 10³–10⁵ instructions, far too few for
random access patterns to cover their regions: without help, nearly every
random access would be a compulsory miss and every benchmark would look
memory bound.

:func:`prewarm` replays the profile's *address distribution* (not the
trace's actual future addresses) through the caches until they reach
steady state: every stream region is touched in full, and the random
regions are sampled several times over. The measured run then sees
exactly the recurrent misses a long-running program would: streams hit,
random accesses miss at the rate set by the region-size/cache-size
ratio.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

from repro.common.config import stable_fingerprint
from repro.common.rng import make_rng
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.generator import StaticProgram, build_static_program
from repro.workloads.profiles import WorkloadProfile

__all__ = ["prewarm", "clear_prewarm_cache"]

_SAMPLES_PER_LINE = 4  # random-region oversampling factor

#: Warmed-cache state memo, keyed on everything that determines it. A
#: campaign replays the same benchmark under many schemes, and the cache
#: geometry is scheme-independent, so the (deterministic) warming walk
#: runs once per benchmark per process; later calls restore the snapshot.
_WARM_STATE: Dict[Tuple, tuple] = {}


def clear_prewarm_cache() -> None:
    """Drop memoized warm states (tests that count accesses use this)."""
    _WARM_STATE.clear()


def prewarm(
    hierarchy: MemoryHierarchy,
    profile: WorkloadProfile,
    seed: int,
    num_int_regs: int = 32,
    num_fp_regs: int = 32,
) -> None:
    """Warm the caches of ``hierarchy`` for a run of ``profile``.

    Must be called with the same ``seed`` the trace was generated with so
    the static program (and hence the set of stream regions) matches.
    Cache statistics are reset afterwards, so the warming accesses never
    appear in any reported counter.

    The resulting cache state is deterministic in (profile, seed,
    register counts, cache geometry), so it is memoized per process:
    repeat calls restore a snapshot instead of replaying the access walk
    — bit-identical, since the snapshot captures the complete tag/LRU
    state and the statistics are reset either way.
    """
    memo_key = (
        stable_fingerprint(profile),
        seed,
        num_int_regs,
        num_fp_regs,
        hierarchy.config.icache.cache_key(),
        hierarchy.config.dcache.cache_key(),
        hierarchy.config.l2cache.cache_key(),
    )
    warmed = _WARM_STATE.get(memo_key)
    if warmed is not None:
        hierarchy.restore_state(warmed)
        return
    program: StaticProgram = build_static_program(
        profile, seed, num_int_regs, num_fp_regs
    )
    rng = make_rng(seed, f"prewarm:{profile.name}")
    # Instruction lines: every body PC, in layout order.
    hierarchy.warm(
        hierarchy.icache,
        (
            program.body_pc(body_index, slot)
            for body_index, body in enumerate(program.bodies)
            for slot in range(len(body))
        ),
    )
    hierarchy.warm(
        hierarchy.dcache,
        _data_addresses(program, profile, rng, hierarchy.config.dcache.line_bytes),
    )
    hierarchy.icache.reset_statistics()
    hierarchy.dcache.reset_statistics()
    hierarchy.l2.reset_statistics()
    _WARM_STATE[memo_key] = hierarchy.state_snapshot()


def _data_addresses(
    program: StaticProgram,
    profile: WorkloadProfile,
    rng: random.Random,
    line: int,
) -> Iterator[int]:
    """The warming walk's data addresses, generated lazily in order.

    Streams first, then the random-region samples, then the streams
    again. A generator, because the random samples alone run to 50,000
    addresses per benchmark.
    """
    ws = profile.memory.working_set_bytes
    stream_region = min(profile.memory.stream_region_bytes, ws)
    random_region = min(profile.memory.random_region_bytes, ws)
    memory_ops = [
        static for body in program.bodies for static in body if static.op.is_memory
    ]
    stream_bases = [
        program.data_base + static.addr_offset
        for static in memory_ops
        if not static.addr_random
    ]

    # Stream regions: touch every line each stream will revisit.
    for base in stream_bases:
        yield from range(base, base + stream_region, line)

    # Random regions: sample to steady state. Touching each line a few
    # times in random order leaves the LRU stacks in the stationary
    # distribution of a uniform reference stream.
    if any(static.addr_random for static in memory_ops):
        # For regions much larger than L2 the caches saturate long before
        # every line is touched; cap the work (steady state only needs
        # the LRU stacks filled with a random resident subset).
        region_lines = max(1, random_region // line)
        samples = min(_SAMPLES_PER_LINE * region_lines, 50_000)
        for __ in range(samples):
            yield program.data_base + rng.randrange(0, random_region, 4)

    # Re-touch the streams last: their steady-state residency beats the
    # random churn because they are re-referenced every iteration.
    for base in stream_bases:
        yield from range(base, base + stream_region, line)
