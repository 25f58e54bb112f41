"""Tests for the cache pre-warming pass."""

import pytest

from repro.common.config import default_config
from repro.common.rng import make_rng
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.generator import build_static_program
from repro.workloads.prewarm import clear_prewarm_cache, prewarm
from repro.workloads.suites import get_profile


def reference_walk(hierarchy, profile, seed):
    """The warming walk spelled out one latency call per access."""
    program = build_static_program(profile, seed)
    rng = make_rng(seed, f"prewarm:{profile.name}")
    line = hierarchy.config.dcache.line_bytes
    ws = profile.memory.working_set_bytes
    stream_region = min(profile.memory.stream_region_bytes, ws)
    random_region = min(profile.memory.random_region_bytes, ws)
    for body_index, body in enumerate(program.bodies):
        for slot in range(len(body)):
            hierarchy.instruction_fetch_latency(program.body_pc(body_index, slot))
    memory_ops = [s for body in program.bodies for s in body if s.op.is_memory]
    streams = [s for s in memory_ops if not s.addr_random]
    for static in streams:
        for offset in range(0, stream_region, line):
            hierarchy.data_access_latency(program.data_base + static.addr_offset + offset)
    if any(s.addr_random for s in memory_ops):
        samples = min(4 * max(1, random_region // line), 50_000)
        for __ in range(samples):
            hierarchy.data_access_latency(
                program.data_base + rng.randrange(0, random_region, 4)
            )
    for static in streams:
        for offset in range(0, stream_region, line):
            hierarchy.data_access_latency(program.data_base + static.addr_offset + offset)


class TestPrewarm:
    def test_statistics_are_reset(self):
        hierarchy = MemoryHierarchy(default_config())
        prewarm(hierarchy, get_profile("gzip"), seed=3)
        assert hierarchy.dcache.accesses == 0
        assert hierarchy.icache.accesses == 0
        assert hierarchy.l2.accesses == 0

    def test_instruction_lines_warm(self):
        hierarchy = MemoryHierarchy(default_config())
        profile = get_profile("gzip")
        prewarm(hierarchy, profile, seed=3)
        program = build_static_program(profile, 3)
        for slot in range(len(program.bodies[0])):
            assert hierarchy.icache.probe(program.body_pc(0, slot))

    def test_stream_lines_resident_in_l1(self):
        hierarchy = MemoryHierarchy(default_config())
        profile = get_profile("gzip")
        prewarm(hierarchy, profile, seed=3)
        program = build_static_program(profile, 3)
        hits = 0
        total = 0
        for static in program.bodies[0]:
            if static.op.is_memory and not static.addr_random:
                total += 1
                if hierarchy.dcache.probe(program.data_base + static.addr_offset):
                    hits += 1
        assert total > 0
        assert hits / total > 0.8  # streams re-touched last stay resident

    def test_random_region_warm_in_l2(self):
        hierarchy = MemoryHierarchy(default_config())
        profile = get_profile("vortex")  # 64 KB random region
        prewarm(hierarchy, profile, seed=3)
        # Sample the random region: most lines should be in L2 (region
        # fits) even if L1 evicted them.
        resident = sum(
            1
            for offset in range(0, 64 * 1024, 1024)
            if hierarchy.l2.probe(0x1000_0000 + offset)
            or hierarchy.dcache.probe(0x1000_0000 + offset)
        )
        assert resident >= 48  # out of 64 samples

    def test_deterministic(self):
        results = []
        for __ in range(2):
            hierarchy = MemoryHierarchy(default_config())
            prewarm(hierarchy, get_profile("swim"), seed=9)
            results.append(hierarchy.dcache.contents_summary())
        assert results[0] == results[1]


class TestFlatWalk:
    @pytest.mark.parametrize("name", ["gcc", "swim", "ptrchase"])
    def test_matches_per_access_reference(self, name):
        profile = get_profile(name)
        clear_prewarm_cache()
        flat = MemoryHierarchy(default_config())
        prewarm(flat, profile, seed=5)
        reference = MemoryHierarchy(default_config())
        reference_walk(reference, profile, seed=5)
        assert reference.dcache.accesses > 0
        assert flat.state_snapshot() == reference.state_snapshot()
        for cache in (flat.icache, flat.dcache, flat.l2):
            assert (cache.accesses, cache.hits, cache.misses) == (0, 0, 0)

    def test_cache_warm_yields_misses_in_order(self):
        cache = MemoryHierarchy(default_config()).dcache
        line = cache.config.line_bytes
        missed = list(cache.warm([0, 4, line, 0, 2 * line]))
        assert missed == [0, line, 2 * line]
        assert cache.accesses == 0
