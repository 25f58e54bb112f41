"""Backend-contract tests: kernel table, codegen cache, SoA adapters.

Bit identity of the backends against the naive reference lives in
``tests/test_kernel_equivalence.py``; this module covers the machinery
around them — the kernel table and its error shape, the
content-addressed generated-kernel cache (warm loads perform zero
codegen, damaged files read as misses, stale ``*.tmp`` files are swept,
a changed generator digest orphans old entries), hermetic-by-default
disk gating, and the vector scoreboard's snapshot adapters.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.backends import KERNELS
from repro.backends import codegen, kernel_cache
from repro.common.config import (
    KERNEL_SPECIALIZED,
    KERNEL_VECTORIZED,
    VALID_KERNELS,
    default_config,
)
from repro.common.errors import SimulationError
from repro.core.scoreboard import Scoreboard
from repro.experiments import IF_DISTR, IQ_64_64
from repro.experiments.runner import RunScale, simulate_pair


SCALE = RunScale(num_instructions=800, warmup_instructions=400, seed=5)


@pytest.fixture
def kernel_cache_dir(tmp_path, monkeypatch):
    """A fresh kernel-cache root with a clean in-process memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    kernel_cache.clear_memo()
    yield tmp_path
    kernel_cache.clear_memo()


class TestKernelTable:
    def test_table_covers_every_valid_kernel_in_order(self):
        from repro.core import engine

        assert tuple(KERNELS) == VALID_KERNELS
        assert KERNELS["naive"] is engine.run_naive
        assert KERNELS["skip"] is engine.run_skipping

    def test_table_lookup_does_not_load_numpy(self):
        # Every run looks its kernel up here; only a vectorized run may
        # pay numpy's import time and resident memory.
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = "import sys, repro.backends; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "False"

    def test_engine_dispatch_rejects_unknown_kernel(self):
        from repro.core import engine
        from repro.core.processor import Processor
        from repro.workloads.generator import generate_trace
        from repro.workloads.suites import get_profile

        trace = generate_trace(get_profile("gzip"), 600, seed=2)
        processor = Processor(default_config(IQ_64_64), trace)
        with pytest.raises(
            SimulationError,
            match="unknown simulation kernel 'warp'; valid kernels: "
            "naive, skip, specialized, vectorized$",
        ):
            engine.run_kernel(processor, "warp", 600, 10_000, 200)


class TestKernelSpec:
    def test_spec_digest_is_stable_and_geometry_sensitive(self):
        spec_a = codegen.kernel_spec(default_config(IQ_64_64))
        spec_b = codegen.kernel_spec(default_config(IQ_64_64))
        assert codegen.spec_digest(spec_a) == codegen.spec_digest(spec_b)
        other = codegen.kernel_spec(default_config(IF_DISTR))
        assert codegen.spec_digest(spec_a) != codegen.spec_digest(other)

    def test_kernel_excluded_from_spec(self):
        # The knob selects the execution strategy; it must not fork the
        # generated kernel's identity.
        base = default_config(IQ_64_64)
        assert codegen.kernel_spec(base) == codegen.kernel_spec(
            base.with_kernel(KERNEL_SPECIALIZED)
        )


class TestCodegenCache:
    def _spec(self):
        return codegen.kernel_spec(default_config(IQ_64_64))

    def test_warm_run_performs_zero_codegen(self, kernel_cache_dir):
        spec = self._spec()
        kernel_cache.load_kernel_module(spec)
        after_cold = codegen.CODEGEN_RUNS
        # In-process memo hit: no codegen, same module object.
        first = kernel_cache.load_kernel_module(spec)
        assert kernel_cache.load_kernel_module(spec) is first
        assert codegen.CODEGEN_RUNS == after_cold
        # Simulated new process (memo dropped): served from disk, still
        # zero codegen.
        kernel_cache.clear_memo()
        warm = kernel_cache.load_kernel_module(spec)
        assert codegen.CODEGEN_RUNS == after_cold
        assert warm is not first
        assert callable(warm.make_step)

    def test_cache_file_is_content_addressed_and_headed(self, kernel_cache_dir):
        spec = self._spec()
        kernel_cache.load_kernel_module(spec)
        path = kernel_cache.kernel_path(spec)
        assert path is not None and path.is_file()
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith(kernel_cache.KERNEL_HEADER_PREFIX)

    def test_damaged_cache_file_reads_as_miss(self, kernel_cache_dir):
        spec = self._spec()
        kernel_cache.load_kernel_module(spec)
        path = kernel_cache.kernel_path(spec)
        # Flip the body without updating the content hash: the loader
        # must regenerate rather than execute tampered source.
        path.write_text(
            path.read_text(encoding="utf-8") + "\n# tampered", encoding="utf-8"
        )
        kernel_cache.clear_memo()
        before = codegen.CODEGEN_RUNS
        module = kernel_cache.load_kernel_module(spec)
        assert codegen.CODEGEN_RUNS == before + 1
        assert callable(module.make_step)
        # And the damaged file was healed by the rewrite.
        kernel_cache.clear_memo()
        kernel_cache.load_kernel_module(spec)
        assert codegen.CODEGEN_RUNS == before + 1

    def test_binary_garbage_reads_as_miss(self, kernel_cache_dir):
        spec = self._spec()
        kernel_cache.load_kernel_module(spec)
        path = kernel_cache.kernel_path(spec)
        path.write_bytes(b"\xff\xfe\x00garbage")
        kernel_cache.clear_memo()
        before = codegen.CODEGEN_RUNS
        kernel_cache.load_kernel_module(spec)
        assert codegen.CODEGEN_RUNS == before + 1

    def test_stale_generator_digest_regenerates(self, kernel_cache_dir,
                                                monkeypatch):
        spec = self._spec()
        kernel_cache.load_kernel_module(spec)
        old_path = kernel_cache.kernel_path(spec)
        before = codegen.CODEGEN_RUNS
        # An edited generator produces a new digest: cached kernels from
        # the old generator are orphaned (never served), codegen reruns.
        monkeypatch.setattr(codegen, "generator_digest", lambda: "f" * 64)
        kernel_cache.clear_memo()
        kernel_cache.load_kernel_module(spec)
        assert codegen.CODEGEN_RUNS == before + 1
        new_path = kernel_cache.kernel_path(spec)
        assert new_path.parent != old_path.parent
        assert old_path.is_file() and new_path.is_file()

    def test_stale_tmp_files_are_swept(self, kernel_cache_dir):
        kernels = kernel_cache.cache_root()
        kernels.mkdir(parents=True, exist_ok=True)
        stale = kernels / "orphan.tmp"
        stale.write_text("half-written kernel")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = kernels / "live.tmp"
        fresh.write_text("in-flight write")
        kernel_cache.load_kernel_module(self._spec())
        assert not stale.exists()
        assert fresh.exists()

    def test_no_cache_dir_stays_hermetic(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        kernel_cache.clear_memo()
        try:
            assert kernel_cache.cache_root() is None
            assert kernel_cache.kernel_path(self._spec()) is None
            module = kernel_cache.load_kernel_module(self._spec())
            assert callable(module.make_step)
            assert list(tmp_path.iterdir()) == []
        finally:
            kernel_cache.clear_memo()

    def test_specialized_run_populates_the_cache(self, kernel_cache_dir):
        stats, __ = simulate_pair(
            "gzip", IQ_64_64, SCALE, kernel=KERNEL_SPECIALIZED
        )
        assert stats.committed_instructions > 0
        cached = list(kernel_cache.cache_root().rglob("*.py"))
        assert len(cached) == 1


class TestVectorScoreboard:
    def _vector(self):
        from repro.backends.soa import VectorScoreboard

        plain = Scoreboard(8, 8, 4, 4)
        return VectorScoreboard.from_scoreboard(plain)

    def test_mirror_tracks_mutations(self):
        vsb = self._vector()
        vsb.mark_pending((False, 5))
        vsb.set_ready((True, 3), 17)
        assert vsb._vec[vsb.flat_index((True, 3))] == 17
        assert vsb._vec[vsb.flat_index((False, 5))] == vsb._int[5]
        assert vsb.is_ready((True, 3), 17)
        assert not vsb.is_ready((False, 5), 10**9)

    def test_export_restore_roundtrip_rebuilds_mirror(self):
        vsb = self._vector()
        vsb.set_ready((False, 2), 9)
        vsb.mark_pending((True, 1))
        state = vsb.export_state()
        assert all(isinstance(v, int) for v in state["int"] + state["fp"])
        other = self._vector()
        other.restore_state(state)
        assert other.export_state() == state
        assert list(other._vec[: other._n_int]) == state["int"]
        assert other._vec[other.sentinel_index] == 0

    def test_install_is_idempotent(self):
        from repro.backends.vectorized import install_vector_state
        from repro.core.processor import Processor
        from repro.workloads.generator import generate_trace
        from repro.workloads.suites import get_profile

        trace = generate_trace(get_profile("gzip"), 600, seed=2)
        processor = Processor(default_config(IQ_64_64), trace)
        install_vector_state(processor)
        scoreboard = processor.scoreboard
        install_vector_state(processor)
        assert processor.scoreboard is scoreboard
