"""Differential net for every non-reference simulation kernel.

Each kernel's contract is *bit-identical statistics* with the naive
per-cycle loop on every input — the skipping kernel accounts skipped
spans in closed form, the ``vectorized`` backend re-hosts hot state as
numpy arrays, and the ``specialized`` backend runs a per-configuration
generated kernel; none may change a single reported number. These tests
drive all of them over a randomized matrix of (benchmark, scale, seed)
x all four issue schemes (stress profiles included) and require
field-for-field equality of ``SimulationStats`` (events included), plus
sanity checks on kernel telemetry, drain-span and sampled-slice
behaviour, and the cache-key neutrality of the kernel knob.
"""

import random

import pytest

from repro.common import faults
from repro.common.config import (
    KERNEL_NAIVE,
    KERNEL_SKIP,
    KERNEL_SPECIALIZED,
    KERNEL_VECTORIZED,
    VALID_KERNELS,
    IssueSchemeConfig,
    default_config,
)
from repro.common.errors import ConfigurationError
from repro.core.processor import Processor
from repro.experiments import IF_DISTR, IQ_64_64, MB_DISTR
from repro.experiments.runner import (
    RunScale,
    simulate_pair,
    simulate_sampled_pair,
)
from repro.sampling import SamplingPlan
from repro.workloads.generator import generate_trace
from repro.workloads.prewarm import prewarm
from repro.workloads.suites import STRESS_BENCHMARKS, get_profile

#: Every kernel that must be differenced against the naive reference.
NON_NAIVE_KERNELS = (KERNEL_SKIP, KERNEL_VECTORIZED, KERNEL_SPECIALIZED)

LATFIFO_8x8_8x16 = IssueSchemeConfig(
    kind="latfifo", int_queues=8, int_queue_entries=8,
    fp_queues=8, fp_queue_entries=16,
)

ALL_SCHEMES = {
    "conventional": IQ_64_64,
    "issuefifo": IF_DISTR,
    "latfifo": LATFIFO_8x8_8x16,
    "mixbuff": MB_DISTR,
}

# A deterministic but randomized run matrix: mixed suites, scales with
# and without warm-up, memory-bound (mcf/art) and compute-bound points.
_RNG = random.Random(0xA6E11A)
RUN_MATRIX = [
    (benchmark, _RNG.choice((800, 1200, 2000)), _RNG.randrange(1, 1000))
    for benchmark in ("mcf", "gzip", "art", "mesa", "swim")
]


def _run(benchmark: str, num_instructions: int, seed: int,
         scheme: IssueSchemeConfig, kernel: str):
    profile = get_profile(benchmark)
    trace = generate_trace(profile, num_instructions, seed=seed)
    processor = Processor(default_config(scheme).with_kernel(kernel), trace)
    prewarm(processor.hierarchy, profile, seed)
    stats = processor.run(warmup_instructions=num_instructions // 3)
    return stats, processor


#: Naive reference results, memoized per matrix point: three kernels
#: difference against the same reference, so running it three times
#: would triple the slowest third of the suite for no extra coverage.
_NAIVE_MEMO = {}


def _naive_dict(benchmark, num_instructions, seed, scheme_name):
    key = (benchmark, num_instructions, seed, scheme_name)
    if key not in _NAIVE_MEMO:
        stats, __ = _run(benchmark, num_instructions, seed,
                         ALL_SCHEMES[scheme_name], KERNEL_NAIVE)
        _NAIVE_MEMO[key] = stats.to_dict()
    return _NAIVE_MEMO[key]


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    @pytest.mark.parametrize("bench,length,seed", RUN_MATRIX)
    def test_bit_identical_stats(self, kernel, scheme_name, bench, length,
                                 seed):
        scheme = ALL_SCHEMES[scheme_name]
        candidate, __ = _run(bench, length, seed, scheme, kernel)
        assert _naive_dict(bench, length, seed, scheme_name) == (
            candidate.to_dict()
        )

    def test_no_warmup_also_identical(self):
        profile = get_profile("mcf")
        trace = generate_trace(profile, 900, seed=3)
        results = {}
        for kernel in (KERNEL_NAIVE, KERNEL_SKIP):
            processor = Processor(default_config(IQ_64_64).with_kernel(kernel), trace)
            prewarm(processor.hierarchy, profile, 3)
            results[kernel] = processor.run().to_dict()
        assert results[KERNEL_NAIVE] == results[KERNEL_SKIP]


# The exploration stress scenarios exercise behaviours (serial pointer
# chasing, hostile branches, maximal chain churn, phase mixing) outside
# the SPEC stand-ins' envelope; the skip kernel must stay bit-identical
# there too (ROADMAP "keeping new components skip-safe").
STRESS_MATRIX = [
    (benchmark, _RNG.choice((800, 1200)), _RNG.randrange(1, 1000))
    for benchmark in STRESS_BENCHMARKS
]


class TestStressProfileKernelEquivalence:
    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    @pytest.mark.parametrize("bench,length,seed", STRESS_MATRIX)
    def test_bit_identical_stats(self, kernel, scheme_name, bench, length,
                                 seed):
        scheme = ALL_SCHEMES[scheme_name]
        candidate, __ = _run(bench, length, seed, scheme, kernel)
        assert _naive_dict(bench, length, seed, scheme_name) == (
            candidate.to_dict()
        )

    def test_skip_kernel_skips_on_pointer_chasing(self):
        # ptrchase is the repo's best case for cycle skipping: long
        # memory-bound drains with a quiescent machine.
        __, processor = _run("ptrchase", 1200, 11, IQ_64_64, KERNEL_SKIP)
        telemetry = processor.kernel_telemetry
        assert telemetry.skipped_cycles > 0
        assert telemetry.total_cycles == (
            telemetry.executed_cycles + telemetry.skipped_cycles
        )


class TestReadyBoundShortCircuit:
    """The conventional scheme's ready-bound scan skip is bit-identical.

    The optimization elides the full-queue selection scan on cycles where
    the cached ready bound proves nothing can issue; disabling it must
    not change a single statistic under either kernel.
    """

    @pytest.mark.parametrize("kernel", (KERNEL_NAIVE, KERNEL_SKIP))
    @pytest.mark.parametrize("bench,length,seed", RUN_MATRIX)
    def test_shortcircuit_matches_plain_scan(self, monkeypatch, kernel,
                                             bench, length, seed):
        from repro.issue.conventional import ConventionalIssueQueue

        optimized, __ = _run(bench, length, seed, IQ_64_64, kernel)
        monkeypatch.setattr(ConventionalIssueQueue, "_scan_shortcircuit", False)
        plain, __ = _run(bench, length, seed, IQ_64_64, kernel)
        assert optimized.to_dict() == plain.to_dict()

    def test_unbounded_baseline_also_identical(self, monkeypatch):
        from repro.experiments.configs import BASELINE_UNBOUNDED
        from repro.issue.conventional import ConventionalIssueQueue

        optimized, __ = _run("swim", 1200, 7, BASELINE_UNBOUNDED, KERNEL_SKIP)
        monkeypatch.setattr(ConventionalIssueQueue, "_scan_shortcircuit", False)
        plain, __ = _run("swim", 1200, 7, BASELINE_UNBOUNDED, KERNEL_SKIP)
        assert optimized.to_dict() == plain.to_dict()


class TestBroadcastDrainSpans:
    """Closed-form accounting of pure-broadcast drain spans.

    The skipping kernel defers result broadcasts off the event wheel
    while no waiting instruction can wake (the scheme's
    ``next_wakeup_cycle`` contract) and replays their wakeup accounting
    in closed form. The differential matrices above already pin
    bit-identity; these tests pin that the optimization actually
    engages and that its telemetry is consistent.
    """

    def test_drain_engages_across_the_matrix(self):
        # The optimization fires on drains where every in-flight
        # completion has already left the queues; require it somewhere
        # in the matrix so a regression to "never drains" is caught.
        drained = 0
        for bench, length, seed in RUN_MATRIX:
            for scheme in ALL_SCHEMES.values():
                __, processor = _run(bench, length, seed, scheme, KERNEL_SKIP)
                telemetry = processor.kernel_telemetry
                drained += telemetry.drained_broadcasts
                # A drained broadcast only ever rides a skipped span.
                if telemetry.drained_broadcasts:
                    assert telemetry.skip_spans > 0
        assert drained > 0

    def test_naive_kernel_never_drains(self):
        __, processor = _run("mcf", 2000, 11, IQ_64_64, KERNEL_NAIVE)
        assert processor.kernel_telemetry.drained_broadcasts == 0

    @pytest.mark.parametrize("kernel", (KERNEL_VECTORIZED, KERNEL_SPECIALIZED))
    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    def test_backend_drain_spans_match_skip(self, kernel, scheme_name):
        # The backends host the same event-driven driver, so on the
        # repo's best skipping case their span decisions — executed,
        # skipped, span count AND closed-form drained broadcasts — must
        # be cycle-for-cycle the ones the skip kernel makes.
        scheme = ALL_SCHEMES[scheme_name]
        __, skip_proc = _run("ptrchase", 1200, 11, scheme, KERNEL_SKIP)
        __, backend_proc = _run("ptrchase", 1200, 11, scheme, kernel)
        assert skip_proc.kernel_telemetry.as_dict() == (
            backend_proc.kernel_telemetry.as_dict()
        )
        assert backend_proc.kernel_telemetry.skipped_cycles > 0

    def test_wakeup_bound_never_precedes_first_broadcast(self):
        # next_wakeup_cycle returns a *scheduled* readiness transition,
        # and every scheduled transition rides a pending broadcast —
        # so deferral can never move an event earlier than the wheel
        # had it (the soundness invariant of the drain).
        from repro.workloads.generator import generate_trace
        from repro.workloads.prewarm import prewarm as _prewarm

        profile = get_profile("mesa")
        trace = generate_trace(profile, 1200, seed=5)
        processor = Processor(default_config(IQ_64_64), trace)
        _prewarm(processor.hierarchy, profile, 5)

        original = Processor.next_event_cycle

        def checked(self, cycle, defer_inert_broadcasts=False):
            if defer_inert_broadcasts and self._broadcasts:
                wake = self.scheme.next_wakeup_cycle(cycle, self.scoreboard)
                if wake is not None:
                    assert wake >= min(self._broadcasts)
            return original(self, cycle, defer_inert_broadcasts)

        Processor.next_event_cycle = checked
        try:
            processor.run(warmup_instructions=400)
        finally:
            Processor.next_event_cycle = original

    def test_base_scheme_contract_disables_deferral_soundly(self, monkeypatch):
        # A scheme that has not audited its selection logic inherits the
        # base next_wakeup_cycle of "wake immediately": broadcasts stay
        # on the wheel (no drains) and results remain bit-identical.
        import repro.issue.base as base_mod
        import repro.issue.conventional as conv
        from repro.issue.base import IssueScheme

        results = {}
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(
                    conv.ConventionalIssueQueue,
                    "next_wakeup_cycle",
                    IssueScheme.next_wakeup_cycle,
                )
                monkeypatch.setattr(
                    base_mod.SideIdleCountersMixin,
                    "next_wakeup_cycle",
                    IssueScheme.next_wakeup_cycle,
                )
            for name, scheme in ALL_SCHEMES.items():
                stats, proc = _run("mcf", 1200, 3, scheme, KERNEL_SKIP)
                results.setdefault(name, []).append(stats.to_dict())
                if patched:
                    assert proc.kernel_telemetry.drained_broadcasts == 0
        for name, (optimized, plain) in results.items():
            assert optimized == plain, name


class TestOneSkipLoop:
    """``vectorized`` and ``specialized`` run ``engine.run_skipping``.

    The armed ``SKIP_IDLE_UNDERCOUNT`` fault lives only in that loop, so
    on a pair with skip spans longer than 8 cycles it must move every
    skipping kernel's stats away from ``naive`` — and identically.
    """

    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    def test_armed_fault_reaches_every_skipping_kernel(self, monkeypatch,
                                                       scheme_name):
        monkeypatch.setenv(faults.ENV_VAR, faults.SKIP_IDLE_UNDERCOUNT)
        scheme = ALL_SCHEMES[scheme_name]
        results = {
            kernel: _run("mcf", 2000, 11, scheme, kernel)[0].to_dict()
            for kernel in VALID_KERNELS
        }
        assert results[KERNEL_SKIP] != results[KERNEL_NAIVE]
        for kernel in (KERNEL_VECTORIZED, KERNEL_SPECIALIZED):
            assert results[kernel] == results[KERNEL_SKIP], kernel


class TestKernelTelemetry:
    def test_skip_kernel_actually_skips_on_memory_bound_run(self):
        __, processor = _run("mcf", 2000, 11, IQ_64_64, KERNEL_SKIP)
        telemetry = processor.kernel_telemetry
        assert telemetry.skipped_cycles > 0
        assert telemetry.skip_spans > 0
        assert telemetry.total_cycles == (
            telemetry.executed_cycles + telemetry.skipped_cycles
        )

    def test_naive_kernel_never_skips(self):
        stats, processor = _run("mcf", 2000, 11, IQ_64_64, KERNEL_NAIVE)
        telemetry = processor.kernel_telemetry
        assert telemetry.skipped_cycles == 0
        assert telemetry.skip_spans == 0

    def test_total_cycles_match_between_kernels(self):
        naive_stats, naive_proc = _run("art", 1200, 5, MB_DISTR, KERNEL_NAIVE)
        skip_stats, skip_proc = _run("art", 1200, 5, MB_DISTR, KERNEL_SKIP)
        assert (
            naive_proc.kernel_telemetry.total_cycles
            == skip_proc.kernel_telemetry.total_cycles
        )
        assert naive_stats.cycles == skip_stats.cycles


class TestSampledSliceKernelEquivalence:
    """Sampled execution drives its detailed slices through the kernel
    knob too; every backend must produce the identical estimate."""

    PLAN = SamplingPlan(num_slices=3, slice_instructions=150,
                        warmup_instructions=100)
    SCALE = RunScale(num_instructions=2000, warmup_instructions=1000, seed=9)

    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    def test_sampled_estimates_bit_identical(self, kernel):
        reference, __ = simulate_sampled_pair(
            "art", IF_DISTR, self.SCALE, self.PLAN, kernel=KERNEL_NAIVE
        )
        candidate, __ = simulate_sampled_pair(
            "art", IF_DISTR, self.SCALE, self.PLAN, kernel=kernel
        )
        assert reference.stats.to_dict() == candidate.stats.to_dict()
        # The estimate record is identical too, except detailed_cycles —
        # that field is wall-work telemetry (cycles actually executed in
        # the detailed windows), which event-driven kernels legitimately
        # shrink; it feeds no statistic.
        ref_record = reference.to_dict()
        cand_record = candidate.to_dict()
        executed = cand_record.pop("detailed_cycles")
        assert executed <= ref_record.pop("detailed_cycles")
        assert ref_record == cand_record


class TestKernelKnob:
    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    def test_kernel_field_excluded_from_cache_key(self, kernel):
        base = default_config(IQ_64_64)
        assert base.with_kernel(KERNEL_NAIVE).cache_key() == (
            base.with_kernel(kernel).cache_key()
        )

    @pytest.mark.parametrize("kernel", sorted(VALID_KERNELS))
    def test_every_registered_kernel_validates(self, kernel):
        default_config(IQ_64_64).with_kernel(kernel).validate()

    def test_other_fields_still_change_the_key(self):
        base = default_config(IQ_64_64)
        assert base.cache_key() != default_config(IF_DISTR).cache_key()

    def test_invalid_kernel_rejected(self):
        config = default_config(IQ_64_64).with_kernel("warp")
        with pytest.raises(ConfigurationError):
            config.validate()

    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    def test_simulate_pair_kernel_override_is_bit_identical(self, kernel):
        scale = RunScale(num_instructions=1200, warmup_instructions=600, seed=9)
        naive, __ = simulate_pair("gzip", IF_DISTR, scale, kernel=KERNEL_NAIVE)
        other, __ = simulate_pair("gzip", IF_DISTR, scale, kernel=kernel)
        assert naive.to_dict() == other.to_dict()
