"""Units of the per-layer metrics the traced runs report.

``perfbench/layers.py`` and ``perfbench/run.py`` produce these names;
``BENCHMARK.json`` lists the same set under ``per_layer``.
"""

from __future__ import annotations

PER_LAYER_UNITS = {
    "workloads.trace_s": "s",
    "workloads.trace_calls": "count",
    "workloads.prewarm_s": "s",
    "core.construct_s": "s",
    "core.construct_calls": "count",
    "core.kernel_s": "s",
    "core.kernel_ns_per_cycle": "ns",
    "core.executed_cycles": "count",
    "core.skipped_cycles": "count",
    "core.skip_ratio": "ratio",
    "core.kernel_s.naive": "s",
    "core.kernel_s.skip": "s",
    "core.kernel_s.vectorized": "s",
    "core.kernel_s.specialized": "s",
    "sampling.ffwd_s": "s",
    "sampling.slice_s": "s",
    "sampling.restore_s": "s",
    "sampling.estimate_s": "s",
    "sampling.checkpoint_read_s": "s",
    "sampling.checkpoint_write_s": "s",
    "sampling.checkpoint_hit_ratio": "ratio",
    "sampling.detailed_fraction": "ratio",
    "experiments.result_key_s": "s",
    "experiments.store_save_s": "s",
    "experiments.store_load_s": "s",
    "experiments.figures_s": "s",
    "experiments.runner_self_s": "s",
    "http.post_ms": "ms",
    "serve.wait_ms": "ms",
    "http.artifact_ms": "ms",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.wait_over_poll_ratio": "ratio",
    "scheduler.hit_ratio": "ratio",
    "scheduler.coalesced_ratio": "ratio",
    "scheduler.simulated": "count",
    "scheduler.batches": "count",
    "scheduler.units_per_batch": "count",
    "obs.trace_overhead_pct": "%",
    "obs.span_coverage_pct": "%",
}
