"""Traced-run instrumentation: spans around each layer's public calls.

:func:`install` replaces a fixed set of module and class attributes of
the ``repro`` package with wrappers that time each call in a
:mod:`repro.obs` span, so the benchmark and the program share one span
vocabulary. Nothing under ``src/`` changes; the wrappers live only in a
traced benchmark process. :func:`layer_metrics` turns the recorded
spans into the per-layer metrics of ``BENCHMARK.json``.

Span names (``<layer>.<what>``)::

    workloads.trace        generate_trace
    workloads.prewarm      prewarm (runner and functional warmer)
    core.construct         Processor.__init__
    core.kernel            engine.run_kernel (args: kernel, executed, skipped)
    sampling.ffwd          FunctionalWarmer.state_at
    sampling.slice         slice_trace
    sampling.restore       MemoryHierarchy / HybridBranchPredictor.restore_state
                           (outside prewarm, whose memo restores count there)
    sampling.estimate      estimate_sampled
    sampling.checkpoint_read / _write   CheckpointStore.load / save (args: hit)
    experiments.result_key result_key
    experiments.store_load / _save      ResultStore.load_with_extra / save
    experiments.figures    figure generators, export and text rendering

The program's own ``runner.*`` spans appear beside them.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, List, Optional, Sequence

from perfbench import spans

#: Prefixes of the spans that attribute time to a layer.
LAYER_PREFIXES = ("workloads.", "core.", "sampling.", "experiments.")
#: The benchmark's own span around a campaign's timed region.
ROOT_SPAN = "experiments.campaign"
#: The benchmark's own span around the per-kernel probe.
PROBE_SPAN = "perfbench.kernel_probe"

_local = threading.local()
_installed = False


def _in_prewarm() -> bool:
    return getattr(_local, "prewarm", 0) > 0


def _wrap(owner, attr: str, name: str,
          annotate: Optional[Callable] = None,
          when: Optional[Callable[[], bool]] = None) -> None:
    from repro import obs

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if when is not None and not when():
            return original(*args, **kwargs)
        with obs.span(name) as info:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(info, args, result)
            return result

    setattr(owner, attr, wrapper)


def _wrap_prewarm(owner) -> None:
    original = owner.prewarm

    @functools.wraps(original)
    def counted(*args, **kwargs):
        _local.prewarm = getattr(_local, "prewarm", 0) + 1
        try:
            return original(*args, **kwargs)
        finally:
            _local.prewarm -= 1

    owner.prewarm = counted
    _wrap(owner, "prewarm", "workloads.prewarm")


def _kernel_info(info, args, result) -> None:
    processor, kernel = args[0], args[1]
    info["kernel"] = kernel
    info["executed"] = processor.kernel_telemetry.executed_cycles
    info["skipped"] = processor.kernel_telemetry.skipped_cycles


def _checkpoint_info(info, args, result) -> None:
    info["hit"] = result is not None


def install() -> None:
    """Wrap every layer entry point once per process."""
    global _installed
    if _installed:
        return
    _installed = True
    from repro.core import engine
    from repro.core.processor import Processor
    from repro.experiments import campaign, figures, runner
    from repro.experiments.store import ResultStore
    from repro.frontend.branch_predictor import HybridBranchPredictor
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.sampling import checkpoints, estimator, ffwd
    from repro.serve import units

    _wrap(runner, "generate_trace", "workloads.trace")
    _wrap_prewarm(runner)
    _wrap_prewarm(ffwd)
    _wrap(Processor, "__init__", "core.construct")
    _wrap(engine, "run_kernel", "core.kernel", annotate=_kernel_info)
    _wrap(ffwd.FunctionalWarmer, "state_at", "sampling.ffwd")
    _wrap(ffwd, "slice_trace", "sampling.slice")
    for owner in (MemoryHierarchy, HybridBranchPredictor):
        _wrap(owner, "restore_state", "sampling.restore",
              when=lambda: not _in_prewarm())
    _wrap(estimator, "estimate_sampled", "sampling.estimate")
    _wrap(checkpoints.CheckpointStore, "load", "sampling.checkpoint_read",
          annotate=_checkpoint_info)
    _wrap(checkpoints.CheckpointStore, "save", "sampling.checkpoint_write")
    _wrap(runner, "result_key", "experiments.result_key")
    _wrap(units, "result_key", "experiments.result_key")
    _wrap(ResultStore, "load_with_extra", "experiments.store_load")
    _wrap(ResultStore, "save", "experiments.store_save")
    for number in campaign.ALL_FIGURES:
        _wrap(figures, f"figure{number}", "experiments.figures")
    for render in ("render_series", "render_breakdown", "render_table",
                   "export_campaign"):
        _wrap(campaign, render, "experiments.figures")


def _is_layer(name: str) -> bool:
    return name.startswith(LAYER_PREFIXES) and name != ROOT_SPAN


def layer_metrics(events: Sequence[Dict]) -> Dict[str, float]:
    """Per-layer metrics from the spans inside the campaign root spans.

    Without a root span (the server's trace) every span counts. Seconds
    are self time, so the layers partition the measured wall time;
    ``experiments.runner_self_s`` is what the runner's own ``runner.*``
    spans and the root spend outside every named layer.
    """
    roots = [event for event in events if event["name"] == ROOT_SPAN]
    inside: List[Dict] = [] if roots else list(events)
    covered = 0.0
    wall = 0.0
    for root in roots:
        members = [root] + spans.within(events, root)
        inside.extend(members)
        wall += root["dur"]
        covered += root["dur"] * spans.coverage(
            root, [e for e in members if _is_layer(e["name"])]
        )
    own = spans.self_times(inside)
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    executed = skipped = 0
    reads = hits = 0
    for event, self_us in zip(inside, own):
        name = event["name"]
        if name.startswith("runner.") or name == ROOT_SPAN:
            name = "experiments.runner_self"
        seconds[name] = seconds.get(name, 0.0) + self_us / 1e6
        counts[name] = counts.get(name, 0) + 1
        args = event.get("args", {})
        if name == "core.kernel":
            executed += int(args.get("executed", 0))
            skipped += int(args.get("skipped", 0))
        elif name == "sampling.checkpoint_read":
            reads += 1
            hits += bool(args.get("hit"))
    kernel_s = seconds.get("core.kernel", 0.0)
    metrics = {
        "workloads.trace_s": seconds.get("workloads.trace", 0.0),
        "workloads.trace_calls": counts.get("workloads.trace", 0),
        "workloads.prewarm_s": seconds.get("workloads.prewarm", 0.0),
        "core.construct_s": seconds.get("core.construct", 0.0),
        "core.construct_calls": counts.get("core.construct", 0),
        "core.kernel_s": kernel_s,
        "core.kernel_ns_per_cycle": kernel_s * 1e9 / executed if executed else 0.0,
        "core.executed_cycles": executed,
        "core.skipped_cycles": skipped,
        "core.skip_ratio": skipped / (executed + skipped) if executed + skipped else 0.0,
        "sampling.checkpoint_hit_ratio": hits / reads if reads else 0.0,
        "obs.span_coverage_pct": 100.0 * covered / wall if wall else 0.0,
    }
    for name in ("ffwd", "slice", "restore", "estimate",
                 "checkpoint_read", "checkpoint_write"):
        metrics[f"sampling.{name}_s"] = seconds.get(f"sampling.{name}", 0.0)
    for name in ("result_key", "store_save", "store_load", "figures",
                 "runner_self"):
        metrics[f"experiments.{name}_s"] = seconds.get(f"experiments.{name}", 0.0)
    return metrics


def kernel_seconds(events: Sequence[Dict], kernels: Sequence[str]) -> Dict[str, float]:
    """``core.kernel_s.<kernel>``: kernel time per kernel inside probe spans."""
    result = {f"core.kernel_s.{kernel}": 0.0 for kernel in kernels}
    for root in (e for e in events if e["name"] == PROBE_SPAN):
        for event in spans.within(events, root):
            if event["name"] == "core.kernel":
                key = f"core.kernel_s.{event['args'].get('kernel')}"
                if key in result:
                    result[key] += event["dur"] / 1e6
    return result
