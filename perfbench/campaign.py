"""One cold Section 4 campaign in a fresh process.

``perfbench/run.py`` starts this module once per repetition of the
``cold-campaign`` and ``sampled-campaign`` workloads, so each repetition
begins with empty process memos (traces, prewarm snapshots, compiled
kernels) and an empty result store. It prints one JSON object on its
last stdout line:

``ready``       wall-clock time (``time.time()``) when set-up ended and
                the first simulation was about to start;
``wall_s``      the timed region: every pair resolved through
                ``ExperimentRunner.run`` (store on, serial, default
                kernel), then ``run_campaign`` rendering Figures 7-15;
``latency_s``   per-pair resolution times, in matrix order;
``rss_mb``      peak RSS of this process after the timed region;
``digest``      SHA-256 over every pair's statistics (and sampled
                estimate record) plus the rendered figure text;
``check``       the output check, made after the timed region: a seeded
                sample of pairs re-simulated under the ``naive`` reference
                kernel must give identical statistics (and estimates);
``layers``      with ``--trace-dir``: the per-layer metrics of the traced
                timed region plus ``core.kernel_s.<kernel>`` from a
                probe of the sampled pairs under every kernel.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.campaign --mode full|sampled --scale N --seed N
        --store DIR [--check-pairs K] [--trace-dir DIR] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

#: The Section 4 matrix: 26 SPEC benchmarks x IQ_64_64, IssueFIFO-distr
#: and MixBUFF-distr, as Figures 7-15 need it.
FIGURES = list(range(7, 16))


def stats_payload(runner, pairs):
    """Every pair's statistics (and estimate record) as plain dicts.

    An estimate record's ``detailed_cycles`` counts the cycles the kernel
    executed, which differs between kernels by design; it is left out.
    """
    payload = []
    for benchmark, scheme in pairs:
        entry = {"stats": runner.run(benchmark, scheme).to_dict()}
        sampled = runner.sampled_result(benchmark, scheme)
        if sampled is not None:
            entry["sampled"] = sampled.to_dict()
            del entry["sampled"]["detailed_cycles"]
        payload.append(entry)
    return payload


def digest(payload, rendered) -> str:
    """SHA-256 of the campaign's statistics payload and rendered text."""
    blob = json.dumps({"pairs": payload, "figures": rendered}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_pairs(pairs, count: int, seed: int):
    """The seeded sample of pairs the output check re-simulates."""
    return random.Random(seed).sample(list(pairs), min(count, len(pairs)))


def mismatched_pairs(measured, sample, reference):
    """Labels of the sampled pairs whose measured payload differs from
    the reference payload (``reference`` is in ``sample`` order)."""
    from repro.common.config import scheme_name

    return [
        f"{benchmark}/{scheme_name(scheme)}"
        for (benchmark, scheme), expected in zip(sample, reference)
        if measured[(benchmark, scheme)] != expected
    ]


def main(argv=None) -> int:
    started = time.time()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("full", "sampled"), required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=str, required=True)
    parser.add_argument("--check-pairs", type=int, default=0)
    parser.add_argument("--trace-dir", type=str, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.common.config import VALID_KERNELS
    from repro.experiments import figures as fig_mod
    from repro.experiments.campaign import run_campaign
    from repro.experiments.runner import ExperimentRunner, RunScale
    from repro.experiments.store import ResultStore
    from repro.sampling import SamplingPlan

    scale = RunScale(
        num_instructions=args.scale,
        warmup_instructions=args.scale // 2,
        seed=args.seed,
    )
    plan = SamplingPlan() if args.mode == "sampled" else None
    pairs = fig_mod.required_runs(FIGURES)
    runner = ExperimentRunner(
        scale, store=ResultStore(args.store), workers=0, sampling=plan
    )
    traced = args.trace_dir is not None
    if traced:
        from perfbench import layers

        layers.install()
        obs.configure(args.trace_dir)
    ready = time.time()
    result = {"started": started, "ready": ready, "pairs": len(pairs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    latencies = []
    begin = time.perf_counter()
    with obs.span("experiments.campaign") if traced else nullcontext():
        for benchmark, scheme in pairs:
            tick = time.perf_counter()
            runner.run(benchmark, scheme)
            latencies.append(time.perf_counter() - tick)
        rendered = run_campaign(runner, FIGURES)
    result["wall_s"] = time.perf_counter() - begin
    result["latency_s"] = latencies
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = stats_payload(runner, pairs)
    result["digest"] = digest(payload, rendered)
    if plan is not None:
        detailed = sum(entry["sampled"]["detailed_instructions"] for entry in payload)
        result["detailed_fraction"] = detailed / (len(pairs) * args.scale)
    else:
        result["detailed_fraction"] = 1.0

    sample = check_pairs(pairs, args.check_pairs, args.seed)
    reference = ExperimentRunner(scale, store=False, kernel="naive", sampling=plan)
    result["check"] = {
        "attempted": len(sample),
        "mismatched": mismatched_pairs(
            dict(zip(pairs, payload)), sample, stats_payload(reference, sample)
        ),
    }

    if traced:
        from perfbench import layers

        with obs.span(layers.PROBE_SPAN):
            for kernel in VALID_KERNELS:
                probe = ExperimentRunner(scale, store=False, kernel=kernel,
                                         sampling=plan)
                probe.run_many(sample)
        path = obs.get_tracer().flush()
        obs.disable()
        events = json.loads(Path(path).read_text(encoding="utf-8"))["traceEvents"]
        metrics = layers.layer_metrics(events)
        metrics.update(layers.kernel_seconds(events, VALID_KERNELS))
        metrics["sampling.detailed_fraction"] = result["detailed_fraction"]
        result["layers"] = metrics
        result["trace_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
