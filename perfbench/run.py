"""Benchmark of the campaign stack: three workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each was chosen):

``cold-campaign``     Figures 7-15 (26 benchmarks x IQ_64_64, IssueFIFO-distr,
                      MixBUFF-distr = 78 pairs), full detailed simulation,
                      default kernel, serial, store on; scale 2000.
``sampled-campaign``  the same matrix in sampled mode under the default
                      ``SamplingPlan``; scale 10000.
``serve-mix``         a seeded closed-loop job mix against ``python -m
                      repro.serve --workers 0``; scale 2000.

Every campaign repetition runs in a fresh process with an empty store in
a fresh directory under ``.perfbench/``; repetitions continue while the
next one is expected to end within ``--seconds`` (at least one runs).
``serve-mix`` runs for ``--seconds`` and until 1000 jobs completed. The
seed makes every input: the trace seed of every simulation and the serve
job sequence.

With ``--trace 0`` the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end ``metrics``.
With ``--trace 1`` the run measures once untraced and once traced (spans
recorded by ``perfbench/layers.py``), reports the per-layer metrics and
writes the traced run's Chrome ``trace_event`` JSON to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: make the ``perfbench`` package importable.
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.metrics import PER_LAYER_UNITS  # noqa: E402
from perfbench.serve_load import (  # noqa: E402
    EVENT_POLL_SECONDS,
    Server,
    http,
    job_sequence,
    median,
    percentile,
    run_load,
    sequence_digest,
)

SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CAMPAIGNS = {
    "cold-campaign": {"mode": "full", "scale": 2000, "check_pairs": 4},
    "sampled-campaign": {"mode": "sampled", "scale": 10000, "check_pairs": 2},
}
SERVE_SCALE = 2000
#: Closed-loop clients: never more than ``nproc``.
SERVE_CLIENTS = 2
#: ``serve.latency_p99_ms`` needs at least ten samples beyond it.
SERVE_MIN_JOBS = 1000
#: Simulation keys of the serve run re-simulated by the output check.
SERVE_CHECK_KEYS = 3
#: Set-up is measured at least this many times per run.
SETUP_SAMPLES = 5
#: A campaign child, or one serve load session, may take this long; the
#: traced run holds two of them and must end within 180 s.
CHILD_TIMEOUT = 85.0
LOAD_CAP_SECONDS = 70.0

END_TO_END_UNITS = {
    "sim_kips": "kinst/s",
    "jobs_per_s": "1/s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ----------------------------------------------------------------------
# Campaign workloads.
# ----------------------------------------------------------------------


def _campaign_child(workload: str, seed: int, workdir: Path, *,
                    check: bool, setup_only: bool = False,
                    trace_dir: Path = None) -> Dict:
    spec = CAMPAIGNS[workload]
    store = workdir / f"store-{time.perf_counter_ns()}"
    argv = [sys.executable, "-m", "perfbench.campaign", "--mode", spec["mode"],
            "--scale", str(spec["scale"]), "--seed", str(seed),
            "--store", str(store),
            "--check-pairs", str(spec["check_pairs"] if check else 0)]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    launched = time.time()
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    shutil.rmtree(store, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"campaign child failed ({done.returncode}):\n{done.stderr[-4000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def _campaign_reps(workload: str, seed: int, seconds: float, workdir: Path) -> List[Dict]:
    """Repetitions until the next one would end after ``seconds`` (at least one)."""
    reps: List[Dict] = []
    begin = time.perf_counter()
    while True:
        reps.append(_campaign_child(workload, seed, workdir, check=not reps))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def _campaign_outcome(reps: List[Dict]) -> Dict:
    """attempted / failed over a set of repetitions of one campaign."""
    first = reps[0]
    attempted = sum(rep["pairs"] for rep in reps)
    failed = sum(rep["pairs"] for rep in reps if rep["digest"] != first["digest"])
    for rep in reps:
        check = rep.get("check")
        if check:
            attempted += check["attempted"]
            failed += len(check["mismatched"])
    return {"attempted": attempted, "failed": failed}


def campaign_metrics(reps: List[Dict], setups: List[float], scale: int) -> Dict[str, float]:
    latencies = [value for rep in reps for value in rep["latency_s"]]
    return {
        "sim_kips": statistics.median(
            rep["pairs"] * scale / rep["wall_s"] / 1000.0 for rep in reps
        ),
        "jobs_per_s": statistics.median(rep["pairs"] / rep["wall_s"] for rep in reps),
        "latency_p90_ms": 1000.0 * percentile(latencies, 0.90),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "setup_s": statistics.median(setups),
    }


def run_campaign(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> Dict:
    if trace:
        base = _campaign_child(workload, seed, workdir, check=True)
        traced = _campaign_child(workload, seed, workdir, check=True,
                                 trace_dir=workdir / "trace")
        reps = [base, traced]
        metrics = dict(traced["layers"])
        metrics.update(_absent_serve_layers())
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            traced["wall_s"] / base["wall_s"] - 1.0
        )
        shutil.copyfile(traced["trace_file"], _trace_target(workload, seed))
    else:
        reps = _campaign_reps(workload, seed, seconds, workdir)
        setups = [rep["setup_s"] for rep in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_campaign_child(workload, seed, workdir, check=False,
                                          setup_only=True)["setup_s"])
        metrics = campaign_metrics(reps, setups, CAMPAIGNS[workload]["scale"])
    outcome = _campaign_outcome(reps)
    # Equal digests show two commits computed identical results.
    print(f"{workload} seed {seed}: output sha256 {reps[0]['digest']}")
    return dict(outcome, metrics=metrics)


# ----------------------------------------------------------------------
# Serve workload.
# ----------------------------------------------------------------------


def _absent_serve_layers() -> Dict[str, float]:
    return {
        "http.post_ms": 0.0, "serve.wait_ms": 0.0, "http.artifact_ms": 0.0,
        "serve.latency_p50_ms": 0.0, "serve.latency_p99_ms": 0.0,
        "serve.wait_over_poll_ratio": 0.0,
        "scheduler.hit_ratio": 0.0, "scheduler.coalesced_ratio": 0.0,
        "scheduler.simulated": 0, "scheduler.batches": 0,
        "scheduler.units_per_batch": 0.0,
    }


def _schemes() -> Dict:
    """Paper scheme name -> scheme config, as the server resolves them."""
    from repro.common.config import scheme_name
    from repro.experiments import figures as fig_mod
    from repro.experiments.campaign import ALL_FIGURES

    return {
        scheme_name(scheme): scheme
        for __, scheme in fig_mod.required_runs(ALL_FIGURES)
    }


def _run_scale(seed: int, scale: int):
    from repro.experiments.runner import RunScale

    return RunScale(num_instructions=scale, warmup_instructions=scale // 2, seed=seed)


def _served_pairs(load, count: int, seed: int):
    """A seeded sample of the simulation keys the load was served."""
    keys = sorted(key for key in load.artifacts if key[0] == "simulation")
    return random.Random(seed).sample(keys, min(count, len(keys)))


def _serve_check(load, seed: int, scale: int = SERVE_SCALE) -> Dict:
    """Re-simulate a seeded sample of served keys under ``naive``."""
    from repro.experiments.runner import simulate_pair

    schemes = _schemes()
    sample = _served_pairs(load, SERVE_CHECK_KEYS, seed)
    mismatched = []
    for key in sample:
        __, benchmark, scheme = key
        served = json.loads(load.artifacts[key])["stats"]
        stats, __ = simulate_pair(benchmark, schemes[scheme],
                                  _run_scale(seed, scale), kernel="naive")
        if stats.to_dict() != served:
            mismatched.append(f"{benchmark}/{scheme}")
    return {"attempted": len(sample), "mismatched": mismatched}


async def _serve_session(workdir: Path, jobs, units_of, clients: int,
                         seconds: float, trace_dir: Path = None,
                         tracer=None) -> Dict:
    server = Server(ROOT, workdir, trace_dir=trace_dir)
    try:
        await server.start()
        load = await run_load(server, jobs, clients, seconds, SERVE_MIN_JOBS,
                              LOAD_CAP_SECONDS, units_of, tracer=tracer)
        status, body = await http(server.host, server.port, "GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        rss = server.peak_rss_mb()
        cpu = server.cpu_seconds()
    finally:
        await server.stop()
    return {"load": load, "stats": json.loads(body)["scheduler"], "rss_mb": rss,
            "cpu_s": cpu,
            "setup_s": server.setup_s}


async def _setup_probe(workdir: Path) -> float:
    server = Server(ROOT, workdir)
    try:
        await server.start()
    finally:
        await server.stop()
    return server.setup_s


def _jobs_per_s(load) -> float:
    return load.completed / load.elapsed_s


def _serve_layers(base, session, server_dir: Path, tracer, seed: int) -> Dict:
    """Per-layer metrics of a traced serve session."""
    from repro import obs
    from repro.common.config import VALID_KERNELS
    from repro.experiments.runner import ExperimentRunner

    load = session["load"]
    schemes = _schemes()
    probe = [(benchmark, schemes[scheme]) for __, benchmark, scheme
             in _served_pairs(load, SERVE_CHECK_KEYS, seed)]
    with obs.span(layers.PROBE_SPAN):
        for kernel in VALID_KERNELS:
            ExperimentRunner(_run_scale(seed, SERVE_SCALE), store=False,
                             kernel=kernel).run_many(probe)
    client_events = json.loads(tracer.flush().read_text(encoding="utf-8"))["traceEvents"]
    obs.disable()
    server_events = [
        event for path in sorted(server_dir.glob("trace-*.json"))
        for event in json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
    ]
    _trace_target("serve-mix", seed).write_text(
        json.dumps({"traceEvents": client_events + server_events}), encoding="utf-8"
    )
    metrics = layers.layer_metrics(server_events)
    metrics.update(layers.kernel_seconds(client_events, VALID_KERNELS))
    stats = session["stats"]
    units = max(stats["units"], 1)
    metrics.update({
        "sampling.detailed_fraction": 1.0,
        "http.post_ms": 1000.0 * median(load.post_s),
        "serve.wait_ms": 1000.0 * median(load.wait_s),
        "http.artifact_ms": 1000.0 * median(load.artifact_s),
        "serve.latency_p50_ms": 1000.0 * median(load.latency_s),
        "serve.latency_p99_ms": 1000.0 * percentile(load.latency_s, 0.99),
        "serve.wait_over_poll_ratio": sum(
            wait >= EVENT_POLL_SECONDS for wait in load.wait_s
        ) / max(len(load.wait_s), 1),
        "scheduler.hit_ratio": stats["hits"] / units,
        "scheduler.coalesced_ratio": stats["coalesced"] / units,
        "scheduler.simulated": stats["simulated"],
        "scheduler.batches": stats["batches"],
        "scheduler.units_per_batch": stats["misses"] / max(stats["batches"], 1),
        "obs.trace_overhead_pct": 100.0 * (_jobs_per_s(base) / _jobs_per_s(load) - 1.0),
    })
    return metrics


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    from repro.experiments import figures as fig_mod

    jobs = job_sequence(seed, SERVE_SCALE)
    # Equal digests show two commits were sent identical job sequences.
    print(f"serve-mix seed {seed}: job sequence sha256 {sequence_digest(jobs)}")
    units_of = [
        len(fig_mod.required_runs(spec["figures"])) if spec["type"] == "figures" else 1
        for spec in jobs
    ]
    clients = min(SERVE_CLIENTS, len(os.sched_getaffinity(0)))
    session = asyncio.run(_serve_session(workdir / "main", jobs, units_of, clients,
                                         seconds))
    load = session["load"]
    check = _serve_check(load, seed)
    result = {
        "attempted": load.completed + load.failed + check["attempted"],
        "failed": load.failed + len(check["mismatched"]),
    }
    if trace:
        from repro import obs

        layers.install()
        tracer = obs.configure(workdir / "client-trace")
        server_dir = workdir / "server-trace"
        traced = asyncio.run(_serve_session(workdir / "traced", jobs, units_of,
                                            clients, seconds, trace_dir=server_dir,
                                            tracer=tracer))
        result["attempted"] += traced["load"].completed + traced["load"].failed
        result["failed"] += traced["load"].failed
        result["metrics"] = _serve_layers(load, traced, server_dir, tracer, seed)
        return result
    setups = [session["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(asyncio.run(_setup_probe(workdir / f"probe{len(setups)}")))
    result["metrics"] = {
        # Units served per second of server CPU: the run's wall time is
        # set mostly by the events-stream poll, which costs no CPU.
        "sim_kips": load.units * SERVE_SCALE / session["cpu_s"] / 1000.0,
        "jobs_per_s": _jobs_per_s(load),
        "latency_p90_ms": 1000.0 * percentile(load.latency_s, 0.90),
        "peak_rss_mb": session["rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return result


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------


def _trace_target(workload: str, seed: int) -> Path:
    """Where a traced run leaves its Chrome ``trace_event`` JSON."""
    target = OUT / "traces" / f"{workload}-seed{seed}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    return target


def _with_units(metrics: Dict[str, float], trace: bool) -> Dict[str, Dict]:
    """Attach units; the metric set must be exactly the one the mode reports."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set mismatch: missing {sorted(set(units) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(units))}"
        )
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


WORKLOADS = ("cold-campaign", "sampled-campaign", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_CACHE_DIR", None)
    workdir = OUT / f"work-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "serve-mix":
            result = run_serve(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_campaign(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _with_units(result["metrics"], bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
