"""Tests of the benchmark's own logic (fast; no workload is run)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import campaign, layers, serve_load, spans
from perfbench.metrics import PER_LAYER_UNITS
from perfbench.run import END_TO_END_UNITS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_and_units_are_valid_and_unique(spec):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")


def test_reported_metrics_match_the_spec(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def _event(name, ts, dur, tid=1, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 7,
            "tid": tid, "args": args}


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert spans.union_length([(0, 10), (2, 3)]) == 10
    assert spans.union_length([]) == 0


def test_self_time_subtracts_only_direct_children():
    events = [
        _event("root", 0, 100),
        _event("a", 10, 30),      # 10..40
        _event("a.inner", 20, 10),  # 20..30, inside a
        _event("b", 50, 10),      # 50..60
        _event("other-thread", 0, 100, tid=2),
    ]
    own = spans.self_times(events)
    assert own == [60, 20, 10, 10, 100]


def test_self_time_of_equal_start_spans_nests_longer_first():
    events = [_event("inner", 0, 5), _event("outer", 0, 8)]
    assert spans.self_times(events) == [5, 3]


def test_coverage_clips_to_the_root():
    root = _event("root", 100, 100)
    inside = [_event("x", 90, 30), _event("y", 150, 100)]  # 100..120, 150..200
    assert spans.coverage(root, inside) == pytest.approx(0.7)


def test_layer_metrics_partition_the_campaign_wall_time():
    events = [
        _event(layers.ROOT_SPAN, 0, 1_000_000),
        _event("runner.resolve", 0, 900_000),
        _event("core.construct", 0, 100_000),
        _event("core.kernel", 100_000, 600_000, kernel="skip",
               executed=300, skipped=100),
        _event("experiments.store_save", 700_000, 100_000),
        _event("sampling.checkpoint_read", 800_000, 50_000, hit=True),
        _event("sampling.checkpoint_read", 850_000, 50_000, hit=False),
    ]
    metrics = layers.layer_metrics(events)
    assert metrics["core.kernel_s"] == pytest.approx(0.6)
    assert metrics["core.kernel_ns_per_cycle"] == pytest.approx(0.6e9 / 300)
    assert metrics["core.skip_ratio"] == pytest.approx(0.25)
    assert metrics["sampling.checkpoint_hit_ratio"] == pytest.approx(0.5)
    # root 100 ms outside runner.resolve; runner.resolve fully covered.
    assert metrics["experiments.runner_self_s"] == pytest.approx(0.1)
    assert metrics["obs.span_coverage_pct"] == pytest.approx(90.0)
    named = sum(value for name, value in metrics.items()
                if name.endswith("_s") and not name.startswith("core.kernel_s."))
    assert named == pytest.approx(1.0)


def test_kernel_seconds_reads_only_probe_spans():
    events = [
        _event("core.kernel", 0, 5_000_000, kernel="skip"),
        _event(layers.PROBE_SPAN, 10_000_000, 3_000_000),
        _event("core.kernel", 10_000_000, 1_000_000, kernel="naive"),
        _event("core.kernel", 11_000_000, 500_000, kernel="skip"),
    ]
    assert layers.kernel_seconds(events, ("naive", "skip", "specialized")) == {
        "core.kernel_s.naive": 1.0,
        "core.kernel_s.skip": 0.5,
        "core.kernel_s.specialized": 0.0,
    }


def test_same_seed_gives_the_same_job_sequence():
    first = serve_load.job_sequence(5, 2000, count=600)
    again = serve_load.job_sequence(5, 2000, count=600)
    other = serve_load.job_sequence(6, 2000, count=600)
    assert serve_load.sequence_digest(first) == serve_load.sequence_digest(again)
    assert serve_load.sequence_digest(first) != serve_load.sequence_digest(other)


def test_job_mix_is_duplicate_heavy_with_warm_figures_jobs():
    from repro.common.config import scheme_name
    from repro.experiments import figures as fig_mod
    from repro.experiments.campaign import ALL_FIGURES

    known = {scheme_name(s) for __, s in fig_mod.required_runs(ALL_FIGURES)}
    jobs = serve_load.job_sequence(3, 2000, count=1000)
    figures = [i for i, job in enumerate(jobs) if job["type"] == "figures"]
    assert min(figures) >= serve_load.WARM_AFTER
    assert len(figures) == pytest.approx(0.04 * (1000 - serve_load.WARM_AFTER), abs=1)
    simulations = [job for job in jobs if job["type"] == "simulation"]
    assert {job["scheme"] for job in simulations} <= known
    keys = {serve_load.job_key(job) for job in simulations}
    assert len(keys) < len(simulations) / 5


def test_percentile_leaves_ten_samples_beyond_p99_of_a_thousand():
    values = list(range(1, 1001))
    p99 = serve_load.percentile(values, 0.99)
    assert sum(1 for value in values if value > p99) == 10
    assert serve_load.percentile([3.0], 0.5) == 3.0


def test_dechunk():
    body = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
    assert serve_load.dechunk(body) == b"hello world"


def _tiny_pair():
    from repro.experiments.configs import IQ_64_64
    from repro.experiments.runner import ExperimentRunner, RunScale

    runner = ExperimentRunner(RunScale(600, 300, seed=4), store=False)
    return runner, [("gzip", IQ_64_64)]


def test_output_check_trips_on_a_perturbed_stats_payload():
    runner, pairs = _tiny_pair()
    payload = campaign.stats_payload(runner, pairs)
    measured = dict(zip(pairs, payload))
    assert campaign.mismatched_pairs(measured, pairs, payload) == []
    perturbed = json.loads(json.dumps(payload))
    perturbed[0]["stats"]["cycles"] += 1
    assert campaign.mismatched_pairs(measured, pairs, perturbed) == ["gzip/IQ_64_64"]
    assert campaign.digest(payload, {}) != campaign.digest(perturbed, {})


def test_serve_check_trips_on_a_perturbed_artifact():
    from perfbench import run

    runner, pairs = _tiny_pair()
    load = serve_load.LoadResult()
    stats = runner.run(*pairs[0]).to_dict()
    load.artifacts[("simulation", "gzip", "IQ_64_64")] = json.dumps(
        {"stats": dict(stats, cycles=stats["cycles"] + 1)}
    ).encode()
    check = run._serve_check(load, seed=4, scale=600)
    assert check == {"attempted": 1, "mismatched": ["gzip/IQ_64_64"]}
    load.artifacts[("simulation", "gzip", "IQ_64_64")] = json.dumps(
        {"stats": stats}
    ).encode()
    assert run._serve_check(load, seed=4, scale=600)["mismatched"] == []
