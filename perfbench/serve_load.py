"""The ``serve-mix`` workload: a seeded closed-loop load on ``repro.serve``.

The server runs as ``python -m repro.serve --workers 0`` on an
ephemeral port with a fresh store (the traced run starts it through
``perfbench/serve_traced.py`` instead). The load is a closed loop of at
most ``nproc`` clients in this one asyncio process; each client holds one
connection at a time and, per job, POSTs the spec, follows
``/v1/jobs/<id>/events`` to the terminal event and fetches the artifact.

The job sequence comes from the seed alone (:func:`job_sequence`): a
Zipf, duplicate-heavy mix of simulation jobs over every benchmark x the
Section 4 schemes plus ``LatFIFO_16x16_8x8``, where every 25th job (4%)
is a ``figures`` job, none among the first :data:`WARM_AFTER` jobs so
that most of their units are already stored. Its digest is reported so two commits can be
shown to have received identical inputs.

A job counts as failed when a call is refused, answers non-2xx, the job
ends ``failed``, or its artifact differs from the first artifact served
for the same key; store-hit, coalesced and simulated askers of one key
must all receive identical bytes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Schemes of the simulation key space: Section 4 plus one LatFIFO.
KEY_SCHEMES = (
    "IQ_64_64",
    "IssueFIFO_8x8_8x16_distr",
    "MixBUFF_8x8_8x16_distr",
    "LatFIFO_16x16_8x8",
)
ZIPF_EXPONENT = 1.1
#: Every FIGURES_EVERY-th job is a figures job (4%); a fixed cadence keeps
#: the share equal across seeds.
FIGURES_EVERY = 25
FIGURE_CHOICES = (7, 8)
#: No figures job among the first jobs: they arrive on a warm store.
WARM_AFTER = 100
#: Job sequence length; far more than any run completes.
SEQUENCE_LENGTH = 20000
#: The server's events-stream poll interval (``_EVENT_POLL_SECONDS`` in
#: ``repro/serve/http.py``): a job not finished when its events request
#: arrives waits at least this long.
EVENT_POLL_SECONDS = 0.1
#: Seconds allowed for the server to start or to stop.
SERVER_TIMEOUT = 60.0
#: Per-request timeout; a stuck request fails the job instead of the run.
REQUEST_TIMEOUT = 60.0


def job_sequence(seed: int, scale: int, count: int = SEQUENCE_LENGTH) -> List[Dict]:
    """The seeded job specs, in the order the clients take them."""
    from repro.workloads.suites import FP_BENCHMARKS, INT_BENCHMARKS

    rng = random.Random(seed)
    keys = [
        (benchmark, scheme)
        for benchmark in list(INT_BENCHMARKS) + list(FP_BENCHMARKS)
        for scheme in KEY_SCHEMES
    ]
    rng.shuffle(keys)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(keys))]
    jobs: List[Dict] = []
    for index in range(count):
        if index >= WARM_AFTER and index % FIGURES_EVERY == 0:
            jobs.append({
                "type": "figures",
                "figures": [rng.choice(FIGURE_CHOICES)],
                "scale": scale,
                "seed": seed,
                "format": "json",
            })
        else:
            benchmark, scheme = rng.choices(keys, weights)[0]
            jobs.append({
                "type": "simulation",
                "benchmark": benchmark,
                "scheme": scheme,
                "scale": scale,
                "seed": seed,
            })
    return jobs


def sequence_digest(jobs: List[Dict]) -> str:
    return hashlib.sha256(
        json.dumps(jobs, sort_keys=True).encode("utf-8")
    ).hexdigest()


def job_key(spec: Dict) -> Tuple:
    if spec["type"] == "figures":
        return ("figures",) + tuple(spec["figures"])
    return ("simulation", spec["benchmark"], spec["scheme"])


def dechunk(body: bytes) -> bytes:
    """Decode a chunked transfer-encoded body."""
    out = bytearray()
    while body:
        size_line, _, rest = body.partition(b"\r\n")
        size = int(size_line.split(b";")[0], 16)
        if size == 0:
            break
        out += rest[:size]
        body = rest[size + 2:]
    return bytes(out)


async def http(host: str, port: int, method: str, path: str,
               payload: Optional[Dict] = None) -> Tuple[int, bytes]:
    """One HTTP/1.1 request on its own connection; (status, body)."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else b""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
             ).encode("latin-1") + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"transfer-encoding: chunked" in head.lower():
        body = dechunk(body)
    return status, body


class Server:
    """A ``repro.serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, trace_dir: Optional[Path] = None):
        self.root = root
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.host = "127.0.0.1"
        self.port = 0
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.setup_s = 0.0
        self._drain: Optional[asyncio.Task] = None

    async def start(self) -> None:
        module = "repro.serve" if self.trace_dir is None else "perfbench.serve_traced"
        argv = [sys.executable, "-m", module, "--host", self.host, "--port", "0",
                "--workers", "0", "--cache-dir", str(self.workdir / "store")]
        if self.trace_dir is not None:
            argv += ["--trace-out", str(self.trace_dir)]
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        env["REPRO_CACHE_DIR"] = str(self.workdir / "cache")
        begin = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, cwd=str(self.root), env=env,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
        )
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), SERVER_TIMEOUT)
            if not line:
                raise RuntimeError("server exited before listening")
            text = line.decode("utf-8", "replace")
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        self._drain = asyncio.ensure_future(self._consume())
        status, _ = await http(self.host, self.port, "GET", "/v1/version")
        if status != 200:
            raise RuntimeError(f"server answered {status} to its first request")
        self.setup_s = time.perf_counter() - begin

    async def _consume(self) -> None:
        while await self.proc.stdout.readline():
            pass

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), SERVER_TIMEOUT)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        if self._drain is not None:
            await self._drain


@dataclass
class LoadResult:
    completed: int = 0
    failed: int = 0
    units: int = 0
    elapsed_s: float = 0.0
    latency_s: List[float] = field(default_factory=list)
    post_s: List[float] = field(default_factory=list)
    wait_s: List[float] = field(default_factory=list)
    artifact_s: List[float] = field(default_factory=list)
    #: The first artifact served per key; later askers must get the same bytes.
    artifacts: Dict[Tuple, bytes] = field(default_factory=dict)


async def run_load(server: Server, jobs: List[Dict], clients: int,
                   seconds: float, min_jobs: int, cap_seconds: float,
                   units_of: List[int], tracer=None) -> LoadResult:
    """Closed loop: each client takes the next job when its last one ends.

    Clients stop taking jobs once ``seconds`` have passed and at least
    ``min_jobs`` jobs have completed, or once ``cap_seconds`` have
    passed; jobs in flight then finish.
    """
    result = LoadResult()
    cursor = iter(range(len(jobs)))
    begin = time.perf_counter()

    def span(name: str, start: float, end: float, job: int) -> None:
        if tracer is not None:
            tracer.complete(name, start, end - start, {"job": job})

    async def one(index: int) -> None:
        spec = jobs[index]
        sent = time.perf_counter()
        status, body = await http(server.host, server.port, "POST", "/v1/jobs", spec)
        acked = time.perf_counter()
        if status != 202:
            raise RuntimeError(f"POST answered {status}")
        job_id = json.loads(body)["job"]
        status, stream = await http(server.host, server.port, "GET",
                                    f"/v1/jobs/{job_id}/events")
        ended = time.perf_counter()
        events = [json.loads(line) for line in stream.splitlines() if line.strip()]
        if status != 200 or not events or events[-1]["event"] != "done":
            raise RuntimeError(f"job {job_id} did not finish: {status}")
        status, artifact = await http(server.host, server.port, "GET",
                                      f"/v1/jobs/{job_id}/artifact")
        received = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"artifact answered {status}")
        key = job_key(spec)
        if result.artifacts.setdefault(key, artifact) != artifact:
            raise RuntimeError(f"artifact for {key} differs between askers")
        result.latency_s.append(received - sent)
        result.post_s.append(acked - sent)
        result.wait_s.append(ended - acked)
        result.artifact_s.append(received - ended)
        span("http.post", sent, acked, index)
        span("serve.wait", acked, ended, index)
        span("http.artifact", ended, received, index)
        result.completed += 1
        result.units += units_of[index]

    async def client() -> None:
        while True:
            elapsed = time.perf_counter() - begin
            if elapsed >= cap_seconds or (
                    elapsed >= seconds and result.completed >= min_jobs):
                return
            index = next(cursor, None)
            if index is None:
                return
            try:
                await asyncio.wait_for(one(index), REQUEST_TIMEOUT)
            except (OSError, ValueError, KeyError, IndexError, RuntimeError,
                    asyncio.TimeoutError):
                result.failed += 1

    await asyncio.gather(*(client() for _ in range(clients)))
    result.elapsed_s = time.perf_counter() - begin
    return result


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
