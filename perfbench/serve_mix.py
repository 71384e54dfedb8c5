"""The serve_mix workload: a closed loop of clients against the service.

An in-process ``JobStore`` (process executor, two local workers, the
durable journal on) and ``SweepServer`` run on a private event-loop
thread over a fresh cache directory.  Two ``ServeClient`` threads each
submit 4-cell grids of tiny cells over HTTP, one job at a time (closed
loop: a client sends its next job only after the previous one's results
are in hand).  Every tenth job of a client is a cold grid with a fresh
seed; the rest resubmit one of the client's own finished grids, picked
at random, which the store answers from its result cache at submit
time.  An untraced run splits the loop into segments and times the
reference loop (``perfbench.hostspeed``) in the quiet gap between them,
so each job's time can be read in reference units.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import api
from repro.core.schemes import Scheme
from repro.experiments.config import ExperimentScale
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import JobStore
from repro.serve.server import SweepServer

from perfbench.hostspeed import reference_s
from perfbench.layers import instrument_serve, layer_metrics
from perfbench.spans import SpanRecorder

CLIENTS = 2
WORKERS = 2
COLD_EVERY = 10  # every 10th job of a client is a cold grid
#: The untraced loop stops this many times to time the reference loop
#: with no job running; each gap costs about 50 ms.  The host's speed
#: switches within seconds, so a run needs many short segments for the
#: reference to see the same mix of speeds as the jobs did.
SEGMENTS = 25
REFERENCE_REPEATS = 3
GRID_REFS_PER_CPU = 50
# CMP-DNUCA cells are the cheapest to build and run, so the service's
# own work dominates.
_GRID = [
    (Scheme.CMP_DNUCA, benchmark)
    for benchmark in ("art", "equake", "mgrid", "swim")
]


def grid(seed: int) -> list[api.SimSpec]:
    """One 4-cell grid of tiny cells on ``seed``."""
    scale = ExperimentScale(name="perfbench-serve", refs_per_cpu=GRID_REFS_PER_CPU)
    return [
        api.SimSpec(scheme=scheme, benchmark=benchmark, scale=scale, seed=seed)
        for scheme, benchmark in _GRID
    ]


class Service:
    """A job store and HTTP server on their own event-loop thread."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.port = 0
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="serve-loop", daemon=True
        )
        self._store: Optional[JobStore] = None
        self._server: Optional[SweepServer] = None

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def start(self) -> int:
        """Boot the store and server; returns once ``/healthz`` answers."""
        self._thread.start()

        async def boot():
            self._store = JobStore(
                workers=WORKERS, cache_dir=self.cache_dir, executor="process"
            )
            await self._store.start()
            self._server = SweepServer(self._store, port=0)
            return await self._server.start()

        self.port = self._call(boot())
        ServeClient(port=self.port).health()
        return self.port

    def totals(self) -> dict:
        async def read():
            return self._store.stats_dict()

        return self._call(read())

    def close(self) -> None:
        async def shutdown():
            if self._server is not None:
                await self._server.close()
            if self._store is not None:
                await self._store.close()

        if self._thread.is_alive():
            try:
                self._call(shutdown())
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=30)
        self._loop.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def boot_once(cache_dir: str) -> None:
    """Boot a service until it answers, then shut it down (set-up child)."""
    service = Service(cache_dir)
    try:
        service.start()
        print("ready", flush=True)
    finally:
        service.close()


@dataclass
class JobRecord:
    kind: str            # "cold" | "warm"
    job_id: Optional[str]
    seconds: float       # submit to results in hand
    submit_s: float      # the client's submit call alone
    ok: bool


@dataclass
class ClientResult:
    """One client's jobs and state; a loop resumes from where it stopped."""

    seed: int
    index: int
    jobs: list[JobRecord] = field(default_factory=list)
    # spec hash -> (spec, served RunStats dict) of this client's cold cells
    cold: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    own_grids: list[list[api.SimSpec]] = field(default_factory=list)
    rng: random.Random = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(f"perfbench-serve:{self.seed}:{self.index}")


def _client_loop(port: int, deadline: float, out: ClientResult) -> None:
    seed, index, rng, own_grids = out.seed, out.index, out.rng, out.own_grids
    client = ServeClient(port=port, tenant=f"tenant-{index}", timeout_s=120)
    jobs = len(out.jobs)
    while time.perf_counter() < deadline:
        # A fixed schedule, not a coin flip: the cold share then does not
        # vary from run to run, and neither does the job rate it sets.
        cold = jobs % COLD_EVERY == 0 or not own_grids
        if cold:
            specs = grid(seed * 10_000 + index * 5_000 + jobs // COLD_EVERY)
        else:
            specs = own_grids[rng.randrange(len(own_grids))]
        jobs += 1
        start = time.perf_counter()
        job_id, submit_s, problem = None, 0.0, None
        try:
            snapshot = client.submit(specs)
            submit_s = time.perf_counter() - start
            job_id = snapshot.job_id
            results = (
                client.results(job_id) if snapshot.state == "done"
                else client.wait(job_id)
            )
        except ServeError as exc:
            problem = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if problem is None:
            problem = _check_results(specs, results, cold, out.cold)
        if problem is None and cold:
            own_grids.append(specs)
        if problem is not None:
            out.errors.append(f"job {job_id}: {problem}")
        out.jobs.append(JobRecord(
            "cold" if cold else "warm", job_id, seconds, submit_s,
            problem is None,
        ))


def _check_results(specs, results, cold: bool, served: dict) -> Optional[str]:
    """Problem with one job's results, or None; records cold results."""
    if results.snapshot.failed or results.failures:
        return f"{results.snapshot.failed} failed cell(s)"
    if len(results.results) != len(specs):
        return f"{len(results.results)} result(s) for {len(specs)} cell(s)"
    for item in results.results:
        stats = item.stats.to_dict()
        if cold:
            served[item.spec_hash] = (item.spec, stats)
        elif served.get(item.spec_hash, (None, None))[1] != stats:
            return f"warm result for {item.spec.label()} differs from cold"
    return None


def new_clients(seed: int) -> list[ClientResult]:
    return [ClientResult(seed, index) for index in range(CLIENTS)]


def run_clients(
    port: int, seconds: float, outs: list[ClientResult]
) -> tuple[list[ClientResult], float]:
    """Drive the closed loop for ``seconds``; returns results and wall time."""
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(port, start + seconds, out),
            name=f"client-{out.index}",
        )
        for out in outs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outs, time.perf_counter() - start


@dataclass
class MixOutcome:
    attempted: int
    failed: int
    metrics: dict[str, float]


def _verify(outs: list[ClientResult], totals: dict, say: Callable[[str], None]) -> int:
    """Service-level checks; returns the number of failed checks."""
    failures = 0
    served = {}
    for out in outs:
        served.update(out.cold)
        for error in out.errors:
            say(f"FAILED {error}")
    if totals["cells_simulated"] != len(served):
        say(
            f"FAILED exactly-once: cells_simulated "
            f"{totals['cells_simulated']} != {len(served)} distinct cold specs"
        )
        failures += 1
    for spec, stats in served.values():
        if api.run(spec).stats.to_dict() != stats:
            say(f"FAILED served RunStats of {spec.label()} seed {spec.seed} "
                "differ from an in-process run")
            failures += 1
    say(f"serve_mix: verified {len(served)} cold cell(s) in-process")
    return failures


@dataclass
class Segment:
    """One stretch of the untraced loop and the reference time around it."""

    jobs: list[JobRecord]
    wall_s: float
    ref_s: float


def _summarise(segments: list[Segment], say) -> dict:
    jobs = [job for seg in segments for job in seg.jobs]
    warm = [job for job in jobs if job.kind == "warm" and job.ok]
    cold = [job for job in jobs if job.kind == "cold" and job.ok]
    wall_s = sum(seg.wall_s for seg in segments)
    say(
        f"serve_mix: {len(jobs)} job(s) in {wall_s:.2f}s: "
        f"{len(warm)} warm, {len(cold)} cold"
    )
    if not warm or not cold:
        raise RuntimeError("serve_mix completed no warm or no cold job")
    ok = sum(job.ok for job in jobs)
    say(f"jobs_per_s {ok / wall_s:.6g} 1/s")
    say(f"warm_job_s_p50 {statistics.median(j.seconds for j in warm):.6g} s")
    say(f"cold_job_s_p50 {statistics.median(j.seconds for j in cold):.6g} s")
    if len(warm) >= 1000:
        p99 = statistics.quantiles([job.seconds for job in warm], n=100)[98]
        say(f"warm_job_s_p99 {p99:.6f} s (n={len(warm)})")
    else:
        say(f"warm_job_s_p99 not reported: {len(warm)} sample(s) leave "
            "fewer than 10 beyond it")
    def ru(kind: str) -> list[float]:
        return [
            job.seconds / seg.ref_s
            for seg in segments for job in seg.jobs
            if job.kind == kind and job.ok
        ]

    return {
        "work_per_ru": ok / sum(seg.wall_s / seg.ref_s for seg in segments),
        "op_ru_p50": statistics.median(ru("warm")),
        "slow_op_ru": statistics.median(ru("cold")),
    }


def measure(
    out_dir: str, seed: int, seconds: float, say: Callable[[str], None]
) -> MixOutcome:
    """Untraced closed loop for ``seconds``; end-to-end metrics."""
    service = Service(f"{out_dir}/serve-cache-{seed}")
    outs = new_clients(seed)
    segments = []
    try:
        port = service.start()
        ref_before = reference_s(REFERENCE_REPEATS)
        for __ in range(SEGMENTS):
            done = [len(out.jobs) for out in outs]
            __, wall_s = run_clients(port, seconds / SEGMENTS, outs)
            ref_after = reference_s(REFERENCE_REPEATS)
            new_jobs = [
                job for out, n in zip(outs, done) for job in out.jobs[n:]
            ]
            segments.append(
                Segment(new_jobs, wall_s, (ref_before + ref_after) / 2)
            )
            ref_before = ref_after
        totals = service.totals()
    finally:
        service.close()
    jobs = [job for out in outs for job in out.jobs]
    failed = sum(not job.ok for job in jobs) + _verify(outs, totals, say)
    return MixOutcome(len(jobs), failed, _summarise(segments, say))


def measure_traced(
    out_dir: str,
    seed: int,
    seconds: float,
    say: Callable[[str], None],
    trace_path: Optional[str] = None,
) -> MixOutcome:
    """Half the time untraced, half traced; per-layer metrics.

    ``trace.overhead`` is the untraced job rate over the traced one.
    """
    service = Service(f"{out_dir}/serve-cache-{seed}")
    submit_done_ns: dict[str, int] = {}
    store_submit_ns: dict[str, int] = {}
    queue_wait_s: list[float] = []
    recorder = SpanRecorder()
    try:
        port = service.start()
        plain, plain_s = run_clients(port, seconds / 2, new_clients(seed))
        before = service.totals()
        instrument_serve(recorder, submit_done_ns, store_submit_ns, queue_wait_s)
        try:
            traced, traced_s = run_clients(
                port, seconds / 2, new_clients(seed + 1)
            )
        finally:
            recorder.restore()
        totals = service.totals()
    finally:
        service.close()
    outs = plain + traced
    jobs = [job for out in outs for job in out.jobs]
    failed = sum(not job.ok for job in jobs) + _verify(outs, totals, say)
    traced_jobs = [job for out in traced for job in out.jobs]
    plain_rate = len([j for out in plain for j in out.jobs]) / plain_s
    transport = [
        job.submit_s - store_submit_ns[job.job_id] / 1e9
        for job in traced_jobs
        if job.job_id in store_submit_ns
    ]
    cells = {
        key: totals[key] - before[key]
        for key in (
            "cells_cached", "cells_deduped", "cells_simulated", "cells_failed"
        )
    }
    submitted = sum(cells.values())
    extra = {
        "serve.transport.s_p50": statistics.median(transport) if transport else 0.0,
        "serve.queue_wait.s_p50": (
            statistics.median(queue_wait_s) if queue_wait_s else 0.0
        ),
        "serve.cache_hit_share": cells["cells_cached"] / submitted,
        "serve.dedup_share": cells["cells_deduped"] / submitted,
        "trace.overhead": plain_rate / (len(traced_jobs) / traced_s),
    }
    if trace_path is not None:
        recorder.write_chrome_trace(
            trace_path, {"workload": "serve_mix", "seed": seed}
        )
        say(f"wrote {trace_path}")
    return MixOutcome(
        len(jobs), failed, layer_metrics(recorder, extra=extra)
    )
