"""``serve-open-tiny``: open-loop Poisson arrivals into one ``Server``.

The tiny ``fleet-verify`` network is served by one ``Server`` over one
pool-driver ``ShardedBackend`` (two shards, forked workers, shared
memory arenas). A batch computes in tens of milliseconds, so queueing,
coalescing, pool dispatch and the arenas decide the latency; no offline
workload touches those layers.

Arrivals follow a seeded Poisson schedule at ``RATE_RPS`` and are sent
on time whether or not earlier requests have finished (an open loop).
Each request's latency runs from its *due* time to its response, so a
stall also charges the requests queued behind it. Requests go out in
blocks of ``BLOCK_REQUESTS``; the host probe runs between blocks (with
no request in flight), each request's latency is scaled by its block's
probes to the reference host speed, and ``latency_ms`` is the p50 of
every scaled latency of the run.

Every response is checked bit-exact against a serial-driver reference.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from harness import REF_PROBE_MS, HostClock, Result, peak_rss_mb

SHARDS = 2
MAX_BATCH = 32
MAX_WAIT_MS = 2.0
#: The offered rate (requests/s): about a quarter of the highest rate
#: whose p99 stays under 400 ms on a 2-vCPU host, so no backlog grows
#: (at most 22 requests outstanding). Run-to-run p50s were steadier here
#: than at 30 or 45 req/s, where smaller batches leave more of each
#: request's time to worker wake-ups that the host probe cannot see.
RATE_RPS = 60.0
#: Requests per block (about a second): the probes around a block
#: scale its latencies.
BLOCK_REQUESTS = 60
#: Blocks per run, at least, whatever ``--seconds`` says.
MIN_BLOCKS = 5
#: A backlog is growing when more than this many requests are still
#: outstanding as a block's last request is sent.
BACKLOG_LIMIT = 2 * MAX_BATCH
#: Distinct seeded images cycled through the request stream.
DISTINCT_IMAGES = 64
#: Timed fresh set-ups per run, after one untimed; ``setup_s`` is their
#: median. A set-up takes tens of milliseconds, mostly forking.
SETUPS = 15
#: Serial batch pairs (untraced, traced) of 8 images timed for the
#: functional layers in a traced run, at least; they fill the run.
SERIAL_BATCHES = 12
#: Modeled dense cycles per image of the tiny network (input-independent).
DENSE_CYCLES_PER_IMAGE = 28_456


class _Recorded:
    """The pool backend as the server sees it, with batch timestamps."""

    def __init__(self, backend):
        self.backend = backend
        self.batches: list[tuple] = []   # (start, end, size, report)
        self.started: dict[int, float] = {}

    def run_requests(self, network, images):
        t0 = time.perf_counter()
        outcome = self.backend.run_requests(network, images)
        t1 = time.perf_counter()
        self.batches.append((t0, t1, len(images), outcome.report))
        for image in images:
            self.started[id(image)] = t0
        return outcome


class Serving:
    """One fresh set-up: network, weights, reference, forked pool."""

    def __init__(self, seed: int):
        from repro.engine.backend import (
            FleetExecutor,
            deterministic_images,
            tiny_verification_network,
        )
        from repro.engine.sharding import ShardedBackend

        self.network = tiny_verification_network()
        weights = FleetExecutor(packed=True, verify=False).weights_for(
            self.network)
        self.reference = ShardedBackend(shards=SHARDS, driver="serial",
                                        verify=False)
        self.pool = ShardedBackend(shards=SHARDS, driver="pool",
                                   verify=False)
        self.images = deterministic_images(self.network, weights, seed,
                                           DISTINCT_IMAGES)
        self.expected = None
        try:
            # The warm-up request ships the program to the workers.
            self.pool.run_requests(self.network, self.images[:1])
        except BaseException:
            self.pool.close()
            raise

    def compute_expected(self) -> None:
        self.expected = self.reference.run_requests(
            self.network, self.images).responses

    def close(self) -> None:
        self.pool.close()


class Phase:
    """What the requests at one offered rate observed."""

    def __init__(self, rate: float):
        self.rate = rate
        self.latency_ms: list[float] = []
        #: ``latency_ms``, each scaled to the reference host speed.
        self.scaled_ms: list[float] = []
        self.queue_ms: list[float] = []
        self.late_ms = 0.0
        self.backlog = 0
        self.sent = 0
        #: Requests that failed: raised, or answered wrongly.
        self.failed = 0
        #: Of those, the ones that raised instead of answering.
        self.errors = 0
        self.problems: list[str] = []

    def p(self, q: float) -> float:
        return float(np.percentile(self.latency_ms, q))


async def _request(server, bench, recorded, phase, index, due, tracer):
    from repro.nn import QuantizedTensor

    slot = index % DISTINCT_IMAGES
    base = bench.images[slot]
    # A distinct object per request, so the batch it rode in can be found.
    image = QuantizedTensor(base.data, base.params)
    try:
        response = await server.submit(image)
    except Exception as exc:  # noqa: BLE001 - counted as a failed request
        phase.failed += 1
        phase.errors += 1
        phase.problems.append(f"request {index}: {exc}")
        return
    done = time.perf_counter()
    started = recorded.started.pop(id(image), None)
    if not np.array_equal(response.data, bench.expected[slot].data):
        phase.failed += 1
        phase.problems.append(f"request {index}: response differs from "
                              f"the serial reference")
        return
    if started is None:
        phase.failed += 1
        phase.problems.append(f"request {index}: no batch recorded")
        return
    phase.latency_ms.append((done - due) * 1e3)
    phase.queue_ms.append((started - due) * 1e3)
    if tracer is not None:
        tracer.add("serving.request", due, done, index)


async def _block(server, bench, recorded, phase, n, rng, first_index,
                 tracer=None) -> None:
    """Send ``n`` requests at ``phase.rate``; wait for every response."""
    gaps = rng.exponential(1.0 / phase.rate, n)
    start = time.perf_counter() + 0.005
    due = start + gaps.cumsum()
    tasks = []
    for i in range(n):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        phase.late_ms = max(phase.late_ms,
                            (time.perf_counter() - due[i]) * 1e3)
        tasks.append(asyncio.ensure_future(_request(
            server, bench, recorded, phase, first_index + i, float(due[i]),
            tracer)))
    phase.backlog = max(phase.backlog,
                        sum(not task.done() for task in tasks))
    await asyncio.gather(*tasks)
    phase.sent += n


async def _serve(bench, recorded, seed, deadline, clock, tracer=None):
    """Blocks at ``RATE_RPS`` until ``deadline``; one p50 per block."""
    from repro.serving import Server

    rng = np.random.default_rng(seed)
    phase = Phase(RATE_RPS)
    server = Server([recorded], bench.network, max_batch=MAX_BATCH,
                    max_wait_ms=MAX_WAIT_MS)
    index = 0
    async with server:
        clock.reprobe()
        while (time.perf_counter() < deadline
               or clock.count("block") < MIN_BLOCKS):
            first = len(phase.latency_ms)
            t0 = time.perf_counter()
            await _block(server, bench, recorded, phase, BLOCK_REQUESTS,
                         rng, index, tracer)
            index += BLOCK_REQUESTS
            speed = clock.record("block", time.perf_counter() - t0)
            phase.scaled_ms += [ms * speed
                                for ms in phase.latency_ms[first:]]
    return phase, server.report()


def _gate_serving(result: Result, phases, recorded, report) -> None:
    sent = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases)
    errors = sum(p.errors for p in phases)
    for p in phases:
        for message in p.problems[:5]:
            result.problems.append(message)
    result.attempted += sent
    result.failed += failed
    result.gate(report.requests == sent,
                f"server saw {report.requests} requests, {sent} sent")
    result.gate(report.responded + errors == sent,
                f"{sent - report.responded - errors} response(s) lost")
    result.gate(report.duplicates == 0,
                f"{report.duplicates} duplicated response(s)")
    result.gate(report.expired == 0, f"{report.expired} expired")
    images = sum(b[2] for b in recorded.batches)
    result.gate(images == sent, f"backend computed {images} images for "
                                f"{sent} requests")
    backlog = max(p.backlog for p in phases)
    result.gate(backlog <= BACKLOG_LIMIT,
                f"backlog of {backlog} requests: the offered rate is past "
                f"the knee")
    for _, _, size, cycles in recorded.batches:
        if cycles.dense_cycles != DENSE_CYCLES_PER_IMAGE * size:
            result.gate(False, f"dense cycles {cycles.dense_cycles} for a "
                               f"batch of {size}, expected "
                               f"{DENSE_CYCLES_PER_IMAGE} per image")
            break


def _gate_segments(result: Result) -> None:
    from repro.engine.shared import shared_segment_stats

    leaks = shared_segment_stats().check()
    result.gate(leaks == [], f"shared segments left after close: {leaks}")


def _setups(result: Result, seed: int, clock: HostClock):
    """One untimed set-up (it pays the lazy imports), then ``SETUPS``
    timed ones; each closes the one before. Returns the last."""
    bench = Serving(seed)
    for _ in range(SETUPS):
        bench.close()
        _gate_segments(result)
        bench = None  # release the previous set-up before timing
        clock.reprobe()
        t0 = time.perf_counter()
        bench = Serving(seed)
        clock.record("setup", time.perf_counter() - t0)
    return bench


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("serve-open-tiny")
    start = time.perf_counter()
    clock = HostClock()
    bench = _setups(result, seed, clock) if not trace else Serving(seed)
    try:
        bench.compute_expected()
        if trace:
            _run_traced(result, bench, seed, start + seconds, clock)
        else:
            _run_plain(result, bench, seed, start + seconds, clock)
        rss = peak_rss_mb(bench.pool.worker_pids())
        # No faults are injected: a recovery means a worker died or hung.
        recoveries = len(bench.pool.recovery_events())
        result.gate(recoveries == 0, f"pool recovered {recoveries} time(s)")
    finally:
        bench.close()
    _gate_segments(result)
    _stop_resource_tracker()
    if not trace:
        result.set("peak_rss_mb", rss)
    return result


def _stop_resource_tracker() -> None:
    """Stop the resource tracker the pool started, and wait for it.

    Left alone it would exit only after this process does; stopping it
    here means no process the run started outlives the run.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _cycles_per_image(recorded) -> float:
    images = sum(b[2] for b in recorded.batches)
    return sum(b[3].total for b in recorded.batches) / images


def _run_plain(result: Result, bench: Serving, seed: int, deadline: float,
               clock: HostClock) -> None:
    recorded = _Recorded(bench.pool)
    phase, report = asyncio.run(
        _serve(bench, recorded, seed, deadline, clock))
    _gate_serving(result, [phase], recorded, report)
    result.set("setup_s", clock.median("setup"))
    if phase.scaled_ms:
        result.set("latency_ms", float(np.percentile(phase.scaled_ms, 50)))
    if recorded.batches:
        result.set("sim_cycles_per_image", _cycles_per_image(recorded))
    result.note(f"latency p50 {result.metrics.get('latency_ms', 0):.4g} ms "
                f"scaled / {phase.p(50):.4g} ms raw over "
                f"{len(phase.latency_ms)} requests in "
                f"{clock.count('block')} blocks")
    result.note(clock.describe("setup", 1.0, "s"))
    result.note(f"{phase.rate:.0f} rps: {phase.sent} sent, raw p99 "
                f"{phase.p(99):.1f} ms, generator late by <= "
                f"{phase.late_ms:.1f} ms, backlog <= {phase.backlog}")
    result.note(f"host probe median {clock.probe_median():.2f} ms "
                f"(reference {REF_PROBE_MS} ms)")


def _run_traced(result: Result, bench: Serving, seed: int, deadline: float,
                clock: HostClock) -> None:
    from statistics import median

    from tracing import (
        ANALYTIC_ONLY,
        Tracer,
        set_cycle_metrics,
        set_functional_metrics,
        set_idle,
    )

    tracer = Tracer()
    tracer.recording = True  # keep request spans while serving
    recorded = _Recorded(bench.pool)
    # Two thirds of the run serve (about 900 requests at 25 s, so at
    # least ten lie beyond the p98); the rest times serial batches below.
    phase, report = asyncio.run(_serve(
        bench, recorded, seed, deadline - (deadline - time.perf_counter())
        / 3, clock, tracer))
    _gate_serving(result, [phase], recorded, report)
    result.set("serving.queue_wait_ms.p50",
               np.percentile(phase.queue_ms, 50))
    result.set("serving.latency_ms.p98", phase.p(98))
    result.set("serving.batch_size_mean",
               sum(b[2] for b in recorded.batches) / len(recorded.batches))
    result.set("engine.pool.batch_ms",
               median((b[1] - b[0]) * 1e3 for b in recorded.batches))
    merged = None
    for t0, t1, size, cycles in recorded.batches:
        tracer.add("engine.sharding.run_requests[pool]", t0, t1, size)
        merged = cycles if merged is None else merged.merged(cycles)
    set_cycle_metrics(result, merged,
                      sum(b[2] for b in recorded.batches))

    # The functional layers run in the pool's workers, out of the
    # tracer's reach: time them on the serial reference instead,
    # alternating untraced and traced batches of the same 8 images.
    batch = bench.images[:8]
    clock.reprobe()
    while (time.perf_counter() < deadline
           or clock.count("traced") < SERIAL_BATCHES):
        t0 = time.perf_counter()
        bench.reference.run_requests(bench.network, batch)
        clock.record("plain", time.perf_counter() - t0)
        with tracer.installed(record=True):
            tracer.rid = "serial-batch"
            with tracer.span("engine.sharding.run_requests[serial]"):
                t0 = time.perf_counter()
                bench.reference.run_requests(bench.network, batch)
                elapsed = time.perf_counter() - t0
        clock.record("traced", elapsed)
    set_functional_metrics(result, tracer,
                           clock.count("traced") * len(batch))
    set_idle(result, ANALYTIC_ONLY)
    result.set("host.probe_ms", clock.probe_median())
    result.set("trace.slowdown_ratio",
               clock.median("traced") / clock.median("plain"))
    jsonl, chrome = tracer.export(f"serve-open-tiny-seed{seed}")
    result.note(f"{phase.sent} requests at {phase.rate:.0f} rps over "
                f"{len(recorded.batches)} batches; wrote {jsonl} and "
                f"{chrome}")
