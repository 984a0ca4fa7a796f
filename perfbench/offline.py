"""Offline closed-loop workloads: one verified batch at a time.

``resnet-dense-b8``: ``resnet-tiny`` on ``fleet-packed``, batch 8,
sparsity off, full-range images. Almost all host time is per-plane
Python dispatch (functional engines -> bit-serial unit -> packed store).

``span-sparse-b8``: ``inception-span`` under ``spanning_config()``,
sparsity on, batch 8 of post-ReLU-like images (about half zeros, the
rest at most 15). Cross-array reduction and zero-plane probes do real
work here; neither does on the dense workload.

Every timed batch goes through ``FleetExecutor.run_requests`` with the
golden ``ReferenceExecutor``, so every image is checked bit-exact.
``latency_ms`` is the median batch time and ``setup_s`` the median
fresh set-up, each scaled to the reference host speed (``HostClock``).
"""

from __future__ import annotations

import time

from harness import REF_PROBE_MS, HostClock, Result, peak_rss_mb

BATCH = 8
#: Distinct seeded batches cycled through the timed loop.
DISTINCT_BATCHES = 4
#: Fresh set-ups per run, spread evenly over it; ``setup_s`` is their
#: median.
SETUPS = 4
#: Timed batches per run, at least, whatever ``--seconds`` says.
MIN_BATCHES = 6

WORKLOADS = {
    "resnet-dense-b8": {"model": "resnet-tiny", "sparse": False},
    "span-sparse-b8": {"model": "inception-span", "sparse": True},
}
#: Modeled dense cycles per image (``CycleReport.dense_cycles``): the
#: paper's data-independent accounting, identical for every input.
DENSE_CYCLES_PER_IMAGE = {"resnet-tiny": 903_708, "inception-span": 5_219_283}


def _network(model: str):
    from repro.nn.models import (
        build_inception_span,
        build_resnet_tiny,
        spanning_config,
    )
    if model == "resnet-tiny":
        return build_resnet_tiny(), None
    return build_inception_span(), spanning_config()


def make_batch(network, weights, seed: int, index: int, sparse: bool):
    """Batch ``index`` of the run's seeded input stream."""
    import numpy as np

    from repro.engine.backend import deterministic_images
    from repro.nn import QuantizedTensor

    if not sparse:
        return deterministic_images(network, weights,
                                    seed * 1000 + index, BATCH)
    rng = np.random.default_rng([seed, index])
    shape = (BATCH, *network.input_shape)
    values = rng.integers(1, 16, size=shape)
    values[rng.random(shape) < 0.5] = 0
    return [QuantizedTensor(image.astype(np.uint8), weights.input_params)
            for image in values]


class Offline:
    """One fresh set-up of an offline workload, ready for timed batches."""

    def __init__(self, name: str, seed: int):
        from repro.engine.backend import BackendOptions, get_backend
        from repro.nn import ReferenceExecutor

        spec = WORKLOADS[name]
        self.model = spec["model"]
        self.sparse = spec["sparse"]
        self.network, config = _network(self.model)
        self.backend = get_backend(
            "fleet-packed", config,
            options=BackendOptions(sparsity=self.sparse))
        self.weights = self.backend.weights_for(self.network)
        self.golden = ReferenceExecutor(self.network, self.weights)
        self.batches = [make_batch(self.network, self.weights, seed, i,
                                   self.sparse)
                        for i in range(DISTINCT_BATCHES)]
        # The warm-up request: lazy imports and first-touch allocations.
        self.backend.run_requests(self.network, self.batches[0][:1],
                                  self.weights, self.golden)

    def run(self, index: int):
        return self.backend.run_requests(self.network, self.batches[index],
                                         self.weights, self.golden)

    def fc_names(self):
        from repro.nn.layers import FullyConnected
        return [node.name for node in self.network.layer_nodes()
                if isinstance(node.layer, FullyConnected)]


def _check(result: Result, bench: Offline, index: int, reports: dict):
    """Run batch ``index``; gate it; return seconds or None if it failed."""
    from repro.common.errors import SimulationError

    t0 = time.perf_counter()
    try:
        outcome = bench.run(index)
    except SimulationError as exc:
        result.fail(f"batch {index}: {exc}", BATCH)
        return None
    elapsed = time.perf_counter() - t0
    if outcome.verified != BATCH or len(outcome.responses) != BATCH:
        result.fail(f"batch {index}: verified {outcome.verified}/{BATCH}",
                    BATCH)
        return None
    report = outcome.report
    expected = DENSE_CYCLES_PER_IMAGE[bench.model] * BATCH
    if report.dense_cycles != expected:
        result.fail(f"batch {index}: dense cycles {report.dense_cycles} "
                    f"!= {expected}", BATCH)
        return None
    if not bench.sparse and report.skipped:
        result.fail(f"batch {index}: skipped cycles with sparsity off",
                    BATCH)
        return None
    first = reports.setdefault(index, report)
    if first != report:
        result.fail(f"batch {index}: cycle report changed between runs "
                    f"of the same inputs", BATCH)
        return None
    result.ok(BATCH)
    return elapsed


def _merged(reports: dict):
    report = None
    for r in reports.values():
        report = r if report is None else report.merged(r)
    return report


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result(name)
    if trace:
        return _run_traced(name, seed, seconds, result)
    # An untimed first set-up pays the lazy imports, so the timed ones
    # measure set-up after imports.
    bench = Offline(name, seed)
    clock = HostClock()
    reports: dict = {}
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index < MIN_BATCHES:
        # Timed set-ups sit between batches, so setup_s samples the same
        # stretch of host time as the batches do.
        if (clock.count("setup") < SETUPS and time.perf_counter() - start
                >= clock.count("setup") * seconds / SETUPS):
            bench = None  # release the previous set-up before timing
            clock.reprobe()
            t0 = time.perf_counter()
            bench = Offline(name, seed)
            clock.record("setup", time.perf_counter() - t0)
        elapsed = _check(result, bench, index % DISTINCT_BATCHES, reports)
        if elapsed is None:
            clock.reprobe()
        else:
            clock.record("batch", elapsed)
        index += 1
    for i in range(DISTINCT_BATCHES):
        if i not in reports:
            _check(result, bench, i, reports)
    result.set("setup_s", clock.median("setup"))
    if clock.count("batch"):
        result.set("latency_ms", clock.median("batch") * 1e3)
        result.note(f"images_per_s {BATCH / clock.median('batch'):.4g} "
                    f"scaled, {BATCH / clock.raw_median('batch'):.4g} raw")
    if len(reports) == DISTINCT_BATCHES:
        result.set("sim_cycles_per_image",
                   _merged(reports).total / (BATCH * DISTINCT_BATCHES))
    result.set("peak_rss_mb", peak_rss_mb())
    result.note(clock.describe("batch"))
    result.note(clock.describe("setup", 1.0, "s"))
    result.note(f"host probe median {clock.probe_median():.2f} ms "
                f"(reference {REF_PROBE_MS} ms)")
    return result


def _run_traced(name: str, seed: int, seconds: float,
                result: Result) -> Result:
    from tracing import (
        ANALYTIC_ONLY,
        SERVING_ONLY,
        Tracer,
        set_cycle_metrics,
        set_functional_metrics,
        set_idle,
    )

    bench = Offline(name, seed)
    tracer = Tracer(bench.fc_names())
    clock = HostClock()
    reports: dict = {}
    images = 0
    deadline = time.perf_counter() + seconds
    index = 0
    # Alternate untraced and traced batches so both see the same host.
    while time.perf_counter() < deadline or index < MIN_BATCHES:
        batch = index // 2 % DISTINCT_BATCHES
        if index % 2 == 0:
            elapsed = _check(result, bench, batch, reports)
            label = "plain"
        else:
            with tracer.installed(record=clock.count("traced") == 0):
                tracer.rid = f"batch{index}"
                with tracer.span("bench.batch"):
                    elapsed = _check(result, bench, batch, reports)
            label = "traced"
            if elapsed is not None:
                images += BATCH
        if elapsed is None:
            clock.reprobe()
        else:
            clock.record(label, elapsed)
        index += 1
    if not clock.count("traced") or not clock.count("plain"):
        return result
    set_functional_metrics(result, tracer, images)
    set_cycle_metrics(result, _merged(reports), BATCH * len(reports))
    set_idle(result, SERVING_ONLY + ANALYTIC_ONLY)
    result.set("host.probe_ms", clock.probe_median())
    result.set("trace.slowdown_ratio",
               clock.median("traced") / clock.median("plain"))
    jsonl, chrome = tracer.export(f"{name}-seed{seed}")
    result.note(f"{clock.count('plain')} untraced / "
                f"{clock.count('traced')} traced batches; wrote {jsonl} "
                f"and {chrome}")
    return result
