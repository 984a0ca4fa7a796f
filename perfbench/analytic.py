"""``inception-analytic``: the paper-scale model, swept and scored.

One sweep maps and runs Inception v3 at every batch size of Fig. 16,
every Table IV capacity (35/45/60 MB) and three element precisions.
Each point is a fresh ``NeuralCacheSimulator`` (mapping) plus ``run``
(schedule and executor), so the sweep exercises ``core.mapping``,
``core.schedule``, ``core.executor`` and the SRAM cost models, which
the functional workloads barely touch.

One timing sample is one configuration's 9-point batch sweep, with the
host probe between samples; ``latency_ms`` is the scaled median sample
per point. ``sim_cycles_per_image`` is the modeled batch-1 latency at
35 MB / 8-bit in compute-clock cycles. The same points give the paper
comparison, printed in the notes: batch-1 latency (Fig. 15 / Table IV),
batch-1 energy (Table III) and peak dual-socket throughput over the
batch sweep (Fig. 16), each as |modeled - paper| / paper against
``repro.analysis.paper``.
"""

from __future__ import annotations

import time
from harness import REF_PROBE_MS, HostClock, Result, peak_rss_mb

BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
PRECISIONS = (4, 8, 16)
#: Fresh set-ups timed between sweep rounds; ``setup_s`` is their
#: median.
SETUPS_PER_ROUND = 2
#: Sweep rounds per run, at least.
MIN_ROUNDS = 5


class Sweep:
    """One fresh set-up: the network and every sweep configuration."""

    def __init__(self):
        from repro.cache.geometry import capacity_sweep
        from repro.config import NeuralCacheConfig
        from repro.core.precision import config_for_precision
        from repro.nn import build_inception_v3

        self.network = build_inception_v3()
        self.configs = []
        for geometry in capacity_sweep():
            capacity_mb = geometry.total_bytes // (1024 * 1024)
            base = NeuralCacheConfig().with_geometry(geometry)
            for bits in PRECISIONS:
                self.configs.append(((capacity_mb, bits),
                                     config_for_precision(bits, base)))
        # The warm-up point.
        from repro.core.executor import NeuralCacheSimulator
        NeuralCacheSimulator(self.network, self.configs[0][1]).run(1)

    def run_config(self, key, config, timings=None) -> dict:
        """The batch sweep of one configuration: key -> point values."""
        from repro.core.executor import NeuralCacheSimulator

        out = {}
        for batch in BATCHES:
            t0 = time.perf_counter()
            sim = NeuralCacheSimulator(self.network, config)
            t1 = time.perf_counter()
            result = sim.run(batch)
            t2 = time.perf_counter()
            if timings is not None:
                timings[0].append(t1 - t0)
                timings[1].append(t2 - t1)
            out[(*key, batch)] = (result.total_time, result.total_energy,
                                  sim.config.sockets, result)
        return out

    def run_once(self) -> dict:
        """Every point of the sweep."""
        out = {}
        for key, config in self.configs:
            out.update(self.run_config(key, config))
        return out


def _paper_errors(points: dict) -> dict:
    from repro.analysis import paper

    latency, energy, _, _ = points[(35, 8, 1)]
    peak = max(points[(35, 8, batch)][2] * batch / points[(35, 8, batch)][0]
               for batch in BATCHES)
    return {
        "latency_ms": latency * 1e3,
        "energy_mj": energy * 1e3,
        "throughput_ips": peak,
        "paper_latency_err_pct":
            abs(latency * 1e3 - paper.NC_LATENCY_MS) / paper.NC_LATENCY_MS
            * 100,
        "paper_throughput_err_pct":
            abs(peak - paper.NC_MAX_THROUGHPUT) / paper.NC_MAX_THROUGHPUT
            * 100,
        "paper_energy_err_pct":
            abs(energy - paper.ENERGY_J["neural_cache"])
            / paper.ENERGY_J["neural_cache"] * 100,
    }


def _summary(points: dict) -> dict:
    return {key: value[:3] for key, value in points.items()}


def _reference_cycles(points: dict) -> float:
    """Modeled batch-1 latency at 35 MB / 8-bit, in compute cycles."""
    from repro.config import NeuralCacheConfig

    return points[(35, 8, 1)][0] * NeuralCacheConfig().frequency_hz


def run(seed: int, seconds: float, trace: bool) -> Result:
    # The model has no inputs to draw: every seed sweeps the same points,
    # so the modeled values must repeat exactly across seeds.
    del seed
    result = Result("inception-analytic")
    start = time.perf_counter()
    sweep = Sweep()  # untimed: it pays the lazy imports
    reference = sweep.run_once()
    n_points = len(reference)
    expected = _summary(reference)
    clock = HostClock()
    timings = ([], [])
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < MIN_ROUNDS:
        for _ in range(0 if trace else SETUPS_PER_ROUND):
            sweep = None  # release the previous set-up before timing
            t0 = time.perf_counter()
            sweep = Sweep()
            clock.record("setup", time.perf_counter() - t0)
        points = {}
        for key, config in sweep.configs:
            # In a traced run, odd rounds time each point's two halves.
            timed = trace and rounds % 2 == 1
            t0 = time.perf_counter()
            points.update(sweep.run_config(key, config,
                                           timings if timed else None))
            clock.record("traced" if timed else "config",
                         time.perf_counter() - t0)
        rounds += 1
        if _summary(points) != expected:
            result.fail("a sweep's modeled values differ from the first "
                        "sweep's", n_points)
        else:
            result.ok(n_points)
    errors = _paper_errors(reference)
    latencies = {bits: reference[(35, bits, 1)][0] for bits in PRECISIONS}
    result.gate(latencies[4] < latencies[8] < latencies[16],
                f"batch-1 latency not increasing with precision: "
                f"{latencies}")
    capacities = [reference[(mb, 8, 1)][0] for mb in (35, 45, 60)]
    result.gate(capacities[0] > capacities[1] > capacities[2],
                f"batch-1 latency not falling with capacity: {capacities}")
    points_per_config = len(BATCHES)
    if trace:
        from tracing import FUNCTIONAL_ONLY, SERVING_ONLY, set_idle

        from repro.config import NeuralCacheConfig

        result.set("core.executor.map_ms_per_point",
                   sum(timings[0]) / len(timings[0]) * 1e3)
        result.set("core.executor.run_ms_per_point",
                   sum(timings[1]) / len(timings[1]) * 1e3)
        clock_hz = NeuralCacheConfig().frequency_hz
        breakdown = reference[(35, 8, 1)][3].breakdown()
        for phase in ("mac", "reduction", "quantization", "pooling"):
            result.set(f"sim.cycles_per_image.{phase}",
                       getattr(breakdown, phase) * clock_hz)
        set_idle(result, FUNCTIONAL_ONLY + SERVING_ONLY)
        result.set("host.probe_ms", clock.probe_median())
        result.set("trace.slowdown_ratio",
                   clock.median("traced") / clock.median("config"))
        # Share of the timed sweeps spent inside the two timed halves.
        result.set("trace.coverage_pct",
                   (sum(timings[0]) + sum(timings[1]))
                   / sum(clock.raw["traced"]) * 100.0)
    else:
        result.set("setup_s", clock.median("setup"))
        result.set("latency_ms",
                   clock.median("config") / points_per_config * 1e3)
        result.set("sim_cycles_per_image", _reference_cycles(reference))
        result.set("peak_rss_mb", peak_rss_mb())
        result.note(clock.describe("setup", 1.0, "s"))
    result.note(clock.describe("config"))
    result.note("paper error: latency {paper_latency_err_pct:.2f}%, "
                "throughput {paper_throughput_err_pct:.2f}%, energy "
                "{paper_energy_err_pct:.2f}% (modeled {latency_ms:.3f} ms, "
                "{throughput_ips:.0f} images/s, {energy_mj:.3f} mJ)"
                .format(**errors))
    result.note(f"{rounds} sweeps of {n_points} points; host probe median "
                f"{clock.probe_median():.2f} ms (reference "
                f"{REF_PROBE_MS} ms)")
    return result
