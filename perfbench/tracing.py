"""Span tracing around the program's public layer calls, from outside it.

The program has no tracing of its own, so a traced run wraps the public
methods of each layer class for its duration and restores them after:

* ``FleetExecutor.run_requests`` (the batch entry point);
* the layer engines' ``run_batch`` (``core.functional``);
* the ``FleetBitSerialUnit`` sequences (``engine.bitserial``);
* the ``PlaneStore`` primitives (``engine.fleet`` / ``engine.packed``);
* ``ReferenceExecutor.run_output`` (golden verification, ``nn``).

Every wrapped call is a span with a parent; a span's self time is its
duration minus the time its child spans cover. Spans above the plane
primitives are kept in memory (for one sample) and written out as JSON
lines and as Chrome trace-event JSON, which Perfetto opens. Plane
primitives run hundreds of thousands of times per batch, so they are
only aggregated (count, total and self time per name).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: ``FleetBitSerialUnit`` sequence methods traced as spans.
BITSERIAL_METHODS = (
    "write_values", "write_value_block", "read_values",
    "load_tag", "set_tag_all",
    "zero", "write_scalar", "copy", "complement_copy", "shift_copy",
    "add", "add_into", "sub", "sub_into", "multiply", "mac", "divide",
    "compare_ge", "max_update", "min_update", "relu", "selective_copy",
    "logical_and", "logical_nor", "logical_or", "logical_xor",
    "equality_compare", "search", "reduce_tree",
    "move_across", "reduce_across_arrays",
)
#: ``PlaneStore`` primitives, aggregated but not kept as single spans.
PLANE_PRIMITIVES = (
    "read_plane", "store_plane", "plane_any", "move_plane", "sense",
    "sense_single", "write_back", "load_bits", "dump_bits", "read_row",
    "write_row",
)
#: Host staging calls summed into ``engine.stage_s``.
STAGING = ("write_values", "write_value_block", "read_values")
#: Cap on spans kept in memory for export.
MAX_SPANS = 400_000
#: ``core.functional`` span labels (``fc`` is a ``FunctionalConv`` that
#: runs a fully connected layer).
FUNCTIONAL_KINDS = ("conv", "fc", "add", "maxpool", "avgpool", "batchnorm")
#: Per-layer metrics only the serving workload exercises, and only the
#: analytic one. Every workload reports every per-layer metric; one whose
#: layer does no work in a workload reads 0 there.
SERVING_ONLY = ("engine.pool.batch_ms", "serving.queue_wait_ms.p50",
                "serving.latency_ms.p98", "serving.batch_size_mean")
ANALYTIC_ONLY = ("core.executor.map_ms_per_point",
                 "core.executor.run_ms_per_point")
FUNCTIONAL_ONLY = (
    "nn.reference_ms_per_image", "core.functional.self_ms_per_image",
    "core.functional.skip_ratio", "engine.bitserial.self_ms_per_image",
    "engine.bitserial.reduce_across_ms_per_image",
    "engine.stage_ms_per_image", "engine.plane.ms_per_image",
    "engine.plane.ops_per_image", "engine.plane.us_per_op",
    "engine.plane.probes_per_image",
)
PHASES = ("mac", "reduction", "quantization", "pooling")


def set_idle(result, names) -> None:
    """Report layers a workload does not exercise: no time, no work."""
    for name in names:
        result.set(name, 0.0)


def set_functional_metrics(result, tracer, images: int) -> None:
    """Per-image layer times of the functional path, from one tracer.

    ``images`` is how many images the tracer saw run. Self time is a
    span's duration minus its child spans; plane primitives are timed
    inclusively (they have no children).
    """
    per_image = 1e3 / images
    result.set("core.functional.self_ms_per_image", per_image * sum(
        tracer.self_time(f"core.functional.{kind}")
        for kind in FUNCTIONAL_KINDS))
    result.set("engine.bitserial.self_ms_per_image", per_image * sum(
        tracer.self_time(name) for name in tracer.stats
        if name.startswith("engine.bitserial.")))
    result.set("engine.bitserial.reduce_across_ms_per_image",
               tracer.incl("engine.bitserial.reduce_across_arrays")
               * per_image)
    result.set("engine.stage_ms_per_image", per_image * sum(
        tracer.incl(f"engine.bitserial.{method}") for method in STAGING))
    calls, plane_s = tracer.plane_totals()
    result.set("engine.plane.ms_per_image", plane_s * per_image)
    result.set("engine.plane.ops_per_image", calls / images)
    result.set("engine.plane.us_per_op",
               plane_s / calls * 1e6 if calls else 0.0)
    result.set("engine.plane.probes_per_image",
               tracer.count("engine.plane.plane_any") / images)
    result.set("nn.reference_ms_per_image",
               tracer.incl("nn.reference.run_output") * per_image)
    result.set("trace.coverage_pct",
               tracer.coverage("engine.backend.run_requests") * 100.0)


def set_cycle_metrics(result, report, images: int) -> None:
    """Modeled cycles per image by phase, from a merged ``CycleReport``."""
    for phase in PHASES:
        result.set(f"sim.cycles_per_image.{phase}",
                   getattr(report, phase) / images)
    result.set("core.functional.skip_ratio",
               report.skipped / report.dense_cycles)


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self, fc_names=()):
        #: Node names whose ``FunctionalConv`` engine is a fully
        #: connected layer (reported as ``fc``, not ``conv``).
        self.fc_names = frozenset(fc_names)
        self.stack: list[list] = []          # [span id, child seconds]
        self.stats: dict[str, list] = {}     # name -> [count, incl, self]
        self.spans: list[tuple] = []         # (id, parent, name, t0, t1, rid)
        self.recording = False
        self.rid = None
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------
    def _close(self, name: str, frame: list, parent: int, t0: float,
               t1: float, keep: bool) -> None:
        duration = t1 - t0
        if self.stack:
            self.stack[-1][1] += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if keep and self.recording and len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent, name, t0, t1, self.rid))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        parent = self.stack[-1][0] if self.stack else 0
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self._close(name, frame, parent, t0, t1, True)

    def add(self, name: str, t0: float, t1: float, rid=None) -> None:
        """Keep a span the benchmark timed itself (no parent)."""
        if self.recording and len(self.spans) < MAX_SPANS:
            self.spans.append((self._next_id, 0, name, t0, t1, rid))
            self._next_id += 1

    def _wrap(self, fn, name_of, keep: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else 0
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._close(name_of(args), frame, parent, t0, t1, keep)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, cls, attr: str, name_of, keep: bool = True) -> None:
        own = attr in cls.__dict__
        original = cls.__dict__[attr] if own else None
        setattr(cls, attr, self._wrap(getattr(cls, attr), name_of, keep))
        self._saved.append((cls, attr, own, original))

    # -- install / remove ---------------------------------------------
    def install(self) -> None:
        """Wrap every traced layer method (idempotent per tracer)."""
        if self._saved:
            return
        from repro.core import functional
        from repro.engine.backend import FleetExecutor
        from repro.engine.bitserial import FleetBitSerialUnit
        from repro.engine.fleet import ArrayFleet
        from repro.engine.packed import PackedArrayFleet
        from repro.nn import ReferenceExecutor

        self._patch(FleetExecutor, "run_requests",
                    lambda a: "engine.backend.run_requests")
        self._patch(ReferenceExecutor, "run_output",
                    lambda a: "nn.reference.run_output")
        fc_names = self.fc_names
        self._patch(functional.FunctionalConv, "run_batch",
                    lambda a: ("core.functional.fc"
                               if a[0].name in fc_names
                               else "core.functional.conv"))
        for cls, kind in ((functional.FunctionalMaxPool, "maxpool"),
                          (functional.FunctionalAvgPool, "avgpool"),
                          (functional.FunctionalAdd, "add"),
                          (functional.FunctionalBatchNorm, "batchnorm")):
            label = f"core.functional.{kind}"
            self._patch(cls, "run_batch", lambda a, label=label: label)
        for method in BITSERIAL_METHODS:
            label = f"engine.bitserial.{method}"
            self._patch(FleetBitSerialUnit, method,
                        lambda a, label=label: label)
        for store in (PackedArrayFleet, ArrayFleet):
            for method in PLANE_PRIMITIVES:
                label = f"engine.plane.{method}"
                self._patch(store, method, lambda a, label=label: label,
                            keep=False)

    def remove(self) -> None:
        """Restore every wrapped method exactly as it was."""
        for cls, attr, own, original in reversed(self._saved):
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._saved.clear()

    @contextmanager
    def installed(self, record: bool = False):
        self.recording = record
        self.install()
        try:
            yield self
        finally:
            self.remove()
            self.recording = False

    # -- reductions ---------------------------------------------------
    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def incl(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def plane_totals(self) -> tuple[int, float]:
        """(calls, inclusive seconds) over every plane primitive."""
        planes = [v for name, v in self.stats.items()
                  if name.startswith("engine.plane.")]
        return sum(v[0] for v in planes), sum(v[1] for v in planes)

    def coverage(self, name: str) -> float:
        """Share of ``name``'s wall time covered by its child spans."""
        incl = self.incl(name)
        return 1.0 - self.self_time(name) / incl if incl else 0.0

    # -- export ---------------------------------------------------------
    def export(self, stem: str) -> tuple[str, str]:
        """Write ``<stem>.trace.jsonl`` and ``<stem>.chrome.json``."""
        from harness import out_path

        origin = min((s[3] for s in self.spans), default=0.0)
        jsonl = out_path(f"{stem}.trace.jsonl")
        with open(jsonl, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, rid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_us": round((t0 - origin) * 1e6, 3),
                    "end_us": round((t1 - origin) * 1e6, 3),
                    "request": rid}) + "\n")
            for name, (count, incl, own) in sorted(self.stats.items()):
                fh.write(json.dumps({
                    "aggregate": name, "count": count,
                    "total_s": incl, "self_s": own}) + "\n")
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": round((t0 - origin) * 1e6, 3),
                   "dur": round((t1 - t0) * 1e6, 3),
                   "args": {"request": rid, "id": sid, "parent": parent}}
                  for sid, parent, name, t0, t1, rid in self.spans]
        chrome = out_path(f"{stem}.chrome.json")
        with open(chrome, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)
        return str(jsonl), str(chrome)
