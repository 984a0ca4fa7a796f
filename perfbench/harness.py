"""Shared measurement plumbing: host-speed probe, timing and the result line.

Every workload module fills one :class:`Result` and hands it back to
``run.py``, which prints the human table and the final JSON line.

Host time is measured with a :class:`HostClock`: a fixed pure-Python
probe runs before and after every timed sample, and the sample is
scaled to a reference host speed (``REF_PROBE_MS``). On a shared host
the same warm batch swings by a third between phases, and the probe
swings with it, so the scaled samples stay steady while a change in
the program still moves them in full.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from statistics import median

#: The checkout root (``perfbench/`` sits directly below it).
ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their span exports (ignored by git).
OUT_DIR = ROOT / "perfbench" / "out"
#: The probe's time at the reference host speed, in milliseconds. Every
#: host-time metric reads as if the probe had taken this long.
REF_PROBE_MS = 30.0
#: Iterations of the probe loop (about 30-45 ms on a 2-vCPU Xeon VM).
PROBE_ITERATIONS = 300_000


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def probe() -> float:
    """A fixed pure-Python loop, in milliseconds: how fast the host is now.

    Like the program's hot path it is interpreter dispatch plus small
    container updates, so host phases slow both alike.
    """
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        table[i & 255] = acc
    return (time.perf_counter() - t0) * 1e3


class HostClock:
    """Timed samples, each scaled by the probes on either side of it.

    Call :meth:`record` right after a timed stretch; it probes, scales
    the stretch by the mean of that probe and the one before, and keeps
    both the scaled and the raw seconds under ``name``. After untimed
    work, :meth:`reprobe` refreshes the "before" probe.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.scaled: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.reprobe()

    def reprobe(self) -> None:
        self.before = probe()
        self.probes.append(self.before)

    def record(self, name: str, seconds: float) -> float:
        """Keep one sample; return its scale factor (reference / now)."""
        after = probe()
        self.probes.append(after)
        speed = REF_PROBE_MS / ((self.before + after) / 2)
        self.before = after
        self.scaled.setdefault(name, []).append(seconds * speed)
        self.raw.setdefault(name, []).append(seconds)
        return speed

    def count(self, name: str) -> int:
        return len(self.scaled.get(name, ()))

    def median(self, name: str) -> float:
        """Median scaled seconds of ``name``'s samples."""
        return median(self.scaled[name])

    def raw_median(self, name: str) -> float:
        return median(self.raw[name])

    def describe(self, name: str, unit_scale: float = 1e3,
                 unit: str = "ms") -> str:
        return (f"{name}: {self.count(name)} samples, median "
                f"{self.median(name) * unit_scale:.4g} {unit} scaled / "
                f"{self.raw_median(name) * unit_scale:.4g} {unit} raw")

    def probe_median(self) -> float:
        return median(self.probes)


def _hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of a process, in KiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids=()) -> float:
    """Peak RSS of this process plus each live worker process, in MiB."""
    total = _hwm_kb("self")
    if not total:
        import resource
        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total += sum(_hwm_kb(pid) for pid in worker_pids)
    return total / 1024.0


class Result:
    """What one workload run measured and whether its outputs held.

    ``attempted``/``failed`` count operations (images, requests or
    analytic points). A failed correctness gate adds to ``failed`` and
    records a message; any message makes the command exit non-zero.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.problems.append(message)

    def gate(self, condition: bool, message: str) -> bool:
        """A check that is not tied to a counted operation."""
        if not condition:
            self.failed += 1
            self.attempted += 1
            self.problems.append(message)
        return condition

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def render(self, spec_metrics: list[dict]) -> tuple[str, dict]:
        """The human table and the JSON result object.

        The JSON carries exactly the metrics of ``spec_metrics``; one
        that was not measured is a failed gate.
        """
        unknown = sorted(set(self.metrics)
                         - {m["name"] for m in spec_metrics})
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        for m in spec_metrics:
            self.gate(m["name"] in self.metrics,
                      f"metric {m['name']} was not measured")
        lines = [f"workload {self.workload}: attempted {self.attempted}, "
                 f"failed {self.failed}"]
        lines += [f"  note: {text}" for text in self.notes]
        lines += [f"  GATE FAILED: {text}" for text in self.problems[:10]]
        if len(self.problems) > 10:
            lines.append(f"  ... and {len(self.problems) - 10} more")
        payload = {}
        for m in spec_metrics:
            name = m["name"]
            if name not in self.metrics:
                continue
            value = self.metrics[name]
            lines.append(f"  {name:<36} {value:>16.6g} {m['unit']:<8} "
                         f"{m['better']}")
            payload[name] = {"value": value, "unit": m["unit"]}
        result = {"correct": self.correct,
                  "attempted": max(self.attempted, 1),
                  "failed": self.failed,
                  "metrics": payload}
        return "\n".join(lines), result


def out_path(name: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR / name


def pin_threads() -> None:
    """One BLAS/OpenMP thread: set before NumPy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
