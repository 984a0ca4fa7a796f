"""Evidence that the benchmark is steady, and the held-out-seed check.

``--steady N`` runs every selected workload N times, each in a fresh
process with its own seed, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median,
set against the metric's bound from ``BENCHMARK.json``. A spread under
a third of the bound is steady. ``--sets K`` repeats the N runs K times
and also compares each set's median with the first set's.

``--heldout SEED`` runs each workload three times on ``--seed`` and
three times on ``SEED``, alternating. Simulated counts must repeat
exactly on the same seed; those that do not depend on the input must
also repeat exactly on the held-out seed, and the medians of host
metrics must differ by less than their bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from harness import ROOT

#: Simulated counts: identical whenever the inputs are.
SIMULATED = ("sim_cycles_per_image",)
#: Workloads whose simulated counts depend on the input: sparsity skips
#: a plane only when it is zero across the whole fleet.
INPUT_DEPENDENT = ("span-sparse-b8",)
#: Runs per seed in the held-out check; host metrics compare medians.
HELDOUT_RUNS = 3


def _exact(workload: str, name: str, same_seed: bool) -> bool:
    """Must ``name`` repeat exactly between two runs of ``workload``?"""
    return name in SIMULATED and (same_seed
                                  or workload not in INPUT_DEPENDENT)


def _one(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh process; its parsed result line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  seed {seed}: " + ", ".join(f"{name}={value:.6g}"
                                         for name, value in values.items()),
          flush=True)
    return values


def _spread(values) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(spec: dict, workloads, seed: int, runs: int, sets: int,
               seconds: float) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        medians: dict[str, list] = {}
        for k in range(sets):
            samples: dict[str, list] = {}
            for i in range(runs):
                values = _one(workload, seed + k * runs + i, seconds)
                for name, value in values.items():
                    samples.setdefault(name, []).append(value)
            print(f"\n{workload} set {k + 1}: {runs} runs, seeds "
                  f"{seed + k * runs}..{seed + k * runs + runs - 1}")
            print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}  verdict")
            for name, values in samples.items():
                med, q1, q3, spread = _spread(values)
                bound = bounds[name]
                if _exact(workload, name, False) and len(set(values)) > 1:
                    verdict = "NOT EXACT"
                    status = 1
                elif spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    status = 1
                medians.setdefault(name, []).append(med)
                print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.2%} {bound:>6.0%}  {verdict}")
        if sets > 1:
            print(f"  second-set medians against the first ({workload}):")
            for name, meds in medians.items():
                shifts = [m / meds[0] - 1.0 for m in meds[1:]]
                worst = max(abs(s) for s in shifts)
                verdict = "ok" if worst <= bounds[name] else "MOVED"
                if verdict != "ok":
                    status = 1
                print(f"  {name:<28} "
                      f"{' '.join(f'{s:+.2%}' for s in shifts):>20}  "
                      f"{verdict}")
    return status


def heldout(spec: dict, workloads, seed: int, other: int,
            seconds: float) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        # Alternate the seeds, so host-speed drift reaches both alike.
        mine, theirs = [], []
        for _ in range(HELDOUT_RUNS):
            mine.append(_one(workload, seed, seconds))
            theirs.append(_one(workload, other, seconds))
        print(f"\n{workload}: seed {seed} vs held-out seed {other}, "
              f"medians of {HELDOUT_RUNS} runs each")
        for name in mine[0]:
            values = [run[name] for run in mine]
            others = [run[name] for run in theirs]
            value = statistics.median(values)
            again = statistics.median(others)
            checks = []
            if _exact(workload, name, True):
                checks.append(("same seed", len(set(values)) == 1))
            if _exact(workload, name, False):
                checks.append(("held-out", set(others) == set(values)))
                verdict = "exact"
            else:
                shift = again / value - 1.0
                verdict = f"{shift:+.2%} (bound {bounds[name]:.0%})"
                checks.append((verdict, abs(shift) <= bounds[name]))
            failed = [label for label, ok in checks if not ok]
            status |= bool(failed)
            if failed:
                verdict = "FAILED " + ", ".join(failed)
            print(f"  {name:<28} {value:>14.6g} {again:>14.6g}  {verdict}")
    return int(status)
