"""The repository benchmark: one command, four workloads, gated outputs.

Run from the repository root::

    python3 perfbench/run.py --workload resnet-dense-b8 --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics and writes span
exports under ``perfbench/out/``. Every workload reports every metric
of the list it prints. The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
The command exits non-zero when any correctness gate fails.

``--steady N`` runs each selected workload N times (seeds
``--seed``, ``--seed``+1, ...) in fresh processes and prints each
metric's median, quartiles and spread against its bound;
``--heldout SEED`` repeats one run per workload on a second seed and
checks that input-independent counts repeat exactly. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, Result, load_spec, pin_threads  # noqa: E402

WORKLOADS = ("resnet-dense-b8", "span-sparse-b8", "serve-open-tiny",
             "inception-analytic")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from a "
                 f"full checkout")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name in ("resnet-dense-b8", "span-sparse-b8"):
        import offline
        return offline.run(name, seed, seconds, trace)
    if name == "serve-open-tiny":
        import open_loop
        return open_loop.run(seed, seconds, trace)
    import analytic
    return analytic.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run each workload N times; print spreads")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --steady: repeat the N runs this many "
                             "times and compare medians")
    parser.add_argument("--heldout", type=int, metavar="SEED",
                        help="compare one run per workload on --seed and "
                             "on this held-out seed")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.steady or args.heldout is not None:
        import steady
        if args.steady:
            return steady.steadiness(spec, workloads, args.seed,
                                     args.steady, args.sets, seconds)
        return steady.heldout(spec, workloads, args.seed, args.heldout,
                              seconds)
    if not args.workload:
        parser.error("--workload is required for a single run")

    pin_threads()
    _bootstrap()
    from repro.common.errors import SimulationError
    try:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace))
    except SimulationError as exc:
        # A set-up or warm-up request that fails is a failed gate too.
        result = Result(args.workload)
        result.fail(f"aborted: {exc}")
    family = spec["per_layer"] if args.trace else spec["end_to_end"]
    table, payload = result.render(family)
    print(table, flush=True)
    print(json.dumps(payload), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
