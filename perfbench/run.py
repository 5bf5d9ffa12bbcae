"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-cold-n50 --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` times the program's public entry points and prints every
end-to-end metric named in ``BENCHMARK.json``; ``--trace 1`` composes the
same pipelines from the per-layer public functions under in-memory spans
and prints every per-layer metric (a layer the workload never calls reads
0).  The last line of standard output is the result object; the exit
code is 1 when any output check failed and 2 when the checkout holds no
program to measure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

# One BLAS thread per process, in this process and in the servers it
# starts.  numpy's OpenBLAS otherwise spins up a thread per core; on a
# few shared cores the SLSQP allocation then burns a third more CPU for
# no speed-up, and its time measures the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: workload name -> (module in this directory, function)
WORKLOADS = {
    "plan-cold-n50": ("planning", "plan_cold"),
    "sweep-fading-n30": ("planning", "sweep_fading"),
    "serve-open-loop": ("serving", "serve_open_loop"),
    "trace-ingest-1m": ("ingest", "trace_ingest"),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("perfbench: BENCHMARK.json missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import Run  # noqa: E402  (this directory is sys.path[0])

    spec = json.loads(spec_path.read_text())
    run = Run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        root=ROOT, scratch=ROOT / ".perfbench",
    )
    run.scratch.mkdir(exist_ok=True)
    module, func = WORKLOADS[args.workload]
    result = getattr(importlib.import_module(module), func)(run)

    listed = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] in result.metrics:
            value = result.metrics[m["name"]]
        elif run.trace:
            value = 0.0
        else:
            raise KeyError(f"{args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    correct = result.failed == 0 and not result.problems
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
