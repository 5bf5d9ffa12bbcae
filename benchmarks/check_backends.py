#!/usr/bin/env python
"""Cross-check the stdlib (compact CSR) and numpy pipeline variants.

Runs the benchmark instance through the stdlib kernels (``compute="python"``,
the reference) and the numpy kernels, and fails (exit 1) on any
divergence: auxiliary graph size, Steiner work counters, tree cost, or the
final schedules themselves — which must be *identical*, not merely equal in
cost (the numpy build reproduces the compact build's node/edge ordering, so
the greedy solver's tie-breaks coincide).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_backends.py [--nodes N] [--delay T]

CI runs this next to the bench gate so a variant drift is caught even when
each variant is individually fast and individually feasible.
"""

import argparse
import sys

from repro.algorithms import make_scheduler
from repro.obs.bench import _build_instance

def check(name, tveg, source, delay):
    """Compare one scheduler across kernels; return divergence messages."""
    problems = []
    ref = make_scheduler(name, compute="python").run(tveg, source, delay)
    cur = make_scheduler(name, compute="numpy").run(tveg, source, delay)
    for key in ("aux_nodes", "aux_edges", "dts_points", "dcs_levels",
                "steiner_expansions", "tree_cost"):
        if ref.info.get(key) != cur.info.get(key):
            problems.append(
                f"{name}: info[{key!r}] diverges — "
                f"python={ref.info.get(key)!r} numpy={cur.info.get(key)!r}"
            )
    if ref.schedule.transmissions != cur.schedule.transmissions:
        problems.append(
            f"{name}: schedules diverge — python has "
            f"{ref.schedule.num_transmissions} transmissions "
            f"(cost {ref.schedule.total_cost!r}), numpy has "
            f"{cur.schedule.num_transmissions} "
            f"(cost {cur.schedule.total_cost!r})"
        )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=12)
    parser.add_argument("--delay", type=float, default=2000.0)
    parser.add_argument("--seed", type=int, default=99)
    args = parser.parse_args(argv)

    static, fading, source, _trace = _build_instance(
        args.nodes, args.delay, args.seed
    )
    problems = []
    problems += check("eedcb", static, source, args.delay)
    problems += check("fr-eedcb", fading, source, args.delay)
    if problems:
        for p in problems:
            print(f"BACKEND DIVERGENCE: {p}", file=sys.stderr)
        return 1
    print("# backends agree: eedcb and fr-eedcb schedules identical under "
          "compute=python and compute=numpy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
