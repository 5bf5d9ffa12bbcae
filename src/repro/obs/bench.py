"""Micro-benchmark suite with a committed-baseline regression gate.

``run_bench`` times the pipeline's core operations (DTS construction,
auxiliary-graph build, Steiner solve, full EEDCB / FR-EEDCB runs,
Monte-Carlo simulation, protocol-level plan execution, temporal Dijkstra,
feasibility checking, plan-cache
hits, batched service planning, and columnar trace ingest) on a
deterministic synthetic instance and reports p50/p95 wall times together
with the *work counters* each operation produced (Steiner expansions, NLP
iterations, Dijkstra settles).  Counters are machine-independent, so they
gate algorithmic regressions exactly; wall times gate performance with a
configurable tolerance.  The scale ops additionally record **peak
memory** as a ``peak_mb`` counter — tracemalloc heap peak for
``trace_ingest``, child-process peak RSS for the full-mode ``plan_n1000``
— gated with the same tolerance as times, so a memory blow-up fails the
gate exactly like a slowdown.

``compare`` checks a fresh result against a committed baseline
(:file:`benchmarks/baseline.json`) and reports every tier-1 operation whose
p50 time, work counter, or peak memory grew by more than the tolerance
(default 25 %).
``repro bench`` wires this to the command line and exits nonzero on any
regression; CI runs it with a wider time tolerance to absorb machine
variance (counters stay exact).

The suite also measures the *disabled-instrumentation overhead*: the cost
of the hoisted ``ledger.enabled`` checks and no-op counter bumps that
remain in the hot paths when observability is off, reported as an estimated
fraction of an EEDCB run (the acceptance bar is < 1 %).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .ledger import Ledger, get_ledger, set_ledger
from .manifest import run_manifest
from .metrics import percentile

__all__ = [
    "BENCH_SCHEMA",
    "TIER1_OPS",
    "STALE_BASELINE_COMMITS",
    "run_bench",
    "compare",
    "baseline_staleness",
    "write_bench",
    "read_bench",
    "bench_filename",
    "measure_disabled_overhead",
]

BENCH_SCHEMA = "repro.bench/1"

#: operations whose regression fails the gate (ROADMAP tier-1 pipeline)
TIER1_OPS = (
    "dts_build",
    "aux_compact_build",
    "steiner_solve",
    "eedcb_run",
    "eedcb_run_n50",
    "fr_eedcb_run",
    "monte_carlo",
    "protosim_run",
    "plan_cache_hit",
    "batched_plan",
    "plan_many",
    "service_throughput",
    "service_p99_hit",
    "telemetry_overhead",
    "trace_ingest",
    "plan_n1000",
)

#: counters that are deterministic work measures (gated exactly like times)
_GATED_COUNTERS = ("steiner_expansions", "journeys_expanded")

#: counters that record peak memory in MB — gated like times, with an
#: absolute slack absorbing allocator noise (memory needs no calibration:
#: a megabyte is a megabyte on every machine)
_GATED_MEMORY = ("peak_mb",)
_MEMORY_SLACK_MB = 8.0


def _calibrate(repeats: int = 5) -> float:
    """Wall time (ms) of a fixed interpreter-bound workload, best of N.

    The pipeline ops are interpreter-bound too, so dividing their times by
    this calibration cancels machine speed and transient slowdown (CPU
    frequency scaling, noisy neighbours) — the gate then compares
    machine-independent ratios instead of raw milliseconds.
    """
    def work() -> float:
        # Mixed arithmetic + allocation, mirroring the graph-build ops
        # (which are dominated by object construction, not arithmetic).
        acc = 0.0
        store = {}
        for i in range(60_000):
            acc += (i % 7) * 1.000001
            store[i % 512] = (i, acc, [i, i + 1])
        return acc

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def _build_instance(num_nodes: int, delay: float, seed: int):
    """The fixed benchmark instance: a Haggle-like window, both channels."""
    from ..temporal.reachability import broadcast_feasible_sources
    from ..traces import HaggleLikeConfig, haggle_like_trace
    from ..tveg import tveg_from_trace

    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=num_nodes), seed=seed)
    window = trace.restrict_window(9000.0, 9000.0 + delay).shift(-9000.0)
    static = tveg_from_trace(window, "static", seed=5)
    fading = tveg_from_trace(window, "rayleigh", seed=5)
    sources = sorted(broadcast_feasible_sources(static.tvg, 0.0, delay))
    if not sources:
        raise RuntimeError(
            f"benchmark instance (N={num_nodes}, seed={seed}) has no "
            "broadcast-feasible source; adjust the window"
        )
    return static, fading, sources[0], trace


def _ops(
    static, fading, source, trace, delay: float, trials: int,
    compute: Optional[str] = None,
) -> List[Tuple[str, Callable[[], Optional[Dict[str, float]]]]]:
    """(name, thunk) pairs; a thunk may return a counters dict.

    ``compute`` selects the kernel implementation the scheduler and batch
    ops run on (``None`` → the stdlib ``"python"`` path, matching the
    committed baselines).  Both kernels report identical work counters,
    which CI cross-checks.  The aux-build and scheduler ops
    clear the TVEG's DCS/cost caches before each repeat so every timing is
    a cold build — otherwise the first op to run would warm the memo for
    the rest and the numbers would depend on suite order.
    """
    from ..algorithms import make_scheduler
    from ..api import plan_broadcast, plan_broadcast_many, plan_cache_key
    from ..auxgraph import build_compact_aux_graph
    from ..dts import build_dts
    from ..schedule import check_feasibility
    from ..service import Batcher, PlanCache
    from ..service.server import (
        PlanningService,
        execute_request,
        parse_plan_request,
    )
    from ..protosim import run_protocol_trials
    from ..sim import run_trials
    from ..steiner import solve_memt
    from ..temporal import earliest_arrivals
    from ..temporal.reachability import broadcast_feasible_sources

    kernel = compute or "python"
    dts = build_dts(static.tvg, delay)
    aux = build_compact_aux_graph(static, source, delay, dts)
    schedule = make_scheduler("eedcb").run(static, source, delay).schedule
    plan_cache = PlanCache()
    plan_broadcast(static, source, delay, cache=plan_cache)  # prewarm
    plan_key = plan_cache_key(static, source, delay)
    many_sources = sorted(
        broadcast_feasible_sources(static.tvg, 0.0, delay)
    )[:4]

    # Two dedicated services for the serving-path ops (daemon batcher
    # threads; no explicit teardown needed).  Each gets one prewarm
    # request so its TVEG registry is hot — the ops time *serving*, not
    # graph construction.  ``svc_throughput``'s plan cache is cleared per
    # repeat (mixed hit/miss workload); ``svc_hit``'s stays warm.
    service_body = {"deadline": delay, "window": 9000.0, "seed": 5,
                    "compute": kernel}
    service_req = parse_plan_request("/plan", dict(service_body))
    miss_reqs = [
        parse_plan_request("/plan", dict(service_body, source=s))
        for s in many_sources
    ]
    svc_throughput = PlanningService({"bench": trace}, max_wait=0.0,
                                     workers=2)
    execute_request(svc_throughput, service_req[0], dict(service_req[1]))
    svc_throughput.cache.clear()
    svc_hit = PlanningService({"bench": trace}, max_wait=0.0, workers=2)
    execute_request(svc_hit, service_req[0], dict(service_req[1]))

    def dts_build():
        d = build_dts(static.tvg, delay)
        return {"dts_points": float(d.total_points())}

    def aux_compact_build():
        static.clear_caches()
        a = build_compact_aux_graph(static, source, delay, dts)
        return {"aux_nodes": float(a.num_nodes), "aux_edges": float(a.num_edges)}

    def steiner_solve():
        stats: Dict[str, int] = {}
        solve_memt(aux, aux.root, aux.terminals, method="greedy",
                   stats=stats)
        return {"steiner_expansions": float(stats.get("expansions", 0))}

    def eedcb_run():
        static.clear_caches()
        info = make_scheduler(
            "eedcb", compute=kernel
        ).run(static, source, delay).info
        return {"steiner_expansions": float(info["steiner_expansions"])}

    def fr_eedcb_run():
        fading.clear_caches()
        info = make_scheduler(
            "fr-eedcb", compute=kernel
        ).run(fading, source, delay).info
        return {"nlp_iterations": float(info["nlp_iterations"])}

    def monte_carlo():
        run_trials(static, schedule, source, num_trials=trials, seed=1)
        return {"trials": float(trials)}

    def monte_carlo_parallel():
        run_trials(static, schedule, source, num_trials=trials, seed=1,
                   workers=2)
        return {"trials": float(trials), "workers": 2.0}

    def protosim_run():
        # The EEDCB plan executed as protocol behavior on the fading twin
        # (the lossy case exercises ACKs and retransmissions).  Frame and
        # retransmit totals are summed from the per-trial results, so the
        # counters are exact integers — deterministic for the fixed seed
        # and independent of compute (the schedule is byte-identical
        # across kernels).
        s = run_protocol_trials(
            fading, schedule, source, delay, num_trials=trials, seed=1,
            keep_outcomes=True,
        )
        return {
            "trials": float(trials),
            "data_frames": float(
                sum(r.counts.data_sent for r in s.outcomes)
            ),
            "retransmits": float(
                sum(r.counts.retransmits for r in s.outcomes)
            ),
        }

    def temporal_dijkstra():
        arr = earliest_arrivals(static.tvg, source)
        return {"journeys_expanded": float(sum(1 for a in arr.values()
                                               if a < float("inf")))}

    def feasibility_check():
        check_feasibility(static, schedule, source, delay)
        return None

    def plan_cache_hit():
        # One memory hit is ~µs — far below timer resolution — so each
        # repeat times a fixed block of 200 lookups (key derivation + LRU
        # hit; the acceptance bar is the *whole* hit path staying ≥50×
        # faster than eedcb_run).
        for _ in range(200):
            plan_broadcast(static, source, delay, cache=plan_cache)
        return {"lookups": 200.0}

    def batched_plan():
        # The service path: 8 duplicate concurrent requests through a
        # Batcher, deduped to exactly one cold plan computation.
        static.clear_caches()
        with Batcher(max_wait=0.05, workers=2) as b:
            futures = [
                b.submit(
                    plan_key,
                    lambda: plan_broadcast(static, source, delay),
                )
                for _ in range(8)
            ]
            for f in futures:
                f.result(timeout=120)
        # stats()["deduped"] is *almost* always 7 here, but a stalled
        # flush thread can legitimately split the batch — don't report a
        # counter CI would gate exactly (the dedupe property itself is
        # asserted in tests/test_service.py).
        return {"requests": 8.0}

    def plan_many():
        # The batch API: k sources over one shared instance, cold caches —
        # the acceptance bar is beating k independent plan_broadcast calls
        # by amortizing the TVEG/DCS/aux construction across the batch.
        static.clear_caches()
        planset = plan_broadcast_many(
            static, many_sources, delay, compute=kernel
        )
        return {"requests": float(len(planset))}

    def service_throughput():
        # A fixed mixed hit/miss block through the full serving path
        # (parse → cache → batcher → plan-document serialization): four
        # repeats of the base configuration around each distinct-source
        # miss, cold plan cache per repeat.  Requests run serially, so
        # the hit/miss split is deterministic and gateable.
        svc_throughput.cache.clear()
        requests: List[Tuple[str, Dict[str, Any]]] = []
        for miss in miss_reqs:
            requests += [service_req] * 4 + [miss]
        hits = 0
        for method, kwargs in requests:
            status, doc = execute_request(svc_throughput, method,
                                          dict(kwargs))
            if status != 200:
                raise RuntimeError(f"service bench request failed: {doc}")
            hits += bool(doc["cached"])
        return {"requests": float(len(requests)), "cache_hits": float(hits)}

    def telemetry_overhead():
        # The per-request cost the service telemetry adds to the hot
        # path: minting + entering a request context, one histogram
        # observation, and one counter bump — the exact instrumentation
        # sequence the serving layer runs per request.  A single pass is
        # sub-microsecond, so each repeat times a block of 1000.
        from .context import request_context
        from .histogram import MetricsRegistry

        reg = MetricsRegistry()
        for _ in range(1000):
            with request_context():
                reg.observe("stage.compute", 0.0042)
                reg.inc("service.requests")
        return {"operations": 1000.0}

    def service_p99_hit():
        # One served cache hit is far below timer resolution, so each
        # repeat times a block of 200 — the tail-latency claim itself
        # (p99 under load) is measured end-to-end by tools/loadtest.py;
        # this op gates the in-process hit path those tails are made of.
        for _ in range(200):
            status, doc = execute_request(svc_hit, service_req[0],
                                          dict(service_req[1]))
            if status != 200 or not doc["cached"]:
                raise RuntimeError("service hit bench fell through cache")
        return {"lookups": 200.0}

    return [
        ("dts_build", dts_build),
        ("aux_compact_build", aux_compact_build),
        ("steiner_solve", steiner_solve),
        ("eedcb_run", eedcb_run),
        ("fr_eedcb_run", fr_eedcb_run),
        ("monte_carlo", monte_carlo),
        ("monte_carlo_parallel", monte_carlo_parallel),
        ("protosim_run", protosim_run),
        ("temporal_dijkstra", temporal_dijkstra),
        ("feasibility_check", feasibility_check),
        ("plan_cache_hit", plan_cache_hit),
        ("batched_plan", batched_plan),
        ("plan_many", plan_many),
        ("service_throughput", service_throughput),
        ("service_p99_hit", service_p99_hit),
        ("telemetry_overhead", telemetry_overhead),
    ]


#: the N=1000 scale instance every scale op and the CI smoke agree on
SCALE_NODES = 1000
SCALE_CONTACTS = 1_000_000
SCALE_HORIZON = 200_000.0
SCALE_SEED = 42
SCALE_WINDOW = (0.0, 2000.0)
SCALE_DEADLINE = 1500.0

#: the subprocess body of the ``plan_n1000`` op: generate the scale
#: instance, plan one source end-to-end, report peak RSS (the OS
#: high-water mark — measured in a child so other ops cannot inflate it)
_PLAN_N1000_CODE = """\
import json, resource, sys
from repro.api import plan_broadcast
from repro.traces.synthetic import scale_trace_store

store = scale_trace_store({nodes}, {contacts}, {horizon}, seed={seed})
plan = plan_broadcast(
    store, 0, {deadline}, window={window}, algorithm="greed", seed=5
)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak_mb = rss / 1e6 if sys.platform == "darwin" else rss / 1024.0
print(json.dumps({{
    "feasible": plan.feasible,
    "total_cost": repr(plan.total_cost),
    "fingerprint": store.fingerprint(),
    "peak_mb": peak_mb,
}}))
"""


def _scale_ops(
    quick: bool, repeats: int, compute: Optional[str]
) -> Tuple[List[Tuple[str, Callable[[], Dict[str, float]], int]],
           Callable[[], None]]:
    """The columnar-store scale ops: ``trace_ingest`` and ``plan_n1000``.

    ``trace_ingest`` streams a synthetic one-contact-per-line text trace
    into a :class:`~repro.traces.store.ContactStore` (parse + incremental
    fingerprint — the service's cache-key path) and reports the file size
    so MB/s falls out of the timing; its ``peak_mb`` counter is the
    tracemalloc heap peak of one untimed ingest pass, so the
    bounded-memory claim is gated without tracemalloc slowing the timed
    repeats.  ``plan_n1000`` (full mode only) runs the whole scale story —
    generate the N=1000 / 10^6-contact instance, window it, plan one
    source — in a child interpreter and reports the child's peak RSS.

    Returns ``(ops, cleanup)``: ops as ``(name, thunk, repeats)`` and a
    cleanup thunk removing the temp trace file.
    """
    import subprocess
    import sys
    import tempfile
    import tracemalloc

    from ..traces.store import ingest_path
    from ..traces.synthetic import scale_trace_store
    from ..traces.writer import write_crawdad

    if quick:
        gen_nodes, gen_contacts, gen_horizon = 200, 50_000, 20_000.0
    else:
        gen_nodes, gen_contacts, gen_horizon = (
            SCALE_NODES, SCALE_CONTACTS, SCALE_HORIZON
        )
    scale = scale_trace_store(
        gen_nodes, gen_contacts, gen_horizon, seed=SCALE_SEED
    )
    fd, text_path = tempfile.mkstemp(suffix=".txt", prefix="bench-trace-")
    os.close(fd)
    write_crawdad(scale, text_path)
    size_mb = os.path.getsize(text_path) / 1e6

    tracemalloc.start()
    probe = ingest_path(text_path)
    expected_fp = probe.fingerprint()
    ingest_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    del probe

    def cleanup() -> None:
        try:
            os.unlink(text_path)
        except OSError:
            pass

    def trace_ingest() -> Dict[str, float]:
        store = ingest_path(text_path)
        if store.fingerprint() != expected_fp:
            raise RuntimeError("ingest fingerprint drifted across repeats")
        return {
            "contacts": float(store.num_contacts),
            "mb": size_mb,
            "peak_mb": ingest_peak_mb,
        }

    ops = [("trace_ingest", trace_ingest, min(repeats, 3))]
    if not quick:
        code = _PLAN_N1000_CODE.format(
            nodes=SCALE_NODES, contacts=SCALE_CONTACTS,
            horizon=SCALE_HORIZON, seed=SCALE_SEED,
            deadline=SCALE_DEADLINE, window=SCALE_WINDOW,
        )
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        # Pin the child's auto kernel resolution to the suite's kernel so
        # a python-mode baseline stays numpy-free end to end.
        env["REPRO_COMPUTE"] = compute or "python"

        def plan_n1000() -> Dict[str, float]:
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, env=env, timeout=3600,
            )
            if out.returncode != 0:
                raise RuntimeError(
                    f"plan_n1000 child failed: {out.stderr.strip()[-500:]}"
                )
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            if not doc["feasible"]:
                raise RuntimeError("plan_n1000 schedule verified infeasible")
            return {
                "nodes": float(SCALE_NODES),
                "contacts": float(SCALE_CONTACTS),
                "peak_mb": float(doc["peak_mb"]),
            }

        ops.append(("plan_n1000", plan_n1000, 1))
    return ops, cleanup


def measure_disabled_overhead(
    eedcb_thunk: Callable[[], Any], p50_seconds: float, calls: int = 200_000
) -> Dict[str, float]:
    """Estimate the cost of instrumentation left in hot paths when off.

    Times the exact disabled-path pattern (an ``enabled`` attribute check,
    plus a no-op ``counter`` bump) per call, counts how many instrumentation
    events one EEDCB run actually produces (by running it once with a
    recording ledger), and reports the product as a fraction of the run's
    disabled-mode p50.
    """
    from .tracer import counter

    led = get_ledger()
    t0 = time.perf_counter()
    for _ in range(calls):
        if led.enabled:
            led.emit("x")
        counter("bench.noop")
    gated = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        pass
    bare = time.perf_counter() - t0
    per_call = max((gated - bare) / calls, 0.0)

    old = set_ledger(Ledger())
    try:
        eedcb_thunk()
        events_per_run = len(get_ledger())
    finally:
        set_ledger(old)

    estimated = (
        events_per_run * per_call / p50_seconds if p50_seconds > 0 else 0.0
    )
    return {
        "noop_call_ns": per_call * 1e9,
        "events_per_eedcb_run": float(events_per_run),
        "estimated_fraction_of_eedcb": estimated,
    }


def run_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    num_nodes: Optional[int] = None,
    seed: int = 99,
    compute: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the suite; returns the bench document (see :data:`BENCH_SCHEMA`).

    ``quick`` shrinks the instance and repeat count for CI smoke runs (and
    skips the large ``eedcb_run_n50`` instance, which only full runs
    time).  ``compute`` selects the kernel implementation for the
    scheduler and batch ops (``None`` → the stdlib path the committed
    baselines record; pass ``"numpy"`` to benchmark the array kernels
    against :file:`benchmarks/baseline_numpy.json`).  Instrumentation is
    forced off during timing so the numbers reflect the shipped default
    configuration.
    """
    from ..compute import resolve_compute
    from .tracer import is_enabled

    if is_enabled() or get_ledger().enabled:
        raise RuntimeError(
            "disable tracing and the ledger before benchmarking; the suite "
            "times the default (disabled) configuration"
        )
    if compute is not None:
        compute = resolve_compute(compute)
    r = repeats if repeats is not None else (3 if quick else 7)
    n = num_nodes if num_nodes is not None else (12 if quick else 20)
    delay = 2000.0
    trials = 30 if quick else 100
    static, fading, source, trace = _build_instance(n, delay, seed)

    def time_op(name: str, thunk, rep: int) -> None:
        times: List[float] = []
        counters: Optional[Dict[str, float]] = None
        for _ in range(rep):
            t0 = time.perf_counter()
            counters = thunk()
            times.append(time.perf_counter() - t0)
        results[name] = {
            "tier1": name in TIER1_OPS,
            "repeats": rep,
            "min_ms": min(times) * 1e3,
            "p50_ms": percentile(times, 50.0) * 1e3,
            "p95_ms": percentile(times, 95.0) * 1e3,
            "mean_ms": sum(times) / len(times) * 1e3,
            "counters": counters or {},
        }

    results: Dict[str, Any] = {}
    eedcb_thunk = None
    for name, thunk in _ops(static, fading, source, trace, delay, trials,
                            compute):
        if name == "eedcb_run":
            eedcb_thunk = thunk
        time_op(name, thunk, r)

    scale_ops, scale_cleanup = _scale_ops(quick, r, compute)
    try:
        for name, thunk, rep in scale_ops:
            time_op(name, thunk, rep)
    finally:
        scale_cleanup()

    if not quick:
        # The scaling instance: N=50 is where the array kernels earn their
        # keep (the stdlib path spends tens of seconds here), so cap the
        # repeats rather than multiply them.
        from ..algorithms import make_scheduler

        static50, _fading50, source50, _trace50 = _build_instance(
            50, delay, seed
        )
        kernel50 = compute or "python"

        def eedcb_run_n50():
            static50.clear_caches()
            info = make_scheduler(
                "eedcb", compute=kernel50
            ).run(static50, source50, delay).info
            return {"steiner_expansions": float(info["steiner_expansions"])}

        time_op("eedcb_run_n50", eedcb_run_n50, min(r, 2))

    overhead = measure_disabled_overhead(
        eedcb_thunk, results["eedcb_run"]["p50_ms"] / 1e3
    )
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "calibration_ms": _calibrate(),
        "compute": compute,
        "manifest": run_manifest(
            config={"num_nodes": n, "delay": delay, "trials": trials,
                    "repeats": r, "seed": seed, "quick": quick,
                    "compute": compute},
        ),
        "results": results,
        "overhead": overhead,
    }


def compare(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = 0.25,
    strict_missing: bool = False,
) -> List[str]:
    """Regression messages for tier-1 ops; empty means the gate passes.

    A tier-1 op regresses when its wall time, any gated work counter, or
    its recorded peak memory (the ``peak_mb`` counter of the scale ops)
    exceeds the baseline by more than ``tolerance`` (fractional).  Times
    are compared by their per-suite *minimum* (the robust estimator under
    background load), normalized by each suite's interpreter calibration
    (see :func:`_calibrate`) so machine speed and transient slowdown cancel
    out.  By default ops missing from either side are skipped (the suites
    may differ across versions); ``strict_missing`` instead reports every
    baseline tier-1 op absent from the current run — a silently dropped op
    is a gate hole, not a pass — which is how :mod:`benchmarks.regress`
    runs it.  A shrunken-instance (quick) run is only compared against a
    quick baseline.
    """
    problems: List[str] = []
    if current.get("quick") != baseline.get("quick"):
        return [
            "bench modes differ (quick vs full); regenerate the baseline "
            "with the same mode"
        ]
    if current.get("compute") != baseline.get("compute"):
        return [
            f"bench kernels differ (compute={current.get('compute')!r} vs "
            f"baseline {baseline.get('compute')!r}); gate numpy runs "
            "against benchmarks/baseline_numpy.json"
        ]
    cur_cal = current.get("calibration_ms") or 0.0
    base_cal = baseline.get("calibration_ms") or 0.0
    # Scale baseline times to this run's machine speed; 1.0 when either
    # suite predates calibration.
    scale = cur_cal / base_cal if cur_cal > 0 and base_cal > 0 else 1.0
    base_results = baseline.get("results", {})
    if strict_missing:
        cur_results = current.get("results", {})
        for op, base in base_results.items():
            if base.get("tier1") and op not in cur_results:
                problems.append(
                    f"{op}: tier-1 op in the baseline but missing from this "
                    "run (suite shrank; regenerate the baseline if "
                    "intentional)"
                )
    for op, cur in current.get("results", {}).items():
        if not cur.get("tier1"):
            continue
        base = base_results.get(op)
        if base is None:
            continue
        bt = base.get("min_ms", base.get("p50_ms", 0.0)) * scale
        ct = cur.get("min_ms", cur.get("p50_ms", 0.0))
        # Small absolute slack: sub-millisecond ops jitter far more than 25 %.
        if bt > 0 and ct > bt * (1.0 + tolerance) and ct - bt > 1.0:
            problems.append(
                f"{op}: min {ct:.2f} ms vs calibrated baseline {bt:.2f} ms "
                f"(+{(ct / bt - 1.0) * 100:.0f}%, tolerance "
                f"{tolerance * 100:.0f}%)"
            )
        base_counters = base.get("counters", {})
        for key in _GATED_COUNTERS:
            if key in base_counters and key in cur.get("counters", {}):
                bc, cc = base_counters[key], cur["counters"][key]
                if bc > 0 and cc > bc * (1.0 + tolerance):
                    problems.append(
                        f"{op}: counter {key} {cc:g} vs baseline {bc:g} "
                        f"(+{(cc / bc - 1.0) * 100:.0f}%)"
                    )
        for key in _GATED_MEMORY:
            if key in base_counters and key in cur.get("counters", {}):
                bm, cm = base_counters[key], cur["counters"][key]
                # No calibration scaling — a megabyte is machine-independent;
                # the absolute slack absorbs allocator and layout noise.
                if (bm > 0 and cm > bm * (1.0 + tolerance)
                        and cm - bm > _MEMORY_SLACK_MB):
                    problems.append(
                        f"{op}: peak memory {cm:.1f} MB vs baseline "
                        f"{bm:.1f} MB (+{(cm / bm - 1.0) * 100:.0f}%, "
                        f"tolerance {tolerance * 100:.0f}%)"
                    )
    return problems


#: baseline age (commits behind HEAD) past which ``repro bench`` warns
STALE_BASELINE_COMMITS = 20


def baseline_staleness(baseline: Mapping[str, Any]) -> Optional[int]:
    """How many commits HEAD is ahead of the baseline's recorded git SHA.

    ``None`` when the age cannot be determined — no recorded SHA, not a git
    checkout, or the SHA is unknown to this clone (e.g. a shallow CI
    checkout); staleness is a hint, never a gate failure.
    """
    import subprocess

    sha = (baseline.get("manifest") or {}).get("git_sha")
    if not sha:
        return None
    try:
        out = subprocess.run(
            ["git", "rev-list", "--count", f"{sha}..HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    try:
        return int(out.stdout.strip())
    except ValueError:
        return None


def bench_filename(directory: str = ".") -> str:
    """The dated output path, ``BENCH_<YYYYMMDD>.json``."""
    return os.path.join(directory, time.strftime("BENCH_%Y%m%d.json"))


def write_bench(doc: Mapping[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_bench(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
