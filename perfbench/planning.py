"""Planning workloads: cold N=50 EEDCB plans and the N=30 fading sweep.

Untraced runs call the public entry points ``plan_broadcast`` and
``plan_broadcast_many``.  Traced runs compose the same pipelines from the
per-layer public functions (``build_dts``, the aux builder, ``retarget``,
``solve_memt``, ``extract_schedule``, the three reduce passes,
``check_feasibility``, ``build_allocation_problem`` + ``solve_allocation``)
under spans, and fail unless the composed schedules are byte-identical to
the entry points' — so the per-layer numbers describe the program the
end-to-end numbers timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Any, Dict, List

from common import (
    Result,
    Run,
    Tracer,
    fresh,
    median,
    peak_rss_mb,
    plan_digest,
    relabeled_haggle,
    rss_growth,
    schedule_digest,
    setup_median,
    spanner,
)

#: the paper-style instance: a 2000 s broadcast from t = 9000 s of a
#: Haggle-like trace, link distances drawn with seed 5
WINDOW_START = 9000.0
DEADLINE = 2000.0
CHANNEL_SEED = 5
SWEEP_SOURCES = 8
MC_TRIALS = 200
PROTOCOL_TRIALS = 50
#: traced runs must account for this share of their wall in layer spans
MIN_COVERAGE = 0.9
#: ``_base_digest`` of the cold plan, the same for every seed.  A change
#: that alters the planned schedule must show here and update this value.
COLD_PLAN_REFERENCE = (
    "625cc7563ac190cc3402873e2a20ebed5a9dcaa5592f99df903bf2e7fae59730"
)


def _import_planning() -> float:
    t0 = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.protosim  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.traces  # noqa: F401
    return time.perf_counter() - t0


def _window(trace):
    return trace.restrict_window(
        WINDOW_START, WINDOW_START + DEADLINE
    ).shift(-WINDOW_START)


def _digest(parts: List[Any]) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _base_digest(schedule, base_id: Dict[int, int]) -> str:
    """Digest of a schedule written in the base trace's node ids: rows
    sorted (equal-time rows may order by id) and costs summed exactly.
    Every seed's cold plan is the same plan up to relabeling, so this
    digest is the same for every seed."""
    rows = sorted(
        [base_id[t.relay], repr(t.time), repr(t.cost)] for t in schedule
    )
    return _digest([rows, repr(math.fsum(t.cost for t in schedule))])


# ----------------------------------------------------------------------
# plan-cold-n50
# ----------------------------------------------------------------------


def plan_cold(run: Run) -> Result:
    """Repeated cold ``plan_broadcast`` on a fresh 50-node trace window."""
    import_s = _import_planning()
    inputs: Dict[str, Any] = {}

    def make_inputs() -> None:
        inputs["trace"], _, inputs["base_id"] = relabeled_haggle(
            50, WINDOW_START, DEADLINE, 1, run.seed
        )

    setup_s = setup_median(3, import_s, make_inputs)
    trace = inputs["trace"]
    res = Result()
    if run.trace:
        _plan_cold_traced(run, trace, inputs["base_id"], res)
        return res

    from repro.api import plan_broadcast

    times: List[float] = []
    ref = None
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < run.seconds:
        fresh()
        t0 = time.perf_counter()
        plan = plan_broadcast(
            trace, None, DEADLINE, window=WINDOW_START, seed=CHANNEL_SEED
        )
        times.append(time.perf_counter() - t0)
        if len(times) == 1:
            rss = peak_rss_mb()
        digest = plan_digest(plan)
        ref = ref or digest
        base = _base_digest(plan.schedule, inputs["base_id"])
        res.check(
            plan.feasible and digest == ref and base == COLD_PLAN_REFERENCE,
            f"cold plan {len(times)}: feasible={plan.feasible}, digest "
            f"{digest[:16]} vs run's first {ref[:16]}, base-id digest "
            f"{base[:16]} vs reference {COLD_PLAN_REFERENCE[:16]}",
        )
        del plan
    res.metrics.update(
        setup_s=setup_s,
        latency_p50_ms=median(times) * 1e3,
        throughput_per_s=1.0 / median(times),
        peak_rss_mb=rss,
    )
    return res


def _plan_cold_traced(run: Run, trace, base_id, res: Result) -> None:
    from repro.api import plan_broadcast
    from repro.schedule.io import plan_to_doc

    tr = Tracer()
    untraced: List[float] = []
    ref = None
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < run.seconds / 2:
        fresh()
        t0 = time.perf_counter()
        plan = plan_broadcast(
            trace, None, DEADLINE, window=WINDOW_START, seed=CHANNEL_SEED
        )
        untraced.append(time.perf_counter() - t0)
        if ref is None:
            ref = schedule_digest(plan.schedule)
            base = _base_digest(plan.schedule, base_id)
            res.check(base == COLD_PLAN_REFERENCE, f"cold plan base-id digest "
                      f"{base[:16]} vs reference {COLD_PLAN_REFERENCE[:16]}")
            with tr.span("io.serialize"):
                doc = json.dumps(plan_to_doc(plan))
            res.metrics["io.doc_bytes"] = len(doc)
        del plan

    counters: Dict[str, float] = {}
    roots: List[int] = []
    start = time.perf_counter()
    while not roots or time.perf_counter() - start < run.seconds / 2:
        fresh()
        tr.run_id += 1
        with tr.span("plan") as root:
            with tr.span("traces.window"):
                window = _window(trace)
            tveg = _build_tveg(tr, window, "static")
            with tr.span("temporal.reachability"):
                source = _auto_source(tveg)
            schedule, _aux = _eedcb(tr, tveg, source, None, counters)
            _final_check(tr, tveg, schedule, source, res)
        roots.append(root["id"])
        digest = schedule_digest(schedule)
        res.check(digest == ref, f"traced plan {tr.run_id}: composed "
                  f"schedule {digest[:16]} != plan_broadcast {ref[:16]}")
        del tveg, schedule, _aux
    _layer_metrics(run, "plan-cold-n50", tr, roots, untraced, counters, res)


# ----------------------------------------------------------------------
# sweep-fading-n30
# ----------------------------------------------------------------------


def sweep_fading(run: Run) -> Result:
    """FR-EEDCB for 8 sources on a Rayleigh TVEG, each plan then scored
    by Monte-Carlo trials and protocol-level simulation."""
    import_s = _import_planning()
    inputs: Dict[str, Any] = {}

    def make_inputs() -> None:
        inputs["trace"], inputs["sources"], _ = relabeled_haggle(
            30, WINDOW_START, DEADLINE, SWEEP_SOURCES, run.seed
        )

    setup_s = setup_median(3, import_s, make_inputs)
    trace, sources = inputs["trace"], inputs["sources"]
    res = Result()
    if run.trace:
        _sweep_traced(run, trace, sources, res)
        return res

    walls: List[float] = []
    plan_s: List[float] = []
    ref = None
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < run.seconds:
        fresh()
        t0 = time.perf_counter()
        plans = _plan_many(trace, sources)
        t1 = time.perf_counter()
        scores = [_score(p.tveg, p.schedule, p.source, run.seed) for p in plans]
        walls.append(time.perf_counter() - t0)
        plan_s.append(t1 - t0)
        if len(walls) == 1:
            rss = peak_rss_mb()
        digest = _digest([plan_digest(p) for p in plans] + scores)
        ref = ref or digest
        for p in plans:
            res.check(p.feasible, f"sweep plan from {p.source} infeasible")
        res.check(digest == ref, f"sweep {len(walls)}: digest {digest[:16]} "
                  f"vs reference {ref[:16]}")
        del plans
    res.metrics.update(
        setup_s=setup_s,
        latency_p50_ms=median(walls) * 1e3,
        throughput_per_s=len(sources) / median(plan_s),
        peak_rss_mb=rss,
    )
    return res


def _plan_many(trace, sources):
    from repro.api import plan_broadcast_many

    return plan_broadcast_many(
        trace, sources, DEADLINE, algorithm="fr-eedcb", channel="rayleigh",
        window=WINDOW_START, seed=CHANNEL_SEED,
    )


def _score(tveg, schedule, source, seed: int, tr=None,
           counters=None) -> List[str]:
    """Delivery scoring of one plan: analytic Monte-Carlo trials, then
    the protocol-level simulator; returns the summaries ``repr``-exact.
    With a tracer, each simulator call is a span and its work is added to
    ``counters``."""
    from repro.protosim import run_protocol_trials
    from repro.sim import run_trials

    span = spanner(tr)
    with span("sim.trials"):
        mc = run_trials(tveg, schedule, source, MC_TRIALS, seed=seed)
    with span("protosim.trials"):
        proto = run_protocol_trials(
            tveg, schedule, source, DEADLINE, PROTOCOL_TRIALS, seed=seed
        )
    if counters is not None:
        for key, value in (
            ("sim.trials", MC_TRIALS),
            ("protosim.trials", PROTOCOL_TRIALS),
            ("protosim.data_frames", proto.mean_data_sent),
            ("protosim.retransmits", proto.mean_retransmits),
        ):
            counters[key] = counters.get(key, 0) + value
    return [repr(v) for v in (
        mc.mean_delivery, mc.mean_energy, proto.mean_delivery,
        proto.mean_energy, proto.mean_data_sent, proto.mean_retransmits,
    )]


def _sweep_traced(run: Run, trace, sources, res: Result) -> None:
    tr = Tracer()
    untraced: List[float] = []
    ref = None
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < run.seconds / 2:
        fresh()
        t0 = time.perf_counter()
        plans = _plan_many(trace, sources)
        scores = [_score(p.tveg, p.schedule, p.source, run.seed) for p in plans]
        untraced.append(time.perf_counter() - t0)
        ref = ref or _digest(
            [schedule_digest(p.schedule) for p in plans] + scores
        )
        del plans

    counters: Dict[str, float] = {}
    roots: List[int] = []
    start = time.perf_counter()
    while not roots or time.perf_counter() - start < run.seconds / 2:
        fresh()
        tr.run_id += 1
        with tr.span("sweep") as root:
            with tr.span("traces.window"):
                window = _window(trace)
            tveg = _build_tveg(tr, window, "rayleigh")
            aux = None
            schedules = []
            for source in sources:
                backbone, aux = _eedcb(tr, tveg, source, aux, counters)
                schedule = _allocate(tr, tveg, backbone, source, counters)
                _final_check(tr, tveg, schedule, source, res)
                schedules.append(schedule)
            scores = [
                _score(tveg, s, src, run.seed, tr, counters)
                for s, src in zip(schedules, sources)
            ]
        roots.append(root["id"])
        digest = _digest([schedule_digest(s) for s in schedules] + scores)
        res.check(digest == ref, f"traced sweep {tr.run_id}: composed "
                  f"digest {digest[:16]} != plan_broadcast_many {ref[:16]}")
        del tveg, aux, schedules
    _layer_metrics(run, "sweep-fading-n30", tr, roots, untraced, counters, res)


# ----------------------------------------------------------------------
# the pipelines, composed from the per-layer public functions
# ----------------------------------------------------------------------


def _build_tveg(tr: Tracer, window, channel: str):
    from repro.tveg import tveg_from_trace

    with tr.span("tveg.build"):
        return tveg_from_trace(window, channel, seed=CHANNEL_SEED)


def _auto_source(tveg):
    """``plan_broadcast``'s ``source=None`` pick: the smallest
    broadcast-feasible node."""
    from repro.temporal.reachability import broadcast_feasible_sources

    return sorted(broadcast_feasible_sources(tveg.tvg, 0.0, DEADLINE))[0]


def _eedcb(tr: Tracer, tveg, source, aux_base, counters: Dict[str, float]):
    """EEDCB's stages for one source.  ``aux_base`` is a graph built for
    an earlier source of the same TVEG, re-rooted instead of rebuilt (as
    ``plan_broadcast_many`` does); returns ``(schedule, aux_base)``."""
    from repro.auxgraph.compact import build_compact_aux_graph
    from repro.auxgraph.extract import extract_schedule
    from repro.compute import resolve_compute
    from repro.dts.dts import build_dts
    from repro.schedule.reduce import (
        lower_costs,
        remove_redundant,
        upgrade_and_prune,
    )
    from repro.steiner.memt import solve_memt
    from repro.temporal.reachability import reachable_set

    kernel = resolve_compute(None)
    with tr.span("temporal.reachability"):
        reached = reachable_set(tveg.tvg, source, 0.0, DEADLINE)
    if any(n not in reached for n in tveg.nodes):
        raise RuntimeError(f"source {source!r} cannot reach every node")
    with tr.span("dts.build"):
        dts = build_dts(tveg.tvg, DEADLINE)
    counters["dts.points"] = dts.total_points()
    counters["dts.builds"] = counters.get("dts.builds", 0) + 1
    if aux_base is None:
        if kernel == "numpy":
            from repro.compute.numpy_backend import (
                build_numpy_aux_graph as builder,
            )
        else:
            builder = build_compact_aux_graph
        with rss_growth(counters, "auxgraph.rss_mb"):
            with tr.span("auxgraph.build"):
                aux = aux_base = builder(tveg, source, DEADLINE, dts)
        counters["auxgraph.nodes"] = aux.num_nodes
        counters["auxgraph.edges"] = aux.num_edges
    else:
        with tr.span("auxgraph.retarget"):
            aux = (aux_base if aux_base.source == source
                   else aux_base.retarget(source, None))
    stats: Dict[str, int] = {}
    with tr.span("steiner.solve"):
        edges = solve_memt(
            aux, aux.root, aux.terminals, method="greedy", level=2,
            stats=stats, compute="numpy" if kernel == "numpy" else None,
        )
    counters["steiner.expansions"] = (
        counters.get("steiner.expansions", 0) + stats.get("expansions", 0)
    )
    with tr.span("auxgraph.extract"):
        schedule = extract_schedule(aux, edges)
    counters["schedule.rows_raw"] = (
        counters.get("schedule.rows_raw", 0) + len(schedule)
    )
    kw = {"targets": None, "compute": kernel}
    with tr.span("schedule.reduce"):
        schedule = remove_redundant(tveg, schedule, source, DEADLINE, **kw)
        schedule = upgrade_and_prune(tveg, schedule, source, DEADLINE, **kw)
        schedule = lower_costs(tveg, schedule, source, DEADLINE, **kw)
    return schedule, aux_base


def _allocate(tr: Tracer, tveg, backbone, source, counters):
    """FR-EEDCB's second stage: the NLP energy allocation."""
    from repro.allocation.nlp import solve_allocation
    from repro.allocation.problem import build_allocation_problem
    from repro.schedule.feasibility import check_feasibility

    with tr.span("schedule.check"):
        backbone_ok = check_feasibility(
            tveg, backbone, source, DEADLINE, start_time=0.0, targets=None
        ).feasible
    with tr.span("allocation.solve"):
        problem = build_allocation_problem(tveg, backbone, source, targets=None)
        alloc = solve_allocation(
            problem, use_slsqp=True,
            fallback=backbone.cost_array() if backbone_ok else None,
        )
    counters["allocation.iterations"] = (
        counters.get("allocation.iterations", 0) + alloc.nlp_iterations
    )
    return backbone.with_costs(alloc.costs)


def _final_check(tr: Tracer, tveg, schedule, source, res: Result) -> None:
    from repro.schedule.feasibility import check_feasibility

    with tr.span("schedule.check"):
        report = check_feasibility(
            tveg, schedule, source, DEADLINE, record="final"
        )
    res.check(report.feasible, f"composed schedule from {source!r} infeasible")
    # summed over sources and runs; _layer_metrics divides by runs
    res.metrics["schedule.rows_final"] = (
        res.metrics.get("schedule.rows_final", 0) + len(schedule)
    )


def _layer_metrics(run: Run, workload: str, tr: Tracer, roots: List[int],
                   untraced: List[float], counters: Dict[str, float],
                   res: Result) -> None:
    """Per-layer metrics, averaged over the traced runs: self seconds per
    span name, work counters, coverage and tracing overhead."""
    n = len(roots)
    walls = [tr.spans[r]["end"] - tr.spans[r]["start"] for r in roots]
    selfs: Dict[str, float] = {}
    for r in roots:
        for name, sec in tr.self_seconds(r).items():
            selfs[name] = selfs.get(name, 0.0) + sec / n
    for r in roots:
        cov = tr.coverage(r)
        res.check(cov >= MIN_COVERAGE, f"traced run {tr.spans[r]['run']}: "
                  f"layer spans cover {cov:.1%} of its wall")
    m = res.metrics
    for name in ("traces.window", "tveg.build", "temporal.reachability",
                 "dts.build", "auxgraph.build", "auxgraph.retarget",
                 "auxgraph.extract", "steiner.solve", "schedule.reduce",
                 "schedule.check", "allocation.solve"):
        m[name + "_s"] = selfs.get(name, 0.0)
    serialize = tr.self_seconds().get("io.serialize")
    if serialize is not None:
        m["io.serialize_ms"] = serialize * 1e3
    for name in ("dts.points", "auxgraph.nodes", "auxgraph.edges",
                 "auxgraph.rss_mb"):
        if name in counters:
            m[name] = counters[name]
    for name in ("dts.builds", "steiner.expansions", "schedule.rows_raw",
                 "allocation.iterations"):
        if name in counters:
            m[name] = counters[name] / n
    m["schedule.rows_final"] = m.get("schedule.rows_final", 0) / n
    if m["steiner.solve_s"] > 0:
        m["steiner.expansions_per_s"] = (
            m["steiner.expansions"] / m["steiner.solve_s"]
        )
    if "sim.trials" in counters:
        m["sim.trials_per_s"] = counters["sim.trials"] / n / selfs["sim.trials"]
        m["protosim.trials_per_s"] = (
            counters["protosim.trials"] / n / selfs["protosim.trials"]
        )
        plans = counters["protosim.trials"] / PROTOCOL_TRIALS
        m["protosim.data_frames"] = counters["protosim.data_frames"] / plans
        m["protosim.retransmit_ratio"] = (
            counters["protosim.retransmits"] / counters["protosim.data_frames"]
        )
    m["trace.wall_s"] = median(walls)
    m["trace.overhead_s"] = median(walls) - median(untraced)
    m["trace.coverage"] = min(tr.coverage(r) for r in roots)
    tr.write(run.scratch / f"spans-{workload}-{run.seed}.json")
