"""Shared pieces of the benchmark: run settings, results, spans, statistics.

Nothing here imports the program under test; each workload module imports
``repro`` inside its timed set-up so import time lands in ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Run:
    """What the command line asked for."""

    seed: int
    seconds: float
    trace: bool
    root: Path       # checkout root: holds src/ and BENCHMARK.json
    scratch: Path    # .perfbench/ under the root: inputs and span files


@dataclass
class Result:
    """One workload run: metric values by name, op counts, check failures."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one verified op; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample
    at or below it (``inf`` entries stand for failed requests)."""
    ordered = sorted(values)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[k])


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB).

    Workloads read it right after their first measured op, so it covers
    set-up and one op whatever the number of ops the run's time allowed."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: str, field_name: str) -> float:
    """A ``VmRSS``/``VmHWM`` line of ``/proc/<pid>/status``, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field_name)


@contextmanager
def rss_growth(out: Dict[str, float], key: str) -> Iterator[None]:
    """Record in ``out[key]`` how far this process's resident set rose
    above its starting size during the block (the high-water mark is
    reset first, so earlier peaks do not hide the block's own)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    base = proc_status_mb("self", "VmRSS")
    yield
    out[key] = max(out.get(key, 0.0), proc_status_mb("self", "VmHWM") - base)


def fresh() -> None:
    """Drop the previous op's garbage so it neither inflates the next op's
    RSS nor lands a collection pause inside its timing."""
    gc.collect()


def schedule_digest(schedule) -> str:
    """SHA-256 of a schedule's rows and ``repr``-exact total cost."""
    doc = {
        "rows": [[t.relay, repr(t.time), repr(t.cost)] for t in schedule],
        "total": repr(schedule.total_cost),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def plan_digest(plan) -> str:
    """A plan's schedule digest bound to its ``config_hash``."""
    return schedule_digest(plan.schedule) + ":" + plan.manifest["config_hash"]


def relabeled_haggle(num_nodes: int, window_start: float, deadline: float,
                     sources: int, seed: int):
    """The seed's input trace: the fixed Haggle-like base trace (generator
    seed 0) with its node ids permuted by ``seed``.

    Every seed plans an isomorphic instance, so the work per run is the
    same and the spread between seeds is the machine's, not the trace's
    (distinct base traces differ by about 15% in Steiner expansions and
    plan time).
    What the seed varies is everything keyed by node id: dict and set
    layout, array order, heap tie order.  The first ``sources``
    broadcast-feasible base nodes of the window take ids
    ``0..sources-1`` in order, so ``source=None`` and a source list
    ``range(sources)`` name the same relabeled nodes for every seed; the
    other ids are shuffled.  Returns ``(trace, list(range(sources)),
    base_id)`` where ``base_id`` maps each new id back to its base id.
    """
    import numpy as np
    from repro.temporal.reachability import broadcast_feasible_sources
    from repro.traces import HaggleLikeConfig, haggle_like_trace
    from repro.traces.model import Contact, ContactTrace

    base = haggle_like_trace(HaggleLikeConfig(num_nodes=num_nodes), seed=0)
    window = base.restrict_window(
        window_start, window_start + deadline
    ).shift(-window_start)
    pinned = sorted(
        broadcast_feasible_sources(window.to_tvg(), 0.0, deadline)
    )[:sources]
    if len(pinned) < sources:
        raise RuntimeError(f"base trace has only {len(pinned)} "
                           "broadcast-feasible sources")
    rest = [n for n in base.nodes if n not in pinned]
    shuffled = np.random.default_rng(seed).permutation(len(rest))
    label = {n: i for i, n in enumerate(pinned)}
    label.update((n, len(pinned) + int(k)) for n, k in zip(rest, shuffled))
    trace = ContactTrace(
        [Contact(c.start, c.end, label[c.u], label[c.v]) for c in base],
        nodes=tuple(range(num_nodes)), horizon=base.horizon,
    )
    return trace, list(range(sources)), {i: n for n, i in label.items()}


def setup_median(reps: int, once: float, step) -> float:
    """``once`` (import time, paid one time per process) plus the median of
    ``reps`` timed calls of ``step`` (input generation, file write, boot)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    return once + median(times)


class Tracer:
    """In-memory spans: name, start, end, parent and run id.

    Spans are recorded around calls into the program's public functions
    from the benchmark's own code; nothing inside the program is touched.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self, root: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name: a span's duration minus the part its
        child spans cover.  ``root`` limits the sum to one span's subtree."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        keep = None if root is None else self._subtree(root)
        out: Dict[str, float] = {}
        for s in self.spans:
            if keep is not None and s["id"] not in keep:
                continue
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def _subtree(self, root: int) -> set:
        keep = {root}
        for s in self.spans:  # parents precede children in record order
            if s["parent"] in keep:
                keep.add(s["id"])
        return keep

    def coverage(self, root: int) -> float:
        """Share of a root span's wall that its layer spans' self times
        account for (the root's own glue is the remainder)."""
        rec = self.spans[root]
        wall = rec["end"] - rec["start"]
        selfs = self.self_seconds(root)
        return (sum(selfs.values()) - selfs.get(rec["name"], 0.0)) / wall

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=0))


def spanner(tr: Optional[Tracer]) -> Callable[[str], Any]:
    """``tr.span``, or a no-op stand-in when the run is untraced."""
    return tr.span if tr is not None else (lambda name: nullcontext())
