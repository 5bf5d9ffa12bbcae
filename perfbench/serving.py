"""serve-open-loop: ``repro serve --shards 2`` under an open-loop ladder.

One generator process (this one, on asyncio) sends pipelined keep-alive
requests on at most ``nproc`` connections at fixed due times, whatever
the server's progress: independent users, so an open loop.  Each request
is timed from its due time, which charges a stall to every request it
delays.  The mix is 90% one hot ``/plan`` configuration (front-end edge
cache hits), 8% ``/plan`` with a never-seen channel seed (cold misses,
each builds its own TVEG) and 2% ``/plan_many``, laid out at fixed
positions so misses do not bunch differently from seed to seed.

The rates step up a fixed ladder; the first step is the nominal rate the
end-to-end latency and throughput are read at.  The run boots three
servers, times each boot as set-up, and lets each serve one third of the
nominal step; the last one then climbs the rest of the ladder.  Per-class latencies are
timed at the HTTP boundary and the service counters come from one
``GET /metrics`` scrape after the ladder; nothing inside the server is
instrumented.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    Result,
    Run,
    Tracer,
    median,
    percentile,
    proc_status_mb,
    relabeled_haggle,
)

NODES = 20
DEADLINE = 600.0
WINDOW = 2000.0
HOT_SEED = 5
MANY_SEED = 7
TRACE_NAME = "serve"
#: request rates (1/s); the first is the nominal rate
LADDER = (40.0, 80.0, 160.0, 320.0)
#: share of --seconds the nominal step runs in a traced run; the other
#: steps split the rest.  An untraced run spends all of it at the nominal
#: rate, since only the traced run reports the max rate.
NOMINAL_SHARE = 0.6
#: servers booted per run; each is timed as set-up and serves an equal
#: part of the nominal step
BOOTS = 3
#: p99 latency limit a ladder step must meet to count toward the max rate
LATENCY_LIMIT_MS = 1000.0
#: a step whose generator sent its p99 request later than this is invalid
LAG_LIMIT_MS = 25.0
#: a step ending with more than this many seconds of arrivals still
#: unanswered has a growing backlog
BACKLOG_LIMIT_S = 0.5
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
#: positions in each block of 50 requests: 4 misses and 1 plan_many
BLOCK = 50
MISS_SLOTS = (6, 18, 31, 43)
MANY_SLOTS = (25,)
#: cold-miss responses compared field-for-field with an in-process plan
MISS_REFERENCES = 3
#: channel seeds of the cold misses, the same in every run: on the
#: relabeled trace each miss then costs the same work whatever the seed
MISS_SEED_BASE = 1_000_000


@dataclass
class Req:
    cls: str          # "hit" | "miss" | "many"
    body: Dict[str, Any]
    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    status: int = 0
    payload: bytes = b""
    response: bytes = b""

    def latency_ms(self) -> float:
        if self.status != 200 or self.done is None:
            return float("inf")  # a failed request misses every limit
        return (self.done - self.due) * 1e3


def _hot_body() -> Dict[str, Any]:
    return {"trace": TRACE_NAME, "deadline": DEADLINE, "window": WINDOW,
            "seed": HOT_SEED}


def _many_body() -> Dict[str, Any]:
    return {"trace": TRACE_NAME, "sources": [None, None],
            "deadlines": DEADLINE, "window": WINDOW, "seed": MANY_SEED}


class Server:
    """One ``repro serve`` process (and its shard workers) on a free port."""

    def __init__(self, run: Run, trace_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(run.root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(trace_path),
             "--port", "0", "--shards", "2"],
            cwd=run.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"serving on http://" not in buf or not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not come up")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("repro serve closed its output")
                buf += chunk
        addr = buf.split(b"serving on http://")[1].split()[0].decode()
        host, port = addr.rsplit(":", 1)
        return host, int(port)

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            data = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Summed resident-set high-water marks of the server and the
        shard workers it started."""
        pids = [str(self.proc.pid)]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = f.read().rsplit(")", 1)[1].split()[1]
            except OSError:
                continue
            if ppid == pids[0]:
                pids.append(entry)
        return sum(proc_status_mb(pid, "VmHWM") for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:  # the session holds the server and every shard worker
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def _boot(run: Run, trace_path: Path) -> Server:
    """Boot, ``/healthz``, then warm the hot and ``/plan_many`` configs."""
    server = Server(run, trace_path)
    try:
        for method, path, body in (("GET", "/healthz", None),
                                   ("POST", "/plan", _hot_body()),
                                   ("POST", "/plan_many", _many_body())):
            status, _ = server.request(method, path, body)
            if status != 200:
                raise RuntimeError(f"{method} {path} answered {status}")
    except BaseException:
        server.stop()
        raise
    return server


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------


def _payload(host: str, path: str, body: Dict[str, Any]) -> bytes:
    data = json.dumps(body).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode() + data


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    status = int(line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _lane(host: str, port: int, reqs: List[Req]) -> None:
    """One pipelined keep-alive connection: send each request at its due
    time without waiting for earlier responses; read responses in order."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    async def send() -> None:
        for r in reqs:
            delay = r.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            r.sent = time.perf_counter()
            writer.write(r.payload)
            await writer.drain()

    async def recv() -> None:
        for r in reqs:
            status, body = await _read_response(reader)
            r.done = time.perf_counter()
            r.status, r.response = status, body

    sender = asyncio.ensure_future(send())
    receiver = asyncio.ensure_future(recv())
    budget = reqs[-1].due - time.perf_counter() + REQUEST_TIMEOUT_S
    try:
        await asyncio.wait_for(receiver, timeout=budget)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError, ValueError, IndexError):
        pass  # requests left without a response count as failed
    finally:
        for task in (sender, receiver):
            task.cancel()
        await asyncio.gather(sender, receiver, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _drive(host: str, port: int, reqs: List[Req], lanes: int) -> None:
    await asyncio.gather(*(
        _lane(host, port, reqs[i::lanes]) for i in range(lanes) if reqs[i::lanes]
    ))


class Mix:
    """The request sequence: fixed class slots, fresh seeds for misses."""

    def __init__(self, host: str) -> None:
        self.host = host
        self.count = 0
        self.next_miss_seed = MISS_SEED_BASE

    def next(self, due: float) -> Req:
        slot = self.count % BLOCK
        self.count += 1
        if slot in MISS_SLOTS:
            body = dict(_hot_body(), seed=self.next_miss_seed)
            self.next_miss_seed += 1
            req = Req("miss", body, due)
            path = "/plan"
        elif slot in MANY_SLOTS:
            req, path = Req("many", _many_body(), due), "/plan_many"
        else:
            req, path = Req("hit", _hot_body(), due), "/plan"
        req.payload = _payload(self.host, path, req.body)
        return req


def _class_p50(reqs: List[Req], cls: str) -> float:
    return percentile([r.latency_ms() for r in reqs if r.cls == cls] or
                      [float("inf")], 0.5)


def _run_step(server: Server, mix: Mix, rate: float, seconds: float,
              lanes: int) -> Dict[str, Any]:
    start = time.perf_counter() + 0.05
    reqs = [mix.next(start + i / rate) for i in range(max(1, int(rate * seconds)))]
    # select() takes microsecond timeouts; the default epoll loop rounds
    # each wake-up up to a whole millisecond, which would add about half
    # a millisecond of generator lateness to every request.
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        loop.run_until_complete(_drive(server.host, server.port, reqs, lanes))
    finally:
        loop.close()
    end = start + seconds
    lat = [r.latency_ms() for r in reqs]
    lag = [((r.sent or end) - r.due) * 1e3 for r in reqs]
    ok = [r for r in reqs if r.status == 200 and r.done is not None]
    last = max((r.done for r in ok), default=end)
    backlog = sum(1 for r in reqs if r.done is None or r.done > end)
    step = {
        "rate": rate, "reqs": reqs,
        "p50_ms": percentile(lat, 0.5), "p99_ms": percentile(lat, 0.99),
        "miss_p50_ms": _class_p50(reqs, "miss"),
        "lag_p99_ms": percentile(lag, 0.99),
        "throughput": len(ok) / (last - start),
        "backlog": backlog,
    }
    step["valid"] = step["lag_p99_ms"] <= LAG_LIMIT_MS
    step["meets"] = (step["p99_ms"] <= LATENCY_LIMIT_MS
                     and backlog <= BACKLOG_LIMIT_S * rate)
    print(f"perfbench: {rate:g} rps x {len(reqs)}: p50 {step['p50_ms']:.2f} "
          f"ms, miss p50 {step['miss_p50_ms']:.1f} ms, "
          f"p99 {step['p99_ms']:.1f} ms, {step['throughput']:.1f} rps "
          f"done, backlog {backlog}, send lag p50 {percentile(lag, 0.5):.2f} "
          f"p99 {step['lag_p99_ms']:.2f} ms"
          f"{'' if step['meets'] else ' -- misses the limit'}",
          file=sys.stderr)
    return step


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def _normalized(plan_doc: Dict[str, Any]) -> str:
    """A plan document without its machine- and moment-dependent fields
    (the manifest's volatile keys and the stage timings), dumped
    canonically."""
    doc = json.loads(json.dumps(plan_doc))
    for key in ("created_unix", "wall_seconds", "git_sha", "python",
                "platform"):
        doc.get("manifest", {}).pop(key, None)
    doc.get("info", {}).pop("stage_seconds", None)
    return json.dumps(doc, sort_keys=True)


def _response_plans(req: Req) -> List[str]:
    doc = json.loads(req.response)
    if req.cls == "many":
        return [_normalized(p) for p in doc["planset"]["plans"]]
    return [_normalized(doc["plan"])]


def _reference_plans(trace, body: Dict[str, Any]) -> List[str]:
    """The same request answered in this process by the public API, on
    the TVEG the service builds for it (window applied, channel seeded)."""
    from repro.api import plan_broadcast, plan_broadcast_many
    from repro.schedule.io import plan_to_doc
    from repro.tveg import tveg_from_trace

    start = body["window"]
    window = trace.restrict_window(start, start + DEADLINE).shift(-start)
    tveg = tveg_from_trace(window, "static", seed=body["seed"])
    if "sources" in body:
        plans = plan_broadcast_many(
            tveg, body["sources"], body["deadlines"], seed=body["seed"]
        )
        return [_normalized(plan_to_doc(p)) for p in plans]
    plan = plan_broadcast(tveg, None, body["deadline"], seed=body["seed"])
    return [_normalized(plan_to_doc(plan))]


def _check_responses(trace, reqs: List[Req], res: Result) -> None:
    """Every request answered 200; the hot and ``/plan_many`` answers equal
    the in-process plans on every repeat; the first misses likewise."""
    expected = {
        "hit": _reference_plans(trace, _hot_body()),
        "many": _reference_plans(trace, _many_body()),
    }
    checked_misses = 0
    for r in reqs:
        if r.status != 200 or r.done is None:
            res.check(False, f"{r.cls} request answered {r.status or 'nothing'}")
            continue
        got = _response_plans(r)
        if r.cls == "miss":
            if checked_misses >= MISS_REFERENCES:
                feasible = json.loads(got[0])["feasibility"]
                res.check(feasible["all_informed"] and not feasible["violations"],
                          f"miss seed {r.body['seed']}: infeasible plan served")
                continue
            checked_misses += 1
            want = _reference_plans(trace, r.body)
        else:
            want = expected[r.cls]
        res.check(got == want, f"{r.cls} response (seed {r.body['seed']}) "
                  "differs from the in-process plan")


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


def serve_open_loop(run: Run) -> Result:
    t0 = time.perf_counter()
    import repro.api  # noqa: F401  (the in-process reference plans)
    from repro.traces.parser import load_trace
    from repro.traces.writer import write_crawdad
    import_s = time.perf_counter() - t0

    trace_path = run.scratch / f"{TRACE_NAME}.txt"
    lanes = len(os.sched_getaffinity(0))
    nominal_s = run.seconds * (NOMINAL_SHARE if run.trace else 1.0)
    res = Result()
    setups: List[float] = []
    nominal_parts: List[Dict[str, Any]] = []
    server: Optional[Server] = None
    mix: Optional[Mix] = None
    try:
        # Each boot is timed as set-up and then serves one part of the
        # nominal step: how fast a given server process answers hits
        # varies from boot to boot, and the median of the parts keeps one
        # slow boot from deciding the run.
        for _ in range(BOOTS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            trace, _, _ = relabeled_haggle(NODES, WINDOW, DEADLINE, 1, run.seed)
            write_crawdad(trace, trace_path)
            server = _boot(run, trace_path)
            setups.append(time.perf_counter() - t0)
            mix = mix or Mix(server.host)
            nominal_parts.append(_run_step(
                server, mix, LADDER[0], nominal_s / BOOTS, lanes,
            ))
        rss = server.peak_rss_mb()
        steps = [_pooled(nominal_parts)]
        higher = run.seconds * (1 - NOMINAL_SHARE) / (len(LADDER) - 1)
        for rate in LADDER[1:] if run.trace else ():
            if not (steps[-1]["valid"] and steps[-1]["meets"]):
                break
            steps.append(_run_step(server, mix, rate, higher, lanes))
        status, metrics_body = server.request("GET", "/metrics")
    finally:
        if server is not None:
            server.stop()

    nominal = steps[0]
    if not nominal["valid"]:
        res.problems.append(
            f"generator fell behind: p99 send lag {nominal['lag_p99_ms']:.1f} "
            f"ms > {LAG_LIMIT_MS} ms at the nominal rate; measurement invalid"
        )
    all_reqs = [r for s in steps for r in s["reqs"]]
    _check_responses(load_trace(trace_path), all_reqs, res)
    trace_path.unlink()
    res.check(status == 200, f"GET /metrics answered {status}")
    passing = [s for s in steps if s["valid"] and s["meets"]]
    res.metrics.update(
        setup_s=import_s + median(setups),
        latency_p50_ms=nominal["miss_p50_ms"],
        throughput_per_s=nominal["throughput"],
        peak_rss_mb=rss,
    )
    if run.trace:
        _layer_metrics(run, steps, passing, json.loads(metrics_body), res)
    return res


def _pooled(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The nominal step from its per-boot parts: the median of their p50s
    and throughputs; the p99s over every request of every part."""
    reqs = [r for p in parts for r in p["reqs"]]
    lag = [((r.sent or r.due) - r.due) * 1e3 for r in reqs]
    step = {
        "rate": parts[0]["rate"], "reqs": reqs,
        "p50_ms": median([p["p50_ms"] for p in parts]),
        "p99_ms": percentile([r.latency_ms() for r in reqs], 0.99),
        "miss_p50_ms": _class_p50(reqs, "miss"),
        "lag_p99_ms": percentile(lag, 0.99),
        "throughput": median([p["throughput"] for p in parts]),
    }
    step["valid"] = step["lag_p99_ms"] <= LAG_LIMIT_MS
    step["meets"] = (step["p99_ms"] <= LATENCY_LIMIT_MS
                     and all(p["meets"] for p in parts))
    return step


def _layer_metrics(run: Run, steps, passing, scrape: Dict[str, Any],
                   res: Result) -> None:
    nominal = steps[0]
    by_cls: Dict[str, List[float]] = {"hit": [], "miss": [], "many": []}
    for r in nominal["reqs"]:
        by_cls[r.cls].append(r.latency_ms())
    tr = Tracer()
    for s in steps:
        tr.run_id += 1
        for r in s["reqs"]:
            tr.spans.append({
                "id": len(tr.spans), "name": f"http.{r.cls}", "parent": None,
                "run": tr.run_id, "start": r.due, "end": r.done or r.due,
            })
    tr.write(run.scratch / f"spans-serve-open-loop-{run.seed}.json")

    shards = [s["service"] for s in scrape.get("shards", [])]
    edge = scrape.get("frontend", {}).get("edge_cache", {})
    lookups = sum(s["cache"]["lookups"] for s in shards)

    def stage_mean_ms(stage: str) -> float:
        hists = [s.get("telemetry", {}).get("histograms", {}).get(stage)
                 for s in shards]
        hists = [h for h in hists if h and h["count"]]
        count = sum(h["count"] for h in hists)
        return 1e3 * sum(h["sum"] for h in hists) / count if count else 0.0

    hit = [r for r in nominal["reqs"] if r.cls == "hit" and r.status == 200]
    res.metrics.update({
        "service.hit_p50_ms": percentile(by_cls["hit"], 0.5),
        "service.hit_p99_ms": percentile(by_cls["hit"], 0.99),
        "service.miss_p50_ms": percentile(by_cls["miss"], 0.5),
        "service.miss_p99_ms": percentile(by_cls["miss"], 0.99),
        "service.plan_many_p50_ms": percentile(by_cls["many"], 0.5),
        "service.latency_p50_ms": nominal["p50_ms"],
        "service.latency_p99_ms": nominal["p99_ms"],
        "service.max_rate_rps": passing[-1]["throughput"] if passing else 0.0,
        "service.edge_hit_ratio": edge.get("hits", 0) / max(
            1, edge.get("hits", 0) + edge.get("misses", 0)),
        "service.cache_hit_ratio": sum(
            s["cache"]["hits"] for s in shards) / max(1, lookups),
        "service.rejected": sum(s["batcher"]["rejected"] for s in shards) + sum(
            1 for s in steps for r in s["reqs"] if r.status == 429),
        "service.compute_ms": stage_mean_ms("stage.compute"),
        "io.serialize_ms": stage_mean_ms("stage.serialize"),
        "io.doc_bytes": median([len(r.response) for r in hit]) if hit else 0.0,
        "gen.lag_p99_ms": nominal["lag_p99_ms"],
    })
