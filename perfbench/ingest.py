"""trace-ingest-1m: a 10^6-contact text trace to ``.ctrace``, then opens.

The write path streams a CRAWDAD text file (N=1000, about 35 MB) through
``ingest_path``, takes the content fingerprint and saves the columnar
``.ctrace`` file.  The read path loads that file, restricts it to a
2000 s window and builds the TVEG — what every plan on a stored trace
pays before planning starts.
"""

from __future__ import annotations

import time
from typing import List

from common import (
    Result,
    Run,
    Tracer,
    fresh,
    median,
    peak_rss_mb,
    setup_median,
    spanner,
)

NODES = 1000
CONTACTS = 1_000_000
HORIZON = 200_000.0
WINDOW = (0.0, 2000.0)
CHANNEL_SEED = 5
#: share of --seconds spent converting; opens take the rest
CONVERT_SHARE = 0.6


def trace_ingest(run: Run) -> Result:
    t0 = time.perf_counter()
    from repro.traces.synthetic import scale_trace_store
    from repro.traces.writer import write_crawdad
    from repro.tveg import tveg_from_trace  # noqa: F401
    import_s = time.perf_counter() - t0

    text = run.scratch / "ingest.txt"
    ctrace = run.scratch / "ingest.ctrace"

    def write_text() -> None:
        write_crawdad(
            scale_trace_store(NODES, CONTACTS, HORIZON, seed=run.seed), text
        )

    res = Result()
    try:
        setup_s = setup_median(3, import_s, write_text)
        size = text.stat().st_size
        tr = Tracer() if run.trace else None
        converts, fp = _convert(run, tr, text, ctrace, res)
        opens = _open(run, tr, ctrace, fp, res)
    finally:
        for path in (text, ctrace):
            path.unlink(missing_ok=True)

    if tr is None:
        res.metrics.update(
            setup_s=setup_s,
            latency_p50_ms=median(opens) * 1e3,
            throughput_per_s=CONTACTS / median(converts),
        )
        return res

    n_conv, n_open = len(converts), len(opens)
    selfs = tr.self_seconds()
    m = res.metrics
    for name, runs in (("traces.parse", n_conv), ("traces.fingerprint", n_conv),
                       ("traces.save", n_conv), ("traces.load", n_open),
                       ("traces.window", n_open), ("tveg.build", n_open),
                       ("temporal.reachability", n_open)):
        m[name + "_s"] = selfs.get(name, 0.0) / runs
    m["traces.bytes"] = size
    m["traces.ingest_mb_per_s"] = size / 1e6 / median(converts)
    m["trace.wall_s"] = median(converts)
    tr.write(run.scratch / f"spans-trace-ingest-1m-{run.seed}.json")
    return res


def _convert(run: Run, tr, text, ctrace, res: Result):
    """Text -> ``.ctrace`` until the convert share of the run is used (at
    least twice).  The first file written is read back: its header
    fingerprint and every row must equal the ingested store's, so the
    content hash survives the round trip."""
    from repro.traces.store import ContactStore, ingest_path

    span = spanner(tr)
    walls: List[float] = []
    ref = None
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < run.seconds * CONVERT_SHARE:
        fresh()
        if tr is not None:
            tr.run_id += 1
        t0 = time.perf_counter()
        with span("traces.convert"):
            with span("traces.parse"):
                store = ingest_path(text)
            with span("traces.fingerprint"):
                fp = store.fingerprint()
            with span("traces.save"):
                store.save(ctrace)
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            res.metrics["peak_rss_mb"] = peak_rss_mb()
        res.check(store.num_contacts == CONTACTS,
                  f"ingest read {store.num_contacts} contacts")
        if ref is None:
            ref = fp
            loaded = ContactStore.load(ctrace)
            same_rows = all(
                a == b for a, b in zip(loaded.iter_rows(), store.iter_rows())
            )
            res.check(loaded.fingerprint() == fp and same_rows
                      and loaded.num_contacts == store.num_contacts,
                      f"fingerprint {fp} read back as {loaded.fingerprint()}"
                      f" with {'equal' if same_rows else 'different'} rows")
            del loaded
        else:
            res.check(fp == ref, f"conversion fingerprint {fp} != {ref}")
        del store
    return walls, ref


def _open(run: Run, tr, ctrace, fp: str, res: Result) -> List[float]:
    """Load + window + TVEG build until the run's time is used (at least
    five times); every open must see the saved fingerprint and the same
    window."""
    from repro.temporal.reachability import reachable_set
    from repro.traces.store import ContactStore
    from repro.tveg import tveg_from_trace

    span = spanner(tr)
    walls: List[float] = []
    window_size = None
    start = time.perf_counter()
    budget = run.seconds * (1 - CONVERT_SHARE)
    while len(walls) < 5 or time.perf_counter() - start < budget:
        fresh()
        if tr is not None:
            tr.run_id += 1
        t0 = time.perf_counter()
        with span("traces.open"):
            with span("traces.load"):
                store = ContactStore.load(ctrace)
            with span("traces.window"):
                window = store.restrict_window(*WINDOW).shift(-WINDOW[0])
            with span("tveg.build"):
                tveg = tveg_from_trace(window, "static", seed=CHANNEL_SEED)
        walls.append(time.perf_counter() - t0)
        if tr is not None:
            with span("temporal.reachability"):
                reachable_set(tveg.tvg, store.nodes[0], 0.0, WINDOW[1])
        window_size = window_size or window.num_contacts
        res.check(
            store.fingerprint() == fp and window.num_contacts == window_size
            and tveg.num_nodes == NODES,
            f"open {len(walls)}: fingerprint {store.fingerprint()}, "
            f"{window.num_contacts} windowed contacts, {tveg.num_nodes} nodes",
        )
        del store, window, tveg
    return walls

