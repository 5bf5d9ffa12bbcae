"""Array-kernel parity and the unified ``compute=`` selection surface.

The :mod:`repro.compute` contract is stronger than "same answer": the
numpy kernels must be *byte-identical* to the stdlib path — same
schedules, same work counters, same ``config_hash`` — for every
scheduler, because kernel selection is a performance knob that must never
change a plan's identity.  These tests pin that contract over random
traces, the ``plan_broadcast_many ≡ N × plan_broadcast`` equivalence, the
``compute=`` resolution rules (aliases, env var, missing numpy), the
``retarget``/aux-cache reuse the batch API rides on, and the
``TVEG.clear_caches`` invalidation satellite.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.compute as compute_mod
from repro import obs, plan_broadcast, plan_broadcast_many
from repro.algorithms import make_scheduler
from repro.api import BroadcastPlanSet
from repro.auxgraph import build_compact_aux_graph
from repro.compute import (
    COMPUTE_ENV_VAR,
    canonical_compute_name,
    resolve_compute,
)
from repro.compute.numpy_backend import (
    NumpyAuxGraph,
    build_numpy_aux_graph,
    greedy_incremental_dst_numpy,
)
from repro.errors import GraphModelError, InfeasibleError, SolverError
from repro.schedule import (
    doc_to_planset,
    planset_to_doc,
    read_planset_json,
    write_planset_json,
)
from repro.steiner import solve_memt
from repro.steiner.dst import greedy_incremental_dst
from repro.traces import Contact, ContactTrace
from repro.tveg import tveg_from_trace

from .conftest import make_random_instance

NODES = 5
HORIZON = 120.0

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: info keys legitimately differing between kernels (identity-neutral)
VOLATILE_INFO = ("stage_seconds", "backend", "compute")
#: manifest keys that vary run-to-run
VOLATILE_MANIFEST = ("created_unix", "wall_seconds")


@st.composite
def contact_traces(draw):
    """Random small contact traces over 5 nodes and a 120 s horizon."""
    n_contacts = draw(st.integers(4, 14))
    contacts = []
    for _ in range(n_contacts):
        u = draw(st.integers(0, NODES - 1))
        v = draw(st.integers(0, NODES - 1))
        if u == v:
            continue
        start = draw(st.floats(0.0, HORIZON - 10.0))
        dur = draw(st.floats(5.0, 50.0))
        contacts.append(Contact(start, min(start + dur, HORIZON), u, v))
    return ContactTrace(contacts, nodes=tuple(range(NODES)), horizon=HORIZON)


def _strip(mapping, volatile):
    return {k: v for k, v in mapping.items() if k not in volatile}


def _plan_or_infeasible(trace, algorithm, channel, compute):
    try:
        return plan_broadcast(
            trace, None, HORIZON, algorithm=algorithm, channel=channel,
            seed=11, compute=compute,
        )
    except InfeasibleError as exc:
        return ("infeasible", str(exc))


def assert_plans_identical(a, b):
    assert a.schedule.transmissions == b.schedule.transmissions
    assert a.feasibility == b.feasibility
    assert _strip(a.info, VOLATILE_INFO) == _strip(b.info, VOLATILE_INFO)
    assert a.manifest["config_hash"] == b.manifest["config_hash"]
    assert _strip(a.manifest, VOLATILE_MANIFEST) == _strip(
        b.manifest, VOLATILE_MANIFEST
    )


# ----------------------------------------------------------------------
# kernel parity, all schedulers
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "algorithm", ("eedcb", "fr-eedcb", "greed", "fr-greed", "rand",
                  "fr-rand", "oracle")
)
@given(contact_traces())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_python_and_numpy_plans_byte_identical(algorithm, trace):
    channel = "rayleigh" if algorithm.startswith("fr-") else "static"
    py = _plan_or_infeasible(trace, algorithm, channel, "python")
    np_ = _plan_or_infeasible(trace, algorithm, channel, "numpy")
    if isinstance(py, tuple):
        assert np_ == py  # same InfeasibleError message
        return
    if algorithm in ("eedcb", "fr-eedcb"):
        # only the EEDCB family has an array-kernel stage to report
        assert py.info["compute"] == "python"
        assert np_.info["compute"] == "numpy"
    assert_plans_identical(py, np_)


@given(contact_traces(), st.integers(0, 2**16))
@slow
def test_numpy_builder_matches_compact_builder(trace, seed):
    tveg = tveg_from_trace(trace, "static", seed=seed)
    ca = build_compact_aux_graph(tveg, 0, HORIZON)
    na = build_numpy_aux_graph(tveg, 0, HORIZON)
    assert list(na.aux_nodes) == list(ca.aux_nodes)
    assert list(na.indptr) == list(ca.indptr)
    assert list(na.targets) == list(ca.targets)
    assert list(na.weights) == list(ca.weights)
    assert na.root == ca.root and na.root_index == ca.root_index
    assert na.terminals == ca.terminals
    assert na.terminal_indices == ca.terminal_indices
    assert na.cost_sets == ca.cost_sets
    for method in ("greedy", "sptree"):
        try:
            e_c = solve_memt(ca, ca.root, ca.terminals, method=method)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_memt(na, na.root, na.terminals, method=method)
            continue
        assert solve_memt(na, na.root, na.terminals, method=method) == e_c


# ----------------------------------------------------------------------
# the prefix-shared layout ≡ the eager CSR
# ----------------------------------------------------------------------


@given(contact_traces(), st.integers(0, 2**16))
@slow
def test_shared_layout_expands_to_compact_graph(trace, seed):
    tveg = tveg_from_trace(trace, "static", seed=seed)
    ca = build_compact_aux_graph(tveg, 0, HORIZON)
    na = build_numpy_aux_graph(tveg, 0, HORIZON)
    assert isinstance(na, NumpyAuxGraph)
    # sizes are counted during the build, before any expansion
    assert (na.num_nodes, na.num_edges, na.dcs_levels) == (
        ca.num_nodes, ca.num_edges, ca.dcs_levels
    )
    assert not na._csr
    assert list(na.cost_sets) == list(ca.cost_sets)
    for key, dcs in ca.cost_sets.items():
        assert na.cost_sets[key] == dcs
    assert len(na.cost_sets) == len(ca.cost_sets)
    assert list(na.aux_nodes) == list(ca.aux_nodes)
    assert list(na.times) == list(ca.times)
    assert list(na.indptr) == list(ca.indptr)
    assert list(na.targets) == list(ca.targets)
    assert list(na.weights) == list(ca.weights)
    for i in range(ca.num_nodes):
        assert na.out_edges(i) == ca.out_edges(i)


def _solve_both(ca, na, root, terminals):
    sc, sn = {}, {}
    try:
        e_c = greedy_incremental_dst(ca, root, terminals, stats=sc)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            greedy_incremental_dst_numpy(na, root, terminals, stats=sn)
        return
    e_n = greedy_incremental_dst_numpy(na, root, terminals, stats=sn)
    assert e_n == e_c
    assert list(e_n) == list(e_c)  # same insertion history
    assert sn == sc  # expansions and grafts


@given(contact_traces(), st.integers(0, 2**16), st.integers(1, NODES - 1))
@slow
def test_shared_layout_solver_matches_stdlib_solver(trace, seed, other):
    tveg = tveg_from_trace(trace, "static", seed=seed)
    ca = build_compact_aux_graph(tveg, 0, HORIZON)
    na = build_numpy_aux_graph(tveg, 0, HORIZON)
    _solve_both(ca, na, ca.root, ca.terminals)
    # re-rooted copies share the layout and still search identically
    cm, nm = ca.retarget(other), na.retarget(other)
    assert nm.recv is na.recv and nm.st_first is na.st_first
    assert (nm.root, nm.root_index, nm.terminals, nm.terminal_indices) == (
        cm.root, cm.root_index, cm.terminals, cm.terminal_indices
    )
    _solve_both(cm, nm, cm.root, cm.terminals)
    # a terminal subset takes the index_of path
    _solve_both(cm, nm, cm.root, cm.terminals[::2])
    assert not na._csr


@given(contact_traces(), st.integers(0, 2**16))
@slow
def test_shared_layout_index_and_edge_weight_round_trip(trace, seed):
    tveg = tveg_from_trace(trace, "static", seed=seed)
    ca = build_compact_aux_graph(tveg, 0, HORIZON)
    na = build_numpy_aux_graph(tveg, 0, HORIZON)
    for i, aux in enumerate(ca.aux_nodes):
        assert na.aux_nodes[i] == aux
        assert na.index_of(aux) == i
        for j, w in ca.out_edges(i):
            assert na.edge_weight(aux, ca.aux_nodes[j]) == w
    assert na.aux_nodes[-1] == ca.aux_nodes[-1]
    for bad in (("state", 0, 10**6), ("tx", 0, 0, 10**6), ("tx", "x", 0, 0),
                ("state", 0), (), 7):
        with pytest.raises(KeyError):
            na.index_of(bad)
    with pytest.raises(IndexError):
        na.aux_nodes[na.num_nodes]
    with pytest.raises(GraphModelError):
        na.edge_weight(na.root, na.root)
    assert ("nope", 0) not in na.cost_sets
    assert not na._csr


def test_production_plan_never_expands_the_csr():
    _, tveg = make_random_instance(seed=5)
    obs.enable()
    try:
        r = make_scheduler("eedcb", compute="numpy").run(tveg, 0, 300.0)
        gauges = obs.snapshot().gauges
    finally:
        obs.disable()
    (aux,) = tveg.aux_cache().values()
    assert isinstance(aux, NumpyAuxGraph) and not aux._csr
    assert r.info["aux_edges"] == aux.num_edges
    assert gauges["auxgraph.resident_bytes"] == aux.resident_bytes
    eager = build_compact_aux_graph(tveg, 0, 300.0)
    assert aux.resident_bytes < eager.resident_bytes


def test_resident_bytes_gauge_reported_below_eager_layout():
    from repro.obs.bench import _build_instance

    tveg, _fading, source, _trace = _build_instance(12, 2000.0, 1)
    obs.enable()
    try:
        shared = build_numpy_aux_graph(tveg, source, 2000.0)
        shared_gauge = obs.snapshot().gauges["auxgraph.resident_bytes"]
        eager = build_compact_aux_graph(tveg, source, 2000.0)
        eager_gauge = obs.snapshot().gauges["auxgraph.resident_bytes"]
    finally:
        obs.disable()
    assert shared_gauge == shared.resident_bytes > 0
    assert eager_gauge == eager.resident_bytes
    assert shared_gauge < eager_gauge


# ----------------------------------------------------------------------
# batch API ≡ N single plans
# ----------------------------------------------------------------------


@given(contact_traces())
@slow
def test_plan_many_equals_n_single_plans(trace):
    sources = [None, 0, 2]
    singles, first_err = [], None
    for src in sources:
        try:
            singles.append(plan_broadcast(trace, src, HORIZON, seed=11))
        except InfeasibleError as exc:
            first_err = str(exc)
            break
    try:
        planset = plan_broadcast_many(trace, sources, HORIZON, seed=11)
    except InfeasibleError as exc:
        # the batch fails exactly where the singles first would
        assert str(exc) == first_err
        return
    assert first_err is None
    assert isinstance(planset, BroadcastPlanSet)
    assert len(planset) == len(sources)
    for single, batch_plan in zip(singles, planset):
        assert_plans_identical(single, batch_plan)


def test_plan_many_mixed_deadlines_and_validation():
    trace, _ = make_random_instance(seed=5)
    planset = plan_broadcast_many(trace, [0, 0], [300.0, 250.0], seed=5)
    assert planset[0].deadline == 300.0 and planset[1].deadline == 250.0
    assert (planset[0].manifest["config_hash"]
            != planset[1].manifest["config_hash"])
    with pytest.raises(ValueError):
        plan_broadcast_many(trace, [0, 1], [300.0], seed=5)


def test_planset_sequence_protocol():
    trace, _ = make_random_instance(seed=5)
    planset = plan_broadcast_many(trace, [0, 0, 0], [300.0, 280.0, 260.0])
    assert len(planset) == 3
    assert list(planset)[1] is planset[1]
    sliced = planset[1:]
    assert isinstance(sliced, BroadcastPlanSet) and len(sliced) == 2
    assert sliced[0] is planset[1]
    assert planset.total_cost == pytest.approx(
        sum(p.schedule.total_cost for p in planset)
    )
    assert planset.feasible == all(p.feasible for p in planset)


# ----------------------------------------------------------------------
# planset serialization round-trip
# ----------------------------------------------------------------------


def test_planset_json_round_trip(tmp_path):
    trace, tveg = make_random_instance(seed=5)
    planset = plan_broadcast_many(tveg, [0, 0], [300.0, 260.0], seed=5)
    path = tmp_path / "planset.json"
    write_planset_json(planset, path)
    doc = read_planset_json(path)
    assert doc["schema"] == "repro.planset/1"
    replayed = doc_to_planset(doc, tveg)
    assert len(replayed) == len(planset)
    for orig, back in zip(planset, replayed):
        assert back.schedule.transmissions == orig.schedule.transmissions
        assert back.feasibility == orig.feasibility
        assert back.info == orig.info
        assert back.manifest == orig.manifest
    # the document itself round-trips byte-for-byte
    assert planset_to_doc(replayed) == doc


def test_planset_doc_rejects_wrong_schema_and_tveg_count():
    trace, tveg = make_random_instance(seed=5)
    planset = plan_broadcast_many(tveg, [0], 300.0, seed=5)
    doc = planset_to_doc(planset)
    from repro.errors import TraceFormatError

    with pytest.raises(TraceFormatError):
        doc_to_planset({"schema": "repro.plan/1", "plans": []}, tveg)
    with pytest.raises(TraceFormatError):
        doc_to_planset(doc, [tveg, tveg])


# ----------------------------------------------------------------------
# compute= resolution rules
# ----------------------------------------------------------------------


class TestComputeResolution:
    def test_canonical_names_and_aliases(self):
        assert canonical_compute_name(None) == "auto"
        assert canonical_compute_name("NumPy") == "numpy"
        assert canonical_compute_name("np") == "numpy"
        assert canonical_compute_name("vectorized") == "numpy"
        assert canonical_compute_name("stdlib") == "python"
        assert canonical_compute_name("pure") == "python"
        assert canonical_compute_name("default") == "auto"
        with pytest.raises(SolverError):
            canonical_compute_name("fortran")

    def test_auto_prefers_numpy_when_importable(self, monkeypatch):
        monkeypatch.delenv(COMPUTE_ENV_VAR, raising=False)
        monkeypatch.setattr(compute_mod, "_HAS_NUMPY", True)
        assert resolve_compute(None) == "numpy"
        assert resolve_compute("auto") == "numpy"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.delenv(COMPUTE_ENV_VAR, raising=False)
        monkeypatch.setattr(compute_mod, "_HAS_NUMPY", False)
        assert resolve_compute(None) == "python"

    def test_env_var_steers_auto(self, monkeypatch):
        monkeypatch.setenv(COMPUTE_ENV_VAR, "python")
        assert resolve_compute(None) == "python"
        assert resolve_compute("auto") == "python"
        # ...but an explicit request wins over the environment
        monkeypatch.setattr(compute_mod, "_HAS_NUMPY", True)
        assert resolve_compute("numpy") == "numpy"

    def test_explicit_numpy_without_numpy_errors(self, monkeypatch):
        monkeypatch.setattr(compute_mod, "_HAS_NUMPY", False)
        with pytest.raises(SolverError, match=r"repro\[fast\]"):
            resolve_compute("numpy")

    def test_bare_scheduler_stays_python(self):
        assert make_scheduler("eedcb")._mode == "python"


# ----------------------------------------------------------------------
# retarget + the TVEG aux cache
# ----------------------------------------------------------------------


class TestRetargetAndAuxCache:
    def test_retarget_equals_fresh_build(self, det_static):
        base = build_compact_aux_graph(det_static, 0, det_static.horizon)
        fresh = build_compact_aux_graph(det_static, 1, det_static.horizon)
        moved = base.retarget(1)
        assert moved.root == fresh.root
        assert moved.root_index == fresh.root_index
        assert moved.terminals == fresh.terminals
        assert moved.terminal_indices == fresh.terminal_indices
        # the arrays are shared, not copied
        assert moved.targets is base.targets
        assert moved.weights is base.weights
        assert moved.indptr is base.indptr
        e1 = solve_memt(fresh, fresh.root, fresh.terminals, method="greedy")
        e2 = solve_memt(moved, moved.root, moved.terminals, method="greedy")
        assert e1 == e2

    def test_retarget_rejects_unknown_nodes(self, det_static):
        base = build_compact_aux_graph(det_static, 0, det_static.horizon)
        with pytest.raises(GraphModelError):
            base.retarget("nope")
        with pytest.raises(GraphModelError):
            base.retarget(0, targets=("nope",))

    @pytest.mark.parametrize("compute", ("python", "numpy"))
    def test_second_source_reuses_cached_aux_graph(self, compute):
        _, tveg = make_random_instance(seed=5)
        counter = ("auxgraph.compact_builds" if compute == "python"
                   else "auxgraph.numpy_builds")
        obs.enable()
        try:
            before = obs.snapshot().counters.get(counter, 0)
            r0 = make_scheduler("eedcb", compute=compute).run(tveg, 0, 300.0)
            r1 = make_scheduler("eedcb", compute=compute).run(tveg, 1, 300.0)
            after = obs.snapshot().counters.get(counter, 0)
        finally:
            obs.disable()
        assert after - before == 1  # second source retargets the cached aux
        assert r0.schedule.transmissions != () or r1 is not None

    def test_aux_cache_invalidated_by_clear_caches(self):
        _, tveg = make_random_instance(seed=5)
        make_scheduler("eedcb", compute="python").run(tveg, 0, 300.0)
        assert len(tveg.aux_cache()) == 1
        tveg.clear_caches()
        assert len(tveg.aux_cache()) == 0


# ----------------------------------------------------------------------
# clear_caches invalidates every derived cache (satellite fix)
# ----------------------------------------------------------------------


def test_clear_caches_clears_compute_and_event_caches():
    _, tveg = make_random_instance(seed=5)
    # warm every cache layer
    make_scheduler("eedcb", compute="numpy").run(tveg, 0, 300.0)
    tveg.tvg.adjacency_events(0)
    assert tveg.compute_cache()
    assert tveg.aux_cache()
    assert tveg.tvg._events
    tveg.clear_caches()
    assert not tveg.compute_cache()
    assert not tveg.aux_cache()
    assert not tveg.tvg._events
    assert not tveg.dcs_memo()
    # the graph still plans correctly after the purge, cold
    r = make_scheduler("eedcb", compute="numpy").run(tveg, 0, 300.0)
    assert r.schedule is not None
