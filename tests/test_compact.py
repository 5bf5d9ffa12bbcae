"""Compact (CSR) auxiliary graph: equivalence with the networkx oracle.

The compact builder's contract is stronger than "same answer": the CSR
construction must mirror the oracle's (``tests/nx_auxgraph.py``) node and
edge *insertion order*, because the greedy Steiner solver breaks distance
ties by node index and adjacency order.  These tests pin the full
contract — graph equality node-for-node/edge-for-edge/weight-for-weight
over random TVEGs, and schedule identity of the eedcb / fr-eedcb
pipelines against the same pipeline run on the oracle graph.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_scheduler
from repro.auxgraph import build_compact_aux_graph
from repro.dts import build_dts
from repro.errors import GraphModelError, InfeasibleError
from repro.steiner import solve_memt
from repro.traces import Contact, ContactTrace
from repro.tveg import tveg_from_trace

from .nx_auxgraph import OracleEEDCB, build_aux_graph

NODES = 5
HORIZON = 120.0

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


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


def assert_same_graph(nxa, ca):
    """Full structural identity of the oracle graph and a CompactAuxGraph."""
    g1, g2 = nxa.graph, ca.to_networkx()
    assert list(g1.nodes) == list(g2.nodes)
    assert [g1.nodes[n]["time"] for n in g1] == [
        g2.nodes[n]["time"] for n in g2
    ]
    assert list(g1.edges(data="weight")) == list(g2.edges(data="weight"))
    assert nxa.root == ca.root
    assert nxa.terminals == ca.terminals
    assert nxa.cost_sets == ca.cost_sets


@given(contact_traces(), st.integers(0, 2**16),
       st.sampled_from(["static", "rayleigh"]))
@slow
def test_compact_build_equals_nx_build(trace, seed, channel):
    tveg = tveg_from_trace(trace, channel, seed=seed)
    dts = build_dts(tveg.tvg, HORIZON)
    nxa = build_aux_graph(tveg, 0, HORIZON, dts)
    ca = build_compact_aux_graph(tveg, 0, HORIZON, dts)
    assert_same_graph(nxa, ca)
    assert ca.num_nodes == nxa.num_nodes
    assert ca.num_edges == nxa.num_edges
    assert ca.dcs_levels == nxa.dcs_levels


@given(contact_traces(), st.integers(0, 2**16))
@slow
def test_eedcb_schedules_identical_across_backends(trace, seed):
    tveg = tveg_from_trace(trace, "static", seed=seed)
    try:
        r_nx = OracleEEDCB().run(tveg, 0, HORIZON)
    except InfeasibleError:
        return
    r_c = make_scheduler("eedcb", compute="python").run(tveg, 0, HORIZON)
    assert r_nx.schedule.transmissions == r_c.schedule.transmissions
    assert r_nx.info["steiner_expansions"] == r_c.info["steiner_expansions"]
    assert r_nx.info["tree_cost"] == r_c.info["tree_cost"]
    assert r_nx.info["aux_nodes"] == r_c.info["aux_nodes"]
    assert r_nx.info["aux_edges"] == r_c.info["aux_edges"]
    assert r_c.info["backend"] == "compact"


@given(contact_traces(), st.integers(0, 2**16))
@slow
def test_fr_eedcb_schedules_identical_across_backends(trace, seed):
    tveg = tveg_from_trace(trace, "rayleigh", seed=seed)
    fr_nx = make_scheduler("fr-eedcb")
    fr_nx._backbone = OracleEEDCB()  # allocation runs on the oracle backbone
    try:
        r_nx = fr_nx.run(tveg, 0, HORIZON)
    except InfeasibleError:
        return
    r_c = make_scheduler("fr-eedcb", compute="python").run(tveg, 0, HORIZON)
    assert r_nx.schedule.transmissions == r_c.schedule.transmissions


@given(contact_traces(), st.integers(0, 2**16))
@slow
def test_solver_trees_identical_on_both_forms(trace, seed):
    """Every MEMT method returns the same tree on either graph form."""
    tveg = tveg_from_trace(trace, "static", seed=seed)
    dts = build_dts(tveg.tvg, HORIZON)
    nxa = build_aux_graph(tveg, 0, HORIZON, dts)
    ca = build_compact_aux_graph(tveg, 0, HORIZON, dts)
    for method in ("greedy", "sptree"):
        try:
            e_nx = solve_memt(nxa.graph, nxa.root, nxa.terminals,
                              method=method)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_memt(ca, ca.root, ca.terminals, method=method)
            continue
        e_c = solve_memt(ca, ca.root, ca.terminals, method=method)
        assert e_nx == e_c


def test_compact_lookup_surface(det_static):
    ca = build_compact_aux_graph(det_static, 0, det_static.horizon)
    assert ca.index_of(ca.root) == ca.root_index
    for t, i in zip(ca.terminals, ca.terminal_indices):
        assert ca.index_of(t) == i
    # edge_weight agrees with the CSR rows and rejects absent edges.
    i = ca.root_index
    for j, w in ca.out_edges(i):
        assert ca.edge_weight(ca.aux_nodes[i], ca.aux_nodes[j]) == w
    with pytest.raises(GraphModelError):
        ca.edge_weight(ca.aux_nodes[0], ca.aux_nodes[0])
    assert ca.number_of_nodes() == ca.num_nodes == len(ca.aux_nodes)
    assert ca.number_of_edges() == ca.num_edges == len(ca.targets)
    assert len(ca.indptr) == ca.num_nodes + 1


def test_unknown_backend_rejected():
    # backend= is gone: kernels are chosen with compute= alone
    for backend in ("csr", "nx", "compact"):
        with pytest.raises(TypeError):
            make_scheduler("eedcb", backend=backend)


def test_unknown_source_and_targets_rejected(det_static):
    with pytest.raises(GraphModelError):
        build_compact_aux_graph(det_static, "nope", det_static.horizon)
    with pytest.raises(GraphModelError):
        build_compact_aux_graph(
            det_static, 0, det_static.horizon, targets=("nope",)
        )
