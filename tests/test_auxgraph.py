"""Auxiliary graph (Section VI-A): structure, DAG-ness, schedule extraction.

The structural properties are asserted on every construction: the networkx
oracle and the two production builders (the stdlib compact build and the
numpy build), the latter two through ``to_networkx()`` and their decode
surface.  Each test loops over the builders rather than parametrizing, so
the test ids stay one per property.
"""

import networkx as nx
import pytest

from repro.auxgraph import (
    build_compact_aux_graph,
    extract_schedule,
    is_state,
    is_tx,
    level_of,
    node_of,
    point_index_of,
    state_node,
    tx_node,
)
from repro.compute.numpy_backend import build_numpy_aux_graph
from repro.errors import GraphModelError
from repro.schedule import check_feasibility
from repro.steiner import solve_memt

from .nx_auxgraph import AuxGraph, build_aux_graph

#: (label, builder): the test oracle and the two builders that ship
BUILDERS = (
    ("oracle", build_aux_graph),
    ("compact", build_compact_aux_graph),
    ("numpy", build_numpy_aux_graph),
)


def built(*args, **kwargs):
    """``(label, graph)`` from every builder for the same arguments."""
    return [(label, build(*args, **kwargs)) for label, build in BUILDERS]


def solver_input(aux):
    """What the Steiner search runs on: the oracle's DiGraph, else the
    production graph itself."""
    return aux.graph if isinstance(aux, AuxGraph) else aux


class TestModel:
    def test_node_vocabulary(self):
        s = state_node(3, 2)
        x = tx_node(3, 2, 1)
        assert is_state(s) and not is_tx(s)
        assert is_tx(x) and not is_state(x)
        assert node_of(s) == 3 and node_of(x) == 3
        assert point_index_of(s) == 2 and point_index_of(x) == 2
        assert level_of(x) == 1
        with pytest.raises(ValueError):
            level_of(s)


class TestBuild:
    def test_edges_never_go_back_in_time(self, det_static):
        # With τ = 0 same-instant relay chains are legal (Eq. 6 admits
        # t_j ≤ t_k), so the graph may contain equal-time cycles — but no
        # edge may ever decrease time.
        for label, aux in built(det_static, 0, 100.0):
            g = aux.to_networkx()
            for u, v in g.edges:
                assert g.nodes[v]["time"] >= g.nodes[u]["time"], label

    def test_is_dag_with_positive_tau(self, det_trace):
        from repro.tveg import tveg_from_trace

        tveg = tveg_from_trace(det_trace, "static", tau=1.0, seed=1)
        for label, aux in built(tveg, 0, 100.0):
            assert nx.is_directed_acyclic_graph(aux.to_networkx()), label

    def test_waiting_edges_zero_weight(self, det_static):
        for label, aux in built(det_static, 0, 100.0):
            for u, v, data in aux.to_networkx().edges(data=True):
                if is_state(u) and is_state(v):
                    assert node_of(u) == node_of(v), label
                    assert point_index_of(v) == point_index_of(u) + 1, label
                    assert data["weight"] == 0.0, label

    def test_tx_edges_carry_dcs_weight(self, det_static):
        for label, aux in built(det_static, 0, 100.0):
            for u, v, data in aux.to_networkx().edges(data=True):
                if is_tx(v):
                    key = (node_of(v), point_index_of(v))
                    dcs = aux.cost_sets[key]
                    assert data["weight"] == dcs.entries[level_of(v)][0], label

    def test_coverage_edges_zero_weight_and_broadcast_nature(self, det_static):
        for label, aux in built(det_static, 0, 100.0):
            g = aux.to_networkx()
            for u in g.nodes:
                if is_tx(u):
                    dcs = aux.cost_sets[(node_of(u), point_index_of(u))]
                    receivers = {node_of(v) for v in g[u]}
                    expected = set(dcs.coverage(dcs.entries[level_of(u)][0]))
                    assert receivers == expected, label
                    for v, data in g[u].items():
                        assert data["weight"] == 0.0, label

    def test_root_and_terminals(self, det_static):
        for label, aux in built(det_static, 0, 100.0):
            assert aux.root == state_node(0, 0), label
            assert len(aux.terminals) == 3, label  # everyone but the source
            for t in aux.terminals:
                last = len(aux.dts.points(node_of(t))) - 1
                assert point_index_of(t) == last, label

    def test_unknown_source_rejected(self, det_static):
        for label, build in BUILDERS:
            with pytest.raises(GraphModelError):
                build(det_static, 99, 100.0)

    def test_deadline_shrinks_graph(self, det_static):
        for label, build in BUILDERS:
            big = build(det_static, 0, 100.0)
            small = build(det_static, 0, 50.0)
            assert small.num_nodes < big.num_nodes, label


class TestExtract:
    def test_steiner_tree_roundtrip(self, det_static):
        for label, aux in built(det_static, 0, 100.0):
            edges = solve_memt(solver_input(aux), aux.root, aux.terminals)
            sched = extract_schedule(aux, edges)
            rep = check_feasibility(det_static, sched, 0, 100.0)
            assert rep.feasible, label

    def test_duplicate_levels_merge(self, det_static):
        # Entering two tx levels of the same (node, point) must collapse to
        # the higher level (whose coverage is a superset).
        for label, aux in built(det_static, 0, 100.0):
            key = next(k for k, v in aux.cost_sets.items() if len(v) >= 2)
            node, l = key
            dcs = aux.cost_sets[key]
            s = state_node(node, l)
            fake_tree = {
                (s, tx_node(node, l, 0)),
                (s, tx_node(node, l, 1)),
                (tx_node(node, l, 0), state_node(dcs.entries[0][1], 0)),
                (tx_node(node, l, 1), state_node(dcs.entries[1][1], 0)),
            }
            sched = extract_schedule(aux, fake_tree)
            assert len(sched) == 1, label
            assert sched[0].cost == dcs.entries[1][0], label

    def test_coverage_less_tx_dropped(self, det_static):
        for label, aux in built(det_static, 0, 100.0):
            key = next(iter(aux.cost_sets))
            node, l = key
            s = state_node(node, l)
            fake_tree = {(s, tx_node(node, l, 0))}  # tx with no receivers
            sched = extract_schedule(aux, fake_tree)
            assert sched.is_empty, label
