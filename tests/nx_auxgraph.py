"""The networkx auxiliary-graph construction — a test-only oracle.

A direct, unoptimized transcription of Section VI-A (Fig. 3) onto a
:class:`networkx.DiGraph`:

* waiting edges ``u_{i,l} → u_{i,l+1}`` with weight 0 — having the packet at
  one DTS point implies having it at the next;
* transmit edges ``u_{i,l} → x_{i,l,k}`` with weight ``w^k_{i,t}`` — pay the
  ``k``-th DCS level once;
* coverage edges ``x_{i,l,k} → u_{j,f}`` with weight 0 for every ``v_j``
  whose minimum cost at ``t_{i,l}`` is ≤ ``w^k`` — the broadcast advantage;
  the receiver's point ``t_{j,f}`` equals ``t_{i,l} + τ``.

The production builders (:func:`repro.auxgraph.build_compact_aux_graph` and
:func:`repro.compute.numpy_backend.build_numpy_aux_graph`) must reproduce
this graph node-for-node, edge-for-edge and in the same insertion order;
``tests/test_compact.py`` and ``tests/test_auxgraph.py`` compare against it.
:class:`OracleEEDCB` runs the rest of the EEDCB pipeline (Steiner search,
extraction, the three reduce passes) on the oracle graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from repro.algorithms.base import SchedulerResult
from repro.auxgraph import extract_schedule, state_node, tx_node
from repro.auxgraph.compact import _point_index
from repro.dts.dts import DiscreteTimeSet, build_dts
from repro.errors import GraphModelError, InfeasibleError
from repro.schedule.reduce import lower_costs, remove_redundant, upgrade_and_prune
from repro.steiner.memt import solve_memt
from repro.steiner.sptree import tree_cost
from repro.temporal.reachability import reachable_set
from repro.tveg.costsets import DiscreteCostSet, discrete_cost_sets
from repro.tveg.graph import TVEG

Node = Hashable
AuxNode = Tuple


@dataclass
class AuxGraph:
    """The oracle graph plus the bookkeeping needed to decode trees."""

    graph: nx.DiGraph
    dts: DiscreteTimeSet
    source: Node
    root: AuxNode
    terminals: Tuple[AuxNode, ...]
    #: DCS per (node, point index) — reused during schedule extraction
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    @property
    def dcs_levels(self) -> int:
        return sum(len(cs) for cs in self.cost_sets.values())

    def time_of(self, node: Node, point_index: int) -> float:
        return self.dts.points(node)[point_index]

    def to_networkx(self) -> nx.DiGraph:
        """The graph itself (the production graphs convert to this form)."""
        return self.graph


def build_aux_graph(
    tveg: TVEG,
    source: Node,
    deadline: Optional[float] = None,
    dts: Optional[DiscreteTimeSet] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> AuxGraph:
    """Build the Section VI-A auxiliary graph as a networkx DiGraph."""
    if not tveg.tvg.has_node(source):
        raise GraphModelError(f"unknown source {source!r}")
    if targets is not None:
        unknown = [t for t in targets if not tveg.tvg.has_node(t)]
        if unknown:
            raise GraphModelError(f"unknown targets {unknown!r}")
    end = tveg.horizon if deadline is None else min(tveg.horizon, deadline)
    d = dts if dts is not None else build_dts(tveg.tvg, end)
    tau = tveg.tau

    g = nx.DiGraph()
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = {}

    # State nodes and waiting edges.
    for node in tveg.nodes:
        pts = d.points(node)
        for l in range(len(pts)):
            g.add_node(state_node(node, l), time=pts[l])
        for l in range(len(pts) - 1):
            g.add_edge(state_node(node, l), state_node(node, l + 1), weight=0.0)

    # Transmission and coverage edges.
    for node in tveg.nodes:
        pts = d.points(node)
        all_dcs = discrete_cost_sets(tveg, node, pts)
        for l, t in enumerate(pts):
            if t + tau > end:
                continue  # transmission could not complete by the deadline
            dcs = all_dcs[l]
            if dcs.is_empty:
                continue
            t_recv = t + tau
            # Receivers whose DTS lacks the reception point are dropped
            # (provably useless coverage; see repro.auxgraph.compact).
            recv_index: Dict[Node, int] = {}
            for _, nbr in dcs.entries:
                f = _point_index(d.points(nbr), t_recv)
                if f is not None:
                    recv_index[nbr] = f
            reachable = tuple(
                (w, nbr) for w, nbr in dcs.entries if nbr in recv_index
            )
            if not reachable:
                continue
            cost_sets[(node, l)] = dcs
            for k, (w, _) in enumerate(dcs.entries):
                receivers = [nbr for c, nbr in reachable if c <= w]
                if not receivers:
                    continue
                x = tx_node(node, l, k)
                g.add_node(x, time=t)
                g.add_edge(state_node(node, l), x, weight=w)
                for nbr in receivers:
                    g.add_edge(x, state_node(nbr, recv_index[nbr]), weight=0.0)

    root = state_node(source, 0)
    wanted = tuple(n for n in tveg.nodes if n != source) if targets is None else tuple(
        n for n in targets if n != source
    )
    terminals = tuple(state_node(n, len(d.points(n)) - 1) for n in wanted)
    return AuxGraph(
        graph=g,
        dts=d,
        source=source,
        root=root,
        terminals=terminals,
        cost_sets=cost_sets,
    )


class OracleEEDCB:
    """EEDCB's pipeline on the oracle graph: build → greedy Steiner search →
    extraction → the three reduce passes.

    Reports the info counters the production scheduler reports, so a test
    can compare the two runs field by field.  Drop it in as
    ``FREEDCB._backbone`` to run FR-EEDCB's allocation on the oracle's
    backbone.
    """

    def run(self, tveg: TVEG, source: Node, deadline: float,
            start_time: float = 0.0) -> SchedulerResult:
        reached = reachable_set(tveg.tvg, source, start_time, deadline)
        missing = [n for n in tveg.nodes if n not in reached]
        if missing:
            raise InfeasibleError(f"no journey reaches {missing!r}")
        dts = build_dts(tveg.tvg, deadline)
        aux = build_aux_graph(tveg, source, deadline, dts)
        stats: Dict[str, int] = {}
        edges = solve_memt(aux.graph, aux.root, aux.terminals, stats=stats)
        schedule = extract_schedule(aux, edges)
        raw_cost = schedule.total_cost
        schedule = remove_redundant(tveg, schedule, source, deadline)
        schedule = upgrade_and_prune(tveg, schedule, source, deadline)
        schedule = lower_costs(tveg, schedule, source, deadline)
        return SchedulerResult(
            schedule=schedule,
            info={
                "aux_nodes": aux.num_nodes,
                "aux_edges": aux.num_edges,
                "dts_points": dts.total_points(),
                "dcs_levels": aux.dcs_levels,
                "steiner_expansions": stats.get("expansions", 0),
                "tree_cost": tree_cost(aux.graph, edges),
                "raw_cost": raw_cost,
            },
        )
