"""Flat-array (CSR) auxiliary graph — the stdlib Section VI-A construction.

:func:`build_compact_aux_graph` produces a :class:`CompactAuxGraph` — int
node ids, CSR adjacency (``indptr`` / ``targets`` / ``weights`` stdlib
arrays) — directly from the timeline-sweep DCS computation, and
:func:`~repro.steiner.dst.greedy_incremental_dst` consumes it natively with
no per-call re-indexing.  The graph (Section VI-A, Fig. 3) has:

* waiting edges ``u_{i,l} → u_{i,l+1}`` with weight 0 — having the packet at
  one DTS point implies having it at the next;
* transmit edges ``u_{i,l} → x_{i,l,k}`` with weight ``w^k_{i,t}`` — pay the
  ``k``-th DCS level once;
* coverage edges ``x_{i,l,k} → u_{j,f}`` with weight 0 for every ``v_j``
  whose minimum cost at ``t_{i,l}`` is ≤ ``w^k`` — the broadcast advantage;
  the receiver's point ``t_{j,f}`` equals ``t_{i,l} + τ`` (the paper prints
  ``−τ``, a typo: decoding completes *after* traversal; with the paper's own
  ``τ ≈ 0`` approximation the two coincide).

Every edge moves forward in (node-local) time.  TMEDB-S is then exactly the
directed Steiner tree problem rooted at the source's first state node with
the terminals ``D = {u_{i, last}}``.

Node ids follow a fixed order (all state nodes, then transmission nodes as
created) and per-node adjacency a fixed edge order (waiting edge first,
then transmission edges by level; coverage edges in DCS entry order).
The greedy Steiner solver breaks distance ties by node index and adjacency
order, so this order is part of the contract: the test suite's networkx
oracle (``tests/nx_auxgraph.py``) builds the same graph in the same
insertion order, and :meth:`CompactAuxGraph.to_networkx` converts
losslessly for the ``sptree`` / ``charikar`` solvers and the tests.

This eager builder is the ``compute="python"`` path and the
element-for-element oracle for the numpy kernel's
:class:`~repro.compute.numpy_backend.NumpyAuxGraph`, a subclass that keeps
the same ids and rows in a prefix-shared layout with no per-edge array.
:meth:`CompactAuxGraph.retarget` is a shallow copy so that it serves both
forms; on the subclass the ``indptr`` / ``targets`` / ``weights`` /
``times`` arrays — read only by oracles, tests, and :meth:`to_networkx` —
are expanded on first access and cached.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..dts.dts import DiscreteTimeSet, build_dts
from ..errors import GraphModelError
from ..tveg.costsets import DiscreteCostSet, discrete_cost_sets
from ..tveg.graph import TVEG
from .model import AuxNode, state_node, tx_node

__all__ = ["CompactAuxGraph", "build_compact_aux_graph"]

Node = Hashable


def _point_index(points: Tuple[float, ...], t: float) -> Optional[int]:
    """Index of the EXACT value ``t`` in sorted ``points``, else None.

    Exact float matching is deliberate: reception times are constructed so
    they reproduce the receiver's stored point bit-for-bit (τ = 0 reuses the
    sender's point; τ > 0 status points are built by iterated ``+ τ``).  A
    tolerance here once allowed a reception to snap to an *earlier* point of
    the receiver — sub-nanosecond time travel that produced causally
    impossible schedules (found by the hypothesis suite).
    """
    i = bisect_left(points, t)
    if i < len(points) and points[i] == t:
        return i
    return None


@dataclass
class CompactAuxGraph:
    """Int-indexed CSR auxiliary graph plus decoding bookkeeping.

    ``aux_nodes[i]`` is the tuple-form auxiliary node with id ``i``;
    out-edges of ``i`` are ``targets[indptr[i]:indptr[i+1]]`` with parallel
    ``weights``.  ``root`` / ``terminals`` / ``cost_sets`` / ``time_of``
    are the decoding surface :func:`~repro.auxgraph.extract.extract_schedule`
    reads.
    """

    indptr: array
    targets: array
    weights: array
    aux_nodes: List[AuxNode]
    times: array
    dts: DiscreteTimeSet
    source: Node
    root: AuxNode
    terminals: Tuple[AuxNode, ...]
    root_index: int
    terminal_indices: Tuple[int, ...]
    #: DCS per (node, point index) — reused during schedule extraction
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet]
    #: graph node → id of its first state node.  Enables :meth:`retarget`.
    state_base: Dict[Node, int] = field(repr=False)
    _index: Optional[Dict[AuxNode, int]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # sizes (same surface as nx.DiGraph)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.aux_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def number_of_nodes(self) -> int:
        return self.num_nodes

    def number_of_edges(self) -> int:
        return self.num_edges

    @property
    def dcs_levels(self) -> int:
        """Total DCS levels over every (node, point) with a usable DCS."""
        return sum(len(cs) for cs in self.cost_sets.values())

    @property
    def resident_bytes(self) -> int:
        """Bytes held by the graph's flat arrays (the ``auxgraph.resident_bytes``
        gauge)."""
        return sum(
            memoryview(a).nbytes
            for a in (self.indptr, self.targets, self.weights, self.times)
        )

    def time_of(self, node: Node, point_index: int) -> float:
        return self.dts.points(node)[point_index]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def index_of(self, aux: AuxNode) -> int:
        """Int id of a tuple-form auxiliary node (index built lazily)."""
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.aux_nodes)}
        return self._index[aux]

    def edge_weight(self, u: AuxNode, v: AuxNode) -> float:
        """Weight of the edge ``u → v`` (KeyError-style failure if absent)."""
        ui, vi = self.index_of(u), self.index_of(v)
        for k in range(self.indptr[ui], self.indptr[ui + 1]):
            if self.targets[k] == vi:
                return self.weights[k]
        raise GraphModelError(f"no auxiliary edge {u!r} → {v!r}")

    def out_edges(self, i: int) -> Tuple[Tuple[int, float], ...]:
        """``(target id, weight)`` pairs of node id ``i``, CSR order."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return tuple(
            (self.targets[k], self.weights[k]) for k in range(lo, hi)
        )

    # ------------------------------------------------------------------
    # retargeting (the batch-planning amortization)
    # ------------------------------------------------------------------
    def retarget(
        self, source: Node, targets: Optional[Tuple[Node, ...]] = None
    ) -> "CompactAuxGraph":
        """The same auxiliary graph, re-rooted at a different source.

        The Section VI-A construction depends only on the TVEG and the
        deadline — the source merely selects the root state node and
        drops itself from the terminal set — so a built graph can serve
        every source.  Returns a shallow copy sharing all arrays with
        ``self``; only root/terminal bookkeeping is recomputed, exactly
        as the builder would have produced it.  This is what lets
        ``plan_broadcast_many`` pay for one build across k sources.
        """
        if source not in self.state_base:
            raise GraphModelError(f"unknown source {source!r}")
        if targets is not None:
            unknown = [t for t in targets if t not in self.state_base]
            if unknown:
                raise GraphModelError(f"unknown targets {unknown!r}")
        wanted = (
            tuple(n for n in self.dts.nodes if n != source)
            if targets is None
            else tuple(n for n in targets if n != source)
        )
        moved = copy.copy(self)
        moved.source = source
        moved.root = state_node(source, 0)
        moved.root_index = self.state_base[source]
        moved.terminals = tuple(
            state_node(n, len(self.dts.points(n)) - 1) for n in wanted
        )
        moved.terminal_indices = tuple(
            self.state_base[n] + len(self.dts.points(n)) - 1 for n in wanted
        )
        return moved

    # ------------------------------------------------------------------
    # conversion (lossless, for the non-greedy solvers and tests)
    # ------------------------------------------------------------------
    def to_networkx(self):
        """The equivalent :class:`networkx.DiGraph` (node ``time`` attrs,
        edge ``weight`` attrs, matching insertion order)."""
        import networkx as nx

        g = nx.DiGraph()
        for aux, t in zip(self.aux_nodes, self.times):
            g.add_node(aux, time=t)
        indptr, targets, weights = self.indptr, self.targets, self.weights
        for i, u in enumerate(self.aux_nodes):
            for k in range(indptr[i], indptr[i + 1]):
                g.add_edge(u, self.aux_nodes[targets[k]], weight=weights[k])
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompactAuxGraph(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, terminals={len(self.terminals)})"
        )


@obs.span("auxgraph.compact_build")
def build_compact_aux_graph(
    tveg: TVEG,
    source: Node,
    deadline: Optional[float] = None,
    dts: Optional[DiscreteTimeSet] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> CompactAuxGraph:
    """Build the Section VI-A auxiliary graph directly in CSR form.

    For fading channels the DCS entries are the ``w0`` backbone weights
    (Section VI-B), so the same construction drives both EEDCB and
    FR-EEDCB's backbone-selection stage.  ``targets`` selects a multicast
    terminal subset (default: all other nodes — the paper's broadcast);
    this is exactly Liang's original MEMT problem.  Node and edge order
    are fixed (see the module docstring).  The DCS at every point of one
    node comes from a single timeline sweep (see
    :mod:`repro.tveg.costsets`).
    """
    if not tveg.tvg.has_node(source):
        raise GraphModelError(f"unknown source {source!r}")
    if targets is not None:
        unknown = [t for t in targets if not tveg.tvg.has_node(t)]
        if unknown:
            raise GraphModelError(f"unknown targets {unknown!r}")
    end = tveg.horizon if deadline is None else min(tveg.horizon, deadline)
    d = dts if dts is not None else build_dts(tveg.tvg, end)
    tau = tveg.tau

    # State nodes first, in (node, point) order.
    aux_nodes: List[AuxNode] = []
    times = array("d")
    state_base: Dict[Node, int] = {}
    all_points: Dict[Node, Tuple[float, ...]] = {}
    for node in tveg.nodes:
        pts = d.points(node)
        state_base[node] = len(aux_nodes)
        all_points[node] = pts
        for l in range(len(pts)):
            aux_nodes.append(state_node(node, l))
            times.append(pts[l])

    # Adjacency accumulators (per-source edge lists, flattened to CSR last).
    adj_t: List[List[int]] = [[] for _ in aux_nodes]
    adj_w: List[List[float]] = [[] for _ in aux_nodes]
    for node in tveg.nodes:
        base, pts = state_base[node], all_points[node]
        for l in range(len(pts) - 1):
            adj_t[base + l].append(base + l + 1)
            adj_w[base + l].append(0.0)  # waiting edge

    # Transmission and coverage edges; one DCS sweep per node.
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = {}
    for node in tveg.nodes:
        base, pts = state_base[node], all_points[node]
        all_dcs = discrete_cost_sets(tveg, node, pts)
        for l, t in enumerate(pts):
            if t + tau > end:
                continue  # transmission could not complete by the deadline
            dcs = all_dcs[l]
            if dcs.is_empty:
                continue
            t_recv = t + tau
            # Receivers whose DTS lacks the reception point are dropped:
            # with the default trigger depth N−1 this only happens for
            # departures at maximal depth, which no circle-free journey can
            # extend — such coverage is provably useless (Section V's
            # O(N³L) bound counts receptions up to depth N−1 only).  The
            # kept ones stay in DCS entry order, so they are cost-ascending
            # and level k's coverage is a prefix of the list.
            r_costs: List[float] = []
            r_states: List[int] = []
            for c, nbr in dcs.entries:
                f = _point_index(all_points[nbr], t_recv)
                if f is not None:
                    r_costs.append(c)
                    r_states.append(state_base[nbr] + f)
            if not r_costs:
                continue
            cost_sets[(node, l)] = dcs
            for k, (w, _) in enumerate(dcs.entries):
                j = bisect_right(r_costs, w)
                if j == 0:
                    continue
                x = len(aux_nodes)
                aux_nodes.append(tx_node(node, l, k))
                times.append(t)
                adj_t.append(r_states[:j])
                adj_w.append([0.0] * j)
                adj_t[base + l].append(x)
                adj_w[base + l].append(w)

    # Flatten to CSR.
    indptr = array("l", [0])
    targets_arr = array("l")
    weights_arr = array("d")
    for ts, ws in zip(adj_t, adj_w):
        targets_arr.extend(ts)
        weights_arr.extend(ws)
        indptr.append(len(targets_arr))

    root = state_node(source, 0)
    wanted = (
        tuple(n for n in tveg.nodes if n != source)
        if targets is None
        else tuple(n for n in targets if n != source)
    )
    terminals = tuple(
        state_node(n, len(all_points[n]) - 1) for n in wanted
    )
    terminal_indices = tuple(
        state_base[n] + len(all_points[n]) - 1 for n in wanted
    )
    obs.gauge("auxgraph.nodes", len(aux_nodes))
    obs.gauge("auxgraph.edges", len(targets_arr))
    obs.gauge(
        "auxgraph.dcs_levels", sum(len(cs) for cs in cost_sets.values())
    )
    graph = CompactAuxGraph(
        indptr=indptr,
        targets=targets_arr,
        weights=weights_arr,
        aux_nodes=aux_nodes,
        times=times,
        dts=d,
        source=source,
        root=root,
        terminals=terminals,
        root_index=state_base[source],
        terminal_indices=terminal_indices,
        cost_sets=cost_sets,
        state_base=state_base,
    )
    obs.gauge("auxgraph.resident_bytes", graph.resident_bytes)
    obs.counter("auxgraph.compact_builds")
    return graph
