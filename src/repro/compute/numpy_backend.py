"""Array-native kernels for the sweep/DCS/Steiner hot path.

Three stages of the EEDCB pipeline dominate a cold plan: the per-node
timeline sweeps plus contact-cost evaluation, the DCS level construction
and auxiliary-graph build, and the greedy directed-Steiner expansion.  This
module reimplements them as batched numpy operations while reproducing the
stdlib path **byte for byte**:

* :func:`node_components` replaces the event-by-event
  :class:`~repro.temporal.sweep.NodeSweep` with per-node *contact
  component arrays* — one canonically sorted ``(cost, start, end,
  neighbor)`` row per τ-eroded adjacency component, costs taken from the
  TVEG's shared per-contact cost cache so they are the same float objects
  the point-query path produces.
* :func:`build_numpy_aux_graph` derives every auxiliary node and edge from
  those arrays with ``searchsorted`` / cumulative-sum queries instead of
  per-entry Python loops, and stores the result as a
  :class:`NumpyAuxGraph`: a *prefix-shared* layout with no per-edge array.
  By Property 6.1 a DCS level covers a prefix of the receivers the next
  level covers, so each point's receivers are stored once and every
  transmission node's row is a view into that list.  Node ids, row order,
  and weights are exactly those of
  :func:`~repro.auxgraph.compact.build_compact_aux_graph` (whose module
  docstring explains why that order is part of the contract); node
  tuples, cost sets, and the eager CSR are decoded only on access.
* :func:`greedy_incremental_dst_numpy` runs the same incremental
  multi-source Dijkstra as
  :func:`~repro.steiner.dst.greedy_incremental_dst` but decodes each
  settled row straight from the shared layout with one bulk ``tolist``
  call and relaxes over native ints and floats.  The heap receives the
  same (distance, node) multiset, so the pop sequence — and with it the
  ``expansions`` counter — is identical.

Byte-identity has one precondition: the distance provider must certify
``constant_within_contacts`` (the standard trace pipeline does), because
the component arrays evaluate each contact's cost once at its start.
:func:`build_numpy_aux_graph` delegates to the stdlib builder otherwise.

Nothing here imports at package-import time — ``import numpy`` happens
only when a numpy kernel is actually requested, keeping the stdlib path
self-sufficient.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Mapping
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..auxgraph.compact import CompactAuxGraph, build_compact_aux_graph
from ..auxgraph.model import AuxNode, state_node, tx_node
from ..dts.dts import DiscreteTimeSet, build_dts
from ..errors import GraphModelError, InfeasibleError
from ..steiner.dst import greedy_incremental_dst
from ..tveg.costsets import DiscreteCostSet
from ..tveg.graph import TVEG

__all__ = [
    "node_components",
    "NumpyAuxGraph",
    "build_numpy_aux_graph",
    "greedy_incremental_dst_numpy",
    "round_down_many",
    "level_index_many",
]

Node = Hashable
Edge = Tuple[AuxNode, AuxNode]


class NodeComponents:
    """One node's contact components in canonical DCS order.

    Rows are the τ-eroded adjacency components of every incident edge,
    sorted by ``(cost, repr(neighbor))`` — the exact
    :func:`~repro.tveg.costsets._sorted_entries` key.  At any instant at
    most one component per neighbor is active (interval sets are
    normalized), and distinct neighbors have distinct ``repr``, so the
    *active subset* of this canonical order is precisely the entry order
    of the stdlib-built :class:`~repro.tveg.costsets.DiscreteCostSet`.
    """

    __slots__ = ("costs", "starts", "ends", "neighbors", "hi")

    def __init__(self, costs, starts, ends, neighbors, hi):
        self.costs = costs          #: (C,) float64, ascending
        self.starts = starts        #: (C,) float64 component starts
        self.ends = ends            #: (C,) float64 component ends
        self.neighbors = neighbors  #: list of C neighbor labels
        #: (C,) int64 — per row ``j``, the count of canonical rows with
        #: cost ≤ ``costs[j]`` (``bisect_right`` of each cost in the cost
        #: array); the DCS ``round_down`` boundary used for coverage counts
        self.hi = hi

    def __len__(self) -> int:
        return len(self.neighbors)


def node_components(tveg: TVEG, node: Node) -> NodeComponents:
    """The node's canonical contact-component arrays (cached on the TVEG).

    Costs are evaluated once per component at its start instant through
    :meth:`~repro.tveg.graph.TVEG.contact_cost`, which shares the TVEG's
    per-contact cost cache with the sweep and point-query paths — so every
    cost here is bit-for-bit the float the stdlib path computes.  Requires
    ``tveg.cost_cacheable`` (checked by the caller); components with a
    non-finite cost are dropped, matching the stdlib entry filter.
    """
    cache = tveg.compute_cache()
    key = ("components", node)
    hit = cache.get(key)
    if hit is not None:
        return hit
    tvg = tveg.tvg
    raw: List[Tuple[float, str, float, float, Node]] = []
    for other in tvg.incident(node):
        for s, e in tvg.adjacency_set(node, other).pairs:
            # Erosion preserves component starts, so ``s`` is also the
            # presence-interval start — the shared cost-cache key.
            c = tveg.contact_cost(node, other, s, s)
            if math.isfinite(c):
                raw.append((c, repr(other), s, e, other))
    raw.sort(key=lambda item: (item[0], item[1]))
    costs = np.array([r[0] for r in raw], dtype=np.float64)
    comp = NodeComponents(
        costs=costs,
        starts=np.array([r[2] for r in raw], dtype=np.float64),
        ends=np.array([r[3] for r in raw], dtype=np.float64),
        neighbors=[r[4] for r in raw],
        hi=np.searchsorted(costs, costs, side="right").astype(np.int64),
    )
    cache[key] = comp
    return comp


def _cat(parts: List["np.ndarray"], dtype) -> "np.ndarray":
    """``np.concatenate`` that also accepts an empty part list."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _state_id(state_base, dts, node: Node, l: int) -> Optional[int]:
    """State id of ``(node, l)``, or None when there is no such state."""
    base = state_base.get(node)
    if base is None or not 0 <= l < len(dts.points(node)):
        return None
    return base + l


class LazyAuxNodes(Sequence):
    """The auxiliary node-id → tuple mapping, decoded on demand.

    Creating millions of ``("tx", node, l, k)`` tuples eagerly would cost
    more than the rest of the build combined, and the Steiner solver only
    decodes the handful of ids that end up on tree edges.  Both node kinds
    are recovered from the layout by binary search: a state id from the
    per-label first state ids, a transmission id from the non-decreasing
    per-state first transmission ids (its level is the state's first kept
    level plus the offset into the state's id range).
    """

    __slots__ = ("_labels", "_node_base", "_st_first", "_st_k0", "_n")

    def __init__(self, labels, node_base, st_first, st_k0, n: int):
        self._labels = labels
        self._node_base = node_base.tolist()  # one entry per label
        self._st_first = st_first
        self._st_k0 = st_k0
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        if i < len(self._st_first):
            return state_node(*self.state_of(i))
        u = int(self._st_first.searchsorted(i, side="right")) - 1
        node, l = self.state_of(u)
        return tx_node(
            node, l, int(self._st_k0[u]) + i - int(self._st_first[u])
        )

    def state_of(self, u: int) -> Tuple[Node, int]:
        """``(label, point index)`` of state id ``u``."""
        ni = bisect_right(self._node_base, u) - 1
        return self._labels[ni], u - self._node_base[ni]


class LazyCostSets(Mapping):
    """``(node, point) → DiscreteCostSet`` of every point that emitted a
    transmission node, built (and memoized) on first access.

    Schedule extraction and ``tree_cost`` read only the points on the
    Steiner tree, so the builder keeps each node's component arrays and
    their active point ranges ``[a, b)`` instead of one DCS object per
    point.  The entries at point ``l`` are the components with
    ``a <= l < b`` in canonical order — the same tuple the stdlib sweep
    produces.
    """

    def __init__(self, nodes: LazyAuxNodes, state_base, dts, st_cnt, spans):
        self._nodes = nodes
        self._state_base = state_base
        self._dts = dts
        self._st_cnt = st_cnt
        #: label → ``(NodeComponents, a, b)``
        self._spans = spans
        self._memo: Dict[Tuple[Node, int], DiscreteCostSet] = {}

    def __getitem__(self, key) -> DiscreteCostSet:
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KeyError(key)
        node, l = key
        u = _state_id(self._state_base, self._dts, node, l)
        if u is None or not self._st_cnt[u]:
            raise KeyError(key)
        comp, a, b = self._spans[node]
        js = np.flatnonzero((a <= l) & (l < b)).tolist()
        dcs = self._memo[key] = DiscreteCostSet(
            node=node,
            time=self._dts.points(node)[l],
            entries=tuple((float(comp.costs[j]), comp.neighbors[j])
                          for j in js),
        )
        return dcs

    def __iter__(self):
        for u in np.flatnonzero(self._st_cnt).tolist():
            yield self._nodes.state_of(u)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._st_cnt))


class NumpyAuxGraph(CompactAuxGraph):
    """The Section VI-A auxiliary graph in prefix-shared form.

    Node ids, per-row edge order, and weights are exactly those of
    :func:`~repro.auxgraph.compact.build_compact_aux_graph`, but no
    per-edge array is stored.  Ids are state nodes ``0..S-1`` (label-major,
    point-minor), then transmission nodes ``S..S+T-1`` (label-major,
    point-major, level-minor), so the transmission nodes of one state are
    one consecutive id range.  Rows are recovered from that:

    * state ``u``: the waiting edge ``u → u+1`` (weight 0.0) when
      ``st_wait[u]``, then ``st_first[u] .. st_first[u]+st_cnt[u]-1`` with
      weights ``tx_w[id - S]``;
    * transmission ``S + j``: ``recv[tx_off[j] : tx_off[j]+tx_cnt[j]]``,
      all weight 0.0.  By Property 6.1 a level covers a prefix of the next
      level's receivers, so every level of a point is a view into the
      point's one receiver list in ``recv``.

    ``indptr`` / ``targets`` / ``weights`` / ``times`` expand the eager CSR
    on first access and cache it (shared with every :meth:`retarget`
    copy); only oracles and tests read them.  Not a dataclass: its fields
    are the layout arrays above, and the inherited CSR fields are lazy.
    """

    def __init__(self, *, recv, tx_off, tx_cnt, tx_w, st_first, st_cnt,
                 st_k0, st_wait, node_base, labels, spans, num_edges,
                 dcs_levels, dts, source, root, terminals, root_index,
                 terminal_indices, state_base):
        self.recv = recv            #: (R,) receiver state ids per point
        self.tx_off = tx_off        #: (T,) row start in ``recv``
        self.tx_cnt = tx_cnt        #: (T,) row length
        self.tx_w = tx_w            #: (T,) weight of the edge into it
        self.st_first = st_first    #: (S,) first transmission id
        self.st_cnt = st_cnt        #: (S,) transmission node count
        self.st_k0 = st_k0          #: (S,) DCS level of the first one
        self.st_wait = st_wait      #: (S,) bool: has a waiting edge
        self.node_base = node_base  #: (V,) first state id per label
        self.labels = labels
        self._num_edges = num_edges
        self._dcs_levels = dcs_levels
        self.dts = dts
        self.source = source
        self.root = root
        self.terminals = terminals
        self.root_index = root_index
        self.terminal_indices = terminal_indices
        self.state_base = state_base
        self.aux_nodes = LazyAuxNodes(
            labels, node_base, st_first, st_k0,
            len(st_first) + len(tx_off),
        )
        self.cost_sets = LazyCostSets(
            self.aux_nodes, state_base, dts, st_cnt, spans
        )
        #: the expanded CSR, filled on first legacy access
        self._csr: Dict[str, "np.ndarray"] = {}

    # -- sizes ---------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def dcs_levels(self) -> int:
        return self._dcs_levels

    @property
    def resident_bytes(self) -> int:
        return sum(
            a.nbytes for a in (
                self.recv, self.tx_off, self.tx_cnt, self.tx_w,
                self.st_first, self.st_cnt, self.st_k0, self.st_wait,
                self.node_base,
            )
        )

    # -- id arithmetic -------------------------------------------------
    def index_of(self, aux: AuxNode) -> int:
        shape = (aux[0], len(aux)) if isinstance(aux, tuple) and aux else None
        if shape in (("state", 3), ("tx", 4)):
            u = _state_id(self.state_base, self.dts, aux[1], aux[2])
            if u is not None:
                if shape[0] == "state":
                    return u
                k = aux[3] - int(self.st_k0[u])
                if 0 <= k < int(self.st_cnt[u]):
                    return int(self.st_first[u]) + k
        raise KeyError(aux)

    def out_edges(self, i: int) -> Tuple[Tuple[int, float], ...]:
        S = len(self.st_first)
        if i >= S:
            lo = int(self.tx_off[i - S])
            hi = lo + int(self.tx_cnt[i - S])
            return tuple((v, 0.0) for v in self.recv[lo:hi].tolist())
        row = [(i + 1, 0.0)] if self.st_wait[i] else []
        f, c = int(self.st_first[i]), int(self.st_cnt[i])
        row.extend(zip(range(f, f + c), self.tx_w[f - S:f - S + c].tolist()))
        return tuple(row)

    def edge_weight(self, u: AuxNode, v: AuxNode) -> float:
        vi = self.index_of(v)
        for t, w in self.out_edges(self.index_of(u)):
            if t == vi:
                return w
        raise GraphModelError(f"no auxiliary edge {u!r} → {v!r}")

    def tree_cost(self, edges) -> float:
        """Summed edge weights without per-edge id recovery.

        Only state → transmission edges carry weight, and that weight is
        by construction the cost level the transmission node's ``(l, k)``
        indexes in the owner's cost set — the same float
        ``edge_weight`` would return.  Adding 0.0 for the waiting and
        coverage edges is exact, so skipping them reproduces the
        generic path's :func:`math.fsum` bit for bit; fsum's exact
        rounding also makes the result independent of the set's
        hash-seed-dependent iteration order.
        """
        cost_sets = self.cost_sets
        weights = [
            cost_sets[(v[1], v[2])].entries[v[3]][0]
            for _u, v in edges
            if v[0] == "tx"
        ]
        return float(math.fsum(weights))

    # -- the eager CSR, for legacy readers -----------------------------
    def _expanded(self, name: str) -> "np.ndarray":
        csr = self._csr
        if not csr:
            S, T = len(self.st_first), len(self.tx_off)
            wait = self.st_wait.astype(np.int64)
            counts = np.concatenate([wait + self.st_cnt, self.tx_cnt])
            indptr = np.zeros(S + T + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            # State rows: the waiting edge, then the state's transmission
            # ids — which, concatenated over states, are S..S+T-1.
            targets = np.empty(int(indptr[-1]), dtype=np.int64)
            weights = np.zeros(len(targets))
            waiters = np.flatnonzero(self.st_wait)
            targets[indptr[waiters]] = waiters + 1
            parent = np.repeat(np.arange(S, dtype=np.int64), self.st_cnt)
            slot = (indptr[parent] + wait[parent]
                    + np.arange(T) + S - self.st_first[parent])
            targets[slot] = S + np.arange(T, dtype=np.int64)
            weights[slot] = self.tx_w
            # Transmission rows: prefixes of the shared receiver lists.
            excl = indptr[S:-1] - indptr[S]
            pos = np.arange(len(targets) - indptr[S]) - np.repeat(
                excl, self.tx_cnt
            )
            targets[indptr[S]:] = self.recv[
                np.repeat(self.tx_off, self.tx_cnt) + pos
            ]
            state_times = _cat(
                [np.asarray(self.dts.points(n), dtype=np.float64)
                 for n in self.labels],
                np.float64,
            )
            csr.update(
                indptr=indptr, targets=targets, weights=weights,
                times=np.concatenate([state_times, state_times[parent]]),
            )
        return csr[name]

    indptr = property(lambda self: self._expanded("indptr"))
    targets = property(lambda self: self._expanded("targets"))
    weights = property(lambda self: self._expanded("weights"))
    times = property(lambda self: self._expanded("times"))


@obs.span("auxgraph.numpy_build")
def build_numpy_aux_graph(
    tveg: TVEG,
    source: Node,
    deadline: Optional[float] = None,
    dts: Optional[DiscreteTimeSet] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> CompactAuxGraph:
    """Build the Section VI-A auxiliary graph with batched array ops.

    Produces a :class:`NumpyAuxGraph` whose node numbering, row edge
    order, weights, and ``cost_sets`` are identical to
    :func:`~repro.auxgraph.compact.build_compact_aux_graph`'s — verified
    element-for-element by the compute-parity suite.  When the TVEG cannot
    certify per-contact-constant costs the stdlib builder is used instead
    (the batched cost evaluation could not guarantee bit-identity there).
    """
    if not tveg.cost_cacheable:
        return build_compact_aux_graph(tveg, source, deadline, dts,
                                       targets=targets)
    if not tveg.tvg.has_node(source):
        raise GraphModelError(f"unknown source {source!r}")
    if targets is not None:
        unknown = [t for t in targets if not tveg.tvg.has_node(t)]
        if unknown:
            raise GraphModelError(f"unknown targets {unknown!r}")
    end = tveg.horizon if deadline is None else min(tveg.horizon, deadline)
    d = dts if dts is not None else build_dts(tveg.tvg, end)
    tau = tveg.tau

    labels = list(tveg.nodes)
    pts_of: Dict[Node, np.ndarray] = {}
    state_base: Dict[Node, int] = {}
    S = 0
    for node in labels:
        pts_of[node] = np.asarray(d.points(node), dtype=np.float64)
        state_base[node] = S
        S += len(pts_of[node])

    st_cnt_parts: List[np.ndarray] = []
    st_k0_parts: List[np.ndarray] = []
    st_wait_parts: List[np.ndarray] = []
    recv_parts: List[np.ndarray] = []
    tx_off_parts: List[np.ndarray] = []
    tx_cnt_parts: List[np.ndarray] = []
    tx_w_parts: List[np.ndarray] = []
    spans: Dict[Node, Tuple[NodeComponents, np.ndarray, np.ndarray]] = {}
    recv_total = 0
    num_edges = 0
    dcs_level_total = 0

    for node in labels:
        pts = pts_of[node]
        P = len(pts)
        comp = node_components(tveg, node)
        C = len(comp)
        st_wait_parts.append(np.arange(P) < P - 1)
        num_edges += max(P - 1, 0)  # waiting edges

        a = np.searchsorted(pts, comp.starts, side="left")
        b = np.searchsorted(pts, comp.ends, side="left")
        # Active cells of this node, sparsely: component j is adjacent at
        # point l  ⇔  a[j] <= l < b[j], so each component contributes one
        # contiguous run of points.  Everything below works on the ~8 % of
        # (point, component) cells that are actually active instead of
        # cumsum/mask passes over the dense matrix.
        lens = np.maximum(b - a, 0)
        tot = int(lens.sum())

        if tot == 0 or P == 0:
            st_cnt_parts.append(np.zeros(P, dtype=np.int64))
            st_k0_parts.append(np.zeros(P, dtype=np.int64))
            continue
        spans[node] = (comp, a, b)

        # Cells in component-major order: j_rep[i], l_rep[i] enumerate
        # each component's run of active points.
        j_rep = np.repeat(np.arange(C, dtype=np.int64), lens)
        run_off = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lens)]
        )
        l_rep = (
            np.arange(tot, dtype=np.int64)
            - np.repeat(run_off[:-1], lens)
            + np.repeat(a, lens)
        )

        # Reception state id and validity per active cell: the neighbor's
        # state at exactly t + tau, invalid when its DTS lacks that point
        # (the provably-useless coverage the stdlib builder drops too).
        # Exact float equality, matching auxgraph.compact._point_index.
        ok_parts: List[np.ndarray] = []
        rs_parts: List[np.ndarray] = []
        for j in range(C):
            lo, hi = int(a[j]), int(b[j])
            if hi <= lo:
                continue
            npts = pts_of[comp.neighbors[j]]
            t_recv = pts[lo:hi] + tau
            f = np.searchsorted(npts, t_recv, side="left")
            ok = f < len(npts)
            f_safe = np.where(ok, f, 0)
            ok &= npts[f_safe] == t_recv
            ok_parts.append(ok)
            rs_parts.append(state_base[comp.neighbors[j]] + f_safe)

        # Point-major, canonical-minor cell order — the stdlib creation
        # order.  A stable sort on l alone suffices: within a point, the
        # component-major order already lists canonical indices ascending.
        perm = np.argsort(l_rep, kind="stable")
        l_s = l_rep[perm]
        j_s = j_rep[perm]
        ok_s = np.concatenate(ok_parts)[perm]
        rs_s = np.concatenate(rs_parts)[perm]

        # cnt for cell (l, j) = |{valid receivers at l with canonical
        # index < hi[j]}| — the stdlib ``bisect_right(r_costs, w)``.  With
        # cells flattened to strictly increasing keys l·(C+1)+j, each
        # per-point prefix count is a searchsorted range query against the
        # valid subsequence (``hi >= 1`` always, so ``<= hi - 1``).
        vkey = (l_s * (C + 1) + j_s)[ok_s]
        row_key = l_s * (C + 1)
        vlo = np.searchsorted(vkey, row_key, side="left")
        cnt_s = (
            np.searchsorted(vkey, row_key + comp.hi[j_s] - 1, side="right")
            - vlo
        )

        # A transmission at pts[l] must complete by the deadline.
        can_tx = (pts + tau) <= end
        keep = cnt_s > 0 if can_tx.all() else (cnt_s > 0) & can_tx[l_s]

        # Transmission nodes, point-major and level-minor.  ``cnt`` never
        # decreases along a point's cells (``hi`` grows with the canonical
        # index), so a point's kept levels are a suffix of its DCS: the
        # first kept level is the active count minus the kept count.
        tx_cnt = cnt_s[keep]
        active = np.bincount(l_s, minlength=P)
        st_cnt = np.bincount(l_s[keep], minlength=P)
        st_cnt_parts.append(st_cnt)
        st_k0_parts.append(active - st_cnt)
        dcs_level_total += int(active[st_cnt > 0].sum())

        # Each point's valid receivers, stored once in canonical (DCS
        # entry) order: ``vlo`` marks the point's start in the valid
        # subsequence, and a level's coverage is its first ``cnt``.
        recv_parts.append(rs_s[ok_s])
        tx_off_parts.append(recv_total + vlo[keep])
        tx_cnt_parts.append(tx_cnt)
        tx_w_parts.append(comp.costs[j_s[keep]])
        recv_total += int(ok_s.sum())
        num_edges += len(tx_cnt) + int(tx_cnt.sum())

    st_cnt = _cat(st_cnt_parts, np.int64)
    st_first = np.zeros(len(st_cnt), dtype=np.int64)
    np.cumsum(st_cnt[:-1], out=st_first[1:])
    st_first += S

    wanted = (
        tuple(n for n in labels if n != source)
        if targets is None
        else tuple(n for n in targets if n != source)
    )
    last = {n: state_base[n] + len(pts_of[n]) - 1 for n in labels}
    graph = NumpyAuxGraph(
        recv=_cat(recv_parts, np.int64),
        tx_off=_cat(tx_off_parts, np.int64),
        tx_cnt=_cat(tx_cnt_parts, np.int64),
        tx_w=_cat(tx_w_parts, np.float64),
        st_first=st_first,
        st_cnt=st_cnt,
        st_k0=_cat(st_k0_parts, np.int64),
        st_wait=_cat(st_wait_parts, np.bool_),
        node_base=np.array([state_base[n] for n in labels], dtype=np.int64),
        labels=labels,
        spans=spans,
        num_edges=num_edges,
        dcs_levels=dcs_level_total,
        dts=d,
        source=source,
        root=state_node(source, 0),
        terminals=tuple(
            state_node(n, last[n] - state_base[n]) for n in wanted
        ),
        root_index=state_base[source],
        terminal_indices=tuple(last[n] for n in wanted),
        state_base=state_base,
    )
    obs.gauge("auxgraph.nodes", graph.num_nodes)
    obs.gauge("auxgraph.edges", graph.num_edges)
    obs.gauge("auxgraph.dcs_levels", dcs_level_total)
    obs.gauge("auxgraph.resident_bytes", graph.resident_bytes)
    obs.counter("auxgraph.numpy_builds")
    return graph


def greedy_incremental_dst_numpy(
    graph: CompactAuxGraph,
    root: AuxNode,
    terminals: Sequence[AuxNode],
    stats: Optional[Dict[str, int]] = None,
) -> Set[Edge]:
    """The incremental multi-source Dijkstra over the prefix-shared layout.

    Identical search to :func:`~repro.steiner.dst.greedy_incremental_dst`
    on the equivalent :class:`~repro.auxgraph.compact.CompactAuxGraph` —
    same pop sequence, same ``expansions`` / ``grafts`` counters, same
    tree.  Each settled row is decoded straight from the
    :class:`NumpyAuxGraph` layout (a state's waiting edge and transmission
    id range; a transmission node's slice of the shared receiver list)
    with one bulk ``tolist`` call, and relaxed over native ints and
    floats.  Row order, float arithmetic, improvement checks, and heap
    pushes are element-for-element those of the stdlib solver — a 0.0
    edge weight adds exactly nothing, so ``d + 0.0`` is written ``d`` —
    hence the heap multiset, and with it the pop order, matches bit for
    bit.  Any other graph form runs the stdlib solver.

    The tree edges are decoded to tuple form at insertion, in graft order —
    downstream set-iteration order is part of the parity contract, so the
    result set must be built exactly the way the stdlib solver builds its
    own (same elements *and* same insertion history).
    """
    if not isinstance(graph, NumpyAuxGraph):
        return greedy_incremental_dst(graph, root, terminals, stats=stats)
    nodes = graph.aux_nodes
    root_i = (
        graph.root_index if root == graph.root else graph.index_of(root)
    )
    if tuple(terminals) == graph.terminals:
        uncovered = set(graph.terminal_indices)
    else:
        uncovered = {graph.index_of(t) for t in terminals if t != root}
    uncovered.discard(root_i)

    S = len(graph.st_first)
    st_wait = graph.st_wait.tolist()
    st_first = graph.st_first.tolist()
    st_cnt = graph.st_cnt.tolist()
    tx_w, tx_off, tx_cnt, recv = (
        graph.tx_w, graph.tx_off, graph.tx_cnt, graph.recv
    )

    n = len(nodes)
    INF = float("inf")
    dist = [INF] * n
    pred = [-1] * n
    in_tree = bytearray(n)
    tree_edges: Set[Edge] = set()

    heap: List[Tuple[float, int]] = []
    expansions = 0
    grafts = 0

    def enter_tree(i: int, parent: int) -> None:
        if in_tree[i]:
            return
        in_tree[i] = 1
        if parent >= 0:
            tree_edges.add((nodes[parent], nodes[i]))
        dist[i] = 0.0
        heapq.heappush(heap, (0.0, i))
        uncovered.discard(i)

    enter_tree(int(root_i), -1)

    heappop = heapq.heappop
    heappush = heapq.heappush
    while uncovered:
        target = -1
        while heap:
            dd, u = heappop(heap)
            if dd > dist[u]:
                continue  # stale entry
            expansions += 1
            if u in uncovered:
                target = u
                break
            if u >= S:  # transmission node: 0-weight coverage edges
                lo = int(tx_off[u - S])
                for v in recv[lo:lo + int(tx_cnt[u - S])].tolist():
                    if dd < dist[v]:
                        dist[v] = dd
                        pred[v] = u
                        heappush(heap, (dd, v))
                continue
            if st_wait[u] and dd < dist[u + 1]:
                dist[u + 1] = dd
                pred[u + 1] = u
                heappush(heap, (dd, u + 1))
            f = st_first[u]
            j = f - S
            for v, w in zip(range(f, f + st_cnt[u]),
                            tx_w[j:j + st_cnt[u]].tolist()):
                nd = dd + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heappush(heap, (nd, v))
        if target < 0:
            first = nodes[next(iter(uncovered))]
            raise InfeasibleError(
                f"{len(uncovered)} terminal(s) unreachable from the tree "
                f"(first: {first!r})"
            )
        chain: List[int] = []
        v = int(target)
        while v >= 0 and not in_tree[v]:
            chain.append(v)
            v = pred[v]
        for i in reversed(chain):
            enter_tree(i, pred[i])
        grafts += 1
    if stats is not None:
        stats["expansions"] = stats.get("expansions", 0) + expansions
        stats["grafts"] = stats.get("grafts", 0) + grafts
    obs.counter("steiner.expansions", expansions)
    obs.counter("steiner.grafts", grafts)
    return tree_edges


# ----------------------------------------------------------------------
# batched DCS queries (searchsorted over per-set level arrays)
# ----------------------------------------------------------------------

def _level_array(dcs: DiscreteCostSet) -> "np.ndarray":
    """The cost-level array of one DCS, cached on the instance."""
    arr = dcs.__dict__.get("_level_array")
    if arr is None:
        arr = np.asarray(dcs.costs, dtype=np.float64)
        # frozen dataclass: cache through __dict__, never mutate fields
        dcs.__dict__["_level_array"] = arr
    return arr


def round_down_many(dcs: DiscreteCostSet, ws: Sequence[float]) -> List[float]:
    """``[dcs.round_down(w) for w in ws]`` as one ``searchsorted`` query."""
    from ..errors import ScheduleError

    levels = _level_array(dcs)
    qs = np.asarray(list(ws), dtype=np.float64)
    idx = np.searchsorted(levels, qs, side="right")
    if len(qs) and int(idx.min()) == 0:
        w = float(qs[int(np.argmin(idx))])
        raise ScheduleError(
            f"cost {w!r} is below the smallest DCS level of node "
            f"{dcs.node!r} at t={dcs.time!r}"
        )
    return [dcs.entries[i - 1][0] for i in idx.tolist()]


def level_index_many(dcs: DiscreteCostSet, ws: Sequence[float]) -> List[int]:
    """``[dcs.level_index(w) for w in ws]`` as one ``searchsorted`` query."""
    from ..errors import ScheduleError

    levels = _level_array(dcs)
    qs = np.asarray(list(ws), dtype=np.float64)
    idx = np.searchsorted(levels, qs, side="left")
    out: List[int] = []
    for w, k in zip(qs.tolist(), idx.tolist()):
        if k >= len(levels) or levels[k] != w:
            raise ScheduleError(
                f"{w!r} is not a DCS level of node {dcs.node!r}"
            )
        out.append(k)
    return out
