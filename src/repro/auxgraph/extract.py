"""Schedule extraction from auxiliary-graph Steiner trees.

A directed Steiner tree in the auxiliary graph is a set of edges connecting
the root state node to every terminal.  Each transmission node it enters
corresponds to one schedule row ``[v_i, t_{i,l}, w^k]``; waiting and coverage
edges carry no cost and no action.  Two defensive clean-ups are applied:

* duplicate transmissions of one node at one instant collapse to the highest
  cost level (whose coverage is a superset — Property 6.1(i));
* transmission nodes without any outgoing coverage edge in the tree are
  dropped (they inform nobody and only waste energy).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Set, Tuple

from ..schedule.schedule import Schedule, Transmission
from .compact import CompactAuxGraph
from .model import AuxNode, is_tx, level_of, node_of, point_index_of

__all__ = ["extract_schedule"]

Node = Hashable
Edge = Tuple[AuxNode, AuxNode]


def extract_schedule(aux: CompactAuxGraph, tree_edges: Iterable[Edge]) -> Schedule:
    """Decode a Steiner tree (edge set) into a broadcast relay schedule."""
    edges = list(tree_edges)
    used_tx: Set[AuxNode] = set()
    has_coverage: Set[AuxNode] = set()
    for u, v in edges:
        if is_tx(v):
            used_tx.add(v)
        if is_tx(u):
            has_coverage.add(u)

    # (node, point index) → best level actually used
    best_level: Dict[Tuple[Node, int], int] = {}
    for x in used_tx:
        if x not in has_coverage:
            continue  # informs nobody in the tree — drop
        key = (node_of(x), point_index_of(x))
        k = level_of(x)
        if key not in best_level or k > best_level[key]:
            best_level[key] = k

    rows = []
    for (node, l), k in best_level.items():
        dcs = aux.cost_sets[(node, l)]
        w = dcs.entries[k][0]
        rows.append(Transmission(node, aux.time_of(node, l), w))
    return Schedule(rows)
