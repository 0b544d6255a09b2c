"""Greedy tree packing and tightness tests for candidate spanning trees.

Packing repeatedly extracts a minimum-total-load spanning tree and bumps
the load of every edge it used.  A cut of value c is crossed by an average
packed tree about c/N times, so after enough rounds some tree crosses the
optimal partition barely more than the unavoidable k-1 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from .graph import MultiGraph, Partition, connected_components, union_find
from .tree import RootedTree


@dataclass(frozen=True)
class TreePack:
    trees: Tuple[RootedTree, ...]
    loads: Dict[int, int]


def greedy_tree_packing(g: MultiGraph, count: int) -> TreePack:
    """Pack `count` spanning trees, each minimizing total load so far.

    Kruskal under the key (load, edge id), so runs are reproducible and
    ties always favor the lowest identifier.  A tree packed in several
    rounds appears once per round, as one shared object.
    """
    if count < 1:
        raise ValueError("tree count must be positive")
    if g.n == 0 or connected_components(g).k != 1:
        raise ValueError("tree packing needs a connected graph with at least one vertex")
    loads = {e: 0 for e in g.edge_ids}
    trees = []
    built: Dict[FrozenSet[int], RootedTree] = {}
    for _ in range(count):
        order = sorted(g.edge_ids, key=lambda e: (loads[e], e))
        _, merged = union_find(g.n, [g.endpoints(e) for e in order])
        chosen = [order[i] for i in merged]
        for e in chosen:
            loads[e] += 1
        key = frozenset(chosen)
        if key not in built:
            built[key] = RootedTree.from_edge_ids(g, chosen, root=0)
        trees.append(built[key])
    return TreePack(tuple(trees), loads)


def crossing_edges(t: RootedTree, p: Partition) -> FrozenSet[int]:
    """Tree edges whose endpoints fall in different blocks."""
    idx = p.block_index()
    return frozenset(e for e, pu, c in t.edges() if idx[pu] != idx[c])


def is_tight(t: RootedTree, p: Partition) -> bool:
    """True when the tree crosses the partition the minimum k-1 times."""
    return len(crossing_edges(t, p)) == p.k - 1
