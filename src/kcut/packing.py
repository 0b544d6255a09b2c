"""Greedy tree packing and tightness tests for candidate spanning trees.

Packing repeatedly extracts a minimum-total-load spanning tree and bumps
the load of every edge it used.  A cut of value c is crossed by an average
packed tree about c/N times, so after enough rounds some tree crosses the
optimal partition barely more than the unavoidable k-1 times.  The rounds
settle into a cycle, which is replayed once it is seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .graph import MultiGraph, Partition, connected_components, union_find
from .tree import RootedTree


@dataclass(frozen=True)
class TreePack:
    trees: Tuple[RootedTree, ...]
    loads: Dict[int, int]


def greedy_tree_packing(g: MultiGraph, count: int) -> TreePack:
    """Pack `count` spanning trees, each minimizing total load so far.

    Kruskal under the key (load, edge id), so runs are reproducible and
    ties always favor the lowest identifier.  The key order depends only
    on the loads minus their minimum: once a round starts from normalized
    loads seen before, the rounds since then repeat and are copied.  A tree
    packed in several rounds appears once per round, as one shared object.
    """
    if count < 1:
        raise ValueError("tree count must be positive")
    if g.n == 0 or connected_components(g).k != 1:
        raise ValueError("tree packing needs a connected graph with at least one vertex")
    loads = {e: 0 for e in g.edge_ids}
    ends = {e: g.endpoints(e) for e in g.edge_ids}
    trees: List[RootedTree] = []
    built: Dict[FrozenSet[int], RootedTree] = {}  # one object per edge set
    first: Dict[Tuple[int, ...], int] = {}  # normalized loads -> first round with them
    period = 0
    for r in range(count):
        if not period:
            # the ids ascend, so a stable sort by load orders them by (load, id)
            order = sorted(g.edge_ids, key=loads.__getitem__)
            low = loads[order[0]] if order else 0
            period = r - first.setdefault(tuple(x - low for x in loads.values()), r)
        if period:
            t = trees[-period]
        else:
            _, merged = union_find(g.n, map(ends.__getitem__, order))
            chosen = frozenset(order[i] for i in merged)
            t = built.get(chosen)
            if t is None:
                t = built[chosen] = RootedTree.from_edge_ids(g, chosen)
        for e in t.edge_ids:
            loads[e] += 1
        trees.append(t)
    return TreePack(tuple(trees), loads)


def crossing_edges(t: RootedTree, p: Partition) -> FrozenSet[int]:
    """Tree edges whose endpoints fall in different blocks."""
    idx = p.block_index()
    return frozenset(e for e, pu, c in t.edges() if idx[pu] != idx[c])


def is_tight(t: RootedTree, p: Partition) -> bool:
    """True when the tree crosses the partition the minimum k-1 times."""
    return len(crossing_edges(t, p)) == p.k - 1
