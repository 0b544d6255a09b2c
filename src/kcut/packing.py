"""Greedy tree packing and tightness tests for candidate spanning trees.

Packing repeatedly extracts a minimum-total-load spanning tree and bumps
the load of every edge it used.  A cut of value c is crossed by an average
packed tree about c/N times, so after enough rounds some tree crosses the
optimal partition barely more than the unavoidable k-1 times.  The rounds
settle into a cycle, which is replayed once it is seen.  A packed tree is
its set of edge ids; a caller that cuts one roots it with
`RootedTree.from_edge_ids`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .graph import MultiGraph, Partition, connected_components, union_find
from .tree import RootedTree


@dataclass(frozen=True)
class TreePack:
    """Each round's tree as a frozenset of edge ids, and each edge's final load."""

    trees: Tuple[FrozenSet[int], ...]
    loads: Dict[int, int]


def greedy_tree_packing(g: MultiGraph, count: int) -> TreePack:
    """Pack `count` spanning trees, each minimizing total load so far.

    Kruskal under the key (load, edge id), so runs are reproducible and
    ties always favor the lowest identifier.  The key order depends only
    on the loads minus their minimum: once a round starts from normalized
    loads seen before, the rounds since then repeat and are copied.  A tree
    packed in several rounds appears once per round, as one shared set.
    """
    if count < 1:
        raise ValueError("tree count must be positive")
    if g.n == 0 or connected_components(g).k != 1:
        raise ValueError("tree packing needs a connected graph with at least one vertex")
    ids = g.edge_ids
    ends = [g.endpoints(e) for e in ids]
    load = [0] * len(ids)  # indexed by position in ids
    trees: List[FrozenSet[int]] = []
    rounds: List[List[int]] = []  # each round's tree as positions in ids
    shared: Dict[FrozenSet[int], FrozenSet[int]] = {}  # one object per edge set
    first: Dict[Tuple[int, ...], int] = {}  # normalized loads -> first round with them
    period = 0
    for r in range(count):
        if not period:
            # ids ascend, so a stable sort of positions by load orders them by (load, id)
            order = sorted(range(len(ids)), key=load.__getitem__)
            low = load[order[0]] if order else 0
            period = r - first.setdefault(tuple(x - low for x in load), r)
        if period:
            picked, t = rounds[-period], trees[-period]
        else:
            _, merged = union_find(g.n, map(ends.__getitem__, order))
            picked = [order[i] for i in merged]
            t = frozenset(ids[i] for i in picked)
            t = shared.setdefault(t, t)
        for i in picked:
            load[i] += 1
        rounds.append(picked)
        trees.append(t)
    return TreePack(tuple(trees), dict(zip(ids, load)))


def crossing_edges(t: RootedTree, p: Partition) -> FrozenSet[int]:
    """Tree edges whose endpoints fall in different blocks."""
    idx = p.block_index()
    return frozenset(e for e, pu, c in t.edges() if idx[pu] != idx[c])


def is_tight(t: RootedTree, p: Partition) -> bool:
    """True when the tree crosses the partition the minimum k-1 times."""
    return len(crossing_edges(t, p)) == p.k - 1
