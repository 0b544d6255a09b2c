"""Greedy tree packing and tightness tests for candidate spanning trees.

Packing repeatedly extracts a minimum-total-load spanning tree and bumps
the load of every edge it used.  A cut of value c is crossed by an average
packed tree about c/N times, so after enough rounds some tree crosses the
optimal partition barely more than the unavoidable k-1 times.  The rounds
settle into a cycle, which is replayed once it is seen.  `packing_rounds`
yields the rounds one at a time, so a caller that is done after a few
trees packs no more; `greedy_tree_packing` takes a fixed number of them.
A packed tree is its set of edge ids; a caller that cuts one roots it
with `RootedTree.from_edge_ids`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .graph import MultiGraph, Partition, connected_components, union_find
from .tree import RootedTree


@dataclass(frozen=True)
class TreePack:
    """Each round's tree as a frozenset of edge ids, and each edge's final load."""

    trees: Tuple[FrozenSet[int], ...]
    loads: Dict[int, int]


def packing_rounds(g: MultiGraph) -> Iterator[FrozenSet[int]]:
    """Yield the greedy packing's trees, one per round, without end.

    Each round is Kruskal under the key (load, edge id), so runs are
    reproducible and ties always favor the lowest identifier.  The key
    order depends only on the loads minus their minimum: once a round
    starts from normalized loads seen before, the rounds since then repeat
    forever and are replayed.  A tree packed in several rounds is yielded
    as one shared set.  The graph is checked when the first round is drawn.
    """
    if g.n == 0 or connected_components(g).k != 1:
        raise ValueError("tree packing needs a connected graph with at least one vertex")
    ids = g.edge_ids
    ends = [g.endpoints(e) for e in ids]
    load = [0] * len(ids)  # indexed by position in ids
    trees: List[FrozenSet[int]] = []
    shared: Dict[FrozenSet[int], FrozenSet[int]] = {}  # one object per edge set
    first: Dict[Tuple[int, ...], int] = {}  # normalized loads -> first round with them
    while True:
        r = len(trees)  # this round's index
        # ids ascend, so a stable sort of positions by load orders them by (load, id)
        order = sorted(range(len(ids)), key=load.__getitem__)
        low = load[order[0]] if order else 0
        period = r - first.setdefault(tuple(x - low for x in load), r)
        if period:
            break
        _, merged = union_find(g.n, map(ends.__getitem__, order))
        picked = [order[i] for i in merged]
        for i in picked:
            load[i] += 1
        t = frozenset(ids[i] for i in picked)
        t = shared.setdefault(t, t)
        trees.append(t)
        yield t
    yield from cycle(trees[-period:])


def greedy_tree_packing(g: MultiGraph, count: int) -> TreePack:
    """The first `count` rounds of `packing_rounds(g)`, and the loads they leave."""
    if count < 1:
        raise ValueError("tree count must be positive")
    trees = tuple(islice(packing_rounds(g), count))
    loads = dict.fromkeys(g.edge_ids, 0)
    for t, times in Counter(trees).items():
        for e in t:
            loads[e] += times
    return TreePack(trees, loads)


def crossing_edges(t: RootedTree, p: Partition) -> FrozenSet[int]:
    """Tree edges whose endpoints fall in different blocks."""
    idx = p.block_index()
    return frozenset(e for e, pu, c in t.edges() if idx[pu] != idx[c])


def is_tight(t: RootedTree, p: Partition) -> bool:
    """True when the tree crosses the partition the minimum k-1 times."""
    return len(crossing_edges(t, p)) == p.k - 1
