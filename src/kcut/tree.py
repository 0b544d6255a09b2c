"""Rooted spanning trees, precedence queries, and heavy-light decomposition.

Precedence ("u precedes v" when v lies in u's subtree) is the partial order
the cutting machinery constantly queries, so it is answered in O(1) from
preorder intervals.  All traversals are iterative; trees may be deep paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .graph import ContractionMap, MultiGraph, Partition, union_find


class RootedTree:
    """A spanning tree over vertices 0..n-1 rooted at `root`."""

    def __init__(self, n: int, root: int, edges: Iterable[Tuple[int, int, int]]):
        if not 0 <= root < n:
            raise ValueError("root %d outside vertex range" % root)
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        ids = set()
        count = 0
        for eid, u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError("bad tree edge %r" % ((eid, u, v),))
            if eid in ids:
                raise ValueError("duplicate tree edge id %d" % eid)
            ids.add(eid)
            adj[u].append((v, eid))
            adj[v].append((u, eid))
            count += 1
        if count != n - 1:
            raise ValueError("tree needs %d edges, got %d" % (n - 1, count))
        self.n = n
        self.root = root
        parent: List[Optional[int]] = [None] * n
        parent_edge: List[Optional[int]] = [None] * n
        depth = [0] * n
        children: List[Tuple[int, ...]] = [()] * n
        seen = [False] * n
        seen[root] = True
        # preorder with ascending-id child visits: a vertex's children are
        # its neighbours not yet reached when it is visited
        order: List[int] = []
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            kids = []
            for y, eid in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    parent_edge[y] = eid
                    depth[y] = depth[x] + 1
                    kids.append(y)
            if kids:
                kids.sort()
                children[x] = tuple(kids)
                stack.extend(reversed(kids))
        if len(order) != n:
            raise ValueError("edges do not connect all %d vertices" % n)
        self._parent = tuple(parent)
        self._parent_edge = tuple(parent_edge)
        self.depth = tuple(depth)
        self._children = tuple(children)
        self.order = tuple(order)
        tin = [0] * n
        for i, v in enumerate(order):
            tin[v] = i
        size = [1] * n
        for v in reversed(order):
            p = parent[v]
            if p is not None:
                size[p] += size[v]
        self._tin = tuple(tin)
        self._size = tuple(size)
        self.edge_ids: FrozenSet[int] = frozenset(ids)

    @classmethod
    def from_edge_ids(cls, g: MultiGraph, ids: Iterable[int], root: int = 0) -> "RootedTree":
        return cls(g.n, root, [(e, *g.endpoints(e)) for e in ids])

    def parent(self, v: int) -> Optional[int]:
        return self._parent[v]

    def parent_edge(self, v: int) -> Optional[int]:
        return self._parent_edge[v]

    def children(self, v: int) -> Tuple[int, ...]:
        return self._children[v]

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def subtree_size(self, v: int) -> int:
        return self._size[v]

    def precedes(self, u: int, v: int) -> bool:
        """True when v lies in u's subtree (u == v included)."""
        return self._tin[u] <= self._tin[v] < self._tin[u] + self._size[u]

    def incomparable(self, u: int, v: int) -> bool:
        return not self.precedes(u, v) and not self.precedes(v, u)

    def subtree(self, v: int) -> Tuple[int, ...]:
        """Vertices of T(v) in preorder."""
        i = self._tin[v]
        return self.order[i:i + self._size[v]]

    def edges(self) -> List[Tuple[int, int, int]]:
        """(edge id, parent, child) for every tree edge, by child preorder."""
        return [(self._parent_edge[v], self._parent[v], v)
                for v in self.order if v != self.root]

    def lower_end(self, eid: int) -> int:
        """The child endpoint of tree edge eid."""
        return self._lower_end[eid]

    @cached_property
    def _lower_end(self) -> Dict[int, int]:
        return {e: v for v, e in enumerate(self._parent_edge) if e is not None}

    def minimal_elements(self, vertices: Iterable[int]) -> FrozenSet[int]:
        """Subset whose subtrees cover the input: drop anything preceded."""
        vs = sorted(set(vertices), key=lambda v: self.depth[v])
        keep: List[int] = []
        for v in vs:
            if not any(self.precedes(u, v) for u in keep):
                keep.append(v)
        return frozenset(keep)

    def __repr__(self):
        return "RootedTree(n=%d, root=%d)" % (self.n, self.root)


def forest_labels(t: RootedTree, deleted: Iterable[int]) -> List[int]:
    """Per vertex, the top vertex of its component after deleting the given tree edges.

    One preorder walk: a vertex heads its component when its parent edge
    is deleted (or it is the root), and otherwise inherits its parent's
    label.  Labels are vertex ids, so two vertices share one exactly when
    the remaining forest connects them.
    """
    gone = set(deleted)
    if not gone <= t.edge_ids:
        raise ValueError("deletion includes a non-tree edge")
    parent, parent_edge = t._parent, t._parent_edge
    labels = list(range(t.n))
    for v in t.order:
        e = parent_edge[v]
        if e is not None and e not in gone:
            labels[v] = labels[parent[v]]
    return labels


def forest_components(t: RootedTree, deleted: Iterable[int]) -> Partition:
    """Vertex partition after deleting the given tree edges from t."""
    blocks: Dict[int, List[int]] = {}
    for v, top in enumerate(forest_labels(t, deleted)):
        blocks.setdefault(top, []).append(v)
    return Partition(blocks.values())


def tree_quotient(t: RootedTree, merge: Iterable[int]) -> Tuple[RootedTree, ContractionMap]:
    """Contract the given tree edges; the root's image roots the smaller tree.

    Vertices are renumbered by the rank of their class's smallest member,
    so the map also contracts any graph t spans, through `quotient`.
    """
    merge = set(merge)
    labels, merged = union_find(t.n, [(p, c) for eid, p, c in t.edges() if eid in merge])
    edges = [(eid, labels[p], labels[c]) for eid, p, c in t.edges() if eid not in merge]
    return RootedTree(t.n - len(merged), labels[t.root], edges), ContractionMap(tuple(labels))


@dataclass(frozen=True)
class HLD:
    """Heavy-light decomposition: tree edges partitioned into branches.

    A branch is a downward path; its top vertex is the parent of `subroot`,
    and every edge below continues through heavy children (largest subtree,
    ties to the smallest id).  Any leaf-root path meets at most
    ceil(log2 n) + 1 branches.
    """

    branch_id: Dict[int, int]
    subroot: Tuple[int, ...]

    @property
    def branch_count(self) -> int:
        return len(self.subroot)

    def branches_on_root_path(self, t: RootedTree, v: int) -> int:
        """How many distinct branches the v-to-root path touches."""
        seen = set()
        while v != t.root:
            seen.add(self.branch_id[t.parent_edge(v)])
            v = t.parent(v)
        return len(seen)


def build_hld(t: RootedTree) -> HLD:
    heavy: List[Optional[int]] = [None] * t.n
    for v in range(t.n):
        kids = t.children(v)
        if kids:
            heavy[v] = max(kids, key=lambda c: (t.subtree_size(c), -c))
    # A branch starts at every non-heavy child, and at the root's heavy
    # child (the root has no edge above for it to extend).
    heads = [v for v in t.order
             if v != t.root and (heavy[t.parent(v)] != v or t.parent(v) == t.root)]
    branch_id: Dict[int, int] = {}
    for b, head in enumerate(heads):
        branch_id[t.parent_edge(head)] = b
        x = head
        while heavy[x] is not None:
            x = heavy[x]
            branch_id[t.parent_edge(x)] = b
    return HLD(branch_id, tuple(heads))
