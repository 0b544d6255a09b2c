"""Unweighted multigraphs with stable edge identifiers.

Vertices are dense integers 0..n-1.  Edges are individual records (parallel
edges are distinct records) and keep their identifiers through contraction,
so a cut found in a contracted graph can be named in the original one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


class MultiGraph:
    """Immutable multigraph; build once, derive new graphs by contraction."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        ends: Dict[int, Tuple[int, int]] = {}
        adj: List[List[int]] = [[] for _ in range(n)]
        for eid, u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge %r has an unknown endpoint" % ((eid, u, v),))
            if u == v:
                raise ValueError("self-loop on vertex %d" % u)
            if eid in ends:
                raise ValueError("duplicate edge id %d" % eid)
            ends[eid] = (u, v)
            adj[u].append(eid)
            adj[v].append(eid)
        self._ends = ends
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._ids = tuple(sorted(ends))

    @classmethod
    def from_edge_list(cls, n: int, pairs: Iterable[Tuple[int, int]]) -> "MultiGraph":
        """Build with edge ids assigned 0,1,... in list order."""
        return cls(n, [(i, u, v) for i, (u, v) in enumerate(pairs)])

    @property
    def m(self) -> int:
        return len(self._ends)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def edge_ids(self) -> Tuple[int, ...]:
        return self._ids

    def endpoints(self, eid: int) -> Tuple[int, int]:
        return self._ends[eid]

    @property
    def pairs(self) -> Iterable[Tuple[int, int]]:
        """Endpoints of every edge, one pair per edge record."""
        return self._ends.values()

    def incident(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no minimum degree")
        return min(len(a) for a in self._adj)

    def other(self, eid: int, v: int) -> int:
        u, w = self._ends[eid]
        return w if v == u else u

    def __eq__(self, g) -> bool:
        return isinstance(g, MultiGraph) and self.n == g.n and self._ends == g._ends

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._ends.items()))))

    def __repr__(self):
        return "MultiGraph(n=%d, m=%d)" % (self.n, self.m)


@dataclass(frozen=True)
class ContractionMap:
    """Image of every pre-contraction vertex; composes left to right."""

    mapping: Tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "ContractionMap":
        return cls(tuple(range(n)))

    def apply(self, v: int) -> int:
        return self.mapping[v]

    def compose(self, later: "ContractionMap") -> "ContractionMap":
        """Map through self, then through later."""
        return ContractionMap(tuple(later.mapping[x] for x in self.mapping))


class Partition:
    """Blocks of a vertex set, normalized so iteration order is deterministic."""

    def __init__(self, blocks: Iterable[Iterable[int]]):
        bs = [frozenset(b) for b in blocks]
        if any(not b for b in bs):
            raise ValueError("empty block")
        self.blocks: Tuple[FrozenSet[int], ...] = tuple(sorted(bs, key=min))

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_index(self) -> Dict[int, int]:
        idx = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                if v in idx:
                    raise ValueError("vertex %d appears in two blocks" % v)
                idx[v] = i
        return idx

    def __eq__(self, p) -> bool:
        return isinstance(p, Partition) and self.blocks == p.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "Partition(%s)" % (sorted(sorted(b) for b in self.blocks),)


@dataclass(frozen=True)
class KCutSolution:
    """A feasible k-cut: its value, blocks, cut edge ids, and producing stage."""

    value: int
    partition: Partition
    cut_edges: FrozenSet[int]
    provenance: str


def cut_value(g: MultiGraph, partition: Partition) -> int:
    """Number of edges whose endpoints lie in different blocks."""
    idx = partition.block_index()
    if len(idx) != g.n or any(v not in idx for v in g.vertices):
        raise ValueError("partition does not cover the vertex set exactly")
    return sum(1 for u, v in g.pairs if idx[u] != idx[v])


def cut_edge_set(g: MultiGraph, partition: Partition) -> FrozenSet[int]:
    """Edge ids crossing the partition."""
    idx = partition.block_index()
    return frozenset(e for e, (u, v) in g._ends.items() if idx[u] != idx[v])


def boundary(g: MultiGraph, sets: Iterable[Iterable[int]]) -> FrozenSet[int]:
    """Edge ids with an endpoint in some S_i but not both endpoints in the same S_i."""
    where: Dict[int, int] = {}
    for i, s in enumerate(sets):
        for v in s:
            if v in where:
                raise ValueError("sets overlap at vertex %d" % v)
            if not 0 <= v < g.n:
                raise ValueError("unknown vertex %d" % v)
            where[v] = i
    out = set()
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        iu, iv = where.get(u), where.get(v)
        if (iu is not None or iv is not None) and iu != iv:
            out.add(e)
    return frozenset(out)


def is_simple(g: MultiGraph) -> bool:
    """True when no two edges share the same pair of endpoints."""
    pairs = {(u, v) if u < v else (v, u) for u, v in g._ends.values()}
    return len(pairs) == g.m


def union_find(n: int, pairs: Iterable[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    """Classes of 0..n-1 joined by the pairs, taken in order.

    Returns a label per vertex, numbering each class by the rank of its
    smallest vertex, and the indices of the pairs that joined two classes
    (Kruskal's choices when the pairs come sorted by weight).
    """
    head = list(range(n))  # head[x] <= x, with equality exactly at roots
    merged = []
    for i, (u, v) in enumerate(pairs):
        while head[u] != u:
            head[u] = head[head[u]]  # path halving
            u = head[u]
        while head[v] != v:
            head[v] = head[head[v]]
            v = head[v]
        if u != v:
            # the smaller root wins, so every root is its class's minimum
            if u < v:
                head[v] = u
            else:
                head[u] = v
            merged.append(i)
            if len(merged) == n - 1:
                break  # one class is left: no later pair joins two
    labels = [0] * n
    count = 0
    for v in range(n):
        if head[v] == v:
            labels[v] = count
            count += 1
        else:
            labels[v] = labels[head[v]]  # head[v] < v lies in v's class
    return labels, merged


def quotient(g: MultiGraph, cmap: ContractionMap) -> MultiGraph:
    """Merge every class of cmap into its image; edges inside a class vanish.

    The map must send g's vertices onto 0..c-1.  Surviving edges keep their
    identifiers and endpoint order.
    """
    image = cmap.mapping
    n = max(image) + 1 if image else 0
    if len(image) != g.n or len(set(image)) != n:
        raise ValueError("map must send the %d vertices onto 0..c-1" % g.n)
    edges = []
    for e, (u, v) in g._ends.items():
        a, b = image[u], image[v]
        if a != b:
            edges.append((e, a, b))
    return MultiGraph(n, edges)


def pull_back(partition: Partition, cmap: ContractionMap, n: int) -> Partition:
    """The partition of the n pre-contraction vertices that cmap maps onto partition."""
    idx = partition.block_index()
    blocks: Dict[int, List[int]] = {}
    for v in range(n):
        blocks.setdefault(idx[cmap.apply(v)], []).append(v)
    return Partition(blocks.values())


def induced_subgraph(g: MultiGraph, keep: Iterable[int]) -> Tuple[MultiGraph, Dict[int, int]]:
    """Subgraph on `keep`, re-indexed dense; returns the old->new vertex map."""
    kept = sorted(set(keep))
    if any(not 0 <= v < g.n for v in kept):
        raise ValueError("unknown vertex in subgraph request")
    new = {v: i for i, v in enumerate(kept)}
    edges = []
    for e in g.edge_ids:
        a, b = g.endpoints(e)
        if a in new and b in new:
            edges.append((e, new[a], new[b]))
    return MultiGraph(len(kept), edges), new


def connected_components(g: MultiGraph) -> Partition:
    """Vertex partition into connected components, the classes `union_find` labels."""
    if g.n == 0:
        raise ValueError("empty graph has no component structure")
    labels, merged = union_find(g.n, g.pairs)
    blocks: List[List[int]] = [[] for _ in range(g.n - len(merged))]
    for v, label in enumerate(labels):
        blocks[label].append(v)
    return Partition(blocks)


def min_st_cut(g: MultiGraph, s: int, t: int) -> Tuple[int, FrozenSet[int]]:
    """Minimum number of edges separating s from t, with the s-side set.

    Unit capacity per edge record, so parallel edges add up.  The flow
    starts from every direct s-t edge and, through each common neighbour
    w, min(mult(s, w), mult(w, t)) s-w-t paths; BFS augmenting paths then
    walk the incidence lists, and the side is what the last search reached.
    Its one caller is `gomory_hu`.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError("unknown endpoint for s-t cut")
    if s == t:
        raise ValueError("s and t must differ")
    ends = g._ends
    net: Dict[int, int] = {}  # units each edge carries away from its first endpoint

    def send(e, x):  # one unit along e, away from x
        net[e] = net.get(e, 0) + (1 if ends[e][0] == x else -1)

    flow = 0
    spare: Dict[int, List[int]] = {}  # s's unused edges, by far end
    for e in g.incident(s):
        w = g.other(e, s)
        if w == t:
            send(e, s)
            flow += 1
        else:
            spare.setdefault(w, []).append(e)
    for e in g.incident(t):
        w = g.other(e, t)
        if spare.get(w):
            send(spare[w].pop(), s)
            send(e, w)
            flow += 1
    while True:
        parent: Dict[int, Optional[int]] = {s: None}
        q = deque([s])
        while q and t not in parent:
            x = q.popleft()
            for e in g.incident(x):
                a, b = ends[e]
                y, away = (b, net.get(e, 0)) if a == x else (a, -net.get(e, 0))
                if away < 1 and y not in parent:
                    parent[y] = e
                    q.append(y)
        if t not in parent:
            return flow, frozenset(parent)
        y = t
        while y != s:
            x = g.other(parent[y], y)
            send(parent[y], x)
            y = x
        flow += 1


def gomory_hu(g: MultiGraph) -> Tuple[List[int], List[int]]:
    """A Gomory-Hu tree of g from Gusfield's n-1 `min_st_cut` calls, rooted at 0.

    Returns (parent, weight): vertex v > 0 hangs from parent[v] by an edge
    of weight weight[v] (both 0 at the root), and the minimum cut between
    two vertices, 0 across components, is the lightest on their tree path.
    """
    parent = [0] * g.n
    weight = [0] * g.n
    for s in range(1, g.n):
        t = parent[s]
        flow, side = min_st_cut(g, s, t)
        weight[s] = flow
        for v in side:
            if v != s and parent[v] == t:
                parent[v] = s
        # when t's parent lies on s's side, s moves in between them (never
        # at the root, which is its own parent)
        if parent[t] in side:
            parent[s], parent[t] = parent[t], s
            weight[s], weight[t] = weight[t], flow
    return parent, weight
