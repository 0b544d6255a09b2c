"""Small graph constructions shared across the test modules."""

import random
from collections import deque

from kcut.graph import KCutSolution, MultiGraph, Partition, cut_edge_set
from kcut.tree import RootedTree


def from_pairs(n, pairs):
    return MultiGraph.from_edge_list(n, pairs)


def path_graph(n):
    return from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n):
    """Center 0 joined to 1..n-1."""
    return from_pairs(n, [(0, i) for i in range(1, n)])


def clique_on_a_cycle():
    """K8 on 0..7 whose vertex 7 also lies on a 21-cycle through 8..27."""
    ring = [7] + list(range(8, 28))
    return from_pairs(28, list(complete_graph(8).pairs)
                      + [(ring[i], ring[(i + 1) % 21]) for i in range(21)])


def bfs_spanning(g, root=0):
    """Breadth-first spanning tree, lowest edge id wins at each vertex."""
    seen = [False] * g.n
    seen[root] = True
    q = deque([root])
    edges = []
    while q:
        x = q.popleft()
        for eid in g.incident(x):
            y = g.other(eid, x)
            if not seen[y]:
                seen[y] = True
                edges.append((eid, x, y))
                q.append(y)
    return RootedTree(g.n, root, edges)


def random_simple_graph(rng: random.Random, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_pairs(n, pairs)


def random_connected_graph(rng: random.Random, n, extra):
    """Random spanning tree plus `extra` distinct chords."""
    pairs = []
    for v in range(1, n):
        pairs.append((rng.randrange(v), v))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)
            if (i, j) not in pairs and (j, i) not in pairs]
    rng.shuffle(pool)
    pairs.extend(pool[:extra])
    return from_pairs(n, pairs)


def random_multigraph(rng: random.Random, n, m):
    """n vertices, m edges sampled with replacement (parallels likely)."""
    pairs = []
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    return from_pairs(n, pairs)


def _partitions_exactly_k(n, k):
    """Restricted-growth strings with exactly k distinct labels, in lexicographic order."""
    labels = [0] * n

    def rec(i, used):
        if used + (n - i) < k:
            return
        if i == n:
            if used == k:
                yield tuple(labels)
            return
        top = used + 1 if used < k else used
        for c in range(top):
            labels[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def reference_min_kcut(g, k):
    """Exact minimum k-cut by scanning every k-block partition in full.

    Keeps the first partition of least value in restricted-growth order,
    replacing the best only on a strictly smaller value.
    """
    ends = [g.endpoints(e) for e in g.edge_ids]
    best_value, best_labels = None, None
    for labels in _partitions_exactly_k(g.n, k):
        value = sum(1 for u, v in ends if labels[u] != labels[v])
        if best_value is None or value < best_value:
            best_value, best_labels = value, labels
    blocks = [[v for v in range(g.n) if best_labels[v] == c] for c in range(k)]
    p = Partition(blocks)
    return KCutSolution(best_value, p, cut_edge_set(g, p), "oracle")


def reference_tree_packing(g, count):
    """Greedy packing by a plain Kruskal under the key (load, edge id) every round.

    Returns the edge id set of each round's tree, in round order, and the
    final load of every edge.
    """
    loads = {e: 0 for e in g.edge_ids}
    trees = []
    for _ in range(count):
        head = list(range(g.n))

        def find(x):
            while head[x] != x:
                x = head[x]
            return x

        chosen = set()
        for e in sorted(g.edge_ids, key=lambda e: (loads[e], e)):
            a, b = (find(x) for x in g.endpoints(e))
            if a != b:
                head[a] = b
                chosen.add(e)
        for e in chosen:
            loads[e] += 1
        trees.append(frozenset(chosen))
    return trees, loads


def random_connected_multigraph(rng: random.Random, n, extra):
    """Random spanning tree plus `extra` random edges (parallels likely), ids shuffled."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    while n > 1 and len(pairs) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    rng.shuffle(pairs)
    return from_pairs(n, pairs)


def reference_components(g):
    """Connected components by breadth-first search from each unreached vertex."""
    if g.n == 0:
        raise ValueError("empty graph has no component structure")
    seen = [False] * g.n
    blocks = []
    for s in g.vertices:
        if seen[s]:
            continue
        comp, q = [], deque([s])
        seen[s] = True
        while q:
            x = q.popleft()
            comp.append(x)
            for e in g.incident(x):
                y = g.other(e, x)
                if not seen[y]:
                    seen[y] = True
                    q.append(y)
        blocks.append(comp)
    return Partition(blocks)
