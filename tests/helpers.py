"""Small graph constructions shared across the test modules."""

import math
import random
from collections import deque
from fractions import Fraction

from kcut.graph import KCutSolution, MultiGraph, Partition, cut_edge_set
from kcut.packing import greedy_tree_packing
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
    """n vertices, m edges sampled with replacement (parallels likely).

    Raises ValueError, before any draw, when m > 0 edges cannot fit on n < 2 vertices.
    """
    if m > 0 and n < 2:
        raise ValueError("%d edges need at least two vertices, not %d" % (m, n))
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


def rooted_packing(g, count):
    """Each round's tree of a `count`-round greedy packing of g, rooted at 0."""
    return [RootedTree.from_edge_ids(g, ids) for ids in greedy_tree_packing(g, count).trees]


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


def reference_min_st_cut(g, s, t):
    """Fewest edge records separating s from t, with the s-side set.

    Plain BFS augmenting paths over the edge records, from zero flow: each
    record carries one unit either way.  The side is what the last search
    reached, the minimal minimum cut.
    """
    net = dict.fromkeys(g.edge_ids, 0)  # units each record carries away from its first endpoint
    flow = 0
    while True:
        came = {s: None}
        q = deque([s])
        while q:
            x = q.popleft()
            for e in g.incident(x):
                y = g.other(e, x)
                away = net[e] if g.endpoints(e)[0] == x else -net[e]
                if away < 1 and y not in came:
                    came[y] = e
                    q.append(y)
        if t not in came:
            return flow, frozenset(came)
        y = t
        while y != s:
            e = came[y]
            x = g.other(e, y)
            net[e] += 1 if g.endpoints(e)[0] == x else -1
            y = x
        flow += 1


def reference_kt_sparsify(g, params):
    """`kt_sparsify`'s rounds carried out on `MultiGraph`s, rebuilt at every step.

    Each round removes the passive supervertices' edges, trims, and then
    carves: it finds the components of h, runs the conductance search on
    each induced subgraph, deletes the crossing edges and trims again, until
    a pass finds no cut.  Conductance sweeps toggle one vertex at a time over
    edge-record neighbour lists, and the spectral matrix is filled one edge
    at a time; every ratio compares by cross-multiplying.
    """
    import numpy as np
    from kcut.graph import ContractionMap, connected_components, induced_subgraph, quotient, \
        union_find
    from kcut.sparsify import (EXACT_CAP, LOOSE_FRACTION, SCRAP_FRACTION, STOP_FRACTION,
                               TRIM_FRACTION, KTIteration, KTResult, _default_gamma)

    def without(h, drop_vertices=(), drop_edges=()):
        return MultiGraph(h.n, [(e, u, v) for e, (u, v) in ((e, h.endpoints(e)) for e in h.edge_ids)
                                if u not in drop_vertices and v not in drop_vertices
                                and e not in drop_edges])

    def trim(h, ref):
        dead = set()
        while True:
            weak = [v for v in h.vertices if v not in dead
                    and h.degree(v) < TRIM_FRACTION * ref.degree(v)]
            if not weak:
                return h
            dead.update(weak)
            h = without(h, drop_vertices=set(weak))

    def sweep(c, toggles):
        deg = [c.degree(v) for v in c.vertices]
        nbrs = [[c.other(e, v) for e in c.incident(v)] for v in c.vertices]
        inside = [False] * c.n
        vol = cut = 0
        best = None
        for v in toggles:
            inside[v] = not inside[v]
            sign = 1 if inside[v] else -1
            vol += sign * deg[v]
            cut += sign * sum(-1 if inside[w] else 1 for w in nbrs[v])
            side = min(vol, 2 * c.m - vol)
            if best is None or cut * best[1] < best[0] * side:
                best = (cut, side, frozenset(w for w in c.vertices if inside[w]))
        return best[2], Fraction(best[0], best[1])

    def conductance_cut(c, gamma):
        if c.n <= EXACT_CAP:
            side, phi = sweep(c, ((i & -i).bit_length() for i in range(1, 1 << (c.n - 1))))
            return side if phi <= gamma else None
        a = np.zeros((c.n, c.n))
        for u, v in c.pairs:
            a[u, v] += 1.0
            a[v, u] += 1.0
        inv_sqrt = 1.0 / np.sqrt([float(c.degree(v)) for v in c.vertices])
        vals, vecs = np.linalg.eigh(np.eye(c.n) - inv_sqrt[:, None] * a * inv_sqrt[None, :])
        if float(vals[1]) >= 2 * float(gamma):
            return None
        order = np.argsort(vecs[:, 1] * inv_sqrt, kind="stable")
        side, phi = sweep(c, (int(v) for v in order[:c.n - 1]))
        if float(phi) > math.sqrt(max(math.log2(max(c.m, 2)), 1.0)) * float(gamma):
            return None
        return side

    def core_of(comp, h, ref, regular):
        inner = {v: sum(1 for e in ref.incident(v) if ref.other(e, v) in comp) for v in comp}
        core = [v for v in comp if not (regular[v] and h.degree(v) <= LOOSE_FRACTION * ref.degree(v))]
        if sum(inner[v] for v in core) <= SCRAP_FRACTION * sum(ref.degree(v) for v in comp):
            return []
        return core

    delta = g.min_degree() if g.n > 0 else 0
    cur, cmap, is_super, records = g, ContractionMap.identity(g.n), [False] * g.n, []
    while cur.m:
        m = cur.m
        gamma = params.gamma if params.gamma is not None else _default_gamma(m)
        threshold = (params.passive_threshold if params.passive_threshold is not None
                     else 3 * params.alpha * delta / gamma)
        passive = {v for v in cur.vertices if is_super[v] and cur.degree(v) <= threshold}
        if sum(1 for u, v in cur.pairs if u in passive or v in passive) >= STOP_FRACTION * m:
            break
        h = trim(without(cur, drop_vertices=passive), cur)
        cut_total = 0
        while True:
            removed = set()
            blocks = [b for b in connected_components(h).blocks if len(b) >= 2]
            for block in blocks:
                sub, new = induced_subgraph(h, block)
                side = conductance_cut(sub, gamma)
                if side is not None:
                    removed |= {e for e in sub.edge_ids
                                if (sub.endpoints(e)[0] in side) != (sub.endpoints(e)[1] in side)}
            if not removed:
                break
            cut_total += len(removed)
            h = trim(without(h, drop_edges=removed), cur)
        regular = [not s for s in is_super]
        cores = [c for c in (core_of(b, h, cur, regular) for b in blocks) if c]
        labels, _ = union_find(cur.n, [(min(core), v) for core in cores for v in core])
        step = ContractionMap(tuple(labels))
        nxt = quotient(cur, step)
        new_super = [False] * nxt.n
        for v in [v for v in cur.vertices if is_super[v]] + [min(core) for core in cores]:
            new_super[step.apply(v)] = True
        records.append(KTIteration(edges_before=m, edges_after=nxt.m, cut_edges=cut_total,
                                   supervertices_after=sum(new_super), cores=len(cores),
                                   gamma=gamma))
        if nxt.n == cur.n and new_super == is_super:
            break
        cur, cmap, is_super = nxt, cmap.compose(step), new_super
    return KTResult(cur, cmap, tuple(records))
