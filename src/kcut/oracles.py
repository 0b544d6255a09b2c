"""Brute-force reference implementations.

Everything here favors obvious correctness over speed: these functions
generate the ground truth the randomized pipeline is judged against.
They enumerate; only `brute_min_kcut` prunes, and only prefixes that
cannot beat the best so far, so it still returns the first optimum in
restricted-growth order.  Budgets stop runaway enumeration before it
starts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .errors import BudgetExceeded, Infeasible
from .graph import (
    KCutSolution,
    MultiGraph,
    Partition,
    connected_components,
    cut_edge_set,
    cut_value,
)
from .tree import RootedTree, forest_components


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps checked before any enumeration begins."""

    max_vertices: int = 12
    max_subsets: int = 5_000_000


KCUT_BUDGET = OracleBudget()
CONDUCTANCE_BUDGET = OracleBudget(max_vertices=16, max_subsets=1 << 20)


def _stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k blocks."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


def _labels_to_partition(labels: Tuple[int, ...]) -> Partition:
    blocks: List[List[int]] = [[] for _ in range(max(labels) + 1)]
    for v, c in enumerate(labels):
        blocks[c].append(v)
    return Partition(blocks)


def brute_min_kcut(g: MultiGraph, k: int, budget: Optional[OracleBudget] = None) -> KCutSolution:
    """Exact minimum k-cut by a depth-first search over k-block partitions.

    Vertices 0..n-1 take block labels in turn, in restricted-growth order,
    each prefix carrying the value of the edges it already cuts; a prefix
    that reaches the best value so far is dropped.  The first optimum in
    that order is returned, as a full enumeration keeping only strict
    improvements would.
    """
    budget = budget or KCUT_BUDGET
    if not 1 <= k <= g.n:
        raise Infeasible("cannot split %d vertices into %d blocks" % (g.n, k))
    if g.n > budget.max_vertices:
        raise BudgetExceeded("%d vertices exceeds the oracle cap %d" % (g.n, budget.max_vertices))
    if _stirling2(g.n, k) > budget.max_subsets:
        raise BudgetExceeded("too many %d-block partitions of %d vertices" % (k, g.n))
    n = g.n
    earlier: List[List[int]] = [[] for _ in range(n)]  # v's neighbours below v, one per edge
    for u, v in g.pairs:
        earlier[max(u, v)].append(min(u, v))
    labels = [0] * n
    best: List = [g.m + 1, None]  # every cut has at most m edges

    def rec(i: int, used: int, value: int) -> None:
        if used + (n - i) < k:
            return
        if i == n:
            best[:] = value, tuple(labels)
            return
        inside = [0] * (used + 1)
        for u in earlier[i]:
            inside[labels[u]] += 1
        for c in range(used + 1 if used < k else used):
            step = value + len(earlier[i]) - inside[c]
            if step < best[0]:  # cut values only grow along a prefix
                labels[i] = c
                rec(i + 1, max(used, c + 1), step)

    rec(0, 0, 0)
    p = _labels_to_partition(best[1])
    return KCutSolution(best[0], p, cut_edge_set(g, p), "oracle")


def brute_tree_kcut(g: MultiGraph, t: RootedTree, k: int) -> KCutSolution:
    """Best k-cut obtainable by deleting k-1 edges of the given tree."""
    if t.n != g.n:
        raise ValueError("tree does not span the graph")
    ids = sorted(t.edge_ids)
    if k < 1 or k - 1 > len(ids):
        raise Infeasible("cannot delete %d edges from a %d-edge tree" % (k - 1, len(ids)))
    best: Optional[Tuple[int, Partition]] = None
    for combo in itertools.combinations(ids, k - 1):
        p = forest_components(t, combo)
        value = cut_value(g, p)
        if best is None or value < best[0]:
            best = (value, p)
    return KCutSolution(best[0], best[1], cut_edge_set(g, best[1]), "tree-oracle")


def brute_min_conductance(
    g: MultiGraph, budget: Optional[OracleBudget] = None
) -> Tuple[FrozenSet[int], Fraction]:
    """Exact minimum-conductance vertex set (the side containing vertex 0)."""
    budget = budget or CONDUCTANCE_BUDGET
    if g.n < 2 or g.m == 0:
        raise ValueError("conductance needs at least two vertices and one edge")
    if connected_components(g).k != 1:
        raise ValueError("conductance is defined here for connected graphs only")
    if g.n > budget.max_vertices or (1 << (g.n - 1)) > budget.max_subsets:
        raise BudgetExceeded("%d vertices exceeds the conductance cap" % g.n)
    ends = [g.endpoints(e) for e in g.edge_ids]
    total = 2 * g.m
    best: Optional[Tuple[Fraction, FrozenSet[int]]] = None
    for mask in range(1 << (g.n - 1)):
        inside = [True] + [bool(mask >> (v - 1) & 1) for v in range(1, g.n)]
        vol = sum(g.degree(v) for v in g.vertices if inside[v])
        if vol == total:
            continue
        cut = sum(1 for u, v in ends if inside[u] != inside[v])
        phi = Fraction(cut, min(vol, total - vol))
        if best is None or phi < best[0]:
            best = (phi, frozenset(v for v in g.vertices if inside[v]))
    return best[1], best[0]


def brute_min_ancestor_cut(
    g: MultiGraph,
    t: RootedTree,
    roots: Iterable[int],
    minelts: Iterable[int],
    p: int,
) -> Tuple[int, FrozenSet[int]]:
    """Cheapest way to delete exactly p-1 tree edges within the given subtrees.

    Eligible edges for subtree root u are the parent edges of T(u)'s vertices,
    u's own included.  Each subtree loses at least one edge, and every minelt
    must end up disconnected from the tree root.  The value scores the whole
    resulting partition against g.
    """
    subroots = sorted(set(roots))
    if not subroots:
        raise ValueError("need at least one subtree root")
    if any(u == t.root for u in subroots):
        raise ValueError("the tree root cannot serve as a subtree root")
    for a, b in itertools.combinations(subroots, 2):
        if not t.incomparable(a, b):
            raise ValueError("subtree roots %d and %d are comparable" % (a, b))
    pins = sorted(set(minelts))
    for s in pins:
        if not any(t.precedes(u, s) for u in subroots):
            raise ValueError("minelt %d lies outside every subtree" % s)
    if p - 1 < len(subroots):
        raise Infeasible("p-1 deletions cannot reach %d subtrees" % len(subroots))
    branch_of = {}
    for i, u in enumerate(subroots):
        for x in t.subtree(u):
            branch_of[t.parent_edge(x)] = i
    eligible = sorted(branch_of)
    if p - 1 > len(eligible):
        raise Infeasible("only %d eligible edges for %d deletions" % (len(eligible), p - 1))
    need = set(range(len(subroots)))
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    for combo in itertools.combinations(eligible, p - 1):
        if {branch_of[e] for e in combo} != need:
            continue
        part = forest_components(t, combo)
        idx = part.block_index()
        if any(idx[s] == idx[t.root] for s in pins):
            continue
        value = cut_value(g, part)
        if best is None or value < best[0]:
            best = (value, combo)
    if best is None:
        raise Infeasible("no deletion satisfies the separation constraints")
    return best[0], frozenset(best[1])


def max_edges_among(g: MultiGraph, r: int, budget: Optional[OracleBudget] = None) -> int:
    """Most edges induced by any r-vertex subset."""
    budget = budget or KCUT_BUDGET
    if not 0 <= r <= g.n:
        raise ValueError("subset size %d out of range" % r)
    if g.n > budget.max_vertices:
        raise BudgetExceeded("%d vertices exceeds the oracle cap %d" % (g.n, budget.max_vertices))
    if r < 2:
        return 0
    ends = [g.endpoints(e) for e in g.edge_ids]
    best = 0
    for combo in itertools.combinations(range(g.n), r):
        s = set(combo)
        best = max(best, sum(1 for u, v in ends if u in s and v in s))
    return best
