"""Minimum k-cut driver.

Branches on singleton blocks (delete a vertex, solve for k-1) in every
cell.  A cell is a bitmask of its vertices: its degrees are popcounts of
the input's neighbour masks ANDed with it, its components a search over
those masks, and it builds no subgraph.  In cells whose vertex set is a
whole connected component of the input, it then scans a greedy
spanning-tree packing with the tree-cut dynamic program, passing the
branching incumbent as the cut budget lambda; dense components are
sparsified first.  When a component's stage is over TREECUT_MAX_N, every
cell below it runs its own tree stage the same way, since the DP may fit
there.  Only these cells build an induced subgraph, and only when the DP
may run on it: the sparsifier gate fires or the cell has at most
TREECUT_MAX_N vertices.  Both paths produce feasible cuts scored against
the real graph, so the returned minimum is always an upper bound on the
optimum and matches it whenever either path can express an optimal
partition.  A tree stage first takes its graph's Gomory-Hu lower bound:
when the incumbent already meets it, no tree cut can beat it and nothing
is packed (unless the oracle cross-check reads the trees); otherwise the
scan stops at the first tree cut that meets it.  A cell holds only its
value, blocks (kept as masks) and provenance; the answer's partition and
cut edges are built once, from the top cell's blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import Infeasible
from .graph import (
    ContractionMap,
    KCutSolution,
    MultiGraph,
    Partition,
    connected_components,
    cut_edge_set,
    cut_value,
    gomory_hu,
    induced_subgraph,
    pull_back,
)
from .oracles import brute_min_kcut
from .packing import greedy_tree_packing, is_tight
from .tree import RootedTree
from .treecut import TrialConfig, derived_seed, tree_cut

if TYPE_CHECKING:
    from .sparsify import KTResult

MODES = ("auto", "treecut_only")
KT_CONSTANT = 4.0  # scales the minimum-degree gate in front of the sparsifier
PACK_CONSTANT = 3.0  # scales the number of packed trees
PACK_CAP = 64  # most trees packed per tree stage
TREECUT_MAX_N = 32  # largest graph the tree stage attempts
ORACLE_MAX_N = 10  # largest graph the brute-force oracle checks

Cell = Tuple[int, Tuple[int, ...], str]  # a cell's (value, blocks as vertex bitmasks, provenance)


@dataclass(frozen=True)
class SolverConfig:
    """Trial settings and mode switch; the pipeline's constants are module-level.

    Singleton branching runs in every cell; the tree stage runs once per
    connected component of the input and part count, with lambda = the
    branching incumbent, and in every cell below a component whose stage
    is over TREECUT_MAX_N.  Beyond that size only branching runs, which
    keeps results sound but may miss optima without small blocks.

    mode is one of two: "auto" runs singleton branching and the tree
    stage, then checks graphs of at most ORACLE_MAX_N vertices against
    the brute-force oracle.  "treecut_only" skips only that check:
    singleton branching still runs and may supply the answer.  The
    oracle alone is `brute_min_kcut`.
    """

    trial: TrialConfig = TrialConfig()
    mode: str = "auto"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))


def tree_count(k: int, n: int) -> int:
    """Trees to pack for a k-cut of an n-vertex graph: PACK_CONSTANT*k^3*ln n, capped."""
    if k < 1:
        raise ValueError("k must be positive")
    return max(1, min(math.ceil(PACK_CONSTANT * k ** 3 * math.log(max(n, 2))), PACK_CAP))


def nontrivial_bound(g: MultiGraph, k: int) -> int:
    """k^2 times the minimum degree (0 on an empty graph): NI's forest count.

    The sparsifier's Nagamochi-Ibaraki certificate keeps this many forests;
    the tree DP gets the branching incumbent instead.  It is not an upper
    bound on the minimum k-cut: K12 plus a pendant vertex, with k=3, gives
    9 against an optimum of 12.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return k * k * g.min_degree() if g.n else 0


def _ni_keeps_every_edge(g: MultiGraph, lam: int) -> bool:
    """True when `ni_sparsify(g, lam)` would return g unchanged.

    An edge uv missing from the first i forests has a u-v path in each of
    them, so u and v both have degree above i: every edge lies in one of
    the first min(deg u, deg v) forests.
    """
    return all(min(g.degree(u), g.degree(v)) <= lam for u, v in g.pairs)


class _Context:
    def __init__(self, g: MultiGraph, config: SolverConfig, stats: dict):
        self.g0 = g
        self.config = config
        self.stats = stats
        self.memo: Dict[Tuple[int, int], Cell] = {}
        self.top_alive = (1 << g.n) - 1
        # layers[j][v]: the neighbours joined to v by more than j edges, as
        # a bitmask; only parallel edges add layers past the first
        layers: List[List[int]] = [[0] * g.n]
        for u, v in g.pairs:
            for layer in layers:
                if not layer[u] >> v & 1:
                    break
            else:
                layer = [0] * g.n
                layers.append(layer)
            layer[u] |= 1 << v
            layer[v] |= 1 << u
        self.adj, self.extra = layers[0], layers[1:]
        self.blocks = [_mask(b) for b in connected_components(g).blocks]
        self.components = set(self.blocks)
        # vertices of the components whose own stage outgrew TREECUT_MAX_N:
        # every cell below them stages itself, as its DP may still fit
        self.oversized = 0
        self.packed_trees: List[RootedTree] = []  # the top cell's, as in stats["packed_trees"]

    def split(self, alive: int) -> List[int]:
        """Components of the input restricted to alive, as masks in order of their lowest vertex."""
        if alive == self.top_alive:
            return self.blocks
        adj = self.adj
        blocks = []
        rest = alive
        while rest:
            start = rest
            frontier = rest & -rest
            rest ^= frontier
            # expand one reached vertex at a time until the block is closed
            # or nothing of alive is left to reach
            while frontier and rest:
                low = frontier & -frontier
                frontier ^= low
                new = adj[low.bit_length() - 1] & rest
                rest ^= new
                frontier |= new
            blocks.append(start ^ rest)
        return blocks

    def simple(self, alive: int, order: List[int]) -> bool:
        """True when no two of order (alive's sorted vertices) share more than one edge."""
        return not self.extra or not any(self.extra[0][v] & alive for v in order)

    def degrees(self, alive: int, order: List[int]) -> List[int]:
        """Degree within alive, parallel edges included, of each of order (alive's sorted vertices)."""
        adj = self.adj
        degrees = [(adj[v] & alive).bit_count() for v in order]
        for layer in self.extra:
            degrees = [d + (layer[v] & alive).bit_count() for d, v in zip(degrees, order)]
        return degrees


def _mask(vertices) -> int:
    """The bitmask of a set of vertices."""
    return sum(1 << v for v in vertices)


def _solve(ctx: _Context, alive: int, order: List[int], k: int) -> Cell:
    """Best k-cut of the input restricted to alive, whose sorted vertices are order."""
    key = (alive, k)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    ctx.stats["cells"] += 1
    if k == 1:
        cell = (0, (alive,), "base")
    else:
        blocks = ctx.split(alive)
        if len(blocks) > 1:
            cell = _solve_components(ctx, blocks, order, k)
        else:
            cell = _solve_connected(ctx, alive, order, k)
    ctx.memo[key] = cell
    return cell


def _solve_components(ctx: _Context, blocks_orig: List[int], order: List[int], k: int) -> Cell:
    """Split the part budget across connected components; merges are free."""
    if k <= len(blocks_orig):
        # enough components already: keep k-1 of them apart, merge the rest
        # (the masks are disjoint, so their sum is their union)
        rest = sum(blocks_orig[k - 1:])
        return 0, tuple(blocks_orig[:k - 1]) + (rest,), "components"
    tables: List[Dict[int, Cell]] = []
    for block in blocks_orig:
        members = [v for v in order if block >> v & 1]
        table = {}
        for j in range(1, min(k, len(members)) + 1):
            table[j] = _solve(ctx, block, members, j)
        tables.append(table)
    dp: Dict[int, Tuple[int, Tuple[int, ...]]] = {0: (0, ())}
    for table in tables:
        nxt: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        for spent, (val, picks) in dp.items():
            for j, cell in table.items():
                tot = spent + j
                if tot > k:
                    continue
                cand = (val + cell[0], picks + (j,))
                cur = nxt.get(tot)
                if cur is None or cand < cur:
                    nxt[tot] = cand
        dp = nxt
    value, picks = dp[k]
    blocks = tuple(b for table, j in zip(tables, picks) for b in table[j][1])
    return value, blocks, "components"


def _solve_connected(ctx, alive, order, k: int) -> Cell:
    n = len(order)
    degrees = ctx.degrees(alive, order)
    sub = staged = None
    whole = alive in ctx.components
    if whole or ctx.oversized >> order[0] & 1:
        # staged before branching, so the cells below see the mark; a cell
        # the DP cannot take (over the cap, gate off) builds no subgraph
        gate = _sparsify_gate(n, min(degrees), k)
        stage_n = n
        if gate or n <= TREECUT_MAX_N:
            sub = ctx.g0 if alive == ctx.top_alive else induced_subgraph(ctx.g0, order)[0]
            staged = _stage(ctx, alive, order, sub, k, gate)
            stage_n = staged[0].n
        if whole and stage_n > TREECUT_MAX_N:
            ctx.oversized |= alive
    best: Optional[Cell] = None
    # singleton branching, cheapest boundary first: any branch whose vertex
    # degree already matches the incumbent cannot improve on it
    for i in sorted(range(n), key=degrees.__getitem__):
        d, v = degrees[i], order[i]
        if best is not None and d >= best[0]:
            break
        value, blocks, _ = _solve(ctx, alive ^ 1 << v, order[:i] + order[i + 1:], k - 1)
        if best is None or value + d < best[0]:
            best = (value + d, blocks + (1 << v,), "branch")
    if best is None:
        raise Infeasible("no feasible %d-cut of %d vertices" % (k, n))
    if staged is not None:
        tree_best = _tree_stage(ctx, alive, sub, order, k, best[0], *staged)
        if tree_best is not None and tree_best[0] < best[0]:
            best = tree_best
    return best


def _sparsify_gate(n: int, delta: int, k: int) -> bool:
    """True when an n-vertex cell of minimum degree delta is dense enough to sparsify."""
    return delta > KT_CONSTANT * max(k * k * math.log(max(n, 2)), k ** 3)


def sparsify_for_k(g: MultiGraph, k: int) -> Tuple[int, MultiGraph, KTResult]:
    """The sparsifier the tree DP sees for a k-cut of g, which must be simple.

    NI keeps max(k^2 delta, 1) forests, unless they would keep every edge;
    KT then contracts with alpha = k^2.  Returns the forest count, NI's
    subgraph and KT's result.
    """
    from .sparsify import KTParams, kt_sparsify, ni_sparsify  # loaded here only: `import kcut` skips it

    forests = max(nontrivial_bound(g, k), 1)
    ni = g if _ni_keeps_every_edge(g, forests) else ni_sparsify(g, forests).subgraph
    return forests, ni, kt_sparsify(ni, KTParams(alpha=k * k))


def _stage(ctx, alive, order, sub, k: int, gate: bool) -> Tuple[MultiGraph, Optional[ContractionMap]]:
    """The graph the tree DP sees: sub, or its NI/KT sparsifier when the gate fires.

    Returns the stage and the map from sub's vertices to the stage's
    (None when sub is not contracted).
    """
    if not (gate and ctx.simple(alive, order)):
        return sub, None
    _, ni, kt = sparsify_for_k(sub, k)
    ctx.stats["sparsified_cells"] += 1
    if alive == ctx.top_alive:
        ctx.stats["ni_edges"] = ni.m
        ctx.stats["kt_iterations"] = len(kt.iterations)
    return kt.contracted, kt.map


def _stage_bound(weights: List[int], k: int) -> int:
    """The k-cut lower bound of Saran and Vazirani (1995) from Gomory-Hu weights, k >= 2."""
    # each of the k blocks has a boundary of at least the lightest weight,
    # and the k-1 lightest weights sum to at most 2 - 2/k times the optimum
    weights = sorted(weights)
    return max(-(-k * weights[0] // 2), -(-k * sum(weights[:k - 1]) // (2 * k - 2)))


def _tree_stage(ctx, alive, sub, order, k: int, lam: int, stage, kt_map) -> Optional[Cell]:
    """Best tree-packing cut of sub; lam is a known k-cut value, so lam >= OPT.

    sub is the input induced on alive, whose vertex i is order[i]; the
    cell's blocks are masks of input ids.  No tree cut, a k-cut of the
    stage, is worth less than the stage's Gomory-Hu bound: once lam or a
    tree's cut meets it, no further tree is cut, and lam at the bound
    packs nothing unless the oracle cross-check reads the trees.  Every
    tree cut reads its safe edges off the same Gomory-Hu tree.
    """
    cfg = ctx.config
    if stage.n < max(k, 2) or stage.n > TREECUT_MAX_N:
        return None
    gh = gomory_hu(stage)
    bound = _stage_bound(gh[1][1:], k)
    whole_input = alive == ctx.top_alive and kt_map is None  # the stage is the input
    if whole_input:
        ctx.stats["lower_bound"] = bound
    if lam <= bound and not (whole_input and cfg.mode == "auto" and stage.n <= ORACLE_MAX_N):
        return None
    count = tree_count(k, stage.n)
    pack = greedy_tree_packing(stage, count)
    ctx.stats["trees_packed"] += count
    best = None
    for t in dict.fromkeys(pack.trees):  # the packing shares one object per edge set
        ids = tuple(sorted(t.edge_ids))
        if whole_input:
            ctx.stats["packed_trees"].append(ids)
            ctx.packed_trees.append(t)
        if lam <= bound or best is not None and best[0] <= bound:
            if whole_input:
                continue  # the rest of the trees are still recorded
            break
        trial = replace(cfg.trial, seed=derived_seed(cfg.trial.seed, ids))
        sol = tree_cut(stage, t, lam, k, trial, gh)
        ctx.stats["trees_evaluated"] += 1
        # tree_cut scored the cut on stage, which is sub unless KT contracted it
        part_local, value = sol.partition, sol.value
        if kt_map is not None:
            part_local = pull_back(part_local, kt_map, sub.n)
            value = cut_value(sub, part_local)
        if best is None or value < best[0]:
            best = (value, part_local)
    if best is None:
        return None
    value, part_local = best
    return value, tuple(_mask(order[v] for v in b) for b in part_local.blocks), "treecut"


def _fresh_stats(config: SolverConfig) -> dict:
    return {
        "mode": config.mode,
        "cells": 0,
        "sparsified_cells": 0,
        "trees_packed": 0,
        "trees_evaluated": 0,
        "ni_edges": None,
        "kt_iterations": None,
        "packed_trees": [],
        "oracle_value": None,
        "oracle_agrees": None,
        "tight_tree_found": None,
        "lower_bound": None,
        "gap": None,
        "certified": None,
    }


def solve_with_stats(
    g: MultiGraph, k: int, config: Optional[SolverConfig] = None
) -> Tuple[KCutSolution, dict]:
    config = config or SolverConfig()
    stats = _fresh_stats(config)
    if g.n < 1 or k < 1 or k > g.n:
        raise Infeasible("cannot cut %d vertices into %d parts" % (g.n, k))
    ctx = _Context(g, config, stats)
    value, blocks, provenance = _solve(ctx, ctx.top_alive, list(g.vertices), k)
    partition = Partition([v for v in g.vertices if b >> v & 1] for b in blocks)
    assert value == cut_value(g, partition)
    sol = KCutSolution(value, partition, cut_edge_set(g, partition), provenance)
    if stats["lower_bound"] is not None:
        stats["gap"] = value - stats["lower_bound"]
        stats["certified"] = stats["gap"] == 0
    if config.mode == "auto" and g.n <= ORACLE_MAX_N:
        oracle = brute_min_kcut(g, k)
        stats["oracle_value"] = oracle.value
        stats["oracle_agrees"] = sol.value == oracle.value
        stats["tight_tree_found"] = any(is_tight(t, oracle.partition) for t in ctx.packed_trees)
    return sol, stats


def min_kcut(g: MultiGraph, k: int, config: Optional[SolverConfig] = None) -> KCutSolution:
    """Minimum k-cut of g; see SolverConfig for the trial settings and mode."""
    sol, _ = solve_with_stats(g, k, config)
    return sol
