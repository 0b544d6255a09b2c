"""Seeded instance generators for the four benchmark workloads.

Every instance is an edgelist text plus k.  The solver only ever sees the
text; the benchmark keeps the label pairs and a recipe for the reference
(closed form, brute force or networkx bound), which `references.py`
evaluates outside the timed process.  Vertices are exactly the labels that
occur in the text, so generators never leave a vertex isolated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

Pair = Tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """One solve: edgelist text, k, and how to compute its reference.

    `closed_form` is set when the family has a known optimum; otherwise
    `reference` names the method ("brute", "stoer_wagner", "gomory_hu").
    """

    name: str
    k: int
    pairs: Tuple[Pair, ...]
    reference: str
    closed_form: Optional[int] = None

    @property
    def text(self) -> str:
        return "".join("%d %d\n" % p for p in self.pairs)

    @property
    def n(self) -> int:
        return len({v for p in self.pairs for v in p})


def gnp_pairs(rng: random.Random, n: int, p: float, base: int = 0) -> List[Pair]:
    return [(base + i, base + j) for i, j in combinations(range(n), 2) if rng.random() < p]


def gnm_pairs(rng: random.Random, n: int, p: float, base: int = 0) -> List[Pair]:
    """round(p * n(n-1)/2) distinct edges on n vertices: G(n, p) with its edge count fixed.

    Solve times grow steeply with the edge count, so fixing it keeps the
    cost of each instance, and of the workload's slowest solves, from
    moving with the seed.
    """
    pool = list(combinations(range(n), 2))
    chosen = sorted(rng.sample(range(len(pool)), round(p * len(pool))))
    return [(base + pool[i][0], base + pool[i][1]) for i in chosen]


def clique_pairs(size: int, base: int) -> List[Pair]:
    return [(base + i, base + j) for i, j in combinations(range(size), 2)]


def link_blocks(rng: random.Random, sizes: Sequence[int], links: int) -> List[Pair]:
    """`links` edges between each pair of consecutive blocks, as a matching.

    Distinct endpoints on both sides mean no set of fewer than `links`
    vertices separates two blocks.
    """
    pairs: List[Pair] = []
    base = 0
    for a, b in zip(sizes, sizes[1:]):
        left = rng.sample(range(base, base + a), links)
        right = rng.sample(range(base + a, base + a + b), links)
        pairs.extend(sorted(zip(left, right)))
        base += a
    return pairs


def cycle_with_chords(rng: random.Random, n: int, base: int) -> List[Pair]:
    """Hamiltonian cycle on a shuffled order plus n random chords."""
    order = list(range(base, base + n))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(n):
        u, v = rng.sample(order, 2)
        pairs.append((u, v))
    return pairs


def chained_cliques(rng: random.Random, sizes: Sequence[int], links: int) -> List[Pair]:
    """Cliques in a path, consecutive ones joined by `links` edges."""
    pairs: List[Pair] = []
    base = 0
    for s in sizes:
        pairs.extend(clique_pairs(s, base))
        base += s
    return pairs + link_blocks(rng, sizes, links)


def chained_clique_optimum(sizes: Sequence[int], links: int, k: int) -> int:
    """(k-1)*L, valid when k <= min(4, #cliques) and L <= min(sizes) - 2.

    Splitting a clique of size s into t parts cuts at least (t-1)(2s-t)/2
    of its edges, which is at least (t-1)L for t <= 4, so no k-cut beats
    cutting k-1 of the link groups.
    """
    if not (k <= min(4, len(sizes)) and links <= min(sizes) - 2):
        raise ValueError("closed form needs k <= min(4, #cliques) and L <= min size - 2")
    return (k - 1) * links


def _instance(name, k, pairs, reference, closed_form=None) -> Instance:
    return Instance(name, k, tuple(pairs), reference, closed_form)


# --- small-exact -----------------------------------------------------------

def covering(draw: Callable[[], List[Pair]], n: int) -> List[Pair]:
    """Redraw until the drawn edges touch n distinct vertices.

    An edgelist cannot express an isolated vertex, so without this the
    parsed graph would be smaller than the schedule says.
    """
    while True:
        pairs = draw()
        if len({v for e in pairs for v in e}) == n:
            return pairs


def random_multigraph(rng: random.Random, n: int, m: int) -> List[Pair]:
    pairs: List[Pair] = []
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    return pairs


SMALL_SHAPES = ("gnp0.3", "gnp0.5", "gnp0.7", "multigraph", "disconnected")
# Ten draws per cell: the workload's slowest few percent of solves, which
# set solve_s.tail, then come from enough instances to move little with
# the seed.
SMALL_REPS = 10


def small_exact(rng: random.Random) -> List[Instance]:
    """n = 4..10, k in {2, 3}: simple, multigraph and disconnected graphs.

    The acceptance corpus's family, on a fixed grid: every (k, n, shape)
    cell appears SMALL_REPS times and only the edges are random, with their
    number fixed per cell (`gnm_pairs`), so the mix of cheap and costly
    solves is the same for every seed.  Reference: brute force.
    """
    out = []
    for rep in range(SMALL_REPS):
        for shape in SMALL_SHAPES:
            for n in range(4, 11):
                for k in (2, 3):
                    if shape == "multigraph":
                        pairs = covering(lambda: random_multigraph(rng, n, n + 1 + rep % 5), n)
                    elif shape == "disconnected":
                        a = n // 2
                        pairs = (covering(lambda: gnm_pairs(rng, a, 0.7), a)
                                 + covering(lambda: gnm_pairs(rng, n - a, 0.7, a), n - a))
                    else:
                        p = float(shape[3:])
                        pairs = covering(lambda: gnm_pairs(rng, n, p), n)
                    out.append(_instance("small-%s-%d-%d-%d" % (shape, n, k, rep), k, pairs,
                                         "brute"))
    return out


# --- tree-trials -----------------------------------------------------------

# Rounds alternate between these two.  ("gnp", k, n, p) is G(n, p), where
# branching wins and the tree stage's work is wasted; ("chain", k, sizes, L)
# is chained cliques, where the tree stage supplies the answer.  G(n, p)
# keeps p >= 0.45: at p <= 0.4 one draw can take six times as long as
# another of the same shape, and the median solve moved with the seed.
TREE_ROUNDS = (
    (("gnp", 2, 14, 0.60), ("chain", 2, (7, 7), 3), ("gnp", 2, 16, 0.55),
     ("chain", 3, (5, 5, 4), 2), ("gnp", 3, 14, 0.50), ("chain", 2, (5, 5, 5), 2),
     ("gnp", 2, 18, 0.45), ("chain", 4, (4, 4, 3, 3), 1)),
    (("gnp", 2, 15, 0.50), ("chain", 2, (8, 9), 3), ("gnp", 2, 17, 0.50),
     ("chain", 3, (5, 5, 5), 1), ("gnp", 3, 14, 0.45), ("chain", 2, (7, 7, 7), 4),
     ("gnp", 2, 20, 0.50), ("chain", 2, (7, 7), 3)),
)
TREE_ROUND_COUNT = 5


def tree_trials(rng: random.Random) -> List[Instance]:
    """n = 14..21, under treecut_max_n, so subtrees above the sweep size run trials.

    G(n, p) stays at n <= 16 for k = 3 and has no k = 4: those solves take
    tens of seconds.  Many cheap instances rather than a few large ones, and
    a fixed edge count per G(n, p) (`gnm_pairs`), keep the timings steady
    from seed to seed.
    """
    out = []
    for r in range(TREE_ROUND_COUNT):
        for kind, k, size, param in TREE_ROUNDS[r % 2]:
            name = "tree-%s-%d" % (kind, len(out))
            if kind == "gnp":
                pairs = covering(lambda: gnm_pairs(rng, size, param), size)
                out.append(_instance(name, k, pairs, "stoer_wagner" if k == 2 else "gomory_hu"))
            else:
                out.append(_instance(name, k, chained_cliques(rng, size, param), "closed_form",
                                     chained_clique_optimum(size, param, k)))
    return out


# --- dense-kt --------------------------------------------------------------

# (block sizes, edge probability of every other block (1.0: all cliques),
# links L).  L is fixed per shape: the tree stage evaluates about L distinct
# trees, so a random L would make the timings depend on the seed.
DENSE_BLOCKS = (((90, 90), 1.0, 2), ((100, 110), 0.97, 1), ((95, 97, 99), 1.0, 4),
                ((110, 120), 0.97, 5), ((90, 95), 0.99, 3))


def dense_block(rng: random.Random, size: int, p: float, base: int, links: int) -> List[Pair]:
    """G(size, p) with minimum degree at least size/2 and above `links`.

    A graph with minimum degree >= size/2 has edge connectivity equal to its
    minimum degree, so splitting the block costs more than cutting a link.
    """
    while True:
        pairs = gnp_pairs(rng, size, p, base)
        degree = [0] * size
        for u, v in pairs:
            degree[u - base] += 1
            degree[v - base] += 1
        if min(degree) >= max(size / 2, links + 1):
            return pairs


def dense_kt(rng: random.Random) -> List[Instance]:
    """2-3 dense blocks of 90-120 vertices in a path, joined by 1-5 edges, k = 2.

    Every vertex degree stays above the NI/KT gate 4*max(k^2 ln n, k^3), so
    sparsification runs.  The optimum is L, the number of links between
    consecutive blocks (see `dense_block`).
    """
    out = []
    for sizes, p, links in DENSE_BLOCKS:
        pairs: List[Pair] = []
        base = 0
        for b, s in enumerate(sizes):
            if p == 1.0 or b % 2 == 0:
                pairs.extend(clique_pairs(s, base))
            else:
                pairs.extend(dense_block(rng, s, p, base, links))
            base += s
        pairs.extend(link_blocks(rng, sizes, links))
        out.append(_instance("dense-%d" % len(out), 2, pairs, "closed_form", links))
    return out


# --- large-branch ----------------------------------------------------------

LARGE_CHAINS = ((2, (17, 17), 3), (3, (12, 14, 16), 3), (2, (24, 30), 5),
                (4, (12, 12, 13, 13), 3), (3, (20, 20, 20), 4), (2, (40, 40, 40), 6))
# 13 shapes, an odd count, so the median solve lies inside one shape's
# cluster of times; with an even count it fell in the gap between two, and
# moved with the seed.
LARGE_REDUCTIONS = ((8, 2), (7, 3), (5, 3))
LARGE_SPARSE = ((2, (120,)), (3, (80, 120)), (3, (200,)), (4, (45, 45)))
LARGE_ROUNDS = 8


def large_branch(rng: random.Random, gen_clique_reduction, multigraph) -> List[Instance]:
    """n = 34..200, above treecut_max_n with the gate off: branching only.

    Chained cliques with few links are where branching alone misses the
    optimum (known defect D1); those misses are expected and stay counted.
    `gen_clique_reduction` and `multigraph` come from kcut: the reduction's
    own `expected` value is the reference.  Solves take milliseconds, so
    the schedule repeats with fresh draws to average out seed effects.
    """
    out = []
    for _ in range(LARGE_ROUNDS):
        out.extend(_large_round(rng, gen_clique_reduction, multigraph, len(out)))
    return out


def _large_round(rng, gen_clique_reduction, multigraph, start: int) -> List[Instance]:
    out = []
    for k, sizes, links in LARGE_CHAINS:
        out.append(_instance("large-chain-%d" % (start + len(out)), k,
                             chained_cliques(rng, sizes, links), "closed_form",
                             chained_clique_optimum(sizes, links, k)))
    for n, k in LARGE_REDUCTIONS:
        base = gnp_pairs(rng, n, 0.5)
        h, expected = gen_clique_reduction(multigraph(n, base), k)
        pairs = [h.endpoints(e) for e in h.edge_ids]
        out.append(_instance("large-reduction-%d" % (start + len(out)), k, pairs,
                             "closed_form", expected))
    for k, sizes in LARGE_SPARSE:
        # 2-connected pieces (a cycle plus chords): removing one vertex never
        # splits off a piece small enough for the tree stage
        pairs = []
        base = 0
        for s in sizes:
            pairs.extend(cycle_with_chords(rng, s, base))
            base += s
        ref = "stoer_wagner" if k == 2 else "gomory_hu"
        out.append(_instance("large-sparse-%d" % (start + len(out)), k, pairs, ref))
    return out


def build(workload: str, seed: int, kcut_module) -> List[Instance]:
    """All instances of one workload for one seed; same seed, same instances."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "small-exact":
        return small_exact(rng)
    if workload == "tree-trials":
        return tree_trials(rng)
    if workload == "dense-kt":
        return dense_kt(rng)
    if workload == "large-branch":
        return large_branch(rng, kcut_module.gen_clique_reduction,
                            kcut_module.MultiGraph.from_edge_list)
    raise ValueError("unknown workload %r" % workload)
