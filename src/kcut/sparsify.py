"""Edge sparsification: connectivity certificates and expander contraction.

Two independent reducers live here.  `ni_sparsify` keeps a union of
iterated maximal spanning forests, which preserves every cut of size up
to the forest count exactly.  `kt_sparsify` repeatedly carves the graph
into expander cores and contracts them, shrinking the instance while
keeping every small nontrivial cut's edges alive.  A KT round holds its
graph's n x n edge-multiplicity matrix w (as does a spectral search on
one n-vertex block) and carves h, an `alive` mask and a `piece` label per
vertex: h's edges join two alive vertices of one piece.  `import kcut`
skips this module, so numpy stays out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import FrozenSet, List, Optional, Tuple, Union

import numpy as np

from .graph import ContractionMap, MultiGraph, is_simple, quotient, union_find

Rational = Union[Fraction, float]
Cut = Tuple[FrozenSet[int], Fraction]  # a vertex set and its conductance

TRIM_FRACTION = Fraction(2, 5)  # trim: a vertex needs this share of its degree
LOOSE_FRACTION = Fraction(1, 2)  # shave: at most this share inside is loose
SCRAP_FRACTION = Fraction(1, 4)  # scrap: a core needs more than this share of volume
STOP_FRACTION = Fraction(1, 20)  # stop once passive vertices touch this share of edges
EXACT_CAP = 20  # largest component whose every subset is swept


@dataclass(frozen=True)
class NIResult:
    subgraph: MultiGraph
    forests: Tuple[FrozenSet[int], ...]


@dataclass(frozen=True)
class KTIteration:
    """Per-iteration accounting; tests assert on these numbers."""

    edges_before: int
    edges_after: int
    cut_edges: int
    supervertices_after: int
    cores: int
    gamma: Rational


@dataclass(frozen=True)
class KTResult:
    contracted: MultiGraph
    map: ContractionMap
    iterations: Tuple[KTIteration, ...]


@dataclass(frozen=True)
class KTParams:
    alpha: int = 1
    gamma: Optional[Rational] = None  # None: 1/(100 log2 m) of the live edge count m
    passive_threshold: Optional[Rational] = None  # None: 3*alpha*delta/gamma

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")


def ni_sparsify(g: MultiGraph, lam: int) -> NIResult:
    """Union of `lam` iterated maximal spanning forests of a simple graph.

    Any vertex set whose boundary has at most `lam` edges keeps its exact
    boundary in the subgraph; larger cuts may shrink.
    """
    if lam < 1:
        raise ValueError("forest count must be positive")
    if not is_simple(g):
        raise ValueError("parallel edges: certificate is stated for simple graphs")
    remaining = list(g.edge_ids)
    forests: List[FrozenSet[int]] = []
    for _ in range(lam):
        _, merged = union_find(g.n, [g.endpoints(e) for e in remaining])
        taken = frozenset(remaining[i] for i in merged)
        forests.append(taken)
        remaining = [e for e in remaining if e not in taken]
    kept = sorted(set().union(*forests))
    sub = MultiGraph(g.n, [(e, *g.endpoints(e)) for e in kept])
    return NIResult(sub, tuple(forests))


def _multiplicity(g: MultiGraph) -> np.ndarray:
    """g's n x n matrix whose (u, v) entry counts the edges joining u and v."""
    ends = np.fromiter(chain.from_iterable(g.pairs), dtype=np.int64, count=2 * g.m)
    w = np.bincount(ends[0::2] * g.n + ends[1::2], minlength=g.n * g.n).reshape(g.n, g.n)
    return w + w.T


def _h_edges(w: np.ndarray, alive: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """w restricted to h: the entries between two alive vertices of one piece, others 0."""
    return np.where(alive[:, None] & alive & (piece[:, None] == piece), w, 0)


def _trim(w: np.ndarray, deg: np.ndarray, alive: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """Drop alive vertices whose h-degree fell below 2/5 of deg, until none does.

    The condition is monotone under edge loss, so batch order does not matter.
    """
    while True:
        weak = alive & (_h_edges(w, alive, piece).sum(axis=1) * TRIM_FRACTION.denominator
                        < deg * TRIM_FRACTION.numerator)
        if not weak.any():
            return alive
        alive = alive & ~weak


def _components(adj: np.ndarray) -> List[np.ndarray]:
    """Components of 2+ vertices under boolean adjacency adj, sorted, by lowest vertex."""
    seen = ~adj.any(axis=1)  # an isolated vertex is no block
    blocks = []
    for s in np.flatnonzero(~seen):
        if not seen[s]:
            comp = frontier = np.arange(len(adj)) == s
            while frontier.any():
                frontier = adj[frontier].any(axis=0) & ~comp
                comp = comp | frontier
            seen |= comp
            blocks.append(np.flatnonzero(comp))
    return blocks


def _shave_scrap_core(block: np.ndarray, w: np.ndarray, deg: np.ndarray, inner: np.ndarray,
                      regular: np.ndarray) -> np.ndarray:
    """Shave loose vertices off one block of h, then keep or scrap the rest.

    A vertex is loose when it is regular (never contracted) and its h-degree,
    inner, is at most half its degree.  What survives is the core (else the
    empty array) only if its edges into the block exceed a quarter of the
    block's volume.
    """
    core = block[~(regular[block] & (inner[block] * LOOSE_FRACTION.denominator
                                     <= deg[block] * LOOSE_FRACTION.numerator))]
    if (w[np.ix_(core, block)].sum() * SCRAP_FRACTION.denominator
            <= deg[block].sum() * SCRAP_FRACTION.numerator):
        return core[:0]
    return core


def _exact_min_conductance(w: np.ndarray) -> Cut:
    """Gray-code sweep over all proper subsets not containing vertex 0.

    Each step toggles one vertex v in or out of S, which changes the cut by
    deg(v) - 2 w(v, S); w(v, S) is read off bitmasks, one per binary digit
    of the multiplicities.  Ratios compare by cross-multiplying, so the
    first minimum wins.
    """
    n = len(w)
    rows = w.tolist()
    deg = [sum(row) for row in rows]
    planes = [(b, [sum(1 << u for u, x in enumerate(row) if x >> b & 1) for row in rows])
              for b in range(int(w.max()).bit_length())]
    total = sum(deg)
    vol = cut = mask = 0
    best_cut, best_side, best_mask = None, 1, 0
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length()
        mask ^= 1 << v
        sign = 1 if mask >> v & 1 else -1
        vol += sign * deg[v]
        cut += sign * (deg[v] - 2 * sum((nbrs[v] & mask).bit_count() << b for b, nbrs in planes))
        side = min(vol, total - vol)
        if best_cut is None or cut * best_side < best_cut * side:
            best_cut, best_side, best_mask = cut, side, mask
    return frozenset(v for v in range(n) if best_mask >> v & 1), Fraction(best_cut, best_side)


def _spectral_cut(w: np.ndarray, gamma: Rational) -> Optional[Cut]:
    """Fiedler sweep; certify an expander via the easy Cheeger direction.

    The sweep grows S one vertex at a time in Fiedler order; cumulative
    sums give each prefix's cut and volume, and ratios compare by
    cross-multiplying, so the first minimum wins.
    """
    n = len(w)
    deg = w.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg.astype(float))
    lap = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(lap)
    if float(vals[1]) >= 2 * float(gamma):
        return None  # lambda2/2 lower-bounds the conductance
    order = np.argsort(vecs[:, 1] * inv_sqrt, kind="stable")
    # adding v to S changes the cut by deg(v) - 2 w(v, S)
    steps = deg[order] - 2 * np.tril(w[np.ix_(order, order)], -1).sum(axis=1)
    cuts = np.cumsum(steps)[:-1].tolist()
    vols = np.cumsum(deg[order])
    sides = np.minimum(vols, vols[-1] - vols)[:-1].tolist()
    best = 0
    for i in range(1, n - 1):
        if cuts[i] * sides[best] < cuts[best] * sides[i]:
            best = i
    phi = Fraction(cuts[best], sides[best])
    if float(phi) > math.sqrt(max(math.log2(max(int(vols[-1]) // 2, 2)), 1.0)) * float(gamma):
        return None  # sweep found nothing certifiably sparse; treat as expander
    return frozenset(order[:best + 1].tolist()), phi


def low_conductance_cut(w: np.ndarray, gamma: Rational) -> Optional[Cut]:
    """A vertex set of conductance at most gamma, or None to certify none was found.

    The graph is given by its multiplicity matrix w, and the set by row
    positions.  Up to EXACT_CAP vertices every proper subset is swept, so a
    None is a real expander certificate; above that the Fiedler sweep is a
    heuristic whose None merely stops the caller's loop.
    """
    if not w.any():
        raise ValueError("conductance cut needs at least one edge")
    if len(w) < 2:
        return None
    if len(w) <= EXACT_CAP:
        side, phi = _exact_min_conductance(w)
        return (side, phi) if phi <= gamma else None
    return _spectral_cut(w, gamma)


def _default_gamma(m: int) -> float:
    return 1.0 / (100.0 * max(math.log2(max(m, 2)), 1.0))


def kt_sparsify(g: MultiGraph, params: KTParams) -> KTResult:
    """Contract expander cores until passive supervertices dominate the edges.

    Each round drops passive supervertices, trims, carves out low-conductance
    cuts until the remaining components look like expanders, shaves and
    scraps them, and contracts each surviving core to a supervertex.  If the
    graph's minimum k-cut is nontrivial and small, its edges run between
    cores and survive every contraction.  Rounds hold w, alive and piece
    (module docstring); a carved cut gives its side a fresh piece label.
    """
    delta = g.min_degree() if g.n > 0 else 0
    cur = g
    cmap = ContractionMap.identity(g.n)
    is_super = [False] * g.n
    records: List[KTIteration] = []
    while True:
        m = cur.m
        if m == 0:
            break
        gamma = params.gamma if params.gamma is not None else _default_gamma(m)
        threshold = (params.passive_threshold if params.passive_threshold is not None
                     else 3 * params.alpha * delta / gamma)
        w = _multiplicity(cur)
        deg = w.sum(axis=1)
        active = np.array([not (s and d <= threshold) for s, d in zip(is_super, deg.tolist())])
        # the edges with a passive end are those outside the active block of w
        if m - int(w[np.ix_(active, active)].sum()) // 2 >= STOP_FRACTION * m:
            break
        piece = np.zeros(cur.n, dtype=np.int64)
        alive = _trim(w, deg, active, piece)
        cut_total = 0
        while True:
            found = False
            # the blocks of the last pass, which finds no cut, are h's
            blocks = _components(_h_edges(w, alive, piece) > 0)
            for block in blocks:
                sub = w[np.ix_(block, block)]
                hit = low_conductance_cut(sub, gamma)
                if hit is not None:
                    side = np.isin(np.arange(len(block)), list(hit[0]))
                    cut_total += int(sub[np.ix_(side, ~side)].sum())
                    piece[block[side]] = piece.max() + 1
                    found = True
            if not found:
                break
            alive = _trim(w, deg, alive, piece)
        inner = _h_edges(w, alive, piece).sum(axis=1)
        regular = ~np.array(is_super, dtype=bool)
        cores = [c.tolist() for c in (_shave_scrap_core(b, w, deg, inner, regular)
                                      for b in blocks) if len(c)]
        labels, _ = union_find(cur.n, [(core[0], v) for core in cores for v in core])
        step = ContractionMap(tuple(labels))
        nxt = quotient(cur, step)
        new_super = [False] * nxt.n
        for v in [v for v in cur.vertices if is_super[v]] + [core[0] for core in cores]:
            new_super[step.apply(v)] = True
        records.append(KTIteration(
            edges_before=m, edges_after=nxt.m, cut_edges=cut_total,
            supervertices_after=sum(new_super),
            cores=len(cores), gamma=gamma))
        if nxt.n == cur.n and new_super == is_super:
            break  # no merge and no new supervertex: repeating would loop forever
        cur, cmap, is_super = nxt, cmap.compose(step), new_super
    return KTResult(cur, cmap, tuple(records))
