"""Edge sparsification: connectivity certificates and expander contraction.

Two independent reducers live here.  `ni_sparsify` keeps a union of
iterated maximal spanning forests, which preserves every cut of size up
to the forest count exactly.  `kt_sparsify` repeatedly carves the graph
into expander cores and contracts them, shrinking the instance while
keeping every small nontrivial cut's edges alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .graph import (
    ContractionMap,
    MultiGraph,
    Partition,
    connected_components,
    cut_edge_set,
    induced_subgraph,
    is_simple,
    quotient,
    union_find,
)

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


def remove_vertices(g: MultiGraph, drop: Iterable[int]) -> MultiGraph:
    """Same vertex indexing; dropped vertices keep their slot but lose all edges."""
    gone = set(drop)
    edges = [(e, u, v) for e, (u, v) in ((e, g.endpoints(e)) for e in g.edge_ids)
             if u not in gone and v not in gone]
    return MultiGraph(g.n, edges)


def remove_edges(g: MultiGraph, drop: Iterable[int]) -> MultiGraph:
    gone = set(drop)
    return MultiGraph(g.n, [(e, *g.endpoints(e)) for e in g.edge_ids if e not in gone])


def trim(h: MultiGraph, reference: MultiGraph) -> MultiGraph:
    """Drop vertices whose h-degree fell below 2/5 of their reference degree.

    Removal repeats until stable; batch order does not matter because the
    condition is monotone under edge loss.  Removed vertices stay as
    isolated slots so indices line up with the reference graph.
    """
    if h.n != reference.n:
        raise ValueError("h and reference must share a vertex indexing")
    cur = h
    dead = set()
    while True:
        weak = [v for v in cur.vertices if v not in dead
                and cur.degree(v) < TRIM_FRACTION * reference.degree(v)]
        if not weak:
            return cur
        dead.update(weak)
        cur = remove_vertices(cur, weak)


def shave_scrap_core(
    component: Iterable[int],
    h: MultiGraph,
    reference: MultiGraph,
    regular: Optional[Sequence[bool]] = None,
) -> FrozenSet[int]:
    """Shave loose vertices off one component of h, then keep or scrap the rest.

    A vertex is loose when it is regular (never contracted) and at most half
    its reference degree stays inside the component.  What survives the shave
    is kept as a core only if it holds more than a quarter of the component's
    reference volume.
    """
    comp = sorted(set(component))
    inside = set(comp)
    ref_inner = {v: 0 for v in comp}
    for e in reference.edge_ids:
        u, v = reference.endpoints(e)
        if u in inside and v in inside:
            ref_inner[u] += 1
            ref_inner[v] += 1
    loose = set()
    for v in comp:
        is_regular = True if regular is None else regular[v]
        if is_regular and h.degree(v) <= LOOSE_FRACTION * reference.degree(v):
            loose.add(v)
    core = [v for v in comp if v not in loose]
    vol_core = sum(ref_inner[v] for v in core)
    vol_comp = sum(reference.degree(v) for v in comp)
    if vol_core <= SCRAP_FRACTION * vol_comp:
        return frozenset()
    return frozenset(core)


def _conductance_sweep(c: MultiGraph, toggles: Iterable[int]) -> Cut:
    """The least-conductance set S met while toggling each vertex in turn in or out of S.

    Cut and volume update incrementally; ratios compare by cross-multiplying,
    so the first minimum wins.
    """
    deg = [c.degree(v) for v in c.vertices]
    nbrs = [[c.other(e, v) for e in c.incident(v)] for v in c.vertices]
    total = 2 * c.m
    inside = [False] * c.n
    vol = cut = mask = 0
    best_cut, best_side, best_mask = None, 1, 0
    for v in toggles:
        inside[v] = not inside[v]
        sign = 1 if inside[v] else -1
        vol += sign * deg[v]
        cut += sign * sum(-1 if inside[w] else 1 for w in nbrs[v])
        mask ^= 1 << v
        side = min(vol, total - vol)
        if best_cut is None or cut * best_side < best_cut * side:
            best_cut, best_side, best_mask = cut, side, mask
    return frozenset(v for v in c.vertices if best_mask >> v & 1), Fraction(best_cut, best_side)


def _exact_min_conductance(c: MultiGraph) -> Cut:
    """Gray-code sweep over all proper subsets not containing vertex 0."""
    return _conductance_sweep(c, ((i & -i).bit_length() for i in range(1, 1 << (c.n - 1))))


def _spectral_cut(c: MultiGraph, gamma: Rational) -> Optional[Cut]:
    """Fiedler sweep; certify an expander via the easy Cheeger direction."""
    import numpy as np  # loaded here only, so `import kcut` stays numpy-free

    n = c.n
    a = np.zeros((n, n))
    for e in c.edge_ids:
        u, v = c.endpoints(e)
        a[u, v] += 1.0
        a[v, u] += 1.0
    inv_sqrt = 1.0 / np.sqrt([float(c.degree(v)) for v in c.vertices])
    lap = np.eye(n) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(lap)
    if float(vals[1]) >= 2 * float(gamma):
        return None  # lambda2/2 lower-bounds the conductance
    order = np.argsort(vecs[:, 1] * inv_sqrt, kind="stable")
    side, phi = _conductance_sweep(c, (int(v) for v in order[:n - 1]))
    if float(phi) > math.sqrt(max(math.log2(max(c.m, 2)), 1.0)) * float(gamma):
        return None  # sweep found nothing certifiably sparse; treat as expander
    return side, phi


def low_conductance_cut(c: MultiGraph, gamma: Rational) -> Optional[Cut]:
    """A vertex set of conductance at most gamma, or None to certify none was found.

    Up to EXACT_CAP vertices every proper subset is swept, so a None is a
    real expander certificate; above that the Fiedler sweep is a heuristic
    whose None merely stops the caller's loop.
    """
    if c.m == 0:
        raise ValueError("conductance cut needs at least one edge")
    if c.n < 2:
        return None
    if c.n <= EXACT_CAP:
        side, phi = _exact_min_conductance(c)
        return (side, phi) if phi <= gamma else None
    return _spectral_cut(c, gamma)


def _default_gamma(m: int) -> float:
    return 1.0 / (100.0 * max(math.log2(max(m, 2)), 1.0))


def kt_sparsify(g: MultiGraph, params: KTParams) -> KTResult:
    """Contract expander cores until passive supervertices dominate the edges.

    Each round drops passive supervertices, trims, carves out low-conductance
    cuts until the remaining components look like expanders, shaves and
    scraps them, and contracts each surviving core to a supervertex.  If the
    graph's minimum k-cut is nontrivial and small, its edges run between
    cores and survive every contraction.
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
        passive = {v for v in cur.vertices if is_super[v] and cur.degree(v) <= threshold}
        incident = sum(1 for u, v in cur.pairs if u in passive or v in passive)
        if incident >= STOP_FRACTION * m:
            break
        h = trim(remove_vertices(cur, passive), cur)
        cut_total = 0
        while True:
            found: List[FrozenSet[int]] = []
            # the blocks of the last pass, which finds no cut, are h's
            blocks = [b for b in connected_components(h).blocks if len(b) >= 2]
            for block in blocks:
                sub, vmap = induced_subgraph(h, block)
                hit = low_conductance_cut(sub, gamma)
                if hit is not None:
                    side, _ = hit
                    rest = frozenset(range(sub.n)) - side
                    found.append(cut_edge_set(sub, Partition([side, rest])))
            if not found:
                break
            removed = sorted(set().union(*found))
            cut_total += len(removed)
            h = trim(remove_edges(h, removed), cur)
        regular = [not s for s in is_super]
        cores = [c for c in (shave_scrap_core(b, h, cur, regular) for b in blocks) if c]
        marks = [min(core) for core in cores]
        labels, _ = union_find(cur.n, [(a, w) for a, core in zip(marks, cores) for w in core])
        step = ContractionMap(tuple(labels))
        nxt = quotient(cur, step)
        new_super = [False] * nxt.n
        for v in cur.vertices:
            if is_super[v]:
                new_super[step.apply(v)] = True
        for v in marks:
            new_super[step.apply(v)] = True
        records.append(KTIteration(
            edges_before=m, edges_after=nxt.m, cut_edges=cut_total,
            supervertices_after=sum(new_super),
            cores=len(cores), gamma=gamma))
        if nxt.n == cur.n and new_super == is_super:
            break  # no merge and no new supervertex: repeating would loop forever
        cur, cmap, is_super = nxt, cmap.compose(step), new_super
    return KTResult(cur, cmap, tuple(records))
