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

import numpy as np

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
    supervertices_before: int
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
    gamma: Optional[Rational] = None  # None: derived from the live edge count
    passive_threshold: Optional[Rational] = None  # None: 3*alpha*delta/gamma
    trim_fraction: Fraction = Fraction(2, 5)
    loose_fraction: Fraction = Fraction(1, 2)
    scrap_fraction: Fraction = Fraction(1, 4)
    stop_fraction: Fraction = Fraction(1, 20)
    conductance_mode: str = "exact"
    exact_cap: int = 20
    spectral_c: float = 1.0

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.conductance_mode not in ("exact", "spectral"):
            raise ValueError("unknown conductance mode %r" % self.conductance_mode)


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


def trim(h: MultiGraph, reference: MultiGraph, fraction: Fraction = Fraction(2, 5)) -> MultiGraph:
    """Drop vertices whose h-degree fell below `fraction` of their reference degree.

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
                and cur.degree(v) < fraction * reference.degree(v)]
        if not weak:
            return cur
        dead.update(weak)
        cur = remove_vertices(cur, weak)


def shave_scrap_core(
    component: Iterable[int],
    h: MultiGraph,
    reference: MultiGraph,
    regular: Optional[Sequence[bool]] = None,
    loose_fraction: Fraction = Fraction(1, 2),
    scrap_fraction: Fraction = Fraction(1, 4),
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
        if is_regular and h.degree(v) <= loose_fraction * reference.degree(v):
            loose.add(v)
    core = [v for v in comp if v not in loose]
    vol_core = sum(ref_inner[v] for v in core)
    vol_comp = sum(reference.degree(v) for v in comp)
    if vol_core <= scrap_fraction * vol_comp:
        return frozenset()
    return frozenset(core)


def _exact_min_conductance(c: MultiGraph) -> Tuple[FrozenSet[int], Fraction]:
    """Gray-code sweep over all proper subsets not containing vertex 0."""
    n = c.n
    ends = [c.endpoints(e) for e in c.edge_ids]
    deg = [c.degree(v) for v in c.vertices]
    total = 2 * c.m
    adj = [[] for _ in range(n)]
    for u, v in ends:
        adj[u].append(v)
        adj[v].append(u)
    inside = [False] * n
    vol = 0
    cut = 0
    best_num, best_den, best_mask = None, None, None
    mask = 0
    for i in range(1, 1 << (n - 1)):
        bit = (i & -i).bit_length() - 1
        v = bit + 1
        if inside[v]:
            inside[v] = False
            vol -= deg[v]
            cut += sum(1 if inside[w] else -1 for w in adj[v])
            mask &= ~(1 << v)
        else:
            inside[v] = True
            vol += deg[v]
            cut += sum(-1 if inside[w] else 1 for w in adj[v])
            mask |= 1 << v
        side = min(vol, total - vol)
        if best_num is None or cut * best_den < best_num * side:
            best_num, best_den, best_mask = cut, side, mask
    chosen = frozenset(v for v in range(n) if best_mask >> v & 1)
    return chosen, Fraction(best_num, best_den)


def _spectral_cut(
    c: MultiGraph, gamma: Rational, spectral_c: float
) -> Optional[Tuple[FrozenSet[int], Fraction]]:
    """Fiedler sweep; certify an expander via the easy Cheeger direction."""
    n = c.n
    deg = np.array([c.degree(v) for v in c.vertices], dtype=float)
    a = np.zeros((n, n))
    for e in c.edge_ids:
        u, v = c.endpoints(e)
        a[u, v] += 1.0
        a[v, u] += 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(lap)
    lam2 = float(vals[1])
    if lam2 >= 2 * float(gamma):
        return None  # lambda2/2 lower-bounds the conductance
    fiedler = vecs[:, 1] * inv_sqrt
    order = np.argsort(fiedler, kind="stable")
    inside = [False] * n
    vol = 0
    cut = 0
    total = 2 * c.m
    adj = [[] for _ in range(n)]
    for e in c.edge_ids:
        u, v = c.endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
    best: Optional[Tuple[Fraction, int]] = None
    for i in range(n - 1):
        v = int(order[i])
        inside[v] = True
        vol += int(deg[v])
        cut += sum(-1 if inside[w] else 1 for w in adj[v])
        phi = Fraction(cut, min(vol, total - vol))
        if best is None or phi < best[0]:
            best = (phi, i)
    phi, upto = best
    if float(phi) > spectral_c * math.sqrt(max(math.log2(max(c.m, 2)), 1.0)) * float(gamma):
        return None  # sweep found nothing certifiably sparse; treat as expander
    return frozenset(int(order[j]) for j in range(upto + 1)), phi


def low_conductance_cut(
    c: MultiGraph,
    gamma: Rational,
    mode: str = "exact",
    exact_cap: int = 20,
    spectral_c: float = 1.0,
) -> Optional[Tuple[FrozenSet[int], Fraction]]:
    """A vertex set of conductance at most gamma, or None to certify none was found.

    Exact mode enumerates whenever the component is small enough, so a None
    is a real expander certificate there; the spectral path is a heuristic
    whose None merely stops the caller's loop.
    """
    if c.m == 0:
        raise ValueError("conductance cut needs at least one edge")
    if c.n < 2:
        return None
    if mode == "exact" and c.n <= exact_cap:
        side, phi = _exact_min_conductance(c)
        return (side, phi) if phi <= gamma else None
    return _spectral_cut(c, gamma, spectral_c)


def _default_gamma(mode: str, m: int, spectral_c: float) -> float:
    logm = max(math.log2(max(m, 2)), 1.0)
    if mode == "exact":
        return 1.0 / (100.0 * logm)
    return 1.0 / (100.0 * spectral_c * logm ** 1.5)


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
        gamma = params.gamma if params.gamma is not None else _default_gamma(
            params.conductance_mode, m, params.spectral_c)
        threshold = (params.passive_threshold if params.passive_threshold is not None
                     else 3 * params.alpha * delta / gamma)
        passive = {v for v in cur.vertices if is_super[v] and cur.degree(v) <= threshold}
        incident = sum(1 for e in cur.edge_ids
                       if passive & set(cur.endpoints(e)))
        if incident >= params.stop_fraction * m:
            break
        h = trim(remove_vertices(cur, passive), cur, params.trim_fraction)
        cut_total = 0
        while True:
            found: List[FrozenSet[int]] = []
            for block in connected_components(h).blocks:
                if len(block) < 2:
                    continue
                sub, vmap = induced_subgraph(h, block)
                hit = low_conductance_cut(sub, gamma, params.conductance_mode,
                                          params.exact_cap, params.spectral_c)
                if hit is not None:
                    side, _ = hit
                    rest = frozenset(range(sub.n)) - side
                    found.append(cut_edge_set(sub, Partition([side, rest])))
            if not found:
                break
            removed = sorted(set().union(*found))
            cut_total += len(removed)
            h = trim(remove_edges(h, removed), cur, params.trim_fraction)
        cores = []
        for block in connected_components(h).blocks:
            if len(block) < 2:
                continue
            core = shave_scrap_core(block, h, cur, [not s for s in is_super],
                                    params.loose_fraction, params.scrap_fraction)
            if core:
                cores.append(core)
        sv_before = sum(is_super)
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
            supervertices_before=sv_before, supervertices_after=sum(new_super),
            cores=len(cores), gamma=gamma))
        if nxt.n == cur.n and new_super == is_super:
            break  # no merge and no new supervertex: repeating would loop forever
        cur, cmap, is_super = nxt, cmap.compose(step), new_super
    return KTResult(cur, cmap, tuple(records))
