"""Reference values for benchmark instances, computed outside the timed process.

A reference is either the optimum (`known=True`: closed form, brute force,
or Stoer-Wagner for k = 2) or a proven lower bound from a Gomory-Hu tree
(`known=False`).  Every valid answer is at least the reference; an answer
equal to a known optimum is optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import networkx as nx

from instances import Instance, Pair


@dataclass(frozen=True)
class Reference:
    value: int
    known: bool


def weighted_graph(pairs: Sequence[Pair]) -> nx.Graph:
    """Simple graph whose edge weights are the pair multiplicities."""
    g = nx.Graph()
    for u, v in pairs:
        if g.has_edge(u, v):
            g[u][v]["weight"] += 1
        else:
            g.add_edge(u, v, weight=1)
    return g


def stoer_wagner_value(pairs: Sequence[Pair]) -> int:
    """Exact global minimum cut (the minimum 2-cut); 0 when disconnected."""
    g = weighted_graph(pairs)
    if not nx.is_connected(g):
        return 0
    value, _ = nx.stoer_wagner(g)
    return value


def gomory_hu_weights(pairs: Sequence[Pair]) -> List[int]:
    """Edge weights of a Gomory-Hu tree, components joined by weight-0 edges."""
    g = weighted_graph(pairs)
    weights: List[int] = []
    comps = list(nx.connected_components(g))
    for comp in comps:
        if len(comp) < 2:
            continue
        tree = nx.gomory_hu_tree(g.subgraph(comp), capacity="weight")
        weights.extend(d["weight"] for _, _, d in tree.edges(data=True))
    weights.extend([0] * (len(comps) - 1))
    return sorted(weights)


def gomory_hu_bound(pairs: Sequence[Pair], k: int) -> int:
    """max(ceil(k*lam/2), ceil(w_{k-1} / (2 - 2/k))), a lower bound on the min k-cut.

    Every block of a k-cut has boundary at least lam (the global min cut),
    and the k-1 lightest Gomory-Hu tree edges sum to at most (2 - 2/k) OPT
    (Saran and Vazirani).
    """
    weights = gomory_hu_weights(pairs)
    lam = weights[0]
    lightest = sum(weights[:k - 1])
    by_tree = math.ceil(lightest * k / (2 * k - 2)) if k > 1 else 0
    return max(math.ceil(k * lam / 2), by_tree)


def brute_value(pairs: Sequence[Pair], k: int, kcut_module) -> int:
    """kcut.oracles.brute_min_kcut on the same vertex set the parser sees."""
    ids: Dict[int, int] = {}
    dense = [(ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids))) for u, v in pairs]
    g = kcut_module.MultiGraph.from_edge_list(len(ids), dense)
    return kcut_module.brute_min_kcut(g, k).value


def reference(inst: Instance, kcut_module) -> Reference:
    if inst.reference == "closed_form":
        return Reference(inst.closed_form, True)
    if inst.reference == "brute":
        return Reference(brute_value(inst.pairs, inst.k, kcut_module), True)
    if inst.reference == "stoer_wagner":
        if inst.k != 2:
            raise ValueError("Stoer-Wagner gives the optimum for k = 2 only")
        return Reference(stoer_wagner_value(inst.pairs), True)
    if inst.reference == "gomory_hu":
        return Reference(gomory_hu_bound(inst.pairs, inst.k), False)
    raise ValueError("unknown reference kind %r" % inst.reference)


