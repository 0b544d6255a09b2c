"""Graph text formats, instance generators, and JSON result reports."""

from __future__ import annotations

import json
import random
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ParseError
from .graph import KCutSolution, MultiGraph, cut_value, is_simple
from .oracles import max_edges_among

FORMATS = ("edgelist", "dimacs")
SCHEMA = 1


def parse_graph(text: str, fmt: str = "edgelist") -> Tuple[MultiGraph, Tuple[str, ...]]:
    """Graph plus the vertex label for each internal id.

    Edgelist lines are two whitespace-separated tokens with '#' comments;
    labels become ids in order of first appearance and duplicate lines
    give parallel edges.  DIMACS is the classic "p edge n m" header with
    1-indexed "e u v" lines and 'c' comments.
    """
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise ValueError("unknown format %r (choose from %s)" % (fmt, (FORMATS,)))


def _parse_edgelist(text: str) -> Tuple[MultiGraph, Tuple[str, ...]]:
    ids: Dict[str, int] = {}
    pairs: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError("expected two vertex tokens, got %d" % len(tokens), lineno)
        a, b = tokens
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        if u == v:
            raise ParseError("self-loop %r" % a, lineno)
        pairs.append((u, v))
    return MultiGraph.from_edge_list(len(ids), pairs), tuple(ids)


def _parse_dimacs(text: str) -> Tuple[MultiGraph, Tuple[str, ...]]:
    n = None
    declared = 0
    pairs: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("second problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("problem line must be 'p edge n m'", lineno)
            try:
                n, declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError("problem line must be 'p edge n m'", lineno)
            if n < 0 or declared < 0:
                raise ParseError("negative size in problem line", lineno)
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(tokens) != 3:
                raise ParseError("edge line must be 'e u v'", lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("edge line must be 'e u v'", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError("vertex out of range 1..%d" % n, lineno)
            if u == v:
                raise ParseError("self-loop at vertex %d" % u, lineno)
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError("unknown line type %r" % tokens[0], lineno)
    if n is None:
        raise ParseError("missing problem line")
    if len(pairs) != declared:
        raise ParseError("header declares %d edges, found %d" % (declared, len(pairs)))
    return MultiGraph.from_edge_list(n, pairs), tuple(str(v + 1) for v in range(n))


def serialize_graph(g: MultiGraph, labels: Optional[Sequence[str]] = None,
                    fmt: str = "edgelist") -> str:
    """Inverse of parse_graph up to canonical relabeling."""
    if labels is None:
        labels = tuple(str(v) for v in g.vertices)
    if len(labels) != g.n:
        raise ValueError("need one label per vertex")
    lines = []
    if fmt == "edgelist":
        for e in g.edge_ids:
            u, v = g.endpoints(e)
            lines.append("%s %s" % (labels[u], labels[v]))
    elif fmt == "dimacs":
        lines.append("p edge %d %d" % (g.n, g.m))
        for e in g.edge_ids:
            u, v = g.endpoints(e)
            lines.append("e %d %d" % (u + 1, v + 1))
    else:
        raise ValueError("unknown format %r (choose from %s)" % (fmt, (FORMATS,)))
    return "\n".join(lines) + ("\n" if lines else "")


def gen_clique_reduction(g: MultiGraph, k: int) -> Tuple[MultiGraph, int]:
    """Embed g in a padded clique so its densest subgraphs become min k-cuts.

    H is g plus a clique W on k^2*n fresh vertices, with every original
    vertex topped up to degree exactly n via edges to the lowest-indexed
    W vertices.  The cheapest k-cut of H isolates k-1 original vertices,
    so its value is (k-1)*n minus the best edge count among k-1 of them.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not is_simple(g):
        raise ValueError("padding needs a simple graph")
    n = g.n
    for v in g.vertices:
        if g.degree(v) > n:
            raise ValueError("degree %d of vertex %d exceeds n=%d" % (g.degree(v), v, n))
    w = k * k * n
    pairs = [tuple(g.endpoints(e)) for e in g.edge_ids]
    for v in g.vertices:
        for t in range(n - g.degree(v)):
            pairs.append((v, n + t))
    pairs.extend((i, j) for i, j in combinations(range(n, n + w), 2))
    expected = (k - 1) * n - max_edges_among(g, k - 1)
    return MultiGraph.from_edge_list(n + w, pairs), expected


def gen_random(n: int, seed: int, p: Optional[float] = None,
               m: Optional[int] = None, simple: bool = True) -> MultiGraph:
    """Seeded random graph: edge probability p, or exactly m edges."""
    if (p is None) == (m is None):
        raise ValueError("give exactly one of p and m")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(seed)
    if p is not None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not simple:
            raise ValueError("probability sampling always yields a simple graph")
        pairs = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
        return MultiGraph.from_edge_list(n, pairs)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if simple:
        pool = list(combinations(range(n), 2))
        if m > len(pool):
            raise ValueError("m=%d exceeds the %d simple edges on %d vertices"
                             % (m, len(pool), n))
        pairs = sorted(rng.sample(pool, m))
    else:
        if n < 2 and m > 0:
            raise ValueError("need at least two vertices for an edge")
        pairs = []
        while len(pairs) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.append((u, v) if u < v else (v, u))
        pairs.sort()
    return MultiGraph.from_edge_list(n, pairs)


def solution_payload(g: MultiGraph, labels: Sequence[str], sol: KCutSolution) -> dict:
    """Solution block for a report; re-scores so value never drifts from blocks."""
    assert sol.value == cut_value(g, sol.partition)
    blocks = [[labels[v] for v in sorted(b)] for b in sol.partition.blocks]
    return {
        "value": sol.value,
        "blocks": blocks,
        "cut_edges": sorted(sol.cut_edges),
        "provenance": sol.provenance,
    }


def build_report(command: str, *, n: int, m: Optional[int] = None, k: Optional[int] = None,
                 seed: Optional[int] = None, solution: Optional[dict] = None,
                 stats: Optional[dict] = None, times: Optional[dict] = None,
                 extra: Optional[dict] = None) -> dict:
    report = {
        "schema": SCHEMA,
        "command": command,
        "instance": {"n": n, "m": m, "k": k, "seed": seed},
    }
    if solution is not None:
        report["solution"] = solution
    if stats is not None:
        report["stats"] = stats
    if times is not None:
        report["times"] = times
    if extra:
        report.update(extra)
    return report


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
