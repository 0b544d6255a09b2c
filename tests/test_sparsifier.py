"""Sparsification: forest certificates and expander-core contraction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcut.graph import MultiGraph, boundary, connected_components
from kcut.oracles import OracleBudget, brute_min_conductance
from kcut.solver import _ni_keeps_every_edge
from kcut.sparsify import (
    KTParams,
    _multiplicity,
    _shave_scrap_core,
    _spectral_cut,
    _trim,
    kt_sparsify,
    low_conductance_cut,
    ni_sparsify,
)
from helpers import (
    complete_graph,
    cycle_graph,
    from_pairs,
    path_graph,
    random_multigraph,
    random_simple_graph,
    reference_kt_sparsify,
)


def two_cliques_with_bridges(size, bridges):
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    pairs += [(size + i, size + j) for i in range(size) for j in range(i + 1, size)]
    pairs += [(i, size + i) for i in range(bridges)]
    return from_pairs(2 * size, pairs), list(range(len(pairs) - bridges, len(pairs)))


def test_ni_single_forest_is_spanning_tree():
    g = complete_graph(5)
    res = ni_sparsify(g, 1)
    assert res.subgraph.m == 4
    assert connected_components(res.subgraph).k == 1


def test_ni_k4_two_forests():
    g = complete_graph(4)
    res = ni_sparsify(g, 2)
    assert res.subgraph.m <= 2 * 4
    assert len(res.forests) == 2
    for subset in range(1, 15):
        s = {v for v in range(4) if subset >> v & 1}
        if len(boundary(g, [s])) <= 2:
            assert boundary(res.subgraph, [s]) == boundary(g, [s])


def test_ni_forest_input_unchanged():
    g = path_graph(6)
    for lam in (1, 2, 5):
        assert set(ni_sparsify(g, lam).subgraph.edge_ids) == set(g.edge_ids)


def test_ni_rejects_parallel_edges():
    g = from_pairs(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        ni_sparsify(g, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4))
def test_ni_preserves_small_boundaries(seed, lam):
    rng = random.Random(seed)
    g = random_simple_graph(rng, rng.randrange(4, 10), 0.5)
    res = ni_sparsify(g, lam)
    assert res.subgraph.m <= lam * g.n
    for _ in range(60):
        s = {v for v in g.vertices if rng.random() < 0.5}
        if s and len(s) < g.n and len(boundary(g, [s])) <= lam:
            assert boundary(res.subgraph, [s]) == boundary(g, [s])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=12),
       st.floats(min_value=0.2, max_value=0.9))
def test_ni_keeps_every_edge_at_the_degree_bound(seed, n, p):
    # an edge uv always lands in one of the first min(deg u, deg v) forests
    g = random_simple_graph(random.Random(seed), n, p)
    if g.m == 0:
        return
    lam = max(min(g.degree(u), g.degree(v)) for u, v in g.pairs)
    assert ni_sparsify(g, lam).subgraph == g
    # the solver skips NI exactly from this bound on
    assert _ni_keeps_every_edge(g, lam)
    assert not _ni_keeps_every_edge(g, lam - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=0.9))
def test_ni_keeps_every_edge_matches_ni_sparsify(seed, n, p):
    # below, at and above the largest degree, where the check returns early;
    # it is sufficient, not necessary (one forest keeps a whole tree), so it
    # is held to the per-edge degree rule and to NI wherever it says yes
    g = random_simple_graph(random.Random(seed), n, p)
    top = max(g.degree(v) for v in g.vertices)
    for lam in range(1, top + 3):
        keeps = _ni_keeps_every_edge(g, lam)
        assert keeps == all(min(g.degree(u), g.degree(v)) <= lam for u, v in g.pairs)
        if keeps:
            assert ni_sparsify(g, lam).subgraph == g


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_ni_forests_are_maximal_and_disjoint(seed):
    rng = random.Random(seed)
    g = random_simple_graph(rng, 8, 0.5)
    res = ni_sparsify(g, 3)
    taken = set()
    for forest in res.forests:
        assert not (forest & taken)
        # maximality: every edge not picked joins already-connected endpoints
        head = list(range(g.n))

        def find(x):
            while head[x] != x:
                head[x] = head[head[x]]
                x = head[x]
            return x

        for e in sorted(forest):
            u, v = g.endpoints(e)
            assert find(u) != find(v)
            head[find(u)] = find(v)
        for e in g.edge_ids:
            if e not in taken and e not in forest:
                u, v = g.endpoints(e)
                assert find(u) == find(v)
        taken |= forest


def whole(n):
    """h equal to the round's graph: every vertex alive, all in one piece."""
    return np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64)


def h_degrees(w, alive, piece):
    return [sum(int(w[v, u]) for u in range(len(w)) if alive[u] and piece[u] == piece[v])
            if alive[v] else 0 for v in range(len(w))]


def test_multiplicity_counts_parallel_edges():
    w = _multiplicity(from_pairs(3, [(0, 1), (1, 0), (1, 2)]))
    assert w.tolist() == [[0, 2, 0], [2, 0, 1], [0, 1, 0]]


def test_trim_fixpoint_when_equal():
    w = _multiplicity(complete_graph(4))
    alive, piece = whole(4)
    assert _trim(w, w.sum(axis=1), alive, piece).all()


def test_trim_removes_weak_vertex():
    ref = complete_graph(4)
    weak = MultiGraph(4, [(e, *ref.endpoints(e)) for e in ref.edge_ids
                          if 0 not in ref.endpoints(e) or ref.endpoints(e) == (0, 1)])
    w = _multiplicity(weak)
    alive, piece = whole(4)
    out = _trim(w, _multiplicity(ref).sum(axis=1), alive, piece)
    assert out.tolist() == [False, True, True, True]
    assert h_degrees(w, out, piece) == [0, 2, 2, 2]


def test_trim_empty_stays_empty():
    w = _multiplicity(complete_graph(3))
    dead = np.zeros(3, dtype=bool)
    assert not _trim(w, w.sum(axis=1), dead, np.zeros(3, dtype=np.int64)).any()


def shave(comp, w, alive, piece):
    """`_shave_scrap_core` on h given by alive and piece, every vertex regular."""
    inner = np.array(h_degrees(w, alive, piece))
    return set(_shave_scrap_core(np.array(sorted(comp)), w, w.sum(axis=1), inner,
                                 np.ones(len(w), dtype=bool)).tolist())


def test_shave_keeps_whole_clique():
    w = _multiplicity(complete_graph(5))
    assert shave(range(5), w, *whole(5)) == set(range(5))


def test_shave_scraps_lonely_vertex():
    # a singleton component: the stranded vertex is loose, scrap leaves nothing
    w = _multiplicity(from_pairs(3, [(0, 1), (0, 2), (1, 2)]))
    assert shave([0], w, np.zeros(3, dtype=bool), np.zeros(3, dtype=np.int64)) == set()


def test_shave_two_k6_component():
    g, _ = two_cliques_with_bridges(6, 1)
    comp = set(range(6))  # h == g; component = one K6
    assert shave(comp, _multiplicity(g), *whole(12)) == comp


def test_shave_spares_supervertices():
    # vertex 0 keeps 1 of its 4 edges in h: loose when regular, kept when a
    # supervertex (contracted in an earlier round)
    w = _multiplicity(complete_graph(5))
    block, deg, inner = np.arange(5), w.sum(axis=1), np.array([1, 4, 4, 4, 4])
    regular = np.ones(5, dtype=bool)
    assert _shave_scrap_core(block, w, deg, inner, regular).tolist() == [1, 2, 3, 4]
    regular[0] = False
    assert _shave_scrap_core(block, w, deg, inner, regular).tolist() == [0, 1, 2, 3, 4]


def test_low_conductance_cut_expander_none():
    assert low_conductance_cut(_multiplicity(complete_graph(4)), Fraction(1, 100)) is None
    assert low_conductance_cut(_multiplicity(from_pairs(2, [(0, 1)])), Fraction(1, 2)) is None


def test_low_conductance_cut_two_k4():
    g, _ = two_cliques_with_bridges(4, 1)
    hit = low_conductance_cut(_multiplicity(g), Fraction(1, 10))
    assert hit is not None
    side, phi = hit
    assert phi == Fraction(1, 13)
    assert side in (frozenset(range(4)), frozenset(range(4, 8)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_exact_cut_matches_oracle(seed):
    rng = random.Random(seed)
    g = random_simple_graph(rng, rng.randrange(3, 9), 0.7)
    if connected_components(g).k != 1 or g.m == 0:
        return
    _, best = brute_min_conductance(g, OracleBudget(max_vertices=10, max_subsets=1 << 10))
    gamma = Fraction(1, 3)
    hit = low_conductance_cut(_multiplicity(g), gamma)
    if hit is None:
        assert best > gamma
    else:
        assert hit[1] == best and best <= gamma


def test_spectral_cut_finds_clique_split():
    g, bridge_ids = two_cliques_with_bridges(12, 1)
    hit = _spectral_cut(_multiplicity(g), 0.05)
    assert hit is not None
    side, phi = hit
    assert side in (frozenset(range(12)), frozenset(range(12, 24)))
    assert phi == Fraction(1, 133)


def test_spectral_sweep_keeps_the_first_minimum():
    # three K8s chained by single edges: one clique and two cliques both
    # cut 1 edge against a side volume of 57; the sweep meets one first
    g = from_pairs(24, clique_pairs(0, 8) + clique_pairs(8, 8) + clique_pairs(16, 8)
                   + [(0, 8), (8, 16)])
    side, phi = _spectral_cut(_multiplicity(g), Fraction(1, 2))
    assert phi == Fraction(1, 57)
    assert side in (frozenset(range(8)), frozenset(range(16, 24)))


def test_spectral_expander_certificate():
    assert _spectral_cut(_multiplicity(complete_graph(12)), 0.05) is None


def test_kt_collapses_clique():
    g = complete_graph(8)
    res = kt_sparsify(g, KTParams(alpha=1))
    assert res.contracted.n == 1
    assert res.contracted.m == 0
    assert len(res.iterations) == 1
    assert res.iterations[0].cores == 1
    assert {res.map.apply(v) for v in g.vertices} == {0}


def test_kt_preserves_bridge_cut():
    g, bridge_ids = two_cliques_with_bridges(20, 3)
    res = kt_sparsify(g, KTParams(alpha=1, gamma=Fraction(1, 20)))
    assert res.contracted.n <= 4
    assert set(bridge_ids) <= set(res.contracted.edge_ids)
    # the two clique sides stay apart
    a = res.map.apply(0)
    b = res.map.apply(20)
    assert a != b


def test_kt_guard_exit_after_one_round():
    g, _ = two_cliques_with_bridges(20, 3)
    res = kt_sparsify(g, KTParams(alpha=1, gamma=Fraction(1, 20)))
    # after the contraction round both supervertices are passive and every
    # remaining edge touches one, so the loop stops with a single record
    assert len(res.iterations) == 1
    assert res.iterations[0].supervertices_after == 2


def test_kt_stop_rule_counts_edges_with_one_passive_end():
    # three K20s hang off vertex 60; carving cuts two of its edges, so trim
    # drops it and it stays regular.  Every edge left then runs from it to a
    # passive supervertex, which stops the loop after one record.
    g = from_pairs(61, [(b + i, b + j) for b in (0, 20, 40) for i in range(20)
                        for j in range(i + 1, 20)] + [(60, 0), (60, 20), (60, 40)])
    res = kt_sparsify(g, KTParams(alpha=1, gamma=Fraction(1, 20)))
    assert list(res.map.mapping) == [0] * 20 + [1] * 20 + [2] * 20 + [3]
    assert [(it.edges_before, it.edges_after, it.cut_edges, it.supervertices_after, it.cores)
            for it in res.iterations] == [(573, 3, 2, 3, 3)]


def test_kt_statistics_monotone():
    g = complete_graph(9)
    res = kt_sparsify(g, KTParams(alpha=1))
    for it in res.iterations:
        assert it.edges_after <= it.edges_before


def clique_pairs(lo, size):
    return [(lo + i, lo + j) for i in range(size) for j in range(i + 1, size)]


def clique_gnp_clique_chain():
    rng = random.Random(3)
    pairs = clique_pairs(0, 50)
    pairs += [(50 + i, 50 + j) for i in range(50) for j in range(i + 1, 50) if rng.random() < 0.8]
    pairs += clique_pairs(100, 50)
    pairs += [(0, 50), (1, 51), (60, 100), (61, 101)]  # 2 links per gap
    return from_pairs(150, pairs)


@pytest.mark.parametrize("g, kept, images, counts", [
    (from_pairs(120, clique_pairs(0, 60) + clique_pairs(60, 60) + [(59, 60)]),
     [3540], [0] * 60 + [1] * 60, [(3541, 1, 1, 2, 2)]),
    (clique_gnp_clique_chain(),
     [3422, 3423], [0] * 100 + [1] * 50, [(3424, 2, 2, 2, 2)]),
])
def test_kt_default_gamma_spectral_pinned(g, kept, images, counts):
    # the solver's k=2 call: components above the exact-sweep size go
    # through the Fiedler sweep at the default gamma
    res = kt_sparsify(g, KTParams(alpha=4))
    assert sorted(res.contracted.edge_ids) == kept
    assert list(res.map.mapping) == images
    assert [(it.edges_before, it.edges_after, it.cut_edges, it.supervertices_after, it.cores)
            for it in res.iterations] == counts
    for it in res.iterations:
        assert it.gamma == pytest.approx(1 / (100 * math.log2(it.edges_before)))


KT_PARAMS = [KTParams(alpha=1), KTParams(alpha=4), KTParams(alpha=1, gamma=Fraction(1, 20)),
             KTParams(alpha=1, gamma=Fraction(1, 2)), KTParams(alpha=2, passive_threshold=3)]
KT_IDS = ["alpha1", "alpha4", "gamma-1/20", "gamma-1/2", "threshold"]


def small_blocks(rng):
    """2-3 dense blocks of 3-4 vertices chained by 1-3 edges, maybe a hub
    vertex joined into several blocks, short tails, and repeated edges."""
    pairs, blocks, n = [], [], 0
    for _ in range(rng.randrange(2, 4)):
        size, p = rng.randrange(3, 5), rng.choice([1.0, 0.8])
        blocks.append((n, size))
        pairs += [(n + i, n + j) for i in range(size) for j in range(i + 1, size)
                  if rng.random() < p]
        n += size
    for (a, sa), (b, sb) in zip(blocks, blocks[1:]):
        pairs += [(a + rng.randrange(sa), b + rng.randrange(sb))
                  for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.5:
        for a, sa in rng.sample(blocks, rng.randrange(2, len(blocks) + 1)):
            pairs += [(n, a + rng.randrange(sa)) for _ in range(rng.randrange(1, 4))]
        n += 1
    for _ in range(rng.randrange(0, 3)):
        end = rng.randrange(n)
        for _ in range(rng.randrange(1, 3)):
            pairs.append((end, n))
            end, n = n, n + 1
    pairs += [rng.choice(pairs) for _ in range(rng.randrange(0, len(pairs) // 3 + 1))]
    return from_pairs(n, pairs)


def kt_fingerprint(res):
    return res.contracted, res.map, res.iterations


@pytest.mark.parametrize("params", KT_PARAMS, ids=KT_IDS)
def test_kt_matches_the_multigraph_reference(params):
    # seeded small chained blocks, which carve, trim, shave and run second
    # rounds through the exact sweep, and multigraphs of 21-40 vertices,
    # whose first search is spectral (a 20-vertex exact sweep takes seconds)
    rng = random.Random(25)
    graphs = [small_blocks(rng) for _ in range(24)]
    for _ in range(8):
        n = rng.randrange(21, 41)
        graphs.append(random_multigraph(rng, n, rng.randrange(1, 5 * n)))
    for g in graphs:
        assert kt_fingerprint(kt_sparsify(g, params)) == \
            kt_fingerprint(reference_kt_sparsify(g, params))


@pytest.mark.parametrize("sizes, links", [((30, 30), 2), ((22, 22, 22), 1)])
def test_kt_matches_the_reference_on_chained_dense_cliques(sizes, links):
    # three equal cliques tie the Fiedler sweep at one and at two cliques
    bases = [sum(sizes[:i]) for i in range(len(sizes))]
    pairs = [p for base, size in zip(bases, sizes) for p in clique_pairs(base, size)]
    pairs += [(a + j, b + j) for a, b in zip(bases, bases[1:]) for j in range(links)]
    g = from_pairs(sum(sizes), pairs)
    for params in KT_PARAMS:
        assert kt_fingerprint(kt_sparsify(g, params)) == \
            kt_fingerprint(reference_kt_sparsify(g, params))


def test_kt_matches_the_reference_when_shaving_around_a_supervertex():
    # a 15-vertex multigraph drawn by small_blocks: in its third round at
    # gamma 1/2, a supervertex with few edges left in h stays in its core,
    # where a regular vertex would be shaved off
    pairs = [(0, 1), (0, 2), (0, 3), (0, 7), (1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 5),
             (1, 5), (1, 12), (2, 3), (2, 12), (2, 12), (4, 5), (4, 8), (4, 8), (4, 12), (4, 12),
             (5, 6), (5, 7), (5, 12), (5, 13), (6, 7), (6, 8), (8, 9), (8, 10), (8, 11), (8, 11),
             (8, 12), (9, 10), (9, 11), (9, 11), (10, 11), (10, 12), (10, 12), (11, 12), (13, 14)]
    g, params = from_pairs(15, pairs), KTParams(alpha=1, gamma=Fraction(1, 2))
    res = kt_sparsify(g, params)
    assert kt_fingerprint(res) == kt_fingerprint(reference_kt_sparsify(g, params))
    assert list(res.map.mapping) == [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3]
    assert len(res.iterations) == 3
