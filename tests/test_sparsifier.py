"""Sparsification: forest certificates and expander-core contraction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kcut.graph import MultiGraph, boundary, connected_components
from kcut.oracles import OracleBudget, brute_min_conductance
from kcut.solver import _ni_keeps_every_edge
from kcut.sparsify import (
    KTParams,
    _spectral_cut,
    kt_sparsify,
    low_conductance_cut,
    ni_sparsify,
    remove_vertices,
    shave_scrap_core,
    trim,
)
from helpers import complete_graph, cycle_graph, from_pairs, path_graph, random_simple_graph


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


def test_trim_fixpoint_when_equal():
    g = complete_graph(4)
    assert trim(g, g) == g


def test_trim_removes_weak_vertex():
    ref = complete_graph(4)
    weak = MultiGraph(4, [(e, *ref.endpoints(e)) for e in ref.edge_ids
                          if 0 not in ref.endpoints(e) or ref.endpoints(e) == (0, 1)])
    out = trim(weak, ref)
    assert out.degree(0) == 0
    assert {out.degree(v) for v in (1, 2, 3)} == {2}


def test_trim_empty_stays_empty():
    ref = complete_graph(3)
    out = trim(MultiGraph(3, []), ref)
    assert out.m == 0


def test_shave_keeps_whole_clique():
    g = complete_graph(5)
    assert shave_scrap_core(range(5), g, g) == frozenset(range(5))


def test_shave_scraps_lonely_vertex():
    # a singleton component: the stranded vertex is loose, scrap leaves nothing
    ref = from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    h = MultiGraph(3, [])
    assert shave_scrap_core([0], h, ref) == frozenset()


def test_shave_two_k6_component():
    g, _ = two_cliques_with_bridges(6, 1)
    h = remove_vertices(g, [])  # h == g; component = one K6
    comp = set(range(6))
    assert shave_scrap_core(comp, h, g) == frozenset(comp)


def test_low_conductance_cut_expander_none():
    assert low_conductance_cut(complete_graph(4), Fraction(1, 100)) is None
    assert low_conductance_cut(from_pairs(2, [(0, 1)]), Fraction(1, 2)) is None


def test_low_conductance_cut_two_k4():
    g, _ = two_cliques_with_bridges(4, 1)
    hit = low_conductance_cut(g, Fraction(1, 10))
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
    hit = low_conductance_cut(g, gamma)
    if hit is None:
        assert best > gamma
    else:
        assert hit[1] == best and best <= gamma


def test_spectral_cut_finds_clique_split():
    g, bridge_ids = two_cliques_with_bridges(12, 1)
    hit = _spectral_cut(g, 0.05)
    assert hit is not None
    side, phi = hit
    assert side in (frozenset(range(12)), frozenset(range(12, 24)))
    assert phi == Fraction(1, 133)


def test_spectral_expander_certificate():
    assert _spectral_cut(complete_graph(12), 0.05) is None


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
