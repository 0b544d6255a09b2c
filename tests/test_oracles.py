"""Reference oracles: exact k-cut, tree k-cut, conductance, ancestor cuts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kcut.errors import BudgetExceeded, Infeasible
from kcut.graph import MultiGraph, cut_value
from kcut.oracles import (
    OracleBudget,
    brute_min_ancestor_cut,
    brute_min_conductance,
    brute_min_kcut,
    brute_tree_kcut,
    max_edges_among,
)
from kcut.tree import RootedTree
from helpers import (
    complete_graph,
    cycle_graph,
    from_pairs,
    path_graph,
    random_connected_graph,
    random_simple_graph,
    reference_min_kcut,
)


def spanning_path(g, order):
    pairs = list(zip(order, order[1:]))
    ids = []
    for a, b in pairs:
        ids.append(next(e for e in g.edge_ids if set(g.endpoints(e)) == {a, b}))
    return RootedTree(g.n, order[0], [(e, *g.endpoints(e)) for e in ids])


def random_spanning_tree(rng, g):
    ids = list(g.edge_ids)
    rng.shuffle(ids)
    head = list(range(g.n))

    def find(x):
        while head[x] != x:
            head[x] = head[head[x]]
            x = head[x]
        return x

    chosen = []
    for e in ids:
        u, v = g.endpoints(e)
        if find(u) != find(v):
            head[find(u)] = find(v)
            chosen.append(e)
    return RootedTree.from_edge_ids(g, chosen, root=rng.randrange(g.n))


def test_min_kcut_small_cases():
    assert brute_min_kcut(cycle_graph(6), 3).value == 3
    assert brute_min_kcut(complete_graph(4), 2).value == 3
    assert brute_min_kcut(path_graph(4), 2).value == 1


def test_min_kcut_solution_is_consistent():
    sol = brute_min_kcut(complete_graph(4), 3)
    assert sol.partition.k == 3
    assert sol.value == cut_value(complete_graph(4), sol.partition)
    assert len(sol.cut_edges) == sol.value


def test_min_kcut_infeasible_and_budget():
    with pytest.raises(Infeasible):
        brute_min_kcut(path_graph(3), 4)
    with pytest.raises(Infeasible):
        brute_min_kcut(path_graph(3), 0)
    with pytest.raises(BudgetExceeded):
        brute_min_kcut(path_graph(13), 2)
    with pytest.raises(BudgetExceeded):
        brute_min_kcut(path_graph(9), 4, OracleBudget(max_vertices=12, max_subsets=10))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_min_kcut_matches_the_full_enumeration(data):
    # repeated pairs make parallel edges; vertices no pair names stay isolated
    n = data.draw(st.integers(min_value=1, max_value=9))
    ends = st.integers(min_value=0, max_value=n - 1)
    raw = data.draw(st.lists(st.tuples(ends, ends), max_size=20))
    raw += data.draw(st.lists(st.sampled_from(raw), max_size=8)) if raw else []
    g = from_pairs(n, [(u, v) for u, v in raw if u != v])
    for k in range(1, n + 1):
        want = reference_min_kcut(g, k)
        got = brute_min_kcut(g, k)
        assert got.value == want.value
        assert got.partition.blocks == want.partition.blocks
        assert got.cut_edges == want.cut_edges


def test_tree_kcut_examples():
    p5 = path_graph(5)
    t = spanning_path(p5, [0, 1, 2, 3, 4])
    assert brute_tree_kcut(p5, t, 3).value == 2
    c6 = cycle_graph(6)
    t = spanning_path(c6, [0, 1, 2, 3, 4, 5])
    assert brute_tree_kcut(c6, t, 2).value == 2
    sol = brute_tree_kcut(c6, t, 1)
    assert sol.value == 0 and sol.partition.k == 1


def test_tree_kcut_infeasible():
    g = path_graph(3)
    t = spanning_path(g, [0, 1, 2])
    with pytest.raises(Infeasible):
        brute_tree_kcut(g, t, 4)


def test_conductance_examples():
    _, phi = brute_min_conductance(cycle_graph(4))
    assert phi == Fraction(1, 2)
    _, phi = brute_min_conductance(complete_graph(4))
    assert phi == Fraction(2, 3)
    _, phi = brute_min_conductance(from_pairs(2, [(0, 1)]))
    assert phi == Fraction(1)


def test_conductance_returns_a_witness():
    side, phi = brute_min_conductance(cycle_graph(4))
    vol = sum(cycle_graph(4).degree(v) for v in side)
    cut = len([e for e in cycle_graph(4).edge_ids
               if (cycle_graph(4).endpoints(e)[0] in side) != (cycle_graph(4).endpoints(e)[1] in side)])
    assert phi == Fraction(cut, min(vol, 8 - vol))


def test_conductance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        brute_min_conductance(from_pairs(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        brute_min_conductance(MultiGraph(3, []))
    with pytest.raises(BudgetExceeded):
        brute_min_conductance(cycle_graph(17))


def two_branch_spider():
    # root 0 with branches 0-1-2 and 0-3-4
    g = from_pairs(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    t = RootedTree(5, 0, [(e, *g.endpoints(e)) for e in g.edge_ids])
    return g, t


def test_ancestor_cut_spider_tree_only():
    g, t = two_branch_spider()
    value, cut = brute_min_ancestor_cut(g, t, [1, 3], [2, 4], 3)
    assert value == 2
    assert len(cut) == 2


def test_ancestor_cut_spider_with_leaf_edge():
    g, t = two_branch_spider()
    g2 = from_pairs(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
    value, _ = brute_min_ancestor_cut(g2, t, [1, 3], [2, 4], 3)
    assert value == 3


def test_ancestor_cut_infeasible_budgets():
    g, t = two_branch_spider()
    with pytest.raises(Infeasible):
        brute_min_ancestor_cut(g, t, [1, 3], [2, 4], 2)
    with pytest.raises(ValueError):
        brute_min_ancestor_cut(g, t, [1, 2], [2], 3)  # comparable roots
    with pytest.raises(ValueError):
        brute_min_ancestor_cut(g, t, [1], [4], 2)  # minelt outside subtree


def test_ancestor_cut_top_edge_allowed():
    # deleting the subtree root's own parent edge is a legal choice
    g, t = two_branch_spider()
    value, cut = brute_min_ancestor_cut(g, t, [1], [1], 2)
    assert value == 1
    assert cut == frozenset({t.parent_edge(1)})


def test_max_edges_among_examples():
    tri = complete_graph(3)
    assert max_edges_among(tri, 2) == 1
    assert max_edges_among(tri, 3) == 3
    assert max_edges_among(cycle_graph(5), 3) == 2
    assert max_edges_among(tri, 0) == 0
    with pytest.raises(BudgetExceeded):
        max_edges_among(path_graph(13), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=8))
def test_tree_cut_upper_bounds_min_cut(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, rng.randrange(0, n))
    k = rng.randrange(2, 4)
    t = random_spanning_tree(rng, g)
    assert brute_min_kcut(g, k).value <= brute_tree_kcut(g, t, k).value


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=7))
def test_min_kcut_monotone_in_k(seed, n):
    rng = random.Random(seed)
    g = random_simple_graph(rng, n, 0.6)
    values = [brute_min_kcut(g, k).value for k in range(1, n + 1)]
    assert values == sorted(values)
    assert values[0] == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_ancestor_cut_monotone_in_minelts(seed):
    rng = random.Random(seed)
    g, t = two_branch_spider()
    extra = [(2, 4), (1, 4), (2, 3)]
    chords = [p for p in extra if rng.random() < 0.5]
    g2 = from_pairs(5, [(0, 1), (1, 2), (0, 3), (3, 4)] + chords)
    full, _ = brute_min_ancestor_cut(g2, t, [1, 3], [2, 4], 4)
    fewer, _ = brute_min_ancestor_cut(g2, t, [1, 3], [2], 4)
    assert fewer <= full
