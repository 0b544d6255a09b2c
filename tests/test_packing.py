"""Greedy packing rounds, crossing counts, tightness."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kcut.graph import Partition
from kcut.oracles import brute_min_kcut
from kcut.packing import crossing_edges, greedy_tree_packing, is_tight
from kcut.tree import RootedTree
from helpers import (
    complete_graph,
    cycle_graph,
    from_pairs,
    path_graph,
    random_connected_graph,
    star_graph,
)


def test_packing_a_tree_returns_it():
    g = path_graph(5)
    pack = greedy_tree_packing(g, 3)
    for t in pack.trees:
        assert t.edge_ids == frozenset(g.edge_ids)


def test_packing_c4_two_rounds():
    g = cycle_graph(4)
    pack = greedy_tree_packing(g, 2)
    first, second = pack.trees
    assert first.edge_ids == frozenset({0, 1, 2})
    assert second.edge_ids == frozenset({3, 0, 1})
    assert first.edge_ids != second.edge_ids


def test_packing_single_round_id_tiebreak():
    g = complete_graph(4)
    pack = greedy_tree_packing(g, 1)
    # ids 0,1,2 are (0,1),(0,2),(0,3): the star picked purely by id order
    assert pack.trees[0].edge_ids == frozenset({0, 1, 2})


def test_repeated_trees_share_one_object():
    g = complete_graph(5)
    count = 12
    pack = greedy_tree_packing(g, count)
    assert len(pack.trees) == count
    by_ids = {}
    for t in pack.trees:
        assert by_ids.setdefault(t.edge_ids, t) is t
    assert len(by_ids) < count
    # plain Kruskal under the key (load, edge id)
    loads = {e: 0 for e in g.edge_ids}
    want = []
    for _ in range(count):
        head = list(range(g.n))

        def find(x):
            while head[x] != x:
                x = head[x]
            return x

        chosen = set()
        for e in sorted(g.edge_ids, key=lambda e: (loads[e], e)):
            a, b = (find(x) for x in g.endpoints(e))
            if a != b:
                head[a] = b
                chosen.add(e)
        for e in chosen:
            loads[e] += 1
        want.append(frozenset(chosen))
    assert [t.edge_ids for t in pack.trees] == want
    assert pack.loads == loads


def test_packing_rejects_disconnected():
    with pytest.raises(ValueError):
        greedy_tree_packing(from_pairs(4, [(0, 1), (2, 3)]), 1)


def test_packing_rejects_empty_graph():
    with pytest.raises(ValueError, match="at least one vertex"):
        greedy_tree_packing(from_pairs(0, []), 1)


def test_crossing_edges_cases():
    g = path_graph(4)
    t = RootedTree.from_edge_ids(g, g.edge_ids, root=0)
    assert crossing_edges(t, Partition([{0, 1, 2, 3}])) == frozenset()
    assert crossing_edges(t, Partition([{0, 1}, {2, 3}])) == frozenset({1})
    star = star_graph(5)
    ts = RootedTree.from_edge_ids(star, star.edge_ids, root=0)
    singles = Partition([{v} for v in range(5)])
    assert crossing_edges(ts, singles) == frozenset(star.edge_ids)


def test_is_tight_cases():
    g = path_graph(4)
    t = RootedTree.from_edge_ids(g, g.edge_ids, root=0)
    assert is_tight(t, Partition([{0, 1}, {2, 3}]))
    star = star_graph(4)
    ts = RootedTree.from_edge_ids(star, star.edge_ids, root=0)
    assert not is_tight(ts, Partition([{1, 2}, {0, 3}]))
    assert is_tight(ts, Partition([{v} for v in range(4)]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
def test_load_accounting(seed, count):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randrange(3, 9), 4)
    pack = greedy_tree_packing(g, count)
    assert sum(pack.loads.values()) == count * (g.n - 1)
    for t in pack.trees:
        assert t.edge_ids <= frozenset(g.edge_ids)


def test_coverage_against_oracle():
    rng = random.Random(20260825)
    k = 3
    near, tight = 0, 0
    total = 100
    for _ in range(total):
        n = rng.randrange(5, 9)
        g = random_connected_graph(rng, n, rng.randrange(2, 7))
        count = math.ceil(3 * k ** 3 * math.log(n))
        pack = greedy_tree_packing(g, count)
        best = brute_min_kcut(g, k).partition
        crossings = [len(crossing_edges(t, best)) for t in pack.trees]
        if min(crossings) <= 2 * k - 2:
            near += 1
        if any(c == k - 1 for c in crossings):
            tight += 1
    assert near >= 95
    assert tight >= 80
