"""Greedy packing rounds, crossing counts, tightness."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kcut.graph import Partition
from kcut.oracles import brute_min_kcut
from kcut.packing import crossing_edges, greedy_tree_packing, is_tight, packing_rounds
from kcut.tree import RootedTree
from helpers import (
    complete_graph,
    cycle_graph,
    from_pairs,
    path_graph,
    random_connected_graph,
    random_connected_multigraph,
    reference_tree_packing,
    rooted_packing,
    star_graph,
)


def test_packing_a_tree_returns_it():
    g = path_graph(5)
    pack = greedy_tree_packing(g, 3)
    for t in pack.trees:
        assert t == frozenset(g.edge_ids)


def test_packing_c4_two_rounds():
    g = cycle_graph(4)
    pack = greedy_tree_packing(g, 2)
    first, second = pack.trees
    assert first == frozenset({0, 1, 2})
    assert second == frozenset({3, 0, 1})
    assert first != second


def test_packing_single_round_id_tiebreak():
    g = complete_graph(4)
    pack = greedy_tree_packing(g, 1)
    # ids 0,1,2 are (0,1),(0,2),(0,3): the star picked purely by id order
    assert pack.trees[0] == frozenset({0, 1, 2})


def assert_packs_like_reference(g, count):
    """Same trees in the same rounds, same loads, one object per edge set."""
    pack = greedy_tree_packing(g, count)
    want, loads = reference_tree_packing(g, count)
    assert list(pack.trees) == want
    assert pack.loads == loads
    by_ids = {}
    for t in pack.trees:
        assert by_ids.setdefault(t, t) is t


def test_repeated_trees_share_one_object():
    g = complete_graph(5)
    count = 12
    pack = greedy_tree_packing(g, count)
    assert len(pack.trees) == count
    assert len(set(pack.trees)) < count
    assert_packs_like_reference(g, count)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=200))
def test_matches_reference_packing(seed, n, extra, count):
    # counts up to 200 take many draws past their first repeated round (about
    # two in five replay), and C4 below pins one that must
    assert_packs_like_reference(random_connected_multigraph(random.Random(seed), n, extra), count)


def test_replay_runs_kruskal_once_per_cycle_round(monkeypatch):
    import kcut.packing
    calls = []
    real = kcut.packing.union_find

    def counted(n, pairs):
        calls.append(n)
        return real(n, pairs)

    monkeypatch.setattr(kcut.packing, "union_find", counted)
    # C4: after 4 rounds every edge carries 3, the start's normalized loads
    assert_packs_like_reference(cycle_graph(4), 100)
    assert len(calls) == 4


def test_rounds_drawn_one_at_a_time_are_the_packing(monkeypatch):
    # a round drawn from the generator runs at most one Kruskal, and the
    # first `count` rounds are greedy_tree_packing's trees, whose loads are
    # counted from them; long counts run into the replayed cycle
    import kcut.packing
    kruskal = []
    real = kcut.packing.union_find

    def counted(n, pairs):
        kruskal.append(n)
        return real(n, pairs)

    monkeypatch.setattr(kcut.packing, "union_find", counted)
    rng = random.Random(30)
    replayed = 0
    for _ in range(40):
        g = random_connected_multigraph(rng, rng.randrange(1, 9), rng.randrange(0, 10))
        count = rng.randrange(1, 150)
        want, loads = reference_tree_packing(g, count)
        kruskal.clear()
        rounds = packing_rounds(g)
        drawn = []
        for r in range(count):
            drawn.append(next(rounds))
            assert len(kruskal) <= r + 1  # no round is packed before it is drawn
        assert drawn == want
        replayed += len(kruskal) < count
        pack = greedy_tree_packing(g, count)
        assert list(pack.trees) == drawn and pack.loads == loads
    assert replayed >= 10


def test_single_vertex_packs_shared_empty_trees():
    # no edges, so no minimum load to normalize by
    pack = greedy_tree_packing(from_pairs(1, []), 5)
    assert len(pack.trees) == 5
    assert all(t is pack.trees[0] for t in pack.trees)
    assert pack.trees[0] == frozenset()
    assert pack.loads == {}


def test_equal_loads_break_ties_by_id_not_by_last_order():
    # round 2 starts at loads 1, 1, 2: edge 0 must come before the just-bumped
    # edge 1, which a stable re-sort of round 1's order by load alone misses
    g = from_pairs(3, [(0, 1), (0, 1), (0, 2)])
    pack = greedy_tree_packing(g, 3)
    assert list(pack.trees) == [{0, 2}, {1, 2}, {0, 2}]
    assert pack.loads == {0: 2, 1: 1, 2: 3}
    assert_packs_like_reference(g, 3)


def test_packing_rejects_disconnected():
    with pytest.raises(ValueError):
        greedy_tree_packing(from_pairs(4, [(0, 1), (2, 3)]), 1)
    rounds = packing_rounds(from_pairs(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):  # checked when the first round is drawn
        next(rounds)


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
        assert t <= frozenset(g.edge_ids)


def test_coverage_against_oracle():
    rng = random.Random(20260825)
    k = 3
    near, tight = 0, 0
    total = 100
    for _ in range(total):
        n = rng.randrange(5, 9)
        g = random_connected_graph(rng, n, rng.randrange(2, 7))
        count = math.ceil(3 * k ** 3 * math.log(n))
        best = brute_min_kcut(g, k).partition
        crossings = [len(crossing_edges(t, best)) for t in rooted_packing(g, count)]
        if min(crossings) <= 2 * k - 2:
            near += 1
        if any(c == k - 1 for c in crossings):
            tight += 1
    assert near >= 95
    assert tight >= 80
