"""Multigraph core: union-find, quotient, cuts, boundaries, components, Gomory-Hu tree."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from kcut.graph import (
    ContractionMap,
    MultiGraph,
    Partition,
    boundary,
    connected_components,
    cut_value,
    gomory_hu,
    induced_subgraph,
    pull_back,
    quotient,
    union_find,
)
from helpers import (
    complete_graph,
    cycle_graph,
    from_pairs,
    path_graph,
    random_connected_multigraph,
    random_multigraph,
    reference_components,
    reference_min_st_cut,
)


def merge(g, *pairs):
    """Quotient of g that joins each given vertex pair, with its map."""
    cmap = ContractionMap(tuple(union_find(g.n, pairs)[0]))
    return quotient(g, cmap), cmap


def test_contract_triangle_drops_inner_edge():
    g = from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    h, cmap = merge(g, (0, 1))
    assert h.n == 2
    assert set(h.edge_ids) == {1, 2}
    # both survivors now run between the merged vertex and c
    assert all(set(h.endpoints(e)) == {0, 1} for e in h.edge_ids)
    assert cmap.apply(0) == cmap.apply(1)


def test_contract_single_edge_leaves_isolated_vertex():
    g = from_pairs(2, [(0, 1)])
    h, _ = merge(g, (0, 1))
    assert h.n == 1
    assert h.m == 0


def test_contract_path_keeps_identifiers():
    g = path_graph(4)  # ids 0:(0,1) 1:(1,2) 2:(2,3)
    h, cmap = merge(g, (1, 2))
    assert h.n == 3
    assert set(h.edge_ids) == {0, 2}
    x = cmap.apply(1)
    assert set(h.endpoints(0)) == {cmap.apply(0), x}
    assert set(h.endpoints(2)) == {x, cmap.apply(3)}


def test_contract_rejects_bad_arguments():
    g = path_graph(3)
    with pytest.raises(ValueError):
        quotient(g, ContractionMap((0, 0)))  # misses vertex 2
    with pytest.raises(ValueError):
        quotient(g, ContractionMap((0, 2, 2)))  # label 1 has no preimage


def test_no_self_loops_ever():
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 1, 1)])


def test_duplicate_edge_id_rejected():
    with pytest.raises(ValueError):
        MultiGraph(3, [(0, 0, 1), (0, 1, 2)])


def test_cut_value_c4_opposite_pairs():
    g = cycle_graph(4)
    assert cut_value(g, Partition([{0, 1}, {2, 3}])) == 2
    assert cut_value(g, Partition([{0, 2}, {1, 3}])) == 4


def test_cut_value_k4_isolating_two():
    g = complete_graph(4)
    assert cut_value(g, Partition([{0}, {1}, {2, 3}])) == 5


def test_cut_value_single_block_is_zero():
    g = complete_graph(5)
    assert cut_value(g, Partition([set(range(5))])) == 0


def test_cut_value_rejects_partial_cover():
    g = path_graph(3)
    with pytest.raises(ValueError):
        cut_value(g, Partition([{0, 1}]))


def test_boundary_c4_single_vertex():
    g = cycle_graph(4)
    assert boundary(g, [{0}]) == frozenset({0, 3})


def test_boundary_k4_two_singletons():
    g = complete_graph(4)
    # all of K4's edges except cd
    ids = {e for e in g.edge_ids if set(g.endpoints(e)) != {2, 3}}
    assert boundary(g, [{0}, {1}]) == frozenset(ids)


def test_boundary_of_everything_is_empty():
    g = complete_graph(4)
    assert boundary(g, [set(range(4))]) == frozenset()


def test_boundary_rejects_overlap():
    g = path_graph(3)
    with pytest.raises(ValueError):
        boundary(g, [{0, 1}, {1, 2}])


def gh_min_cuts(g):
    """The lightest weight on the `gomory_hu` tree path of every ordered vertex pair."""
    parent, weight = gomory_hu(g)
    paths = [set(to_root(parent, v)) for v in g.vertices]
    return {(u, v): min(weight[x] for x in paths[u] ^ paths[v])
            for u in g.vertices for v in g.vertices if u != v}


def test_min_st_cut_cycle_and_clique():
    assert gh_min_cuts(cycle_graph(4))[0, 2] == 2
    assert set(gh_min_cuts(complete_graph(4)).values()) == {3}


def test_min_st_cut_bridge():
    g = from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert gh_min_cuts(g)[2, 3] == 1
    # the one tree edge of weight 1 hangs 3's triangle below 2's
    parent, weight = gomory_hu(g)
    light = [v for v in g.vertices if v and weight[v] == 1]
    assert light == [3] and parent[3] == 2
    assert {x for x in g.vertices if 3 in to_root(parent, x)} == {3, 4, 5}


def test_min_st_cut_counts_parallel_edges():
    g = from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    assert gomory_hu(g) == ([0, 0], [0, 3])


def test_min_st_cut_seeds_doubled_two_hop_paths():
    # 1 to 0 through 2, each hop doubled: two 1-2-0 paths fill 1's cut of
    # 2, whose side is {1}; 2's side from 0 is {1, 2}, so 1 moves below 2
    g = from_pairs(3, [(0, 2), (2, 1), (0, 2), (2, 1)])
    assert gh_min_cuts(g)[0, 1] == 2
    assert gomory_hu(g) == ([0, 2, 0], [0, 2, 2])


def test_connected_components_examples():
    assert connected_components(path_graph(3)).k == 1
    two_edges = from_pairs(4, [(0, 1), (2, 3)])
    assert connected_components(two_edges) == Partition([{0, 1}, {2, 3}])
    assert connected_components(MultiGraph(3, [])).k == 3
    parallel = from_pairs(5, [(3, 1), (1, 3), (4, 1), (3, 1)])  # vertices 0 and 2 isolated
    assert connected_components(parallel) == Partition([{0}, {1, 3, 4}, {2}])
    with pytest.raises(ValueError):
        connected_components(MultiGraph(0, []))


@st.composite
def sparse_multigraphs(draw, max_n=12):
    """1 to max_n vertices and up to 2n random edges: isolated vertices and parallels are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=2 * n if n > 1 else 0))
    return random_multigraph(random.Random(draw(st.integers(0, 10**6))), n, m)


@given(sparse_multigraphs())
def test_connected_components_matches_breadth_first_search(g):
    assert connected_components(g) == reference_components(g)


def test_contraction_map_composes():
    g = path_graph(4)
    h1, m1 = merge(g, (0, 1))
    h2, m2 = merge(h1, (m1.apply(2), m1.apply(3)))
    total = m1.compose(m2)
    assert total.apply(2) == total.apply(3)
    assert total.apply(0) == total.apply(1)
    assert total.apply(0) != total.apply(2)
    assert h2.n == 2


def test_contract_set_multiway():
    g = complete_graph(4)
    h, cmap = merge(g, (0, 1), (0, 2))
    assert h.n == 2
    assert h.m == 3  # the three edges into vertex 3 survive as parallels
    assert len({cmap.apply(v) for v in (0, 1, 2)}) == 1


def test_induced_subgraph_keeps_ids():
    g = complete_graph(4)
    sub, vmap = induced_subgraph(g, {1, 2, 3})
    assert sub.n == 3 and sub.m == 3
    assert set(sub.edge_ids) <= set(g.edge_ids)
    assert set(vmap) == {1, 2, 3}


graphs = st.builds(
    lambda n, seed: random_multigraph(random.Random(seed), n, 2 * n),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)


@given(graphs, st.integers(min_value=0, max_value=10**6))
def test_contraction_preserves_other_identifiers(g, seed):
    rng = random.Random(seed)
    u = rng.randrange(g.n)
    v = rng.randrange(g.n)
    if u == v:
        return
    dropped = {e for e in g.edge_ids if set(g.endpoints(e)) == {u, v}}
    h, _ = merge(g, (u, v))
    assert set(h.edge_ids) == set(g.edge_ids) - dropped


@given(graphs, st.integers(min_value=0, max_value=10**6))
def test_contraction_preserves_cut_values(g, seed):
    rng = random.Random(seed)
    u, v = rng.sample(range(g.n), 2) if g.n >= 2 else (0, 0)
    others = [w for w in g.vertices if w not in (u, v)]
    rng.shuffle(others)
    half = len(others) // 2
    blocks = [{u, v} | set(others[:half])]
    if others[half:]:
        blocks.append(set(others[half:]))
    p = Partition(blocks)
    h, cmap = merge(g, (u, v))
    q = Partition([{cmap.apply(w) for w in b} for b in blocks])
    assert cut_value(g, p) == cut_value(h, q)


def random_pairs(rng, n):
    return [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(0, 2 * n))]


@given(graphs, st.integers(min_value=0, max_value=10**6))
def test_quotient_cut_equals_pulled_back_cut(g, seed):
    rng = random.Random(seed)
    h, cmap = merge(g, *random_pairs(rng, g.n))
    labels = [rng.randrange(3) for _ in range(h.n)]
    p = Partition([[w for w in h.vertices if labels[w] == i] for i in set(labels)])
    assert cut_value(h, p) == cut_value(g, pull_back(p, cmap, g.n))


@given(graphs, st.integers(min_value=0, max_value=10**6))
def test_union_find_numbers_blocks_by_their_minimum(g, seed):
    rng = random.Random(seed)
    pairs = random_pairs(rng, g.n)
    labels, merged = union_find(g.n, pairs)
    blocks = connected_components(MultiGraph.from_edge_list(g.n, pairs)).blocks
    for rank, block in enumerate(blocks):  # Partition sorts blocks by minimum
        assert {labels[v] for v in block} == {rank}
    # reference: one single-edge quotient per pair that still joins two vertices
    cur, total, joined = g, ContractionMap.identity(g.n), []
    for i, (u, v) in enumerate(pairs):
        a, b = total.apply(u), total.apply(v)
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        step = ContractionMap(tuple(lo if w == hi else w - (w > hi) for w in cur.vertices))
        cur, total = quotient(cur, step), total.compose(step)
        joined.append(i)
    assert list(total.mapping) == labels
    assert merged == joined
    assert cur == quotient(g, ContractionMap(tuple(labels)))


def full_scan_union_find(n, pairs):
    """Union-find that reads every pair; the smaller root wins each join."""
    head = list(range(n))

    def find(x):
        while head[x] != x:
            x = head[x]
        return x

    merged = []
    for i, (u, v) in enumerate(pairs):
        a, b = find(u), find(v)
        if a != b:
            head[max(a, b)] = min(a, b)
            merged.append(i)
    rank = {}
    return [rank.setdefault(find(v), len(rank)) for v in range(n)], merged


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_union_find_stops_at_the_spanning_point_with_full_scan_answers(n, seed):
    rng = random.Random(seed)
    # a spanning tree's pairs mixed with random ones, so pairs follow the
    # point where one class is left
    pairs = [(rng.randrange(v), v) for v in range(1, n)] + random_pairs(rng, n)
    rng.shuffle(pairs)
    assert union_find(n, pairs) == full_scan_union_find(n, pairs)
    # nothing after the (n-1)-th merge is read: an unknown vertex there is harmless
    labels, merged = union_find(n, iter(pairs + [(n, n + 1)]))
    assert (labels, merged) == full_scan_union_find(n, pairs)
    assert labels == [0] * n and len(merged) == n - 1


def shuffled_ids(g, rng):
    """g with fresh, scattered edge ids and its edge records in random order."""
    ids = rng.sample(range(10 * g.m + 1), g.m)
    edges = [(e, u, v) for e, (u, v) in zip(ids, g.pairs)]
    rng.shuffle(edges)
    return MultiGraph(g.n, edges)


def brute_st_cuts(g):
    """Smallest cut between every vertex pair, over every bipartition."""
    best = {}
    for r in range(1, g.n):
        for side in map(set, itertools.combinations(range(g.n), r)):
            value = cut_value(g, Partition([side, set(g.vertices) - side]))
            for pair in itertools.product(side, set(g.vertices) - side):
                best[pair] = min(best.get(pair, value), value)
    return best


@given(sparse_multigraphs(max_n=8), st.integers(min_value=0, max_value=10**6))
def test_min_st_cut_matches_bipartition_enumeration(g, seed):
    assert gh_min_cuts(shuffled_ids(g, random.Random(seed))) == brute_st_cuts(g)


@given(sparse_multigraphs(), st.integers(min_value=0, max_value=10**6))
def test_gomory_hu_ignores_edge_ids_and_order(g, seed):
    assert gomory_hu(shuffled_ids(g, random.Random(seed))) == gomory_hu(g)


@given(graphs)
def test_degree_matches_boundary_of_singleton(g):
    for v in g.vertices:
        assert g.degree(v) == len(boundary(g, [{v}]))


def test_partition_normalizes_block_order():
    assert Partition([{2, 3}, {0, 1}]) == Partition([{0, 1}, {2, 3}])


def test_identity_map():
    m = ContractionMap.identity(3)
    assert [m.apply(v) for v in range(3)] == [0, 1, 2]


def to_root(parent, x):
    """x and its ancestors, up to the root 0, in the tree that hangs v from parent[v]."""
    path = [x]
    while path[-1] != 0:
        path.append(parent[path[-1]])
        assert len(path) <= len(parent), "parent pointers form a cycle"
    return path


@given(sparse_multigraphs(max_n=10))
def test_gomory_hu_path_minima_are_the_min_st_cuts(g):
    parent, weight = gomory_hu(g)
    assert len(parent) == len(weight) == g.n and parent[0] == weight[0] == 0
    for (u, v), lightest in gh_min_cuts(g).items():
        if u < v:
            assert lightest == reference_min_st_cut(g, u, v)[0]
    paths = [to_root(parent, v) for v in g.vertices]
    # and each tree edge's two sides are a cut of its weight in g
    for v in range(1, g.n):
        below = {x for x in g.vertices if v in paths[x]}
        assert cut_value(g, Partition([below, set(g.vertices) - below])) == weight[v]


def test_gomory_hu_examples():
    assert gomory_hu(from_pairs(1, [])) == ([0], [0])
    # two triangles joined by the bridge 2-3: one tree edge of weight 1,
    # the rest 2
    g = from_pairs(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert sorted(gomory_hu(g)[1][1:]) == [1, 2, 2, 2, 2]
    # apart, the triangles meet at weight 0
    g = from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert sorted(gomory_hu(g)[1][1:]) == [0, 2, 2, 2, 2]


def test_gomory_hu_weights_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = random_connected_multigraph(rng, n, rng.randint(0, 2 * n))
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        for u, v in g.pairs:
            if h.has_edge(u, v):
                h[u][v]["capacity"] += 1
            else:
                h.add_edge(u, v, capacity=1)
        tree = nx.gomory_hu_tree(h)
        expected = sorted(w for _, _, w in tree.edges(data="weight"))
        assert sorted(gomory_hu(g)[1][1:]) == expected
