import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kcut.errors import Infeasible
from kcut.graph import (
    ContractionMap,
    MultiGraph,
    cut_edge_set,
    cut_value,
    gomory_hu,
    min_st_cut,
    pull_back,
    quotient,
    union_find,
)
from kcut.oracles import brute_min_ancestor_cut, brute_min_kcut, brute_tree_kcut
from kcut.packing import greedy_tree_packing
from kcut.tree import RootedTree, build_hld, forest_components, forest_labels, tree_quotient
import kcut.treecut as treecut
from kcut.treecut import (
    INF,
    CandidateSet,
    Coloring,
    GPrime,
    TrialConfig,
    TrialSetting,
    _classify,
    _deletion_scores,
    _draw_green,
    _min_plus,
    _score_deletion,
    all_colorings,
    build_gprime,
    contract_branches,
    derived_rng,
    eval_f,
    eval_f_budgets,
    eval_f_p,
    _sweep_cell,
    fill_states,
    group_components,
    incomparable_edges,
    safe_tree_edges,
    tree_cut,
)

from helpers import (
    bfs_spanning,
    clique_on_a_cycle,
    complete_graph,
    cycle_graph,
    from_pairs,
    path_graph,
    random_connected_graph,
    random_connected_multigraph,
    random_multigraph,
)

EXH = TrialConfig(seed=7, trials="exhaustive")


def spanning_path(g, order):
    ends = {tuple(sorted(g.endpoints(e))): e for e in g.edge_ids}
    edges = []
    for a, b in zip(order, order[1:]):
        edges.append(ends[tuple(sorted((a, b)))])
    return RootedTree.from_edge_ids(g, edges, root=order[0])


def random_spanning_tree(rng, g):
    ids = sorted(g.edge_ids)
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
        a, b = find(u), find(v)
        if a != b:
            head[max(a, b)] = min(a, b)
            chosen.append(e)
    return RootedTree.from_edge_ids(g, chosen, root=0)


def two_triangles_bridge():
    return from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])


def spider(*branch_lengths):
    """Root 0; branch i is a path of the given length hanging off the root."""
    edges = []
    nxt = 1
    tips = []
    for length in branch_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    return from_pairs(nxt, edges), tips


def identity_setting(g, t, green=frozenset()):
    eprime = incomparable_edges(g, t, build_hld(t))
    return TrialSetting(g, t, t, ContractionMap.identity(t.n), Coloring(eprime, frozenset(green)), eprime)


def safe_quotient(g, t, lam):
    """Graph, tree and map with the `safe_tree_edges` contracted, as on tree_cut's DP path."""
    t2, cmap = tree_quotient(t, safe_tree_edges(g, t, lam))
    return quotient(g, cmap), t2, cmap


class TestContractSafeEdges:
    def test_k5_collapses_entirely(self):
        g = complete_graph(5)
        t = bfs_spanning(g)
        g2, t2, cmap = safe_quotient(g, t, 2)
        assert g2.n == 1
        assert t2.n == 1
        assert all(cmap.apply(v) == 0 for v in range(5))

    def test_two_triangles_bridge_lambda_one(self):
        g = two_triangles_bridge()
        t = spanning_path(g, [0, 1, 2, 3, 4, 5])
        g2, t2, cmap = safe_quotient(g, t, 1)
        # triangle edges have a 2-edge cut, the bridge only 1: triangles
        # collapse, the bridge survives
        assert g2.n == 2
        assert {cmap.apply(v) for v in (0, 1, 2)} != {cmap.apply(v) for v in (3, 4, 5)}
        assert g2.m == 1 and 6 in g2.edge_ids

    def test_two_triangles_bridge_lambda_two_unchanged(self):
        g = two_triangles_bridge()
        t = spanning_path(g, [0, 1, 2, 3, 4, 5])
        for eid in t.edge_ids:
            u, v = g.endpoints(eid)
            assert min_st_cut(g, u, v)[0] <= 2  # no edge is safe at this budget
        g2, _, _ = safe_quotient(g, t, 2)
        assert g2.n == 6 and g2.m == g.m

    def test_big_lambda_contracts_nothing(self):
        g = complete_graph(5)
        t = bfs_spanning(g)
        g2, _, _ = safe_quotient(g, t, 10)
        assert g2.n == 5 and g2.m == g.m

    def test_agrees_with_per_edge_cut_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(0, 5))
            t = random_spanning_tree(rng, g)
            lam = rng.randrange(1, 5)
            g2, t2, cmap = safe_quotient(g, t, lam)
            for eid in t2.edge_ids:
                u, v = g2.endpoints(eid)
                assert min_st_cut(g2, u, v)[0] <= lam


def reference_contract_safe_edges(g, t, lam):
    """Contract one tree edge at a time, rescanning from the smallest id after each."""
    cur_g, cur_t = g, t
    cmap = ContractionMap.identity(g.n)
    changed = True
    while changed:
        changed = False
        for eid in sorted(cur_t.edge_ids):
            u, v = cur_g.endpoints(eid)
            if min(cur_g.degree(u), cur_g.degree(v)) <= lam:
                continue
            if min_st_cut(cur_g, u, v)[0] <= lam:
                continue
            cur_t, step = tree_quotient(cur_t, [eid])
            cur_g = quotient(cur_g, step)
            cmap = cmap.compose(step)
            changed = True
            break
    return cur_g, cur_t, cmap


class TestContractSafeEdgesReference:
    @pytest.mark.parametrize("multi", [False, True])
    def test_matches_one_edge_at_a_time(self, multi):
        rng = random.Random(23 + multi)
        contracted = 0
        for _ in range(25):
            n = rng.randrange(4, 13)
            g = random_connected_graph(rng, n, rng.randrange(0, (n - 1) * (n - 2) // 2 + 1))
            if multi:
                pairs = list(g.pairs)
                pairs += [rng.choice(pairs) for _ in range(rng.randrange(1, 2 * n))]
                g = from_pairs(n, pairs)
            delta = g.min_degree()
            for t in greedy_tree_packing(g, 3).trees:
                for lam in sorted({1, 2, 3, delta, 4 * delta}):
                    g2, t2, cmap = safe_quotient(g, t, lam)
                    r_g, r_t, r_map = reference_contract_safe_edges(g, t, lam)
                    safe = t.edge_ids - r_t.edge_ids
                    assert safe_tree_edges(g, t, lam) == safe
                    assert safe_tree_edges(g, t, lam, gomory_hu(g)) == safe
                    assert g2 == r_g
                    assert (t2.n, t2.root, sorted(t2.edges())) == \
                        (r_t.n, r_t.root, sorted(r_t.edges()))
                    assert cmap.mapping == r_map.mapping
                    contracted += g2.n < g.n
        assert contracted >= 50


class TestTrialConfig:
    def test_accepts_positive_counts_and_exhaustive(self):
        assert TrialConfig(trials=1).trial_count(2, 3, 10) == 1
        assert TrialConfig(trials=5).trials == 5
        assert TrialConfig(trials="exhaustive").exhaustive

    @pytest.mark.parametrize("bad", ["many", "16", 0, -3, 2.5, True, None])
    def test_rejects_other_trial_counts(self, bad):
        with pytest.raises(ValueError):
            TrialConfig(trials=bad)


class TestColoring:
    def test_lam_one_everything_green(self):
        assert _draw_green([3, 5, 9], 1, random.Random(0)) == frozenset({3, 5, 9})

    def test_exhaustive_iterator_counts(self):
        seen = {c.green for c in all_colorings([1, 2, 3])}
        assert len(seen) == 8

    def test_seeded_draw_reproducible(self):
        dom = frozenset(range(30))
        a = Coloring(dom, _draw_green(range(30), 3, derived_rng(42, "x")))
        b = Coloring(dom, _draw_green(range(30), 3, derived_rng(42, "x")))
        assert a == b


class TestBranchContraction:
    def test_contract_nothing(self):
        g = path_graph(4)
        t = bfs_spanning(g)
        tp, cmap = contract_branches(t, build_hld(t), [])
        assert tp.n == 4
        assert [cmap.apply(v) for v in range(4)] == [0, 1, 2, 3]

    def test_contract_all_single_vertex(self):
        g = path_graph(4)
        t = bfs_spanning(g)
        hld = build_hld(t)
        assert hld.branch_count == 1
        tp, cmap = contract_branches(t, hld, [0])
        assert tp.n == 1

    def test_contract_one_of_two_branches(self):
        g, _ = spider(2, 2)
        t = bfs_spanning(g)
        hld = build_hld(t)
        assert hld.branch_count == 2
        chosen = hld.branch_id[t.parent_edge(1)]
        tp, cmap = contract_branches(t, hld, [chosen])
        # branch through vertex 1 merges into the root; the other survives
        assert tp.n == 3
        assert cmap.apply(1) == cmap.apply(0) == cmap.apply(2)
        assert cmap.apply(3) != cmap.apply(0)


class TestIncomparableEdges:
    def test_spider_cross_edges_only(self):
        g, _ = spider(2, 2)
        extra = MultiGraph(5, list((i, *g.endpoints(i)) for i in g.edge_ids)
                          + [(4, 2, 4), (5, 1, 2)])
        t = RootedTree.from_edge_ids(extra, [0, 1, 2, 3])
        ep = incomparable_edges(extra, t, build_hld(t))
        assert 4 in ep          # joins the two branches
        assert 5 not in ep      # runs along one branch
        assert not ep & {0, 1, 2, 3}

    def test_sibling_subtrees_off_one_chain_not_included(self):
        # chain 0-1-2 with 3 and 4 hanging off 1 and 2; an edge between the
        # hanging leaves has comparable branch subroots
        g = from_pairs(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        t = RootedTree.from_edge_ids(g, [0, 1, 2, 3])
        ep = incomparable_edges(g, t, build_hld(t))
        assert ep == frozenset({4}) or ep == frozenset()
        # subroots: 3 hangs off the heavy chain, 4 lies on it
        hld = build_hld(t)
        s3 = hld.subroot[hld.branch_id[t.parent_edge(3)]]
        s4 = hld.subroot[hld.branch_id[t.parent_edge(4)]]
        assert (4 in ep) == t.incomparable(s3, s4)


class TestGroupComponents:
    def test_no_green_all_singletons(self):
        g, _ = spider(2, 2)
        t = bfs_spanning(g)
        s = identity_setting(g, t)
        cands = group_components(list(t.children(0)), s.coloring, s)
        assert [c.members for c in cands] == [(1,), (3,)]
        assert all(not c.minelts for c in cands)

    def test_one_green_merges_two_branches(self):
        g, tips = spider(2, 2)
        withx = MultiGraph(5, list((i, *g.endpoints(i)) for i in g.edge_ids)
                           + [(9, tips[0], tips[1])])
        t = RootedTree.from_edge_ids(withx, [0, 1, 2, 3])
        s = identity_setting(withx, t, green={9})
        cands = group_components(list(t.children(0)), s.coloring, s)
        assert len(cands) == 1
        assert cands[0].members == (1, 3)
        assert cands[0].minelts == frozenset(tips)
        assert cands[0].green_edges == frozenset({9})

    def test_green_path_over_three_subtrees(self):
        g, tips = spider(1, 1, 1)
        withx = MultiGraph(4, list((i, *g.endpoints(i)) for i in g.edge_ids)
                           + [(7, tips[0], tips[1]), (8, tips[1], tips[2])])
        t = RootedTree.from_edge_ids(withx, [0, 1, 2])
        s = identity_setting(withx, t, green={7, 8})
        cands = group_components(list(t.children(0)), s.coloring, s)
        assert len(cands) == 1
        assert cands[0].members == (1, 2, 3)


class TestBuildGPrime:
    def setup_instance(self):
        # root 0 with branches 1-2 and 3-4
        g, _ = spider(2, 2)
        return g

    def test_edge_below_common_minelt_dropped(self):
        g = self.setup_instance()
        t = bfs_spanning(g)
        s = identity_setting(g, t)
        u = CandidateSet((1,), frozenset({1}), frozenset())
        gp = build_gprime(s, u)
        # tree edge (1,2) sits below minelt 1 on both ends; only the branch
        # top edge remains, clamped to the root
        assert gp.bcount == 0
        assert sorted(gp.edges) == [(1, -1)]

    def test_cross_edge_outside_minelts_splits(self):
        base = self.setup_instance()
        g = MultiGraph(5, list((i, *base.endpoints(i)) for i in base.edge_ids)
                       + [(9, 1, 3)])
        t = RootedTree.from_edge_ids(g, [0, 1, 2, 3])
        s = identity_setting(g, t)
        u = CandidateSet((1, 3), frozenset({2, 4}), frozenset())
        gp = build_gprime(s, u)
        assert gp.bcount == 0
        assert gp.edges.count((1, -1)) == 2  # stub for the top edge and the split half
        assert gp.edges.count((3, -1)) == 2

    def test_cross_edge_touching_minelts_counted_once(self):
        base = self.setup_instance()
        g = MultiGraph(5, list((i, *base.endpoints(i)) for i in base.edge_ids)
                       + [(9, 2, 4)])
        t = RootedTree.from_edge_ids(g, [0, 1, 2, 3])
        s = identity_setting(g, t)
        u = CandidateSet((1, 3), frozenset({2, 4}), frozenset())
        gp = build_gprime(s, u)
        assert gp.bcount == 1          # both endpoints under minelts: one charge
        assert (2, -1) not in gp.edges and (4, -1) not in gp.edges

    def test_cross_edge_one_end_under_minelt(self):
        base = self.setup_instance()
        g = MultiGraph(5, list((i, *base.endpoints(i)) for i in base.edge_ids)
                       + [(9, 2, 3)])
        t = RootedTree.from_edge_ids(g, [0, 1, 2, 3])
        s = identity_setting(g, t)
        u = CandidateSet((1, 3), frozenset({2, 4}), frozenset())
        gp = build_gprime(s, u)
        assert gp.bcount == 1
        assert (3, -1) not in [e for e in gp.edges if e != (3, -1)] or True
        # the non-minelt endpoint contributes no stub for this edge
        assert gp.edges.count((3, -1)) == 1  # only the branch top edge of 3


def reference_classify(setting, candidates):
    """Rule-by-rule statement of the cut-graph classification, kept as written
    before the trial engine moved to flat per-vertex lists."""
    tp = setting.tprime
    image = setting.tmap.apply
    cand_of = {}
    for i, u in enumerate(candidates):
        for c in u.members:
            for w in tp.subtree(c):
                cand_of[w] = i
    under = {}
    for i, u in enumerate(candidates):
        inside = set()
        for s in u.minelts:
            inside |= set(tp.subtree(s))
        under[i] = frozenset(inside)
    edges = [[] for _ in candidates]
    bcount = [0 for _ in candidates]
    for e in setting.g.edge_ids:
        a, b = setting.g.endpoints(e)
        ia, ib = image(a), image(b)
        ca = cand_of.get(ia)
        cb = cand_of.get(ib)
        if e in setting.eprime:
            per_cand = {}
            for end, cc, img in ((a, ca, ia), (b, cb, ib)):
                if cc is not None:
                    per_cand.setdefault(cc, []).append((end, img))
            for cc, ends in per_cand.items():
                if any(img in under[cc] for _, img in ends):
                    bcount[cc] += 1
                else:
                    for end, _ in ends:
                        edges[cc].append((end, -1))
        else:
            if ca is None and cb is None:
                continue
            cc = ca if ca is not None else cb
            if ca == cb:
                mins = {s for s in candidates[cc].minelts
                        if tp.precedes(s, ia) and tp.precedes(s, ib)}
                if mins:
                    continue
                edges[cc].append((a, b))
            else:
                inside_end = a if ca is not None else b
                edges[cc].append((inside_end, -1))
    return [GPrime(tuple(es), bc) for es, bc in zip(edges, bcount)]


class TestClassifyReference:
    def trial_settings(self, rng, g, t):
        """Seeded colorings over E' crossed with HLD contraction patterns."""
        hld = build_hld(t)
        eprime = incomparable_edges(g, t, hld)
        for _ in range(8):
            coloring = Coloring(eprime, _draw_green(sorted(eprime), rng.choice((1, 2, 3)), rng))
            pattern = tuple(b for b in range(hld.branch_count) if rng.random() < 0.3)
            tprime, tmap = contract_branches(t, hld, pattern)
            if tprime.n >= 2:
                yield TrialSetting(g, t, tprime, tmap, coloring, eprime)

    def graphs(self, rng):
        for _ in range(60):
            n = rng.randrange(5, 12)
            if rng.random() < 0.5:
                g = random_connected_graph(rng, n, rng.randrange(0, 2 * n))
            else:
                # a path keeps the multigraph connected; the rest may be parallel
                extra = random_multigraph(rng, n, rng.randrange(n, 3 * n))
                g = from_pairs(n, [(i, i + 1) for i in range(n - 1)]
                               + [extra.endpoints(e) for e in extra.edge_ids])
            tree_ids = random_spanning_tree(rng, g).edge_ids
            yield g, RootedTree.from_edge_ids(g, tree_ids, root=rng.randrange(n))

    def test_cut_graphs_match_reference(self):
        rng = random.Random(41)
        checked = 0
        for g, t in self.graphs(rng):
            for s in self.trial_settings(rng, g, t):
                cands = group_components(list(s.tprime.children(s.tprime.root)),
                                         s.coloring, s)
                assert _classify(s, cands) == reference_classify(s, cands)
                for u in cands:
                    assert build_gprime(s, u) == reference_classify(s, [u])[0]
                checked += len(cands)
        assert checked > 500


class TestEvalF:
    def test_edgeless_gprime_counts_b(self):
        g, _ = spider(1, 1, 1)
        t = bfs_spanning(g)
        s = identity_setting(g, t)
        u = CandidateSet((1,), frozenset(), frozenset())
        val, cert = eval_f(u, GPrime((), 3), s)
        assert val == 3
        assert cert == frozenset({t.parent_edge(1)})

    def test_exhaustive_colorings_reach_oracle(self):
        # two branches with a cross edge; the planted optimum severs both tips
        g, tips = spider(2, 2)
        full = MultiGraph(5, list((i, *g.endpoints(i)) for i in g.edge_ids)
                          + [(9, tips[0], tips[1])])
        t = RootedTree.from_edge_ids(full, [0, 1, 2, 3])
        oracle, _ = brute_min_ancestor_cut(full, t, [1, 3], {2, 4}, 3)
        estimates = []
        for c in all_colorings(incomparable_edges(full, t, build_hld(t))):
            s = TrialSetting(full, t, t, ContractionMap.identity(5), c, c.domain)
            cands = group_components([1, 3], c, s)
            for u in cands:
                if u.members != (1, 3):
                    continue
                if u.minelts != frozenset({2, 4}):
                    continue
                gp = build_gprime(s, u)
                val, cert = eval_f(u, gp, s)
                assert val >= oracle
                estimates.append(val)
        assert estimates and min(estimates) == oracle

    def test_adversarial_coloring_overestimates(self):
        # two length-3 branches, tripled top and bottom edges, and a cross
        # edge at mid height: the best ancestor cut severs both mid vertices
        # and pays the cross edge once, but an all-red coloring splits it
        # into two stubs and charges both sides
        full = from_pairs(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6),
                              (0, 1), (0, 1), (2, 3), (2, 3),
                              (0, 4), (0, 4), (5, 6), (5, 6), (2, 5)])
        t = RootedTree.from_edge_ids(full, [0, 1, 2, 3, 4, 5])
        s = identity_setting(full, t)  # all red
        u = CandidateSet((1, 4), frozenset({3, 6}), frozenset())
        gp = build_gprime(s, u)
        val, _ = eval_f(u, gp, s)
        oracle, _ = brute_min_ancestor_cut(full, t, [1, 4], {3, 6}, 3)
        assert oracle == 3
        assert val == 4
        assert val > oracle


class TestEvalFP:
    def test_budget_equals_members_matches_eval_f(self):
        g, tips = spider(2, 2)
        full = MultiGraph(5, list((i, *g.endpoints(i)) for i in g.edge_ids)
                          + [(9, tips[0], tips[1])])
        t = RootedTree.from_edge_ids(full, [0, 1, 2, 3])
        states = fill_states(full, t, 3, 4, EXH)
        s = identity_setting(full, t)
        u = CandidateSet((1, 3), frozenset({2, 4}), frozenset())
        gp = build_gprime(s, u)
        rev = list(range(5))
        assert eval_f_p(u, 2, gp, s, states, rev, 2)[0] == eval_f(u, gp, s)[0]

    def test_nested_budget_matches_ancestor_oracle(self):
        # one branch 1-2-3; give it budget 2 (sever the tip and one level up)
        g, _ = spider(3)
        t = bfs_spanning(g)
        states = fill_states(g, t, 3, 4, EXH)
        s = identity_setting(g, t)
        u = CandidateSet((1,), frozenset({3}), frozenset())
        gp = build_gprime(s, u)
        val, cert = eval_f_p(u, 2, gp, s, states, list(range(4)), 2)
        oracle, _ = brute_min_ancestor_cut(g, t, [1], {3}, 3)
        assert val >= oracle
        assert cut_value(g, forest_components(t, cert)) >= oracle

    def test_r_cap_one_can_only_overestimate(self):
        # Y below the member: minelts 2 and 3 want two selections
        g = from_pairs(4, [(0, 1), (1, 2), (1, 3)])
        t = RootedTree.from_edge_ids(g, [0, 1, 2])
        states = fill_states(g, t, 3, 4, EXH)
        s = identity_setting(g, t)
        u = CandidateSet((1,), frozenset({2, 3}), frozenset())
        gp = build_gprime(s, u)
        wide, _ = eval_f_p(u, 2, gp, s, states, list(range(4)), 2)
        narrow, _ = eval_f_p(u, 2, gp, s, states, list(range(4)), 1)
        oracle, _ = brute_min_ancestor_cut(g, t, [1], {2, 3}, 3)
        assert wide >= oracle
        assert narrow >= wide


def reference_member_table(setting, member, u, gp, states, rev, r_cap, max_budget):
    """The per-member selection table as written when each budget was priced
    by its own call: selections of incomparable pool vertices covering every
    minimal element, extra budget spent through the state table."""
    tp = setting.tprime
    image = setting.tmap.mapping
    mins = sorted(s for s in u.minelts if tp.precedes(member, s))
    pool = {member}
    for s in mins:
        v = s
        while True:
            pool.add(v)
            if v == member:
                break
            v = tp.parent(v)
    pool = sorted(pool)
    stubs = [0] * tp.n
    inner = []
    for a, b in gp.edges:
        ia = -1 if a == -1 else image[a]
        ib = -1 if b == -1 else image[b]
        if ia == ib:
            continue
        if ib == -1:
            stubs[ia] += 1
        elif ia == -1:
            stubs[ib] += 1
        else:
            inner.append((ia, ib))
    out = {}
    for r in range(1, min(len(pool), r_cap, max_budget) + 1):
        for sel in itertools.combinations(pool, r):
            if any(not tp.incomparable(a, b) for a, b in itertools.combinations(sel, 2)):
                continue
            if any(not any(tp.precedes(w, s) for w in sel) for s in mins):
                continue
            piece = [-1] * tp.n
            base = 0
            for idx, w in enumerate(sel):
                for x in tp.subtree(w):
                    piece[x] = idx
                    base += stubs[x]
            base += sum(1 for x, y in inner if piece[x] != piece[y])
            top_edges = [tp.parent_edge(w) for w in sel]
            options = []
            for e in top_edges:
                opts = [(1, 0.0, frozenset())]
                if states is not None:
                    orig = rev[setting.t.lower_end(e)]
                    for spend in range(2, max_budget - r + 2):
                        if (orig, spend) in states and states[orig, spend][0] < INF:
                            opts.append((spend,) + states[orig, spend])
                options.append(opts)
            combo = {0: (0.0, frozenset())}
            for opts in options:
                nxt = {}
                for spent, (val, cert) in combo.items():
                    for add, v2, c2 in opts:
                        tot = spent + add
                        if tot > max_budget:
                            continue
                        cand = (val + v2, cert | c2)
                        if tot not in nxt or cand[0] < nxt[tot][0]:
                            nxt[tot] = cand
                combo = nxt
            for spent, (val, cert) in combo.items():
                full = cert | frozenset(top_edges)
                score = base + val
                if spent not in out or score < out[spent][0]:
                    out[spent] = (score, full)
    return out


def reference_eval_f(u, gp, setting):
    total = gp.bcount
    cert = frozenset()
    for member in u.members:
        table = reference_member_table(setting, member, u, gp, None, None, 1, 1)
        if 1 not in table:
            return INF, frozenset()
        val, part = table[1]
        total += val
        cert |= part
    return total, cert


def reference_eval_f_p(u, p, gp, setting, states, rev, r_cap):
    if p < len(u.members):
        return INF, frozenset()
    tables = []
    for member in u.members:
        table = reference_member_table(setting, member, u, gp, states, rev, r_cap, p)
        if not table:
            return INF, frozenset()
        tables.append(table)
    combo = {0: (0.0, frozenset())}
    for table in tables:
        nxt = {}
        for spent, (val, cert) in combo.items():
            for d, (v2, c2) in table.items():
                tot = spent + d
                if tot > p:
                    continue
                cand = (val + v2, cert | c2)
                if tot not in nxt or cand[0] < nxt[tot][0]:
                    nxt[tot] = cand
        combo = nxt
    if p not in combo:
        return INF, frozenset()
    val, cert = combo[p]
    return gp.bcount + val, cert


class TestEstimatorReference:
    """`eval_f`, `eval_f_p` and the one-pass `eval_f_budgets` against the
    per-budget estimator they replaced, value and deletion set, on trial
    settings whose budgets reach 3 and 4."""

    def cases(self, rng):
        for _ in range(40):
            n = rng.randrange(6, 12)
            if rng.random() < 0.5:
                g = random_connected_graph(rng, n, rng.randrange(0, 2 * n))
            else:
                extra = random_multigraph(rng, n, rng.randrange(n, 3 * n))
                g = from_pairs(n, [(i, i + 1) for i in range(n - 1)]
                               + [extra.endpoints(e) for e in extra.edge_ids])
            tree_ids = random_spanning_tree(rng, g).edge_ids
            t = RootedTree.from_edge_ids(g, tree_ids, root=rng.randrange(n))
            k = rng.choice((3, 4, 5))
            states = fill_states(g, t, k, 4, TrialConfig(seed=rng.randrange(100)))
            for s in TestClassifyReference().trial_settings(rng, g, t):
                cands = group_components(list(s.tprime.children(s.tprime.root)),
                                         s.coloring, s)
                for u, gp in zip(cands, _classify(s, cands)):
                    yield s, states, k, u, gp

    def test_estimates_match_reference(self):
        rng = random.Random(53)
        priced = splits = 0
        for s, states, k, u, gp in self.cases(rng):
            rev = list(range(s.t.n))
            assert eval_f(u, gp, s) == reference_eval_f(u, gp, s)
            for r_cap in sorted({1, 2, k}):
                table = eval_f_budgets(u, k - 1, gp, s, states, rev, r_cap)
                assert set(table) <= set(range(1, k))
                for b in range(1, k):
                    want = reference_eval_f_p(u, b, gp, s, states, rev, r_cap)
                    assert eval_f_p(u, b, gp, s, states, rev, r_cap) == want
                    assert table.get(b, (INF, frozenset())) == want
                    if want[0] < INF:
                        priced += 1
                        # a state-table split puts a deletion below a selected top
                        lows = [s.t.lower_end(e) for e in want[1]]
                        splits += b >= 3 and any(s.t.precedes(a, c) for a in lows
                                                 for c in lows if a != c)
        assert priced > 1000
        assert splits > 50


def combine(tables, target):
    """Candidates' priced budgets combined the way `_cell_trials` feeds
    `_min_plus`: ascending budgets, then the skip option."""
    groups = [[(b, val, c) for b, (val, c) in sorted(table.items())] + [(0, 0.0, frozenset())]
              for table in tables]
    return _min_plus(groups, target).get(target)


class TestKnapsack:
    """`_min_plus` as the one combiner: one budget per candidate, or none."""

    def test_spec_arithmetic(self):
        tables = [{1: (2, frozenset({1}))},
                  {1: (3, frozenset({11})), 2: (4, frozenset({12}))}]
        assert combine(tables, 2) == (4, frozenset({12}))

    def test_target_zero(self):
        assert combine([{1: (5, frozenset({1}))}], 0) == (0, frozenset())

    def test_infeasible_target_has_no_entry(self):
        assert combine([{1: (1, frozenset({1}))}], 3) is None

    def test_matches_brute_force(self):
        rng = random.Random(1)
        ties = 0
        for _ in range(400):
            tables = []
            for _ in range(rng.randrange(1, 6)):
                budgets = rng.sample(range(1, 5), rng.randrange(0, 5))
                tables.append({b: (rng.randrange(0, 4), frozenset(rng.sample(range(30), b)))
                               for b in budgets})
            target = rng.randrange(0, 6)
            options = [list(table.items()) + [(0, (0, frozenset()))] for table in tables]
            fits = [sel for sel in itertools.product(*options)
                    if sum(b for b, _ in sel) == target]
            got = combine(tables, target)
            if not fits:
                assert got is None
                continue
            best = min(sum(val for _, (val, _) in sel) for sel in fits)
            unions = {frozenset().union(*(c for _, (_, c) in sel))
                      for sel in fits if sum(val for _, (val, _) in sel) == best}
            assert got[0] == best
            assert got[1] in unions
            ties += len(unions) > 1
        assert ties > 20


class TestFillStates:
    def test_leaf_cells(self):
        g = path_graph(3)
        t = bfs_spanning(g)
        states = fill_states(g, t, 3, 2, EXH)
        leaf = 2
        assert states[leaf, 0][0] == 0
        assert states[leaf, 1][0] == 0
        assert states[leaf, 2][0] == INF
        # only the root carries a k-part cell
        assert (leaf, 3) not in states
        assert (t.root, 3) in states

    def test_path_split_in_two(self):
        g = path_graph(3)
        t = bfs_spanning(g)
        states = fill_states(g, t, 2, 2, EXH)
        value, cert = states[t.root, 2]
        assert value == 1
        assert len(cert) == 1 and cert <= t.edge_ids

    def test_infinity_pattern(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 4))
            t = random_spanning_tree(rng, g)
            k = 4
            states = fill_states(g, t, k, 6, EXH)
            for x in t.order:
                edges = t.subtree_size(x) - 1
                if x != t.root:
                    assert (x, k) not in states
                for parts in range(2, k + 1 if x == t.root else k):
                    if edges < parts - 1:
                        assert states[x, parts][0] == INF
                    else:
                        assert states[x, parts][0] < INF

    def test_root_cell_matches_tree_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(0, 6))
            t = random_spanning_tree(rng, g)
            k = rng.randrange(2, 4)
            if k - 1 > g.n - 1:
                continue
            states = fill_states(g, t, k, 8, EXH)
            assert states[t.root, k][0] == brute_tree_kcut(g, t, k).value


class TestScoreDeletion:
    def test_label_scoring_matches_partition_reference(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randrange(2, 8)
            # a path keeps the multigraph connected; the rest may be parallel
            pairs = [(i, i + 1) for i in range(n - 1)]
            extra = random_multigraph(rng, n, rng.randrange(0, 2 * n))
            g = from_pairs(n, pairs + [extra.endpoints(e) for e in extra.edge_ids])
            # rooted away from vertex 0, so a label of 0 cannot stand for the root
            tree_ids = random_spanning_tree(rng, g).edge_ids
            t = RootedTree.from_edge_ids(g, tree_ids, root=rng.randrange(1, n))
            ids = sorted(t.edge_ids)
            for size in range(min(3, len(ids)) + 1):
                for combo in itertools.combinations(ids, size):
                    want = cut_value(g, forest_components(t, combo))
                    # forest_components is built on the same labels, so check
                    # it against a union-find over the kept tree edges
                    kept = [(p, c) for e, p, c in t.edges() if e not in combo]
                    blocks = union_find(n, kept)[0]
                    assert want == sum(1 for u, v in g.pairs if blocks[u] != blocks[v])
                    assert _score_deletion(g, t, combo) == want

    def test_bitmask_sweep_matches_label_scoring(self):
        # every deletion set's path-mask score is its label score, and the
        # sweep keeps the first cheapest set in combinations order
        rng = random.Random(59)
        ties = 0
        for _ in range(40):
            n = rng.randrange(2, 13)
            pairs = [(i, i + 1) for i in range(n - 1)]
            extra = random_multigraph(rng, n, rng.randrange(0, 2 * n))
            g = from_pairs(n, pairs + [extra.endpoints(e) for e in extra.edge_ids])
            t = RootedTree.from_edge_ids(g, random_spanning_tree(rng, g).edge_ids,
                                         root=rng.randrange(n))
            for parts in range(2, min(4, n) + 1):
                combos = list(itertools.combinations(sorted(t.edge_ids), parts - 1))
                scores = list(_deletion_scores(g, t, parts))
                assert [c for _, c in scores] == combos
                best = None
                for (value, _), combo in zip(scores, combos):
                    want = _score_deletion(g, t, combo)
                    assert value == want
                    if best is None or want < best[0]:
                        best = (want, frozenset(combo))
                assert _sweep_cell(g, t, parts) == best
                ties += sum(v == best[0] for v, _ in scores) > 1
        assert ties > 20

    def test_labels_name_component_tops(self):
        g = path_graph(4)  # ids 0:(0,1) 1:(1,2) 2:(2,3)
        t = RootedTree.from_edge_ids(g, g.edge_ids, root=2)
        assert forest_labels(t, []) == [2, 2, 2, 2]
        assert forest_labels(t, [0]) == [0, 2, 2, 2]
        assert forest_labels(t, [1, 2]) == [1, 1, 2, 3]

    def test_non_tree_edge_rejected(self):
        g = cycle_graph(4)
        t = spanning_path(g, [1, 2, 3, 0])
        chord = next(e for e in g.edge_ids if e not in t.edge_ids)
        with pytest.raises(ValueError):
            forest_labels(t, [chord])
        with pytest.raises(ValueError):
            _score_deletion(g, t, [chord])


class TestTreeCut:
    def test_path_three_parts(self):
        g = path_graph(5)
        t = bfs_spanning(g)
        sol = tree_cut(g, t, 8, 3, EXH)
        assert sol.value == 2
        assert sol.partition.k == 3

    def test_cycle_with_tight_path(self):
        g = cycle_graph(6)
        t = spanning_path(g, [0, 1, 2, 3, 4, 5])
        sol = tree_cut(g, t, 8, 2, EXH)
        assert sol.value == 2

    def test_tiny_lambda_still_sound(self):
        g = cycle_graph(6)
        t = spanning_path(g, [0, 1, 2, 3, 4, 5])
        sol = tree_cut(g, t, 0, 2, EXH)
        assert sol.partition.k == 2
        assert sol.value >= brute_min_kcut(g, 2).value
        assert cut_value(g, sol.partition) == sol.value

    def test_lambda_below_the_optimum_falls_back_to_the_whole_tree(self):
        # K12 plus a pendant vertex: `kcut treecut`'s lam = k^2 * delta = 9 at
        # k=3 is below the optimum 12, so every K12 tree edge looks safe and
        # contraction leaves fewer than k vertices
        g = from_pairs(13, list(complete_graph(12).pairs) + [(0, 12)])
        t = greedy_tree_packing(g, 1).trees[0]
        assert safe_quotient(g, t, 9)[0].n < 3
        sol = tree_cut(g, t, 9, 3, EXH)
        assert sol.partition.k == 3 and cut_value(g, sol.partition) == sol.value
        assert sol.value == brute_tree_kcut(g, t, 3).value == 12

    def test_infeasible_part_count(self):
        g = path_graph(3)
        t = bfs_spanning(g)
        with pytest.raises(Infeasible):
            tree_cut(g, t, 4, 5, EXH)

    def test_sound_and_exact_at_sweep_scale(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(0, 6))
            t = random_spanning_tree(rng, g)
            k = rng.randrange(2, 4)
            sol = tree_cut(g, t, 4 * k, k, EXH)
            tree_best = brute_tree_kcut(g, t, k).value
            overall = brute_min_kcut(g, k).value
            assert cut_value(g, sol.partition) == sol.value
            assert sol.value >= tree_best >= overall
            assert sol.value == tree_best  # sweep regime is exact

    def test_small_contracted_tree_is_swept_at_the_root(self, monkeypatch):
        # with at most SWEEP_MAX_SUBSETS sets of k-1 tree edges, only the
        # root's cell is read, so tree_cut sweeps it without a state table
        filled = []
        real_fill = treecut.fill_states

        def fill(*args):
            filled.append(args[1].n)
            return real_fill(*args)

        monkeypatch.setattr(treecut, "fill_states", fill)
        rng = random.Random(41)
        swept = 0
        for _ in range(30):
            n = rng.randrange(4, 22)
            g = random_connected_graph(rng, n, rng.randrange(0, 2 * n))
            t = random_spanning_tree(rng, g)
            for k in range(2, 5):
                if math.comb(n - 1, k - 1) > treecut.SWEEP_MAX_SUBSETS:
                    continue
                best = brute_tree_kcut(g, t, k).value
                sol = tree_cut(g, t, best, k, EXH)
                assert sol.value == best == cut_value(g, sol.partition)
                swept += 1
        assert filled == [] and swept > 60
        # 19 edges: C(18, 3) = 816 sets fit, C(19, 3) = 969 do not
        g = path_graph(20)
        assert math.comb(g.n - 1, 3) > treecut.SWEEP_MAX_SUBSETS
        assert tree_cut(g, bfs_spanning(g), g.m, 4, EXH).value == 3
        assert filled == [g.n]

    def test_trials_only_path_and_cycle(self, monkeypatch):
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
        cfg = TrialConfig(seed=3, trials="exhaustive")
        g = path_graph(5)
        t = bfs_spanning(g)
        assert tree_cut(g, t, 8, 3, cfg).value == 2
        g = cycle_graph(6)
        t = spanning_path(g, [0, 1, 2, 3, 4, 5])
        assert tree_cut(g, t, 8, 2, cfg).value == 2

    def test_trials_only_sound(self, monkeypatch):
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
        cfg = TrialConfig(seed=9, trials=8)
        rng = random.Random(31)
        hits = 0
        for _ in range(15):
            g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(0, 5))
            t = random_spanning_tree(rng, g)
            sol = tree_cut(g, t, 8, 2, cfg)
            best = brute_tree_kcut(g, t, 2).value
            assert cut_value(g, sol.partition) == sol.value
            assert sol.value >= best
            hits += sol.value == best
        assert hits >= 10  # sampling still finds most optima

    @pytest.mark.parametrize("seed, n, extra, value, cut", [
        (3, 14, 16, 4, [1, 4, 15, 22]),
        (4, 13, 14, 5, [1, 11, 13, 14, 19]),
    ])
    def test_exhaustive_trials_pinned(self, monkeypatch, seed, n, extra, value, cut):
        # every subtree stays under the exhaustive caps, so each contraction
        # pattern is tried once per green set; value and cut edges were
        # captured before the trial engine moved to flat per-vertex lists
        g = random_connected_graph(random.Random(seed), n, extra)
        t = greedy_tree_packing(g, 1).trees[0]
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
        cfg = TrialConfig(seed=4, trials="exhaustive")
        sol = tree_cut(g, t, 12, 3, cfg)
        assert sol.value == value
        assert sorted(sol.cut_edges) == cut

    @pytest.mark.parametrize("seed, n, extra, lam, value, cut", [
        (5, 12, 14, 10, 13, [0, 5, 7, 8, 11, 13, 15, 16, 17, 18, 20, 22, 23]),
        (6, 13, 18, 12, 12, [3, 8, 9, 11, 12, 13, 15, 16, 19, 26, 27, 29]),
        (9, 14, 20, 14, 14, [1, 5, 11, 12, 15, 17, 18, 19, 21, 22, 24, 26, 29, 31]),
    ])
    def test_k5_sampled_trials_pinned(self, monkeypatch, seed, n, extra, lam, value, cut):
        # five parts, so non-root cells price budgets up to 3 through the
        # state table; value and cut edges were captured while tree_cut
        # still looped over rank-preprocessing candidates
        g = random_connected_graph(random.Random(seed), n, extra)
        t = greedy_tree_packing(g, 1).trees[0]
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
        cfg = TrialConfig(seed=2, trials=6)
        sol = tree_cut(g, t, lam, 5, cfg)
        assert sol.value == value
        assert sorted(sol.cut_edges) == cut
        # nothing is safe to contract here, so these are the cells tree_cut filled
        assert safe_quotient(g, t, lam)[0].n == n
        states = fill_states(g, t, 5, lam, cfg)
        assert any(states[x, 4][0] < INF for x in t.order if x != t.root)

    def test_deterministic_per_seed(self, monkeypatch):
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
        g = random_connected_graph(random.Random(2), 7, 4)
        t = random_spanning_tree(random.Random(3), g)
        cfg = TrialConfig(seed=5, trials=6)
        a = tree_cut(g, t, 6, 3, cfg)
        b = tree_cut(g, t, 6, 3, cfg)
        assert a.value == b.value and a.partition.blocks == b.partition.blocks


def reference_tree_cut(g, t, lam, k, config):
    """tree_cut by contracting the safe edges first, on either path.

    Sweeps or fills the contraction, then pulls the deletion's partition
    back to g; returns (value, partition, cut edges).
    """
    work_g, work_t, cmap = safe_quotient(g, t, lam)
    if work_g.n < k:
        work_g, work_t, cmap = g, t, ContractionMap.identity(g.n)
    if math.comb(work_t.n - 1, k - 1) <= treecut.SWEEP_MAX_SUBSETS:
        cert = _sweep_cell(work_g, work_t, k)[1]
    else:
        cert = fill_states(work_g, work_t, k, lam, config)[work_t.root, k][1]
        if cert is None:
            raise Infeasible("no feasible deletion found")
    original = pull_back(forest_components(work_t, cert), cmap, g.n)
    cut = cut_edge_set(g, original)
    return len(cut), original, cut


def singleton_bound(g, k):
    """Degree sum of the k-1 lowest-degree vertices: a k-cut value, so at least the optimum."""
    return sum(sorted(g.degree(v) for v in g.vertices)[:k - 1])


class TestTreeCutReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=20), st.integers(min_value=2, max_value=4),
           st.data())
    def test_uncontracted_sweep_matches_contracted_sweep(self, seed, n, extra, k, data):
        k = min(k, n)
        rng = random.Random(seed)
        g = random_connected_multigraph(rng, n, extra)
        trees = greedy_tree_packing(g, 4).trees
        t = trees[rng.randrange(len(trees))]
        # from 0, where every tree edge is safe and tree_cut falls back to
        # the whole tree, to above the optimum, where few or none are
        lam = data.draw(st.integers(min_value=0, max_value=singleton_bound(g, k) + 2))
        sol = tree_cut(g, t, lam, k, EXH)
        assert (sol.value, sol.partition, sol.cut_edges) == reference_tree_cut(g, t, lam, k, EXH)

    def test_every_regime_is_reached(self):
        # the seeded twin of the property above, counting which paths ran
        rng = random.Random(47)
        fell_back = contracted = whole = 0
        for _ in range(150):
            n = rng.randrange(2, 13)
            g = random_connected_multigraph(rng, n, rng.randrange(0, 21))
            k = min(rng.randrange(2, 5), n)
            t = greedy_tree_packing(g, 2).trees[-1]
            lam = rng.randrange(0, singleton_bound(g, k) + 3)
            sol = tree_cut(g, t, lam, k, EXH)
            assert (sol.value, sol.partition, sol.cut_edges) == \
                reference_tree_cut(g, t, lam, k, EXH)
            left = safe_quotient(g, t, lam)[0].n
            fell_back += left < k
            contracted += k <= left < n
            whole += left == n
        assert min(fell_back, contracted, whole) >= 15

    def test_sweep_path_builds_no_contraction(self, monkeypatch):
        # two K5s and a bridge at lam=1: every K5 edge is safe, so only the
        # bridge is swept, on the uncontracted tree
        def forbidden(*args):
            raise AssertionError("the sweep path contracted the tree")

        for name in ("quotient", "tree_quotient", "pull_back"):
            monkeypatch.setattr(treecut, name, forbidden)
        g = from_pairs(10, list(complete_graph(5).pairs)
                       + [(u + 5, v + 5) for u, v in complete_graph(5).pairs] + [(4, 5)])
        t = greedy_tree_packing(g, 1).trees[0]
        assert treecut.safe_tree_edges(g, t, 1) == t.edge_ids - {20}
        sol = tree_cut(g, t, 1, 2, EXH)
        assert sol.value == 1 and sol.cut_edges == {20}
        assert sol.partition.blocks == (frozenset(range(5)), frozenset(range(5, 10)))

    def test_state_table_path_matches_reference(self, monkeypatch):
        # with no sweep at the root, tree_cut contracts before the DP, and
        # falls back to the whole tree when lam leaves fewer than k vertices
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
        rng = random.Random(53)
        fell_back = contracted = 0
        for _ in range(30):
            n = rng.randrange(3, 9)
            g = random_connected_multigraph(rng, n, rng.randrange(0, 10))
            k = rng.randrange(2, 4)
            t = greedy_tree_packing(g, 1).trees[0]
            lam = rng.randrange(1, singleton_bound(g, k) + 3)  # trials need lam >= 1
            cfg = TrialConfig(seed=rng.randrange(100), trials=4)
            sol = tree_cut(g, t, lam, k, cfg)
            assert (sol.value, sol.partition, sol.cut_edges) == \
                reference_tree_cut(g, t, lam, k, cfg)
            left = safe_quotient(g, t, lam)[0].n
            fell_back += left < k
            contracted += k <= left < n
        assert fell_back >= 3 and contracted >= 3


    def test_state_table_path_checks_each_tree_edge_once(self, monkeypatch):
        # K8's 7 tree edges are safe at lam=5 and the 20 cycle edges are not;
        # C(20, 3) > SWEEP_MAX_SUBSETS, so the DP fills the 21-vertex contraction
        g = clique_on_a_cycle()
        t = greedy_tree_packing(g, 1).trees[0]
        seen = {"safe_tree_edges": [], "fill_states": []}
        for name, calls in seen.items():
            def spy(*args, real=getattr(treecut, name), calls=calls):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(treecut, name, spy)
        sol = tree_cut(g, t, 5, 4, TrialConfig(seed=1))
        assert len(seen["safe_tree_edges"]) == len(seen["fill_states"]) == 1
        work_g, work_t = seen["fill_states"][0][:2]
        assert work_g.n == work_t.n == 21
        assert sol.value == 4 and sol.partition.k == 4


class TestHLDExamples:
    def test_path_single_branch(self):
        t = bfs_spanning(path_graph(6))
        assert build_hld(t).branch_count == 1

    def test_star_one_branch_per_leaf(self):
        g = from_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        t = bfs_spanning(g)
        assert build_hld(t).branch_count == 4

    def test_complete_binary_tree_depth_three(self):
        edges = [(i, 2 * i + 1) for i in range(7)] + [(i, 2 * i + 2) for i in range(7)]
        g = from_pairs(15, edges)
        t = bfs_spanning(g)
        hld = build_hld(t)
        assert max(hld.branches_on_root_path(t, v) for v in range(15)) <= 3

    def test_random_trees_branch_bound(self):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randrange(2, 257)
            edges = [(rng.randrange(0, v), v) for v in range(1, n)]
            g = from_pairs(n, edges)
            t = bfs_spanning(g)
            hld = build_hld(t)
            bound = math.ceil(math.log2(n)) + 1
            assert all(hld.branches_on_root_path(t, v) <= bound for v in range(n))
