"""End-to-end solver checks against the exhaustive oracle."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from kcut.errors import Infeasible
from kcut.graph import connected_components, cut_edge_set, cut_value, induced_subgraph, is_simple
from kcut.oracles import OracleBudget, brute_min_kcut, brute_tree_kcut
from kcut.packing import is_tight
from kcut.solver import SolverConfig, min_kcut, nontrivial_bound, solve_with_stats, tree_count
import kcut.solver as solver
import kcut.treecut as treecut
from kcut.tree import RootedTree
from kcut.treecut import TrialConfig

from helpers import (
    complete_graph,
    cycle_graph,
    from_pairs,
    random_connected_graph,
    random_connected_multigraph,
    random_multigraph,
    random_simple_graph,
    rooted_packing,
    star_graph,
)

EXHAUSTIVE = SolverConfig(trial=TrialConfig(seed=11, trials="exhaustive"))


def two_k4_bridge():
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    pairs.append((0, 4))
    return from_pairs(8, pairs)


def k12_pendant():
    return from_pairs(13, list(complete_graph(12).pairs) + [(0, 12)])


def two_triangles():
    return from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestExamples:
    def test_k1_is_free(self):
        g = complete_graph(5)
        sol = min_kcut(g, 1)
        assert sol.value == 0
        assert sol.partition.k == 1

    def test_star_three_parts(self):
        sol = min_kcut(star_graph(5), 3)
        assert sol.value == 2
        assert sol.partition.k == 3

    def test_bridge_between_cliques(self):
        g = two_k4_bridge()
        sol = min_kcut(g, 2)
        assert sol.value == 1
        # branching alone would pay a vertex degree of 3; only the packed
        # trees expose the bridge
        assert sol.provenance == "treecut"
        assert sol.cut_edges == frozenset([12])

    def test_nontrivial_bound_values(self):
        assert nontrivial_bound(complete_graph(4), 2) == 12
        lonely = from_pairs(3, [(0, 1)])
        assert nontrivial_bound(lonely, 2) == 0
        assert nontrivial_bound(complete_graph(5), 3) == 36
        assert nontrivial_bound(from_pairs(0, []), 2) == 0

    def test_nontrivial_bound_is_not_an_upper_bound(self):
        # K12 plus a pendant vertex: the sparsifier's budget is below the optimum
        g = k12_pendant()
        assert nontrivial_bound(g, 3) == 9
        assert brute_min_kcut(g, 3, OracleBudget(max_vertices=13)).value == 12

    def test_tree_cut_budget_is_the_incumbent(self, monkeypatch):
        # the incumbent is a real 3-cut, so lambda never drops below the optimum 12
        lams = []
        real = solver.tree_cut

        def recorded(g, t, lam, k, config, *rest):
            lams.append(lam)
            return real(g, t, lam, k, config, *rest)

        monkeypatch.setattr(solver, "tree_cut", recorded)
        assert min_kcut(k12_pendant(), 3).value == 12
        assert lams and min(lams) >= 12


class TestValidation:
    def test_k_out_of_range(self):
        g = complete_graph(3)
        with pytest.raises(Infeasible):
            min_kcut(g, 0)
        with pytest.raises(Infeasible):
            min_kcut(g, 4)

    def test_bad_mode_rejected(self):
        for mode in ("fast", "oracle_only"):
            with pytest.raises(ValueError):
                SolverConfig(mode=mode)

    def test_tree_count_rejects_nonpositive_k(self):
        assert tree_count(2, 6) == 44  # ceil(3 * 8 * ln 6)
        for k in (0, -2):
            with pytest.raises(ValueError, match="k must be positive"):
                tree_count(k, 6)


class TestDisconnected:
    def test_merging_components_is_free(self):
        sol = min_kcut(two_triangles(), 2)
        assert sol.value == 0
        assert sol.cut_edges == frozenset()

    def test_budget_split_across_components(self):
        assert min_kcut(two_triangles(), 3).value == 2
        # one triangle shattered entirely beats splitting both once
        sol = min_kcut(two_triangles(), 4)
        assert sol.value == 3
        assert sol.value == brute_min_kcut(two_triangles(), 4).value

    def test_isolated_vertices(self):
        g = from_pairs(5, [(0, 1), (1, 2)])
        assert min_kcut(g, 3).value == 0
        assert min_kcut(g, 4).value == 1


class TestModes:
    def test_treecut_only_skips_oracle(self):
        g = two_k4_bridge()
        sol, stats = solve_with_stats(g, 2, SolverConfig(mode="treecut_only"))
        assert sol.value == 1
        assert stats["oracle_value"] is None

    def test_auto_cross_checks_small_inputs(self):
        g = two_k4_bridge()
        sol, stats = solve_with_stats(g, 2)
        assert stats["oracle_value"] == 1
        assert stats["oracle_agrees"] is True
        # every spanning tree uses the bridge exactly once, so tightness
        # against the optimum is guaranteed
        assert stats["tight_tree_found"] is True

    def test_tight_tree_found_matches_the_recorded_trees(self):
        # reference: rebuild each tree from its recorded ids; the first tree
        # alone is tight in some cases, so every recorded tree must be read
        rng = random.Random(5)
        first_only = 0
        for _ in range(60):
            n = rng.randrange(3, 9)
            g = random_connected_multigraph(rng, n, rng.randrange(0, 10))
            k = rng.randrange(2, min(4, n) + 1)
            _, stats = solve_with_stats(g, k)
            best = brute_min_kcut(g, k).partition
            flags = [is_tight(RootedTree.from_edge_ids(g, ids), best) for ids in stats["packed_trees"]]
            assert stats["tight_tree_found"] is (any(flags) if flags else None)
            first_only += flags[:1] == [True] and not any(flags[1:])
        assert first_only >= 3
        _, stats = solve_with_stats(two_triangles(), 2)  # disconnected: nothing packed
        assert stats["packed_trees"] == [] and stats["tight_tree_found"] is None

    def test_both_modes_run_one_search(self):
        # the modes differ only in the cross-check: the same answer and the
        # same stats, but for the mode and the oracle's fields
        rng = random.Random(17)
        cross_check = ("mode", "oracle_value", "oracle_agrees", "tight_tree_found")
        for i in range(200):
            n = rng.randrange(2, 12)
            if i % 3:
                g = random_connected_multigraph(rng, n, rng.randrange(0, 2 * n))
            else:
                g = random_multigraph(rng, n, rng.randrange(0, 3 * n))  # may be disconnected
            k = rng.randrange(1, min(4, n) + 1)
            runs = []
            for mode in ("auto", "treecut_only"):
                sol, stats = solve_with_stats(g, k, SolverConfig(mode=mode))
                searched = {key: v for key, v in stats.items() if key not in cross_check}
                runs.append((sol.value, sol.partition, sol.cut_edges, sol.provenance, searched))
            assert runs[0] == runs[1], (i, n, k)


class TestSparsifierGate:
    def test_gate_closed_on_sparse_graphs(self):
        _, stats = solve_with_stats(two_k4_bridge(), 2)
        assert stats["sparsified_cells"] == 0

    def test_forced_gate_still_exact(self, monkeypatch):
        monkeypatch.setattr(solver, "KT_CONSTANT", 0.01)
        sol, stats = solve_with_stats(complete_graph(8), 2)
        assert stats["sparsified_cells"] >= 1
        assert sol.value == 7
        assert stats["oracle_agrees"] is True


class TestGomoryHuBound:
    """The stage's Gomory-Hu bound: reported for the input's own stage, and it changes no answer."""

    @staticmethod
    def answer(g, k, mode="auto"):
        sol, stats = solve_with_stats(g, k, SolverConfig(mode=mode))
        return (sol.value, sorted(sorted(b) for b in sol.partition.blocks), sol.provenance,
                stats["cells"]), stats

    def test_bound_never_exceeds_the_oracle(self):
        rng = random.Random(23)
        certified = 0
        for i in range(80):
            n = rng.randrange(2, 11)
            if i % 4:
                g = random_connected_multigraph(rng, n, rng.randrange(0, 2 * n))
            else:
                g = random_multigraph(rng, n, rng.randrange(0, 3 * n))
            k = rng.randrange(2, min(4, n) + 1)
            sol, stats = solve_with_stats(g, k)
            bound = stats["lower_bound"]
            if bound is None:
                assert stats["gap"] is None and stats["certified"] is None
                continue
            assert bound <= stats["oracle_value"] <= sol.value
            if not stats["packed_trees"]:  # the bound settled the stage, so nothing was packed
                assert stats["certified"] is True and stats["tight_tree_found"] is None
            assert stats["gap"] == sol.value - bound
            assert stats["certified"] is (stats["gap"] == 0)
            if stats["certified"]:
                assert sol.value == stats["oracle_value"]
            certified += stats["certified"]
        assert certified >= 40

    def test_bound_reported_only_for_the_input_stage(self, monkeypatch):
        _, stats = solve_with_stats(two_k4_bridge(), 2)
        assert (stats["lower_bound"], stats["gap"], stats["certified"]) == (1, 0, True)
        unset = (None, None, None)
        for g, k in [(two_triangles(), 2),  # disconnected
                     (TestPinnedTrialCells.chained_cliques((12, 12, 12), 2), 3),  # over the cap
                     (complete_graph(5), 1)]:  # no tree stage at k = 1
            _, stats = solve_with_stats(g, k)
            assert (stats["lower_bound"], stats["gap"], stats["certified"]) == unset
        monkeypatch.setattr(solver, "KT_CONSTANT", 0.01)
        _, stats = solve_with_stats(complete_graph(8), 2)  # sparsified
        assert stats["sparsified_cells"] == 1
        assert (stats["lower_bound"], stats["gap"], stats["certified"]) == unset

    def test_skipped_trees_change_no_answer(self, monkeypatch):
        rng = random.Random(31)
        cases = []
        for i in range(40):
            n = rng.randrange(2, 17)
            g = random_multigraph(rng, n, rng.randrange(0, 3 * n))
            cases.append((g, rng.randrange(2, min(4, n) + 1), ("auto", "treecut_only")[i % 2]))
        chain = TestPinnedTrialCells.chained_cliques
        cases += [(chain(sizes, links), k, "auto") for sizes, links, k in [
            ((5, 5, 4), 2, 3), ((6, 6, 6, 6), 2, 4), ((4, 4), 1, 2), ((7, 6, 5), 3, 2),
            ((3, 3, 3), 1, 3)]]
        cases.append((chain((90, 90), 2), 2, "auto"))  # the NI/KT gate fires
        bounded = [self.answer(*case) for case in cases]
        # a bound of 0 is met by no incumbent, so every stage packs and cuts
        # every tree, as without the bound
        monkeypatch.setattr(solver, "_stage_bound", lambda weights, k: 0)
        plain = [self.answer(*case) for case in cases]
        assert [a for a, _ in bounded] == [a for a, _ in plain]
        for (_, with_bound), (_, without) in zip(bounded, plain):
            assert with_bound["trees_evaluated"] <= without["trees_evaluated"]
            # the bounded stage stops drawing rounds where it stops cutting
            assert with_bound["trees_packed"] <= without["trees_packed"]
            drawn = with_bound["packed_trees"]
            assert drawn == without["packed_trees"][:len(drawn)]
        assert bounded[-1][1]["sparsified_cells"] == 1
        assert bounded[-1][1]["lower_bound"] is None  # it bounds the contracted stage only
        assert (bounded[-1][1]["trees_evaluated"], plain[-1][1]["trees_evaluated"]) == (1, 2)
        assert sum(b["trees_evaluated"] for _, b in bounded) < sum(b["trees_evaluated"] for _, b in plain)


class TestLazyRooting:
    """The tree stage roots a packed tree, an edge set, only to cut it."""

    @staticmethod
    def rootings(monkeypatch):
        rooted = []
        real = RootedTree.from_edge_ids.__func__

        def counted(cls, g, ids, root=0):
            rooted.append(g.n)
            return real(cls, g, ids, root)

        monkeypatch.setattr(RootedTree, "from_edge_ids", classmethod(counted))
        return rooted

    @pytest.mark.parametrize("sizes, links, k, cut", [
        ((7, 7), 2, 2, 1),  # the first tree's cut meets the bound: no second round is drawn
        ((6, 6, 5), 2, 3, 30),  # every round is drawn and every distinct tree is cut
    ])
    def test_only_the_cut_trees_are_rooted(self, monkeypatch, sizes, links, k, cut):
        rooted = self.rootings(monkeypatch)
        _, stats = solve_with_stats(TestPinnedTrialCells.chained_cliques(sizes, links), k)
        assert len(rooted) == stats["trees_evaluated"] == len(stats["packed_trees"]) == cut
        # a stage whose cut met the bound (certified) stopped drawing there,
        # here at round 1; the other drew all tree_count rounds
        rounds = cut if stats["certified"] else tree_count(k, sum(sizes))
        assert stats["trees_packed"] == rounds

    def test_no_tree_is_packed_when_the_bound_settles_the_stage(self, monkeypatch):
        # C8 at k=2: the incumbent 2 meets the Gomory-Hu bound 2, so the
        # oracle cross-check runs without any packed tree
        rooted = self.rootings(monkeypatch)
        _, stats = solve_with_stats(cycle_graph(8), 2)
        assert stats["lower_bound"] == 2 and stats["trees_evaluated"] == 0
        assert stats["trees_packed"] == 0 and stats["packed_trees"] == []
        assert stats["tight_tree_found"] is None and stats["certified"] is True
        assert stats["oracle_agrees"] is True
        assert rooted == []


class TestAgainstOracle:
    def test_sound_and_usually_exact(self):
        rng = random.Random(42)
        exact = 0
        cases = []
        for i in range(24):
            n = rng.randrange(4, 9)
            if i % 3 == 0:
                g = random_multigraph(rng, n, n + rng.randrange(2, 6))
            else:
                g = random_simple_graph(rng, n, 0.5)
            cases.append((g, rng.randrange(2, min(4, n) + 1)))
        for g, k in cases:
            sol, stats = solve_with_stats(g, k)
            assert sol.value == cut_value(g, sol.partition)
            assert sol.partition.k == k
            oracle = stats["oracle_value"]
            assert sol.value >= oracle
            exact += sol.value == oracle
        assert exact >= int(0.9 * len(cases))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_answer_is_rebuilt_from_its_partition(self, data):
        # parallel edges, isolated vertices and several components all occur
        n = data.draw(st.integers(min_value=1, max_value=9))
        ends = st.integers(min_value=0, max_value=n - 1)
        raw = data.draw(st.lists(st.tuples(ends, ends), max_size=24))
        g = from_pairs(n, [(u, v) for u, v in raw if u != v])
        k = data.draw(st.integers(min_value=1, max_value=min(n, 4)))
        sol = min_kcut(g, k)
        assert sol.partition.k == k
        assert sol.value == cut_value(g, sol.partition)
        assert sol.cut_edges == cut_edge_set(g, sol.partition)

    def test_exhaustive_trials_on_tight_instances(self):
        # cycles: every 2-cut severs two edges and some packed tree is a
        # hamiltonian path missing one of them
        for n in (5, 6, 7):
            pairs = [(i, (i + 1) % n) for i in range(n)]
            sol = min_kcut(from_pairs(n, pairs), 2, EXHAUSTIVE)
            assert sol.value == 2


class TestDeterminism:
    def test_repeat_runs_identical(self):
        rng = random.Random(9)
        g = random_connected_graph(rng, 8, 6)
        a, stats_a = solve_with_stats(g, 3)
        b, stats_b = solve_with_stats(g, 3)
        assert a.value == b.value
        assert a.partition == b.partition
        assert a.cut_edges == b.cut_edges
        assert stats_a["packed_trees"] == stats_b["packed_trees"]

    def test_seed_changes_trials_not_soundness(self):
        g = random_connected_graph(random.Random(5), 8, 8)
        for seed in range(4):
            cfg = SolverConfig(trial=TrialConfig(seed=seed, trials=8))
            sol, stats = solve_with_stats(g, 3, cfg)
            assert sol.value >= stats["oracle_value"]


class TestPinnedTrialCells:
    """Answers and counters of two default solves, and of the chain with trial cells.

    Captured while the tree DP still filled a k-part cell at every vertex;
    work the tree stage skips must not change them.  The tree stage runs
    once, in the top cell, with lambda = the branching incumbent.  The
    chain's 20 trees are swept at the root unless SWEEP_MAX_SUBSETS is 0;
    its Gomory-Hu bound, 3, is below its optimum.  gnm cuts no tree: its
    branching incumbent, 2, already meets its bound.
    """

    @staticmethod
    def gnm(seed, n, m):
        rng = random.Random(seed)
        pairs = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], m)
        return from_pairs(n, pairs)

    @staticmethod
    def chained_cliques(sizes, links):
        pairs, bases, base = [], [], 0
        for size in sizes:
            bases.append(base)
            pairs += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
            base += size
        for a, b in zip(bases, bases[1:]):
            pairs += [(a + j, b + j) for j in range(links)]
        return from_pairs(base, pairs)

    @pytest.mark.parametrize("name, k, value, blocks, provenance, cells, trees", [
        ("gnm", 2, 2, [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14], [11]], "branch", 2, 0),
        ("chain", 3, 4, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11, 12, 13]], "treecut", 18, 20),
    ])
    def test_pinned(self, monkeypatch, name, k, value, blocks, provenance, cells, trees):
        g = self.gnm(1, 15, 40) if name == "gnm" else self.chained_cliques((5, 5, 4), 2)
        trial_cells = []
        real = treecut._cell_trials

        def counted(*args, **kwargs):
            trial_cells.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(treecut, "_cell_trials", counted)
        # every tree stage here is swept; the chain runs again with sweeping
        # off, so the pin also covers the randomized trials
        for sweep in ((True, False) if name == "chain" else (True,)):
            if not sweep:
                monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)
            trial_cells.clear()
            sol, stats = solve_with_stats(g, k)
            assert bool(trial_cells) != sweep
            assert sol.value == value
            assert sorted(sorted(b) for b in sol.partition.blocks) == blocks
            assert sol.provenance == provenance
            assert stats["cells"] == cells
            assert stats["trees_evaluated"] == trees

    def test_tree_stage_runs_only_on_whole_components(self, monkeypatch):
        one = self.chained_cliques((5, 5, 4), 2)
        pairs = list(one.pairs)
        g = from_pairs(2 * one.n, pairs + [(u + one.n, v + one.n) for u, v in pairs])
        # cells name their vertices by bitmask
        components = {(1 << one.n) - 1, ((1 << one.n) - 1) << one.n}
        cells, cut_cells = [], []
        real_stage, real_cut = solver._tree_stage, solver.tree_cut

        def stage(ctx, alive, *args):
            cells.append(alive)
            return real_stage(ctx, alive, *args)

        def cut(*args):
            cut_cells.append(cells[-1])
            return real_cut(*args)

        monkeypatch.setattr(solver, "_tree_stage", stage)
        monkeypatch.setattr(solver, "tree_cut", cut)
        min_kcut(g, 4)
        assert set(cut_cells) == components

    def test_cells_below_an_oversized_component_run_the_tree_stage(self, monkeypatch):
        # 33 vertices exceed treecut_max_n, so the top cell skips the DP; the
        # 32-vertex cell without the pendant finds the 3-link cut, total 4
        chain = self.chained_cliques((11, 11, 10), 3)
        g = from_pairs(chain.n + 1, list(chain.pairs) + [(0, chain.n)])
        cells = []
        real_stage = solver._tree_stage

        def recorded(ctx, alive, sub, rev, k, lam, stage, kt_map):
            cell = real_stage(ctx, alive, sub, rev, k, lam, stage, kt_map)
            if cell is not None:
                cells.append((alive, lam, cell[0]))
            return cell

        monkeypatch.setattr(solver, "_tree_stage", recorded)
        sol = min_kcut(g, 3)
        assert sol.value == 4
        # the cell is the chain's vertex mask; lambda = branching's 2-cut
        assert cells == [((1 << chain.n) - 1, 9, 3)]

    @pytest.mark.parametrize("sizes, links, value, cells, block_sizes, split", [
        ((12, 12, 13, 13), 3, 30, 2391, [1, 1, 1, 47], False),
        ((20, 20, 20, 20), 2, 39, 6174, [1, 1, 18, 60], True),
    ])
    def test_branching_search_is_pinned(self, monkeypatch, sizes, links, value, cells,
                                        block_sizes, split):
        # over treecut_max_n with the gate off, so branching alone answers.
        # Both are D1 misses (ROADMAP): the optima cut only the links, 9 and
        # 6.  The Gomory-Hu incumbent of direction 1 is expected to find
        # them, and must change these pins on purpose.
        component_cells = []
        real = solver._solve_components

        def counted(*args):
            component_cells.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "_solve_components", counted)
        sol, stats = solve_with_stats(self.chained_cliques(sizes, links), 4)
        assert sol.value == value and sol.provenance == "branch"
        assert stats["cells"] == cells and stats["trees_evaluated"] == 0
        assert sorted(len(b) for b in sol.partition.blocks) == block_sizes
        assert bool(component_cells) == split


class TestBranchingCells:
    """Branching cells read the input's neighbour masks, not a subgraph copy."""

    @staticmethod
    def subgraph_sizes(monkeypatch):
        sizes = []
        real = solver.induced_subgraph

        def counted(g, keep):
            sizes.append(len(keep))
            return real(g, keep)

        monkeypatch.setattr(solver, "induced_subgraph", counted)
        return sizes

    def test_no_subgraph_when_no_cell_fits_the_tree_stage(self, monkeypatch):
        # n = 36 is over treecut_max_n and the sparsifier gate stays off
        sizes = self.subgraph_sizes(monkeypatch)
        _, stats = solve_with_stats(TestPinnedTrialCells.chained_cliques((12, 12, 12), 2), 3)
        assert stats["cells"] > 1 and stats["trees_evaluated"] == 0
        assert sizes == []

    def test_subgraphs_only_for_cells_the_tree_stage_takes(self, monkeypatch):
        # the 33-vertex chain-plus-pendant instance: every cell below the
        # oversized top cell may stage itself, the top cell may not
        chain = TestPinnedTrialCells.chained_cliques((11, 11, 10), 3)
        g = from_pairs(chain.n + 1, list(chain.pairs) + [(0, chain.n)])
        sizes = self.subgraph_sizes(monkeypatch)
        assert min_kcut(g, 3).value == 4
        assert sizes and max(sizes) <= solver.TREECUT_MAX_N

    def test_each_tree_stage_runs_only_its_gomory_hu_flows(self, monkeypatch):
        # the safe classes the stage takes from its Gomory-Hu tree answer
        # every tree cut's safe-edge question, so that one tree holds all
        # the flows the stage runs
        stages, callers, cuts = [], [], []
        real_stage, real_cut, real_gh = solver._tree_stage, solver.tree_cut, solver.gomory_hu

        def stage(ctx, alive, sub, order, k, lam, staged, kt_map):
            callers.clear()
            cell = real_stage(ctx, alive, sub, order, k, lam, staged, kt_map)
            stages.append((staged.n, list(callers)))
            return cell

        def cut(g, t, lam, k, config, classes):
            assert classes == treecut.safe_classes(real_gh(g), lam)  # the stage's, at this lam
            before = len(callers)
            sol = real_cut(g, t, lam, k, config, classes)
            cuts.append(len(callers) - before)
            return sol

        def gomory_hu(g):
            callers.append((sys._getframe(1).f_code.co_name, g.n))
            return real_gh(g)

        monkeypatch.setattr(solver, "_tree_stage", stage)
        monkeypatch.setattr(solver, "tree_cut", cut)
        monkeypatch.setattr(solver, "gomory_hu", gomory_hu)
        monkeypatch.setattr(treecut, "gomory_hu", gomory_hu)
        _, stats = solve_with_stats(TestPinnedTrialCells.chained_cliques((5, 5, 4), 2), 3)
        assert stats["trees_evaluated"] == len(cuts) == 20
        assert cuts == [0] * 20  # given the safe classes, tree_cut builds no Gomory-Hu tree
        assert stages == [(14, [("_tree_stage", 14)])]  # one stage, the whole input

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cells_match_the_induced_subgraph(self, data):
        # up to 70 vertices, so masks span several 30-bit int digits;
        # repeated pairs make parallel edges, which add neighbour-mask layers
        n = data.draw(st.integers(min_value=1, max_value=70))
        ends = st.integers(min_value=0, max_value=n - 1)
        raw = data.draw(st.lists(st.tuples(ends, ends), max_size=80))
        raw += data.draw(st.lists(st.sampled_from(raw), max_size=20)) if raw else []
        g = from_pairs(n, [(u, v) for u, v in raw if u != v])
        order = sorted(data.draw(st.sets(ends, min_size=1)))
        alive = sum(1 << v for v in order)
        ctx = solver._Context(g, SolverConfig(), {})
        sub, vmap = induced_subgraph(g, order)
        assert ctx.split(alive) == [
            sum(1 << order[x] for x in b) for b in connected_components(sub).blocks]
        assert ctx.degrees(alive, order) == [sub.degree(vmap[v]) for v in order]
        assert ctx.simple(alive, order) == is_simple(sub)


class TestKnownDefects:
    """The ROADMAP's known wrong answers, pinned so that the change mending one must flip it."""

    @pytest.mark.xfail(reason="D1: above TREECUT_MAX_N only branching runs")
    @pytest.mark.parametrize("sizes, links, k, optimum", [
        ((17, 17), 3, 2, 3),  # returns 16
        ((12, 12, 12, 12), 2, 4, 6),  # returns 23
    ])
    def test_d1_chained_cliques_above_the_tree_stage_cap(self, sizes, links, k, optimum):
        assert min_kcut(TestPinnedTrialCells.chained_cliques(sizes, links), k).value == optimum

    @pytest.mark.xfail(reason="D2: _classify counts an edge inside one piece as cut")
    @pytest.mark.parametrize("trials", [16, "exhaustive"])
    def test_d2_tree_dp_overcharges(self, monkeypatch, trials):
        g = TestPinnedTrialCells.chained_cliques((8, 8, 8), 3)
        t = rooted_packing(g, 4)[0]
        monkeypatch.setattr(treecut, "SWEEP_MAX_SUBSETS", 0)  # the sweep finds the optimum
        # 13 against 6
        assert treecut.tree_cut(g, t, 63, 3, TrialConfig(trials=trials)).value == \
            brute_tree_kcut(g, t, 3).value

    def test_d5_kt_contracts_across_a_sparse_cut(self, monkeypatch):
        monkeypatch.setattr(solver, "KT_CONSTANT", 0.01)  # the gate fires on n = 24
        sol, stats = solve_with_stats(TestPinnedTrialCells.chained_cliques((12, 12), 2), 2)
        # KT maps all 24 vertices to one, so the tree stage cuts the
        # uncontracted cell; branching alone returns 11
        assert (stats["sparsified_cells"], stats["kt_iterations"]) == (1, 1)
        assert (sol.value, sol.provenance, stats["lower_bound"]) == (2, "treecut", None)
