"""Format parsing, generators, and CLI behavior."""

import json
import random
import sys

import pytest

from kcut.cli import run_cli
from kcut.errors import ParseError
from kcut.graph import cut_value
from kcut.io import (
    gen_clique_reduction,
    gen_random,
    parse_graph,
    serialize_graph,
)

from helpers import (
    clique_on_a_cycle,
    complete_graph,
    cycle_graph,
    from_pairs,
    random_multigraph,
    reference_tree_packing,
)


def edge_multiset(g, labels):
    out = []
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        out.append(frozenset((labels[u], labels[v])))
    return sorted(out, key=sorted)


class TestParseEdgelist:
    def test_path(self):
        g, labels = parse_graph("1 2\n2 3\n")
        assert (g.n, g.m) == (3, 2)
        assert labels == ("1", "2", "3")

    def test_duplicate_lines_are_parallel_edges(self):
        g, _ = parse_graph("1 2\n1 2\n")
        assert (g.n, g.m) == (2, 2)
        assert g.endpoints(0) == g.endpoints(1)

    def test_first_appearance_order_and_comments(self):
        text = "# mesh corner\nb a\n\na c  # chord\n"
        g, labels = parse_graph(text)
        assert labels == ("b", "a", "c")
        assert (g.n, g.m) == (3, 2)

    def test_token_count_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_graph("1 2\n1 2 3\n")
        assert err.value.line == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("a a\n")


class TestParseDimacs:
    def test_triangle(self):
        g, labels = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "dimacs")
        assert (g.n, g.m) == (3, 3)
        assert labels == ("1", "2", "3")

    def test_comments_and_isolated_vertices(self):
        g, _ = parse_graph("c empty corner\np edge 4 1\ne 1 2\n", "dimacs")
        assert (g.n, g.m) == (4, 1)

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p edge 3 1\ne 1 4\n", "dimacs")
        assert err.value.line == 2

    def test_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_graph("e 1 2\np edge 2 1\n", "dimacs")

    def test_header_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p edge 3 2\ne 1 2\n", "dimacs")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_graph("1 2\n", "gml")


class TestRoundTrip:
    def test_edgelist_round_trip_multigraph(self):
        rng = random.Random(0)
        for _ in range(20):
            g = random_multigraph(rng, rng.randrange(2, 7), rng.randrange(1, 12))
            base = tuple(str(v) for v in g.vertices)
            h, labels = parse_graph(serialize_graph(g))
            assert h.m == g.m
            assert edge_multiset(h, labels) == edge_multiset(g, base)

    def test_dimacs_round_trip_keeps_isolated_vertices(self):
        g = from_pairs(5, [(0, 1), (0, 2)])
        h, _ = parse_graph(serialize_graph(g, fmt="dimacs"), "dimacs")
        assert (h.n, h.m) == (5, 2)
        assert edge_multiset(h, tuple("12345")) == edge_multiset(g, tuple("12345"))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            serialize_graph(cycle_graph(3), labels=("a", "b"))


class TestCliqueReduction:
    def test_triangle(self):
        h, expected = gen_clique_reduction(cycle_graph(3), 3)
        assert h.n == 30
        assert expected == 5

    def test_empty_graph(self):
        _, expected = gen_clique_reduction(from_pairs(3, []), 3)
        assert expected == 6

    def test_k4(self):
        h, expected = gen_clique_reduction(complete_graph(4), 4)
        assert h.n == 4 + 64
        assert expected == 9

    def test_padding_layout(self):
        g = from_pairs(3, [(0, 1)])
        h, _ = gen_clique_reduction(g, 2)
        w = 4 * 3
        assert h.n == 3 + w
        # every original vertex reaches degree exactly n, padded toward the
        # lowest-indexed clique vertices
        for v in range(3):
            assert h.degree(v) == 3
        # needs are 2, 2, 3 pads, each run starting at the first clique vertex
        pad_targets = {u for v in range(3) for e in h.incident(v)
                       for u in h.endpoints(e) if u >= 3}
        assert pad_targets == {3, 4, 5}
        assert all(h.degree(u) >= w - 1 for u in range(3, 3 + w))
        clique_edges = sum(1 for e in h.edge_ids
                           if min(h.endpoints(e)) >= 3)
        assert clique_edges == w * (w - 1) // 2

    def test_multigraph_rejected(self):
        with pytest.raises(ValueError):
            gen_clique_reduction(from_pairs(2, [(0, 1), (0, 1)]), 2)


class TestGenRandom:
    def test_edgeless(self):
        assert gen_random(5, 0, m=0).m == 0

    def test_seed_reproducible(self):
        a = gen_random(9, 3, p=0.4)
        b = gen_random(9, 3, p=0.4)
        assert [a.endpoints(e) for e in a.edge_ids] == [b.endpoints(e) for e in b.edge_ids]

    def test_full_probability_gives_clique(self):
        assert gen_random(4, 1, p=1.0).m == 6

    def test_simple_edge_budget(self):
        with pytest.raises(ValueError):
            gen_random(4, 0, m=7)

    def test_multigraph_mode_allows_repeats(self):
        g = gen_random(3, 0, m=10, simple=False)
        assert g.m == 10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_random(4, 0)
        with pytest.raises(ValueError):
            gen_random(4, 0, p=0.5, m=2)
        with pytest.raises(ValueError):
            gen_random(4, 0, p=0.5, simple=False)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def bridge_text():
    lines = ["%d %d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    lines += ["%d %d" % (i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    lines.append("0 4")
    return "\n".join(lines) + "\n"


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestCli:
    def test_solve_bridge(self, tmp_path, capsys):
        path = write(tmp_path, "bridge.txt", bridge_text())
        code, report = run_json(capsys, ["solve", "--k", "2", path])
        assert code == 0
        assert report["schema"] == 1
        assert report["solution"]["value"] == 1
        assert report["instance"]["n"] == 8
        assert sorted(map(len, report["solution"]["blocks"])) == [4, 4]

    def test_solve_reports_the_certified_bound(self, tmp_path, capsys):
        # the bridge is the lightest Gomory-Hu edge, so the bound is 1 and
        # the answer meets it; the branching incumbent 3 does not, so the
        # stage packs trees and cuts them
        path = write(tmp_path, "bridge.txt", bridge_text())
        code, report = run_json(capsys, ["solve", "--k", "2", "--no-timing", path])
        assert code == 0
        stats = report["stats"]
        assert (stats["lower_bound"], stats["gap"], stats["certified"]) == (1, 0, True)
        assert stats["trees_packed"] > 0 and stats["tight_tree_found"] is True
        # on C8 the incumbent 2 already meets the bound 2: nothing is packed
        path = write(tmp_path, "c8.txt", serialize_graph(cycle_graph(8)))
        code, report = run_json(capsys, ["solve", "--k", "2", "--no-timing", path])
        assert code == 0
        stats = report["stats"]
        assert (stats["lower_bound"], stats["gap"], stats["certified"]) == (2, 0, True)
        assert stats["trees_packed"] == 0 and stats["tight_tree_found"] is None
        assert stats["oracle_agrees"] is True

    def test_oracle_cycle(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", serialize_graph(cycle_graph(6)))
        code, report = run_json(capsys, ["oracle", "--k", "3", path])
        assert code == 0
        assert report["solution"]["value"] == 3

    def test_gen_clique_reduction(self, tmp_path, capsys):
        path = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        code, report = run_json(capsys, ["gen", "clique-reduction", "--k", "3", path])
        assert code == 0
        assert report["expected_value"] == 5
        h, _ = parse_graph(report["edgelist"])
        assert h.n == 30

    def test_gen_random_emits_parseable_graph(self, capsys):
        code, report = run_json(capsys, ["gen", "random", "--n", "6", "--m", "7"])
        assert code == 0
        g, _ = parse_graph(report["edgelist"])
        assert g.m == 7

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        assert run_cli(["solve", "--k", "9", path]) == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "0 1 2\n")
        assert run_cli(["solve", "--k", "2", path]) == 1

    def test_oracle_budget_exit_code(self, tmp_path, capsys):
        g = gen_random(13, 0, m=20)
        path = write(tmp_path, "big.txt", serialize_graph(g))
        assert run_cli(["oracle", "--k", "2", path]) == 1

    def test_flags_win_over_config_trial_section(self, tmp_path, capsys, monkeypatch):
        import kcut.cli
        ran = []
        real = kcut.cli.solve_with_stats

        def spy(g, k, cfg):
            ran.append(cfg.trial)
            return real(g, k, cfg)

        monkeypatch.setattr(kcut.cli, "solve_with_stats", spy)
        path = write(tmp_path, "bridge.txt", bridge_text())
        code, report = run_json(capsys, ["solve", "--k", "2", "--trials", "5", path])
        assert code == 0
        assert (ran[-1].trials, ran[-1].seed) == (5, 0)
        assert report["stats"]["trials"] == 5
        assert report["instance"]["seed"] == 0
        code, report = run_json(capsys, ["solve", "--k", "2", "--seed", "9", "--exhaustive", path])
        assert code == 0
        assert (ran[-1].trials, ran[-1].seed) == ("exhaustive", 9)
        assert report["stats"]["trials"] == "exhaustive"
        assert report["instance"]["seed"] == 9

    def test_bad_trial_count_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bridge.txt", bridge_text())
        for bad in ("0", "-3"):
            for command in ("solve", "treecut"):
                assert run_cli([command, "--k", "2", "--trials", bad, path]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: trials must be a positive integer")
        code, _ = run_json(capsys, ["solve", "--k", "2", "--trials", "1", path])
        assert code == 0

    def test_empty_input_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "empty.txt", "")
        for command in ("treecut", "treepack"):
            assert run_cli([command, "--k", "2", path]) == 1
            assert "tree packing needs a connected graph" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "tri.txt", "0 1\n")
        assert run_cli(["solve", "--k", "2", "--wat", path]) == 1
        assert run_cli(["solve", "--k", "2", "--config", "{}", path]) == 1
        # each command takes only the flags it reads
        for argv in (["treecut", "--k", "2", "--mode", "treecut_only", path],
                     ["oracle", "--k", "2", "--trials", "5", "--exhaustive", path],
                     ["sparsify", "--k", "2", "--exhaustive", path],
                     ["treepack", "--k", "2", "--exhaustive", path],
                     ["gen", "random", "--n", "5", "--m", "3", "--mode", "treecut_only"],
                     ["gen", "random", "--n", "5", "--m", "3", "--k", "3"],
                     ["gen", "random", "--n", "5", "--m", "3", "--format", "dimacs"],
                     ["gen", "clique-reduction", "--k", "3", "--seed", "3", path],
                     ["bench", "--n", "5", "--count", "1", "--format", "dimacs"],
                     ["oracle", "--k", "2", "--seed", "3", path],
                     ["sparsify", "--k", "2", "--seed", "3", path],
                     ["treepack", "--k", "2", "--seed", "3", path]):
            assert run_cli(argv) == 1, argv

    def test_unknown_flag_error_names_the_flag(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", serialize_graph(cycle_graph(6)))
        capsys.readouterr()
        assert run_cli(["treecut", "--k", "2", "--mode", "oracle_only", path]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --mode" in err and "c6.txt" not in err
        assert run_cli(["solve", "--k", "2", path, "extra.txt"]) == 1
        assert "unrecognized arguments: extra.txt" in capsys.readouterr().err

    def test_missing_k(self, tmp_path, capsys):
        path = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        assert run_cli(["solve", path]) == 1

    def test_treepack(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", serialize_graph(cycle_graph(6)))
        code, report = run_json(capsys, ["treepack", "--trials", "3", path])
        assert code == 0
        assert len(report["stats"]["trees"]) == 3
        assert all(len(ids) == 5 for ids in report["stats"]["trees"])

    def test_treepack_rejects_nonpositive_k(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", serialize_graph(cycle_graph(6)))
        for k in ("0", "-2"):
            for extra in ([], ["--trials", "3"]):
                assert run_cli(["treepack", "--k", k] + extra + [path]) == 1
                assert "k must be positive" in capsys.readouterr().err

    def test_treepack_reads_solver_config(self, tmp_path, capsys):
        path = write(tmp_path, "tri2.txt", "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
        code, report = run_json(capsys, ["treepack", "--k", "2", path])
        assert code == 0 and report["stats"]["count"] == 44  # ceil(3 * 8 * ln 6)

    def test_treecut_cycle(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", serialize_graph(cycle_graph(6)))
        code, report = run_json(capsys, ["treecut", "--k", "2", path])
        assert code == 0
        assert report["solution"]["value"] == 2

    def test_tree_commands_pinned_on_a_multigraph(self, tmp_path, capsys):
        # 11 parallel edges each on 0-1 and 1-2, so at k=3 (lam = 9 * delta
        # = 9) two tree edges are safe and the sweep skips them
        text = "0 1\n" * 11 + "1 2\n" * 11 + "0 3\n3 4\n4 2\n1 5\n0 4\n"
        path = write(tmp_path, "multi.txt", text)
        g, _ = parse_graph(text)  # labels are 0..5 in order, edge ids by line
        assert run_cli(["treepack", "--trials", "200", "--no-timing", path]) == 0
        out = capsys.readouterr().out
        trees, loads = reference_tree_packing(g, 200)
        assert json.loads(out)["stats"] == {
            "count": 200, "distinct": len(set(trees)), "max_load": max(loads.values()),
            "trees": [sorted(ids) for ids in trees]}
        assert run_cli(["treecut", "--k", "3", "--no-timing", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solution"] == {
            "blocks": [["0", "1", "2", "5"], ["3"], ["4"]], "cut_edges": [22, 23, 24, 26],
            "provenance": "treecut", "value": 4}
        assert report["stats"] == {"lambda": 9, "tree_edges": [0, 11, 22, 23, 25], "trials": 16}
        for argv in (["treepack", "--trials", "200"], ["treecut", "--k", "3"]):
            assert run_cli(argv + ["--no-timing", path]) == 0
            first = capsys.readouterr().out
            assert run_cli(argv + ["--no-timing", path]) == 0
            assert capsys.readouterr().out == first

    def test_treecut_pinned_through_the_state_table_with_nothing_safe(
            self, tmp_path, capsys, monkeypatch):
        # lam = 4^2 * 2 = 32 exceeds every tree edge's s-t cut, so no edge is
        # safe, and C(27, 3) > SWEEP_MAX_SUBSETS sends the tree to the DP
        import kcut.treecut as treecut
        seen = {"safe_tree_edges": [], "fill_states": []}
        for name, calls in seen.items():
            def spy(*args, real=getattr(treecut, name), calls=calls):
                calls.append(real(*args))
                return calls[-1]
            monkeypatch.setattr(treecut, name, spy)
        path = write(tmp_path, "k8c21.txt", serialize_graph(clique_on_a_cycle()))
        assert run_cli(["treecut", "--k", "4", "--seed", "2", "--no-timing", path]) == 0
        assert seen["safe_tree_edges"] == [frozenset()] and len(seen["fill_states"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "treecut", "instance": {"k": 4, "m": 49, "n": 28, "seed": 2}, "schema": 1,
            "solution": {
                "blocks": [[str(v) for v in range(7)], ["7"], ["8"], [str(v) for v in range(9, 28)]],
                "cut_edges": [6, 12, 17, 21, 24, 26, 27, 28, 29, 48],
                "provenance": "treecut", "value": 10},
            "stats": {"lambda": 32, "tree_edges": list(range(7)) + list(range(28, 48)),
                      "trials": 16}}

    def test_sparsify(self, tmp_path, capsys, monkeypatch):
        import kcut.sparsify
        built = []
        real = kcut.sparsify.ni_sparsify

        def spy(g, lam):
            built.append(lam)
            return real(g, lam)

        for name, module in list(sys.modules.items()):  # every module that imported it
            if name.startswith("kcut") and getattr(module, "ni_sparsify", None) is real:
                monkeypatch.setattr(module, "ni_sparsify", spy)
        path = write(tmp_path, "k8.txt", serialize_graph(complete_graph(8)))
        code, report = run_json(capsys, ["sparsify", "--k", "2", path])
        assert code == 0
        # 28 forests of K8 keep all 28 edges, so none are built
        assert built == []
        assert (report["stats"]["ni_forests"], report["stats"]["ni_edges"]) == (28, 28)
        assert isinstance(report["stats"]["kt_iterations"], list)
        multi = write(tmp_path, "multi.txt", "0 1\n0 1\n1 2\n2 0\n")
        assert run_cli(["sparsify", "--k", "2", multi]) == 1
        assert "parallel edges: certificate is stated for simple graphs" in capsys.readouterr().err

    def test_sparsify_lambda_is_the_nontrivial_bound(self, tmp_path, capsys):
        path = write(tmp_path, "k8.txt", serialize_graph(complete_graph(8)))
        code, report = run_json(capsys, ["sparsify", "--k", "3", path])
        assert code == 0 and report["stats"]["lambda"] == 63  # 3^2 * 7
        empty = write(tmp_path, "empty.txt", "")
        code, report = run_json(capsys, ["sparsify", "--k", "2", empty])
        assert code == 0 and report["stats"]["lambda"] == 1  # max(k^2 * 0, 1)
        assert run_cli(["sparsify", "--k", "0", path]) == 1
        assert "k must be positive" in capsys.readouterr().err

    def test_bench_deterministic(self, capsys):
        argv = ["bench", "--k", "2", "--n", "8", "--count", "2", "--no-timing"]
        code, report = run_json(capsys, argv)
        assert code == 0
        code2, report2 = run_json(capsys, argv)
        assert report == report2

    def test_stdin_input(self, capsys, monkeypatch):
        import io as _io
        monkeypatch.setattr("sys.stdin", _io.StringIO("0 1\n1 2\n0 2\n"))
        code, report = run_json(capsys, ["solve", "--k", "2"])
        assert code == 0
        assert report["solution"]["value"] == 2

    def test_no_timing_byte_identical(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "bridge.txt", bridge_text())
        argv = ["solve", "--k", "2", "--seed", "5", "--no-timing", path]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("KCUT_THREADS", "4")
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first

    def test_report_value_rescored(self, tmp_path, capsys):
        path = write(tmp_path, "bridge.txt", bridge_text())
        code, report = run_json(capsys, ["solve", "--k", "3", path])
        assert code == 0
        g, labels = parse_graph(bridge_text())
        name_to_id = {name: i for i, name in enumerate(labels)}
        from kcut.graph import Partition
        blocks = [[name_to_id[x] for x in b] for b in report["solution"]["blocks"]]
        assert cut_value(g, Partition(blocks)) == report["solution"]["value"]
