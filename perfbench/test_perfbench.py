"""The benchmark's own checks: answer checker, references, determinism.

Run with `python -m pytest perfbench` from the repository root.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import kcut  # noqa: E402
import pytest  # noqa: E402

import calibrate  # noqa: E402
import instances as gen  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from answers import problem  # noqa: E402


def brute(pairs, k):
    return ref.brute_value(pairs, k, kcut)


def solved(inst):
    """A correct answer in the worker's format, from the brute-force oracle."""
    labels = sorted({v for p in inst.pairs for v in p})
    ids = {v: i for i, v in enumerate(labels)}
    g = kcut.MultiGraph.from_edge_list(len(labels), [(ids[u], ids[v]) for u, v in inst.pairs])
    sol = kcut.brute_min_kcut(g, inst.k)
    blocks = sorted(sorted(str(labels[i]) for i in b) for b in sol.partition.blocks)
    return {"value": sol.value, "blocks": blocks, "provenance": "oracle", "cells": 0,
            "sparsified_cells": 0, "trees_packed": 0, "trees_evaluated": 0}


def corruptions(answer):
    blocks = answer["blocks"]
    moved = [list(b) for b in blocks]
    big = max(range(len(moved)), key=lambda i: len(moved[i]))
    moved[(big + 1) % len(moved)].append(moved[big].pop())
    yield "value off by one", dict(answer, value=answer["value"] + 1)
    yield "vertex moved, value kept", dict(answer, blocks=moved)
    yield "vertex dropped", dict(answer, blocks=[b[1:] if len(b) > 1 else b for b in blocks])
    yield "blocks merged", dict(answer, blocks=[blocks[0] + blocks[1]] + blocks[2:])
    yield "vertex twice", dict(answer, blocks=[blocks[0] + blocks[1][:1]] + blocks[1:])
    yield "raised", {"error": "RuntimeError: boom"}


def test_checker_counts_corrupted_solutions_as_failed():
    inst = next(i for i in gen.build("small-exact", 5, kcut) if i.k == 3 and i.n >= 6)
    refs = [ref.reference(inst, kcut)]
    answer = solved(inst)
    assert problem(inst.pairs, inst.k, answer["blocks"], answer["value"], refs[0].value) is None
    assert run.tally([inst], refs, {"answers": [answer], "passes": 3}) == (3, 0, [""])
    for what, bad in corruptions(answer):
        attempted, failed, reasons = run.tally([inst], refs, {"answers": [bad], "passes": 3})
        assert (attempted, failed) == (3, 3), what
        assert reasons[0], what
    low = [ref.Reference(answer["value"] + 1, False)]
    assert run.tally([inst], low, {"answers": [answer], "passes": 1})[1] == 1
    mismatch = {"answers": [answer], "passes": 2, "mismatches": 1}
    assert run.tally([inst], refs, mismatch)[1] == 1


@pytest.mark.parametrize("k,sizes,links", [
    (2, (3, 3, 3), 1), (3, (3, 3, 3), 1), (2, (4, 4), 2), (3, (4, 3, 3), 1),
    (4, (3, 3, 3, 3), 1), (2, (4, 4, 2), 1),
])
def test_chained_clique_closed_form_matches_brute_force(k, sizes, links):
    if links >= min(sizes) - 1:
        with pytest.raises(ValueError):
            gen.chained_clique_optimum(sizes, links, k)
        return
    for seed in range(2):
        pairs = gen.chained_cliques(random.Random(seed), sizes, links)
        assert brute(pairs, k) == gen.chained_clique_optimum(sizes, links, k)


def test_dense_blocks_closed_form_matches_brute_force():
    for seed in range(4):
        rng = random.Random(seed)
        links = 1 + seed % 2
        pairs = gen.dense_block(rng, 5, 0.8, 0, links) + gen.clique_pairs(4, 5)
        pairs += gen.link_blocks(rng, (5, 4), links)
        assert brute(pairs, 2) == links


def test_clique_reduction_expected_matches_brute_force():
    for pairs in ([(0, 1)], []):
        h, expected = kcut.gen_clique_reduction(kcut.MultiGraph.from_edge_list(2, pairs), 2)
        assert h.n == 10
        assert brute([h.endpoints(e) for e in h.edge_ids], 2) == expected


def test_networkx_references_bound_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(5, 10)
        pairs = gen.gnp_pairs(rng, n, 0.5) or [(0, 1), (1, 2)]
        verts = len({v for p in pairs for v in p})
        if ref.gomory_hu_weights(pairs) and verts >= 2:
            assert ref.stoer_wagner_value(pairs) == brute(pairs, 2)
        for k in (2, 3):
            if verts >= k:
                assert ref.gomory_hu_bound(pairs, k) <= brute(pairs, k)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_instances_depend_only_on_the_seed(workload):
    texts = [i.text for i in gen.build(workload, 3, kcut)]
    assert texts == [i.text for i in gen.build(workload, 3, kcut)]
    assert texts != [i.text for i in gen.build(workload, 4, kcut)]


def test_traced_runs_repeat_values_and_counts():
    """Two traced runs of one seed agree on values and on the named counts."""
    subset = (gen.build("small-exact", 3, kcut)[:12]
              + [i for i in gen.build("tree-trials", 3, kcut) if i.k == 2 and i.n == 15][:1]
              + gen.build("large-branch", 3, kcut)[:2])
    job = {"src": str(HERE.parent / "src"), "seconds": 0, "warmup_s": 0, "trace": True,
           "instances": [{"text": i.text, "k": i.k} for i in subset]}
    first, second = worker.run_job(job), worker.run_job(job)
    values = [a["value"] for a in first["answers"]]
    assert values == [a["value"] for a in second["answers"]]
    layers = [run.per_layer(first), run.per_layer(second)]
    for name in ("solver.cells", "packing.trees_packed", "treecut.tree_cut.calls"):
        assert layers[0][name] == layers[1][name], name
    assert layers[0]["treecut.tree_cut.calls"][0] > 0
    refs = [ref.reference(i, kcut) for i in subset]
    assert run.tally(subset, refs, first)[1] == 0


def test_speed_probe_windows_and_corrected_times():
    samples = calibrate.Samples()
    samples.at, samples.took = [0.0, 1.0, 2.0, 10.0], [0.001, 0.002, 0.003, 0.004]
    assert samples.spent(0.5, 2.0) == 0.002
    assert samples.factor(0.9, 2.1) == pytest.approx(calibrate.NOMINAL_S / 0.0025)
    assert samples.factor(1.01, 1.02) == pytest.approx(calibrate.NOMINAL_S / 0.002)
    # no probe in the window: the nearest one on each side
    assert samples.factor(5.0, 6.0) == pytest.approx(calibrate.NOMINAL_S / 0.0035)
    with pytest.raises(RuntimeError):
        calibrate.Samples().factor(0.0, 1.0)
    subset = gen.build("small-exact", 3, kcut)[:20]
    job = {"src": str(HERE.parent / "src"), "seconds": 0, "warmup_s": 0, "trace": False,
           "instances": [{"text": i.text, "k": i.k} for i in subset]}
    result = worker.run_job(job)
    assert result["passes"] == 1 and result["probes"] > 0
    assert len(result["times"]) == len(result["raw_times"]) == len(subset)
    assert all(t > 0 for t in result["times"] + result["raw_times"])
