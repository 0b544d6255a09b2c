#!/usr/bin/env python3
"""kcut benchmark: seeded workloads, timed solves, independent answer checks.

    python3 perfbench/run.py --workload tree-trials --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from a checkout's root (any directory works; paths come from this
file).  For each workload the benchmark generates its instances from the
seed, computes references here (closed forms, brute force, networkx), then
hands only the edgelist texts to a fresh solver process (`worker.py`),
which imports kcut from `src/` and times `parse_graph` + `solve_with_stats`
per solve.  Every answer is re-scored here from the raw pairs.

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps kcut's
public functions (`tracing.py`) and prints the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the line before it carries the
full report (versions, commit, seed, instance counts, quality counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("small-exact", "tree-trials", "dense-kt", "large-branch")
# Fixed per workload so the metric means the same thing on every commit;
# chosen so runs of the seed commit leave at least ten solves beyond it
# where the run length allows (dense-kt solves too few).
TAIL_PERCENTILE = {"small-exact": 98, "tree-trials": 75, "dense-kt": 75, "large-branch": 95}
WARMUP_S = 1.5
SETUP_RUNS = 11
DEADLINE_S = 170


def fail(message: str) -> None:
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup(runs: int) -> List[float]:
    """Wall time of a fresh interpreter running `import kcut`, `runs` times.

    Raw wall time: the speed probe, run between the imports, did not track
    the imports' own slowdowns and made the median vary more, not less.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(runs):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import kcut"], env=env, cwd=str(ROOT),
                       check=True)
        out.append(time.perf_counter() - start)
    return out


def run_worker(job: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=env, cwd=str(ROOT),
                          timeout=timeout)
    if proc.returncode != 0:
        fail("solver process exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout)


def tally(instances, refs, result: dict):
    """Check every answer; return (attempted, failed, reason per instance).

    A reason is "" for a valid answer.  Each pass solves every instance, so
    an invalid answer fails once per pass; a later pass that disagrees with
    the first fails too.
    """
    from answers import problem

    reasons = []
    for inst, ref, ans in zip(instances, refs, result["answers"]):
        if "error" in ans:
            reasons.append("raised " + ans["error"])
        else:
            reasons.append(problem(inst.pairs, inst.k, ans["blocks"], ans["value"], ref.value)
                           or "")
    attempted = result["passes"] * len(instances)
    failed = result["passes"] * sum(1 for why in reasons if why) + result.get("mismatches", 0)
    return attempted, failed, reasons


def quality(instances, refs, answers, reasons) -> dict:
    """optimal_share over instances with a known optimum, excess over all valid answers."""
    known = [i for i, r in enumerate(refs) if r.known]
    valid = [i for i, why in enumerate(reasons) if not why]
    hits = sum(1 for i in known if not reasons[i] and answers[i]["value"] == refs[i].value)
    return {
        "optimal_known": len(known),
        "optimal_hits": hits,
        "optimal_share": hits / len(known) if known else 1.0,
        "excess": sum(answers[i]["value"] - refs[i].value for i in valid),
    }


def end_to_end(workload: str, result: dict, setup: List[float], q: dict) -> Dict[str, tuple]:
    times = result["times"]
    per_pass = len(times) // result["passes"]
    # throughput per pass, median over passes: a burst of load from outside
    # the benchmark then moves one pass, not the figure
    throughput = [per_pass / sum(times[i:i + per_pass]) for i in range(0, len(times), per_pass)]
    times = sorted(times)
    return {
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (percentile(times, TAIL_PERCENTILE[workload]), "s"),
        "solves_per_s": (statistics.median(throughput), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "optimal_share": (q["optimal_share"], "ratio"),
    }


def per_layer(result: dict) -> Dict[str, tuple]:
    """Per traced pass, i.e. summed over the workload's instances once."""
    passes = result["passes"]
    calls, self_s = result["calls"], result["self_s"]
    answers = [a for a in result["answers"] if "error" not in a]

    def s(label):
        return self_s.get(label, 0.0) / passes

    def c(label):
        return calls.get(label, 0) / passes

    def total(key):
        return sum(a[key] for a in answers)

    ran = [a for a in answers if a["trees_evaluated"] > 0]
    packed = total("trees_packed")
    kt_in, kt_out = result["kt_n"]
    plain = result["plain_pass_s"]
    overhead = statistics.median(t / ((plain[i] + plain[i + 1]) / 2) - 1
                                 for i, t in enumerate(result["traced_pass_s"]))
    solver_self = sum(v for label, v in self_s.items() if label.startswith("solver.")) / passes
    return {
        "io.parse_graph.s": (s("io.parse_graph"), "s"),
        "solver.self_s": (solver_self, "s"),
        "solver.cells": (total("cells"), "count"),
        "graph.induced_subgraph.calls": (c("graph.induced_subgraph"), "count"),
        "graph.induced_subgraph.s": (s("graph.induced_subgraph"), "s"),
        "graph.connected_components.s": (s("graph.connected_components"), "s"),
        "graph.cut_value.calls": (c("graph.cut_value"), "count"),
        "graph.cut_value.s": (s("graph.cut_value"), "s"),
        "tree.forest_components.calls": (c("tree.forest_components"), "count"),
        "tree.forest_components.s": (s("tree.forest_components"), "s"),
        "graph.contract.calls": (c("graph.contract"), "count"),
        "graph.contract.s": (s("graph.contract"), "s"),
        "sparsify.ni_sparsify.s": (s("sparsify.ni_sparsify"), "s"),
        "sparsify.kt_sparsify.s": (s("sparsify.kt_sparsify"), "s"),
        "sparsify.low_conductance_cut.s": (s("sparsify.low_conductance_cut"), "s"),
        "sparsify.cells": (total("sparsified_cells"), "count"),
        "sparsify.kt_shrink": (kt_out / kt_in if kt_in else 0.0, "ratio"),
        "packing.greedy_tree_packing.s": (s("packing.greedy_tree_packing"), "s"),
        "packing.trees_packed": (packed, "count"),
        "packing.distinct_share": (total("trees_evaluated") / packed if packed else 0.0, "ratio"),
        "treecut.tree_cut.calls": (c("treecut.tree_cut"), "count"),
        "treecut.tree_cut.s": (s("treecut.tree_cut"), "s"),
        "treecut.fill_states.self_s": (s("treecut.fill_states"), "s"),
        "treecut.contract_branches.s": (s("treecut.contract_branches"), "s"),
        "treecut.eval_f_p.s": (s("treecut.eval_f_p"), "s"),
        "treecut.group_components.s": (s("treecut.group_components"), "s"),
        "treecut.contract_safe_edges.s": (s("treecut.contract_safe_edges"), "s"),
        "tree.build_hld.s": (s("tree.build_hld"), "s"),
        "treecut.win_share": (sum(1 for a in ran if a["provenance"] == "treecut") / len(ran)
                              if ran else 0.0, "ratio"),
        "treecut.skipped_share": ((len(answers) - len(ran)) / len(answers) if answers else 0.0,
                                  "ratio"),
        "oracles.brute_min_kcut.s": (s("oracles.brute_min_kcut"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def environment(kcut) -> dict:
    import networkx
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kcut": os.path.dirname(kcut.__file__),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, kcut,
                 started: float) -> dict:
    import instances as gen
    from references import reference

    insts = gen.build(workload, seed, kcut)
    refs = [reference(inst, kcut) for inst in insts]
    setup = [] if trace else measure_setup(SETUP_RUNS)
    job = {"src": str(SRC), "instances": [{"text": i.text, "k": i.k} for i in insts],
           "seconds": seconds, "warmup_s": WARMUP_S, "trace": trace}
    result = run_worker(job, max(10.0, DEADLINE_S - (time.perf_counter() - started)))
    attempted, failed, reasons = tally(insts, refs, result)
    q = quality(insts, refs, result["answers"], reasons)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "instances": len(insts),
        "passes": result["passes"],
        "solves": attempted,
        "failed_share": failed / attempted,
        "excess": q["excess"],
        "optimal_known": q["optimal_known"],
        "optimal_hits": q["optimal_hits"],
        "invalid": {inst.name: why for inst, why in zip(insts, reasons) if why},
        "nondeterministic_solves": result.get("mismatches", 0),
    }
    if trace:
        metrics = per_layer(result)
        report["tracing_overhead"] = metrics["trace.overhead"][0]
    else:
        metrics = end_to_end(workload, result, setup, q)
        pct = TAIL_PERCENTILE[workload]
        report["tail_percentile"] = pct
        report["tail_solves_beyond"] = int(attempted * (100 - pct) / 100)
        report["setup_runs_s"] = setup
        raw = sorted(result["raw_times"])
        report["raw_solve_s.p50"] = statistics.median(raw)
        report["raw_solve_s.tail"] = percentile(raw, pct)
        report["speed_probes"] = result["probes"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "report": report}


def print_result(res: dict) -> None:
    rep = res["report"]
    print("# %s seed=%d trace=%d: %d instances x %d passes, %d failed"
          % (rep["workload"], rep["seed"], rep["trace"], rep["instances"], rep["passes"],
             res["failed"]))
    for name, m in res["metrics"].items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-32s %14.6g %s" % ("excess", rep["excess"], "edges"))
    print("%-32s %14.6g %s" % ("failed_share", rep["failed_share"], "ratio"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "kcut" / "__init__.py").is_file():
        fail("no kcut sources at %s; run from a checkout of the repository" % SRC)
    from worker import import_kcut
    try:
        kcut = import_kcut(str(SRC))
    except ImportError as exc:
        fail(str(exc))
    env = environment(kcut)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), kcut,
                           time.perf_counter() if args.workload == "all" else started)
        res["report"].update(env)
        print_result(res)
        print(json.dumps({"report": res.pop("report")}, sort_keys=True))
        results.append((name, res))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {"%s/%s" % (name, m): v for name, r in results
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
