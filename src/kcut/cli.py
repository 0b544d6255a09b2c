"""Command-line front end: parse a graph, run a stage or the full solver,
and print a JSON report.  Flags are the only settings, and each command
takes only the flags it reads."""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Tuple

from .errors import BudgetExceeded, Infeasible, ParseError
from .graph import is_simple
from .io import (
    FORMATS,
    build_report,
    dumps_report,
    gen_clique_reduction,
    gen_random,
    parse_graph,
    serialize_graph,
    solution_payload,
)
from .oracles import brute_min_kcut
from .packing import greedy_tree_packing
from .solver import MODES, SolverConfig, nontrivial_bound, solve_with_stats
from .solver import sparsify_for_k, tree_count
from .tree import RootedTree
from .treecut import TrialConfig, tree_cut


class ConfigError(ValueError):
    """Missing or bad flag for the command."""


GEN_KINDS = ("clique-reduction", "random")


def _build_parsers() -> dict:
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--no-timing", action="store_true")
    common = argparse.ArgumentParser(add_help=False, parents=[timing])
    common.add_argument("--k", type=int, default=None)
    fmt = argparse.ArgumentParser(add_help=False)  # commands that parse a graph
    fmt.add_argument("--format", choices=FORMATS, default="edgelist")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    trial = argparse.ArgumentParser(add_help=False)
    trial.add_argument("--trials", type=int, default=None)
    trial.add_argument("--exhaustive", action="store_true")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=MODES, default="auto")

    parents = {
        "solve": [common, fmt, seed, trial, mode],
        "oracle": [common, fmt],
        "sparsify": [common, fmt],
        "treepack": [common, fmt],
        "treecut": [common, fmt, seed, trial],
    }
    parsers = {}
    for name, shared in parents.items():
        p = argparse.ArgumentParser(prog="kcut %s" % name, parents=shared)
        p.add_argument("path", nargs="?", default="-")
        parsers[name] = p
    # treepack's own --trials is its tree count
    parsers["treepack"].add_argument("--trials", type=int, default=None)
    # one parser per gen kind, named "gen <kind>"
    p = argparse.ArgumentParser(prog="kcut gen random", parents=[timing, seed])
    p.set_defaults(kind="random")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--multi", action="store_true")
    parsers["gen random"] = p
    p = argparse.ArgumentParser(prog="kcut gen clique-reduction", parents=[common, fmt])
    p.set_defaults(kind="clique-reduction")
    p.add_argument("path", nargs="?", default="-")
    parsers["gen clique-reduction"] = p
    p = argparse.ArgumentParser(prog="kcut bench", parents=[common, seed, trial, mode])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--count", type=int, default=5)
    parsers["bench"] = p
    return parsers


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _seed(args) -> int:
    """The --seed flag, 0 when it is not given."""
    return args.seed if args.seed is not None else 0


def _trial_config(args) -> TrialConfig:
    """--seed, --trials and --exhaustive; without the last two, TrialConfig's default count."""
    trials = "exhaustive" if args.exhaustive else args.trials
    if trials is None:
        return TrialConfig(seed=_seed(args))
    return TrialConfig(seed=_seed(args), trials=trials)


def _require_k(args) -> int:
    if args.k is None:
        raise ConfigError("--k is required for this command")
    return args.k


def _parse_timed(args) -> Tuple:
    t0 = time.perf_counter()
    g, labels = parse_graph(_read_input(args.path), args.format)
    return g, labels, time.perf_counter() - t0


def _times(args, **stages) -> Optional[dict]:
    if args.no_timing:
        return None
    stages["total"] = sum(stages.values())
    return stages


def _cmd_solve(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = _require_k(args)
    cfg = SolverConfig(mode=args.mode, trial=_trial_config(args))
    t0 = time.perf_counter()
    sol, stats = solve_with_stats(g, k, cfg)
    t_solve = time.perf_counter() - t0
    payload = {key: stats[key] for key in (
        "mode", "cells", "sparsified_cells", "trees_packed", "trees_evaluated",
        "ni_edges", "kt_iterations", "oracle_value", "oracle_agrees",
        "tight_tree_found", "lower_bound", "gap", "certified")}
    payload["trials"] = cfg.trial.trials
    return build_report("solve", n=g.n, m=g.m, k=k, seed=cfg.trial.seed,
                        solution=solution_payload(g, labels, sol), stats=payload,
                        times=_times(args, parse=t_parse, solve=t_solve))


def _cmd_oracle(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = _require_k(args)
    t0 = time.perf_counter()
    sol = brute_min_kcut(g, k)
    t_solve = time.perf_counter() - t0
    return build_report("oracle", n=g.n, m=g.m, k=k,
                        solution=solution_payload(g, labels, sol),
                        stats={"oracle_value": sol.value},
                        times=_times(args, parse=t_parse, solve=t_solve))


def _cmd_sparsify(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = args.k if args.k is not None else 2
    delta = g.min_degree() if g.n else 0
    if not is_simple(g):
        raise ValueError("parallel edges: certificate is stated for simple graphs")
    t0 = time.perf_counter()
    lam, ni, kt = sparsify_for_k(g, k)
    t_run = time.perf_counter() - t0
    stats = {
        "delta": delta,
        "lambda": lam,
        "ni_edges": ni.m,
        "ni_forests": lam,
        "kt_iterations": [
            {"edges_before": it.edges_before, "edges_after": it.edges_after,
             "cut_edges": it.cut_edges, "cores": it.cores,
             "supervertices": it.supervertices_after, "gamma": str(it.gamma)}
            for it in kt.iterations],
        "contracted_n": kt.contracted.n,
        "contracted_m": kt.contracted.m,
    }
    extra = {"contracted_edgelist": serialize_graph(kt.contracted)}
    return build_report("sparsify", n=g.n, m=g.m, k=k, stats=stats,
                        times=_times(args, parse=t_parse, run=t_run), extra=extra)


def _cmd_treepack(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = args.k if args.k is not None else 2
    default = tree_count(k, g.n)  # rejects k < 1 even when --trials sets the count
    count = args.trials if args.trials is not None else default
    t0 = time.perf_counter()
    pack = greedy_tree_packing(g, count)
    t_run = time.perf_counter() - t0
    stats = {
        "count": count,
        "distinct": len(set(pack.trees)),
        "max_load": max(pack.loads.values()) if pack.loads else 0,
        "trees": [sorted(t) for t in pack.trees],
    }
    return build_report("treepack", n=g.n, m=g.m, k=k, stats=stats,
                        times=_times(args, parse=t_parse, run=t_run))


def _cmd_treecut(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = _require_k(args)
    trial = _trial_config(args)
    lam = nontrivial_bound(g, k)
    t0 = time.perf_counter()
    ids = greedy_tree_packing(g, 1).trees[0]
    sol = tree_cut(g, RootedTree.from_edge_ids(g, ids), lam, k, trial)
    t_run = time.perf_counter() - t0
    stats = {"lambda": lam, "tree_edges": sorted(ids), "trials": trial.trials}
    return build_report("treecut", n=g.n, m=g.m, k=k, seed=trial.seed,
                        solution=solution_payload(g, labels, sol), stats=stats,
                        times=_times(args, parse=t_parse, run=t_run))


def _cmd_gen(args) -> dict:
    if args.kind == "random":
        if args.n is None:
            raise ConfigError("gen random needs --n")
        t0 = time.perf_counter()
        h = gen_random(args.n, _seed(args), p=args.p, m=args.m,
                       simple=not args.multi)
        t_run = time.perf_counter() - t0
        extra = {"kind": "random", "edgelist": serialize_graph(h)}
        return build_report("gen", n=h.n, m=h.m, seed=_seed(args), extra=extra,
                            times=_times(args, run=t_run))
    g, labels, t_parse = _parse_timed(args)
    k = _require_k(args)
    t0 = time.perf_counter()
    h, expected = gen_clique_reduction(g, k)
    t_run = time.perf_counter() - t0
    extra = {"kind": "clique-reduction", "edgelist": serialize_graph(h),
             "expected_value": expected}
    return build_report("gen", n=h.n, m=h.m, k=k, extra=extra,
                        times=_times(args, parse=t_parse, run=t_run))


def _cmd_bench(args) -> dict:
    k = args.k if args.k is not None else 2
    cfg = SolverConfig(mode=args.mode, trial=_trial_config(args))
    runs = []
    t_all = 0.0
    for i in range(args.count):
        g = gen_random(args.n, _seed(args) + i, p=args.p)
        t0 = time.perf_counter()
        sol, stats = solve_with_stats(g, k, cfg)
        dt = time.perf_counter() - t0
        t_all += dt
        row = {"seed": _seed(args) + i, "n": g.n, "m": g.m, "value": sol.value,
               "provenance": sol.provenance,
               "oracle_value": stats["oracle_value"]}
        if not args.no_timing:
            row["time"] = dt
        runs.append(row)
    return build_report("bench", n=args.n, k=k, seed=_seed(args),
                        extra={"runs": runs},
                        times=_times(args, solve=t_all))


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "sparsify": _cmd_sparsify,
    "treepack": _cmd_treepack,
    "treecut": _cmd_treecut,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


USAGE = "usage: kcut {%s} [options] [path]\n" % ",".join(_COMMANDS)


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        print("error: unknown command %r" % command, file=sys.stderr)
        return 1
    name = command
    if command == "gen":
        if not rest or rest[0] not in GEN_KINDS:
            asked = rest[:1] in (["-h"], ["--help"])
            print("usage: kcut gen {%s} [options]" % ",".join(GEN_KINDS),
                  file=sys.stdout if asked else sys.stderr)
            return 0 if asked else 1
        name, rest = "gen " + rest[0], rest[1:]
    parser = _build_parsers()[name]
    try:
        # report unknown flags, not the path an unknown flag's value displaced
        args, extra = parser.parse_known_intermixed_args(rest)
        if extra:
            flags = [a for a in extra if a.startswith("-")]
            parser.error("unrecognized arguments: %s" % " ".join(flags or extra))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        report = _COMMANDS[command](args)
    except ParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except Infeasible as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (BudgetExceeded, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(dumps_report(report))
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
