"""Command-line front end: parse a graph, run a stage or the full solver,
and print a JSON report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
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
from .sparsify import KTParams
from .treecut import TrialConfig, tree_cut


class ConfigError(ValueError):
    """Bad flag combination or --config payload."""


def _build_parsers() -> dict:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="edgelist")
    common.add_argument("--k", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--exhaustive", action="store_true")
    common.add_argument("--mode", choices=MODES, default="auto")
    common.add_argument("--config", default=None,
                        help="JSON object (or @file) with trial/kt overrides")
    common.add_argument("--no-timing", action="store_true")

    parsers = {}
    for name in ("solve", "oracle", "sparsify", "treepack", "treecut"):
        p = argparse.ArgumentParser(prog="kcut %s" % name, parents=[common])
        p.add_argument("path", nargs="?", default="-")
        parsers[name] = p
    p = argparse.ArgumentParser(prog="kcut gen", parents=[common])
    p.add_argument("kind", choices=("clique-reduction", "random"))
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--multi", action="store_true")
    parsers["gen"] = p
    p = argparse.ArgumentParser(prog="kcut bench", parents=[common])
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


def _overrides(args) -> dict:
    if not args.config:
        return {}
    text = args.config
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("--config is not valid JSON: %s" % e)
    if not isinstance(data, dict):
        raise ConfigError("--config must be a JSON object")
    unknown = set(data) - {"trial", "kt"}
    if unknown:
        raise ConfigError("unknown --config sections: %s" % sorted(unknown))
    for section, payload in data.items():
        if not isinstance(payload, dict):
            raise ConfigError("--config section %r must be an object" % section)
    return data


def _apply(base, payload: dict, what: str):
    try:
        return replace(base, **payload)
    except (TypeError, ValueError) as e:
        raise ConfigError("bad %s override: %s" % (what, e))


def _seed(args) -> int:
    """The --seed flag, 0 when it is not given."""
    return args.seed if args.seed is not None else 0


def _trial_config(args) -> TrialConfig:
    """The `trial` section of --config, with the flags given on top."""
    payload = dict(args.overrides.get("trial", {}))
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.exhaustive:
        payload["trials"] = "exhaustive"
    elif args.trials is not None:
        payload["trials"] = args.trials
    return _apply(TrialConfig(), payload, "trial")


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
        "tight_tree_found")}
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
    return build_report("oracle", n=g.n, m=g.m, k=k, seed=_seed(args),
                        solution=solution_payload(g, labels, sol),
                        stats={"oracle_value": sol.value},
                        times=_times(args, parse=t_parse, solve=t_solve))


def _cmd_sparsify(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = args.k if args.k is not None else 2
    delta = g.min_degree() if g.n else 0
    section = args.overrides.get("kt")  # merged over the solver's alpha = k^2
    params = None if section is None else _apply(KTParams(alpha=k * k), section, "kt")
    if not is_simple(g):
        raise ValueError("parallel edges: certificate is stated for simple graphs")
    t0 = time.perf_counter()
    lam, ni, kt = sparsify_for_k(g, k, params)
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
    return build_report("sparsify", n=g.n, m=g.m, k=k, seed=_seed(args),
                        stats=stats, times=_times(args, parse=t_parse, run=t_run),
                        extra=extra)


def _cmd_treepack(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = args.k if args.k is not None else 2
    default = tree_count(k, g.n)  # rejects k < 1 even when --trials sets the count
    count = args.trials if args.trials is not None else default
    t0 = time.perf_counter()
    pack = greedy_tree_packing(g, count)
    t_run = time.perf_counter() - t0
    trees = [sorted(t.edge_ids) for t in pack.trees]
    stats = {
        "count": count,
        "distinct": len({frozenset(ids) for ids in trees}),
        "max_load": max(pack.loads.values()) if pack.loads else 0,
        "trees": trees,
    }
    return build_report("treepack", n=g.n, m=g.m, k=k, seed=_seed(args),
                        stats=stats, times=_times(args, parse=t_parse, run=t_run))


def _cmd_treecut(args) -> dict:
    g, labels, t_parse = _parse_timed(args)
    k = _require_k(args)
    trial = _trial_config(args)
    lam = nontrivial_bound(g, k)
    t0 = time.perf_counter()
    tree = greedy_tree_packing(g, 1).trees[0]
    sol = tree_cut(g, tree, lam, k, trial)
    t_run = time.perf_counter() - t0
    stats = {"lambda": lam, "tree_edges": sorted(tree.edge_ids), "trials": trial.trials}
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
    return build_report("gen", n=h.n, m=h.m, k=k, seed=_seed(args), extra=extra,
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
    try:
        args = _build_parsers()[command].parse_intermixed_args(rest)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        args.overrides = _overrides(args)
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
