"""Solver process: times `parse_graph` + `solve_with_stats` on the given texts.

Reads one JSON job from stdin and writes one JSON result to stdout.  It
imports kcut and nothing else from the benchmark's reference side
(networkx, brute force), so its peak RSS is the solver's own.

A job is {"src": path, "instances": [{"text", "k"}], "seconds", "warmup_s",
"trace"}.  Solves run in passes over all instances in order; another pass
starts only if it is expected to end within `seconds`, so every pass is
complete and each instance has the same weight in the timings.  A speed
probe (`calibrate.py`) runs every 20 ms meanwhile; each solve's time is
its wall time minus the probes inside it, times the machine's speed factor
around it (`times`), and also without that factor (`raw_times`).  With
"trace" untraced and traced passes alternate, and the result carries the
span totals of the traced passes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import List, Optional, Tuple

from calibrate import WINDOW_S, Probe, Samples


def import_kcut(src: str):
    """Import kcut from `src` only, never from an installed copy."""
    sys.path.insert(0, src)
    import kcut
    where = os.path.realpath(kcut.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("kcut imported from %s, not from %s" % (where, src))
    return kcut


def solve_once(kcut, text: str, k: int) -> dict:
    """One solve as `kcut solve` does it, minus the JSON report."""
    g, labels = kcut.parse_graph(text)
    sol, stats = kcut.solve_with_stats(g, k)
    return {
        "value": sol.value,
        "blocks": sorted(sorted(labels[v] for v in b) for b in sol.partition.blocks),
        "provenance": sol.provenance,
        "cells": stats["cells"],
        "sparsified_cells": stats["sparsified_cells"],
        "trees_packed": stats["trees_packed"],
        "trees_evaluated": stats["trees_evaluated"],
    }


def run_pass(kcut, instances: List[dict],
             spans: Optional[List[Tuple[float, float]]] = None) -> List[dict]:
    """Solve every instance once; an exception becomes {"error": ...}.

    Each solve's (start, end) on the perf_counter clock goes to `spans`.
    """
    out = []
    clock = time.perf_counter
    for inst in instances:
        start = clock()
        try:
            answer = solve_once(kcut, inst["text"], inst["k"])
        except Exception as exc:  # a raised solve is a failed solve, not a crash
            answer = {"error": "%s: %s" % (type(exc).__name__, exc)}
        if spans is not None:
            spans.append((start, clock()))
        out.append(answer)
    return out


def warm_up(kcut, instances: List[dict], budget_s: float) -> None:
    """Solve instances in order until `budget_s` has passed (at least one)."""
    start = time.perf_counter()
    for inst in instances:
        run_pass(kcut, [inst])
        if time.perf_counter() - start >= budget_s:
            return


def run_job(job: dict) -> dict:
    kcut = import_kcut(job["src"])
    instances = job["instances"]
    if job.get("trace"):
        return traced_passes(kcut, instances, job["seconds"], job["warmup_s"])
    samples = Samples()
    spans: List[Tuple[float, float]] = []
    answers = None
    mismatches = 0
    passes = 0
    pass_s = 0.0
    with Probe(samples):
        # probing during the warm-up too gives the first solves probes before them
        warm_up(kcut, instances, job["warmup_s"])
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start + pass_s <= job["seconds"]:
            t0 = time.perf_counter()
            got = run_pass(kcut, instances, spans)
            pass_s = time.perf_counter() - t0
            passes += 1
            if answers is None:
                answers = got
            else:
                mismatches += sum(1 for a, b in zip(answers, got) if a != b)
        # probes after the last solve, so its window is as full as the others'
        time.sleep(WINDOW_S)
    raw = [t1 - t0 - samples.spent(t0, t1) for t0, t1 in spans]
    return {
        "answers": answers,
        "times": [t * samples.factor(t0, t1) for t, (t0, t1) in zip(raw, spans)],
        "raw_times": raw,
        "probes": len(samples.took),
        "passes": passes,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_passes(kcut, instances: List[dict], seconds: float, warmup_s: float) -> dict:
    """Untraced and traced passes in turn, untraced first and last.

    Each traced pass sits between two untraced ones, so the tracing
    overhead can be taken against their mean.  The speed probe runs
    throughout: pass times are corrected like solve times, and a probe
    inside a span is left out of that span's self time.  Span totals
    cover all traced passes.
    """
    from tracing import Tracer

    tracer = Tracer()
    samples = Samples()
    plain: List[Tuple[float, float]] = []
    traced: List[Tuple[float, float]] = []
    answers = None

    def timed_pass() -> Tuple[float, float]:
        nonlocal answers
        t0 = time.perf_counter()
        answers = run_pass(kcut, instances)
        return t0, time.perf_counter()

    def took(span: Tuple[float, float]) -> float:
        return span[1] - span[0]

    def corrected(spans: List[Tuple[float, float]]) -> List[float]:
        return [(t1 - t0 - samples.spent(t0, t1)) * samples.factor(t0, t1) for t0, t1 in spans]

    with Probe(samples, tracer.exclude):
        warm_up(kcut, instances, warmup_s)
        start = time.perf_counter()
        plain.append(timed_pass())
        while (not traced
               or time.perf_counter() - start + took(traced[-1]) + took(plain[-1]) <= seconds):
            with tracer:
                traced.append(timed_pass())
            plain.append(timed_pass())
        time.sleep(WINDOW_S)
    return {
        "answers": answers,
        "passes": len(traced),
        "plain_pass_s": corrected(plain),
        "traced_pass_s": corrected(traced),
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "kt_n": tracer.kt_n,
    }


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(run_job(job), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
