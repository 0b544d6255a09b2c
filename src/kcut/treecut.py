"""Finding the best k-1 tree edges to delete, by color coding.

Given a spanning tree, the k-cut problem restricted to tree-edge deletions
is attacked bottom-up: for every subtree and every part count, a state
records the cheapest way to split that subtree, certified by an explicit
deletion set.  Randomized trials (edge coloring plus branch contraction)
price candidate deletions through an ancestor-cut estimator, and a
min-plus pick of one deletion budget per candidate combines them; every
proposal is re-scored against the real graph, so stored values are always
achievable and never below the true optimum of the deletions they name.
A cell with at most SWEEP_MAX_SUBSETS deletion sets skips the trial
machinery and enumerates them outright: each tree edge gets a crossing
mask, one bit per graph edge whose tree path holds it, and a set costs
the popcount of the OR of its edges' masks.  `tree_cut` does so at the root
whenever the tree's non-safe edges qualify, without filling any state or
contracting the safe edges (read off a Gomory-Hu tree).  Otherwise it
contracts that same safe set in the graph and the tree, and fills the
states of the contraction.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import Infeasible
from .graph import (
    ContractionMap,
    KCutSolution,
    MultiGraph,
    Partition,
    cut_edge_set,
    gomory_hu,
    induced_subgraph,
    pull_back,
    quotient,
    union_find,
)
from .tree import (
    HLD,
    RootedTree,
    build_hld,
    forest_components,
    forest_labels,
    tree_quotient,
)

INF = math.inf
ROOT = -1  # stand-in endpoint for "kept with the root side" in the cut graph
# exhaustive trials enumerate colorings and contraction patterns only while
# E' and the branch count stay this small; larger subtrees sample instead
EXHAUSTIVE_EPRIME_CAP = 20
EXHAUSTIVE_BRANCH_CAP = 16
# a cell with at most this many deletion sets enumerates them exactly;
# C(12, 6), so every cell of a tree with at most 12 edges is swept
SWEEP_MAX_SUBSETS = 924


@dataclass(frozen=True)
class TrialConfig:
    """Seed and count of the randomized trials.

    Trials run only in cells with more than SWEEP_MAX_SUBSETS deletion
    sets; smaller cells are swept.
    """

    seed: int = 0
    trials: Union[int, str] = 16  # an integer, or "exhaustive"

    def __post_init__(self):
        if self.trials != "exhaustive" and not (type(self.trials) is int and self.trials >= 1):
            raise ValueError("trials must be a positive integer or 'exhaustive', got %r"
                             % (self.trials,))

    @property
    def exhaustive(self) -> bool:
        return self.trials == "exhaustive"

    def trial_count(self, k: int, lam: int, n: int) -> int:
        # the analysis asks for 4^k * lam^k * ln(n+1) repetitions; cap at the
        # configured budget (exhaustive mode over the caps samples a fixed 64)
        cap = 64 if self.exhaustive else self.trials
        want = math.ceil(4 ** k * max(lam, 1) ** k * math.log(n + 1))
        return max(1, min(want, cap))


def derived_seed(seed: int, *key) -> int:
    """A seed for (seed, key), independent of interpreter hash randomization."""
    digest = hashlib.blake2b(repr((seed,) + key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derived_rng(seed: int, *key) -> random.Random:
    """Seeded stream independent of interpreter hash randomization."""
    return random.Random(derived_seed(seed, *key))


@dataclass(frozen=True)
class Coloring:
    """Red/green labels over the incomparable-endpoint edge set."""

    domain: FrozenSet[int]
    green: FrozenSet[int]


def _draw_green(ordered: Sequence[int], lam: int, rng: random.Random) -> FrozenSet[int]:
    """Each edge green with probability 1/lam, one draw per edge in the given order."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return frozenset(e for e in ordered if rng.random() < 1.0 / lam)


def all_colorings(eprime: Iterable[int]) -> Iterator[Coloring]:
    """Every red/green assignment, smallest green sets first."""
    dom = frozenset(eprime)
    ids = sorted(dom)
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            yield Coloring(dom, frozenset(combo))


def contract_branches(
    t: RootedTree, hld: HLD, chosen: Iterable[int]
) -> Tuple[RootedTree, ContractionMap]:
    """Contract every edge of the chosen branches; the root survives."""
    picked = set(chosen)
    return tree_quotient(t, [eid for eid, bid in hld.branch_id.items() if bid in picked])


@dataclass(frozen=True)
class CandidateSet:
    """A green-connected group of root children with its minimal elements."""

    members: Tuple[int, ...]
    minelts: FrozenSet[int]
    green_edges: FrozenSet[int]


@dataclass(frozen=True)
class GPrime:
    """Auxiliary cut graph for one candidate, plus the always-cut count.

    Edges live on the candidate's original vertices with ROOT standing in
    for anything kept on the root side.
    """

    edges: Tuple[Tuple[int, int], ...]
    bcount: int


@dataclass(frozen=True)
class TrialSetting:
    """One node's graph/tree context under one coloring and contraction.

    `tmap.mapping` is the image of every t vertex in tprime.  Every class
    of the contraction is a connected piece of t; outside the root's
    class, the piece's top keeps its parent edge, which names the piece's
    vertex in tprime.
    """

    g: MultiGraph          # graph induced on the node's subtree (local ids)
    t: RootedTree          # the subtree itself, rooted at the node
    tprime: RootedTree     # after branch contraction
    tmap: ContractionMap   # t vertices -> tprime vertices
    coloring: Coloring
    eprime: FrozenSet[int]


def incomparable_edges(g: MultiGraph, t: RootedTree, hld: HLD) -> FrozenSet[int]:
    """Edges whose endpoints' branch subroots are incomparable.

    These are the only edges a coloring acts on: an edge inside a single
    root path can never cross two sibling subtrees.
    """
    sub = {}
    for v in t.order:
        e = t.parent_edge(v)
        if e is not None:
            sub[v] = hld.subroot[hld.branch_id[e]]
    out = set()
    for e in g.edge_ids:
        a, b = g.endpoints(e)
        if a == t.root or b == t.root:
            continue
        sa, sb = sub[a], sub[b]
        if sa != sb and t.incomparable(sa, sb):
            out.add(e)
    return frozenset(out)


def group_components(
    children: Sequence[int], coloring: Coloring, setting: TrialSetting
) -> List[CandidateSet]:
    """Green-connect the root's children; one candidate per component.

    Minimal elements are the contracted images of green endpoints, reduced
    to the shallowest representatives inside each component's subtrees.
    Components come ordered by their smallest child.
    """
    tp = setting.tprime
    image = setting.tmap.mapping
    children = sorted(children)
    owner: List[Optional[int]] = [None] * tp.n  # index of the child above each vertex
    for i, c in enumerate(children):
        for w in tp.subtree(c):
            owner[w] = i
    joins: List[Tuple[int, int]] = []
    touch: List[List[int]] = [[] for _ in children]
    points: List[List[int]] = [[] for _ in children]
    for e in sorted(coloring.green):
        a, b = setting.g.endpoints(e)
        ia, ib = image[a], image[b]
        ca, cb = owner[ia], owner[ib]
        if ca is not None:
            touch[ca].append(e)
            points[ca].append(ia)
        if cb is not None:
            touch[cb].append(e)
            points[cb].append(ib)
        if ca is not None and cb is not None and ca != cb:
            joins.append((ca, cb))
    labels, merged = union_find(len(children), joins)
    groups: List[List[int]] = [[] for _ in range(len(children) - len(merged))]
    for i, label in enumerate(labels):
        groups[label].append(i)
    out = []
    for group in groups:
        greens: List[int] = []
        endpoints: List[int] = []
        for i in group:
            greens.extend(touch[i])
            endpoints.extend(points[i])
        members = tuple(children[i] for i in group)
        out.append(CandidateSet(members, tp.minimal_elements(endpoints), frozenset(greens)))
    return out


def _classify(setting: TrialSetting, candidates: Sequence[CandidateSet]):
    """One pass over the node's edges: per-candidate cut graphs and counts.

    Rules, for an edge with at least one endpoint inside a candidate's
    subtrees: colored edges touching a minimal-element subtree are charged
    unconditionally; other colored edges split into independent root
    stubs; uncolored edges below one common minimal element can never be
    cut by an ancestor cut and vanish; everything else is kept with
    outside endpoints clamped to the root.

    Candidates are disjoint and keep their minimal elements inside their
    own subtrees, as `group_components` makes them, so all minimal
    elements form one antichain: each tprime vertex lies below at most
    one of them, and that one belongs to the vertex's own candidate.
    """
    tp = setting.tprime
    image = setting.tmap.mapping
    owner: List[Optional[int]] = [None] * tp.n  # candidate holding each vertex
    above: List[Optional[int]] = [None] * tp.n  # minimal element above each vertex
    for i, u in enumerate(candidates):
        for c in u.members:
            for w in tp.subtree(c):
                owner[w] = i
        for s in u.minelts:
            for w in tp.subtree(s):
                above[w] = s
    edges: List[List[Tuple[int, int]]] = [[] for _ in candidates]
    bcount = [0] * len(candidates)
    g, eprime = setting.g, setting.eprime
    for e in g.edge_ids:
        a, b = g.endpoints(e)
        ia, ib = image[a], image[b]
        ca, cb = owner[ia], owner[ib]
        if ca is None and cb is None:
            continue
        if e in eprime:
            if ca == cb:
                if above[ia] is not None or above[ib] is not None:
                    bcount[ca] += 1  # severed with its minimal element's subtree
                else:
                    edges[ca].extend(((a, ROOT), (b, ROOT)))
                continue
            for end, cc, img in ((a, ca, ia), (b, cb, ib)):
                if cc is None:
                    continue
                if above[img] is not None:
                    bcount[cc] += 1
                else:
                    edges[cc].append((end, ROOT))
        elif ca == cb:
            if above[ia] is None or above[ia] != above[ib]:
                edges[ca].append((a, b))
            # else both below one minimal element: internal forever
        elif ca is not None:
            edges[ca].append((a, ROOT))
        else:
            edges[cb].append((b, ROOT))
    return [GPrime(tuple(es), bc) for es, bc in zip(edges, bcount)]


def build_gprime(setting: TrialSetting, u: CandidateSet) -> GPrime:
    """Auxiliary cut graph for a single candidate."""
    return _classify(setting, [u])[0]


# (vertex, parts) -> cheapest split of that subtree and its deletions;
# only the cells `fill_states` fills (see its docstring) are present
States = Dict[Tuple[int, int], Tuple[float, Optional[FrozenSet[int]]]]


def _selection_pool(tp: RootedTree, member: int, minelts: Sequence[int]) -> List[int]:
    """Inclusive ancestors of each minimal element, up to the member itself."""
    pool = {member}
    for s in minelts:
        v = s
        while True:
            pool.add(v)
            if v == member:
                break
            v = tp.parent(v)
    return sorted(pool)


def _member_minelts(tp: RootedTree, member: int, u: CandidateSet) -> List[int]:
    return sorted(s for s in u.minelts if tp.precedes(member, s))


Option = Tuple[int, float, FrozenSet[int]]  # (deletions spent, cost, deletion set)
Priced = Dict[int, Tuple[float, FrozenSet[int]]]  # deletions spent -> (cost, deletion set)


def _min_plus(groups: Iterable[Sequence[Option]], cap: int) -> Priced:
    """Cheapest pick of one option per group, for every total spend up to cap.

    Ties keep the first combination reached, in group and option order.
    """
    combo: Priced = {0: (0.0, frozenset())}
    for opts in groups:
        nxt: Priced = {}
        for spent, (val, cert) in combo.items():
            for add, v2, c2 in opts:
                tot = spent + add
                if tot > cap:
                    continue
                cost = val + v2
                if tot not in nxt or cost < nxt[tot][0]:
                    nxt[tot] = (cost, cert | c2)
        combo = nxt
    return combo


def _member_table(
    setting: TrialSetting,
    member: int,
    u: CandidateSet,
    gp: GPrime,
    states: Optional[States],
    rev: Optional[Sequence[int]],
    r_cap: int,
    max_budget: int,
) -> Priced:
    """Cheapest handling of one member subtree per deletion budget.

    A selection severs incomparable tprime subtrees covering every minimal
    element; each selected subtree spends one deletion on its top edge and
    may split further through the state table.  Values pair the estimate
    with the explicit deletions behind it.
    """
    tp = setting.tprime
    image = setting.tmap.mapping
    mins = _member_minelts(tp, member, u)
    pool = _selection_pool(tp, member, mins)
    # the cut graph on tprime vertices: root stubs counted per vertex, and
    # the edges whose ends have different images
    stubs = [0] * tp.n
    inner: List[Tuple[int, int]] = []
    for a, b in gp.edges:
        ia = ROOT if a == ROOT else image[a]
        ib = ROOT if b == ROOT else image[b]
        if ia == ib:
            continue  # one piece holds both ends of every selection
        if ib == ROOT:
            stubs[ia] += 1
        elif ia == ROOT:
            stubs[ib] += 1
        else:
            inner.append((ia, ib))
    out: Priced = {}
    top_r = min(len(pool), r_cap, max_budget)
    for r in range(1, top_r + 1):
        for sel in itertools.combinations(pool, r):
            if any(not tp.incomparable(a, b) for a, b in itertools.combinations(sel, 2)):
                continue
            if any(not any(tp.precedes(w, s) for w in sel) for s in mins):
                continue
            # boundary: stubs inside a selected subtree, inner edges across pieces
            piece = [ROOT] * tp.n
            base = 0
            for idx, w in enumerate(sel):
                for x in tp.subtree(w):
                    piece[x] = idx
                    base += stubs[x]
            base += sum(1 for x, y in inner if piece[x] != piece[y])
            # a piece's parent edge in tprime is the parent edge of its top in t
            top_edges = [tp.parent_edge(w) for w in sel]
            # spend the remaining budget below the selected subtrees
            options: List[List[Option]] = []
            for e in top_edges:
                opts: List[Option] = [(1, 0.0, frozenset())]
                if states is not None:
                    orig = rev[setting.t.lower_end(e)]
                    for spend in range(2, max_budget - r + 2):
                        value, cert = states.get((orig, spend), (INF, None))
                        if value < INF:
                            opts.append((spend, value, cert))
                options.append(opts)
            for spent, (val, cert) in _min_plus(options, max_budget).items():
                full = cert | frozenset(top_edges)
                score = base + val
                if spent not in out or score < out[spent][0]:
                    out[spent] = (score, full)
    return out


def eval_f_budgets(
    u: CandidateSet,
    target: int,
    gp: GPrime,
    setting: TrialSetting,
    states: Optional[States],
    rev: Optional[Sequence[int]],
    r_cap: int,
) -> Priced:
    """Estimate for every deletion budget b <= target across the members.

    Every member takes at least one deletion; leftover budget buys deeper
    splits through the state table.  Maps each feasible b to its estimate
    (always finite) and the exact deletion set it stands for.  Entry b,
    ties included, is what pricing budget b on its own gives: every option
    spends at least one deletion, so the options a larger cap adds only
    reach totals above b.  For the same reason no member spends more than
    target - len(members) + 1.
    """
    cap = target - len(u.members) + 1
    if cap < 1:
        return {}
    tables = [_member_table(setting, member, u, gp, states, rev, r_cap, cap)
              for member in u.members]
    combo = _min_plus([[(d, val, cert) for d, (val, cert) in table.items()]
                       for table in tables], target)
    return {b: (gp.bcount + val, cert) for b, (val, cert) in combo.items()}


def eval_f_p(
    u: CandidateSet,
    p: int,
    gp: GPrime,
    setting: TrialSetting,
    states: Optional[States],
    rev: Optional[Sequence[int]],
    r_cap: int,
) -> Tuple[float, FrozenSet[int]]:
    """General estimate with a deletion budget of p across the members."""
    return eval_f_budgets(u, p, gp, setting, states, rev, r_cap).get(p, (INF, frozenset()))


def eval_f(
    u: CandidateSet, gp: GPrime, setting: TrialSetting
) -> Tuple[float, FrozenSet[int]]:
    """Restricted ancestor-cut estimate: one severing vertex per member.

    Returns the estimate and the tree edges it would delete; the estimate
    never undershoots the true minimum ancestor cut.
    """
    return eval_f_p(u, len(u.members), gp, setting, None, None, 1)


def _subtree_instance(g: MultiGraph, t: RootedTree, x: int):
    """Induced graph and re-rooted tree for T(x), in local indices."""
    verts = t.subtree(x)
    sub, vmap = induced_subgraph(g, verts)
    edges = [(t.parent_edge(w), vmap[t.parent(w)], vmap[w]) for w in verts if w != x]
    local_t = RootedTree(len(verts), vmap[x], edges)
    rev = [0] * len(verts)
    for orig, local in vmap.items():
        rev[local] = orig
    return sub, local_t, rev


def _score_deletion(sub: MultiGraph, local_t: RootedTree, ids: Iterable[int]) -> int:
    """Exact cost of deleting ids: edges whose endpoints end in different components."""
    labels = forest_labels(local_t, ids)
    return sum(1 for u, v in sub.pairs if labels[u] != labels[v])


def _crossing_masks(
    sub: MultiGraph, local_t: RootedTree, skip: FrozenSet[int] = frozenset()
) -> Tuple[List[int], List[int]]:
    """Tree edge ids outside skip, ascending, and one crossing mask per edge.

    crossing[i] holds a bit for every graph edge whose tree path contains
    ids[i], as if skip were contracted, so deleting a set of tree edges
    cuts exactly the popcount of the OR of their masks.  Equal paths are
    walked once: a path of multiplicity c takes c consecutive bits.
    """
    ids = sorted(local_t.edge_ids - skip)
    bit = {e: 1 << i for i, e in enumerate(ids)}
    up = [0] * local_t.n  # bits of the tree edges on each vertex's root path
    for v in local_t.order:
        e = local_t.parent_edge(v)
        if e is not None:
            up[v] = up[local_t.parent(v)] | bit.get(e, 0)
    crossing = [0] * len(ids)
    offset = 0
    for path, c in Counter(up[u] ^ up[v] for u, v in sub.pairs).items():
        if not path:
            continue
        block = ((1 << c) - 1) << offset
        offset += c
        while path:
            low = path & -path
            path ^= low
            crossing[low.bit_length() - 1] |= block
    return ids, crossing


def _sweep_cell(
    sub: MultiGraph, local_t: RootedTree, parts: int, skip: FrozenSet[int] = frozenset()
):
    """Exact: the first cheapest deletion of parts-1 edges outside skip, as (value, edge ids).

    Sets are tried in combinations order of ascending edge ids.
    """
    ids, crossing = _crossing_masks(sub, local_t, skip)
    best_value, best = INF, ()
    for combo in itertools.combinations(range(len(ids)), parts - 1):
        mask = 0
        for i in combo:
            mask |= crossing[i]
        value = mask.bit_count()
        if value < best_value:
            best_value, best = value, combo
    return best_value, frozenset(ids[i] for i in best)


class _SubtreeTrials:
    """What every trial cell of one subtree shares, built once per vertex.

    Holds the subtree instance, its HLD, E' (also sorted, for drawing
    colorings) and every branch contraction built so far, by pattern.
    """

    def __init__(self, sub: MultiGraph, local_t: RootedTree, rev: Sequence[int]):
        self.sub, self.local_t, self.rev = sub, local_t, rev
        self.hld = build_hld(local_t)
        self.eprime = incomparable_edges(sub, local_t, self.hld)
        self.eprime_sorted = tuple(sorted(self.eprime))
        self._contracted: Dict[Tuple[int, ...], Tuple[RootedTree, ContractionMap]] = {
            (): (local_t, ContractionMap.identity(local_t.n))}

    def contract(self, pattern: Tuple[int, ...]) -> Tuple[RootedTree, ContractionMap]:
        hit = self._contracted.get(pattern)
        if hit is None:
            hit = contract_branches(self.local_t, self.hld, pattern)
            self._contracted[pattern] = hit
        return hit


def _cell_trials(
    ctx: _SubtreeTrials,
    parts: int,
    k: int,
    lam: int,
    states: States,
    config: TrialConfig,
    node_key,
):
    """Best certified outcome of one (subtree, parts) cell's trials, else (INF, None)."""
    sub, local_t, hld, eprime = ctx.sub, ctx.local_t, ctx.hld, ctx.eprime
    target = parts - 1
    trials: List[Tuple[Coloring, Tuple[int, ...]]] = []
    empty = Coloring(eprime, frozenset())
    trials.append((empty, ()))
    if config.exhaustive and len(eprime) <= EXHAUSTIVE_EPRIME_CAP \
            and hld.branch_count <= EXHAUSTIVE_BRANCH_CAP:
        greens = [frozenset(c) for size in range(1, target + 1)
                  for c in itertools.combinations(ctx.eprime_sorted, size)]
        patterns = [pat for size in range(min(target, hld.branch_count) + 1)
                    for pat in itertools.combinations(range(hld.branch_count), size)]
        for green in greens:
            for pat in patterns:
                trials.append((Coloring(eprime, green), pat))
        for pat in patterns[1:]:
            trials.append((empty, pat))
    else:
        count = config.trial_count(k, lam, local_t.n)
        prob = 1.0 / max(1, math.ceil(math.log2(max(local_t.n, 2))))
        for i in range(count):
            rng = derived_rng(config.seed, node_key, parts, i)
            coloring = Coloring(eprime, _draw_green(ctx.eprime_sorted, lam, rng))
            pat = tuple(b for b in range(hld.branch_count) if rng.random() < prob)
            trials.append((coloring, pat))
    if len(trials) > 20000:
        trials = trials[:20000]
    best: Tuple[float, Optional[FrozenSet[int]]] = (INF, None)
    seen_settings = set()
    scored = set()  # deletion sets already scored in this cell
    for coloring, pattern in trials:
        key = (coloring.green, pattern)
        if key in seen_settings:
            continue
        seen_settings.add(key)
        tprime, tmap = ctx.contract(pattern)
        if tprime.n < 2:
            continue
        setting = TrialSetting(sub, local_t, tprime, tmap, coloring, eprime)
        candidates = group_components(tprime.children(tprime.root), coloring, setting)
        # one budget per candidate, or none: the skip option comes last
        groups: List[List[Option]] = []
        for u, gp in zip(candidates, _classify(setting, candidates)):
            priced = eval_f_budgets(u, target, gp, setting, states, ctx.rev, k)
            groups.append([(b,) + priced[b] for b in sorted(priced)] + [(0, 0.0, frozenset())])
        hit = _min_plus(groups, target).get(target)
        if hit is None:
            continue
        cert = hit[1]
        if len(cert) != target:
            continue  # overlapping proposals cannot certify this cell
        if cert in scored:
            continue  # its score is already at least best[0]
        scored.add(cert)
        true_value = _score_deletion(sub, local_t, cert)
        if true_value < best[0]:
            best = (true_value, cert)
    return best


def fill_states(
    g: MultiGraph, t: RootedTree, k: int, lam: int, config: TrialConfig
) -> States:
    """Bottom-up dict of the cells a k-part answer at the root reads.

    Fills (x, parts) for every vertex x and parts <= k-1, and (root, k);
    no other cell is set.  A cell with p parts reads only proper
    descendants' cells with at most p-1 parts, so nothing it needs is
    skipped.  A cell whose subtree has at most SWEEP_MAX_SUBSETS sets of
    parts-1 edges is swept and exact; a larger cell holds the best
    certified trial outcome, so every finite value is the true cost of the
    deletions recorded for it.
    """
    states: States = {}
    for x in reversed(t.order):
        top = k if x == t.root else k - 1
        size = t.subtree_size(x)
        edges_avail = size - 1
        states[x, 0] = (0, frozenset())
        if top >= 1:
            states[x, 1] = (0, frozenset())
        sub = local_t = rev = None
        ctx = None  # x's trial context, shared by its trial cells
        for parts in range(2, top + 1):
            if edges_avail < parts - 1:
                states[x, parts] = (INF, None)
                continue
            if sub is None:
                sub, local_t, rev = _subtree_instance(g, t, x)
            if math.comb(edges_avail, parts - 1) <= SWEEP_MAX_SUBSETS:
                value, cert = _sweep_cell(sub, local_t, parts)
            else:
                if ctx is None:
                    ctx = _SubtreeTrials(sub, local_t, rev)
                value, cert = _cell_trials(ctx, parts, k, lam, states, config, x)
            states[x, parts] = (value, cert)
    return states


def safe_classes(gh: Tuple[List[int], List[int]], lam: int) -> List[int]:
    """Per vertex, its class under the Gomory-Hu edges heavier than lam; gh is `gomory_hu`'s tree.

    The classes depend only on the graph and lam, so a stage that cuts
    many trees under one lam takes them once and passes them to each
    `tree_cut`.
    """
    parent, weight = gh
    heavy = [(v, parent[v]) for v in range(1, len(parent)) if weight[v] > lam]
    return union_find(len(parent), heavy)[0]


def safe_tree_edges(
    g: MultiGraph, t: RootedTree, lam: int, classes: Optional[List[int]] = None
) -> FrozenSet[int]:
    """Tree edges no small cut can cross: those inside one of g's `safe_classes` (built if None).

    If the cheapest way to separate a tree edge's endpoints costs more
    than lam, no k-cut of value at most lam separates them either, so the
    edge can be contracted in both the graph and the tree (`tree_quotient`,
    then `quotient` through its map).  That cost is the lightest weight on
    the ends' Gomory-Hu path, so the ends lie in one class of the Gomory-Hu
    edges heavier than lam; every cut of value at most lam keeps each class
    whole, so contracting them all at once keeps every such cut.  Without
    classes, an end of degree at most lam caps that cost at lam, so when
    every tree edge has one the set is empty and no Gomory-Hu tree is built.
    """
    if classes is None:
        if all(min(map(g.degree, g.endpoints(e))) <= lam for e in t.edge_ids):
            return frozenset()
        classes = safe_classes(gomory_hu(g), lam)
    return frozenset(e for e in t.edge_ids for u, v in [g.endpoints(e)] if classes[u] == classes[v])


def tree_cut(
    g: MultiGraph,
    t: RootedTree,
    lam: int,
    k: int,
    config: TrialConfig,
    classes: Optional[List[int]] = None,
) -> KCutSolution:
    """Best k-cut found by deleting k-1 edges of the given spanning tree.

    Always returns a feasible cut whose value is re-scored from its
    deletion set; when the tree is tight for some minimum k-cut of value
    at most lam, exhaustive trials recover that minimum exactly.  If at
    most SWEEP_MAX_SUBSETS sets of k-1 edges avoid the `safe_tree_edges`,
    they are swept at the root alone, on the uncontracted tree; otherwise
    the DP runs with that same safe set contracted.  classes are g's
    `safe_classes` at lam, as in `safe_tree_edges`.
    """
    if t.n != g.n:
        raise ValueError("tree does not span the graph")
    if k < 1 or k - 1 > t.n - 1:
        raise Infeasible("cannot delete %d edges from a %d-vertex tree" % (k - 1, t.n))
    if k == 1:
        p = Partition([set(g.vertices)])
        return KCutSolution(0, p, frozenset(), "treecut")
    safe = safe_tree_edges(g, t, lam, classes)
    if t.n - len(safe) < k:
        # no k-cut costs at most lam: lam is below this stage's optimum;
        # fall back to the uncontracted tree, which always has k parts
        safe = frozenset()
    # only the root's cell is read, so a sweepable one needs no state table
    if math.comb(t.n - 1 - len(safe), k - 1) <= SWEEP_MAX_SUBSETS:
        original = forest_components(t, _sweep_cell(g, t, k, safe)[1])
    else:
        work_t, cmap = tree_quotient(t, safe)
        cert = fill_states(quotient(g, cmap), work_t, k, lam, config)[work_t.root, k][1]
        if cert is None:
            raise Infeasible("no feasible deletion found")
        original = pull_back(forest_components(work_t, cert), cmap, g.n)
    cut = cut_edge_set(g, original)
    return KCutSolution(len(cut), original, cut, "treecut")
