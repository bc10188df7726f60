"""Rounding a fractional path cover into integral rooted paths.

Pipeline: a cut-requirement function derived from the fractional solution
drives a primal-dual forest construction; each forest component contributes
one witness node; support paths are shortcut onto the witnesses, which makes
the directed support acyclic; flows.min_cost_path_cover finds the integral
min-cost flow entering every witness and peels it into root trails; each
witness is kept on the first trail that enters it, and the remaining nodes
are grafted back via doubled-tree tours. The threshold parameter trades
forest cost against flow value and serves both the count-bounded and the
regret-sum solvers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .core import (Instance, RootedPath, SolverError, as_fraction,
                   check_path_budget, classify_edges, regret_distance,
                   require, require_cover, shortcut, split_by_regret)
from .flows import min_cost_path_cover
from .lp import FractionalSolution

ZERO = Fraction(0)


def default_threshold() -> Fraction:
    """Minimizer of 2/d + 6/(1-d), as an exact rational near (sqrt(3)-1)/2."""
    return (Fraction(math.sqrt(3)) - 1) / 2


def check_threshold(threshold=None) -> Fraction:
    """The rounding threshold as a Fraction (None: the default); ValueError
    unless it lies strictly between 0 and 1."""
    delta = (default_threshold() if threshold is None
             else as_fraction(threshold, "threshold"))
    if not 0 < delta < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    return delta


def _ceil(x: Fraction) -> int:
    return -(-x.numerator // x.denominator)


@dataclass
class RoundingContext:
    """Support paths with their red-interval decompositions and threshold.

    The weights are also kept as ints over one scale, the lcm of the
    denominators of the support weights and of the threshold: weights[i]
    is support[i]'s weight times scale, and need is threshold times scale.
    node_spans[v] lists (red span around v, scaled weight) for each support
    path through v, which is all the cut requirement reads.
    """

    inst: Instance
    threshold: Fraction
    support: List[Tuple[RootedPath, Fraction]]
    red_span: List[Dict[int, FrozenSet[int]]]
    scale: int
    weights: List[int]
    need: int
    node_spans: List[List[Tuple[FrozenSet[int], int]]]

    @classmethod
    def build(cls, inst: Instance, sol: FractionalSolution,
              threshold: Fraction) -> "RoundingContext":
        threshold = check_threshold(threshold)
        support = [(p, w) for p, w in sol.support() if not p.is_trivial]
        spans = [{v: frozenset(run) for v, run in
                  classify_edges(inst, p).piece.items()} for p, _ in support]
        scale = math.lcm(threshold.denominator,
                         *(w.denominator for _, w in support))
        weights = [w.numerator * (scale // w.denominator) for _, w in support]
        node_spans: List[List[Tuple[FrozenSet[int], int]]] = \
            [[] for _ in range(inst.n)]
        for span, W in zip(spans, weights):
            for v, red in span.items():
                node_spans[v].append((red, W))
        return cls(inst=inst, threshold=threshold, support=support,
                   red_span=spans, scale=scale, weights=weights,
                   need=threshold.numerator * (scale // threshold.denominator),
                   node_spans=node_spans)

    @property
    def regret_mass(self) -> Fraction:
        return Fraction(sum(p.regret * W for (p, _), W in
                            zip(self.support, self.weights)), self.scale)


def _covered(ctx: RoundingContext, v: int, S) -> int:
    """Support weight, times ctx.scale, on paths whose red subpath around v
    stays inside S."""
    return sum(W for red, W in ctx.node_spans[v] if red <= S)


def _active(ctx: RoundingContext, S) -> bool:
    """Whether S's cut requirement is 1: no node reaches the threshold."""
    need = ctx.need
    return all(_covered(ctx, v, S) < need for v in S)


@dataclass
class WitnessStructure:
    """The kept forest edges, keyed by witness: zone[w] is the component
    whose witness is w and tour[w] its closed walk from w; root_tour walks
    the root's component from the root. forest_cost and tours_cost total
    the edges and the walks."""

    forest: List[Tuple[int, int]]
    zone: Dict[int, FrozenSet[int]]
    tour: Dict[int, Tuple[int, ...]]
    root_tour: Tuple[int, ...]
    forest_cost: int
    tours_cost: int


def _closed_tour(comp: FrozenSet[int], edges: Sequence[Tuple[int, int]],
                 anchor: int) -> Tuple[int, ...]:
    """Preorder walk of the component's tree from the anchor (cost <= 2c);
    a tree pushes each node once, from its parent."""
    adj: Dict[int, List[int]] = {v: [] for v in comp}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj.values():
        lst.sort()
    order = []
    stack = [anchor]
    seen = set()
    while stack:
        u = stack.pop()
        seen.add(u)
        order.append(u)
        for nb in reversed(adj[u]):
            if nb not in seen:
                stack.append(nb)
    require(sorted(order) == sorted(comp),
            "tour does not visit its component once per node")
    return tuple(order)


def _tour_cost(inst: Instance, tour: Sequence[int]) -> int:
    if len(tour) <= 1:
        return 0
    total = sum(inst.dist[tour[i]][tour[i + 1]] for i in range(len(tour) - 1))
    return total + inst.dist[tour[-1]][tour[0]]


def build_forest(ctx: RoundingContext) -> WitnessStructure:
    """Primal-dual forest for the cut requirement, with witnesses and tours.

    Duals grow uniformly on all active components; edges merge when tight
    (simultaneous ties in lexicographic edge order); reverse-delete drops any
    edge whose two split sides are both inactive. Every final component is
    inactive, so each non-root component holds a witness node covered to the
    threshold within it.

    The growth is event-driven and exact on ints (Goemans & Williamson,
    SIAM J. Comput. 24(2), 1995). Time counts in units of 2^-n of a
    distance: each of the at most n - 1 merges halves the step at most once.
    Every component pair keeps its best crossing edge by (slack, edge);
    all nodes of a component grow alike, so that order holds until one of
    the two merges. A heap holds each growing pair's (2 x tight time,
    edge), checked against the pair's current best when popped.
    """
    inst = ctx.inst
    n = inst.n
    unit = 1 << n
    dist = inst.dist

    parent = list(range(n))
    find = partial(_find, parent)
    comp_nodes: Dict[int, Set[int]] = {v: {v} for v in range(n)}
    active: Dict[int, bool] = {v: _active(ctx, comp_nodes[v])
                               for v in range(n)}
    # grown[w] is w's dual at time since[find(w)]; it grows from there
    # while that component is active.
    grown = [0] * n
    since = [0] * n
    now = 0

    def slack(e: Tuple[int, int]) -> int:
        u, v = e
        total = dist[u][v] * unit - grown[u] - grown[v]
        for w in e:
            r = find(w)
            if active[r]:
                total -= now - since[r]
        return total

    def tight(ra: int, rb: int, e: Tuple[int, int]) -> Optional[int]:
        """Twice the time at which e goes tight; None if it never does."""
        rate = active[ra] + active[rb]
        if not rate:
            return None
        return 2 * now + (2 * slack(e) if rate == 1 else slack(e))

    best: Dict[int, Dict[int, Tuple[int, int]]] = {v: {} for v in range(n)}
    heap = []
    for u in range(n):
        for v in range(u + 1, n):
            best[u][v] = best[v][u] = (u, v)
            key = tight(u, v, (u, v))
            if key is not None:
                heap.append((key, u, v))
    heapq.heapify(heap)

    n_active = sum(active.values())
    order: List[Tuple[int, int]] = []
    while n_active:
        require(bool(heap), "active component with no crossing edge")
        key, u, v = heapq.heappop(heap)
        ru, rv = find(u), find(v)
        if ru == rv or best[ru][rv] != (u, v) or tight(ru, rv, (u, v)) != key:
            continue                      # stale: the pair has changed since
        require(key % 2 == 0 and key >= 2 * now,
                f"tight time {key}/2 is not a whole unit from {now} on")
        now = key // 2
        for r in (ru, rv):
            if active[r]:
                for w in comp_nodes[r]:
                    grown[w] += now - since[r]
        merged = comp_nodes.pop(ru) | comp_nodes.pop(rv)
        parent[rv] = ru
        comp_nodes[ru] = merged
        n_active -= active.pop(rv) + active[ru]
        active[ru] = _active(ctx, merged)
        n_active += active[ru]
        since[ru] = now
        order.append((u, v))

        # Only pairs that touch the merged component change: each takes the
        # better of its two old best edges at the current time.
        near_u, near_v = best.pop(ru), best.pop(rv)
        del near_u[rv], near_v[ru]
        for x, e in near_u.items():
            other = near_v[x]
            if (slack(other), other) < (slack(e), e):
                e = other
            near_u[x] = e
            del best[x][rv]
            best[x][ru] = e
            key = tight(ru, x, e)
            if key is not None:
                heapq.heappush(heap, (key, *e))
        best[ru] = near_u

    # Reverse-delete: drop an edge when both sides it separates are inactive.
    kept = list(order)
    for e in reversed(order):
        trial = [d for d in kept if d != e]
        sides = _split_sides(n, trial, e)
        if not _active(ctx, sides[0]) and not _active(ctx, sides[1]):
            kept = trial

    zone: Dict[int, FrozenSet[int]] = {}
    tour: Dict[int, Tuple[int, ...]] = {}
    tours_cost = 0
    for comp in _forest_components(n, kept):
        require(not _active(ctx, comp), "active component survived")
        if inst.root in comp:
            anchor = inst.root
        else:
            eligible = [v for v in sorted(comp)
                        if _covered(ctx, v, comp) >= ctx.need]
            require(bool(eligible),
                    "inactive non-root component without a witness")
            anchor = eligible[0]
        edges = [e for e in kept if e[0] in comp]
        walk = _closed_tour(comp, edges, anchor)
        cost = _tour_cost(inst, walk)
        require(cost <= 2 * sum(inst.dist[u][v] for u, v in edges),
                f"tour from {anchor} costs more than its doubled tree")
        tours_cost += cost
        if anchor == inst.root:
            root_tour = walk
        else:
            zone[anchor], tour[anchor] = comp, walk

    return WitnessStructure(forest=kept, zone=zone, tour=tour,
                            root_tour=root_tour,
                            forest_cost=sum(inst.dist[u][v] for u, v in kept),
                            tours_cost=tours_cost)


def _split_sides(n: int, edges: Sequence[Tuple[int, int]],
                 removed: Tuple[int, int]) -> Tuple[Set[int], Set[int]]:
    comps = _forest_components(n, edges)
    a = next(c for c in comps if removed[0] in c)
    b = next(c for c in comps if removed[1] in c)
    require(a != b, f"edge {removed} does not split the forest")
    return set(a), set(b)


def _find(parent: List[int], u: int) -> int:
    """Union-find root of u, halving the path on the way."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _forest_components(n: int, edges: Sequence[Tuple[int, int]]) -> List[FrozenSet[int]]:
    parent = list(range(n))
    find = partial(_find, parent)
    for u, v in edges:
        parent[find(u)] = find(v)
    groups: Dict[int, Set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


def shortcut_to_witnesses(ctx: RoundingContext, index: int,
                          ws: WitnessStructure) -> RootedPath:
    """Shortcut support path #index onto witnesses anchored in their own
    component; the result climbs in root distance after the root, which
    _pipeline checks on the merged support."""
    path, _ = ctx.support[index]
    spans = ctx.red_span[index]
    keep = [w for w in path.nodes[1:]
            if w in ws.zone and spans[w] <= ws.zone[w]]
    return shortcut(ctx.inst, path, keep)


def round_flow(inst: Instance, arc_weight: Mapping[Tuple[int, int], int],
               witnesses: Sequence[int], threshold: int,
               value_cap: int, cost_factor: int = 1
               ) -> Tuple[List[List[int]], int]:
    """Min-regret-cost integral flow of value <= cap entering each witness,
    peeled into root trails, one per unit of flow value; returns the
    trails and the flow's cost.

    With a cap of at least ceil(support value / threshold), the support flow
    scaled by 1/threshold certifies feasibility and the integral optimum
    costs no more than that scaling (cost_factor 1). At the tight cap used
    by the regret-sum solver the guarantee loosens to three times the scaled
    cost (cost_factor 3), via a convex split of the scaled flow into integral
    flows of which a third of the weight must respect the cap.

    The arc weights and the threshold share one scale (the rounding passes
    ints over its context's scale), so the cost check compares the same
    power of that scale on both sides: it is exact and the scale cancels.
    """
    wlist = sorted(witnesses)
    regret = {(u, v): regret_distance(inst, u, v) for u, v in arc_weight}
    try:
        total, trails = min_cost_path_cover(inst, regret, wlist, value_cap, 0)
    except SolverError as exc:
        raise SolverError(
            f"witness flow at value cap {value_cap}: {exc}") from exc
    require(len(trails) <= value_cap,
            f"flow value {len(trails)} exceeds {value_cap}")
    # total <= cost_factor * support cost / threshold, cross-multiplied
    support_cost = sum(regret[a] * f for a, f in arc_weight.items())
    require(total * threshold <= cost_factor * support_cost,
            f"flow cost {total} exceeds {cost_factor} x support cost "
            f"{support_cost} / threshold {threshold}")
    return trails, total


def decompose_flow(inst: Instance, trails: Sequence[Sequence[int]],
                   witnesses: Iterable[int]) -> List[RootedPath]:
    """Keep each witness on the first trail that enters it."""
    claimed: Set[int] = set()
    paths = []
    for seq in trails:
        keep = [v for v in seq[1:] if v not in claimed]
        claimed.update(keep)
        if keep:
            paths.append(RootedPath.build(inst, [inst.root] + keep))
    require(claimed == set(witnesses),
            "peeled paths do not cover exactly the witnesses")
    return paths


def graft(inst: Instance, paths: Sequence[RootedPath],
          ws: WitnessStructure) -> List[RootedPath]:
    """Insert each witness component's tour after the witness; the root
    component's tour leads the first path. Covers every node."""
    out = []
    for i, p in enumerate(paths):
        seq = [inst.root]
        if i == 0:
            seq.extend(ws.root_tour[1:])
        for w in p.nodes[1:]:
            seq.extend(ws.tour[w])
        out.append(RootedPath.build(inst, seq))
    if not paths and len(ws.root_tour) > 1:
        out.append(RootedPath.build(inst, list(ws.root_tour)))
    require_cover(out, inst.clients, "graft left nodes uncovered")
    return out


def _pipeline(inst: Instance, sol: FractionalSolution, threshold: Fraction,
              value_cap: int, cost_factor: int = 1) -> Tuple[List[RootedPath], dict]:
    """Forest -> witnesses -> flow and peel -> claim -> graft; shared by
    both solvers."""
    ctx = RoundingContext.build(inst, sol, threshold)
    ws = build_forest(ctx)
    diag: dict = {
        **sol.report(),
        "forest_cost": ws.forest_cost,
        "tours_cost": ws.tours_cost,
        "components": len(ws.zone) + 1,
        "witnesses": len(ws.zone),
    }
    _bound_check(diag, "forest_cost_vs_regret_mass", ws.forest_cost,
                 3 * ctx.regret_mass / (1 - threshold))
    if not ws.zone:
        grafted = graft(inst, [], ws)
        diag.update(flow_cost=0, flow_value=0)
        return grafted, diag

    # Shortcut support weights, as ints over ctx.scale.
    arc_weight: Dict[Tuple[int, int], int] = {}
    frac_cost = 0
    for i, W in enumerate(ctx.weights):
        phi = shortcut_to_witnesses(ctx, i, ws)
        nodes = phi.nodes
        for a, b in zip(nodes, nodes[1:]):
            arc_weight[(a, b)] = arc_weight.get((a, b), 0) + W
        frac_cost += phi.regret * W

    # every arc climbs in root distance, so the merged support is acyclic;
    # the one check that the shortcuts are monotone in D
    D = inst.root_dist
    require(all(a == inst.root or D[a] < D[b] for a, b in arc_weight),
            "shortcut support has an arc that does not climb in D")
    diag["support_acyclic"] = True
    # every head is a witness: a shortcut keeps only witnesses
    inflow = dict.fromkeys(ws.zone, 0)
    for (_, w), W in arc_weight.items():
        inflow[w] += W
    _bound_check(diag, "witness_inflow",
                 Fraction(min(inflow.values()), ctx.scale), threshold, ge=True)

    trails, flow_cost = round_flow(inst, arc_weight, ws.zone, ctx.need,
                                   value_cap, cost_factor=cost_factor)
    skeleton = decompose_flow(inst, trails, ws.zone)
    grafted = graft(inst, skeleton, ws)
    total = sum(p.regret for p in grafted)
    require(total <= flow_cost + ws.tours_cost,
            f"grafted regret {total} exceeds flow plus tours "
            f"{flow_cost + ws.tours_cost}")
    diag.update(flow_cost=flow_cost, flow_value=len(trails),
                support_flow_cost=float(Fraction(frac_cost, ctx.scale)))
    return grafted, diag


def _bound_check(diag: dict, name: str, actual, bound, ge: bool = False) -> None:
    checks = diag.setdefault("bound_checks", {})
    actual, bound = Fraction(actual), Fraction(bound)
    ok = actual >= bound if ge else actual <= bound
    checks[name] = {"actual": float(actual), "bound": float(bound), "ok": ok}
    if not ok:
        raise SolverError(f"{name}: {actual} vs {bound}")


def round_rvrp(inst: Instance, R: int, sol: FractionalSolution,
               threshold: Optional[Fraction] = None,
               diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Round a fractional regret-bounded cover; count <= (2/d+6/(1-d))k*+1.
    R < 1 is refused (ValueError): solve_rvrp covers R = 0 without an LP."""
    if R < 1:
        raise ValueError(f"rounding needs R of at least 1, got {R}")
    if diagnostics is None:
        diagnostics = {}
    delta = check_threshold(threshold)
    if not inst.clients:
        return []
    kstar = sol.total_weight

    grafted, diag = _pipeline(inst, sol, delta, _ceil(kstar / delta))
    paths: List[RootedPath] = []
    for p in grafted:
        paths.extend(split_by_regret(inst, p, R))
    diagnostics.update(diag)
    _bound_check(diagnostics, "forest_cost_vs_regret_budget",
                 diag["forest_cost"], 3 * kstar * R / (1 - delta))
    _bound_check(diagnostics, "grafted_regret_vs_support",
                 sum(p.regret for p in grafted),
                 (1 / delta + 6 / (1 - delta)) * kstar * R)
    _bound_check(diagnostics, "count_vs_fractional_value",
                 len(paths), (2 / delta + 6 / (1 - delta)) * kstar + 1)
    return paths


def round_minsum(inst: Instance, k: int, sol: FractionalSolution,
                 diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Round a count-capped fractional cover into <= k paths whose total
    regret is at most (4 + 6(3k+2)) times the fractional regret."""
    if diagnostics is None:
        diagnostics = {}
    if not inst.clients:
        return []
    k = check_path_budget(k)
    require(sol.total_weight <= k, "fractional solution exceeds the path cap")
    delta = Fraction(3 * k + 1, 3 * k + 2)
    nustar = sum((p.regret * w for p, w in sol.support()), ZERO)

    grafted, diag = _pipeline(inst, sol, delta, k, cost_factor=3)
    diagnostics.update(diag)
    require(len(grafted) <= k, f"{len(grafted)} paths exceed the cap {k}")
    _bound_check(diagnostics, "total_regret_vs_fractional",
                 sum(p.regret for p in grafted), (4 + 6 * (3 * k + 2)) * nustar)
    return grafted
