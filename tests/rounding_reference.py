"""Fraction-arithmetic rounding stages: the test oracle for the rounding.

These are the cut requirement, primal-dual forest, witness-flow checks and
pipeline that ``regret_route.rounding`` moved onto integers.  The forest
here rescans every edge on each merge and grows duals by Fraction steps;
the cut requirement and the flow checks sum Fraction weights.  The tests
require the integer stages to agree with them exactly: the same forest,
components, witnesses and tours, the same coverage values, the same paths
and every ``bound_checks`` entry equal in value.
"""

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import flow_reference
from regret_route.core import (Instance, RootedPath, SolverError,
                               split_by_regret, zero_regret_cover)
from regret_route.lp import FractionalSolution
from regret_route.rounding import (IntegralFlow, RoundingContext,
                                   WitnessStructure, _ceil,
                                   _bound_check, _closed_tour,
                                   _forest_components, _split_sides,
                                   _tour_cost, decompose_flow,
                                   default_threshold, graft,
                                   shortcut_to_witnesses)

ZERO = Fraction(0)


def covered_within(ctx: RoundingContext, v: int, S) -> Fraction:
    """Support weight on paths whose red subpath around v stays inside S."""
    S = frozenset(S)
    if v not in S:
        raise ValueError(f"node {v} is not in the queried set")
    total = ZERO
    for (p, w), spans in zip(ctx.support, ctx.red_span):
        if v in p.node_set and spans[v] <= S:
            total += w
    return total


def cut_value(ctx: RoundingContext, S) -> int:
    """1 iff every node of S is covered below the threshold within S."""
    S = frozenset(S)
    if not S:
        raise ValueError("empty set has no cut requirement")
    return 1 if all(covered_within(ctx, v, S) < ctx.threshold for v in S) \
        else 0


def build_forest(ctx: RoundingContext) -> WitnessStructure:
    """Primal-dual forest for the cut requirement, with witnesses and tours.

    Duals grow uniformly on all active components; edges merge when tight
    (simultaneous ties in lexicographic edge order); reverse-delete drops any
    edge whose two split sides are both inactive. Every final component is
    inactive, so each non-root component holds a witness node covered to the
    threshold within it.
    """
    inst = ctx.inst
    n = inst.n
    delta = ctx.threshold

    parent = list(range(n))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    comp_nodes: Dict[int, Set[int]] = {v: {v} for v in range(n)}
    active: Dict[int, bool] = {v: cut_value(ctx, comp_nodes[v]) == 1
                               for v in range(n)}
    grown = [ZERO] * n
    order: List[Tuple[int, int]] = []
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]

    while any(active[r] for r in comp_nodes):
        best: Optional[Tuple[Fraction, Tuple[int, int]]] = None
        for u, v in all_edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            growth = int(active[ru]) + int(active[rv])
            if growth == 0:
                continue
            gap = (Fraction(inst.dist[u][v]) - grown[u] - grown[v]) / growth
            if best is None or (gap, (u, v)) < best:
                best = (gap, (u, v))
        assert best is not None, "active component with no crossing edge"
        step, (u, v) = best
        assert step >= 0
        if step > 0:
            for w in range(n):
                if active[find(w)]:
                    grown[w] += step
        ru, rv = find(u), find(v)
        merged = comp_nodes.pop(ru) | comp_nodes.pop(rv)
        parent[rv] = ru
        comp_nodes[ru] = merged
        del active[rv]
        active[ru] = cut_value(ctx, merged) == 1
        order.append((u, v))

    # Reverse-delete: drop an edge when both sides it separates are inactive.
    kept = list(order)
    for e in reversed(order):
        trial = [d for d in kept if d != e]
        sides = _split_sides(n, trial, e)
        if cut_value(ctx, sides[0]) == 0 and cut_value(ctx, sides[1]) == 0:
            kept = trial

    comps = _forest_components(n, kept)
    zone: Dict[int, frozenset] = {}
    tour: Dict[int, Tuple[int, ...]] = {}
    root_tour: Tuple[int, ...] = ()
    forest_cost = sum(inst.dist[u][v] for u, v in kept)
    tours_cost = 0
    for comp in comps:
        assert cut_value(ctx, comp) == 0, "active component survived"
        if inst.root in comp:
            anchor = inst.root
        else:
            eligible = [v for v in sorted(comp)
                        if covered_within(ctx, v, comp) >= delta]
            assert eligible, "inactive non-root component without a witness"
            anchor = eligible[0]
        edges = [(u, v) for u, v in kept if u in comp]
        walk = _closed_tour(comp, edges, anchor)
        cost = _tour_cost(inst, walk)
        assert cost <= 2 * sum(inst.dist[u][v] for u, v in edges)
        tours_cost += cost
        if anchor == inst.root:
            root_tour = walk
        else:
            zone[anchor] = comp
            tour[anchor] = walk

    # Cost certificate: red mass of the support, scaled by the threshold gap.
    bound = 3 * ctx.regret_mass / (1 - delta)
    assert forest_cost <= bound, (forest_cost, bound)

    return WitnessStructure(forest=kept, zone=zone, tour=tour,
                            root_tour=root_tour, forest_cost=forest_cost,
                            tours_cost=tours_cost)


def round_flow(inst: Instance, arc_weight: Mapping[Tuple[int, int], Fraction],
               witnesses: Sequence[int], threshold: Fraction,
               value_cap: int, cost_factor: int = 1) -> IntegralFlow:
    """Min-regret-cost integral flow of value <= cap entering each witness.

    With a cap of at least ceil(support value / threshold), the support flow
    scaled by 1/threshold certifies feasibility and the integral optimum
    costs no more than that scaling (cost_factor 1). At the tight cap used
    by the regret-sum solver the guarantee loosens to three times the scaled
    cost (cost_factor 3), via a convex split of the scaled flow into integral
    flows of which a third of the weight must respect the cap.
    """
    wlist = sorted(witnesses)
    for w in wlist:
        inflow = sum(f for (u, v), f in arc_weight.items() if v == w)
        assert inflow >= threshold, f"witness {w} underfed: {inflow}"
    D = inst.root_dist
    for (u, v) in arc_weight:
        assert D[u] < D[v], f"arc ({u},{v}) does not increase distance"

    try:
        total, flows, value, trails = flow_reference.witness_flow(
            inst, arc_weight, wlist, value_cap)
    except SolverError as exc:
        raise SolverError(
            f"witness flow infeasible at value cap {value_cap}: {exc}") from exc
    assert value <= value_cap
    for w in wlist:
        assert sum(f for (_, v), f in flows.items() if v == w) >= 1
    frac_cost = sum(Fraction(D[u] + inst.dist[u][v] - D[v]) * f
                    for (u, v), f in arc_weight.items())
    assert Fraction(total) <= cost_factor * frac_cost / threshold
    return IntegralFlow(trails=trails, witnesses=wlist, cost=total)


def _pipeline(inst: Instance, sol: FractionalSolution, threshold: Fraction,
              value_cap: int, cost_factor: int = 1) -> Tuple[List[RootedPath], dict]:
    """Forest -> witnesses -> flow -> peel -> graft; shared by both solvers."""
    ctx = RoundingContext.build(inst, sol, threshold)
    ws = build_forest(ctx)
    diag: dict = {
        "lp_value": float(sol.value),
        "lp_certified": sol.certified,
        "lp_rounds": sol.rounds,
        "lp_pivots": sol.pivots,
        "lp_columns": len(sol.columns),
        "forest_cost": ws.forest_cost,
        "tours_cost": ws.tours_cost,
        "components": len(_forest_components(inst.n, ws.forest)),
        "witnesses": len(ws.zone),
    }
    _bound_check(diag, "forest_cost_vs_regret_mass", ws.forest_cost,
                 3 * ctx.regret_mass / (1 - threshold))
    if not ws.zone:
        grafted = graft(inst, [], ws)
        diag.update(flow_cost=0, flow_value=0)
        return grafted, diag

    merged: Dict[Tuple[int, ...], Fraction] = {}
    for i, (_, w) in enumerate(ctx.support):
        phi = shortcut_to_witnesses(ctx, i, ws)
        if not phi.is_trivial:
            merged[phi.nodes] = merged.get(phi.nodes, ZERO) + w
    arc_weight: Dict[Tuple[int, int], Fraction] = {}
    frac_cost = ZERO
    for nodes, w in merged.items():
        for a, b in zip(nodes, nodes[1:]):
            arc_weight[(a, b)] = arc_weight.get((a, b), ZERO) + w
        frac_cost += Fraction(RootedPath.build(inst, list(nodes)).regret) * w

    # every arc climbs in root distance, so the merged support is acyclic
    D = inst.root_dist
    assert all(a == inst.root or D[a] < D[b] for a, b in arc_weight)
    diag["support_acyclic"] = True
    witnesses = sorted(ws.zone)
    inflow = {wt: sum(w for (_, b), w in arc_weight.items() if b == wt)
              for wt in witnesses}
    _bound_check(diag, "witness_inflow", min(inflow.values()), threshold,
                 ge=True)

    flow = round_flow(inst, arc_weight, witnesses, threshold, value_cap,
                      cost_factor=cost_factor)
    skeleton = decompose_flow(inst, flow)
    grafted = graft(inst, skeleton, ws)
    total = sum(p.regret for p in grafted)
    assert total <= flow.cost + ws.tours_cost
    diag.update(flow_cost=flow.cost, flow_value=flow.value,
                support_flow_cost=float(frac_cost))
    return grafted, diag


def round_rvrp(inst: Instance, R: int, sol: FractionalSolution,
               threshold: Optional[Fraction] = None,
               diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Round a fractional regret-bounded cover; count <= (2/d+6/(1-d))k*+1."""
    if diagnostics is None:
        diagnostics = {}
    delta = Fraction(threshold) if threshold is not None else default_threshold()
    if not 0 < delta < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    if not inst.clients:
        return []
    if R == 0:
        paths = zero_regret_cover(inst, inst.clients)
        diagnostics.update(lp_value=float(sol.value),
                           lp_certified=sol.certified, lp_rounds=sol.rounds,
                           lp_pivots=sol.pivots,
                           lp_columns=len(sol.columns))
        return paths
    kstar = sol.total_weight

    grafted, diag = _pipeline(inst, sol, delta, _ceil(kstar / delta))
    paths: List[RootedPath] = []
    for p in grafted:
        paths.extend(split_by_regret(inst, p, R))
    diagnostics.update(diag)
    assert all(p.regret <= R for p in paths)
    covered = set().union(*(p.node_set for p in paths))
    assert covered >= set(inst.clients)
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
    if k < 1:
        raise ValueError("path budget must be at least 1")
    assert sol.total_weight <= k, "fractional solution exceeds the path cap"
    delta = Fraction(3 * k + 1, 3 * k + 2)
    nustar = sol.value if sol.objective == "regret" else None
    if nustar is None:
        nustar = sum((Fraction(p.regret) * w for p, w in sol.support()), ZERO)

    grafted, diag = _pipeline(inst, sol, delta, k, cost_factor=3)
    diagnostics.update(diag)
    assert len(grafted) <= k
    covered = set().union(*(p.node_set for p in grafted)) if grafted else set()
    assert covered >= set(inst.clients)
    _bound_check(diagnostics, "total_regret_vs_fractional",
                 sum(p.regret for p in grafted), (4 + 6 * (3 * k + 2)) * nustar)
    return grafted
