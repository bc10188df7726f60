"""Path-rebuilding greedy insertion plus 2-opt: the test oracle for the
heuristic pricer.

This is the search that ``regret_route.pricing.heuristic_pricing`` replaced
with integer move deltas: it builds a fresh ``RootedPath`` for every
candidate insertion and every 2-opt reversal and re-sums Fraction rewards
over the whole path.  Both try moves in the same order and keep a candidate
only on strict improvement, so the tests require the same path and the same
value from every query.
"""

from fractions import Fraction

from regret_route.core import RootedPath
from regret_route.pricing import PricedPath


def heuristic_pricing(inst, query) -> PricedPath:
    """Greedy insertion plus 2-opt under the query's budget; no optimality.

    Any returned path satisfies the budget exactly (integer arithmetic); a
    negative regret or length budget is refused.
    Used when the client count exceeds the exact threshold; the caller must
    then report the LP as unverified.
    """
    if query.budget_kind in ("regret", "length") and query.budget < 0:
        raise ValueError(f"negative {query.budget_kind} budget")
    rewards = {v: Fraction(query.rewards.get(v, 0)) for v in inst.clients}
    if query.budget_kind == "regret":
        feasible = lambda p: p.regret <= query.budget
        objective = lambda p: sum(rewards[v] for v in p.nodes[1:])
        improves = lambda new, old: new > old
    elif query.budget_kind == "length":
        feasible = lambda p: p.cost <= query.budget
        objective = lambda p: sum(rewards[v] for v in p.nodes[1:])
        improves = lambda new, old: new > old
    elif query.budget_kind == "min_excess":
        feasible = lambda p: True
        objective = lambda p: p.regret - sum(rewards[v] for v in p.nodes[1:])
        improves = lambda new, old: new < old
    else:
        raise ValueError(f"unknown budget kind {query.budget_kind!r}")

    path = RootedPath.trivial(inst)
    value = objective(path)
    changed = True
    while changed:
        changed = False
        free = [v for v in inst.clients if v not in path.node_set]
        best = None
        for v in sorted(free):
            for pos in range(1, len(path.nodes) + 1):
                cand_nodes = path.nodes[:pos] + (v,) + path.nodes[pos:]
                cand = RootedPath.build(inst, cand_nodes)
                if not feasible(cand):
                    continue
                cand_val = objective(cand)
                if improves(cand_val, value) and (best is None or improves(cand_val, best[0])):
                    best = (cand_val, cand)
        if best is not None:
            value, path = best[0], best[1]
            changed = True
            continue
        # 2-opt: reverse an internal segment if it helps.
        nodes = path.nodes
        for i in range(1, len(nodes) - 1):
            for j in range(i + 1, len(nodes)):
                cand_nodes = nodes[:i] + tuple(reversed(nodes[i:j + 1])) + nodes[j + 1:]
                cand = RootedPath.build(inst, cand_nodes)
                if not feasible(cand):
                    continue
                cand_val = objective(cand)
                if improves(cand_val, value):
                    value, path = cand_val, cand
                    changed = True
                    break
            if changed:
                break
    return PricedPath(path, Fraction(value))
