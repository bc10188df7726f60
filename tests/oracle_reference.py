"""Exact oracles that do not read pricing's plan: the test oracles.

_cover_count is the 3^m submask DP over per-mask feasible flags that the
count oracles ran before they read pricing's plan of maximal sets;
brute_force_lp enumerates every simple rooted path by depth-first search
and solves the covering LP over the maximal feasible node sets with
scipy's HiGHS, in floats. ``regret_route.harness`` now covers with the
maximal masks of the Held-Karp table's plan and takes the LP value from
certified column generation; the tests require the same counts, minimax
regrets and LP values.
"""

from typing import Sequence

from regret_route.core import Instance, InfeasibleError, _as_int
from regret_route.pricing import OracleUnavailableError

LP_ORACLE_LIMIT = 9


def _cover_count(optima: Sequence[int], bound: int) -> int:
    """Fewest client sets with optima at most bound that cover every client.

    Feasible families here are subset-closed (dropping a node from a path
    and shortcutting never raises regret or length), so partitioning is as
    good as covering and the classic submask DP applies.
    """
    feasible = [False] + [x <= bound for x in optima]
    m = len(optima).bit_length()
    full = (1 << m) - 1
    best = [0] + [m + 1] * full
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        acc = m + 1
        while sub:
            if sub & low and feasible[sub]:
                cand = best[mask ^ sub] + 1
                if cand < acc:
                    acc = cand
            sub = (sub - 1) & mask
        best[mask] = acc
    return best[full]


def brute_force_lp(inst: Instance, bound: int, kind: str = "regret",
                   limit: int = LP_ORACLE_LIMIT) -> float:
    """Covering-LP value over every budget-feasible rooted path.

    Enumerates all simple rooted paths by depth-first search (pruned on
    the prefix budget, which is monotone for both regret and length),
    keeps the maximal feasible node sets, and solves the LP with an
    off-the-shelf solver.  Entirely independent of the column-generation
    stack, which this value is used to cross-check.
    """
    from scipy.optimize import linprog

    bound = _as_int(bound, "budget")
    if kind not in ("regret", "length"):
        raise ValueError(f"unknown budget kind {kind!r}")
    if bound < 0:
        raise ValueError("budget must be nonnegative")
    clients = inst.clients
    m = len(clients)
    if m > limit:
        raise OracleUnavailableError(
            f"{m} clients exceed the enumeration threshold {limit}")
    if m == 0:
        return 0.0
    index = {v: i for i, v in enumerate(clients)}
    D, dist = inst.root_dist, inst.dist

    feasible = set()

    def extend(u: int, mask: int, cost: int) -> None:
        for v in clients:
            bit = 1 << index[v]
            if mask & bit:
                continue
            new = cost + dist[u][v]
            excess = new - D[v] if kind == "regret" else new
            if excess > bound:
                continue
            feasible.add(mask | bit)
            extend(v, mask | bit, new)

    extend(inst.root, 0, 0)

    uncovered = [clients[i] for i in range(m)
                 if not any(mask >> i & 1 for mask in feasible)]
    if uncovered:
        raise InfeasibleError(
            f"nodes {uncovered} unreachable within the budget",
            nodes=uncovered)
    maximal = [mask for mask in feasible
               if not any(other != mask and other & mask == mask
                          for other in feasible)]
    rows = [[-1.0 if mask >> i & 1 else 0.0 for mask in maximal]
            for i in range(m)]
    res = linprog(c=[1.0] * len(maximal), A_ub=rows, b_ub=[-1.0] * m,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise InfeasibleError(f"LP solver failed: {res.message}")
    return float(res.fun)
