"""Column generation priced over every feasible client set: the round loop
of regret_route.lp.column_generation, whose count LPs price only the
maximal sets, kept as its oracle.

Each round solves the master once and prices once at its duals. A count LP
prices with hk_reference.dense_ranking, which ranks every mask within the
bound by its reward at those duals; the min-sum LP and the heuristic use
the production pricers. An exact scan returns up to COLUMNS_PER_ROUND
columns, the most improving first, and the round admits them while they
pass the admission test. It ends when a round admits none, so an exact run
is certified by the same proof: no column prices above 1 (count LPs) or
below -z (the min-sum LP) at the final duals.
"""

from functools import partial

from regret_route.core import SolverError
from regret_route.exactlp import CoveringMaster
from regret_route.lp import (FractionalSolution, _column_cost,
                             _seed_columns)
from regret_route.pricing import (DEFAULT_EXACT_THRESHOLD,
                                  exact_min_excess_pricing, heuristic_pricing,
                                  table_for)

from hk_reference import dense_ranking


def column_generation(inst, column_bound=None, count_cap=None,
                      exact_threshold=DEFAULT_EXACT_THRESHOLD):
    objective = "regret" if column_bound is None else "count"
    clients = list(inst.clients)
    if not clients:
        return FractionalSolution.from_columns(
            inst, [], [], objective, column_bound, count_cap, certified=True)
    exact = len(clients) <= exact_threshold
    kind, limit = column_bound or ("min_excess", 0)
    if not exact:
        heuristic = partial(heuristic_pricing, inst, budget_kind=kind,
                            budget=limit)
        price = lambda duals: [heuristic(duals)]
    elif column_bound is None:
        price = partial(exact_min_excess_pricing,
                        table_for(inst, exact_threshold))
    else:
        price = partial(dense_ranking, table_for(inst, exact_threshold),
                        budget=limit, kind=kind)

    master = CoveringMaster(clients, budget=count_cap)
    columns, seen = [], set()
    for p in _seed_columns(inst, count_cap):
        if p.nodes not in seen:
            seen.add(p.nodes)
            columns.append(p)
            master.add_column(p.nodes[1:], _column_cost(p, objective))
    rounds = 0
    while True:
        rounds += 1
        sol = master.solve()
        z = sol.budget_dual or 0
        admitted = 0
        for res in price(sol.coverage_duals):
            if not (res.value > 1 if column_bound else res.value < -z):
                break
            if res.path.nodes in seen:
                if exact:
                    raise SolverError("exact pricing re-proposed a column")
                break
            seen.add(res.path.nodes)
            columns.append(res.path)
            master.add_column(res.path.nodes[1:],
                              _column_cost(res.path, objective))
            admitted += 1
        if not admitted:
            break
    result = FractionalSolution(
        inst=inst, columns=columns, weights=list(sol.weights),
        value=sol.value, objective=objective, column_bound=column_bound,
        count_cap=count_cap, certified=exact, rounds=rounds,
        pivots=sol.pivots)
    result.validate()
    return result
