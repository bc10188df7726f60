"""Covering LPs over rooted-path columns, solved by column generation.

Three LP shapes share one driver:

* minimize the number of paths, columns restricted to regret <= R;
* minimize the number of paths, columns restricted to length <= D;
* minimize total path regret with a cap on the number of paths, columns
  unrestricted.

Every shape covers all clients fractionally. Masters are solved exactly in
integers scaled by the basis determinant, and their coverage duals reach the
pricing oracle as integers over one common denominator. Each LP binds its
oracle once: an exact Held-Karp table scan up to a client-count threshold,
above it a local-search heuristic whose result is flagged as uncertified.

Each round solves the master once and prices once. A bounded exact scan
returns up to eight maximal client sets within the bound, largest reward
at the duals first (then fewest nodes, then the smallest client mask); the
min-excess scan returns up to eight of least excess, the heuristic one.
The round admits them in that order while they pass the admission test
and ends column generation when it admits none. The duals are
nonnegative, so a maximal set's reward is at least that of each of its
feasible subsets: when no maximal column prices above 1, no column within
the bound does, which proves the count LP optimal. At a master optimum
every master column fails the admission test, so no pricer, exact or
heuristic, can re-propose one; a column that passes it and is already in
the master raises SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from .core import (Instance, RootedPath, SolverError, check_cap,
                   check_path_budget, check_regret, farthest_node,
                   preprocess_path_pair)
from .exactlp import CoveringMaster, MasterSolution
from .pricing import (DEFAULT_EXACT_THRESHOLD, exact_length_budget,
                      exact_min_excess_pricing, exact_orienteering,
                      heuristic_pricing, table_for)

ZERO = Fraction(0)


@dataclass
class FractionalSolution:
    """A weighted set of rooted paths covering every client at least once."""

    inst: Instance
    columns: List[RootedPath]
    weights: List[Fraction]
    value: Fraction
    objective: str                       # "count" or "regret"
    column_bound: Optional[Tuple[str, int]]  # ("regret", R) or ("length", D)
    count_cap: Optional[int]
    certified: bool
    rounds: int = 0
    pivots: int = 0                      # the master's cumulative pivots

    # The fields report() gives diagnostics and bench reports.
    REPORT_KEYS: ClassVar[Tuple[str, ...]] = (
        "lp_value", "lp_certified", "lp_rounds", "lp_pivots", "lp_columns")

    def report(self) -> dict:
        """The value, whether pricing was exact, the rounds, the pivots and
        the number of columns."""
        return dict(zip(self.REPORT_KEYS, (float(self.value), self.certified,
                                           self.rounds, self.pivots,
                                           len(self.columns))))

    @property
    def total_weight(self) -> Fraction:
        scaled, scale = self._scaled_support()
        return Fraction(sum(x for _, x in scaled), scale)

    def coverage(self, v: int) -> Fraction:
        scaled, scale = self._scaled_support()
        return Fraction(_coverage_by_node(scaled).get(v, 0), scale)

    def support(self) -> List[Tuple[RootedPath, Fraction]]:
        return [(p, w) for p, w in zip(self.columns, self.weights) if w > 0]

    def _scaled_support(self) -> Tuple[List[Tuple[RootedPath, int]], int]:
        """The support with each weight replaced by its numerator over the
        lcm of the weights' denominators, and that lcm."""
        support = self.support()
        scale = math.lcm(*(w.denominator for _, w in support))
        return [(p, w.numerator * (scale // w.denominator))
                for p, w in support], scale

    def _objective_numerator(self, scaled: List[Tuple[RootedPath, int]]) -> int:
        """The objective over the scaled support, as a numerator over its
        scale: zero weights add nothing."""
        if self.objective == "count":
            return sum(x for _, x in scaled)
        return sum(p.regret * x for p, x in scaled)

    def validate(self) -> None:
        """Raise SolverError unless coverage, column bounds, the count cap
        and the stated value all hold; kept under ``python -O``."""
        if len(self.columns) != len(self.weights):
            raise SolverError(f"{len(self.columns)} columns but "
                              f"{len(self.weights)} weights")
        if any(w < 0 for w in self.weights):
            raise SolverError("negative column weight")
        # The checks run on the numerators of the weights over their lcm.
        scaled, scale = self._scaled_support()
        cover = _coverage_by_node(scaled)
        for v in self.inst.clients:
            if cover.get(v, 0) < scale:
                raise SolverError(f"client {v} under-covered")
        if self.column_bound is not None:
            kind, limit = self.column_bound
            for p, _ in scaled:
                used = p.regret if kind == "regret" else p.cost
                if used > limit:
                    raise SolverError(f"column {p.nodes} breaks {kind}<={limit}")
        weight = sum(x for _, x in scaled)
        if self.count_cap is not None and weight > self.count_cap * scale:
            raise SolverError(f"total weight {Fraction(weight, scale)} "
                              f"exceeds the count cap {self.count_cap}")
        expect = Fraction(self._objective_numerator(scaled), scale)
        if self.value != expect:
            raise SolverError(str((self.value, expect)))

    @classmethod
    def from_columns(cls, inst: Instance, columns: Sequence[RootedPath],
                     weights: Sequence[Fraction], objective: str = "count",
                     column_bound: Optional[Tuple[str, int]] = None,
                     count_cap: Optional[int] = None,
                     certified: bool = False) -> "FractionalSolution":
        cols = list(columns)
        ws = [Fraction(w) for w in weights]
        sol = cls(inst=inst, columns=cols, weights=ws, value=ZERO,
                  objective=objective, column_bound=column_bound,
                  count_cap=count_cap, certified=certified)
        scaled, scale = sol._scaled_support()
        sol.value = Fraction(sol._objective_numerator(scaled), scale)
        return sol


def _coverage_by_node(scaled: List[Tuple[RootedPath, int]]) -> Dict[int, int]:
    """The weight numerators on each node, summed over a scaled support."""
    cover: Dict[int, int] = {}
    for p, x in scaled:
        for v in p.node_set:
            cover[v] = cover.get(v, 0) + x
    return cover


def _column_cost(path: RootedPath, objective: str) -> int:
    return 1 if objective == "count" else path.regret


def _greedy_hamiltonian(inst: Instance) -> RootedPath:
    # Nearest-neighbour sweep; the capped master's start column.
    seq = [inst.root]
    left = set(inst.clients)
    at = inst.root
    while left:
        nxt = min(left, key=lambda v: (inst.dist[at][v], v))
        seq.append(nxt)
        left.discard(nxt)
        at = nxt
    return RootedPath.build(inst, seq)


def _seed_columns(inst: Instance,
                  count_cap: Optional[int]) -> List[RootedPath]:
    seeds = [RootedPath.build(inst, [inst.root, v]) for v in inst.clients]
    if count_cap is not None:
        seeds.append(_greedy_hamiltonian(inst))
    return seeds


def column_generation(inst: Instance,
                      column_bound: Optional[Tuple[str, int]] = None,
                      count_cap: Optional[int] = None,
                      exact_threshold: int = DEFAULT_EXACT_THRESHOLD
                      ) -> FractionalSolution:
    """The fewest paths under column_bound, or without one the least total
    regret over at most count_cap paths; the pricing oracle is bound once,
    before the first round."""
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
        price = partial(exact_orienteering if kind == "regret"
                        else exact_length_budget,
                        table_for(inst, exact_threshold), budget=limit)

    master = CoveringMaster(clients, budget=count_cap)
    columns: List[RootedPath] = []
    seen = set()
    for p in _seed_columns(inst, count_cap):
        if p.nodes not in seen:
            seen.add(p.nodes)
            columns.append(p)
            master.add_column(p.nodes[1:], _column_cost(p, objective))

    prev_value: Optional[Fraction] = None
    sol: Optional[MasterSolution] = None
    rounds = 0
    # Fixed from the seed columns: a round adds up to COLUMNS_PER_ROUND
    # columns, so a bound on the current count would grow faster than the
    # rounds.
    cap = max(200, 10 * inst.n * len(columns))
    while True:
        rounds += 1
        if rounds > cap:
            raise SolverError("column generation exceeded its round cap")
        sol = master.solve()
        if prev_value is not None and sol.value > prev_value:
            raise SolverError("restricted master value increased")
        prev_value = sol.value
        z = sol.budget_dual if sol.budget_dual is not None else ZERO
        admitted = 0
        for res in price(sol.coverage_duals):
            if not (res.value > 1 if column_bound else res.value < -z):
                break
            path = res.path
            if path.nodes in seen:
                raise SolverError("pricing re-proposed a column already "
                                  "in the master")
            seen.add(path.nodes)
            columns.append(path)
            master.add_column(path.nodes[1:], _column_cost(path, objective))
            admitted += 1
        if not admitted:
            break

    result = FractionalSolution(
        inst=inst, columns=columns, weights=list(sol.weights),
        value=sol.value, objective=objective, column_bound=column_bound,
        count_cap=count_cap, certified=exact, rounds=rounds, pivots=sol.pivots)
    result.validate()
    return result


def solve_rvrp_lp(inst: Instance, R: int,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD
                  ) -> FractionalSolution:
    """Fractional minimum number of regret-<=R rooted paths covering all."""
    return column_generation(inst, column_bound=("regret", check_regret(R)),
                             exact_threshold=exact_threshold)


def solve_dvrp_lp(inst: Instance, D: int,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD
                  ) -> FractionalSolution:
    """Fractional minimum number of length-<=D rooted paths covering all."""
    return column_generation(inst,
                             column_bound=("length", check_cap(inst, D)),
                             exact_threshold=exact_threshold)


def solve_minsum_lp(inst: Instance, k: int,
                    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
                    ) -> FractionalSolution:
    """Fractional minimum total regret using at most k rooted paths."""
    return column_generation(inst, count_cap=check_path_budget(k),
                             exact_threshold=exact_threshold)


def preprocess_fractional(sol: FractionalSolution) -> FractionalSolution:
    """Rewrite the support so every column ends at its farthest node.

    Columns already ending there are kept; every other column's weight is
    placed on both derived paths (prefix, and root plus reversed tail), so
    the value at most doubles while coverage and column bounds survive.
    Duals are dropped: the rewritten solution is generally not LP-optimal.
    """
    inst = sol.inst
    acc: Dict[Tuple[int, ...], Fraction] = {}
    order: List[RootedPath] = []

    def put(p: RootedPath, w: Fraction) -> None:
        if p.nodes not in acc:
            acc[p.nodes] = ZERO
            order.append(p)
        acc[p.nodes] += w

    for p, w in sol.support():
        if p.is_trivial or p.end == farthest_node(inst, p):
            put(p, w)
        else:
            a, b = preprocess_path_pair(inst, p)
            put(a, w)
            put(b, w)
    out = FractionalSolution.from_columns(
        inst, order, [acc[p.nodes] for p in order], objective=sol.objective,
        column_bound=sol.column_bound, count_cap=None, certified=False)
    out.validate()
    return out
