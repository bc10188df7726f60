"""Covering LPs over rooted-path columns, solved by column generation.

Three LP shapes share one driver:

* minimize the number of paths, columns restricted to regret <= R;
* minimize the number of paths, columns restricted to length <= D;
* minimize total path regret with a cap on the number of paths, columns
  unrestricted.

Every shape covers all clients fractionally. Masters are solved exactly over
rationals; pricing is exact (dynamic program) up to a client-count threshold
and falls back to a local-search heuristic above it, in which case the result
is flagged as uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (Instance, InfeasibleError, RootedPath, SolverError, _as_int,
                   farthest_node, preprocess_path_pair)
from .exactlp import CoveringMaster, MasterSolution
from .pricing import (DEFAULT_EXACT_THRESHOLD, HKTable, OracleUnavailableError,
                      PricingQuery, exact_length_budget, exact_min_excess_pricing,
                      exact_orienteering, heuristic_pricing)

ZERO = Fraction(0)


@dataclass
class FractionalSolution:
    """A weighted set of rooted paths covering every client at least once."""

    inst: Instance
    columns: List[RootedPath]
    weights: List[Fraction]
    value: Fraction
    duals: Dict[int, Fraction]
    budget_dual: Optional[Fraction]
    objective: str                       # "count" or "regret"
    column_bound: Optional[Tuple[str, int]]  # ("regret", R) or ("length", D)
    count_cap: Optional[int]
    certified: bool
    rounds: int = 0
    pivots: int = 0                      # the master's cumulative pivots
    trace: List[dict] = field(default_factory=list)

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, ZERO)

    def coverage(self, v: int) -> Fraction:
        return sum((w for p, w in zip(self.columns, self.weights)
                    if v in p.node_set), ZERO)

    def support(self) -> List[Tuple[RootedPath, Fraction]]:
        return [(p, w) for p, w in zip(self.columns, self.weights) if w > 0]

    def validate(self) -> None:
        """Raise SolverError unless coverage, column bounds, the count cap
        and the stated value all hold; kept under ``python -O``."""
        if len(self.columns) != len(self.weights):
            raise SolverError(f"{len(self.columns)} columns but "
                              f"{len(self.weights)} weights")
        if any(w < 0 for w in self.weights):
            raise SolverError("negative column weight")
        for v in self.inst.clients:
            if self.coverage(v) < 1:
                raise SolverError(f"client {v} under-covered")
        if self.column_bound is not None:
            kind, limit = self.column_bound
            for p, _ in self.support():
                used = p.regret if kind == "regret" else p.cost
                if used > limit:
                    raise SolverError(f"column {p.nodes} breaks {kind}<={limit}")
        if self.count_cap is not None and self.total_weight > self.count_cap:
            raise SolverError(f"total weight {self.total_weight} exceeds "
                              f"the count cap {self.count_cap}")
        expect = self._objective_value()
        if self.value != expect:
            raise SolverError(str((self.value, expect)))

    def _objective_value(self) -> Fraction:
        if self.objective == "count":
            return self.total_weight
        return sum((Fraction(p.regret) * w
                    for p, w in zip(self.columns, self.weights)), ZERO)

    @classmethod
    def from_columns(cls, inst: Instance, columns: Sequence[RootedPath],
                     weights: Sequence[Fraction], objective: str = "count",
                     column_bound: Optional[Tuple[str, int]] = None,
                     count_cap: Optional[int] = None,
                     certified: bool = False) -> "FractionalSolution":
        cols = list(columns)
        ws = [Fraction(w) for w in weights]
        sol = cls(inst=inst, columns=cols, weights=ws, value=ZERO, duals={},
                  budget_dual=None, objective=objective,
                  column_bound=column_bound, count_cap=count_cap,
                  certified=certified)
        sol.value = sol._objective_value()
        return sol


def _column_cost(path: RootedPath, objective: str) -> int:
    return 1 if objective == "count" else path.regret


def _greedy_hamiltonian(inst: Instance) -> RootedPath:
    # Nearest-neighbour sweep; only used to seed the capped master.
    seq = [inst.root]
    left = set(inst.clients)
    at = inst.root
    while left:
        nxt = min(left, key=lambda v: (inst.dist[at][v], v))
        seq.append(nxt)
        left.discard(nxt)
        at = nxt
    return RootedPath.build(inst, seq)


def _seed_columns(inst: Instance, objective: str,
                  column_bound: Optional[Tuple[str, int]],
                  count_cap: Optional[int]) -> List[RootedPath]:
    seeds = [RootedPath.build(inst, [inst.root, v]) for v in inst.clients]
    if count_cap is not None and count_cap < len(seeds):
        seeds.append(_greedy_hamiltonian(inst))
    return seeds


def _empty_solution(inst: Instance, objective: str,
                    column_bound: Optional[Tuple[str, int]],
                    count_cap: Optional[int]) -> FractionalSolution:
    return FractionalSolution(inst=inst, columns=[], weights=[], value=ZERO,
                              duals={}, budget_dual=None, objective=objective,
                              column_bound=column_bound, count_cap=count_cap,
                              certified=True)


def _price(inst: Instance, duals: Dict[int, Fraction], z: Fraction,
           objective: str, column_bound: Optional[Tuple[str, int]],
           exact: bool, table: Optional[HKTable],
           threshold: int) -> Tuple[RootedPath, Fraction, bool]:
    """Returns (path, pricing value, improving?)."""
    if column_bound is not None:
        kind, limit = column_bound
        if exact:
            fn = exact_orienteering if kind == "regret" else exact_length_budget
            res = fn(inst, duals, limit, table=table, threshold=threshold)
        else:
            res = heuristic_pricing(inst, PricingQuery(
                rewards=dict(duals), budget_kind=kind, budget=limit))
        return res.path, res.value, res.value > 1
    if exact:
        res = exact_min_excess_pricing(inst, duals, table=table,
                                       threshold=threshold)
    else:
        res = heuristic_pricing(inst, PricingQuery(
            rewards=dict(duals), budget_kind="min_excess"))
    return res.path, res.value, res.value < -z


def column_generation(inst: Instance, objective: str,
                      column_bound: Optional[Tuple[str, int]] = None,
                      count_cap: Optional[int] = None,
                      exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                      hk_table: Optional[HKTable] = None) -> FractionalSolution:
    if objective not in ("count", "regret"):
        raise ValueError(f"unknown objective {objective!r}")
    clients = list(inst.clients)
    if not clients:
        return _empty_solution(inst, objective, column_bound, count_cap)

    exact = len(clients) <= exact_threshold
    table = hk_table
    if exact and table is None:
        try:
            table = HKTable(inst, threshold=exact_threshold)
        except OracleUnavailableError:
            exact = False

    master = CoveringMaster(clients, budget=count_cap)
    columns: List[RootedPath] = []
    seen = set()
    for p in _seed_columns(inst, objective, column_bound, count_cap):
        if p.nodes not in seen:
            seen.add(p.nodes)
            columns.append(p)
            master.add_column(p.nodes[1:], _column_cost(p, objective))

    trace: List[dict] = []
    prev_value: Optional[Fraction] = None
    sol: Optional[MasterSolution] = None
    rounds = 0
    while True:
        rounds += 1
        if rounds > max(200, 10 * inst.n * len(columns)):
            raise SolverError("column generation exceeded its round cap")
        sol = master.solve()
        if prev_value is not None and sol.value > prev_value:
            raise SolverError("restricted master value increased")
        prev_value = sol.value
        z = sol.budget_dual if sol.budget_dual is not None else ZERO
        path, pricing_value, improving = _price(
            inst, sol.duals, z, objective, column_bound, exact, table,
            exact_threshold)
        trace.append({"round": rounds, "value": float(sol.value),
                      "pricing": float(pricing_value),
                      "columns": len(columns)})
        if not improving:
            break
        if path.nodes in seen:
            if exact:
                raise SolverError(
                    "exact pricing re-proposed a column already in the master")
            break  # heuristic stalled on a known column
        seen.add(path.nodes)
        columns.append(path)
        master.add_column(path.nodes[1:], _column_cost(path, objective))

    result = FractionalSolution(
        inst=inst, columns=columns, weights=list(sol.weights),
        value=sol.value, duals=dict(sol.duals), budget_dual=sol.budget_dual,
        objective=objective, column_bound=column_bound, count_cap=count_cap,
        certified=exact, rounds=rounds, pivots=sol.pivots, trace=trace)
    result.validate()
    return result


def solve_rvrp_lp(inst: Instance, R: int,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                  hk_table: Optional[HKTable] = None) -> FractionalSolution:
    """Fractional minimum number of regret-<=R rooted paths covering all."""
    R = _as_int(R)
    if R < 0:
        raise ValueError("regret bound must be nonnegative")
    return column_generation(inst, "count", column_bound=("regret", R),
                             exact_threshold=exact_threshold,
                             hk_table=hk_table)


def solve_dvrp_lp(inst: Instance, D: int,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                  hk_table: Optional[HKTable] = None) -> FractionalSolution:
    """Fractional minimum number of length-<=D rooted paths covering all."""
    D = _as_int(D)
    far = [v for v in inst.clients if inst.root_dist[v] > D]
    if far:
        raise InfeasibleError(
            f"nodes {far} lie beyond distance {D} from the root", nodes=far)
    return column_generation(inst, "count", column_bound=("length", D),
                             exact_threshold=exact_threshold,
                             hk_table=hk_table)


def solve_minsum_lp(inst: Instance, k: int,
                    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                    hk_table: Optional[HKTable] = None) -> FractionalSolution:
    """Fractional minimum total regret using at most k rooted paths."""
    k = _as_int(k)
    if k < 1:
        raise ValueError("path budget must be at least 1")
    return column_generation(inst, "regret", count_cap=k,
                             exact_threshold=exact_threshold,
                             hk_table=hk_table)


def solve_restricted_master(inst: Instance, columns: Sequence[RootedPath],
                            objective: str = "count",
                            count_cap: Optional[int] = None) -> MasterSolution:
    """Exact optimum of the covering LP restricted to the given columns."""
    if objective not in ("count", "regret"):
        raise ValueError(f"unknown objective {objective!r}")
    master = CoveringMaster(list(inst.clients), budget=count_cap)
    for p in columns:
        master.add_column(p.nodes[1:], _column_cost(p, objective))
    return master.solve()


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
    for p in out.columns:
        if not (p.is_trivial or p.end == farthest_node(inst, p)):
            raise SolverError(f"column {p.nodes} does not end at its "
                              f"farthest node")
    out.validate()
    return out
