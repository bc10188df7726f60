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

Each round solves the master once and prices once. A count LP priced by
a bounded exact scan keeps a stability center (Wentges, ITOR 4(2), 1997):
the first round's duals, then the midpoint of the old center, rounded down
onto the new duals' denominator, and the new duals, over twice that
denominator, which keeps the center's integers about as wide as the
duals'. The scan returns up to
eight columns whose reward at the true duals is above 1, which is the
admission test, picked by their reward at the center (then fewest nodes,
then the smallest client mask) and carrying their true reward; the
min-excess scan returns up to eight of least excess, the heuristic one.
The round admits them in that order while they pass the admission test
and ends column generation when it admits none. Admission and that proof
of optimality read the true duals only: the center steers which columns
enter, never whether the LP is optimal. At a master optimum every master
column fails the admission test, so no pricer, exact or heuristic, can
re-propose one; a column that passes it and is already in the master
raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from .core import (Instance, RootedPath, SolverError, check_cap,
                   check_path_budget, check_regret, farthest_node,
                   preprocess_path_pair)
from .exactlp import CoveringMaster, MasterSolution
from .pricing import (DEFAULT_EXACT_THRESHOLD, PricedPath, ScaledRewards,
                      exact_length_budget, exact_min_excess_pricing,
                      exact_orienteering, heuristic_pricing, table_for)

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
        return _weight_sum(self.support())

    def coverage(self, v: int) -> Fraction:
        return self._coverage_by_node(self.support()).get(v, ZERO)

    @staticmethod
    def _coverage_by_node(support) -> Dict[int, Fraction]:
        """The weight on each node, summed over the support."""
        cover: Dict[int, Fraction] = {}
        for p, w in support:
            for v in p.node_set:
                cover[v] = cover.get(v, ZERO) + w
        return cover

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
        support = self.support()
        cover = self._coverage_by_node(support)
        for v in self.inst.clients:
            if cover.get(v, ZERO) < 1:
                raise SolverError(f"client {v} under-covered")
        if self.column_bound is not None:
            kind, limit = self.column_bound
            for p, _ in support:
                used = p.regret if kind == "regret" else p.cost
                if used > limit:
                    raise SolverError(f"column {p.nodes} breaks {kind}<={limit}")
        if self.count_cap is not None:
            total = _weight_sum(support)
            if total > self.count_cap:
                raise SolverError(f"total weight {total} exceeds the count "
                                  f"cap {self.count_cap}")
        expect = self._objective_value(support)
        if self.value != expect:
            raise SolverError(str((self.value, expect)))

    def _objective_value(self, support) -> Fraction:
        """The objective over the support: zero weights add nothing."""
        if self.objective == "count":
            return _weight_sum(support)
        return sum((p.regret * w for p, w in support), ZERO)

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
        sol.value = sol._objective_value(sol.support())
        return sol


def _weight_sum(support: Sequence[Tuple[RootedPath, Fraction]]) -> Fraction:
    return sum((w for _, w in support), ZERO)


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


def _moved_center(center: Optional[ScaledRewards],
                  duals: ScaledRewards) -> ScaledRewards:
    """The stability center after a round whose duals are (nums, den): the
    duals themselves in the first round, later the midpoint of the old
    center, rounded down onto den, and the duals, over 2·den."""
    if center is None:
        return duals
    (old, old_den), (nums, den) = center, duals
    return [c * den // old_den + x for c, x in zip(old, nums)], 2 * den


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
        scan = partial(exact_orienteering if kind == "regret"
                       else exact_length_budget,
                       table_for(inst, exact_threshold), budget=limit)
        center: Optional[ScaledRewards] = None

        def price(duals: ScaledRewards) -> List[PricedPath]:
            nonlocal center
            center = _moved_center(center, duals)
            return scan(duals, guide=center, floor=duals[1])

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
