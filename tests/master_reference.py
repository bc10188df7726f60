"""Fraction-arithmetic covering simplex: the test oracle for the master.

This is the dense two-phase simplex over ``fractions.Fraction`` that
``regret_route.exactlp.CoveringMaster`` replaced with integer-preserving
updates.  Both use Bland's entering rule and the same (ratio, basis index)
leaving tie-break, so the tests require every field of its
``MasterSolution`` to agree exactly with the Fraction views of the integer
master's, the cumulative pivot count included.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from regret_route.core import SolverError


@dataclass
class MasterSolution:
    value: Fraction
    weights: List[Fraction]          # one per structural column, in add order
    duals: Dict[int, Fraction]       # coverage dual per client id
    budget_dual: Optional[Fraction]  # None when there is no budget row
    pivots: int


ZERO = Fraction(0)
ONE = Fraction(1)


class ReferenceMaster:
    """min c.x  s.t.  sum_{columns covering v} x >= 1 per client,
    optionally sum x <= budget, x >= 0. Columns arrive incrementally."""

    def __init__(self, client_rows: Sequence[int], budget: Optional[Fraction] = None):
        self.client_rows = list(client_rows)
        self.row_of = {v: i for i, v in enumerate(self.client_rows)}
        self.m = len(self.client_rows) + (1 if budget is not None else 0)
        self.budget_row = len(self.client_rows) if budget is not None else None
        self.b: List[Fraction] = [ONE] * len(self.client_rows)
        if budget is not None:
            if budget < 0:
                raise ValueError("negative budget")
            self.b.append(Fraction(budget))

        self._cols: List[Dict[int, Fraction]] = []
        self._costs: List[Fraction] = []
        self._artificial: List[bool] = []
        self._structural: List[int] = []
        self._basis: List[int] = []
        self._in_basis: Dict[int, int] = {}
        self._binv: List[List[Fraction]] = []
        self._xb: List[Fraction] = []
        self._phase1_done = False
        self.pivots = 0

        # Surplus per coverage row, slack for the budget row.
        for i in range(len(self.client_rows)):
            self._new_var({i: -ONE}, ZERO)
        if self.budget_row is not None:
            slack = self._new_var({self.budget_row: ONE}, ZERO)
        # Artificials give the initial feasible basis on coverage rows.
        for i in range(len(self.client_rows)):
            a = self._new_var({i: ONE}, ZERO, artificial=True)
            self._basis.append(a)
        if self.budget_row is not None:
            self._basis.append(slack)
        for r, j in enumerate(self._basis):
            self._in_basis[j] = r
        self._binv = [[ONE if i == j else ZERO for j in range(self.m)]
                      for i in range(self.m)]
        self._xb = list(self.b)

    def _new_var(self, col: Dict[int, Fraction], cost: Fraction,
                 artificial: bool = False) -> int:
        self._cols.append(col)
        self._costs.append(Fraction(cost))
        self._artificial.append(artificial)
        return len(self._cols) - 1

    def add_column(self, covered: Sequence[int], cost: Fraction) -> int:
        """Add one structural column; returns its index in add order."""
        col = {self.row_of[v]: ONE for v in covered}
        if self.budget_row is not None:
            col[self.budget_row] = ONE
        j = self._new_var(col, Fraction(cost))
        self._structural.append(j)
        return len(self._structural) - 1

    # -- simplex machinery -------------------------------------------------

    def _duals_for(self, costs: List[Fraction]) -> List[Fraction]:
        y = [ZERO] * self.m
        for r, j in enumerate(self._basis):
            cj = costs[j]
            if cj:
                row = self._binv[r]
                for i in range(self.m):
                    if row[i]:
                        y[i] += cj * row[i]
        return y

    def _direction(self, j: int) -> List[Fraction]:
        col = self._cols[j]
        return [sum(self._binv[r][i] * a for i, a in col.items())
                for r in range(self.m)]

    def _pivot(self, r: int, j: int, d: List[Fraction]) -> None:
        theta = self._xb[r] / d[r]
        for i in range(self.m):
            if i != r and d[i]:
                self._xb[i] -= theta * d[i]
        self._xb[r] = theta
        piv = d[r]
        brow = self._binv[r]
        if piv != 1:
            self._binv[r] = brow = [x / piv for x in brow]
        for i in range(self.m):
            if i != r and d[i]:
                di = d[i]
                irow = self._binv[i]
                self._binv[i] = [irow[t] - di * brow[t] for t in range(self.m)]
        old = self._basis[r]
        del self._in_basis[old]
        self._basis[r] = j
        self._in_basis[j] = r
        self.pivots += 1

    def _optimize(self, costs: List[Fraction], allow: List[bool]) -> None:
        cap = 2000 + 200 * len(self._cols)
        it = 0
        while True:
            it += 1
            if it > cap:
                raise SolverError("simplex iteration cap exceeded")
            y = self._duals_for(costs)
            entering = -1
            for j in range(len(self._cols)):
                if not allow[j] or j in self._in_basis:
                    continue
                rc = costs[j] - self._price(j, y)
                if rc < 0:
                    entering = j
                    break
            if entering < 0:
                return
            d = self._direction(entering)
            leave = -1
            best: Optional[Fraction] = None
            for r in range(self.m):
                if d[r] > 0:
                    ratio = self._xb[r] / d[r]
                    if best is None or ratio < best or \
                            (ratio == best and self._basis[r] < self._basis[leave]):
                        best, leave = ratio, r
            if leave < 0:
                raise SolverError("unbounded master LP")
            self._pivot(leave, entering, d)

    def _price(self, j: int, y: List[Fraction]) -> Fraction:
        return sum(y[i] * a for i, a in self._cols[j].items())

    def _drive_out_artificials(self) -> None:
        for r in range(self.m):
            j = self._basis[r]
            if not self._artificial[j]:
                continue
            if self._xb[r] != 0:
                raise SolverError("master LP infeasible")
            swapped = False
            for cand in range(len(self._cols)):
                if self._artificial[cand] or cand in self._in_basis:
                    continue
                d = self._direction(cand)
                if d[r] != 0:
                    self._pivot(r, cand, d)
                    swapped = True
                    break
            if not swapped:
                raise SolverError("could not remove artificial from basis")

    def solve(self) -> MasterSolution:
        n = len(self._cols)
        if not self._phase1_done:
            phase1 = [ONE if self._artificial[j] else ZERO for j in range(n)]
            allow = [True] * n
            self._optimize(phase1, allow)
            val = sum(phase1[j] * self._xb[r] for r, j in enumerate(self._basis))
            if val != 0:
                raise SolverError("master LP infeasible")
            self._drive_out_artificials()
            self._phase1_done = True
        allow = [not self._artificial[j] for j in range(len(self._cols))]
        self._optimize(self._costs, allow)
        return self._extract()

    def _extract(self) -> MasterSolution:
        y = self._duals_for(self._costs)
        # Optimality certificate: primal feasible, duals price every column.
        for j in range(len(self._cols)):
            if self._artificial[j]:
                continue
            rc = self._costs[j] - self._price(j, y)
            if rc < 0 or (j in self._in_basis and rc != 0):
                raise SolverError("optimality certificate failed")
        if any(x < 0 for x in self._xb):
            raise SolverError("negative basic value")
        weights = [ZERO] * len(self._structural)
        for idx, j in enumerate(self._structural):
            r = self._in_basis.get(j)
            if r is not None:
                weights[idx] = self._xb[r]
        value = sum(self._costs[j] * self._xb[r]
                    for r, j in enumerate(self._basis))
        duals = {v: y[i] for i, v in enumerate(self.client_rows)}
        if any(d < 0 for d in duals.values()):
            raise SolverError("negative coverage dual")
        bd = None
        if self.budget_row is not None:
            bd = -y[self.budget_row]
            if bd < 0:
                raise SolverError("negative budget dual")
        return MasterSolution(value=Fraction(value), weights=weights,
                              duals=duals, budget_dual=bd, pivots=self.pivots)
