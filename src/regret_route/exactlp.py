"""Exact integer-preserving simplex for tiny covering masters.

The LPs here have one coverage row per client (>= 1) and at most one budget
row (sum of column weights <= k). The constraint matrix is 0/+-1 and the
costs and the budget are integers, so a dense two-phase primal simplex with
Bland's rule runs on Python ints alone (Bareiss 1968; Azulay & Pique, ACM
TOMS 27(3), 2001): it keeps det = |det B| and the integer matrix
adj = det * B^-1, with the basic values scaled by det. A pivot on element p
of the entering column alpha = adj * a_e maps row i != r to
(p * adj_i - alpha_i * adj_r) // det, an exact division, leaves row r as it
is and sets det to p. Duals come out as det * y = c_B * adj, and every test
(reduced-cost sign, ratio comparison) is an integer cross-multiplication.

Solves can be resumed after new columns arrive, which is what column
generation needs. Each solve checks an optimality certificate against the
original columns, not the maintained inverse, and only then converts the
primal and dual values to Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import SolverError

ZERO = Fraction(0)

Column = Tuple[Tuple[int, int], ...]     # (row, coefficient) pairs
Integral = Union[int, Fraction]          # a Fraction must have denominator 1


@dataclass
class MasterSolution:
    value: Fraction
    weights: List[Fraction]          # one per structural column, in add order
    duals: Dict[int, Fraction]       # coverage dual per client id
    budget_dual: Optional[Fraction]  # None when there is no budget row
    pivots: int


def _integral(x: Integral, what: str) -> int:
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"non-integral {what} {x}")
    return q.numerator


class CoveringMaster:
    """min c.x  s.t.  sum_{columns covering v} x >= 1 per client,
    optionally sum x <= budget, x >= 0. Columns arrive incrementally;
    costs and the budget must be integral."""

    def __init__(self, client_rows: Sequence[int],
                 budget: Optional[Integral] = None):
        self.client_rows = list(client_rows)
        self.row_of = {v: i for i, v in enumerate(self.client_rows)}
        self.m = len(self.client_rows) + (1 if budget is not None else 0)
        self.budget_row = len(self.client_rows) if budget is not None else None
        self.b: List[int] = [1] * len(self.client_rows)
        if budget is not None:
            if budget < 0:
                raise ValueError("negative budget")
            self.b.append(_integral(budget, "budget"))

        self._cols: List[Column] = []
        self._costs: List[int] = []
        self._artificial: List[bool] = []
        self._structural: List[int] = []
        self._basis: List[int] = []
        self._in_basis: Dict[int, int] = {}
        self._phase1_done = False
        self.pivots = 0

        # Surplus per coverage row, slack for the budget row.
        for i in range(len(self.client_rows)):
            self._new_var(((i, -1),), 0)
        if self.budget_row is not None:
            slack = self._new_var(((self.budget_row, 1),), 0)
        # Artificials give the initial feasible basis on coverage rows.
        for i in range(len(self.client_rows)):
            a = self._new_var(((i, 1),), 0, artificial=True)
            self._basis.append(a)
        if self.budget_row is not None:
            self._basis.append(slack)
        for r, j in enumerate(self._basis):
            self._in_basis[j] = r
        # The starting basis is the identity: det = 1, adj = I, xb = b.
        self._det = 1
        self._adj: List[List[int]] = [[int(i == j) for j in range(self.m)]
                                      for i in range(self.m)]
        self._xb: List[int] = list(self.b)

    def _new_var(self, col: Column, cost: int, artificial: bool = False) -> int:
        self._cols.append(col)
        self._costs.append(cost)
        self._artificial.append(artificial)
        return len(self._cols) - 1

    def add_column(self, covered: Sequence[int], cost: Integral) -> int:
        """Add one structural column; returns its index in add order."""
        cost = _integral(cost, "cost")
        rows = {self.row_of[v] for v in covered}
        if self.budget_row is not None:
            rows.add(self.budget_row)
        j = self._new_var(tuple((i, 1) for i in sorted(rows)), cost)
        self._structural.append(j)
        return len(self._structural) - 1

    # -- simplex machinery -------------------------------------------------

    def _duals_for(self, costs: List[int]) -> List[int]:
        """det * y = c_B * adj."""
        y = [0] * self.m
        for r, j in enumerate(self._basis):
            cj = costs[j]
            if cj:
                y = [yi + cj * a for yi, a in zip(y, self._adj[r])]
        return y

    def _alpha(self, j: int) -> List[int]:
        """det * B^-1 * a_j."""
        col = self._cols[j]
        return [sum(row[i] * a for i, a in col) for row in self._adj]

    def _pivot(self, r: int, j: int, alpha: List[int]) -> None:
        det, p = self._det, alpha[r]
        adj, xb = self._adj, self._xb
        arow, xr = adj[r], xb[r]
        for i in range(self.m):
            if i == r:
                continue
            ai = alpha[i]
            if ai:
                adj[i] = [(p * x - ai * z) // det for x, z in zip(adj[i], arow)]
                xb[i] = (p * xb[i] - ai * xr) // det
            elif p != det:
                adj[i] = [p * x // det for x in adj[i]]
                xb[i] = p * xb[i] // det
        if p < 0:
            # Only an artificial driven out on a degenerate row pivots on a
            # negative element; flip every row so det stays positive.
            self._adj = [[-x for x in row] for row in adj]
            self._xb = [-x for x in xb]
            p = -p
        self._det = p
        old = self._basis[r]
        del self._in_basis[old]
        self._basis[r] = j
        self._in_basis[j] = r
        self.pivots += 1

    def _optimize(self, costs: List[int], allow: List[bool]) -> None:
        cap = 2000 + 200 * len(self._cols)
        it = 0
        while True:
            it += 1
            if it > cap:
                raise SolverError("simplex iteration cap exceeded")
            y = self._duals_for(costs)
            det = self._det
            entering = -1
            for j, col in enumerate(self._cols):
                if not allow[j] or j in self._in_basis:
                    continue
                # Bland: the first column with negative reduced cost.
                if det * costs[j] < sum(y[i] * a for i, a in col):
                    entering = j
                    break
            if entering < 0:
                return
            alpha = self._alpha(entering)
            xb, basis = self._xb, self._basis
            leave = -1
            for r, ar in enumerate(alpha):
                if ar > 0:
                    if leave < 0:
                        leave = r
                        continue
                    # xb[r] / ar against xb[leave] / alpha[leave].
                    lhs, rhs = xb[r] * alpha[leave], xb[leave] * ar
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave = r
            if leave < 0:
                raise SolverError("unbounded master LP")
            self._pivot(leave, entering, alpha)

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
                alpha = self._alpha(cand)
                if alpha[r] != 0:
                    self._pivot(r, cand, alpha)
                    swapped = True
                    break
            if not swapped:
                raise SolverError("could not remove artificial from basis")

    def solve(self) -> MasterSolution:
        n = len(self._cols)
        if not self._phase1_done:
            phase1 = [int(self._artificial[j]) for j in range(n)]
            allow = [True] * n
            self._optimize(phase1, allow)
            if sum(phase1[j] * self._xb[r] for r, j in enumerate(self._basis)):
                raise SolverError("master LP infeasible")
            self._drive_out_artificials()
            self._phase1_done = True
        allow = [not self._artificial[j] for j in range(len(self._cols))]
        self._optimize(self._costs, allow)
        return self._extract()

    def _certify(self, y: List[int]) -> None:
        """Optimality certificate on the original columns, all scaled by det:
        A_B (det x_B) = det b with det x_B >= 0; (det y) a_j = det c_j on
        basic columns and <= det c_j on every other one; det y >= 0 on
        coverage rows and <= 0 on the budget row."""
        det, xb = self._det, self._xb
        if det <= 0:
            raise SolverError("basis determinant is not positive")
        if any(x < 0 for x in xb):
            raise SolverError("negative basic value")
        lhs = [0] * self.m
        for r, j in enumerate(self._basis):
            if self._artificial[j]:
                raise SolverError("artificial left in the basis")
            for i, a in self._cols[j]:
                lhs[i] += a * xb[r]
        if lhs != [det * bi for bi in self.b]:
            raise SolverError("basic values do not satisfy the rows")
        for j, col in enumerate(self._cols):
            if self._artificial[j]:
                continue
            price = sum(y[i] * a for i, a in col)
            cost = det * self._costs[j]
            if price > cost or (j in self._in_basis and price != cost):
                raise SolverError("optimality certificate failed")
        if any(y[i] < 0 for i in range(len(self.client_rows))):
            raise SolverError("negative coverage dual")
        if self.budget_row is not None and y[self.budget_row] > 0:
            raise SolverError("negative budget dual")

    def _extract(self) -> MasterSolution:
        y = self._duals_for(self._costs)
        self._certify(y)
        det, xb = self._det, self._xb
        weights = [ZERO] * len(self._structural)
        for idx, j in enumerate(self._structural):
            r = self._in_basis.get(j)
            if r is not None:
                weights[idx] = Fraction(xb[r], det)
        value = Fraction(sum(self._costs[j] * xb[r]
                             for r, j in enumerate(self._basis)), det)
        duals = {v: Fraction(y[i], det) for i, v in enumerate(self.client_rows)}
        bd = None
        if self.budget_row is not None:
            bd = Fraction(-y[self.budget_row], det)
        return MasterSolution(value=value, weights=weights, duals=duals,
                              budget_dual=bd, pivots=self.pivots)
