"""Exact integer-preserving simplex for tiny covering masters.

The LPs here have one coverage row per client (>= 1) and at most one budget
row (sum of column weights <= k). The constraint matrix is 0/+-1 and the
costs and the budget are integers, so a dense primal simplex with Bland's
rule runs on Python ints alone (Bareiss 1968; Azulay & Pique, ACM TOMS
27(3), 2001): it keeps det = |det B| and the integer matrix
adj = det * B^-1, with the basic values scaled by det. A pivot on element p
of the entering column alpha = adj * a_e maps row i != r to
(p * adj_i - alpha_i * adj_r) // det, an exact division, leaves row r as it
is and sets det to p; Bland's ratio test only pivots on p > 0. When p = det
an entry keeps its value in every column where adj_r is zero, so only the
columns where it is nonzero are recomputed. Every test (reduced-cost sign,
ratio comparison) is an integer cross-multiplication.

There is one phase, from a feasible crash basis (Bixby, ORSA J. Comput.
4(3), 1992) of columns the caller added before the first solve, with
|det B| = 1 so that adj = B^-1: without a budget row, the first column
covering exactly {v} per client v (adj = I, basic values 1); under a budget
k, every surplus column and the first column covering every client (basic
values k - 1, and k on the budget row). Without those columns, or with
k < 1, the master is refused as infeasible.

The scaled duals Y = det * y are kept across pivots by the same exact
division: entering column e on row r with scaled reduced cost
D = det * c_e - Y * a_e maps Y to (p * Y + D * adj_r) // det. Y is computed
afresh as c_B * adj only at the start basis and once per solve for the
certificate.

Every column's nonzeros share one sign: +1 on structural and slack
columns, -1 on surplus columns. A column is stored as its sorted row tuple
and that sign, so a price Y * a_j and an entry of adj * a_j are each one
C-level sum over map. c_B * adj is a sum of the basic rows of adj: a row
whose column costs 0 is left out, one whose column costs 1 is added as
it is, and only the others are scaled, so under unit costs each entry is
one C-level sum over zip.

Solves can be resumed after new columns arrive, which is what column
generation needs: a new column leaves the basis, and so Y, as it is. At the
last optimum every older column had a nonnegative reduced cost under that
same Y, so a resumed solve starts its first Bland scan at the first column
added since and enters the column a full scan would. Each solve checks an
optimality certificate against the original columns, not the maintained
inverse, and refuses a maintained Y that differs from c_B * adj. The
solution keeps the integers; its Fraction views are built when they are
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import gt, itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import SolverError

ZERO = Fraction(0)
# One solve's pivot cap: ITERATION_CAP_BASE plus ITERATION_CAP_PER_COLUMN
# for each column of the master.  Bland's rule does not cycle, so this only
# stops a solver bug from looping; it is not an option.
ITERATION_CAP_BASE = 2000
ITERATION_CAP_PER_COLUMN = 200

Rows = Tuple[int, ...]                   # a column's nonzero rows, sorted
Integral = Union[int, Fraction]          # a Fraction must have denominator 1


@dataclass
class MasterSolution:
    """One optimal basic solution of the restricted master, kept as the
    integers it was solved in. value, weights, duals and budget_dual are
    its Fraction views, built when first read."""

    det: int                         # |det B| > 0
    y: List[int]                     # det * dual per row, budget row last
    scaled_value: int                # det * value
    scaled_weights: Dict[int, int]   # det * weight per basic structural column
    columns: int                     # structural columns, basic or not
    client_rows: List[int]           # client id per coverage row
    pivots: int

    @cached_property
    def value(self) -> Fraction:
        return Fraction(self.scaled_value, self.det)

    @cached_property
    def weights(self) -> List[Fraction]:
        """One per structural column, in add order."""
        out = [ZERO] * self.columns
        for idx, x in self.scaled_weights.items():
            out[idx] = Fraction(x, self.det)
        return out

    @cached_property
    def duals(self) -> Dict[int, Fraction]:
        """Coverage dual per client id."""
        return {v: Fraction(yv, self.det)
                for v, yv in zip(self.client_rows, self.y)}

    @cached_property
    def budget_dual(self) -> Optional[Fraction]:
        """None when there is no budget row."""
        if len(self.y) == len(self.client_rows):
            return None
        return Fraction(-self.y[-1], self.det)

    @cached_property
    def coverage_duals(self) -> Tuple[List[int], int]:
        """The coverage duals as (nums, den) in client-row order, in lowest
        common terms: with g = gcd(det, y over the coverage rows), nums[i] =
        y[i] // g and den = det // g, the lcm of the reduced denominators of
        y[i] / det. All zero (or no clients) gives den = 1."""
        ys = self.y[:len(self.client_rows)]
        g = math.gcd(self.det, *ys)
        return [yv // g for yv in ys], self.det // g


def _integral(x: Integral, what: str) -> int:
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"non-integral {what} {x}")
    return q.numerator


class CoveringMaster:
    """min c.x  s.t.  sum_{columns covering v} x >= 1 per client,
    optionally sum x <= budget, x >= 0. Columns arrive incrementally;
    costs and the budget must be integral. The columns present at the
    first solve must include a start basis (see the module docstring)."""

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

        self._rows: List[Rows] = []
        self._signs: List[int] = []
        self._costs: List[int] = []
        # Set from the start basis by the first solve.
        self._basis: List[int] = []
        self._in_basis: Dict[int, int] = {}
        self._det = 1
        self._adj: List[List[int]] = []
        self._xb: List[int] = []
        self._y: List[int] = []            # det * y for the costs
        # Columns present at the last optimum; Y has not moved since.
        self._priced = 0
        self.pivots = 0

        # Surplus per coverage row, slack for the budget row.
        for i in range(len(self.client_rows)):
            self._new_var((i,), -1, 0)
        if self.budget_row is not None:
            self._new_var((self.budget_row,), 1, 0)
        # Structural columns follow the surplus and slack ones.
        self._first_structural = len(self._rows)

    def _new_var(self, rows: Rows, sign: int, cost: int) -> int:
        self._rows.append(rows)
        self._signs.append(sign)
        self._costs.append(cost)
        return len(self._rows) - 1

    def add_column(self, covered: Sequence[int], cost: Integral) -> int:
        """Add one structural column; returns its index in add order."""
        cost = _integral(cost, "cost")
        rows = {self.row_of[v] for v in covered}
        if self.budget_row is not None:
            rows.add(self.budget_row)
        j = self._new_var(tuple(sorted(rows)), 1, cost)
        return j - self._first_structural

    # -- simplex machinery -------------------------------------------------

    def _start(self) -> None:
        """The start basis, with det = 1 and adj = B^-1."""
        n, m = len(self.client_rows), self.m
        first: Dict[Rows, int] = {}          # the first column per row set
        for j in range(self._first_structural, len(self._rows)):
            first.setdefault(self._rows[j], j)
        adj = [[int(i == c) for c in range(m)] for i in range(m)]
        if self.budget_row is None:
            basis = [first.get((i,)) for i in range(n)]
            xb = [1] * n
        else:
            basis = list(range(n)) + [first.get(tuple(range(m)))]
            for i in range(n):          # surplus row i: e_budget - e_i
                adj[i][i], adj[i][n] = -1, 1
            k = self.b[n]
            xb = [k - 1] * n + [k]
        if None in basis or min(xb, default=0) < 0:
            raise SolverError("master LP infeasible")
        self._basis = basis
        self._in_basis = {j: r for r, j in enumerate(basis)}
        self._adj, self._xb = adj, xb
        self._y = self._duals_for(self._costs)

    def _duals_for(self, costs: List[int]) -> List[int]:
        """det * y = c_B * adj: the sum of the adj rows of the basic
        columns with nonzero cost, each scaled by its cost unless that is
        1."""
        rows = []
        for j, row in zip(self._basis, self._adj):
            c = costs[j]
            if c:
                rows.append(row if c == 1 else [c * x for x in row])
        if not rows:
            return [0] * self.m
        return list(map(sum, zip(*rows)))

    def _alpha(self, j: int) -> List[int]:
        """det * B^-1 * a_j."""
        rows = self._rows[j]
        if len(rows) == 1:
            alpha = list(map(itemgetter(rows[0]), self._adj))
        else:
            alpha = list(map(sum, map(itemgetter(*rows), self._adj)))
        return alpha if self._signs[j] > 0 else [-a for a in alpha]

    def _pivot(self, r: int, j: int, alpha: List[int], reduced: int) -> None:
        """Enter column j on row r; alpha = det * B^-1 * a_j, with
        alpha[r] > 0, and reduced is its scaled reduced cost
        det * c_j - Y * a_j."""
        det, p = self._det, alpha[r]
        adj, xb = self._adj, self._xb
        arow, xr = adj[r], xb[r]
        if p == det:
            # Only the columns where row r is nonzero change, in Y too.
            nonzero = [(k, z) for k, z in enumerate(arow) if z]
            y = list(self._y)
            for k, z in nonzero:
                y[k] = (p * y[k] + reduced * z) // det
            for i, ai in enumerate(alpha):
                if ai and i != r:
                    row = adj[i]
                    for k, z in nonzero:
                        row[k] = (p * row[k] - ai * z) // det
                    xb[i] = (p * xb[i] - ai * xr) // det
        else:
            y = [(p * yi + reduced * a) // det
                 for yi, a in zip(self._y, arow)]
            for i in range(self.m):
                if i == r:
                    continue
                ai = alpha[i]
                if ai:
                    adj[i] = [(p * x - ai * z) // det
                              for x, z in zip(adj[i], arow)]
                    xb[i] = (p * xb[i] - ai * xr) // det
                else:
                    adj[i] = [p * x // det for x in adj[i]]
                    xb[i] = p * xb[i] // det
        self._det = p
        self._y = y
        old = self._basis[r]
        del self._in_basis[old]
        self._basis[r] = j
        self._in_basis[j] = r
        self.pivots += 1

    def _entering(self, start: int) -> Tuple[int, int]:
        """Bland's rule: the first nonbasic column from start on with a
        negative scaled reduced cost det * c_j - Y * a_j, and that cost;
        (-1, 0) when there is none."""
        rows, signs, costs = self._rows, self._signs, self._costs
        in_basis, yget, det = self._in_basis, self._y.__getitem__, self._det
        for j in range(start, len(rows)):
            if j in in_basis:
                continue
            reduced = det * costs[j] - signs[j] * sum(map(yget, rows[j]))
            if reduced < 0:
                return j, reduced
        return -1, 0

    def _optimize(self, start: int) -> None:
        """Bland's rule from the current basis. The first scan begins at
        column start; every column before it must have a nonnegative
        reduced cost under the current Y."""
        cap = ITERATION_CAP_BASE + ITERATION_CAP_PER_COLUMN * len(self._rows)
        it = 0
        while True:
            it += 1
            if it > cap:
                raise SolverError("simplex iteration cap exceeded")
            entering, reduced = self._entering(start)
            if entering < 0:
                return
            start = 0
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
            self._pivot(leave, entering, alpha, reduced)

    def solve(self) -> MasterSolution:
        if not self._basis:
            self._start()
        start, self._priced = self._priced, 0
        self._optimize(start)
        sol = self._extract()
        self._priced = len(self._rows)
        return sol

    def _certify(self, y: List[int]) -> None:
        """Optimality certificate on the original columns, all scaled by det:
        A_B (det x_B) = det b with det x_B >= 0; (det y) a_j <= det c_j on
        every column, then = det c_j on basic columns, each refused with
        its own message.  The surplus and slack columns make the first
        pricing test require det y >= 0 on coverage rows and <= 0 on the
        budget row."""
        det, xb = self._det, self._xb
        if det <= 0:
            raise SolverError("basis determinant is not positive")
        if any(x < 0 for x in xb):
            raise SolverError("negative basic value")
        lhs = [0] * self.m
        for r, j in enumerate(self._basis):
            x = self._signs[j] * xb[r]
            for i in self._rows[j]:
                lhs[i] += x
        if lhs != [det * bi for bi in self.b]:
            raise SolverError("basic values do not satisfy the rows")
        prices = list(map(mul, self._signs, map(sum, map(
            map, repeat(y.__getitem__), self._rows))))
        scaled = [det * c for c in self._costs]
        if any(map(gt, prices, scaled)):
            raise SolverError("a column is priced above its cost")
        if any(prices[j] != scaled[j] for j in self._basis):
            raise SolverError("a basic column is priced below its cost")

    def _extract(self) -> MasterSolution:
        y = self._duals_for(self._costs)
        self._certify(y)
        if y != self._y:
            raise SolverError("maintained duals differ from c_B * adj")
        first, xb = self._first_structural, self._xb
        weights = {j - first: xb[r] for r, j in enumerate(self._basis)
                   if j >= first}
        value = sum(map(mul, map(self._costs.__getitem__, self._basis), xb))
        return MasterSolution(self._det, y, value, weights,
                              len(self._rows) - first, self.client_rows,
                              self.pivots)
