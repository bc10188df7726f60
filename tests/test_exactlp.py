"""Exact covering master: optimality, duals, warm restarts, and agreement
with the Fraction simplex it replaced."""

import random
from fractions import Fraction

import pytest

from hk_reference import scaled_rewards
from master_reference import ReferenceMaster
from regret_route import pricing
from regret_route.core import SolverError
from regret_route.exactlp import CoveringMaster
from regret_route.harness import gen_euclidean
from regret_route.lp import solve_minsum_lp, solve_rvrp_lp


def test_single_column_cover():
    master = CoveringMaster([1, 2])
    master.add_column([1], Fraction(1))
    master.add_column([2], Fraction(1))
    master.add_column([1, 2], Fraction(1))
    sol = master.solve()
    assert sol.value == 1
    assert sol.weights == [0, 0, Fraction(1)]


def test_fractional_optimum_on_overlapping_triples():
    # pairwise covers of {1,2,3}: the classic 3/2 fractional optimum
    master = CoveringMaster([1, 2, 3])
    for v in (1, 2, 3):
        master.add_column([v], Fraction(1))
    master.add_column([1, 2], Fraction(1))
    master.add_column([2, 3], Fraction(1))
    master.add_column([1, 3], Fraction(1))
    sol = master.solve()
    assert sol.value == Fraction(3, 2)
    assert sol.weights == [0, 0, 0] + [Fraction(1, 2)] * 3
    # duals certify: each client's dual is 1/2, reduced costs nonnegative
    assert sum(sol.duals.values()) == Fraction(3, 2)
    for covered in ([1, 2], [2, 3], [1, 3]):
        assert sum(sol.duals[v] for v in covered) <= 1


def test_cheap_column_preferred():
    master = CoveringMaster([1, 2])
    master.add_column([1], Fraction(3))
    master.add_column([2], Fraction(4))
    master.add_column([1, 2], Fraction(5))
    sol = master.solve()
    assert sol.value == 5
    assert sol.weights[2] == 1


def test_warm_restart_improves():
    master = CoveringMaster([1, 2, 3])
    master.add_column([1], Fraction(1))
    master.add_column([2], Fraction(1))
    master.add_column([3], Fraction(1))
    first = master.solve()
    assert first.value == 3
    master.add_column([1, 2, 3], Fraction(2))
    second = master.solve()
    assert second.value == 2
    assert second.pivots >= 0


def test_budget_row_binds():
    # covering 3 clients with singletons takes 3 paths; cap at 2 forces
    # weight onto the wide column even though it is dearer
    master = CoveringMaster([1, 2, 3], budget=Fraction(2))
    master.add_column([1], Fraction(0))
    master.add_column([2], Fraction(0))
    master.add_column([3], Fraction(0))
    master.add_column([1, 2, 3], Fraction(5))
    sol = master.solve()
    assert sum(sol.weights) <= 2
    assert sol.value == Fraction(5, 2)
    assert sol.budget_dual is not None


def test_infeasible_budget_detected():
    # No column covers both clients, so there is no start basis; the LP is
    # infeasible too.
    master = CoveringMaster([1, 2], budget=Fraction(1))
    master.add_column([1], Fraction(1))
    master.add_column([2], Fraction(1))
    with pytest.raises(SolverError):
        master.solve()


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="^negative budget$"):
        CoveringMaster([1, 2], budget=-1)


def test_uncoverable_client_detected():
    master = CoveringMaster([1, 2])
    master.add_column([1], Fraction(1))
    with pytest.raises(SolverError):
        master.solve()


def test_duals_certify_optimum_on_randoms():
    rng = random.Random(6)
    for trial in range(15):
        clients = list(range(1, rng.randint(3, 6)))
        master = CoveringMaster(clients)
        # The start columns cost as much as any other column.
        cols = [([v], Fraction(7)) for v in clients]
        for _ in range(rng.randint(len(clients), 9)):
            size = rng.randint(1, len(clients))
            cols.append((sorted(rng.sample(clients, size)),
                         Fraction(rng.randint(1, 7))))
        for covered, cost in cols:
            master.add_column(covered, cost)
        sol = master.solve()
        # weak duality at equality: primal value == dual value
        assert sol.value == sum(sol.duals.values())
        for covered, cost in cols:
            assert sum(sol.duals[v] for v in covered) <= cost
        assert all(y >= 0 for y in sol.duals.values())


# -- cross-check against the Fraction simplex it replaced ---------------------


def _random_script(rng):
    """Client rows, a budget (or None) and batches of columns, each batch
    followed by a solve, so warm restarts are exercised. The first batch
    opens with the start columns: one per client without a budget, one
    covering every client with one."""
    clients = rng.sample(range(1, 40), rng.randint(1, 7))
    budget = rng.choice([None, None, rng.randint(0, len(clients) + 1)])
    count = rng.random() < 0.5
    coverable = list(clients)
    if rng.random() < 0.15:
        coverable.remove(rng.choice(clients))      # only a start column
    lonely = rng.choice(clients) if rng.random() < 0.3 else None
    starts = [clients] if budget is not None else [[v] for v in clients]
    seen = [(covered, 1 if count else rng.randint(0, 9))
            for covered in starts]
    batches = []
    for _ in range(rng.randint(1, 4)):
        batch = [] if batches else list(seen)
        for _ in range(rng.randint(1, 6)):
            if seen and rng.random() < 0.15:
                batch.append(rng.choice(seen))      # duplicate column
                continue
            pool = [v for v in coverable
                    if v != lonely or not seen] or coverable
            size = rng.randint(min(1, len(pool)), len(pool))
            covered = rng.sample(pool, size)
            cost = 1 if count else rng.randint(0, 9)
            batch.append((covered, cost))
            seen.append((covered, cost))
        batches.append(batch)
    return clients, budget, batches


def _fields(res):
    """A solution's Fraction views, or an error type as it is."""
    if isinstance(res, type):
        return res
    return res.value, res.weights, res.duals, res.budget_dual, res.pivots


def _values(results):
    """The objective values, or error types as they are."""
    return [r if isinstance(r, type) else r.value for r in results]


def _check_optimal(results, budget, batches):
    """Each solution is a primal and a dual feasible solution of its
    restricted master with equal objectives, checked on the Fraction views
    against the columns added so far."""
    columns = []
    for res, batch in zip(results, batches):
        columns += batch
        if isinstance(res, type):
            continue
        duals, z = res.duals, res.budget_dual or 0
        for v in duals:
            assert sum(w for w, (covered, _) in zip(res.weights, columns)
                       if v in covered) >= 1
        if budget is not None:
            assert sum(res.weights) <= budget
        assert min(duals.values(), default=0) >= 0 and z >= 0
        for covered, cost in columns:
            assert sum(duals[v] for v in set(covered)) - z <= cost
        assert res.value == sum(w * cost for w, (_, cost)
                                in zip(res.weights, columns))
        assert res.value == sum(duals.values()) - z * (budget or 0)


def _assert_matches_reference(clients, budget, batches):
    """Without a budget row the reference's phase 1 enters the start
    columns one per client and ends at the start basis, so every field
    agrees and the reference pivots once more per client. Under a budget
    the start bases differ and a degenerate LP may end at another optimal
    vertex: the values agree and both solutions are optimal."""
    got = _run(CoveringMaster, clients, budget, batches)
    want = _run(ReferenceMaster, clients, budget, batches)
    if budget is None:
        shifted = [r if isinstance(r, type) else
                   _fields(r)[:4] + (r.pivots + len(clients),) for r in got]
        assert shifted == [_fields(r) for r in want]
    else:
        assert _values(got) == _values(want)
        _check_optimal(got, budget, batches)
        _check_optimal(want, budget, batches)
    return got, want


def _run(cls, clients, budget, batches):
    out = []
    try:
        master = cls(clients, budget=budget)
        for batch in batches:
            for covered, cost in batch:
                master.add_column(covered, cost)
            out.append(master.solve())
    except (SolverError, ValueError) as exc:
        out.append(type(exc))
    return out


def test_matches_fraction_reference_on_randoms():
    rng = random.Random(11)
    kinds = set()
    for _ in range(400):
        clients, budget, batches = _random_script(rng)
        got, _ = _assert_matches_reference(clients, budget, batches)
        for res in got:
            if isinstance(res, type):
                kinds.add(res.__name__)
                continue
            kinds.add("budget" if res.budget_dual is not None else "plain")
            assert type(res.value) is Fraction
            assert all(type(w) is Fraction for w in res.weights)
            assert all(type(y) is Fraction for y in res.duals.values())
            # The integer duals are det times the Fraction duals, and the
            # rewards handed to the pricers are those duals over the lcm of
            # their denominators.
            assert res.y[:len(clients)] == [res.det * res.duals[v]
                                            for v in clients]
            if budget is not None:
                assert res.y[-1] == -res.det * res.budget_dual
            assert res.coverage_duals == scaled_rewards(clients, res.duals)
    # the seed reaches both shapes and the infeasible outcomes
    assert kinds == {"budget", "plain", "SolverError"}


def _recorded_script(monkeypatch, solve_lp):
    """The master calls column generation makes, as (clients, budget,
    batches): each batch of added columns is followed by a solve."""
    from regret_route import lp
    scripts = []

    class Recorder(CoveringMaster):
        def __init__(self, client_rows, budget=None):
            super().__init__(client_rows, budget)
            scripts.append((list(client_rows), budget, [[]]))

        def add_column(self, covered, cost):
            scripts[-1][2][-1].append((list(covered), cost))
            return super().add_column(covered, cost)

        def solve(self):
            scripts[-1][2].append([])
            return super().solve()

    with monkeypatch.context() as patch:
        patch.setattr(lp, "CoveringMaster", Recorder)
        solve_lp()
    (clients, budget, batches), = scripts
    assert batches[-1] == []
    return clients, budget, batches[:-1]


@pytest.mark.parametrize("nodes", [17, 21, 25])
@pytest.mark.parametrize("shape", ["rvrp", "krvrp"])
def test_matches_fraction_reference_on_column_generation(monkeypatch, shape,
                                                         nodes):
    # Column generation's own scripts at the sizes the benchmark solves:
    # 16 clients price exactly, 20 and 24 heuristically; the krvrp min-sum
    # LP carries the budget row. An exact scan admits several columns a
    # round, and the regret LP prices only maximal client sets, so at 16
    # clients other instances, a regret bound of 11/4 maxD and a one-path
    # budget keep the script long: batches of several columns resume the
    # master, at least 28 times. No 16-client regret LP found takes 28
    # rounds at eight columns a round, so that one admits two a round.
    if nodes == 17:
        seed, quarters, k = (16 if shape == "rvrp" else 8), 11, 1
        if shape == "rvrp":
            monkeypatch.setattr(pricing, "COLUMNS_PER_ROUND", 2)
    else:
        seed, quarters, k = 1, 2, 3
    inst = gen_euclidean(nodes, seed)
    if shape == "rvrp":
        lp_run = lambda: solve_rvrp_lp(inst,
                                       quarters * max(inst.root_dist) // 4)
    else:
        lp_run = lambda: solve_minsum_lp(inst, k)
    clients, budget, batches = _recorded_script(monkeypatch, lp_run)
    assert len(clients) == nodes - 1 and len(batches) > 1
    assert (budget is not None) == (shape == "krvrp")
    got, _ = _assert_matches_reference(clients, budget, batches)
    assert len(batches) >= 28 and got[-1].pivots > 2 * len(batches)
    if nodes == 17:     # exact pricing resumes the master on several columns
        assert max(map(len, batches[1:])) > 1


def test_resumed_solve_enters_new_columns_first():
    # After an optimum every column prices nonnegative, so a resumed solve
    # begins its scan at the columns added since.
    master = CoveringMaster([1, 2, 3, 4])
    for covered in ([1], [2], [3], [4], [1, 2]):
        master.add_column(covered, 1)
    first = master.solve()
    entered = []
    pivot = master._pivot

    def spy(r, j, alpha, reduced):
        entered.append(j - master._first_structural)
        pivot(r, j, alpha, reduced)

    master._pivot = spy
    # Nonnegative reduced cost: no pivot, the same optimum.
    assert sum(first.duals[v] for v in (3, 4)) <= 2
    master.add_column([3, 4], 2)
    second = master.solve()
    assert entered == [] and second.pivots == first.pivots
    assert second.value == first.value and second.duals == first.duals
    assert second.weights == first.weights + [0]
    # Negative reduced cost: the new column enters first.
    assert sum(first.duals[v] for v in (2, 3, 4)) > 1
    new = master.add_column([2, 3, 4], 1)
    third = master.solve()
    assert entered[0] == new
    assert third.value < first.value
    ref = ReferenceMaster([1, 2, 3, 4])
    for covered, cost in (([1], 1), ([2], 1), ([3], 1), ([4], 1), ([1, 2], 1),
                          ([3, 4], 2), ([2, 3, 4], 1)):
        ref.add_column(covered, Fraction(cost))
    assert _fields(third)[:4] == _fields(ref.solve())[:4]


def test_every_pivot_element_is_positive(monkeypatch):
    # Bland's ratio test only picks rows with alpha[r] > 0, and no other
    # pivot is made, so det stays positive without flipping rows.
    elements = []
    pivot = CoveringMaster._pivot

    def spy(self, r, j, alpha, reduced):
        elements.append(alpha[r])
        pivot(self, r, j, alpha, reduced)

    monkeypatch.setattr(CoveringMaster, "_pivot", spy)
    rng = random.Random(11)
    for _ in range(400):
        _run(CoveringMaster, *_random_script(rng))
    assert len(elements) > 1000 and min(elements) > 0


def test_duals_for_is_c_b_times_adj(monkeypatch):
    # At every master state a pivot reaches, _duals_for agrees with a plain
    # double loop over c_B and adj: under the script's unit or regret costs,
    # and under costs that are 0 on every basic column.
    seen = set()
    pivot = CoveringMaster._pivot

    def plain(master, costs):
        return [sum(costs[j] * master._adj[r][k]
                    for r, j in enumerate(master._basis))
                for k in range(master.m)]

    def spy(self, r, j, alpha, reduced):
        pivot(self, r, j, alpha, reduced)
        structural = self._costs[self._first_structural:]
        seen.add("unit" if set(structural) == {1} else "regret")
        unpriced = [0 if k in self._in_basis else 5
                    for k in range(len(self._costs))]
        assert self._duals_for(unpriced) == [0] * self.m
        for costs in (self._costs, unpriced):
            assert self._duals_for(costs) == plain(self, costs)

    monkeypatch.setattr(CoveringMaster, "_pivot", spy)
    rng = random.Random(3)
    for _ in range(200):
        _run(CoveringMaster, *_random_script(rng))
    assert seen == {"unit", "regret"}


def test_missing_singleton_is_refused():
    # The LP is feasible, but client 2 has no column covering it alone, so
    # there is no start basis.
    master = CoveringMaster([1, 2])
    master.add_column([1], 1)
    master.add_column([1, 2], 1)
    with pytest.raises(SolverError, match="infeasible"):
        master.solve()


def test_zero_budget_is_refused():
    master = CoveringMaster([1, 2], budget=0)
    master.add_column([1, 2], 1)
    with pytest.raises(SolverError, match="infeasible"):
        master.solve()


@pytest.mark.parametrize("budget, columns, weights", [
    (None, (([1, 2], 3), ([3], 1), ([2, 3], 2), ([2], 1), ([1], 1)),
     [0, 1, 0, 1, 1]),
    (3, (([1, 2], 1), ([3], 1), ([3, 1, 2], 0)), [0, 0, 3]),
])
def test_start_columns_added_late_are_found(budget, columns, weights):
    # The start columns need not come first nor in row order. Here the
    # start basis is optimal: no pivot, and under the budget the column
    # covering every client carries all k.
    master = CoveringMaster([1, 2, 3], budget=budget)
    for covered, cost in columns:
        master.add_column(covered, cost)
    sol = master.solve()
    assert sol.pivots == 0 and sol.weights == weights
    assert sol.value == sum(w * c for w, (_, c) in zip(weights, columns))


@pytest.mark.parametrize("budget, cost", [(Fraction(3, 2), 1), (2.5, 1),
                                          (None, Fraction(1, 3)), (2, 0.5)])
def test_non_integral_data_rejected(budget, cost):
    with pytest.raises(ValueError):
        master = CoveringMaster([1, 2], budget=budget)
        master.add_column([1, 2], cost)


def test_integral_fractions_and_floats_accepted():
    master = CoveringMaster([1, 2], budget=Fraction(4, 2))
    master.add_column([1, 2], 3.0)
    master.add_column([2], Fraction(6, 3))
    sol = master.solve()
    assert sol.value == 3 and sol.budget_dual == 0


def _certified_master():
    master = CoveringMaster([1, 2, 3], budget=2)
    for covered, cost in (([1, 2, 3], 3), ([1, 2], 1), ([2, 3], 1),
                          ([1, 3], 1), ([3], 0)):
        master.add_column(covered, cost)
    master.solve()
    return master


@pytest.mark.parametrize("corrupt",
                         ["xb", "xb sign", "adj", "det", "det sign", "y"])
def test_certificate_checks_original_columns(corrupt):
    # A damaged inverse, basic vector, det or maintained det * y must not
    # reach a MasterSolution.
    master = _certified_master()
    message = "basic values do not satisfy the rows"
    if corrupt == "xb":
        master._xb[0] += 1
    elif corrupt == "xb sign":
        master._xb[0] = -1
        message = "negative basic value"
    elif corrupt == "adj":
        master._adj[0] = [x + 1 for x in master._adj[0]]
        message = "a column is priced above its cost"
    elif corrupt == "y":
        master._y[0] += 1
        message = r"maintained duals differ from c_B \* adj"
    elif corrupt == "det":
        master._det += 1
    else:
        master._det = 0
        message = "basis determinant is not positive"
    with pytest.raises(SolverError, match=f"^{message}$"):
        master._extract()


def test_certificate_refuses_a_dual_of_the_wrong_sign():
    # The surplus column of a coverage row and the slack column of the
    # budget row price to -y_i and y_budget against cost 0, so the
    # optimality test refuses a negative coverage or positive budget dual.
    master = _certified_master()
    for row, y_row in ((0, -1), (master.budget_row, 1)):
        y = list(master._y)
        y[row] = y_row
        with pytest.raises(SolverError,
                           match="^a column is priced above its cost$"):
            master._certify(y)


def test_certificate_refuses_a_basic_column_priced_below_its_cost():
    # A lower positive coverage dual prices no column higher (the surplus
    # column of its row stays at or below cost 0), but it prices each basic
    # column through that row below its cost, which only the equality on
    # basic columns refuses.
    master = _certified_master()
    y = list(master._y)
    row = next(i for i, yi in enumerate(y[:len(master.client_rows)])
               if yi > 0)
    y[row] -= 1
    with pytest.raises(SolverError,
                       match="^a basic column is priced below its cost$"):
        master._certify(y)


def test_a_negative_cost_column_without_a_budget_row_is_unbounded():
    # With no budget row nothing caps the weight of a column of negative
    # cost: once it covers its client, raising it further only raises the
    # surplus of the client's row.
    master = CoveringMaster([1, 2])
    for covered, cost in (([1], 1), ([2], 1), ([1], -1)):
        master.add_column(covered, cost)
    with pytest.raises(SolverError, match="^unbounded master LP$"):
        master.solve()
