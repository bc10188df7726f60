"""Exact covering master: optimality, duals, warm restarts, and agreement
with the Fraction simplex it replaced."""

import random
from fractions import Fraction

import pytest

from hk_reference import scaled_rewards
from master_reference import ReferenceMaster
from regret_route.core import SolverError
from regret_route.exactlp import CoveringMaster
from regret_route.harness import gen_euclidean
from regret_route.lp import solve_minsum_lp, solve_rvrp_lp


def test_single_column_cover():
    master = CoveringMaster([1, 2])
    master.add_column([1, 2], Fraction(1))
    sol = master.solve()
    assert sol.value == 1
    assert sol.weights == [Fraction(1)]


def test_fractional_optimum_on_overlapping_triples():
    # pairwise covers of {1,2,3}: the classic 3/2 fractional optimum
    master = CoveringMaster([1, 2, 3])
    master.add_column([1, 2], Fraction(1))
    master.add_column([2, 3], Fraction(1))
    master.add_column([1, 3], Fraction(1))
    sol = master.solve()
    assert sol.value == Fraction(3, 2)
    assert sum(sol.weights) == Fraction(3, 2)
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
    from regret_route.core import SolverError
    master = CoveringMaster([1, 2], budget=Fraction(1))
    master.add_column([1], Fraction(1))
    master.add_column([2], Fraction(1))
    with pytest.raises(SolverError):
        master.solve()


def test_uncoverable_client_detected():
    from regret_route.core import SolverError
    master = CoveringMaster([1, 2])
    master.add_column([1], Fraction(1))
    with pytest.raises(SolverError):
        master.solve()


def test_duals_certify_optimum_on_randoms():
    import random
    rng = random.Random(6)
    for trial in range(15):
        clients = list(range(1, rng.randint(3, 6)))
        master = CoveringMaster(clients)
        cols = []
        for _ in range(rng.randint(len(clients), 9)):
            size = rng.randint(1, len(clients))
            cols.append((sorted(rng.sample(clients, size)),
                         Fraction(rng.randint(1, 7))))
        for covered, cost in cols:
            master.add_column(covered, cost)
        covered_union = set().union(*(set(c) for c, _ in cols))
        if covered_union < set(clients):
            continue
        sol = master.solve()
        # weak duality at equality: primal value == dual value
        assert sol.value == sum(sol.duals.values())
        for covered, cost in cols:
            assert sum(sol.duals[v] for v in covered) <= cost
        assert all(y >= 0 for y in sol.duals.values())


# -- cross-check against the Fraction simplex it replaced ---------------------


def _random_script(rng):
    """Client rows, a budget (or None) and batches of columns, each batch
    followed by a solve, so warm restarts are exercised."""
    clients = rng.sample(range(1, 40), rng.randint(1, 7))
    budget = rng.choice([None, None, rng.randint(0, len(clients) + 1)])
    count = rng.random() < 0.5
    coverable = list(clients)
    if rng.random() < 0.15:
        coverable.remove(rng.choice(clients))      # an uncoverable client
    lonely = rng.choice(clients) if rng.random() < 0.3 else None
    seen, batches = [], []
    for _ in range(rng.randint(1, 4)):
        batch = []
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
        got = _run(CoveringMaster, clients, budget, batches)
        want = _run(ReferenceMaster, clients, budget, batches)
        assert ([_fields(r) for r in got] == [_fields(r) for r in want]), (
            clients, budget, batches)
        for res, ref in zip(got, want):
            if isinstance(res, type):
                kinds.add(res.__name__)
                continue
            kinds.add("budget" if res.budget_dual is not None else "plain")
            assert type(res.value) is Fraction
            assert all(type(w) is Fraction for w in res.weights)
            assert all(type(y) is Fraction for y in res.duals.values())
            # The integer duals are det times the reference's, and the
            # rewards handed to the pricers are those duals over the lcm of
            # their denominators.
            assert res.y[:len(clients)] == [res.det * ref.duals[v]
                                            for v in clients]
            if budget is not None:
                assert res.y[-1] == -res.det * ref.budget_dual
            assert res.coverage_duals == scaled_rewards(clients, ref.duals)
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
    # round, and the regret LP picks them by smoothed duals, so at 16
    # clients other instances, a regret bound of 11/4 maxD and a one-path
    # budget keep the script long: batches of several columns resume the
    # master, at least 28 times.
    if nodes == 17:
        seed, quarters, k = (16 if shape == "rvrp" else 8), 11, 1
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
    got = _run(CoveringMaster, clients, budget, batches)
    want = _run(ReferenceMaster, clients, budget, batches)
    assert [_fields(r) for r in got] == [_fields(r) for r in want]
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


def test_negative_pivot_driving_out_an_artificial():
    # One client under a budget of 1 and one zero-cost column: phase 1 ends
    # with the artificial basic at zero, and the surplus column replaces it
    # on a pivot element of -1.
    # The maintained det * y is negated with the rows and still equals
    # c_B * adj for the phase 1 costs afterwards.
    elements, exact = [], []
    pivot = CoveringMaster._pivot
    drive_out = CoveringMaster._drive_out_artificials

    def spy(self, r, j, alpha, reduced):
        elements.append(alpha[r])
        pivot(self, r, j, alpha, reduced)

    def checked_drive_out(self, costs):
        drive_out(self, costs)
        exact.append(self._y == self._duals_for(costs))

    master = CoveringMaster([1], budget=1)
    master._pivot = spy.__get__(master)
    master._drive_out_artificials = checked_drive_out.__get__(master)
    master.add_column([1], 0)
    master.add_column([1], 3)
    got = master.solve()
    assert min(elements) < 0
    assert exact == [True]
    ref = ReferenceMaster([1], budget=Fraction(1))
    ref.add_column([1], Fraction(0))
    ref.add_column([1], Fraction(3))
    assert _fields(got) == _fields(ref.solve())
    assert got.value == 0 and got.weights == [1, 0]
    assert master._det > 0


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


@pytest.mark.parametrize("corrupt", ["xb", "adj", "det", "y"])
def test_certificate_checks_original_columns(corrupt):
    # A damaged inverse, basic vector or maintained det * y must not reach
    # a MasterSolution.
    master = CoveringMaster([1, 2, 3], budget=2)
    for covered, cost in (([1, 2], 1), ([2, 3], 1), ([1, 3], 1), ([3], 0)):
        master.add_column(covered, cost)
    master.solve()
    if corrupt == "xb":
        master._xb[0] += 1
    elif corrupt == "adj":
        master._adj[0] = [x + 1 for x in master._adj[0]]
    elif corrupt == "y":
        master._y[0] += 1
    else:
        master._det += 1
    with pytest.raises(SolverError):
        master._extract()
