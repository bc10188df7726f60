"""Exact covering master: optimality, duals, warm restarts, and agreement
with the Fraction simplex it replaced."""

import random
from fractions import Fraction

import pytest

from master_reference import ReferenceMaster
from regret_route.core import SolverError
from regret_route.exactlp import CoveringMaster


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
        assert got == want, (clients, budget, batches)
        for res in got:
            if isinstance(res, type):
                kinds.add(res.__name__)
                continue
            kinds.add("budget" if res.budget_dual is not None else "plain")
            assert type(res.value) is Fraction
            assert all(type(w) is Fraction for w in res.weights)
            assert all(type(y) is Fraction for y in res.duals.values())
    # the seed reaches both shapes and the infeasible outcomes
    assert kinds == {"budget", "plain", "SolverError"}


def test_negative_pivot_driving_out_an_artificial():
    # One client under a budget of 1 and one zero-cost column: phase 1 ends
    # with the artificial basic at zero, and the surplus column replaces it
    # on a pivot element of -1.
    elements = []
    pivot = CoveringMaster._pivot

    def spy(self, r, j, alpha):
        elements.append(alpha[r])
        pivot(self, r, j, alpha)

    master = CoveringMaster([1], budget=1)
    master._pivot = spy.__get__(master)
    master.add_column([1], 0)
    master.add_column([1], 3)
    got = master.solve()
    assert min(elements) < 0
    ref = ReferenceMaster([1], budget=Fraction(1))
    ref.add_column([1], Fraction(0))
    ref.add_column([1], Fraction(3))
    assert got == ref.solve()
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


@pytest.mark.parametrize("corrupt", ["xb", "adj", "det"])
def test_certificate_checks_original_columns(corrupt):
    # A damaged inverse or basic vector must not reach a MasterSolution.
    master = CoveringMaster([1, 2, 3], budget=2)
    for covered, cost in (([1, 2], 1), ([2, 3], 1), ([1, 3], 1), ([3], 0)):
        master.add_column(covered, cost)
    master.solve()
    if corrupt == "xb":
        master._xb[0] += 1
    elif corrupt == "adj":
        master._adj[0] = [x + 1 for x in master._adj[0]]
    else:
        master._det += 1
    with pytest.raises(SolverError):
        master._extract()
