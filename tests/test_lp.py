"""Configuration-LP column generation against independent references."""

import random
from fractions import Fraction

import pytest

from regret_route.core import (InfeasibleError, Instance, RootedPath,
                               SolverError)
from regret_route.harness import (brute_force_lp, brute_force_rvrp,
                                  gen_euclidean, gen_ladder, gen_line,
                                  gen_random_metric)
from regret_route.lp import (FractionalSolution, column_generation,
                             preprocess_fractional, solve_dvrp_lp,
                             solve_minsum_lp, solve_restricted_master,
                             solve_rvrp_lp)


def test_fractional_solution_bookkeeping():
    inst = gen_line([0, 1, 2])
    cols = [RootedPath.build(inst, [0, 1]), RootedPath.build(inst, [0, 1, 2])]
    sol = FractionalSolution.from_columns(
        inst, cols, [Fraction(1, 2), Fraction(1)], objective="count")
    assert sol.value == Fraction(3, 2)
    assert sol.total_weight == Fraction(3, 2)
    assert sol.coverage(1) == Fraction(3, 2)
    assert sol.coverage(2) == 1
    assert len(sol.support()) == 2
    sol.validate()


def test_ladder_lp_value_exact():
    sol = solve_rvrp_lp(gen_ladder(2), 1)
    assert sol.value == Fraction(3, 2)
    assert sol.certified
    sol.validate()
    assert solve_rvrp_lp(gen_ladder(3), 1).value == Fraction(5, 3)


def test_ladder_canonical_columns_reproduce_value():
    inst = gen_ladder(2)
    w = Fraction(*inst.meta["canonical_weight"])
    cols = [RootedPath.build(inst, p) for p in inst.meta["canonical_paths"]]
    assert all(p.regret == 1 for p in cols)
    sol = FractionalSolution.from_columns(
        inst, cols, [w] * len(cols), objective="count",
        column_bound=("regret", 1))
    sol.validate()
    assert sol.value == Fraction(3, 2)
    # column generation can only match or beat the canonical family
    assert solve_rvrp_lp(inst, 1).value <= sol.value


def test_rvrp_lp_matches_enumeration():
    rng = random.Random(0)
    for trial in range(15):
        n = rng.randint(4, 8)
        inst = (gen_random_metric(n, trial) if trial % 2
                else gen_euclidean(n, trial))
        maxd = max(inst.root_dist)
        R = rng.choice([0, 1, 2, maxd])
        got = solve_rvrp_lp(inst, R, exact_threshold=12)
        want = brute_force_lp(inst, R, kind="regret")
        assert abs(float(got.value) - want) < 1e-6
        got.validate()


def test_dvrp_lp_matches_enumeration():
    rng = random.Random(1)
    for trial in range(10):
        n = rng.randint(4, 8)
        inst = gen_random_metric(n, 100 + trial)
        cap = max(inst.root_dist) + rng.randint(0, 5)
        got = solve_dvrp_lp(inst, cap, exact_threshold=12)
        want = brute_force_lp(inst, cap, kind="length")
        assert abs(float(got.value) - want) < 1e-6
        for p, _ in got.support():
            assert p.cost <= cap


def test_lp_value_below_integral_optimum():
    for seed in range(8):
        inst = gen_random_metric(6, 40 + seed)
        R = 1 + seed % 3
        lp = solve_rvrp_lp(inst, R)
        opt = brute_force_rvrp(inst, R)
        assert lp.value <= opt


def test_rvrp_lp_infeasible_when_cap_excludes_nodes():
    inst = gen_line([0, 1, 5])
    with pytest.raises(InfeasibleError):
        solve_dvrp_lp(inst, 3)


def test_minsum_lp_respects_count_cap():
    inst = gen_ladder(2)
    sol = solve_minsum_lp(inst, 2)
    assert sol.objective == "regret"
    assert sol.total_weight <= 2
    sol.validate()
    # two zero-regret rails cover the ladder, so the optimum is 0
    assert sol.value == 0


def test_minsum_lp_single_path_forced():
    inst = gen_line([0, 1, 2, 4])
    sol = solve_minsum_lp(inst, 1)
    # one path must sweep the line; that can be done at zero regret
    assert sol.value == 0
    assert sol.total_weight <= 1


def test_restricted_master_on_fixed_columns():
    inst = gen_line([0, 1, 2])
    cols = [RootedPath.build(inst, [0, 1]),
            RootedPath.build(inst, [0, 2]),
            RootedPath.build(inst, [0, 1, 2])]
    sol = solve_restricted_master(inst, cols, objective="count")
    assert sol.value == 1
    assert sum(sol.weights) == 1
    # the combined column carries everything; duals certify it
    assert sum(sol.duals.values()) == 1


def test_preprocess_fractional_ends_at_farthest():
    inst = gen_random_metric(7, 77)
    sol = solve_rvrp_lp(inst, 2)
    star = preprocess_fractional(sol)
    star.validate()
    # duplicated tails can at most double the weight
    assert sol.value <= star.value <= 2 * sol.value
    D = inst.root_dist
    for p, _ in star.support():
        assert D[p.end] == max(D[v] for v in p.nodes)


def test_uncertified_above_exact_threshold():
    inst = gen_random_metric(8, 3)
    sol = solve_rvrp_lp(inst, 2, exact_threshold=4)
    assert not sol.certified
    sol.validate()              # coverage still holds, value just unproven
    exact = solve_rvrp_lp(inst, 2)
    assert sol.value >= exact.value


def test_column_generation_rejects_bad_objective():
    inst = gen_line([0, 1])
    with pytest.raises(ValueError):
        column_generation(inst, "speed")


def test_validate_raises_solver_error():
    inst = gen_line([0, 1, 2])
    cols = [RootedPath.build(inst, [0, 1]), RootedPath.build(inst, [0, 1, 2])]
    sol = FractionalSolution.from_columns(
        inst, cols, [Fraction(1), Fraction(1, 2)], objective="count")
    with pytest.raises(SolverError, match="client 2 under-covered"):
        sol.validate()
    sol = FractionalSolution.from_columns(inst, cols, [1, 1])
    sol.value = Fraction(1)
    with pytest.raises(SolverError):
        sol.validate()


def test_validate_survives_optimized_python(src_env):
    # Under -O every assert is compiled out; validate must still refuse.
    import subprocess
    import sys
    script = (
        "from fractions import Fraction\n"
        "from regret_route.core import RootedPath, SolverError\n"
        "from regret_route.harness import gen_line\n"
        "from regret_route.lp import FractionalSolution\n"
        "assert False, 'asserts are live'\n"
        "inst = gen_line([0, 1, 2])\n"
        "sol = FractionalSolution.from_columns(\n"
        "    inst, [RootedPath.build(inst, [0, 1])], [Fraction(1)])\n"
        "try:\n"
        "    sol.validate()\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "SolverError: client 2 under-covered"


def test_pivot_count_reaches_solution(monkeypatch):
    from regret_route import lp
    seen = []
    solve = lp.CoveringMaster.solve

    def spy(self):
        res = solve(self)
        seen.append(res.pivots)
        return res

    monkeypatch.setattr(lp.CoveringMaster, "solve", spy)
    sol = solve_rvrp_lp(gen_ladder(3), 1)
    assert sol.rounds == len(seen) > 1
    assert sol.pivots == seen[-1] > 0
