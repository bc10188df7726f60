"""Configuration-LP column generation against independent references."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import cg_reference
from oracle_reference import brute_force_lp
from regret_route.core import (InfeasibleError, Instance, RootedPath,
                               SolverError)
from regret_route.exactlp import CoveringMaster
from regret_route.harness import (brute_force_rvrp, gen_euclidean,
                                  gen_ladder, gen_line, gen_random_metric)
from regret_route.lp import (FractionalSolution, preprocess_fractional,
                             solve_dvrp_lp, solve_minsum_lp, solve_rvrp_lp)
from regret_route.pricing import PricedPath


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


def test_no_client_lps_are_empty_and_certified():
    # Column generation returns before pricing when there is no client.
    empty = Instance.from_matrix([[0]])
    for solve in (solve_rvrp_lp, solve_dvrp_lp, solve_minsum_lp):
        sol = solve(empty, 1)
        assert (sol.value, sol.certified, sol.columns) == (0, True, [])


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
    master = CoveringMaster(list(inst.clients))
    for p in cols:
        master.add_column(p.nodes[1:], 1)
    sol = master.solve()
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


def test_validate_refuses_a_malformed_solution():
    inst = gen_line([0, 1, 2])
    one, both = (RootedPath.build(inst, [0, 1]),
                 RootedPath.build(inst, [0, 1, 2]))
    for build, message in (
            (lambda: FractionalSolution.from_columns(inst, [both], [1]),
             None),
            (lambda: FractionalSolution(
                inst, [both], [Fraction(1), Fraction(1)], Fraction(1),
                "count", None, None, True), "1 columns but 2 weights"),
            (lambda: FractionalSolution.from_columns(
                inst, [both, one], [2, -1]), "negative column weight"),
            (lambda: FractionalSolution.from_columns(
                inst, [both], [1], column_bound=("length", 1)),
             r"column \(0, 1, 2\) breaks length<=1"),
            (lambda: FractionalSolution.from_columns(
                inst, [both, one], [1, 1], objective="regret", count_cap=1),
             "total weight 2 exceeds the count cap 1"),
            # weights over different denominators
            (lambda: FractionalSolution.from_columns(
                inst, [both, one], [Fraction(1, 2), Fraction(1, 3)]),
             "client 1 under-covered"),
            (lambda: FractionalSolution.from_columns(
                inst, [both, one], [Fraction(2, 3), Fraction(1, 2)]),
             "client 2 under-covered"),
            (lambda: FractionalSolution.from_columns(
                inst, [both, one], [Fraction(3, 2), Fraction(1, 3)],
                count_cap=1),
             "total weight 11/6 exceeds the count cap 1"),
            (lambda: FractionalSolution.from_columns(
                inst, [both, both], [Fraction(3, 4), Fraction(1, 4)],
                objective="regret", count_cap=1),
             None)):
        sol = build()
        if message is None:
            sol.validate()
            continue
        with pytest.raises(SolverError, match=f"^{message}"):
            sol.validate()


@pytest.mark.parametrize("solve, arg", [(solve_rvrp_lp, 3),
                                        (solve_minsum_lp, 2)])
def test_a_re_proposed_column_is_refused(monkeypatch, solve, arg):
    # At a master optimum no master column passes the admission test, so a
    # pricer that re-proposes one with a forged value is at fault, heuristic
    # or exact: the LP must not end there as if it were optimal.
    from regret_route import lp
    inst = gen_euclidean(6, 3)

    def forged(inst, rewards, budget_kind, budget=0):
        seed = RootedPath.build(inst, [inst.root, inst.clients[0]])
        return PricedPath(seed, Fraction(2 if budget_kind != "min_excess"
                                         else -10 ** 9))

    monkeypatch.setattr(lp, "heuristic_pricing", forged)
    with pytest.raises(SolverError, match="re-proposed a column already in "
                                          "the master"):
        solve(inst, arg, exact_threshold=2)


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


def test_a_rising_master_value_is_refused(monkeypatch):
    # Adding columns can only lower the restricted master's optimum, so a
    # second solve whose value is larger than the first is refused.
    from dataclasses import replace

    from regret_route import lp
    solve = lp.CoveringMaster.solve
    values = []

    def rising(self):
        res = solve(self)
        if values:
            res = replace(res, scaled_value=res.det * (values[0] + 1))
        values.append(res.value)
        return res

    monkeypatch.setattr(lp.CoveringMaster, "solve", rising)
    with pytest.raises(SolverError,
                       match="^restricted master value increased$"):
        solve_rvrp_lp(gen_ladder(3), 1)
    assert len(values) == 2


def test_duals_are_recomputed_once_per_solve(monkeypatch):
    # det * y is kept across pivots: c_B * adj is computed at the start
    # basis and once per solve for the certificate, never per pivot.
    from regret_route import exactlp
    calls = {"duals": 0, "solves": 0}
    duals_for = exactlp.CoveringMaster._duals_for
    solve = exactlp.CoveringMaster.solve

    def counting_duals(self, costs):
        calls["duals"] += 1
        return duals_for(self, costs)

    def counting_solve(self):
        calls["solves"] += 1
        return solve(self)

    monkeypatch.setattr(exactlp.CoveringMaster, "_duals_for", counting_duals)
    monkeypatch.setattr(exactlp.CoveringMaster, "solve", counting_solve)
    inst = gen_euclidean(21, 4)
    assert len(inst.clients) == 20
    sol = solve_rvrp_lp(inst, max(inst.root_dist) // 4)
    assert sol.rounds == calls["solves"] > 1
    assert sol.pivots > 2 * calls["solves"]
    assert calls["duals"] == calls["solves"] + 1


def test_round_cap_fires_on_an_endless_pricer(monkeypatch):
    # A pricer that proposes a new improving column every round must hit the
    # round cap, which is fixed from the seed columns. The stub gives up one
    # call past the cap, so a cap that never fires fails the test instead of
    # hanging it.
    from itertools import permutations

    from regret_route import lp
    inst = gen_euclidean(6, 3)
    clients = list(inst.clients)
    assert len(clients) == 5
    cap = max(200, 10 * inst.n * len(clients))
    fresh = (RootedPath.build(inst, [inst.root, *seq])
             for k in range(2, len(clients) + 1)
             for seq in permutations(clients, k))
    calls = []

    def endless(*args, **kwargs):
        calls.append(None)
        if len(calls) > cap + 1:
            raise RuntimeError("the round cap did not fire")
        return [PricedPath(next(fresh), Fraction(2))]

    monkeypatch.setattr(lp, "exact_orienteering", endless)
    with pytest.raises(SolverError, match="round cap"):
        solve_rvrp_lp(inst, max(inst.root_dist))
    assert len(calls) == cap


ORACLES = ("exact_orienteering", "exact_length_budget",
           "exact_min_excess_pricing", "heuristic_pricing")


@pytest.mark.parametrize("solve, scan, kind", [
    (solve_rvrp_lp, "exact_orienteering", "regret"),
    (solve_dvrp_lp, "exact_length_budget", "length"),
    (solve_minsum_lp, "exact_min_excess_pricing", "min_excess"),
])
@pytest.mark.parametrize("exact", [True, False])
def test_each_lp_binds_one_oracle(monkeypatch, solve, scan, kind, exact):
    # The oracle is chosen once per LP and serves every round; the table is
    # built only for a scan.
    from regret_route import lp
    inst = gen_random_metric(8, 3)
    calls = {name: [] for name in ORACLES}
    for name in ORACLES:
        def spy(*args, _name=name, _real=getattr(lp, name), **kwargs):
            calls[_name].append(kwargs)
            return _real(*args, **kwargs)
        monkeypatch.setattr(lp, name, spy)
    tables = []
    table_for = lp.table_for
    monkeypatch.setattr(lp, "table_for",
                        lambda *a: tables.append(a) or table_for(*a))
    maxd = max(inst.root_dist)
    arg = {"regret": maxd // 2, "length": 2 * maxd, "min_excess": 2}[kind]
    sol = solve(inst, arg, **({} if exact else {"exact_threshold": 4}))
    oracle = scan if exact else "heuristic_pricing"
    assert [name for name in ORACLES if calls[name]] == [oracle]
    assert len(calls[oracle]) == sol.rounds > 1
    if not exact:
        assert {kw["budget_kind"] for kw in calls[oracle]} == {kind}
    assert len(tables) == int(exact)
    assert sol.certified == exact


@pytest.mark.parametrize("solve, arg", [
    (solve_rvrp_lp, lambda maxd: maxd // 2),
    (solve_dvrp_lp, lambda maxd: 2 * maxd),
    (solve_minsum_lp, lambda maxd: 2),
], ids=["rvrp", "dvrp", "minsum"])
def test_several_columns_per_round_keep_the_lp_value(monkeypatch, solve, arg):
    # Admitting a scan's improving columns together reaches the one-column
    # run's optimum in no more rounds. With one column per round every
    # round but the last admits one, which fixes the seed count; some
    # round of the default run must admit more than one.
    from regret_route import pricing
    for nodes, seed in ((9, 4), (13, 5), (13, 6)):
        inst = gen_euclidean(nodes, seed)
        x = arg(max(inst.root_dist))
        with monkeypatch.context() as patch:
            patch.setattr(pricing, "COLUMNS_PER_ROUND", 1)
            one = solve(inst, x)
        seeds = len(one.columns) - (one.rounds - 1)
        sol = solve(inst, x)
        assert sol.certified and one.certified
        assert sol.value == one.value
        assert sol.rounds <= one.rounds
        assert len(sol.columns) - seeds > sol.rounds - 1


def assert_matches_reference(sol, inst, column_bound, **kwargs):
    ref = cg_reference.column_generation(inst, column_bound, **kwargs)
    assert (sol.value, sol.certified) == (ref.value, ref.certified)
    return ref


def test_guided_count_lps_match_the_unguided_reference():
    # The regret and length LPs price only the maximal client sets, the
    # reference every feasible one; both certify the same optimum. The
    # column counts must differ somewhere, or the maximal pricer is not in
    # use.
    rng = random.Random(7)
    moved = 0
    for trial in range(12):
        n = rng.randint(7, 13)
        inst = (gen_random_metric(n, 300 + trial) if trial % 2
                else gen_euclidean(n, 300 + trial))
        maxd = max(inst.root_dist)
        for R in (0, maxd // 4, maxd // 2, maxd):
            sol = solve_rvrp_lp(inst, R)
            ref = assert_matches_reference(sol, inst, ("regret", R))
            moved += len(sol.columns) != len(ref.columns)
        for D in (maxd, maxd + maxd // 2, 2 * maxd):
            sol = solve_dvrp_lp(inst, D)
            ref = assert_matches_reference(sol, inst, ("length", D))
            moved += len(sol.columns) != len(ref.columns)
    assert moved


def test_fanout_14_count_lps_match_the_unguided_reference(monkeypatch):
    # Every count LP of one pass over the benchmark's fanout-14 workload at
    # seeds 1 and 2: dvrp-dp's sub-solves, dvrp-lp and its parts, mult's
    # rings and nonuniform's classes. Some LP must end with another column
    # count than the reference's.
    from regret_route import lp
    from regret_route.harness import run_solver
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    checked, moved = [], []
    real = lp.column_generation

    def checking(inst, column_bound=None, **kwargs):
        sol = real(inst, column_bound, **kwargs)
        assert column_bound is not None and sol.certified
        ref = assert_matches_reference(sol, inst, column_bound, **kwargs)
        checked.append(column_bound[0])
        moved.append(len(sol.columns) != len(ref.columns))
        return sol

    monkeypatch.setattr(lp, "column_generation", checking)
    for seed in (1, 2):
        for job in workloads.build("fanout-14", seed):
            run_solver(job["solver"], job["instance"], job["params"])
    assert len(checked) > 100 and set(checked) == {"regret", "length"}
    assert any(moved)
