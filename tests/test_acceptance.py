"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints one PASS line with the measured numbers (shown with
``pytest -rP`` or on failure); under ``pytest -v`` the test name itself
is the per-criterion pass/fail line.  Tolerances are pinned here and
nowhere else: 1e-6 for LP value comparisons, 1e-9 slack against the
irrational count factor, exact integer/rational arithmetic everywhere
else.
"""

import math
import time
from fractions import Fraction

import pytest

from regret_route.core import Instance, RootedPath
from regret_route.harness import (
    brute_force_dvrp,
    brute_force_krvrp,
    brute_force_lp,
    brute_force_rvrp,
    gen_euclidean,
    gen_ladder,
    gen_random_metric,
    verify,
)
from regret_route.core import (classify_edges, farthest_node,
                               preprocess_path_pair, regret_distance,
                               split_by_regret)
from regret_route.lp import solve_rvrp_lp
from regret_route.reductions import (
    solve_dvrp_dp,
    solve_dvrp_lp_round,
    solve_krvrp_minmax,
    solve_multiplicative,
    solve_rvrp,
)

COUNT_FACTOR = 8 + 4 * math.sqrt(3)
LP_TOL = 1e-6
FACTOR_SLACK = 1e-9


def mixed_instance(n: int, seed: int) -> Instance:
    return (gen_random_metric(n, seed) if seed % 2 == 0
            else gen_euclidean(n, seed))


# --- criterion 1: fractional/integral gap on the ladder family ---------------

def test_criterion_1_ladder_lp_gap():
    started = time.monotonic()
    lp_values = {}
    for h in (2, 3):
        sol = solve_rvrp_lp(gen_ladder(h), 1)
        assert sol.certified
        assert abs(float(sol.value) - (2 - 1 / h)) <= LP_TOL, (h, sol.value)
        lp_values[h] = sol.value
    opt2 = brute_force_rvrp(gen_ladder(2), 1)
    assert opt2 == 2
    opt3 = brute_force_rvrp(gen_ladder(3), 1)   # computed, not assumed
    assert lp_values[3] <= opt3                  # gap never inverts
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"{elapsed:.1f}s"
    print(f"criterion 1 PASS: ladder LP 3/2 and 5/3 (tol {LP_TOL}), "
          f"integral optima {opt2} and {opt3}, {elapsed:.2f}s")


# --- criteria 2+3: one 200-run batch shared by both ---------------------------

@pytest.fixture(scope="module")
def rvrp_batch():
    runs = []
    started = time.monotonic()
    for i in range(200):
        n = 5 + i % 9                 # 4..12 clients
        inst = mixed_instance(n, 8000 + i)
        maxd = max(inst.root_dist)
        R = (1, 2, max(1, maxd // 2), maxd, 2 * maxd)[i % 5]
        diag: dict = {}
        paths = solve_rvrp(inst, R, diagnostics=diag)
        report = verify(inst, paths, "rvrp", {"regret": R})
        runs.append({"inst": inst, "R": R, "paths": paths,
                     "diag": diag, "report": report})
    return runs, time.monotonic() - started


def test_criterion_2_rounding_count_factor(rvrp_batch):
    runs, elapsed = rvrp_batch
    assert len(runs) >= 200
    worst = 0.0
    for run in runs:
        assert run["report"]["ok"], run["report"]["failures"]
        bound = COUNT_FACTOR * run["diag"]["lp_value"] + 1
        count = len(run["paths"])
        assert count <= bound + FACTOR_SLACK, (count, bound)
        worst = max(worst, count / bound)
    assert elapsed < 300, f"{elapsed:.1f}s"
    print(f"criterion 2 PASS: {len(runs)} runs feasible, count <= "
          f"{COUNT_FACTOR:.4f}*LP+1 (worst fill {worst:.3f}), "
          f"{elapsed:.1f}s")


def test_criterion_3_stage_bounds(rvrp_batch):
    runs, _ = rvrp_batch
    with_witnesses = 0
    for run in runs:
        checks = run["diag"]["bound_checks"]
        assert checks["forest_cost_vs_regret_budget"]["ok"]
        assert checks["grafted_regret_vs_support"]["ok"]
        if "witness_inflow" in checks:
            with_witnesses += 1
            assert checks["witness_inflow"]["ok"]
            assert run["diag"]["support_acyclic"] is True
    # the digraph stage must actually be exercised, not vacuously skipped
    assert with_witnesses >= len(runs) // 2
    print(f"criterion 3 PASS: forest cost, grafted regret, acyclicity and "
          f"witness in-flow bounds hold on all {len(runs)} runs "
          f"({with_witnesses} with witnesses)")


# --- criterion 4: column generation vs full enumeration ------------------------

def test_criterion_4_lp_oracle_equivalence():
    worst_gap = 0.0
    for i in range(100):
        n = 5 + i % 5                 # 4..8 clients
        inst = mixed_instance(n, 9000 + i)
        maxd = max(inst.root_dist)
        R = (0, 1, 2, max(1, maxd // 2), maxd)[i % 5]
        sol = solve_rvrp_lp(inst, R)
        ref = brute_force_lp(inst, R, "regret")
        gap = abs(float(sol.value) - ref)
        assert gap <= LP_TOL, (i, sol.value, ref)
        worst_gap = max(worst_gap, gap)
        opt = brute_force_rvrp(inst, R)
        assert sol.value <= opt       # exact rational vs exact integer
    print(f"criterion 4 PASS: 100 instances, column generation matches "
          f"enumeration (worst gap {worst_gap:.2e}), LP <= integral OPT")


# --- criterion 5: distance caps, both routes ------------------------------------

def test_criterion_5_distance_cap_routes():
    worst_ratio = 0.0
    worst_parts = 0.0
    for i in range(60):
        n = 5 + i % 7                 # 4..10 clients
        inst = mixed_instance(n, 10_000 + i)
        cap = max(2, max(inst.root_dist) + i % 3)

        dp_paths = solve_dvrp_dp(inst, cap)
        report = verify(inst, dp_paths, "dvrp", {"dist": cap})
        assert report["ok"], report["failures"]
        opt = brute_force_dvrp(inst, cap)
        ratio = len(dp_paths) / opt
        ceiling = 16 * (cap - 1).bit_length()
        assert ratio <= ceiling, (i, ratio, ceiling)
        worst_ratio = max(worst_ratio, ratio)

        diag: dict = {}
        lp_paths = solve_dvrp_lp_round(inst, cap, diagnostics=diag)
        report = verify(inst, lp_paths, "dvrp", {"dist": cap})
        assert report["ok"], report["failures"]
        parts = len(diag["parts"])
        assert parts < 3 * diag["support_weight"] + 1e-6, (i, diag)
        worst_parts = max(worst_parts, parts / diag["lp_value"])
    print(f"criterion 5 PASS: 60 capped runs, both routes verifier-clean; "
          f"count/OPT <= {worst_ratio:.2f} (ceiling 16*ceil(log2 D)); "
          f"parts < 3*support weight (max parts/LP {worst_parts:.2f})")


# --- criterion 6: multiplicative visit times, exact arithmetic -------------------

def test_criterion_6_multiplicative_visits():
    ratios = (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(4))
    for i in range(100):
        n = 5 + i % 6
        inst = mixed_instance(n, 11_000 + i)
        ratio = ratios[i % 4]
        walks = solve_multiplicative(inst, ratio)
        report = verify(inst, walks, "multiplicative", {"ratio": ratio})
        assert report["ok"], report["failures"]
        # independent exact check straight off the matrix
        first_visit: dict = {}
        for walk in walks:
            cost = 0
            for u, v in zip(walk.nodes, walk.nodes[1:]):
                cost += inst.dist[u][v]
                if v not in first_visit:
                    first_visit[v] = cost
        for v in inst.clients:
            assert Fraction(first_visit[v]) <= ratio * inst.root_dist[v]
    print("criterion 6 PASS: 100 instances x ratios {5/4, 3/2, 2, 4}, every "
          "first visit within ratio * root distance, exact arithmetic")


# --- criterion 7: k-path covers ----------------------------------------------------

def test_criterion_7_minsum_k_paths():
    logged = []
    zero_opt = 0
    for i in range(60):
        n = 5 + i % 6                 # 4..9 clients
        k = 1 + i % 3
        inst = mixed_instance(n, 12_000 + i)
        diag: dict = {}
        paths = solve_krvrp_minmax(inst, k, diagnostics=diag)
        worst = max(p.regret for p in paths)
        assert len(paths) <= k
        covered = set().union(*(p.node_set for p in paths))
        assert covered >= set(inst.clients)
        assert diag["bound_checks"]["total_regret_vs_fractional"]["ok"]
        opt = brute_force_krvrp(inst, k)
        assert worst >= opt           # the oracle is exact
        if opt > 0:
            logged.append(worst / opt)
        else:
            zero_opt += 1
    top = max(logged) if logged else 0.0
    print(f"criterion 7 PASS: 60 runs, <= k paths with bounded total "
          f"regret; min-max ratio logged on {len(logged)} runs "
          f"(max {top:.2f}; {zero_opt} runs had optimum 0)")


# --- criterion 8: randomized property suites ----------------------------------------

def random_rooted_path(inst: Instance, seed: int) -> RootedPath:
    import random
    rng = random.Random(seed)
    clients = list(inst.clients)
    rng.shuffle(clients)
    take = rng.randint(1, len(clients))
    return RootedPath.build(inst, [inst.root] + clients[:take])


def test_criterion_8_property_suites():
    started = time.monotonic()
    cases = 1000

    for case in range(cases):        # regret distances form a quasi-metric
        inst = mixed_instance(4 + case % 5, 13_000 + case)
        nodes = range(inst.n)
        for u in nodes:
            assert regret_distance(inst, u, u) == 0
            for v in nodes:
                assert regret_distance(inst, u, v) >= 0
                for w in nodes:
                    assert (regret_distance(inst, u, w) <=
                            regret_distance(inst, u, v)
                            + regret_distance(inst, v, w))
        p = random_rooted_path(inst, case)
        edges = sum(regret_distance(inst, u, v)
                    for u, v in zip(p.nodes, p.nodes[1:]))
        assert edges == p.cost - inst.root_dist[p.end] == p.regret

    for case in range(cases):        # red edges are chargeable to regret
        inst = mixed_instance(5 + case % 5, 14_000 + case)
        p = random_rooted_path(inst, case)
        coloring = classify_edges(inst, p)
        assert 2 * coloring.red_cost(inst) <= 3 * p.regret

    for case in range(cases):        # splitting respects budget and coverage
        inst = mixed_instance(5 + case % 5, 15_000 + case)
        p = random_rooted_path(inst, case)
        R = 1 + case % 7
        pieces = split_by_regret(inst, p, R)
        assert len(pieces) <= max(-(-p.regret // R), 1)
        assert all(piece.regret <= R for piece in pieces)
        assert set().union(*(x.node_set for x in pieces)) == p.node_set

    for case in range(cases):        # pair split pivots on the farthest node
        inst = mixed_instance(5 + case % 5, 16_000 + case)
        p = random_rooted_path(inst, case)
        far = farthest_node(inst, p)
        first, second = preprocess_path_pair(inst, p)
        assert first.end == second.end == far
        assert first.node_set | second.node_set == p.node_set | {inst.root}
        assert max(first.cost, second.cost) <= p.cost
        assert max(first.regret, second.regret) <= p.regret

    elapsed = time.monotonic() - started
    assert elapsed < 30, f"{elapsed:.1f}s"
    print(f"criterion 8 PASS: 4 property suites x {cases} cases, zero "
          f"failures, {elapsed:.1f}s")
