"""Held-Karp subset tables and the pricing oracles built on them."""

import itertools
import random
import tracemalloc
import weakref
from collections import namedtuple
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import heuristic_reference
import hk_reference
from regret_route import pricing
from regret_route.core import (INF, Instance, RootedPath, SolverError,
                               induced_instance, metric_from_edges)
from regret_route.harness import gen_euclidean, gen_random_metric
from regret_route.pricing import (
    DEFAULT_EXACT_THRESHOLD,
    HKTable,
    OracleUnavailableError,
    check_exact_threshold,
    exact_length_budget,
    exact_min_excess_pricing,
    exact_orienteering,
    heuristic_pricing,
    table_for,
)


def ints(inst, rewards):
    """Fraction rewards by client id in the pricers' integer form."""
    return hk_reference.scaled_rewards(list(inst.clients), rewards)


def priced(columns):
    return [(p.path.nodes, p.value) for p in columns]


# The path-rebuilding reference reads Fraction rewards by client id.
FractionQuery = namedtuple("FractionQuery", "rewards budget_kind budget",
                           defaults=(0,))


def line_instance(positions=(0, 1, 2, 4)):
    return Instance.from_matrix(
        [[abs(a - b) for b in positions] for a in positions])


def random_instance(n, seed):
    rng = random.Random(seed)
    edges = [(u, v, rng.randint(1, 30))
             for u in range(n) for v in range(u + 1, n)]
    return Instance.from_matrix(metric_from_edges(n, edges))


def assert_folds_match_enumeration(table):
    """Every nonempty mask's folds are the least regret and length over
    every ordering of its clients, its ends the smallest last client among
    the orderings that reach them, and the paths drawn from those ends
    reach them."""
    inst, clients = table.inst, table.clients
    for mask in range(1, 1 << table.m):
        perms = [RootedPath.build(inst, (inst.root,) + perm)
                 for perm in itertools.permutations(
                     v for i, v in enumerate(clients) if mask >> i & 1)]
        for fold, ends, key in ((table.min_regret, table.regret_end,
                                 lambda p: p.regret),
                                (table.min_length, table.length_end,
                                 lambda p: p.cost)):
            least = min(map(key, perms))
            end = min(clients.index(p.nodes[-1])
                      for p in perms if key(p) == least)
            assert (fold[mask], ends[mask]) == (least, end)
            assert key(table.path_for(mask, end)) == least


def test_table_matches_enumeration():
    assert_folds_match_enumeration(HKTable(random_instance(6, 17)))


def test_table_path_reconstruction():
    inst = line_instance()
    table = HKTable(inst)
    full = (1 << 3) - 1
    assert table.min_regret[full] == 0
    p = table.path_for(full, int(table.regret_end[full]))
    assert p.nodes == (0, 1, 2, 3)
    assert p.regret == table.min_regret[full]
    q = table.path_for(full, int(table.length_end[full]))
    assert q.cost == table.min_length[full]
    # the empty mask has no path
    assert (table.regret_end[0], table.length_end[0]) == (-1, -1)


@pytest.mark.parametrize("kind", ["regret", "length", "min_excess"])
def test_a_path_drawn_off_its_fold_is_refused(kind):
    # Clients at 1, 2 and 4 on a line: the whole line's least regret is 0
    # and its least length 4, both reached only by ending at client 3. A
    # table whose end at the full mask says client 1 draws a longer path,
    # and each scan refuses it, also under python -O.
    table = HKTable(line_instance())
    full = 0b111
    measure = "length" if kind == "length" else "regret"
    ends = table.length_end if kind == "length" else table.regret_end
    assert ends[full] == 2
    ends[full] = 0
    least = 4 if kind == "length" else 0
    with pytest.raises(SolverError, match=rf"drawn for mask {full} does not "
                                          rf"have its least {measure} "
                                          rf"{least}$"):
        if kind == "min_excess":
            exact_min_excess_pricing(table, ([2, 2, 2], 1))
        else:
            (exact_length_budget if kind == "length" else exact_orienteering)(
                table, ([1, 1, 1], 1), least)


def test_path_for_and_scan_plan_refuse_what_they_cannot_serve():
    table = HKTable(gen_euclidean(7, 3))
    m = table.m
    for mask, end in ((0b11, 4), (0b11, -1), (0b11, m), (1 << m - 1, 0)):
        with pytest.raises(ValueError, match=f"end {end} is not in mask "
                                             f"{mask}"):
            table.path_for(mask, end)
    for mask in (0, -1, 1 << m, (1 << m) + 1):
        with pytest.raises(ValueError, match=rf"mask {mask} is outside "
                                             rf"\[1, 2\^{m}\)"):
            table.path_for(mask, 0)
    # a bounded query is by regret or by length, nothing else
    for kind in ("bogus", "min_excess", "Regret"):
        with pytest.raises(ValueError, match=f"unknown budget kind '{kind}'"):
            pricing.ScanPlan(table, kind, 10 ** 6)
    # the edges of the range are served
    full = (1 << m) - 1
    assert table.path_for(1, 0).nodes == (table.inst.root, table.clients[0])
    end = int(table.regret_end[full])
    assert len(table.path_for(full, end).nodes) == m + 1


def test_table_threshold_refusal():
    inst = random_instance(6, 1)
    with pytest.raises(OracleUnavailableError):
        HKTable(inst, threshold=4)


def test_threshold_over_memory_budget_is_refused():
    check_exact_threshold(DEFAULT_EXACT_THRESHOLD)
    # Only the estimate is checked: a 2^40-mask table is never allocated.
    with pytest.raises(ValueError):
        check_exact_threshold(40)
    with pytest.raises(ValueError):
        HKTable(line_instance(), threshold=40)


# --- the one held table -------------------------------------------------------

def test_rvrp_then_krvrp_build_one_table(hk_builds):
    from regret_route.reductions import solve_krvrp_minmax, solve_rvrp
    inst = gen_euclidean(10, 5)
    solve_rvrp(inst, max(inst.root_dist) // 2)
    solve_krvrp_minmax(inst, 2)
    assert hk_builds == [inst]


def test_equal_instance_hits_and_another_drops_the_old_table_first(
        hk_builds, monkeypatch):
    inst = gen_euclidean(8, 3)
    held = weakref.ref(table_for(inst))
    # Instance compares by identity; the key is the metric and the root.
    copy = Instance.from_matrix([list(row) for row in inst.dist])
    induced, _ = induced_instance(inst, inst.clients)
    assert table_for(copy) is held() and table_for(induced) is held()
    assert hk_builds == [inst]

    dead_at_build = []
    counting = HKTable.__init__

    def watching(self, *args, **kwargs):
        dead_at_build.append(held() is None)
        counting(self, *args, **kwargs)

    monkeypatch.setattr(HKTable, "__init__", watching)
    rerooted = Instance.from_matrix(inst.dist, root=1)
    assert table_for(rerooted).inst is rerooted
    assert dead_at_build == [True] and len(hk_builds) == 2
    assert table_for(gen_euclidean(8, 4)) is not None
    assert dead_at_build == [True, True] and len(hk_builds) == 3


def test_a_hit_still_checks_the_threshold(hk_builds):
    from regret_route.harness import brute_force_rvrp
    from regret_route.reductions import solve_rvrp
    inst = gen_euclidean(15, 2)                     # 14 clients
    R = max(inst.root_dist) // 2
    solve_rvrp(inst, R)
    held = table_for(inst)
    with pytest.raises(ValueError, match="budget"):
        table_for(inst, 21)
    with pytest.raises(OracleUnavailableError):
        table_for(inst, 13)
    with pytest.raises(OracleUnavailableError):
        brute_force_rvrp(inst, R, exact_threshold=12)
    # a refused request keeps the held table
    assert table_for(inst) is held and hk_builds == [inst]


def test_oracle_and_next_solver_reuse_the_table(hk_builds):
    from regret_route.harness import run_job
    from regret_route.reductions import solve_dvrp_dp, solve_dvrp_lp_round
    inst = gen_euclidean(9, 8)
    report = run_job({"id": "reuse", "solver": "rvrp", "instance": inst,
                      "params": {"regret": max(inst.root_dist) // 2},
                      "oracle": True})
    assert report["oracle"] is not None and hk_builds == [inst]
    # dvrp-dp's top level solves an induced copy of every client (after
    # its lower levels evicted inst's table), which dvrp-lp then prices on
    def full_builds():
        return sum(len(t.clients) == len(inst.clients) for t in hk_builds)

    cap = max(inst.root_dist) + 20
    solve_dvrp_dp(inst, cap)
    assert full_builds() == 2
    solve_dvrp_lp_round(inst, cap)
    assert full_builds() == 2


def test_one_lp_builds_one_plan_and_a_new_budget_replaces_it(plan_builds):
    from regret_route.lp import solve_dvrp_lp, solve_rvrp_lp
    inst = gen_euclidean(11, 3)
    R = max(inst.root_dist) // 2
    sol = solve_rvrp_lp(inst, R)
    assert sol.rounds > 1 and plan_builds == [("regret", R)]
    plan = table_for(inst).plan
    solve_rvrp_lp(inst, R)                  # the held plan serves a rerun
    assert plan_builds == [("regret", R)] and table_for(inst).plan is plan
    # each run at a new budget builds one plan, which replaces the held one
    cap = max(inst.root_dist) + 30
    solve_rvrp_lp(inst, R + 1)
    solve_dvrp_lp(inst, cap)
    assert plan_builds == [("regret", R), ("regret", R + 1), ("length", cap)]
    held = table_for(inst).plan
    assert (held.kind, held.budget) == ("length", cap)


# --- vectorised table vs. the pure-Python reference -------------------------

def reference_layout(table):
    """The table's arrays as the reference's lists: the parents mask-major
    and the folds INF at the empty mask."""
    return (table.parent.T.tolist(), [INF] + table.min_regret.tolist()[1:],
            [INF] + table.min_length.tolist()[1:], table.regret_end.tolist(),
            table.length_end.tolist())


def assert_same_table(table, ref):
    """The same parents, folds and ends as the reference."""
    assert reference_layout(table) == (ref.parent, ref.min_regret,
                                       ref.min_length, ref.regret_end,
                                       ref.length_end)


def assert_same_pricing(inst, table, ref, rewards, budget):
    # Each scan returns the reference ranking of the improving columns, or
    # the trivial path alone when there is none. The min-excess scan's first
    # column is the reference's single answer; a bounded scan's first value
    # is the best over every feasible mask, reached by a maximal one.
    query = ints(inst, rewards)
    cases = [
        (exact_orienteering(table, query, budget),
         hk_reference.ranking(ref, rewards, "regret", budget),
         hk_reference.orienteering(ref, rewards, budget)),
        (exact_length_budget(table, query, budget),
         hk_reference.ranking(ref, rewards, "length", budget),
         hk_reference.length_budget(ref, rewards, budget)),
        (exact_min_excess_pricing(table, query),
         hk_reference.ranking(ref, rewards, "min_excess"),
         hk_reference.min_excess(ref, rewards)),
    ]
    for got, ranked, want in cases:
        assert priced(got) == priced(ranked or [want])
        assert got[0].value == want.value
        assert all(type(p.value.numerator) is int for p in got)
    got, _, want = cases[2]
    assert got[0].path.nodes == want.path.nodes


def reward_draws(inst, rng, scale):
    clients = list(inst.clients)
    yield {}
    yield {v: Fraction(scale) for v in clients}      # every subset ties
    for _ in range(4):
        yield {v: Fraction(rng.randint(0, 9 * scale), rng.randint(1, 3))
               for v in clients if rng.random() < 0.8}


def cross_check(inst, rng, budgets, scale=1):
    table = HKTable(inst)
    ref = hk_reference.ReferenceTable(inst)
    assert_same_table(table, ref)
    assert table.regret_bound == max([1] + list(map(abs, ref.min_regret[1:])))
    for rewards in reward_draws(inst, rng, scale):
        for budget in budgets:
            assert_same_pricing(inst, table, ref, rewards, budget)
    return table


def test_table_and_pricers_match_reference_on_random_metrics():
    rng = random.Random(11)
    cross_check(Instance.from_matrix([[0]]), rng, (0, 5))
    for m in range(1, 13):
        for inst in (gen_euclidean(m + 1, 500 + m),
                     gen_random_metric(m + 1, 600 + m)):
            top = max(map(max, inst.dist))
            cross_check(inst, rng, (0, rng.randint(1, top), 3 * top))


def test_table_and_pricers_match_reference_on_tied_lines():
    rng = random.Random(12)
    for positions in ((0, 1, 2, 4), (0, -2, -1, 1, 2, 3),
                      (0, 2, 4, 6, 8, 10, 12, 14), (0, -3, -2, -1, 1, 2, 3)):
        cross_check(line_instance(positions), rng, (0, 1, 2, 4, 30))
    uniform = Instance.from_matrix(
        [[0 if i == j else 1 for j in range(9)] for i in range(9)])
    cross_check(uniform, rng, (0, 1, 3, 8))


# --- scan plans vs. the dense bounded scan -----------------------------------

def sparse_draws(m, rng):
    """Rewards on m clients, at least half of them zero in each draw: random
    values, one value shared by every nonzero client (every set of a size
    ties), that value on the lower half of the clients and twice it on the
    upper half (a set of fewer nodes ties with a smaller mask), and the
    first two shifted past 2^62 so their sums take the object path."""
    zero = set(rng.sample(range(m), (m + 1) // 2))
    tie = rng.randint(1, 40)
    draws = [[0 if i in zero else rng.randint(1, 40) for i in range(m)],
             [0 if i in zero else tie for i in range(m)],
             [0 if i in zero else tie << (2 * i >= m) for i in range(m)]]
    draws += [[x << 62 for x in nums] for nums in draws[:2]]
    return [(nums, rng.randint(1, 5)) for nums in draws]


def test_scan_plans_match_the_dense_scan_at_every_budget():
    # At every budget a bounded scan's first value is the dense scan's best
    # over every feasible mask, its columns are the reference ranking of
    # the maximal masks, and the held plan holds those masks and their
    # client rows.
    rng = random.Random(14)
    for m in (1, 2, 5, 8, 12):
        for inst in (gen_euclidean(m + 1, 900 + m),
                     gen_random_metric(m + 1, 950 + m)):
            table = HKTable(inst)
            ref = hk_reference.ReferenceTable(inst)
            draws = sparse_draws(m, rng)
            assert [pricing._sum_dtype(sum(nums), np) is object
                    for nums, _ in draws] == [False] * 3 + [m > 1] * 2
            for kind, scan in (("regret", exact_orienteering),
                               ("length", exact_length_budget)):
                values = (table.min_regret if kind == "regret"
                          else table.min_length)
                ref_values = (ref.min_regret if kind == "regret"
                              else ref.min_length)
                for budget in range(int(values[1:].max()) + 1):
                    for nums, den in draws:
                        got = scan(table, (nums, den), budget)
                        want = hk_reference.dense_ranking(
                            table, (nums, den), budget, kind)[0]
                        assert got[0].value == want.value
                        rewards = {v: Fraction(x, den)
                                   for v, x in zip(inst.clients, nums)}
                        assert priced(got) == priced(hk_reference.ranking(
                            ref, rewards, kind, budget) or [want])
                    plan = table.plan
                    assert (plan.kind, plan.budget) == (kind, budget)
                    assert plan.masks.dtype == np.intp
                    masks = hk_reference.maximal_masks(ref_values, budget, m)
                    assert plan.masks.tolist() == masks
                    assert plan.rows.tolist() == [
                        [mask >> j & 1 for j in range(m)] for mask in masks]


def test_scan_plans_around_the_transposed_passes():
    # The passes for the six lowest client bits run on a transposed copy:
    # up to six clients every pass does, at seven one pass does not.  At
    # every budget the plan holds the reference table's maximal masks.
    for m in (4, 6, 7):
        for inst in (gen_euclidean(m + 1, 60 + m),
                     gen_random_metric(m + 1, 70 + m)):
            table = HKTable(inst)
            ref = hk_reference.ReferenceTable(inst)
            for kind in ("regret", "length"):
                values = (ref.min_regret if kind == "regret"
                          else ref.min_length)
                for budget in sorted(set(values[1:])):
                    plan = pricing.ScanPlan(table, kind, budget)
                    assert plan.masks.tolist() == \
                        hk_reference.maximal_masks(values, budget, m)


def simple_path_optima(inst):
    """{mask: (least regret, least length)} over every simple rooted path,
    enumerated depth first, with no pruning."""
    clients, dist, D = inst.clients, inst.dist, inst.root_dist
    best = {}

    def extend(u, mask, cost):
        for i, v in enumerate(clients):
            if mask >> i & 1:
                continue
            new, key = cost + dist[u][v], mask | 1 << i
            regret, length = best.get(key, (INF, INF))
            best[key] = (min(regret, new - D[v]), min(length, new))
            extend(v, key, new)

    extend(inst.root, 0, 0)
    return best


def test_scan_plans_hold_the_maximal_sets_of_an_enumeration():
    # A plan's masks are the node sets within budget that no other set
    # within budget contains, in (popcount, mask) order, and every set
    # within budget lies inside one of them.
    def order(mask):
        return bin(mask).count("1"), mask

    for m in (1, 2, 5, 7, 9):
        for inst in (gen_euclidean(m + 1, 40 + m),
                     gen_random_metric(m + 1, 80 + m)):
            table = HKTable(inst)
            optima = simple_path_optima(inst)
            maxd = max(inst.root_dist)
            above = max(length for _, length in optima.values()) + 1
            for budget in (0, maxd // 4, maxd // 2, maxd, above):
                for k, kind in enumerate(("regret", "length")):
                    feasible = [mask for mask, value in optima.items()
                                if value[k] <= budget]
                    maximal = sorted(
                        (mask for mask in feasible
                         if not any(other != mask and other & mask == mask
                                    for other in feasible)), key=order)
                    plan = pricing.ScanPlan(table, kind, budget)
                    masks = plan.masks.tolist()
                    assert masks == maximal
                    assert masks == sorted(masks, key=order)
                    assert all(any(mask & top == mask for top in masks)
                               for mask in feasible)
                    if budget == above:
                        assert masks == [(1 << m) - 1]
    # the empty mask is never priced, even at a budget over the sentinel
    # that its unreached least regret and length hold
    lone = HKTable(Instance.from_matrix([[0]]))
    for kind in ("regret", "length"):
        assert pricing.ScanPlan(lone, kind, 1 << 70).masks.tolist() == []


def test_sixteen_client_table_matches_reference():
    inst = gen_euclidean(17, 7)
    assert_same_table(HKTable(inst), hk_reference.ReferenceTable(inst))


@pytest.mark.parametrize("den", [(1 << 40) - 87, (1 << 70) - 35])
def test_huge_denominators_take_the_object_path(den):
    inst = gen_euclidean(9, 5)
    rng = random.Random(den)
    table = HKTable(inst)
    ref = hk_reference.ReferenceTable(inst)
    for _ in range(6):
        # Three near-coprime denominators: the scale is about den^3.
        rewards = {v: Fraction(rng.randint(0, 60 * den), den - rng.randint(0, 2))
                   for v in inst.clients}
        nums, _ = hk_reference.scaled_rewards(ref.clients, rewards)
        assert sum(nums) >= 1 << 62
        for budget in (0, 20, 80, 400):
            assert_same_pricing(inst, table, ref, rewards, budget)


def scaled(inst, factor):
    return Instance.from_matrix([[d * factor for d in row] for row in inst.dist])


def key_dtype(inst):
    return pricing._key_dtype(len(inst.clients), max(map(max, inst.dist)),
                              np)[0]


def test_wide_edges_take_int64_costs():
    inst = scaled(gen_random_metric(9, 8), 1 << 27)
    table = cross_check(inst, random.Random(13),
                        (0, 5 << 27, 40 << 27, 1 << 40), scale=1 << 27)
    assert key_dtype(inst) == table.min_regret.dtype == np.int64


TABLE_ARRAYS = ("parent", "min_regret", "min_length", "regret_end",
                "length_end", "popcount")


def assert_same_arrays(table, ref):
    """The table's arrays equal the dense reference's, whose parent is
    mask-major, so the table's end-major one is compared with its
    transpose."""
    for name in TABLE_ARRAYS:
        got, want = getattr(table, name), getattr(ref, name)
        if name == "parent":
            want = want.T
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(got, want), name


def test_sixteen_client_tables_match_the_dense_reference():
    for seed in range(1, 6):
        inst = gen_euclidean(17, seed)
        assert key_dtype(inst) == np.uint16
        assert_same_arrays(HKTable(inst),
                           hk_reference.DenseReferenceTable(inst))
    inst = scaled(gen_euclidean(17, 7), 1 << 27)
    assert key_dtype(inst) == np.int64
    assert_same_arrays(HKTable(inst), hk_reference.DenseReferenceTable(inst))


def edge_metric(m, edge, seed):
    """m clients, every distance drawn from [edge/2, edge] and the root's
    last one exactly edge: a metric, since any two sides sum to at least
    edge."""
    rng = random.Random(seed)
    n = m + 1
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            dist[u][v] = dist[v][u] = rng.randint((edge + 1) // 2, edge)
    dist[0][m] = dist[m][0] = edge
    return Instance.from_matrix(dist)


@pytest.mark.parametrize("m", [4, 9])
def test_key_dtype_tiers_hold_at_their_largest_edge(m):
    # The build's largest key is the cap (m+1)·edge + 1 plus one more edge,
    # shifted past s end bits, with those bits set. A key that outgrew its
    # dtype would wrap silently, so each narrow tier is checked at the
    # largest edge that still selects it and at the next one.
    s = (m - 1).bit_length()
    tiers = (np.uint16, np.int32, np.int64, object)
    for bits, narrow, wide in zip((16, 31, 63), tiers, tiers[1:]):
        largest = ((1 << bits - s) - 2) // (m + 2)
        assert (((m + 2) * largest + 1) << s | (1 << s) - 1) < 1 << bits
        for edge, want in ((largest, narrow), (largest + 1, wide)):
            assert pricing._key_dtype(m, edge, np) == (want, s)
            inst = edge_metric(m, edge, edge)
            assert_same_table(HKTable(inst), hk_reference.ReferenceTable(inst))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_folds_and_ends_match_enumeration_at_every_dtype_tier(m):
    # At the largest edge of each key tier and of each fold tier, and at
    # the next edge, which takes the next tier.
    s = (m - 1).bit_length()
    edges = [((1 << bits - s) - 2) // (m + 2) for bits in (16, 31, 63)]
    edges += [top // (m + 1) for top in ((1 << 31) - 2, (1 << 62) - 1)]
    tiers = set()
    for edge in edges + [edge + 1 for edge in edges]:
        inst = edge_metric(m, edge, edge)
        table = HKTable(inst)
        tiers.add((np.dtype(key_dtype(inst)), table.min_regret.dtype))
        assert_folds_match_enumeration(table)
    keys, folds = map(set, zip(*tiers))
    assert keys == set(map(np.dtype, (np.uint16, np.int32, np.int64, object)))
    assert folds == set(map(np.dtype, (np.int32, np.int64, object)))


def test_sum_dtype_tiers_hold_at_their_largest_bound():
    # A bounded scan's reward sum is at most the total; the min-excess scan
    # runs in the dtype that its bound (regret_bound·den + total + 1)·(m+1)
    # picks. A sum or score that outgrew its dtype would wrap silently, so
    # each narrow tier is checked at the largest bound that still selects
    # it and at the next one: by the total for the bounded scans, by den
    # for the min-excess scan, and at a den whose product
    # regret_bound·den·(m+1) alone passes the tier. Every scan is checked
    # against the reference at each.
    inst = gen_euclidean(7, 3)
    table = HKTable(inst)
    ref = hk_reference.ReferenceTable(inst)
    m, w, rb = table.m, table.m + 1, table.regret_bound
    edge = max(map(max, inst.dist))
    lone = [(RootedPath.trivial(inst).nodes, Fraction(0))]
    rng = random.Random(33)

    def split(total):
        cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    for largest, narrow, wide in (((1 << 31) - 2, np.int32, np.int64),
                                  ((1 << 62) - 1, np.int64, object)):
        small = 40 * m
        last = (largest // w - small - 1) // rb
        cases = [(split(largest), 1, largest, narrow),
                 (split(largest + 1), 1, largest + 1, wide)]
        for d, want in ((last, narrow), (last + 1, wide),
                        ((largest + 1) // (rb * w) + 1, wide)):
            cases.append((split(small), d, (rb * d + small + 1) * w, want))
        for nums, den, bound, want in cases:
            assert pricing._sum_dtype(bound, np) is want
            rewards = {v: Fraction(x, den) for v, x in zip(inst.clients, nums)}
            for budget in (0, edge, 3 * edge):
                for kind, scan in (("regret", exact_orienteering),
                                   ("length", exact_length_budget)):
                    assert priced(scan(table, (nums, den), budget)) == (
                        priced(hk_reference.ranking(ref, rewards, kind,
                                                    budget)) or lone)
            assert priced(exact_min_excess_pricing(table, (nums, den))) == (
                priced(hk_reference.ranking(ref, rewards, "min_excess"))
                or lone)


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 30])
def test_chunk_size_does_not_change_the_table(chunk_bytes, monkeypatch):
    # One mask per chunk, then one chunk per popcount layer, on each key
    # tier: the 10-client metric at three scales, and 9 clients at the
    # largest edge whose keys are still uint16.
    monkeypatch.setattr(pricing, "CHUNK_BYTES", chunk_bytes)
    base = gen_euclidean(11, 4)
    largest = ((1 << 16 - 4) - 2) // 11
    cases = [(base, np.uint16), (scaled(base, 1 << 12), np.int32),
             (scaled(base, 1 << 27), np.int64),
             (edge_metric(9, largest, 5), np.uint16)]
    for inst, kdt in cases:
        m = len(inst.clients)
        assert pricing._key_dtype(m, max(map(max, inst.dist)), np)[0] == kdt
        assert_same_table(HKTable(inst), hk_reference.ReferenceTable(inst))


def test_table_folds_and_ends_on_every_key_tier():
    # The folds take the dtype that top = (m+1)·edge picks, whatever the
    # key dtype, and hold top + 1 at the empty mask, where the ends hold -1.
    # On every key tier, with folds of a narrower dtype, of the same one,
    # and of a wider one (uint16 keys, and one client at edge 2^61).
    base = gen_euclidean(11, 4)
    cases = [(base, np.uint16, np.int32),
             (scaled(base, 1 << 12), np.int32, np.int32),
             (scaled(base, 1 << 27), np.int64, np.int64),
             (edge_metric(10, 1 << 56, 3), object, np.int64),
             (edge_metric(10, 1 << 60, 3), object, object),
             (edge_metric(1, 1 << 29, 3), np.int32, np.int32),
             (edge_metric(1, 1 << 30, 3), np.int64, np.int64),
             (edge_metric(1, 1 << 61, 3), np.int64, object),
             (edge_metric(9, 1 << 26, 3), np.int64, np.int32)]
    for inst, kdt, fold in cases:
        m, edge = len(inst.clients), max(map(max, inst.dist))
        assert key_dtype(inst) == kdt
        table = HKTable(inst)
        top = (m + 1) * edge
        assert table.min_regret.dtype == table.min_length.dtype == fold
        assert table.min_regret[0] == table.min_length[0] == top + 1
        assert table.regret_end[0] == table.length_end[0] == -1
        assert_same_arrays(table, hk_reference.DenseReferenceTable(inst))
        if top < INF:       # the reference reads INF and up as unreachable
            assert_same_table(table, hk_reference.ReferenceTable(inst))


@pytest.mark.parametrize("factor, dtype", [(1, np.uint16), (1 << 12, np.int32),
                                           (1 << 17, np.int64),
                                           (1 << 27, np.int64)])
def test_build_peak_is_within_the_cell_estimate(factor, dtype):
    # A uint16 table peaks at about 3.7 bytes per cell at 16 clients, an
    # int32 one at 5.7, an int64 one at 9.8 to 10.3.
    inst = scaled(gen_euclidean(17, 7), factor)
    tracemalloc.start()
    try:
        table = HKTable(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert key_dtype(inst) == dtype
    limit = {np.uint16: 4, np.int32: 6}.get(dtype, pricing.CELL_BYTES)
    assert peak <= limit * (16 << 16)


def test_edges_beyond_int64_keep_exact_python_costs():
    base = gen_random_metric(8, 9)
    factor = 1 << 62
    table = HKTable(scaled(base, factor))
    ref = hk_reference.ReferenceTable(base)
    assert table.min_regret.dtype == object
    parent, min_regret, min_length, *ends = reference_layout(table)
    assert parent == ref.parent and ends == [ref.regret_end, ref.length_end]
    assert min_regret[1:] == [r * factor for r in ref.min_regret[1:]]
    assert min_length[1:] == [x * factor for x in ref.min_length[1:]]
    rewards = {v: Fraction(v * factor, 3) for v in base.clients}
    got = exact_min_excess_pricing(table, ints(table.inst, rewards))
    want = hk_reference.ranking(ref, {v: Fraction(v, 3)
                                      for v in base.clients}, "min_excess")
    assert [(p.path.nodes, p.value) for p in got] == [
        (p.path.nodes, p.value * factor) for p in want]


def test_zero_regret_python_costs_take_the_int64_excess_scan():
    # Clients on a ray from the root: every mask's least regret is 0, so
    # the min-excess values fit int64 although the costs need Python ints.
    # The reference reads costs from INF up as unreachable, so it runs on
    # the unscaled line, whose regrets are the same zeros.
    # The small rewards take the int32 scan, the ones past 2^31 the int64.
    base = line_instance((0, 1, 2, 4, 7, 11))
    table = HKTable(scaled(base, 1 << 62))
    assert table.min_regret.dtype == object
    assert not table.min_regret[1:].any()
    for scale in (1, 1 << 31):
        rewards = {v: Fraction(v * scale, 3) for v in base.clients}
        got = exact_min_excess_pricing(table, ints(base, rewards))[0]
        want = hk_reference.min_excess(hk_reference.ReferenceTable(base),
                                       rewards)
        assert (got.path.nodes, got.value) == (want.path.nodes, want.value)


def test_orienteering_collects_reachable_rewards():
    inst = line_instance()
    table = HKTable(inst)
    rewards = {v: Fraction(1) for v in inst.clients}
    res = exact_orienteering(table, ints(inst, rewards), budget=0)[0]
    assert res.value == 3                      # the whole line has regret 0
    assert res.path.nodes == (0, 1, 2, 3)
    # only maximal sets are priced: the whole line, at client 1's reward
    res = exact_orienteering(table, ([5, 0, 0], 1), budget=0)[0]
    assert (res.path.nodes, res.value) == ((0, 1, 2, 3), 5)
    # clients at -1, 1 and 2: the maximal sets within regret 0 are {1} and
    # {2, 3}, and at equal reward fewer nodes win the tie
    split = line_instance((0, -1, 1, 2))
    got = exact_orienteering(HKTable(split), ([5, 0, 5], 1), budget=0)
    assert priced(got) == [((0, 1), 5), ((0, 2, 3), 5)]


def test_orienteering_zero_rewards_and_validation():
    inst = line_instance()
    table = HKTable(inst)
    res, = exact_orienteering(table, ([0, 0, 0], 1), budget=3)
    assert res.path.is_trivial and res.value == 0
    # one nonnegative int per client over a positive int den
    for bad in (([-1, 0, 0], 1), ([0, 0], 1), ([0, 0, 0], 0),
                ([0.5, 0, 0], 1), ([0, 0, 0], 1.0)):
        with pytest.raises(ValueError):
            exact_orienteering(table, bad, budget=1)
    with pytest.raises(ValueError):
        exact_orienteering(table, ([0, 0, 0], 1), budget=-1)
    with pytest.raises(ValueError):
        hk_reference.scaled_rewards(inst.clients, {1: Fraction(-1)})


def test_orienteering_against_enumeration():
    inst = random_instance(6, 23)
    table = HKTable(inst)
    rng = random.Random(2)
    clients = list(inst.clients)
    for trial in range(12):
        rewards = {v: Fraction(rng.randint(0, 5), rng.randint(1, 3))
                   for v in clients}
        budget = rng.randint(0, 25)
        res = exact_orienteering(table, ints(inst, rewards), budget)[0]
        assert res.path.regret <= budget
        assert res.value == sum(
            (rewards[v] for v in res.path.nodes[1:]), Fraction(0))
        # reference: scan all subsets x orderings
        best = Fraction(0)
        for r in range(1, len(clients) + 1):
            for combo in itertools.combinations(clients, r):
                for perm in itertools.permutations(combo):
                    p = RootedPath.build(inst, (0,) + perm)
                    if p.regret <= budget:
                        best = max(best, sum(
                            (rewards[v] for v in combo), Fraction(0)))
                        break
        assert res.value == best


def test_length_budget_pricing():
    inst = line_instance()
    rewards = {v: Fraction(1) for v in inst.clients}
    rewards = ints(inst, rewards)
    table = HKTable(inst)
    assert exact_length_budget(table, rewards, budget=4)[0].value == 3
    assert exact_length_budget(table, rewards, budget=2)[0].value == 2
    assert exact_length_budget(table, rewards, budget=0)[0].value == 0


def test_min_excess_pricing():
    inst = line_instance()
    # high rewards make the full zero-regret sweep strictly profitable
    rewards = {v: Fraction(2) for v in inst.clients}
    table = HKTable(inst)
    res = exact_min_excess_pricing(table, ints(inst, rewards))[0]
    assert res.value == -6
    assert res.path.nodes == (0, 1, 2, 3)
    # no rewards: the empty path is optimal
    res, = exact_min_excess_pricing(table, ([0, 0, 0], 1))
    assert res.path.is_trivial and res.value == 0


def test_min_excess_against_enumeration():
    inst = random_instance(5, 31)
    table = HKTable(inst)
    rng = random.Random(4)
    clients = list(inst.clients)
    for trial in range(10):
        rewards = {v: Fraction(rng.randint(0, 6), 2) for v in clients}
        res = exact_min_excess_pricing(table, ints(inst, rewards))[0]
        best = Fraction(0)
        for r in range(1, len(clients) + 1):
            for combo in itertools.combinations(clients, r):
                for perm in itertools.permutations(combo):
                    p = RootedPath.build(inst, (0,) + perm)
                    gain = sum((rewards[v] for v in combo), Fraction(0))
                    best = min(best, Fraction(p.regret) - gain)
        assert res.value == best


def test_heuristic_pricing_feasible_and_counted():
    inst = random_instance(8, 7)
    rewards = ints(inst, {v: Fraction(1) for v in inst.clients})
    res = heuristic_pricing(inst, rewards, "regret", 5)
    assert res.path.regret <= 5
    assert res.value == len(res.path.nodes) - 1
    res = heuristic_pricing(inst, rewards, "length", 20)
    assert res.path.cost <= 20
    exact = exact_orienteering(HKTable(inst), rewards, 5)[0]
    assert res.value <= len(inst.clients)
    assert exact.value >= heuristic_pricing(inst, rewards, "regret", 5).value


# --- heuristic pricing vs. the path-rebuilding reference ---------------------

KINDS = ("regret", "length", "min_excess")


def _heuristic_queries(rng, inst):
    """Reward maps and budgets that reach every branch of the search."""
    clients = list(inst.clients)
    maxd = max(inst.root_dist)
    den = rng.choice((1, 1, 2, 3, 7, 9))
    tied = Fraction(rng.randint(1, 4))
    for kind in KINDS:
        rewards = {}
        for v in clients:
            draw = rng.random()
            if draw < 0.1:
                continue                       # missing: reward 0
            if draw < 0.2:
                rewards[v] = Fraction(0)
            elif den == 1 and draw < 0.6:
                rewards[v] = tied              # ties between clients
            else:
                rewards[v] = Fraction(rng.randint(0, 6 * den), den)
        if kind == "min_excess" and rng.random() < 0.5:
            scale = rng.choice((4, 16, 64))   # long paths pay off
            rewards = {v: r * scale for v, r in rewards.items()}
        budget = rng.choice((0, -1, 1, maxd // 4, maxd // 2, maxd, 3 * maxd))
        yield FractionQuery(rewards=rewards, budget_kind=kind, budget=budget)


def _assert_same_heuristic(inst, query):
    price = partial(heuristic_pricing, inst, ints(inst, query.rewards),
                    query.budget_kind, query.budget)
    if query.budget_kind != "min_excess" and query.budget < 0:
        refused = f"^negative {query.budget_kind} budget$"
        for run in (partial(heuristic_reference.heuristic_pricing, inst,
                            query), price):
            with pytest.raises(ValueError, match=refused):
                run()
        return
    want = heuristic_reference.heuristic_pricing(inst, query)
    got = price()
    assert got.path.nodes == want.path.nodes, query
    assert got.value == want.value, query
    assert type(got.value) is Fraction


def test_heuristic_matches_reference():
    rng = random.Random(4)
    instances = [Instance.from_matrix([[0]]), line_instance(),
                 line_instance((0, 2, 2, 5, 5))]
    for trial in range(120):
        m = 1 + trial % 12
        gen = gen_euclidean if trial % 3 else gen_random_metric
        if trial % 4 == 3:
            big = gen(m + 6, 500 + trial)
            inst, _ = induced_instance(big, rng.sample(list(big.clients), m))
        else:
            inst = gen(m + 1, 500 + trial)
        instances.append(inst)
    for inst in instances:
        for query in _heuristic_queries(rng, inst):
            _assert_same_heuristic(inst, query)
    for seed in (1, 2):
        for gen in (gen_euclidean, gen_random_metric):
            inst = gen(25, seed)
            for query in _heuristic_queries(rng, inst):
                _assert_same_heuristic(inst, query)
    # Rewards that pay for detours make 2-opt reverse segments, the path's
    # tail included.
    for trial in range(300):
        inst = (gen_euclidean if trial % 2 else gen_random_metric)(
            3 + trial % 10, 900 + trial)
        scale = rng.choice((1, 4, 16))
        rewards = {v: Fraction(rng.randint(0, 30 * scale), rng.randint(1, 3))
                   for v in inst.clients}
        _assert_same_heuristic(inst, FractionQuery(
            rewards=rewards, budget_kind="min_excess"))
    # Points on a line.  The search goes by descending reward, so these
    # pin where it must not stop early.
    for positions, rewards, kind, budget in (
            # 3 at 9 is past the length budget: 2, then 1, enter.
            ((0, 1, 2, 9), {1: 1, 2: 2, 3: 7}, "length", 4),
            # Once 3 is on the path, 2 at -4 adds regret 8 or more: 1 enters.
            ((0, 3, -4, 6), {1: 1, 2: 8, 3: 9}, "regret", 5),
            # Once 3 is on the path, appending 2 (regret 2) or 1 (regret 0)
            # both reach -16: 1 wins on its id, after 2 in reward order.
            ((0, 4, -5, 1), {1: 5, 2: 7, 3: 11}, "min_excess", 0),
            # 2 reaches -3 before 1 and after it: the inner position wins.
            ((0, 3, 3), {1: 2, 2: 1}, "min_excess", 0)):
        _assert_same_heuristic(line_instance(positions), FractionQuery(
            {v: Fraction(r) for v, r in rewards.items()}, kind, budget))


def test_heuristic_rejects_unknown_kind_and_negative_rewards():
    inst = random_instance(5, 3)
    with pytest.raises(ValueError):
        heuristic_pricing(inst, ([1, 0, 0, 0], 1), "volume")
    with pytest.raises(ValueError):
        heuristic_reference.heuristic_pricing(inst, FractionQuery(
            rewards={1: Fraction(1)}, budget_kind="volume"))
    # One rule for every pricer: LP duals are never negative.
    rewards = ([6, -1, 0, 0], 3)
    for kind in KINDS:
        with pytest.raises(ValueError):
            heuristic_pricing(inst, rewards, kind, 50)
    table = HKTable(inst)
    with pytest.raises(ValueError):
        exact_min_excess_pricing(table, rewards)
    with pytest.raises(ValueError):
        exact_orienteering(table, rewards, 50)
    with pytest.raises(ValueError):
        exact_length_budget(table, rewards, 50)


def test_heuristic_refuses_a_negative_budget_as_the_exact_scans_do():
    inst = random_instance(6, 5)
    rewards = ([1] * len(inst.clients), 1)
    table = HKTable(inst)
    for kind, scan in (("regret", exact_orienteering),
                       ("length", exact_length_budget)):
        for price in (partial(heuristic_pricing, inst, rewards, kind),
                      partial(scan, table, rewards)):
            with pytest.raises(ValueError, match=f"^negative {kind} budget$"):
                price(-1)
        # budget 0 is served
        assert heuristic_pricing(inst, rewards, kind, 0).value <= \
            scan(table, rewards, 0)[0].value
    # min_excess has no budget to refuse
    res = heuristic_pricing(inst, ([30] * len(inst.clients), 1),
                            "min_excess", -1)
    assert res.value < 0


def test_heuristic_min_excess_value_and_exact_bound():
    rng = random.Random(11)
    for seed in range(12):
        inst = (gen_euclidean if seed % 2 else gen_random_metric)(
            3 + seed % 8, 40 + seed)
        for _ in range(3):
            rewards = {v: Fraction(rng.randint(0, 40), rng.randint(1, 3))
                       for v in inst.clients}
            scaled = ints(inst, rewards)
            res = heuristic_pricing(inst, scaled, "min_excess")
            gain = sum((rewards[v] for v in res.path.nodes[1:]), Fraction(0))
            assert res.value == res.path.regret - gain <= 0
            assert res.value >= exact_min_excess_pricing(HKTable(inst),
                                                         scaled)[0].value


def test_heuristic_refuses_a_bad_insertion_delta(monkeypatch):
    inst = random_instance(8, 7)
    rewards = ([1] * len(inst.clients), 1)
    query = (rewards, "length", 10**6)
    assert heuristic_pricing(inst, *query).value == len(inst.clients)
    deltas = pricing._insertion_deltas
    monkeypatch.setattr(pricing, "_insertion_deltas",
                        lambda row, links: [d - 1 for d in deltas(row, links)])
    with pytest.raises(SolverError, match="tracked cost"):
        heuristic_pricing(inst, *query)
