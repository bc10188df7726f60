"""Rounding pipeline: forest, witnesses, flow, grafting, end-to-end bounds."""

import math
import random
from fractions import Fraction

import pytest

import flow_reference
import rounding_reference as reference
from test_acceptance import mixed_instance
from test_harness import COLOCATED
from regret_route import rounding
from regret_route.core import (Instance, RootedPath, SolverError,
                               regret_distance)
from regret_route.harness import (brute_force_rvrp, gen_euclidean, gen_ladder,
                                  gen_line, gen_random_metric)
from regret_route.lp import (FractionalSolution, solve_minsum_lp,
                             solve_rvrp_lp)
from regret_route.reductions import solve_rvrp
from regret_route.rounding import (
    RoundingContext,
    _active,
    _covered,
    build_forest,
    decompose_flow,
    default_threshold,
    graft,
    round_flow,
    round_minsum,
    round_rvrp,
    shortcut_to_witnesses,
)


def ladder_context(threshold=None):
    inst = gen_ladder(2)
    sol = solve_rvrp_lp(inst, 1)
    return RoundingContext.build(
        inst, sol, threshold if threshold is not None else default_threshold())


def test_default_threshold_value():
    d = default_threshold()
    assert abs(float(d) - (math.sqrt(3) - 1) / 2) < 1e-12
    assert 0 < d < 1
    # it minimizes the count factor 2/d + 6/(1-d)
    f = lambda x: 2 / x + 6 / (1 - x)
    assert f(float(d)) <= min(f(x / 100) for x in range(1, 100)) + 1e-9


def test_covered_and_active():
    # The LP covers every client at least once, so the whole node set is
    # inactive; on it and on every single node, the scaled coverage and
    # the cut requirement equal the Fraction oracle's.
    ctx = ladder_context()
    inst = ctx.inst
    everything = frozenset(range(inst.n))
    for v in inst.clients:
        assert _covered(ctx, v, everything) >= ctx.scale
    assert not _active(ctx, everything)
    for S in [everything, *(frozenset([v]) for v in range(inst.n))]:
        assert _active(ctx, S) == reference.cut_value(ctx, S)
        for v in S:
            assert Fraction(_covered(ctx, v, S), ctx.scale) == \
                reference.covered_within(ctx, v, S)


def test_context_validates_threshold():
    inst = gen_ladder(2)
    sol = solve_rvrp_lp(inst, 1)
    with pytest.raises(ValueError):
        RoundingContext.build(inst, sol, Fraction(1))
    with pytest.raises(ValueError):
        RoundingContext.build(inst, sol, Fraction(0))


@pytest.mark.parametrize("make, R", [
    (lambda: gen_ladder(2), 1), (lambda: gen_euclidean(9, 31), 98),
    (lambda: COLOCATED[2], 3)], ids=["ladder", "euclidean", "co-located"])
def test_forest_structure(make, R):
    # The euclidean forest has a zone of three nodes; the co-located one
    # is rooted at node 6, whose component holds a client too.
    inst = make()
    ctx = RoundingContext.build(inst, solve_rvrp_lp(inst, R),
                                default_threshold())
    ws = build_forest(ctx)
    # the zones and the root's component partition the nodes
    root_zone = frozenset(ws.root_tour)
    assert sum(map(len, ws.zone.values())) + len(root_zone) == inst.n
    assert root_zone.union(*ws.zone.values()) == set(range(inst.n))
    # every component is inactive and every witness is eligible inside it
    assert reference.cut_value(ctx, root_zone) == 0
    for w, comp in ws.zone.items():
        assert reference.cut_value(ctx, comp) == 0
        assert reference.covered_within(ctx, w, comp) >= ctx.threshold
    assert 3 * ctx.regret_mass / (1 - ctx.threshold) >= ws.forest_cost
    # tours visit their whole component and start at the anchor
    assert ws.tour.keys() == ws.zone.keys()
    for w, tour in ws.tour.items():
        assert tour[0] == w and set(tour) == ws.zone[w]
    assert ws.root_tour[0] == inst.root


def test_shortcut_to_witnesses_monotone():
    ctx = ladder_context()
    ws = build_forest(ctx)
    D = ctx.inst.root_dist
    for i in range(len(ctx.support)):
        phi = shortcut_to_witnesses(ctx, i, ws)
        seq = phi.nodes
        assert all(D[seq[j]] < D[seq[j + 1]] for j in range(1, len(seq) - 1))
        assert phi.regret <= ctx.support[i][0].regret


def _trail_arcs(trails):
    """Units of flow per arc over the trails."""
    used = {}
    for t in trails:
        for a in zip(t, t[1:]):
            used[a] = used.get(a, 0) + 1
    return used


def test_round_flow_integrality_and_lower_bounds():
    # every non-root node on a shortcut support arc is a witness
    inst = gen_line([0, 1, 2, 4])
    w = Fraction(1, 2)
    arc_weight = {(0, 1): w, (1, 2): w, (2, 3): w,
                  (0, 2): w, (0, 3): w}
    witnesses = [1, 2, 3]
    trails, cost = round_flow(inst, arc_weight, witnesses, Fraction(1, 2),
                              value_cap=3)
    used = _trail_arcs(trails)
    _, arcs, value, _ = flow_reference.witness_flow(inst, arc_weight,
                                                    witnesses, 3)
    assert used == arcs                  # integral, on the support arcs
    assert sum(regret_distance(inst, *a) * f
               for a, f in used.items()) == cost
    for v in witnesses:
        assert sum(f for (_, b), f in used.items() if b == v) >= 1
    assert len(trails) == value <= 3


def test_round_flow_names_the_value_cap(monkeypatch):
    # A failed witness flow is refused with the cap it was solved at.
    def infeasible(*args):
        raise SolverError("no feasible flow")

    monkeypatch.setattr(rounding, "min_cost_path_cover", infeasible)
    inst = gen_line([0, 1, 2])
    with pytest.raises(SolverError, match="^witness flow at value cap 1: "
                                          "no feasible flow$"):
        round_flow(inst, {(0, 1): 1, (1, 2): 1}, [1, 2], 1, value_cap=1)


def test_decompose_flow_covers_arcs():
    inst = gen_line([0, 1, 2, 4])
    arc_weight = {(0, 1): Fraction(1), (1, 2): Fraction(1),
                  (2, 3): Fraction(1)}
    trails, cost = round_flow(inst, arc_weight, [1, 2, 3], Fraction(1, 2),
                              value_cap=2)
    _, arcs, _, _ = flow_reference.witness_flow(inst, arc_weight, [1, 2, 3], 2)
    assert _trail_arcs(trails) == arcs
    paths = decompose_flow(inst, trails, [1, 2, 3])
    assert len(paths) == len(trails)
    assert _trail_arcs([p.nodes for p in paths]) == arcs
    assert sum(p.regret for p in paths) == cost
    assert set().union(*(p.node_set for p in paths)) >= {1, 2, 3}


def test_graft_covers_everything():
    ctx = ladder_context()
    ws = build_forest(ctx)
    skeleton = [RootedPath.build(ctx.inst, [ctx.inst.root, w])
                for w in sorted(ws.zone)]
    grafted = graft(ctx.inst, skeleton, ws)
    covered = set().union(*(p.node_set for p in grafted))
    assert covered >= set(ctx.inst.clients)


def test_round_rvrp_ladder_bounds():
    inst = gen_ladder(2)
    sol = solve_rvrp_lp(inst, 1)
    diag = {}
    paths = round_rvrp(inst, 1, sol, diagnostics=diag)
    assert all(p.regret <= 1 for p in paths)
    covered = set().union(*(p.node_set for p in paths))
    assert covered >= set(inst.clients)
    checks = diag["bound_checks"]
    for name in ("forest_cost_vs_regret_mass", "forest_cost_vs_regret_budget",
                 "grafted_regret_vs_support", "count_vs_fractional_value"):
        assert checks[name]["ok"], name
    assert diag["support_acyclic"] is True
    factor = 8 + 4 * math.sqrt(3)
    assert len(paths) <= factor * float(sol.value) + 1 + 1e-9


def test_round_rvrp_refuses_zero_regret():
    # solve_rvrp answers R = 0 without an LP; the rounding refuses R < 1
    # before it reads the fractional solution or the threshold.
    inst = gen_line([0, 1, 2])
    for R in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            round_rvrp(inst, R, None, threshold=2)
    sol = solve_rvrp_lp(inst, 0)
    with pytest.raises(ValueError, match="at least 1"):
        round_rvrp(inst, 0, sol)


def test_round_rvrp_custom_threshold():
    inst = gen_random_metric(7, 9)
    sol = solve_rvrp_lp(inst, 3)
    for d in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        diag = {}
        paths = round_rvrp(inst, 3, sol, threshold=d, diagnostics=diag)
        assert all(p.regret <= 3 for p in paths)
        bound = (2 / d + 6 / (1 - d)) * sol.total_weight + 1
        assert len(paths) <= bound


def test_round_rvrp_randoms_feasible_and_bounded():
    factor = 8 + 4 * math.sqrt(3)
    rng = random.Random(12)
    for trial in range(12):
        n = rng.randint(5, 9)
        inst = (gen_euclidean(n, 300 + trial) if trial % 2
                else gen_random_metric(n, 300 + trial))
        R = rng.choice([1, 2, max(inst.root_dist)])
        sol = solve_rvrp_lp(inst, R)
        diag = {}
        paths = round_rvrp(inst, R, sol, diagnostics=diag)
        assert all(p.regret <= R for p in paths)
        covered = set().union(*(p.node_set for p in paths))
        assert covered >= set(inst.clients)
        assert len(paths) <= factor * float(sol.value) + 1 + 1e-9
        assert all(c["ok"] for c in diag["bound_checks"].values())


def test_round_minsum_count_and_regret_bounds():
    for k in (1, 2, 3):
        inst = gen_random_metric(7, 500 + k)
        sol = solve_minsum_lp(inst, k)
        diag = {}
        paths = round_minsum(inst, k, sol, diagnostics=diag)
        assert len(paths) <= k
        covered = set().union(*(p.node_set for p in paths))
        assert covered >= set(inst.clients)
        total = sum(p.regret for p in paths)
        assert total <= (4 + 6 * (3 * k + 2)) * float(sol.value) + 1e-9
        assert diag["bound_checks"]["total_regret_vs_fractional"]["ok"]


def test_no_client_roundings_return_no_paths():
    empty = Instance.from_matrix([[0]])
    assert round_rvrp(empty, 1, solve_rvrp_lp(empty, 1)) == []
    assert round_minsum(empty, 1, solve_minsum_lp(empty, 1)) == []


def test_closed_tour_refuses_a_walk_that_misses_nodes():
    # Without edges the walk from node 1 never reaches node 2; the
    # certificate is a require, so it holds under python -O too.
    with pytest.raises(SolverError, match="^tour does not visit its "
                                          "component once per node$"):
        rounding._closed_tour(frozenset({1, 2}), [], 1)


def test_round_minsum_rejects_bad_budget():
    inst = gen_line([0, 1])
    sol = solve_minsum_lp(inst, 1)
    with pytest.raises(ValueError):
        round_minsum(inst, 0, sol)


def test_rounded_count_vs_integral_optimum():
    # sanity: the constant-factor pipeline lands within the proven factor
    # of the true optimum as well (OPT >= LP)
    factor = 8 + 4 * math.sqrt(3)
    for seed in range(6):
        inst = gen_random_metric(6, 700 + seed)
        R = 2
        sol = solve_rvrp_lp(inst, R)
        paths = round_rvrp(inst, R, sol)
        opt = brute_force_rvrp(inst, R)
        assert len(paths) <= factor * opt + 1


def test_bound_check_records_then_raises():
    diag = {}
    rounding._bound_check(diag, "under", 2, Fraction(5, 2))
    rounding._bound_check(diag, "over", Fraction(1, 2), Fraction(1, 3),
                          ge=True)
    with pytest.raises(SolverError, match="^late: 3 vs 5/2$"):
        rounding._bound_check(diag, "late", 3, Fraction(5, 2))
    with pytest.raises(SolverError, match="^short: 1/4 vs 1/3$"):
        rounding._bound_check(diag, "short", Fraction(1, 4), Fraction(1, 3),
                              ge=True)
    assert {name: check["ok"] for name, check in
            diag["bound_checks"].items()} == {
        "under": True, "over": True, "late": False, "short": False}
    assert diag["bound_checks"]["late"] == {"actual": 3.0, "bound": 2.5,
                                            "ok": False}


def test_bound_check_survives_optimized_python(src_env):
    # A forest stage that breaks its cost bound must stop the rounding even
    # with asserts compiled out, after recording the failed check.
    import subprocess
    import sys
    script = (
        "import dataclasses\n"
        "from regret_route import rounding\n"
        "from regret_route.core import SolverError\n"
        "from regret_route.harness import gen_ladder\n"
        "from regret_route.lp import solve_rvrp_lp\n"
        "assert False, 'asserts are live'\n"
        "build = rounding.build_forest\n"
        "rounding.build_forest = lambda ctx: dataclasses.replace(\n"
        "    build(ctx), forest_cost=10 ** 6)\n"
        "inst = gen_ladder(2)\n"
        "try:\n"
        "    rounding.round_rvrp(inst, 1, solve_rvrp_lp(inst, 1))\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', str(exc).split(':')[0])\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "SolverError: forest_cost_vs_regret_mass"


def test_flow_cost_check_survives_optimized_python(src_env):
    # A witness flow that claims more than its cost bound must stop the
    # rounding even with asserts compiled out.
    import subprocess
    import sys
    script = (
        "from regret_route import flows, rounding\n"
        "from regret_route.core import SolverError\n"
        "from regret_route.harness import gen_ladder\n"
        "from regret_route.lp import solve_rvrp_lp\n"
        "assert False, 'asserts are live'\n"
        "solve = flows.MinCostCirculation.solve\n"
        "def inflated(self):\n"
        "    cost, flow = solve(self)\n"
        "    return cost + 10 ** 6, flow\n"
        "flows.MinCostCirculation.solve = inflated\n"
        "inst = gen_ladder(2)\n"
        "try:\n"
        "    rounding.round_rvrp(inst, 1, solve_rvrp_lp(inst, 1))\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', *str(exc).split()[:2])\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "SolverError: flow cost"


# --- the integer pipeline against the Fraction oracle ---------------------------

def _clock(m, radius=30, step=12):
    """m clients on a circle around the root, all at the same distance;
    between clients, ring distance truncated at the diameter."""
    def d(i, j):
        if i == j:
            return 0
        if 0 in (i, j):
            return radius
        ring = min(abs(i - j), m - abs(i - j))
        return min(ring * step, 2 * radius)
    return Instance.from_matrix([[d(i, j) for j in range(m + 1)]
                                 for i in range(m + 1)])


def assert_matches_reference(ctx):
    """The integer forest and cut requirement equal the Fraction oracle's."""
    ws = build_forest(ctx)
    assert ws == reference.build_forest(ctx)
    everything = frozenset(range(ctx.inst.n))
    for S in [*ws.zone.values(), frozenset(ws.root_tour), everything]:
        assert _active(ctx, S) == reference.cut_value(ctx, S)
        for v in S:
            assert Fraction(_covered(ctx, v, S), ctx.scale) == \
                reference.covered_within(ctx, v, S)
    return ws


def assert_rounds_like_reference(rounder, inst, *args, **kwargs):
    """Equal paths and equal diagnostics, every bound_checks entry included."""
    diag, ref_diag = {}, {}
    paths = getattr(rounding, rounder)(inst, *args, diagnostics=diag,
                                       **kwargs)
    ref_paths = getattr(reference, rounder)(inst, *args,
                                            diagnostics=ref_diag, **kwargs)
    assert [p.nodes for p in paths] == [p.nodes for p in ref_paths]
    assert diag == ref_diag
    return diag


CROSS_CHECK = [
    ("euclidean", lambda: gen_euclidean(9, 31), 2),
    ("euclidean", lambda: gen_euclidean(10, 32), 4),
    ("random", lambda: gen_random_metric(8, 33), 3),
    ("random", lambda: gen_random_metric(9, 34), 1),
    ("line", lambda: gen_line([0, 1, 2, 3, 5, 6, 7, 9]), 1),
    ("line", lambda: gen_line([0, -3, -2, -1, 1, 2, 3, 4]), 2),
    ("ladder", lambda: gen_ladder(2), 1),
    ("ladder", lambda: gen_ladder(2, 2), 1),
] + [("co-located", lambda inst=inst: inst, 3) for inst in COLOCATED]


@pytest.mark.parametrize("kind,make,R", CROSS_CHECK,
                         ids=[f"{k}-{i}" for i, (k, _, _)
                              in enumerate(CROSS_CHECK)])
def test_integer_rounding_matches_fraction_oracle(kind, make, R):
    # Lines and ladders have many equal distances: merges tie and both
    # sides of a tight edge are often active.
    inst = make()
    sol = solve_rvrp_lp(inst, R)
    for delta in (default_threshold(), Fraction(1, 2)):
        assert_matches_reference(RoundingContext.build(inst, sol, delta))
    assert_rounds_like_reference("round_rvrp", inst, R, sol)
    assert_rounds_like_reference("round_rvrp", inst, R, sol,
                                 threshold=Fraction(1, 3))
    k = 2
    assert_rounds_like_reference("round_minsum", inst, k,
                                 solve_minsum_lp(inst, k))


def test_integer_scaling_large_threshold_denominator():
    # default_threshold() carries a denominator near 2^53; a Mersenne prime
    # denominator shares no factor with any support weight.
    inst = gen_euclidean(9, 36)
    sol = solve_rvrp_lp(inst, 3)
    for delta in (default_threshold(),
                  Fraction(1, 3) + Fraction(1, 2 ** 89 - 1)):
        ctx = RoundingContext.build(inst, sol, delta)
        assert delta.denominator > 2 ** 50
        assert ctx.scale % delta.denominator == 0
        assert Fraction(ctx.need, ctx.scale) == delta
        assert_matches_reference(ctx)
        assert_rounds_like_reference("round_rvrp", inst, 3, sol,
                                     threshold=delta)


def test_integer_scaling_single_support_path():
    # One zig-zag path of weight 1 covers every client; its red spans
    # decide every cut alone.
    inst = gen_line([0, 4, 1, 5, 2, 6, 3])
    path = RootedPath.build(inst, [0, 2, 1, 4, 3, 6, 5])
    sol = FractionalSolution.from_columns(inst, [path], [Fraction(1)])
    ctx = RoundingContext.build(inst, sol, default_threshold())
    assert len(ctx.support) == 1 and ctx.weights == [ctx.scale]
    assert_matches_reference(ctx)
    assert_rounds_like_reference("round_rvrp", inst, path.regret, sol)


def test_integer_forest_when_only_the_root_starts_inactive():
    # Every client sits at the same distance from the root, so every edge
    # between clients is red and every client starts active: pairs with
    # the root grow at rate 1, pairs of clients at rate 2, and the first
    # merge of two clients lands on a half step.
    inst = _clock(7)
    sol = solve_rvrp_lp(inst, 24)
    ctx = RoundingContext.build(inst, sol, default_threshold())
    inactive = [v for v in range(inst.n) if not _active(ctx, {v})]
    assert inactive == [inst.root]
    ws = assert_matches_reference(ctx)
    assert ws.forest
    assert_rounds_like_reference("round_rvrp", inst, 24, sol)


def test_witness_flow_matches_the_oracle_network(monkeypatch):
    # The networks round_flow solves over criterion 2's batch of 200 rvrp
    # roundings, and the regret-sum roundings of the cross-check list.
    calls = []
    solve = rounding.round_flow

    def recording(inst, arc_weight, witnesses, threshold, value_cap,
                  **kwargs):
        out = solve(inst, arc_weight, witnesses, threshold, value_cap,
                    **kwargs)
        calls.append((inst, dict(arc_weight), witnesses, value_cap, out))
        return out

    monkeypatch.setattr(rounding, "round_flow", recording)
    for i in range(200):
        inst = mixed_instance(5 + i % 9, 8000 + i)
        maxd = max(inst.root_dist)
        # with diagnostics, as criterion 2 asks, every LP is rounded
        solve_rvrp(inst, (1, 2, max(1, maxd // 2), maxd, 2 * maxd)[i % 5],
                   diagnostics={})
    for _, make, _ in CROSS_CHECK:
        inst = make()
        round_minsum(inst, 2, solve_minsum_lp(inst, 2))
    assert len(calls) >= 200
    for inst, arc_weight, witnesses, value_cap, (trails, cost) in calls:
        assert flow_reference.witness_flow(
            inst, arc_weight, witnesses, value_cap) == \
            (cost, _trail_arcs(trails), len(trails), trails)
