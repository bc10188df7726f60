"""Min-cost circulation engine: feasibility, optimality, lower bounds; and
the rooted path cover built on it."""

import importlib.util
import random
from pathlib import Path

import pytest

from flow_reference import ReferenceCirculation
from regret_route import flows, harness, rounding
from regret_route.core import SolverError
from regret_route.flows import MinCostCirculation, min_cost_path_cover
from regret_route.harness import gen_euclidean


def test_simple_cycle_with_lower_bound():
    # forcing one unit around a 3-cycle costs the cycle's length
    net = MinCostCirculation(3)
    net.add_arc(0, 1, lower=1, cap=5, cost=2)
    net.add_arc(1, 2, lower=0, cap=5, cost=3)
    net.add_arc(2, 0, lower=0, cap=5, cost=4)
    assert net.solve() == (9, [1, 1, 1])


def test_zero_lower_bounds_mean_empty_circulation():
    net = MinCostCirculation(3)
    net.add_arc(0, 1, lower=0, cap=5, cost=2)
    net.add_arc(1, 2, lower=0, cap=5, cost=3)
    net.add_arc(2, 0, lower=0, cap=5, cost=4)
    assert net.solve() == (0, [0, 0, 0])


def test_cheaper_parallel_route_wins():
    # forced arc 0->1; return via 1->0 (cost 10) or 1->2->0 (cost 3)
    net = MinCostCirculation(3)
    net.add_arc(0, 1, lower=2, cap=2, cost=0)     # forced
    net.add_arc(1, 0, lower=0, cap=9, cost=10)    # direct
    net.add_arc(1, 2, lower=0, cap=9, cost=1)     # via 2
    net.add_arc(2, 0, lower=0, cap=9, cost=2)
    assert net.solve() == (6, [2, 0, 2, 2])


def test_capacity_forces_split_routing():
    net = MinCostCirculation(4)
    net.add_arc(0, 1, lower=3, cap=3, cost=0)
    net.add_arc(1, 2, lower=0, cap=2, cost=1)   # capped cheap leg
    net.add_arc(1, 3, lower=0, cap=9, cost=5)
    net.add_arc(2, 0, lower=0, cap=9, cost=0)
    net.add_arc(3, 0, lower=0, cap=9, cost=0)
    assert net.solve() == (2 * 1 + 1 * 5, [3, 2, 1, 2, 1])


def test_infeasible_lower_bound_raises():
    net = MinCostCirculation(2)
    net.add_arc(0, 1, lower=1, cap=1, cost=0)   # no way back
    with pytest.raises(SolverError):
        net.solve()


def test_argument_validation():
    net = MinCostCirculation(2)
    with pytest.raises(ValueError):
        net.add_arc(0, 5, lower=0, cap=1, cost=0)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, lower=2, cap=1, cost=0)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, lower=0, cap=1, cost=-1)


def test_each_solve_returns_the_flows_of_the_network_it_is_given():
    # solve rebuilds its residual network from the arcs on every call: an
    # arc added after a solve is routed by the next one, and the reference
    # returns the same (cost, flows) pair.
    net, ref = MinCostCirculation(3), ReferenceCirculation(3)
    for arc in [(0, 1, 1, 1, 2), (1, 0, 0, 1, 5)]:
        net.add_arc(*arc)
        ref.add_arc(*arc)
    first = net.solve()
    assert first == ref.solve() == (7, [1, 1])
    _assert_circulation(net, first[1])
    for arc in [(1, 2, 0, 1, 1), (2, 0, 0, 1, 1)]:
        net.add_arc(*arc)
        ref.add_arc(*arc)
    second = net.solve()
    assert second == ref.solve() == (4, [1, 0, 1, 1])
    _assert_circulation(net, second[1])
    assert net.solve() == second


def test_conservation_on_random_networks():
    import random
    rng = random.Random(0)
    for trial in range(20):
        n = rng.randint(3, 6)
        net = MinCostCirculation(n)
        arcs = []
        for u in range(n):
            v = (u + 1) % n
            arcs.append(((u, v), net.add_arc(u, v, 0, 6, rng.randint(0, 4))))
        for _ in range(rng.randint(1, 5)):
            u, v = rng.sample(range(n), 2)
            lower = rng.randint(0, 2)
            arcs.append(((u, v), net.add_arc(u, v, lower, 6,
                                             rng.randint(0, 4))))
        _, flow = net.solve()
        balance = [0] * n
        for (u, v), aid in arcs:
            f = flow[aid]
            lo = net._arcs[aid][2]
            assert lo <= f <= 6
            balance[u] -= f
            balance[v] += f
        assert balance == [0] * n


def _assert_circulation(net, flow):
    """The flow solve returned has one entry per arc, within the arc's
    bounds, and every node balances."""
    assert len(flow) == len(net._arcs)
    balance = [0] * net.n
    for f, (u, v, lower, cap, _) in zip(flow, net._arcs):
        assert lower <= f <= cap
        balance[u] -= f
        balance[v] += f
    assert balance == [0] * net.n


def test_early_exit_matches_the_reference_on_random_networks():
    # Dijkstra stops at the sink; the cost is the full search's, and an
    # infeasible network is refused by both.
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(1, 3 * n)):
            u, v = rng.sample(range(n), 2)
            lower = rng.choice((0, 0, 1, 2))
            arcs.append((u, v, lower, lower + rng.randint(0, 3),
                         rng.randint(0, 6)))
        net, ref = MinCostCirculation(n), ReferenceCirculation(n)
        for arc in arcs:
            net.add_arc(*arc)
            ref.add_arc(*arc)
        try:
            want, _ = ref.solve()
        except SolverError:
            with pytest.raises(SolverError):
                net.solve()
            continue
        cost, flow = net.solve()
        assert cost == want
        _assert_circulation(net, flow)


def _benchmark_jobs(seed):
    """The solver calls of every benchmark workload at seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [job for name in workloads.WORKLOADS
            for job in workloads.build(name, seed)]


def test_early_exit_matches_the_reference_on_the_benchmark(monkeypatch):
    # Every network that seed 1 of the benchmark builds costs what the full
    # search finds, and every witness flow, solved either way, passes
    # round_flow's certificates (they raise otherwise) and is claimed by
    # exactly its witnesses.
    solve, round_flow = MinCostCirculation.solve, rounding.round_flow
    seen = {"networks": 0, "witness flows": 0}

    def checked_solve(net):
        ref = ReferenceCirculation(net.n)
        ref._arcs = list(net._arcs)
        cost, flow = out = solve(net)
        assert cost == ref.solve()[0]
        _assert_circulation(net, flow)
        seen["networks"] += 1
        return out

    def checked_round_flow(inst, arc_weight, witnesses, *args, **kwargs):
        out = round_flow(inst, arc_weight, witnesses, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(flows, "MinCostCirculation", ReferenceCirculation)
            ref = round_flow(inst, arc_weight, witnesses, *args, **kwargs)
        assert out[1] == ref[1]           # the same cost
        for trails, _ in (out, ref):
            assert rounding.decompose_flow(inst, trails, witnesses)
        seen["witness flows"] += 1
        return out

    monkeypatch.setattr(MinCostCirculation, "solve", checked_solve)
    monkeypatch.setattr(rounding, "round_flow", checked_round_flow)
    for job in _benchmark_jobs(1):
        harness.run_solver(job["solver"], job["instance"], job["params"])
    assert seen["networks"] > seen["witness flows"] > 100


# --- min_cost_path_cover -----------------------------------------------------

def _root_trails(root, arcs):
    """Every trail from the root along the DAG's arcs, with its arc cost."""
    out, stack = [], [((root,), 0)]
    while stack:
        trail, cost = stack.pop()
        for (u, v), c in arcs.items():
            if u == trail[-1]:
                out.append((trail + (v,), cost + c))
                stack.append((trail + (v,), cost + c))
    return out


def _brute_cover(root, arcs, required, cap, trail_cost):
    """Least cost of at most cap trails entering every required node; None
    when no such trails exist."""
    bit = {v: 1 << i for i, v in enumerate(sorted(required))}
    full = (1 << len(bit)) - 1
    best = {0: 0}            # mask -> least arc cost, with j trails so far
    answer = 0 if not bit else None
    for j in range(1, cap + 1):
        step = dict(best)
        for mask, cost in best.items():
            for trail, c in _root_trails(root, arcs):
                m = mask
                for v in trail:
                    m |= bit.get(v, 0)
                if cost + c < step.get(m, cost + c + 1):
                    step[m] = cost + c
        best = step
        if full in best:
            total = best[full] + j * trail_cost
            answer = total if answer is None else min(answer, total)
    return answer


def _random_dag(rng, inst):
    """Arcs that climb in (D, id), with random costs; each is kept with
    probability 1/2, or 3/4 out of the root."""
    D = inst.root_dist
    arcs = {}
    for u in range(inst.n):
        for v in inst.clients:
            if u == inst.root and rng.random() < 0.75 or \
                    (D[u], u) < (D[v], v) and rng.random() < 0.5:
                arcs[(u, v)] = rng.randint(0, 3)
    return arcs


def test_path_cover_with_trail_cost_one_uses_fewest_trails():
    rng = random.Random(5)
    infeasible = 0
    for seed in range(40):
        inst = gen_euclidean(6, seed, scale=8)
        arcs = dict.fromkeys(_random_dag(rng, inst), 0)
        required = rng.sample(inst.clients, rng.randint(1, 4))
        fewest = _brute_cover(inst.root, arcs, required, inst.n, 1)
        if fewest is None:
            infeasible += 1
            with pytest.raises(SolverError):
                min_cost_path_cover(inst, arcs, required, inst.n, 1)
            continue
        cost, trails = min_cost_path_cover(inst, arcs, required, inst.n, 1)
        assert cost == len(trails) == fewest
        assert all(t[0] == inst.root and len(t) > 1 for t in trails)
        assert all(a in arcs for t in trails for a in zip(t, t[1:]))
        assert set(required) <= {v for t in trails for v in t}
    assert 0 < infeasible < 15


def test_path_cover_is_cheapest_within_the_capacity():
    rng = random.Random(6)
    for seed in range(40):
        inst = gen_euclidean(6, seed, scale=8)
        arcs = _random_dag(rng, inst)
        required = rng.sample(inst.clients, rng.randint(1, 4))
        cap = rng.randint(1, 3)
        best = _brute_cover(inst.root, arcs, required, cap, 0)
        if best is None:
            with pytest.raises(SolverError):
                min_cost_path_cover(inst, arcs, required, cap, 0)
            continue
        cost, trails = min_cost_path_cover(inst, arcs, required, cap, 0)
        assert cost == best == sum(arcs[a] for t in trails
                                   for a in zip(t, t[1:]))
        assert len(trails) <= cap
        assert set(required) <= {v for t in trails for v in t}


def test_path_cover_capacity_and_infeasible_lower_bound():
    # a star: three required leaves need three trails
    inst = gen_euclidean(4, 1)
    arcs = {(0, v): 0 for v in inst.clients}
    with pytest.raises(SolverError):
        min_cost_path_cover(inst, arcs, inst.clients, 2, 1)
    cost, trails = min_cost_path_cover(inst, arcs, inst.clients, 3, 1)
    assert cost == 3 and sorted(trails) == [[0, 1], [0, 2], [0, 3]]
    # a required node no arc enters admits no cover at any capacity
    with pytest.raises(SolverError):
        min_cost_path_cover(inst, {(0, 1): 0}, [1, 2], 5, 0)
