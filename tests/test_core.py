"""Instance validation, path arithmetic, and path-surgery primitives."""

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import flow_reference
import path_reference
import regret_route
from regret_route.harness import gen_euclidean, gen_ladder, gen_random_metric
from test_harness import COLOCATED
from regret_route.core import (
    Instance,
    InvalidInstanceError,
    MalformedPathError,
    RootedPath,
    SolverError,
    check_path_budget,
    check_regret,
    classify_edges,
    deadlines,
    farthest_node,
    induced_instance,
    metric_from_edges,
    preprocess_path_pair,
    regret_distance,
    require_deadlines,
    shortcut,
    solution_from_dict,
    solution_to_dict,
    split_by_regret,
    tight_arcs,
    zero_regret_cover,
)


def line_instance(positions=(0, 1, 2, 4)):
    return Instance.from_matrix(
        [[abs(a - b) for b in positions] for a in positions])


def star_instance(n=5):
    return Instance.from_matrix(
        [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(n)]
         for i in range(n)])


def random_instance(n, seed):
    rng = random.Random(seed)
    edges = [(u, v, rng.randint(1, 40))
             for u in range(n) for v in range(u + 1, n)]
    return Instance.from_matrix(metric_from_edges(n, edges))


# --- Instance ----------------------------------------------------------------

def test_from_matrix_basic():
    inst = line_instance()
    assert inst.n == 4
    assert inst.root == 0
    assert inst.clients == (1, 2, 3)
    assert inst.root_dist == (0, 1, 2, 4)


def test_from_matrix_rejections():
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[0, 1], [2, 0]])
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[0, -1], [-1, 0]])
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[1, 1], [1, 0]])
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[0, 1], [1, 0]], root=2)


def test_from_matrix_integrality():
    for two in (2.0, np.int64(2), np.float32(2), Fraction(4, 2)):
        inst = Instance.from_matrix([[0, two], [two, 0]])
        assert inst.dist[0][1] == 2 and type(inst.dist[0][1]) is int
    with pytest.raises(InvalidInstanceError):
        Instance.from_matrix([[0, 1.5], [1.5, 0]])
    # Strings, bytes and numpy bools are not integers, whatever they spell.
    for bad in ("1", " 1 ", b"1", np.True_, None, float("inf"),
                float("nan"), Fraction(3, 2)):
        with pytest.raises(InvalidInstanceError,
                           match="^(non-integer|boolean) distance entry"):
            Instance.from_matrix([[0, bad], [bad, 0]])
    with pytest.raises(InvalidInstanceError, match="^non-integer root"):
        Instance.from_dict({"dist": [[0, 1], [1, 0]], "root": "0"})


def test_instance_round_trip():
    inst = line_instance()
    again = Instance.from_dict(inst.to_dict())
    assert again.dist == inst.dist
    assert again.root == inst.root


# --- regret arithmetic --------------------------------------------------------

def test_regret_distance_values():
    inst = line_instance()
    assert regret_distance(inst, 0, 1) == 0      # tight arc
    assert regret_distance(inst, 2, 1) == 2      # backtracking costs double
    assert regret_distance(inst, 1, 1) == 0
    for u in range(inst.n):
        for v in range(inst.n):
            assert regret_distance(inst, u, v) >= 0


def test_regret_distance_triangle():
    inst = random_instance(6, 11)
    for u in range(6):
        for v in range(6):
            for w in range(6):
                assert (regret_distance(inst, u, w)
                        <= regret_distance(inst, u, v)
                        + regret_distance(inst, v, w))


def test_path_regret_identity():
    inst = random_instance(7, 3)
    rng = random.Random(5)
    for _ in range(50):
        perm = rng.sample(range(1, 7), rng.randint(1, 6))
        p = RootedPath.build(inst, [0] + perm)
        edges = sum(regret_distance(inst, u, v)
                    for u, v in zip(p.nodes, p.nodes[1:]))
        assert edges == p.cost - inst.root_dist[p.end] == p.regret


def test_rooted_path_build_rejections():
    inst = line_instance()
    for nodes, message in (([], "empty node sequence"),
                           ([1, 2], "path starts at 1, not the root"),
                           ([0, 1, 1], "repeated node in path"),
                           ([0, 9], "node id out of range"),
                           ([0, -1], "node id out of range"),
                           ([0, inst.n], "node id out of range"),
                           ([0, 2, inst.n, 2], "node id out of range")):
        with pytest.raises(MalformedPathError, match=f"^{message}$"):
            RootedPath.build(inst, nodes)


def test_prefix_regret_check_survives_optimized_python(src_env):
    # Off-metric distances (d(0,2) > d(0,1) + d(1,2)) give a negative
    # prefix regret; the check must refuse it even with asserts compiled out.
    import subprocess
    import sys
    bad = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    inst = Instance.from_matrix(bad, validate=False)
    with pytest.raises(SolverError, match="prefix regrets"):
        RootedPath.build(inst, [0, 1, 2])
    script = (
        "from regret_route.core import Instance, RootedPath, SolverError\n"
        "assert False, 'asserts are live'\n"
        f"inst = Instance.from_matrix({bad!r}, validate=False)\n"
        "try:\n"
        "    RootedPath.build(inst, [0, 1, 2])\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ("SolverError: prefix regrets [0, 0, -8] of "
                                  "(0, 1, 2) are not nonnegative and "
                                  "nondecreasing")


def test_prefix_regret_monotone_and_visit_cost():
    inst = line_instance()
    p = RootedPath.build(inst, [0, 2, 1, 3])
    assert p.prefix_regret == (0, 0, 2, 2)
    assert p.cost == 6 and p.regret == 2
    assert [p.visit_cost(i, inst) for i in range(4)] == [0, 2, 3, 6]
    t = RootedPath.trivial(inst)
    assert t.is_trivial and t.end == 0 and t.regret == 0


def test_rooted_path_fields_are_frozen():
    # build sets the five fields in one step; they stay read-only
    inst = line_instance()
    p = RootedPath.build(inst, [0, 2, 1])
    assert vars(p) == {"nodes": (0, 2, 1), "cost": 3, "regret": 2,
                       "prefix_regret": (0, 0, 2),
                       "node_set": frozenset({0, 1, 2})}
    assert repr(p) == ("RootedPath(nodes=(0, 2, 1), cost=3, regret=2, "
                       "prefix_regret=(0, 0, 2))")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.cost = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.regret
    assert p.cost == 3 and p.regret == 2


# --- edge coloring ------------------------------------------------------------

def test_classify_edges_monotone_path_all_blue():
    inst = line_instance()
    col = classify_edges(inst, RootedPath.build(inst, [0, 1, 2, 3]))
    assert col.edge_is_red == (False, False, False)
    assert all(col.piece[v] == (v,) for v in range(4))
    assert col.red_cost(inst) == 0


def test_classify_edges_backtrack_is_red():
    inst = line_instance()
    p = RootedPath.build(inst, [0, 2, 1, 3])
    col = classify_edges(inst, p)
    # prefix max D reaches 2 at node 2 >= D_1, but stays below D_3 = 4
    assert col.edge_is_red == (False, True, False)
    assert [col.piece[v] for v in p.nodes] == [(0,), (2, 1), (2, 1), (3,)]
    assert 2 * col.red_cost(inst) <= 3 * p.regret


def test_classify_edges_random_bound():
    inst = random_instance(8, 21)
    rng = random.Random(9)
    for _ in range(60):
        perm = rng.sample(range(1, 8), rng.randint(1, 7))
        p = RootedPath.build(inst, [0] + perm)
        col = classify_edges(inst, p)
        assert 2 * col.red_cost(inst) <= 3 * p.regret


# --- splitting ----------------------------------------------------------------

def test_split_by_regret_small_regret_passthrough():
    inst = line_instance()
    p = RootedPath.build(inst, [0, 1, 2, 3])
    assert split_by_regret(inst, p, 1) == [p]


def test_split_by_regret_partitions():
    inst = line_instance()
    p = RootedPath.build(inst, [0, 3, 2, 1])   # regret 6, backwards sweep
    pieces = split_by_regret(inst, p, 2)
    assert len(pieces) <= 3
    assert all(q.regret <= 2 for q in pieces)
    assert set().union(*(q.node_set for q in pieces)) == p.node_set
    with pytest.raises(ValueError):
        split_by_regret(inst, p, 0)


def test_split_by_regret_random_contract():
    inst = random_instance(8, 2)
    rng = random.Random(7)
    for _ in range(60):
        perm = rng.sample(range(1, 8), rng.randint(2, 7))
        p = RootedPath.build(inst, [0] + perm)
        R = rng.randint(1, max(1, p.regret))
        pieces = split_by_regret(inst, p, R)
        assert len(pieces) <= max(-(-p.regret // R), 1)
        assert all(q.regret <= R for q in pieces)
        assert set().union(*(q.node_set for q in pieces)) == p.node_set


def test_path_cutting_matches_the_reference():
    # The trivial path, every one-client path and random longer ones on
    # euclidean, random-metric, ladder and co-located instances (two with
    # clients at the depot, one rooted at 1): the same colours, red
    # subpaths, splits at every R in 1..regret+1 and farthest node as the
    # loops in path_reference.  The one co-located instance at scale 100
    # gets fewer paths, since it has about ten times the regret.
    rng = random.Random(25)
    insts = [gen_euclidean(n, seed, scale=6) for n, seed in
             ((5, 1), (8, 2), (10, 3))]
    insts += [gen_random_metric(n, seed, max_edge=5) for n, seed in
              ((7, 4), (9, 5))]
    insts += [gen_ladder(2, 1), gen_ladder(2, 2), *COLOCATED]
    depot = [[0, 0, 0, 2], [0, 0, 0, 2], [0, 0, 0, 2], [2, 2, 2, 0]]
    insts += [Instance.from_matrix(depot, root=r) for r in (0, 1)]
    paths = red_paths = multi_splits = 0
    for inst in insts:
        clients = list(inst.clients)
        seqs = [[]] + [[v] for v in clients] + [
            rng.sample(clients, rng.randint(2, len(clients)))
            for _ in range(240 if max(inst.root_dist) < 50 else 40)]
        for seq in seqs:
            p = RootedPath.build(inst, [inst.root] + seq)
            col = classify_edges(inst, p)
            red, piece = path_reference.classify_edges(inst, p)
            assert col.edge_is_red == red
            assert all(col.piece[v] == piece[v] for v in p.nodes)
            for R in range(1, p.regret + 2):
                got = split_by_regret(inst, p, R)
                want = path_reference.split_by_regret(inst, p, R)
                assert [q.nodes for q in got] == [q.nodes for q in want]
                multi_splits += len(got) > 1
            assert farthest_node(inst, p) == \
                path_reference.farthest_node(inst, p)
            paths += 1
            red_paths += any(red)
    assert paths >= 2000 and red_paths >= 500 and multi_splits >= 1000


# --- farthest node / pair split / shortcut -------------------------------------

def test_farthest_node_tie_breaks_smallest_id():
    star = star_instance()
    p = RootedPath.build(star, [0, 3, 1])
    assert farthest_node(star, p) == 1


def test_a_client_at_the_depot_beats_the_root():
    # With D = 0 on every node the root must not be the pivot: the pair
    # split would return the trivial path twice and drop both clients.
    inst = Instance.from_matrix([[0] * 3] * 3)
    p = RootedPath.build(inst, [0, 1, 2])
    assert farthest_node(inst, p) == 1
    a, b = preprocess_path_pair(inst, p)
    assert (a.nodes, b.nodes) == ((0, 1), (0, 2, 1))
    trivial = RootedPath.trivial(inst)
    assert farthest_node(inst, trivial) == 0
    # the trivial path itself is split into itself, twice
    first, second = preprocess_path_pair(inst, trivial)
    assert first is second and first.nodes == (0,)


def test_preprocess_path_pair_contract():
    inst = random_instance(8, 13)
    rng = random.Random(3)
    for _ in range(60):
        perm = rng.sample(range(1, 8), rng.randint(1, 7))
        p = RootedPath.build(inst, [0] + perm)
        a, b = preprocess_path_pair(inst, p)
        v = farthest_node(inst, p)
        assert a.end == v and b.end == v
        assert a.node_set | b.node_set == p.node_set
        assert a.regret <= p.regret and b.regret <= p.regret
        assert a.cost <= p.cost and b.cost <= p.cost


def test_shortcut_keeps_subsequence():
    inst = line_instance()
    p = RootedPath.build(inst, [0, 1, 2, 3])
    q = shortcut(inst, p, [3])
    assert q.nodes == (0, 3)
    assert q.regret <= p.regret
    with pytest.raises(ValueError):
        shortcut(inst, p, [7])


# --- zero-regret covers ---------------------------------------------------------

def test_tight_arcs_line():
    inst = line_instance()
    arcs = set(tight_arcs(inst))
    assert (0, 1) in arcs and (1, 2) in arcs and (2, 3) in arcs
    assert (2, 1) not in arcs
    # every direct hop from the root is tight by definition of D
    assert all((0, v) in arcs for v in inst.clients)


def test_zero_regret_cover_line_single_path():
    inst = line_instance()
    paths = zero_regret_cover(inst, inst.clients)
    assert len(paths) == 1
    assert paths[0].nodes == (0, 1, 2, 3)


def test_zero_regret_cover_star_needs_all_singletons():
    star = star_instance()
    paths = zero_regret_cover(star, star.clients)
    assert len(paths) == 4
    assert all(p.regret == 0 for p in paths)


def test_zero_regret_cover_subset_targets():
    inst = line_instance()
    paths = zero_regret_cover(inst, [3])
    assert len(paths) == 1
    assert 3 in paths[0].node_set
    assert zero_regret_cover(inst, []) == []


def test_zero_regret_cover_minimum_on_randoms():
    # cover size equals the number of paths peeled, never more than clients
    for seed in range(10):
        inst = random_instance(6, seed)
        paths = zero_regret_cover(inst, inst.clients)
        assert all(p.regret == 0 for p in paths)
        covered = set().union(*(p.node_set for p in paths))
        assert covered >= set(inst.clients)
        assert len(paths) <= len(inst.clients)


def test_zero_regret_cover_matches_the_two_network_oracle():
    # Random metrics and points on a coarse grid have many tight arcs, so
    # paths chain through several clients and the peel order matters.
    covers = chained = 0
    for n in range(5, 17):
        for seed in range(9):
            for inst in (gen_random_metric(n, seed),
                         gen_euclidean(n, seed, scale=8)):
                for targets in (inst.clients, inst.clients[::2]):
                    paths = zero_regret_cover(inst, targets)
                    ref = flow_reference.zero_regret_cover(inst, targets)
                    assert [p.nodes for p in paths] == \
                        [p.nodes for p in ref], (inst.meta, targets)
                    covers += 1
                    chained += len(paths) < len(targets)
    assert covers >= 400 and chained >= covers // 2


def test_cover_check_survives_optimized_python(src_env):
    # A circulation whose flow the peel cannot follow covers nothing; the
    # coverage check must refuse that even with asserts compiled out.
    import subprocess
    import sys
    script = (
        "from regret_route import flows\n"
        "from regret_route.core import Instance, SolverError, "
        "zero_regret_cover\n"
        "assert False, 'asserts are live'\n"
        "solve = flows.MinCostCirculation.solve\n"
        "def no_flow(self):\n"
        "    cost, flow = solve(self)\n"
        "    return cost, [0] * len(flow)\n"
        "flows.MinCostCirculation.solve = no_flow\n"
        "inst = Instance.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])\n"
        "try:\n"
        "    print(zero_regret_cover(inst, inst.clients))\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ("SolverError: zero-regret cover left "
                                  "targets [1, 2] uncovered")


# --- deadlines ------------------------------------------------------------------

def test_deadlines_per_mode():
    # Clients at D = 3 and 4: ratio 3/2 gives floor(4.5) = 4 and 6.
    inst = line_instance((0, 3, 4))
    assert deadlines(inst, "rvrp", 2) == {1: 5, 2: 6}
    assert deadlines(inst, "nonuniform", {1: 0, "2": 7}) == {1: 3, 2: 11}
    assert deadlines(inst, "multiplicative", "3/2") == {1: 4, 2: 6}
    assert deadlines(inst, "multiplicative", 1) == {1: 3, 2: 4}
    # a cap below a client's D is no error here: the client is just late
    assert deadlines(inst, "dvrp", 3) == {1: 3, 2: 3}
    assert deadlines(Instance.from_matrix([[0]]), "rvrp", 0) == {}


@pytest.mark.parametrize("mode, param, error, message", [
    ("rvrp", -1, ValueError, "regret bound must be nonnegative"),
    ("rvrp", 1.5, InvalidInstanceError, "non-integer regret bound"),
    ("nonuniform", {1: 1}, ValueError, "missing regret bound for node 2"),
    ("multiplicative", "1/2", ValueError,
     "multiplicative bound must be at least 1"),
    ("multiplicative", 0, ValueError,
     "multiplicative bound must be at least 1"),
    ("dvrp", 2.5, InvalidInstanceError, "non-integer distance cap"),
    ("dvrp", "5", InvalidInstanceError, "non-integer distance cap"),
    ("rvrp", np.True_, InvalidInstanceError, "non-integer regret bound"),
    ("nonuniform", {1: 1, 2: b"1"}, InvalidInstanceError,
     "non-integer regret bound of node 2"),
    ("nonuniform", {1: 1, "1": 2, 2: 1}, ValueError,
     "two regret bounds for node 1"),
    ("walks", 1, ValueError, "unknown verification mode 'walks'"),
], ids=["negative-regret", "fractional-regret", "missing-bound",
        "ratio-half", "ratio-zero", "fractional-cap", "string-cap",
        "numpy-bool-regret", "bytes-bound", "two-bounds-one-node",
        "unknown-mode"])
def test_deadlines_refuse_what_the_solvers_refuse(mode, param, error,
                                                  message):
    with pytest.raises(error, match=message):
        deadlines(line_instance((0, 3, 4)), mode, param)


def test_parameter_checks():
    assert check_regret(0) == 0 and check_regret(4.0) == 4
    assert check_path_budget(1) == 1
    with pytest.raises(ValueError, match="^regret bound must be nonneg"):
        check_regret(-1)
    with pytest.raises(ValueError, match="^path budget must be at least 1"):
        check_path_budget(0)
    with pytest.raises(InvalidInstanceError, match="^boolean path budget"):
        check_path_budget(True)
    with pytest.raises(InvalidInstanceError, match="^non-integer path budg"):
        check_path_budget("2")
    with pytest.raises(InvalidInstanceError, match="^non-integer regret bou"):
        check_regret(" 7 ")


def test_require_deadlines_checks_every_visit():
    inst = line_instance()
    on_time = [RootedPath.build(inst, [0, 1, 2, 3])]
    deadline = deadlines(inst, "rvrp", 0)
    require_deadlines(inst, on_time, deadline, "missed {}")
    # client 1 is on time on the first path and late on the second
    late = on_time + [RootedPath.build(inst, [0, 2, 1])]
    with pytest.raises(SolverError, match="^node 1 visited too late$"):
        require_deadlines(inst, late, deadline, "missed {}")
    with pytest.raises(SolverError, match=r"^missed \[2, 3\]$"):
        require_deadlines(inst, [RootedPath.build(inst, [0, 1])], deadline,
                          "missed {}")
    # a visit to a node without a deadline is always late
    with pytest.raises(SolverError, match="^node 3 visited too late$"):
        require_deadlines(inst, on_time, {1: 1, 2: 2}, "missed {}")


def test_no_bare_asserts_in_the_package():
    # Certificates must survive ``python -O``, which strips every assert:
    # the package checks with core.require and typed errors instead.
    package = Path(regret_route.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_harness_summarises_a_cover():
    # harness.run_solver writes a cover's count and regrets once, from the
    # paths it returns; a solver reports only what it alone knows.
    summary = {"path_count", "max_regret", "total_regret"}
    package = Path(regret_route.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10

    def names(node):
        if isinstance(node, ast.keyword):
            return [node.arg]
        if isinstance(node, ast.Dict):
            return [k.value for k in node.keys if isinstance(k, ast.Constant)]
        if isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.slice, ast.Constant):
            return [node.slice.value]
        if isinstance(node, ast.Call) and node.args and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "setdefault" and \
                isinstance(node.args[0], ast.Constant):
            return [node.args[0].value]
        return []

    found = [f"{path.name}:{node.lineno} {name}" for path in modules
             if path.name != "harness.py"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in names(node) if name in summary]
    assert found == []


def test_no_unused_imports_in_the_package():
    # An import no name in its module reads is left over from removed code.
    package = Path(regret_route.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  for name in [alias.asname or alias.name.split(".")[0]]
                  if name not in read]
    assert found == []


# --- closure / serialization ----------------------------------------------

def test_metric_from_edges_closure():
    d = metric_from_edges(3, [(0, 1, 5), (1, 2, 1), (0, 2, 9)])
    assert d[0][2] == 6
    with pytest.raises(InvalidInstanceError):
        metric_from_edges(3, [(0, 1, 5)])
    with pytest.raises(InvalidInstanceError,
                       match=r"^non-integer edge weight: 1\.5$"):
        metric_from_edges(3, [(0, 1, 1.5), (1, 2, 1), (0, 2, 2)])


def test_induced_instance_maps_ids():
    inst = line_instance()
    sub, ids = induced_instance(inst, [3, 1])
    assert ids == [0, 1, 3]
    assert sub.n == 3
    assert sub.dist[1][2] == inst.dist[1][3]


def test_out_of_range_ids_and_negative_weights_are_refused():
    with pytest.raises(InvalidInstanceError,
                       match=r"^negative edge weight on \(1,2\)$"):
        metric_from_edges(3, [(0, 1, 5), (1, 2, -1)])
    inst = line_instance()
    for bad in ([4], [-1], [1, 9]):
        with pytest.raises(ValueError, match="^target node out of range$"):
            zero_regret_cover(inst, bad)
        with pytest.raises(ValueError, match="^node id out of range$"):
            induced_instance(inst, bad)


def test_solution_round_trip():
    inst = line_instance()
    p = RootedPath.build(inst, [0, 1, 2])
    d = solution_to_dict([p], stats={"note": 1})
    assert d["paths"] == [[0, 1, 2]]
    assert d["regrets"] == [0]
    assert d["stats"] == {"note": 1}
    assert solution_from_dict(d) == [[0, 1, 2]]
