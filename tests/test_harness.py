"""Generators, exact oracles, the verifier, and the experiment runner."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import hk_reference
import oracle_reference
import verify_reference
from regret_route.core import (InfeasibleError, Instance, InvalidInstanceError,
                               SolverError)
from regret_route.harness import (
    ORACLES,
    SOLVERS,
    Solver,
    VERIFY_MODES,
    _oracle_value,
    _verify_mode,
    brute_force_dvrp,
    brute_force_krvrp,
    brute_force_rvrp,
    gen_euclidean,
    gen_ladder,
    gen_line,
    gen_random_metric,
    lp_oracle,
    reports_to_jsonl,
    run_job,
    run_solver,
    run_suite,
    verify,
)
from regret_route.lp import solve_rvrp_lp
from test_acceptance import LP_TOL
from regret_route.pricing import (DEFAULT_EXACT_THRESHOLD,
                                  OracleUnavailableError)


# --- generators -------------------------------------------------------------

def test_generators_deterministic():
    assert gen_ladder(3).dist == gen_ladder(3).dist
    assert gen_euclidean(6, 42).dist == gen_euclidean(6, 42).dist
    assert gen_random_metric(7, 7).dist == gen_random_metric(7, 7).dist
    assert gen_euclidean(6, 42).dist != gen_euclidean(6, 43).dist
    assert gen_random_metric(7, 7).dist != gen_random_metric(7, 8).dist


def test_generators_are_clean_metrics():
    for seed in range(50):
        for inst in (gen_euclidean(5 + seed % 4, seed),
                     gen_random_metric(5 + seed % 4, seed)):
            d = inst.dist
            n = inst.n
            for i in range(n):
                assert d[i][i] == 0
                for j in range(n):
                    assert d[i][j] == d[j][i] >= 0
                    for k in range(n):
                        assert d[i][j] <= d[i][k] + d[k][j]
            # distinct nodes are never co-located
            assert all(d[i][j] > 0 for i in range(n) for j in range(n)
                       if i != j)


def test_ladder_meta_carries_canonical_solution():
    inst = gen_ladder(2)
    paths = inst.meta["canonical_paths"]
    covered = set().union(*(set(p[1:]) for p in paths))
    assert covered == set(inst.clients)
    num, den = inst.meta["canonical_weight"]
    assert 0 < num <= den


@pytest.mark.parametrize("make, args, name", [
    (gen_ladder, (1.5,), "ladder height"),
    (gen_ladder, (2, 1.5), "ladder copies"),
    (gen_euclidean, (4.5, 1), "node count"),
    (gen_random_metric, (3.5, 1), "node count"),
    (gen_line, ([0, 1.5],), "line position"),
    (lambda *a: oracle_reference.brute_force_lp(gen_line([0, 1, 2]), *a),
     (2.5,), "budget"),
    (gen_euclidean, (5, 1, 2.5), "scale"),
    (gen_random_metric, (5, 1, 2.5), "max edge"),
])
def test_non_integer_generator_arguments_are_named(make, args, name):
    with pytest.raises(InvalidInstanceError, match=f"^non-integer {name}: "):
        make(*args)


def test_generator_ranges_are_checked():
    for make, arg, message in ((gen_euclidean, {"scale": 0}, "scale"),
                               (gen_random_metric, {"max_edge": 0},
                                "max edge")):
        with pytest.raises(ValueError, match=f"^{message} must be positive"):
            make(5, 1, **arg)
    for h, c in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="^ladder parameters must be "
                                             "at least 1$"):
            gen_ladder(h, c)
    for make in (gen_euclidean, gen_random_metric):
        with pytest.raises(ValueError, match="^need at least two nodes$"):
            make(1, 0)
    assert gen_random_metric(5, 1, max_edge=4.0).meta["max_edge"] == 4
    assert type(gen_euclidean(5, 1, scale=8.0).meta["scale"]) is int


def test_gen_line_rejects_bad_positions():
    with pytest.raises(ValueError):
        gen_line([0])               # need at least one client
    with pytest.raises(ValueError):
        gen_line([0, 2, 2])         # positions must be distinct
    # the root may sit anywhere on the line
    mid = gen_line([5, 2, 9])
    assert mid.root_dist == (0, 3, 4)


# --- exact oracles ------------------------------------------------------------

def partition_oracle(inst, feasible_block):
    """Minimum blocks over all client partitions with feasible blocks.

    Tries every set partition and, per block, every visiting order —
    brutally exhaustive, so only run it on a handful of clients.
    """
    clients = list(inst.clients)

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
            yield [[head]] + sub

    best = None
    for part in partitions(clients):
        if all(feasible_block(b) for b in part):
            if best is None or len(part) < best:
                best = len(part)
    return best


def best_block_regret(inst, block):
    D, dist = inst.root_dist, inst.dist
    best = None
    for order in itertools.permutations(block):
        cost = 0
        u = inst.root
        for v in order:
            cost += dist[u][v]
            u = v
        reg = cost - D[order[-1]]
        if best is None or reg < best:
            best = reg
    return best


def best_block_length(inst, block):
    D, dist = inst.root_dist, inst.dist
    best = None
    for order in itertools.permutations(block):
        cost = 0
        u = inst.root
        for v in order:
            cost += dist[u][v]
            u = v
        if best is None or cost < best:
            best = cost
    return best


def test_oracles_agree_with_partition_search():
    for seed in range(12):
        inst = gen_random_metric(5, 2000 + seed)
        maxd = max(inst.root_dist)
        for R in (0, 1, maxd):
            expect = partition_oracle(
                inst, lambda b: best_block_regret(inst, b) <= R)
            assert brute_force_rvrp(inst, R) == expect
        for cap in (maxd, maxd + 2):
            expect = partition_oracle(
                inst, lambda b: best_block_length(inst, b) <= cap)
            assert brute_force_dvrp(inst, cap) == expect
        for k in (1, 2, 3):
            regrets = []
            clients = list(inst.clients)
            # worst block regret, minimized over partitions into <= k blocks
            def search(part):
                if all(len(p) for p in part):
                    regrets.append(max(best_block_regret(inst, b)
                                       for b in part))
            for assign in itertools.product(range(k), repeat=len(clients)):
                part = [[c for c, a in zip(clients, assign) if a == i]
                        for i in range(k)]
                part = [p for p in part if p]
                search(part)
            assert brute_force_krvrp(inst, k) == min(regrets)


def test_oracle_frozen_values():
    line = gen_line([0, 1, 2])
    assert brute_force_rvrp(line, 0) == 1
    assert brute_force_dvrp(line, 2) == 1
    ladder = gen_ladder(2)
    assert brute_force_rvrp(ladder, 1) == 2
    star = Instance.from_matrix(
        [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(5)]
         for i in range(5)])
    assert brute_force_dvrp(star, 1) == 4
    assert brute_force_krvrp(star, 4) == 0
    # one path per client is always regret-free
    rand = gen_random_metric(6, 77)
    assert brute_force_krvrp(rand, len(rand.clients)) == 0
    # table-backed values reach JSON reports: plain ints, never numpy scalars
    for value in (brute_force_rvrp(line, 0), brute_force_dvrp(line, 2),
                  brute_force_krvrp(rand, 2)):
        assert type(value) is int


def test_oracle_rvrp_single_path_when_budget_huge():
    for seed in range(5):
        inst = gen_random_metric(6, 2100 + seed)
        total = sum(map(max, inst.dist))
        assert brute_force_rvrp(inst, total) == 1
        assert brute_force_dvrp(inst, total) == 1


def test_oracle_infeasible_and_limits():
    with pytest.raises(InfeasibleError):
        brute_force_dvrp(gen_line([0, 1, 5]), 3)
    big = gen_random_metric(8, 3)
    with pytest.raises(OracleUnavailableError):
        brute_force_rvrp(big, 1, exact_threshold=5)
    with pytest.raises(OracleUnavailableError):
        lp_oracle(big, 1, exact_threshold=5)
    with pytest.raises(ValueError):
        brute_force_rvrp(big, -1)
    with pytest.raises(ValueError):
        brute_force_krvrp(big, 0)
    with pytest.raises(ValueError):
        lp_oracle(big, 1, kind="speed")


def test_lp_oracle_refusals_and_empty_instance(monkeypatch):
    line = gen_line([0, 1, 2])
    with pytest.raises(ValueError, match="^regret bound must be "
                                         "nonnegative$"):
        lp_oracle(line, -1)
    with pytest.raises(InvalidInstanceError,
                       match="^non-integer regret bound: "):
        lp_oracle(line, 2.5)
    empty = Instance.from_matrix([[0]])
    assert lp_oracle(empty, 0) == 0
    # with no client no path is needed
    for oracle in (brute_force_rvrp, brute_force_dvrp, brute_force_krvrp):
        assert oracle(empty, 1) == 0
    # client 2 lies 5 from the root, beyond a length budget of 3
    with pytest.raises(InfeasibleError, match=r"^nodes \[2\] lie beyond "
                                              r"distance 3 from the root$"
                       ) as exc:
        lp_oracle(gen_line([0, 1, 5]), 3, kind="length")
    assert exc.value.nodes == (2,)
    # a value without its certificate is no oracle value
    from regret_route import harness
    sol = solve_rvrp_lp(line, 0)
    sol.certified = False
    monkeypatch.setattr(harness, "solve_rvrp_lp", lambda *a, **k: sol)
    with pytest.raises(SolverError, match="^the LP value is not certified$"):
        lp_oracle(line, 0)


def test_lp_oracle_frozen_values():
    ladder = gen_ladder(2)
    assert lp_oracle(ladder, 1, "regret") == Fraction(3, 2)
    assert lp_oracle(ladder, 10 ** 6, "regret") == 1
    line = gen_line([0, 1, 2])
    assert lp_oracle(line, 0, "regret") == 1
    assert lp_oracle(line, 2, "length") == 1


def test_lp_oracle_matches_the_enumerated_lp():
    # oracle_reference.brute_force_lp enumerates every rooted path and
    # solves the LP over the maximal sets with scipy, in floats.
    ladder, line = gen_ladder(2), gen_line([0, 1, 2])
    for inst, bound, kind in ((ladder, 1, "regret"),
                              (ladder, 10 ** 6, "regret"),
                              (line, 0, "regret"), (line, 2, "length")):
        want = oracle_reference.brute_force_lp(inst, bound, kind)
        assert abs(lp_oracle(inst, bound, kind) - want) <= LP_TOL


def test_count_oracles_match_the_reference_cover_dp():
    # The count oracles cover with the maximal masks of pricing's plan;
    # oracle_reference._cover_count runs the 3^m submask DP over every
    # mask's feasibility, read here from the plain-loop Held-Karp table.
    cover = oracle_reference._cover_count
    for n in range(3, 12):
        for inst in (gen_euclidean(n, 4100 + n),
                     gen_random_metric(n, 4200 + n)):
            ref = hk_reference.ReferenceTable(inst)
            regrets, lengths = ref.min_regret[1:], ref.min_length[1:]
            maxd = max(inst.root_dist)
            for R in (0, 1, maxd // 4, maxd // 2, maxd, 4 * maxd):
                assert brute_force_rvrp(inst, R) == cover(regrets, R), R
            for cap in (maxd, maxd + maxd // 4, maxd + maxd // 2, 2 * maxd,
                        4 * maxd):
                assert brute_force_dvrp(inst, cap) == cover(lengths, cap)
            # cover counts fall as the bound rises, so the least feasible
            # regret is the one within k whose next lower regret is not
            values = sorted(set(regrets))
            for k in (1, 2, 3):
                got = brute_force_krvrp(inst, k)
                assert got in values and cover(regrets, got) <= k, k
                lower = [v for v in values if v < got]
                assert not lower or cover(regrets, lower[-1]) > k, k


# --- verifier ------------------------------------------------------------------

def test_verify_accepts_plain_sequences():
    inst = gen_line([0, 1, 2])
    report = verify(inst, [[0, 1, 2]], "rvrp", {"regret": 0})
    assert report["ok"]
    assert report["stats"] == {"paths": 1, "covered": 2, "max_length": 2,
                               "max_regret": 0, "total_regret": 0}


def test_verify_flags_each_failure_kind():
    inst = gen_line([0, 1, 2, 4])
    report = verify(inst, [[0, 1]], "rvrp", {"regret": 0})
    kinds = {f["kind"] for f in report["failures"]}
    assert not report["ok"] and kinds == {"coverage"}
    assert {f["node"] for f in report["failures"]} == {2, 3}

    report = verify(inst, [[0, 2, 1, 3]], "rvrp", {"regret": 0})
    assert {f["kind"] for f in report["failures"]} == {"regret"}
    # doubling back to 1 delays both it and everything after it
    assert {f["node"] for f in report["failures"]} == {1, 3}

    report = verify(inst, [[1, 0, 2, 3]], "rvrp", {"regret": 9})
    kinds = {f["kind"] for f in report["failures"]}
    assert "structure" in kinds

    report = verify(inst, [[0, 1, 1, 2, 3]], "rvrp", {"regret": 9})
    assert any(f["detail"] == "repeated node" for f in report["failures"])

    report = verify(inst, [[0, 1, 2, 3]], "dvrp", {"dist": 3})
    assert {f["kind"] for f in report["failures"]} == {"length"}

    report = verify(inst, [[0, 3, 1, 2]], "multiplicative", {"ratio": 1})
    assert "visit_time" in {f["kind"] for f in report["failures"]}

    report = verify(inst, [[0, 2, 1, 3]], "nonuniform",
                    {"bounds": {1: 0, 2: 0, 3: 2}})
    assert {f["node"] for f in report["failures"]} == {1}

    with pytest.raises(ValueError):
        verify(inst, [[0, 1]], "walks", {})


def test_verify_flags_node_ids_out_of_range():
    # The path is a structure failure and adds no visit: its in-range
    # client is still uncovered.
    inst = gen_line([0, 1, 2])
    for bad in (3, -1):
        report = verify(inst, [[0, 1, bad], [0, 2]], "rvrp", {"regret": 9})
        assert report["failures"] == [
            {"kind": "structure", "path": 0,
             "detail": "node id out of range"},
            {"kind": "coverage", "node": 1,
             "detail": "client not visited by any path"}]


@pytest.mark.parametrize("mode, key", [("rvrp", "regret"), ("dvrp", "dist"),
                                       ("multiplicative", "ratio"),
                                       ("nonuniform", "bounds")])
def test_verify_without_its_parameter_is_refused(mode, key):
    inst = gen_line([0, 1])
    for params in (None, {}, {key: None}):
        with pytest.raises(ValueError, match=f"{mode!r} requires the {key!r}"):
            verify(inst, [[0, 1]], mode, params)


def test_verify_refuses_a_parameter_its_mode_does_not_read():
    # Like run_solver, verify names every key but its mode's own, after the
    # missing-key check, even when the paths would pass: a malformed ratio
    # that rvrp never reads is not dropped.
    inst = gen_line([0, 1])
    params = {"regret": 20, "dist": 5, "ratio": "1/0"}
    with pytest.raises(ValueError, match="^verification mode 'rvrp' takes "
                                         "no parameter 'dist', 'ratio'$"):
        verify(inst, [[0, 1]], "rvrp", params)
    for mode, (key, _) in VERIFY_MODES.items():
        value = {"bounds": {1: 0}}.get(key, 1)
        assert verify(inst, [[0, 1]], mode, {key: value})["ok"]
        with pytest.raises(ValueError, match=f"^verification mode {mode!r} "
                                             f"takes no parameter 'k'$"):
            verify(inst, [[0, 1]], mode, {key: value, "k": 2})


def test_verify_recomputes_from_the_matrix():
    inst = gen_line([0, 1, 2])
    report = verify(inst, [(0, 1), (0, 2)], "rvrp", {"regret": 0})
    assert report["ok"]          # direct hops have regret 0
    report = verify(inst, [(0, 2, 1)], "rvrp", {"regret": 0})
    assert not report["ok"]      # doubling back costs 3 - 1 = 2
    assert report["failures"][0]["kind"] == "regret"


@pytest.mark.parametrize("mode, param", [
    ("rvrp", 0), ("dvrp", 4), ("multiplicative", 1),
    ("nonuniform", {1: 0, 2: 0, 3: 0})])
def test_verify_checks_every_visit(mode, param):
    # Client 1 is reached on time by the first path and late by the second,
    # which goes out to 3 first.  Every visit must meet the deadline, not
    # only the first; the old first-visit checks passed this but for dvrp,
    # where the late visit is the end of an overlong path.
    inst = gen_line([0, 1, 2, 4])
    paths = [[0, 1, 2, 3], [0, 3, 1]]
    params = {VERIFY_MODES[mode][0]: param}
    assert verify(inst, paths[:1], mode, params)["ok"]
    report = verify(inst, paths, mode, params)
    kind = VERIFY_MODES[mode][1]
    assert [(f["kind"], f.get("node"), f.get("path"))
            for f in report["failures"]] == \
        [(kind, None, 1) if mode == "dvrp" else (kind, 1, None)]
    assert verify_reference.verify(inst, paths, mode, params)["ok"] == \
        (mode != "dvrp")


def _failing(report):
    return sorted((f["kind"], f.get("node", -1), f.get("path", -1))
                  for f in report["failures"])


def test_verify_agrees_with_the_per_mode_checks():
    # With each client on at most one path, every visit is a first visit,
    # so the deadline rule must fail exactly the nodes and paths that the
    # four per-mode checks failed.
    rng = random.Random(2113)
    modes = list(VERIFY_MODES)
    outcomes = set()
    for trial in range(400):
        gen = gen_euclidean if trial % 2 else gen_random_metric
        inst = gen(rng.randint(2, 10), 7000 + trial)
        maxd = max(inst.root_dist)
        left = [v for v in inst.clients if rng.random() < 0.9]
        rng.shuffle(left)
        paths = []
        while left:
            cut = rng.randint(1, len(left))
            chunk, left = left[:cut], left[cut:]
            if rng.random() < 0.5:
                chunk.sort(key=lambda v: inst.root_dist[v])
            paths.append([inst.root] + chunk)
        if paths and rng.random() < 0.1:
            paths.append(paths[-1][1:])          # not rooted: structure
        mode = modes[trial % len(modes)]
        param = {"rvrp": rng.randint(0, maxd),
                 "dvrp": rng.randint(maxd, 3 * maxd),
                 "multiplicative": Fraction(rng.randint(8, 32), 8),
                 "nonuniform": {v: rng.randint(0, maxd)
                                for v in inst.clients}}[mode]
        params = {VERIFY_MODES[mode][0]: param}
        new = verify(inst, paths, mode, params)
        old = verify_reference.verify(inst, paths, mode, params)
        assert (new["ok"], _failing(new)) == (old["ok"], _failing(old)), \
            (trial, mode, param, paths)
        outcomes.add((mode, new["ok"]))
    assert outcomes == {(mode, ok) for mode in modes for ok in (True, False)}


# --- runner ----------------------------------------------------------------------

def test_run_job_report_shape():
    inst = gen_random_metric(6, 55)
    job = {"id": "t-0", "solver": "rvrp", "instance": inst,
           "params": {"regret": 1}, "oracle": True}
    report = run_job(job, timings=True)
    for key in ("id", "solver", "n", "params", "count", "rounded_count",
                "total_regret", "max_regret", "max_length", "ok", "failures",
                "lp_value", "lp_certified", "lp_rounds", "lp_pivots",
                "lp_columns", "subsolves", "oracle", "ratio", "wall_ms"):
        assert key in report, key
    # the LP is certified and integral: its support is returned, unrounded
    assert "bound_checks" not in report
    assert report["rounded_count"] == report["lp_value"]
    assert report["ok"] and not report["failures"]
    assert report["count"] <= report["rounded_count"]
    assert report["lp_certified"] is True
    assert report["subsolves"] == 0           # rvrp reduces to nothing
    lp = solve_rvrp_lp(inst, 1)
    assert ((report["lp_rounds"], report["lp_pivots"], report["lp_columns"])
            == (lp.rounds, lp.pivots, len(lp.columns)))
    assert lp.rounds >= 1 and lp.pivots >= 1
    assert report["count"] >= report["oracle"] >= 1
    assert type(report["oracle"]) is int
    assert report["ratio"] == round(report["count"] / report["oracle"], 6)
    json.dumps(report)            # must be serializable as-is
    # krvrp's cover is not merged, so it has no count of its own to report;
    # its LP is always rounded
    krvrp = run_job({**job, "id": "t-k", "solver": "krvrp",
                     "params": {"k": 2}})
    assert krvrp["ok"] and "rounded_count" not in krvrp
    assert all(c["ok"] for c in krvrp["bound_checks"].values())


def test_run_job_without_oracle_or_timings():
    inst = gen_line([0, 1, 2])
    report = run_job({"id": "t-1", "solver": "mult", "instance": inst,
                      "params": {"ratio": "3/2"}})
    assert report["ok"]
    assert "oracle" not in report and "wall_ms" not in report
    assert report["params"] == {"ratio": "3/2"}


def test_run_job_leaves_out_an_oracle_over_its_limit():
    # 13 clients, one over the job's exact threshold: the job asks for its
    # oracle and gets a report without one. At the default threshold the
    # same job gets its oracle.
    inst = gen_euclidean(14, 3)
    assert len(inst.clients) == 13
    job = {"id": "t-2", "solver": "rvrp", "instance": inst,
           "params": {"regret": 0, "exact_threshold": 12}, "oracle": True}
    report = run_job(job)
    assert report["ok"]
    assert "oracle" not in report and "ratio" not in report
    job["params"] = {"regret": 0}
    report = run_job(job)
    assert report["ok"] and report["oracle"] == report["count"]


def _colocated(inst, copies, root=0):
    """inst plus a copy of each node in copies, at distance 0 from it."""
    ids = list(range(inst.n)) + list(copies)
    return Instance.from_matrix([[inst.dist[u][v] for v in ids] for u in ids],
                                root=root)


# Co-located clients; in the last instance the root is node 6, a copy of
# client 1, so a client with a smaller id sits on the root.
COLOCATED = [Instance.from_matrix([[0, 3, 3], [3, 0, 0], [3, 0, 0]]),
             _colocated(gen_euclidean(5, 4), [2, 3, 3]),
             _colocated(gen_random_metric(6, 4), [1, 4], root=6)]


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solver_table_row(solver):
    # Each row runs, verifies under its own mode and has an oracle exactly
    # when the table names one; the oracle bounds the field it measures.
    # On co-located clients every row verifies at its tightest budget, and
    # the zero-regret covers are as small as the oracle's.
    inst = gen_euclidean(7, 4)
    assert len(inst.clients) == 6
    maxd = max(inst.root_dist)
    key = SOLVERS[solver].param
    params = {key: {"regret": maxd // 2, "dist": maxd + maxd // 2,
                    "ratio": "3/2", "k": 2,
                    "bounds": {v: v % 3 for v in inst.clients}}[key]}
    paths = run_solver(solver, inst, params)
    mode, vparams = _verify_mode(solver, params, paths)
    assert verify(inst, paths, mode, vparams)["ok"]
    opt = _oracle_value(solver, inst, params)
    assert (opt is not None) == (solver in ("rvrp", "dvrp-dp", "dvrp-lp",
                                            "krvrp"))
    if opt is not None:
        measured = {"count": len(paths),
                    "max_regret": max(p.regret for p in paths)}
        field = ORACLES[SOLVERS[solver].verify_mode or solver][2]
        assert measured[field] >= opt
    for inst in COLOCATED:
        params = {key: {"regret": 0, "dist": max(inst.root_dist),
                        "ratio": 1, "k": 2,
                        "bounds": dict.fromkeys(inst.clients, 0)}[key]}
        paths = run_solver(solver, inst, params)
        mode, vparams = _verify_mode(solver, params, paths)
        assert verify(inst, paths, mode, vparams)["ok"]
        if key in ("regret", "ratio", "bounds"):
            assert len(paths) == brute_force_rvrp(inst, 0)


def test_each_verified_row_names_a_mode_with_its_parameter():
    # run_job and the CLI look a row's verify mode up by name and hand it
    # the row's parameter, so the two tables must agree on it.
    for name, row in SOLVERS.items():
        if row.verify_mode is not None:
            assert VERIFY_MODES[row.verify_mode][0] == row.param, name
    assert {row.verify_mode for row in SOLVERS.values()} == \
        {*VERIFY_MODES, None}


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_every_return_reports_path_count(monkeypatch, solver):
    # On an instance without clients, at the zero budgets that skip the LP
    # (R = 0, ratio 1, all-zero bounds) and through the LP alike, run_solver
    # summarises the returned paths and counts the sub-instance solves.
    from regret_route import reductions
    solve, calls = reductions.solve_rvrp, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(reductions, "solve_rvrp", counting)
    line = gen_line([0, 1, 2, 4])
    key = SOLVERS[solver].param
    values = {"regret": [0, 2], "dist": [4, 6], "ratio": [1, "3/2"],
              "k": [1, 2], "bounds": [dict.fromkeys(line.clients, 0),
                                      {1: 1, 2: 2, 3: 0}]}[key]
    for inst in (Instance.from_matrix([[0]]), line):
        for value in values:
            if key == "bounds":         # only clients take a bound
                value = {v: value[v] for v in inst.clients}
            diag: dict = {}
            calls.clear()
            paths = run_solver(solver, inst, {key: value}, diagnostics=diag)
            regrets = [p.regret for p in paths]
            want = {"path_count": len(paths),
                    "max_regret": max(regrets, default=0),
                    "total_regret": sum(regrets),
                    "max_length": max((p.cost for p in paths), default=0),
                    "subsolves": sum(sub is not inst for sub in calls)}
            assert {k: diag[k] for k in want} == want, (inst.n, value)


def test_non_integer_parameters_are_named():
    inst = gen_line([0, 1, 2, 4])
    for solver, value, name in (
            ("rvrp", 2.5, "regret bound"), ("dvrp-dp", 6.5, "distance cap"),
            ("dvrp-lp", 6.5, "distance cap"), ("krvrp", 1.5, "path budget"),
            ("nonuniform", {1: 1, 2: 2.5, 3: 1}, "regret bound of node 2"),
            ("krvrp", True, "path budget"), ("rvrp", "2", "regret bound"),
            ("rvrp", np.True_, "regret bound"),
            ("nonuniform", {1: 1, 2: "2", 3: 1}, "regret bound of node 2")):
        with pytest.raises(InvalidInstanceError,
                           match=f"^(non-integer|boolean) {name}"):
            run_solver(solver, inst, {SOLVERS[solver].param: value})
    # A threshold is refused before any work; None is the default.
    for value in ("16", 16.5, True, np.True_):
        with pytest.raises(InvalidInstanceError,
                           match="^(non-integer|boolean) exact threshold"):
            run_solver("rvrp", inst, {"regret": 10, "exact_threshold": value})
    assert len(run_solver("rvrp", inst, {"regret": 10,
                                         "exact_threshold": None})) == 1
    for value in (2.0, np.int64(2)):
        assert run_solver("rvrp", inst, {"regret": 10,
                                         "exact_threshold": value})


def test_malformed_ratios_are_refused_by_value():
    # A bool, a non-finite float and a value that is no number are each a
    # ValueError that names the value, before any work.
    inst = gen_line([0, 1, 2, 4])
    for value, message in (
            (float("inf"), "multiplicative bound inf is not a finite number"),
            (float("-inf"), "multiplicative bound -inf is not a finite"),
            (float("nan"), "multiplicative bound nan is not a finite number"),
            ([3, 2], r"multiplicative bound \[3, 2\] is not a finite"),
            (b"3", "multiplicative bound b'3' is not a finite number"),
            ("three", "multiplicative bound 'three' is not a finite number"),
            (True, "boolean multiplicative bound True"),
            (np.True_, "multiplicative bound np.True_ is not a finite")):
        with pytest.raises(ValueError, match=f"^{message}"):
            run_solver("mult", inst, {"ratio": value})
    assert run_solver("mult", inst, {"ratio": 1.5})


def test_one_bound_per_node():
    # Keys are ints or decimal strings; two keys that name one node, or a
    # key that names none, are refused rather than folded into one bound.
    inst = gen_line([0, 1, 2, 4])
    for bounds, message in (
            ({1: 1, "1": 5, 2: 1, 3: 1}, "two regret bounds for node 1"),
            ({"2": 1, "02": 5, 1: 1, 3: 1}, "two regret bounds for node 2"),
            ({1.5: 3, 1: 1, 2: 1, 3: 1}, "regret bound key 1.5 is not"),
            ({True: 3, 2: 1, 3: 1}, "regret bound key True is not"),
            ({" 1": 3, 2: 1, 3: 1}, "regret bound key ' 1' is not")):
        with pytest.raises(ValueError, match=f"^{message}"):
            run_solver("nonuniform", inst, {"bounds": bounds})
    assert run_solver("nonuniform", inst,
                      {"bounds": {"1": 0, "+2": 0, 3: 0}})


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_missing_parameter_is_refused_by_name(solver):
    # As verify does: a ValueError naming the parameter, not a KeyError.
    inst = gen_line([0, 1, 2])
    key = SOLVERS[solver].param
    message = f"solver {solver!r} requires the {key!r} parameter"
    # the budget is checked before any other key is refused
    for params in ({}, {key: None}, {"threshold": "1/3"}, {"regert": 1}):
        with pytest.raises(ValueError, match=message):
            run_solver(solver, inst, params)
    with pytest.raises(ValueError, match=message):
        run_job({"id": "t", "solver": solver, "instance": inst,
                 "params": {}})


def test_solver_rows_take_no_rounding_threshold():
    # rvrp always rounds at the threshold that minimizes its bound.
    import inspect
    from regret_route import reductions
    assert Solver._fields == ("param", "function", "verify_mode")
    params = inspect.signature(reductions.solve_rvrp).parameters
    assert "threshold" not in params


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_unknown_parameters_are_refused_by_name(monkeypatch, solver):
    # A stale or misspelt key fails before any work instead of being
    # dropped; the budget and exact_threshold are the only keys a row reads.
    from regret_route import reductions
    inst = gen_line([0, 1, 2])
    row = SOLVERS[solver]
    budget = {row.param: {"regret": 1, "dist": 4, "ratio": "3/2", "k": 2,
                          "bounds": {1: 1, 2: 1}}[row.param]}
    assert run_solver(solver, inst, {**budget, "exact_threshold": None})

    def no_work(*args, **kwargs):
        raise RuntimeError("the solver was reached")

    monkeypatch.setattr(reductions, row.function, no_work)
    for extra, named in (({"threshold": "1/3"}, "'threshold'"),
                         ({"exact-threshold": 4}, "'exact-threshold'"),
                         ({"threshold": None, 7: 1}, "7, 'threshold'")):
        with pytest.raises(ValueError, match=f"^solver {solver!r} takes no "
                                             f"parameter {named}$"):
            run_solver(solver, inst, {**budget, **extra})


def test_unknown_solver_is_refused():
    inst = gen_line([0, 1, 2])
    with pytest.raises(ValueError, match="unknown solver"):
        run_solver("bogus", inst, {"regret": 1})
    with pytest.raises(ValueError, match="unknown solver"):
        _verify_mode("bogus", {"regret": 1}, [])


def test_run_solver_looks_the_solver_up_at_call_time(monkeypatch):
    # Tracers wrap a solver by rebinding its module global; run_solver must
    # call whatever that global holds now, not a function saved earlier.
    from regret_route import reductions
    solve, calls = reductions.solve_rvrp, []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(reductions, "solve_rvrp", counting)
    assert run_solver("rvrp", gen_line([0, 1, 2, 4]), {"regret": 1})
    assert calls == [1]


REDUCTION_JOBS = [
    ("mult", {"ratio": Fraction(3, 2)}),
    ("dvrp-dp", {"dist": 160}),
    ("dvrp-lp", {"dist": 160}),
    ("nonuniform", {"bounds": {v: 7 * v % 20 for v in range(1, 9)}}),
    ("krvrp", {"k": 2}),
]


@pytest.mark.parametrize("solver, params", REDUCTION_JOBS)
def test_subsolves_count_the_calls_on_sub_instances(monkeypatch, solver,
                                                     params):
    from regret_route import reductions
    inst = gen_euclidean(9, 21)
    solve, calls = reductions.solve_rvrp, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(reductions, "solve_rvrp", counting)
    report = run_job({"id": "sub", "solver": solver, "instance": inst,
                      "params": params})
    assert report["ok"]
    assert report["subsolves"] == len(calls)
    assert (len(calls) > 0) == (solver != "krvrp")
    assert all(sub is not inst for sub in calls)


def test_run_suite_deterministic():
    first = reports_to_jsonl(run_suite("smoke", seed=3))
    second = reports_to_jsonl(run_suite("smoke", seed=3))
    assert first == second
    assert len(first.splitlines()) == 28
    for line in first.splitlines():
        assert json.loads(line)["ok"]


def test_heuristic_suite_deterministic():
    # Every instance is above the exact threshold, so each LP is priced by
    # the heuristic and reported uncertified.
    first = reports_to_jsonl(run_suite("heuristic", seed=1))
    assert reports_to_jsonl(run_suite("heuristic", seed=1)) == first
    reports = [json.loads(line) for line in first.splitlines()]
    assert len(reports) == 9
    assert {r["solver"] for r in reports} == {"rvrp", "krvrp", "dvrp-lp"}
    for r in reports:
        assert r["ok"] and r["n"] - 1 > DEFAULT_EXACT_THRESHOLD
        assert r["lp_certified"] is False


# sha256 of each suite's seed-1 JSONL. A change that means to keep bench
# output byte-identical must leave these alone; one that changes it on
# purpose updates the digest and explains the difference.
SUITE_DIGESTS = {
    "smoke": "5cc18296b67d0390e897aaed146958cc9a27ed7032d6c2fabb3fb4ff52734370",
    "rvrp": "801d48c62cb1f6758bd33e959380578f2deb6c24efb15115e6f0d0cc5e7ec054",
    "caps": "cdefc1541ce815ec75ff5bff398c01d9754df98f963806ada4da4cc3cb8bd9b6",
    "heuristic":
        "f86459eae903a9b6149ef37d2035fab767efe4f9f4beb6ace7696742a56edbcd",
}


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_output_is_pinned(name):
    text = reports_to_jsonl(run_suite(name, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[name]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything")
