"""Derived solvers: distance caps, multiplicative bounds, per-node bounds,
k-path covers."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import dvrp_reference
from regret_route import reductions
from regret_route.core import (InfeasibleError, Instance, RootedPath,
                               induced_instance, regret_distance)
from regret_route.harness import (SOLVERS, brute_force_dvrp,
                                  brute_force_krvrp, brute_force_rvrp,
                                  gen_euclidean, gen_ladder, gen_line,
                                  gen_random_metric, run_solver, verify)
from regret_route.lp import DEFAULT_EXACT_THRESHOLD, solve_rvrp_lp
from regret_route.reductions import (
    _cover_subset,
    _prune_redundant,
    cover_lower_bound,
    dvrp_dp_state,
    solve_dvrp_dp,
    solve_dvrp_lp_round,
    solve_krvrp_minmax,
    solve_multiplicative,
    solve_nonuniform,
    solve_rvrp,
)


def test_regret_above_every_path_is_capped():
    # R past (n - 1) * max edge admits no other column, and is solved as
    # that cap: the same paths, rounded or not, and bound checks that stay
    # finite floats.
    inst = gen_euclidean(8, 4)
    cap = (inst.n - 1) * max(map(max, inst.dist))
    want = solve_rvrp(inst, cap, diagnostics={})
    diag = {}
    got = solve_rvrp(inst, 10 ** 320, diagnostics=diag)
    assert [p.nodes for p in got] == [p.nodes for p in want]
    checks = diag["bound_checks"].values()
    assert all(math.isfinite(c["bound"]) for c in checks)
    assert [p.nodes for p in solve_rvrp(inst, 10 ** 320)] == \
        [p.nodes for p in solve_rvrp(inst, cap)]


def star_instance(n=5):
    return Instance.from_matrix(
        [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(n)]
         for i in range(n)])


# --- base solver ---------------------------------------------------------------

def test_solve_rvrp_zero_regret_line():
    inst = gen_line([0, 1, 2])
    paths = solve_rvrp(inst, 0)
    assert len(paths) == 1
    assert paths[0].nodes == (0, 1, 2)


def test_solve_rvrp_validation_and_trivial():
    inst = gen_line([0, 1, 2])
    with pytest.raises(ValueError):
        solve_rvrp(inst, -1)
    empty = Instance.from_matrix([[0]])
    assert solve_rvrp(empty, 3) == []


def test_solve_rvrp_feasible_and_near_optimal():
    factor = 8 + 4 * math.sqrt(3)
    for seed in range(6):
        inst = gen_random_metric(7, 900 + seed)
        R = (1, 3, max(inst.root_dist))[seed % 3]
        diag = {}
        paths = solve_rvrp(inst, R, diagnostics=diag)
        report = verify(inst, paths, "rvrp", {"regret": R})
        assert report["ok"], report["failures"]
        assert len(paths) <= factor * diag["lp_value"] + 1 + 1e-9
        assert len(paths) <= factor * brute_force_rvrp(inst, R) + 1


# --- sub-solves ----------------------------------------------------------------

def round_spy(monkeypatch):
    """The LPs solve_rvrp hands to round_rvrp from now on."""
    calls = []
    original = reductions.round_rvrp

    def spy(inst, R, sol, **kwargs):
        calls.append(sol)
        return original(inst, R, sol, **kwargs)

    monkeypatch.setattr(reductions, "round_rvrp", spy)
    return calls


def integral(sol):
    return all(w.denominator == 1 for w in sol.weights)


def test_certified_integral_part_returns_its_lp_support(monkeypatch):
    # Above every path's regret one path covers all, so the LP optimum is
    # integral; a part gets that support as it is, where the rounding
    # returns another path.
    inst = gen_euclidean(8, 4)
    R = (inst.n - 1) * max(map(max, inst.dist))
    sol = solve_rvrp_lp(inst, R)
    assert sol.certified and integral(sol) and sol.value == 1
    support = [p.nodes for p, _ in sol.support()]
    calls = round_spy(monkeypatch)
    part = _cover_subset(inst, inst.clients, R, DEFAULT_EXACT_THRESHOLD)
    assert [p.nodes for p in part] == support
    assert [p.nodes for p in solve_rvrp(inst, R)] == support
    assert calls == []
    rounded = solve_rvrp(inst, R, diagnostics={})
    assert len(calls) == 1 and [p.nodes for p in rounded] != support


def test_certified_fractional_part_is_rounded(monkeypatch):
    # The ladder's LP at R = 1 is certified at 3/2.
    inst = gen_ladder(2)
    calls = round_spy(monkeypatch)
    part = _cover_subset(inst, inst.clients, 1, DEFAULT_EXACT_THRESHOLD)
    assert [(sol.certified, sol.value) for sol in calls] == \
        [(True, Fraction(3, 2))]
    assert verify(inst, part, "rvrp", {"regret": 1})["ok"]


def test_uncertified_integral_part_is_rounded(monkeypatch):
    # Below the client count pricing is heuristic, and an integral
    # heuristic optimum is no certified cover: it is rounded.
    inst = gen_line([0, 1, 2, 3])
    calls = round_spy(monkeypatch)
    part = _cover_subset(inst, inst.clients, 1, 2)
    assert len(calls) == 1
    assert not calls[0].certified and integral(calls[0])
    assert verify(inst, part, "rvrp", {"regret": 1})["ok"]


def every_part_rounded(monkeypatch):
    """Make every sub-solve round its LP, as before certified integral
    parts were returned as they are."""
    solve = reductions.solve_rvrp

    def rounded(inst, R, exact_threshold=DEFAULT_EXACT_THRESHOLD,
                diagnostics=None):
        return solve(inst, R, exact_threshold=exact_threshold,
                     diagnostics={} if diagnostics is None else diagnostics)

    monkeypatch.setattr(reductions, "solve_rvrp", rounded)


def compared(solver, inst, param):
    """A reduction's cover and the counts it is compared by: its length
    for dvrp-lp, mult and nonuniform, the F of every level for dvrp-dp."""
    if solver == "dvrp-dp":
        state = dvrp_dp_state(inst, param)
        return state.P[state.M], state.F
    paths = getattr(reductions, SOLVERS[solver].function)(inst, param)
    return paths, [len(paths)]


@pytest.mark.parametrize("solver", ["dvrp-dp", "dvrp-lp", "mult",
                                    "nonuniform"])
def test_unrounded_parts_never_add_paths(monkeypatch, solver):
    # Against the same reduction with every part rounded: its covers pass
    # verify, dvrp-lp, mult and nonuniform never return more paths (their
    # count is a sum, or a sum of maxima, of part counts, and a part's
    # optimum is never above its rounding), and no level of the dvrp-dp
    # recurrence has a larger F.  dvrp-dp's pruned cover and run_solver's
    # merged one are not compared: either can end a path above.
    rng = random.Random(38)
    row = SOLVERS[solver]
    saved = 0
    for trial in range(120):
        gen = (gen_euclidean, gen_random_metric)[trial % 2]
        inst = gen(rng.randint(6, 10) + 1, 3800 + trial)
        maxd = max(inst.root_dist)
        param = {"dist": maxd + rng.randint(0, maxd),
                 "ratio": rng.choice([Fraction(5, 4), Fraction(3, 2), 2]),
                 "bounds": {v: rng.randint(0, maxd) for v in inst.clients}
                 }[row.param]
        with monkeypatch.context() as patch:
            every_part_rounded(patch)
            _, before = compared(solver, inst, param)
        paths, after = compared(solver, inst, param)
        assert verify(inst, paths, row.verify_mode, {row.param: param})["ok"]
        assert all(a <= b for a, b in zip(after, before))
        saved += after != before
    assert saved > 0


@pytest.mark.parametrize("tamper, message", [
    ("sol.weights[first] = 0", "3 support paths but LP value 4"),
    ("sol.weights[first] = 0; sol.value -= 1",
     "LP support leaves clients [1] uncovered"),
    ("sol.columns[first] = RootedPath.build(inst, [0, 1, 2])",
     "node 2 visited too late"),
], ids=["count", "cover", "regret"])
def test_tampered_lp_support_is_refused_under_optimized_python(
        src_env, tamper, message):
    # A star's leaves are pairwise too far apart to share a path at R = 1,
    # so its LP is the four one-leaf paths.  A support with a path
    # dropped, with a path dropped from the value as well, or with a path
    # over the bound must be refused with asserts compiled out.
    import subprocess
    import sys
    script = (
        "from regret_route import reductions\n"
        "from regret_route.core import Instance, RootedPath, SolverError\n"
        "assert False, 'asserts are live'\n"
        "solve = reductions.solve_rvrp_lp\n"
        "def tampered(inst, R, **kwargs):\n"
        "    sol = solve(inst, R, **kwargs)\n"
        "    first = next(i for i, w in enumerate(sol.weights) if w)\n"
        f"    {tamper}\n"
        "    return sol\n"
        "reductions.solve_rvrp_lp = tampered\n"
        f"inst = Instance.from_matrix({star_instance().dist!r})\n"
        "try:\n"
        "    reductions.solve_rvrp(inst, 1)\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == f"SolverError: {message}"


# --- multiplicative -------------------------------------------------------------

def test_multiplicative_line_two_rings():
    inst = gen_line([0, 1, 2])
    diag = {}
    walks = solve_multiplicative(inst, 2, diagnostics=diag)
    # nodes 1 and 2 land in different distance rings, and the chain period
    # exceeds the ring count, so the rings stay separate walks
    assert len(walks) == 2
    report = verify(inst, walks, "multiplicative", {"ratio": 2})
    assert report["ok"], report["failures"]
    assert diag["chain_period"] >= 2


def test_multiplicative_ladder_five_fourths():
    inst = gen_ladder(2)
    walks = solve_multiplicative(inst, Fraction(5, 4))
    report = verify(inst, walks, "multiplicative", {"ratio": Fraction(5, 4)})
    assert report["ok"], report["failures"]
    assert len(walks) == 4


def test_multiplicative_ratio_one_is_zero_regret():
    inst = gen_line([0, 1, 2])
    walks = solve_multiplicative(inst, 1)
    assert len(walks) == 1 and walks[0].regret == 0
    with pytest.raises(ValueError):
        solve_multiplicative(inst, Fraction(1, 2))


def test_multiplicative_zero_distance_clients():
    # a client on top of the root must be visited at time 0
    dist = [[0, 0, 3], [0, 0, 3], [3, 3, 0]]
    inst = Instance.from_matrix(dist)
    walks = solve_multiplicative(inst, Fraction(3, 2))
    first = walks[0].nodes
    assert first[1] == 1                      # prepended before any travel
    covered = set().union(*(w.node_set for w in walks))
    assert covered >= {1, 2}


def test_multiplicative_chaining_kicks_in():
    # rings 1 and 1 + period collapse into one walk per column
    inst = gen_line([0, 1, 2, 4, 8, 16, 32, 64])
    ratio = Fraction(4)
    diag = {}
    walks = solve_multiplicative(inst, ratio, diagnostics=diag)
    period = diag["chain_period"]
    ring_ids = sorted(diag["rings"])
    assert any(i + period in ring_ids for i in ring_ids)
    assert len(walks) < len(ring_ids)
    report = verify(inst, walks, "multiplicative", {"ratio": ratio})
    assert report["ok"], report["failures"]


def test_visit_time_check_survives_optimized_python(src_env):
    # A ring cover that walks out to the far end first visits the nearer
    # clients too late; the check must refuse it even with asserts compiled
    # out.
    import subprocess
    import sys
    script = (
        "from regret_route import reductions\n"
        "from regret_route.core import RootedPath, SolverError\n"
        "from regret_route.harness import gen_line\n"
        "assert False, 'asserts are live'\n"
        "reductions._cover_subset = lambda inst, nodes, bound, et: [\n"
        "    RootedPath.build(inst, [inst.root, *sorted(nodes)[::-1]])]\n"
        "try:\n"
        "    reductions.solve_multiplicative(gen_line([0, 4, 5, 6, 7]),\n"
        "                                    '5/4')\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "SolverError: node 3 visited too late"


@pytest.mark.parametrize("solver, positions, param, node", [
    ("mult", [0, 4, 5, 6, 7], "5/4", 3),
    ("dvrp-dp", [0, 1, 2, 8], 8, 2),
    ("dvrp-lp", [0, 1, 2, 8], 8, 2),
    ("nonuniform", [0, 1, 2, 8], {1: 1, 2: 1, 3: 1}, 2),
], ids=["mult", "dvrp-dp", "dvrp-lp", "nonuniform"])
def test_reduction_deadline_check_survives_optimized_python(
        src_env, solver, positions, param, node):
    # Sub-solves that walk out to their farthest client first reach the
    # nearer ones after their deadlines; each reduction must refuse that
    # cover even with asserts compiled out.  dvrp-dp cuts every path at the
    # cap before its check, so there the cut is switched off as well.
    import subprocess
    import sys
    script = (
        "from regret_route import harness, reductions\n"
        "from regret_route.core import RootedPath, SolverError\n"
        "assert False, 'asserts are live'\n"
        "def far_first(sub, bound, **kwargs):\n"
        "    order = sorted(sub.clients, key=lambda v: -sub.root_dist[v])\n"
        "    return [RootedPath.build(sub, [sub.root, *order])]\n"
        "reductions.solve_rvrp = far_first\n"
        "reductions._length_prefix = lambda inst, path, cap: path\n"
        f"inst = harness.gen_line({positions!r})\n"
        "key = harness.SOLVERS[" f"{solver!r}" "].param\n"
        "try:\n"
        f"    harness.run_solver({solver!r}, inst, {{key: {param!r}}})\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == f"SolverError: node {node} visited too late"


@pytest.mark.parametrize("solver, param, message", [
    ("dvrp-dp", 9, "level 1 leaves nodes [3] uncovered"),
    ("nonuniform", {1: 1, 2: 1, 3: 4},
     "regret classes leave clients [1, 2, 3] uncovered"),
], ids=["dvrp-dp", "nonuniform"])
def test_reduction_cover_check_survives_optimized_python(
        src_env, solver, param, message):
    # Sub-solves that cover nothing must stop the reduction even with
    # asserts compiled out.
    import subprocess
    import sys
    script = (
        "from regret_route import harness, reductions\n"
        "from regret_route.core import SolverError\n"
        "assert False, 'asserts are live'\n"
        "reductions.solve_rvrp = lambda *args, **kwargs: []\n"
        "inst = harness.gen_line([0, 1, 2, 8])\n"
        "key = harness.SOLVERS[" f"{solver!r}" "].param\n"
        "try:\n"
        f"    harness.run_solver({solver!r}, inst, {{key: {param!r}}})\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == f"SolverError: {message}"


# --- distance caps ---------------------------------------------------------------

def test_prune_redundant_matches_the_restarting_loop():
    rng = random.Random(18)
    pruned = 0
    for trial in range(200):
        inst = gen_euclidean(rng.randint(2, 9), trial)
        clients = list(inst.clients)
        paths = []
        for _ in range(rng.randint(0, 8)):
            seq = rng.sample(clients, rng.randint(0, len(clients)))
            paths.append(RootedPath.build(inst, [inst.root] + seq))
        paths += rng.sample(paths, min(len(paths), rng.randint(0, 2)))
        got = [p.nodes for p in _prune_redundant(paths)]
        assert got == [p.nodes for p in dvrp_reference.prune_redundant(paths)]
        pruned += len(got) < len(paths)
    assert pruned > 100


def test_dvrp_dp_line_single_path():
    inst = gen_line([0, 1, 2])
    paths = solve_dvrp_dp(inst, 2)
    assert len(paths) == 1
    assert paths[0].nodes == (0, 1, 2)


def test_dvrp_dp_star_needs_every_leaf():
    star = star_instance()
    paths = solve_dvrp_dp(star, 1)
    assert len(paths) == 4


def test_dvrp_dp_infeasible_cap():
    inst = gen_line([0, 1, 5])
    with pytest.raises(InfeasibleError) as err:
        solve_dvrp_dp(inst, 3)
    assert tuple(err.value.nodes) == (2,)


def test_dvrp_dp_state_trace():
    inst = gen_ladder(2)
    cap = 8
    state = dvrp_dp_state(inst, cap)
    assert set(state.S[state.M]) == set(inst.clients)
    assert all(set(a) <= set(b) for a, b in zip(state.S, state.S[1:]))
    assert state.choice[0] is None
    assert all(0 <= k < i for i, k in enumerate(state.choice) if k is not None)
    for level_paths in state.P:
        assert all(p.cost <= cap for p in level_paths)


def test_dvrp_dp_skips_empty_levels(monkeypatch):
    # The cap lies 192 past the nearest client, so levels 0-6 hold no
    # client; the chain is the one the k-loop computed for them.
    from regret_route import reductions
    solve, calls = reductions.solve_rvrp, []

    def spy(sub, R, **kwargs):
        calls.append((len(sub.clients), R))
        return solve(sub, R, **kwargs)

    monkeypatch.setattr(reductions, "solve_rvrp", spy)
    inst = gen_euclidean(8, 4)
    diag = {}
    paths = solve_dvrp_dp(inst, 199, diagnostics=diag)
    assert diag["level_sizes"] == [0, 0, 0, 0, 0, 0, 0, 2, 7]
    assert [(c["i"], c["k"], c["count"]) for c in diag["chain"]] == [
        (0, None, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0),
        (6, 0, 0), (7, 6, 1), (8, 5, 2)]
    assert [p.nodes for p in paths] == [(0, 6, 2, 7), (0, 1, 5, 4, 3)]
    # only the two nonempty levels are sub-solved, in ascending order of
    # (lower bound + F[k], k), stopping at the first pair above the best
    # score: level 7 at k = 6 only (its bound 1 is met), level 8 at k = 6
    # (bound 1, score 4) and k = 5 (bound 2, score 2), where (2, 7) loses
    assert calls == [(2, 64), (7, 64), (7, 32)]


# (generator, nodes, seed, cap, level): at that level two scales tie on the
# least count + F[k], and best-first order solves a larger one of them
# before the smallest, which must still win.
TIED_SCALES = [
    (gen_random_metric, 7, 5002, 56, 6),
    (gen_euclidean, 9, 5010, 297, 8),
    (gen_euclidean, 7, 5038, 113, 7),
    (gen_euclidean, 6, 5001, 103, 7),
]


def assert_scales_tie(inst, state, level):
    sub, _ = induced_instance(inst, state.S[level])
    scores = [(len(solve_rvrp(sub, 2 ** k)) + state.F[k], k)
              for k in range(level)]
    tied = [k for c, k in scores if c == min(scores)[0]]
    first = min(tied, key=lambda k: (cover_lower_bound(sub, 2 ** k)
                                     + state.F[k], k))
    assert len(tied) > 1 and first != tied[0] == state.choice[level]


def test_dvrp_dp_matches_the_every_scale_reference():
    offsets = (0, 1, 3, 8, 20, 45, 64, 100, 128, 160, 192)
    cases = []
    for idx in range(22):
        gen = (gen_euclidean, gen_random_metric)[idx % 2]
        inst = gen(7 + idx % 7, 1300 + idx)
        cases.append((inst, max(inst.root_dist) + offsets[idx % len(offsets)],
                      None))
    for gen, nodes, seed, cap, level in TIED_SCALES:
        cases.append((gen(nodes, seed), cap, level))
    skipped = 0
    for inst, cap, level in cases:
        got = dvrp_dp_state(inst, cap)
        want = dvrp_reference.every_scale_state(inst, cap)
        assert (got.S, got.F, got.choice) == (want.S, want.F, want.choice)
        assert [[p.nodes for p in level] for level in got.P] == \
            [[p.nodes for p in level] for level in want.P]
        assert got.subsolves <= want.subsolves
        skipped += want.subsolves - got.subsolves
        if level is not None:
            assert_scales_tie(inst, got, level)
    assert skipped > 0


def test_cover_lower_bound_is_below_the_optimum():
    tight = 0
    for idx in range(8):
        gen = (gen_euclidean, gen_random_metric)[idx % 2]
        inst = gen(2 + idx, 1400 + idx)
        R, opt = 1, None
        while opt != 1:
            bound = cover_lower_bound(inst, R)
            opt = brute_force_rvrp(inst, R)
            assert 1 <= bound <= opt
            tight += 1 < bound == opt
            R *= 2
    assert tight > 0


def unpairable(inst, R, members):
    return all(regret_distance(inst, u, v) > R and
               regret_distance(inst, v, u) > R
               for u, v in itertools.combinations(members, 2))


def test_cover_lower_bound_is_the_largest_unpairable_set():
    # Enumerated over every client subset: the bound is the largest set of
    # pairwise unpairable clients, never below the greedy set, never above
    # the optimum cover, and above the greedy set somewhere.
    rng = random.Random(23)
    above = 0
    for trial in range(30):
        gen = (gen_euclidean, gen_random_metric)[trial % 2]
        inst = gen(rng.randint(2, 10), 1500 + trial)
        maxd = max(inst.root_dist)
        for R in sorted({0, 1, maxd // 8, maxd // 4, maxd // 2}):
            largest = max(len(s) for size in range(len(inst.clients) + 1)
                          for s in itertools.combinations(inst.clients, size)
                          if unpairable(inst, R, s))
            bound = cover_lower_bound(inst, R)
            greedy = dvrp_reference.greedy_cover_bound(inst, R)
            assert bound == largest
            assert greedy <= bound <= brute_force_rvrp(inst, R)
            above += bound > greedy
    assert above > 0


def test_cover_lower_bound_above_the_threshold_is_greedy(monkeypatch):
    # Above exact_threshold clients the bound is the greedy set's size and
    # the search never starts, inside the DP as well.
    from regret_route import reductions
    search, sizes = reductions._largest_unpairable, []

    def spy(pairable, incumbent):
        sizes.append(len(pairable))
        return search(pairable, incumbent)

    monkeypatch.setattr(reductions, "_largest_unpairable", spy)
    inst = gen_euclidean(11, 1600)
    maxd = max(inst.root_dist)
    for R in (0, maxd // 8, maxd // 4, maxd // 2, maxd):
        assert cover_lower_bound(inst, R, exact_threshold=9) == \
            dvrp_reference.greedy_cover_bound(inst, R)
    assert sizes == []
    cover_lower_bound(inst, maxd // 4, exact_threshold=10)
    assert sizes == [10]
    sizes.clear()
    dvrp_dp_state(inst, maxd + 20, exact_threshold=6)
    assert sizes and max(sizes) <= 6


def test_dvrp_dp_ratio_on_randoms():
    for seed in range(6):
        inst = gen_random_metric(7, 1100 + seed)
        cap = max(inst.root_dist) + seed % 3
        paths = solve_dvrp_dp(inst, cap)
        report = verify(inst, paths, "dvrp", {"dist": cap})
        assert report["ok"], report["failures"]
        opt = brute_force_dvrp(inst, cap)
        ceiling = 16 * max(1, (cap - 1).bit_length())
        assert len(paths) <= ceiling * opt


def test_dvrp_lp_round_line_and_star():
    inst = gen_line([0, 1, 2])
    paths = solve_dvrp_lp_round(inst, 2)
    assert len(paths) == 1
    star = star_instance()
    diag = {}
    paths = solve_dvrp_lp_round(star, 1, diagnostics=diag)
    assert len(paths) == 4
    assert len(diag["parts"]) < 3 * diag["support_weight"] + 1e-9


def test_dvrp_lp_round_client_at_the_depot():
    # The one client sits at the depot, so its column's farthest node must
    # be the client, not the root, or the pair split drops it.
    inst = Instance.from_matrix([[0, 0], [0, 0]])
    paths = run_solver("dvrp-lp", inst, {"dist": 0})
    assert [p.nodes for p in paths] == [(0, 1)]
    assert verify(inst, paths, "dvrp", {"dist": 0})["ok"]


def test_dvrp_lp_round_part_closure_captures_stranded_nodes():
    # Here every support column covering node 8 ends at a non-center
    # member of an earlier part (nodes 6 and 1), so a part built from
    # center-ending columns alone would strand node 8 with zero counted
    # mass; the closure under captured ends must absorb it instead.
    inst = gen_euclidean(10, 10_033)
    assert max(inst.root_dist) == 86
    diag = {}
    paths = solve_dvrp_lp_round(inst, 86, diagnostics=diag)
    report = verify(inst, paths, "dvrp", {"dist": 86})
    assert report["ok"], report["failures"]
    assert len(diag["parts"]) < 3 * diag["support_weight"] + 1e-9
    assert sum(part["size"] for part in diag["parts"]) == len(inst.clients)


def test_dvrp_lp_round_parts_bound_on_randoms():
    for seed in range(6):
        inst = gen_random_metric(7, 1200 + seed)
        cap = max(inst.root_dist) + seed % 4
        diag = {}
        paths = solve_dvrp_lp_round(inst, cap, diagnostics=diag)
        report = verify(inst, paths, "dvrp", {"dist": cap})
        assert report["ok"], report["failures"]
        assert len(diag["parts"]) < 3 * diag["support_weight"] + 1e-9
        for part in diag["parts"]:
            assert part["bound"] >= 0


# --- per-node bounds --------------------------------------------------------------

def test_nonuniform_classes():
    inst = gen_line([0, 1, 2, 4])
    bounds = {1: 0, 2: 1, 3: 4}
    diag = {}
    paths = solve_nonuniform(inst, bounds, diagnostics=diag)
    report = verify(inst, paths, "nonuniform", {"bounds": bounds})
    assert report["ok"], report["failures"]
    assert [c["bound"] for c in diag["classes"]] == [0, 1, 4]


def test_nonuniform_missing_bound_rejected():
    inst = gen_line([0, 1, 2])
    with pytest.raises(ValueError):
        solve_nonuniform(inst, {1: 2})
    with pytest.raises(ValueError):
        solve_nonuniform(inst, {1: 2, 2: -1})


def test_nonuniform_bound_of_a_non_client_rejected():
    inst = gen_euclidean(5, 1)
    bounds = {**dict.fromkeys(inst.clients, 3), 0: 7, 99: 1, -4: 2}
    paths = solve_nonuniform(inst, dict.fromkeys(inst.clients, 3))
    for call in (lambda: solve_nonuniform(inst, bounds),
                 lambda: verify(inst, paths, "nonuniform",
                                {"bounds": bounds})):
        with pytest.raises(ValueError, match=r"\[-4, 0, 99\]"):
            call()


def test_nonuniform_uniform_matches_rvrp_mode():
    inst = gen_random_metric(6, 1300)
    bounds = {v: 2 for v in inst.clients}
    paths = solve_nonuniform(inst, bounds)
    report = verify(inst, paths, "rvrp", {"regret": 2})
    assert report["ok"], report["failures"]


# --- k-path covers -----------------------------------------------------------------

def test_krvrp_line_budgets():
    inst = gen_line([0, 1, 2])
    paths = solve_krvrp_minmax(inst, 1)
    worst = max(p.regret for p in paths)
    assert worst == 0
    assert [p.nodes for p in paths] == [(0, 1, 2)]
    paths = solve_krvrp_minmax(inst, 2)
    worst = max(p.regret for p in paths)
    assert worst == 0
    assert len(paths) <= 2


def test_krvrp_ladder_two_rails_suffice():
    inst = gen_ladder(2)
    paths = solve_krvrp_minmax(inst, 3)
    worst = max(p.regret for p in paths)
    assert worst == 0
    assert len(paths) <= 3
    assert brute_force_krvrp(inst, 3) == 0


def test_krvrp_validation():
    inst = gen_line([0, 1])
    with pytest.raises(ValueError):
        solve_krvrp_minmax(inst, 0)


def test_krvrp_worst_vs_oracle():
    for seed in range(5):
        inst = gen_random_metric(6, 1400 + seed)
        k = 1 + seed % 3
        paths = solve_krvrp_minmax(inst, k)
        worst = max(p.regret for p in paths)
        assert len(paths) <= k
        covered = set().union(*(p.node_set for p in paths))
        assert covered >= set(inst.clients)
        opt = brute_force_krvrp(inst, k)
        assert worst >= opt          # the oracle is exact, the solver rounds


# --- cross-route agreement -----------------------------------------------------------

def test_dvrp_routes_agree_on_feasibility():
    for seed in range(4):
        inst = gen_random_metric(6, 1500 + seed)
        cap = max(inst.root_dist) + 1
        dp = solve_dvrp_dp(inst, cap)
        lp = solve_dvrp_lp_round(inst, cap)
        for paths in (dp, lp):
            report = verify(inst, paths, "dvrp", {"dist": cap})
            assert report["ok"], report["failures"]
