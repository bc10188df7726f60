"""The deadline merge run_solver applies after every covering solver:
core.merge_paths against its slack-free oracle, and the merged covers
against verify, the solvers' own counts and the brute-force optima."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import merge_reference
from regret_route.core import (Instance, RootedPath, SolverError, deadlines,
                               merge_paths)
from regret_route.harness import (SOLVERS, VERIFY_MODES, _verify_mode,
                                  brute_force_dvrp, brute_force_rvrp,
                                  gen_euclidean, gen_ladder, gen_line,
                                  gen_random_metric, run_solver, verify)

MODES = sorted(VERIFY_MODES)
MERGED = [name for name, row in SOLVERS.items() if row.verify_mode]


def _instances():
    yield from (gen_euclidean(n, seed) for n in (5, 8, 11, 13)
                for seed in (1, 2))
    yield from (gen_random_metric(n, seed) for n in (6, 9, 12)
                for seed in (3, 4))
    yield from (gen_ladder(h, c) for h, c in ((2, 1), (3, 1), (2, 2)))


def _random_cover(rng, inst, repeat=False):
    """Paths of one to three clients in random order that cover every
    client; with repeat, some client is visited by a second path too."""
    clients = list(inst.clients)
    rng.shuffle(clients)
    seqs = []
    while clients:
        size = min(rng.choice((1, 1, 2, 2, 3)), len(clients))
        seqs.append([inst.root, *clients[:size]])
        clients = clients[size:]
    if repeat and len(seqs) > 1:
        a, b = rng.sample(range(len(seqs)), 2)
        v = rng.choice(seqs[a][1:])
        if v not in seqs[b]:
            seqs[b].insert(rng.randint(1, len(seqs[b])), v)
    seqs.append([inst.root])                    # a trivial path to drop
    rng.shuffle(seqs)
    return [RootedPath.build(inst, s) for s in seqs]


def _visits(inst, paths):
    """(client, visit time) of every visit after the root."""
    return [(v, p.visit_cost(i, inst)) for p in paths
            for i, v in enumerate(p.nodes[1:], 1)]


def _param(rng, inst, paths, mode):
    """A parameter under which the cover meets every deadline, with a
    random amount to spare so that merges have room."""
    D, visits = inst.root_dist, _visits(inst, paths)
    spare = rng.choice((0, 0, 1, 5, max(D) // 2))
    if mode == "rvrp":
        return max(t - D[v] for v, t in visits) + spare
    if mode == "dvrp":
        return max(p.cost for p in paths) + spare
    if mode == "multiplicative":
        return max(Fraction(t, D[v]) for v, t in visits) + \
            Fraction(spare, max(D))
    bounds = dict.fromkeys(inst.clients, 0)
    for v, t in visits:
        bounds[v] = max(bounds[v], t - D[v] + rng.randint(0, spare))
    return bounds


def _seqs(paths):
    return [p.nodes for p in paths]


def _holds(seq, sub):
    """Whether sub is a subsequence of seq."""
    it = iter(seq)
    return all(v in it for v in sub)


def test_merge_matches_the_slack_free_oracle():
    # The O(1) slack test and the full recomputation accept the same
    # insertions, so the merges pick the same ones: identical paths on
    # random covers in every verify mode.
    rng = random.Random(2024)
    insts = list(_instances())
    compared = dropped = 0
    for trial in range(1040):
        inst = insts[trial % len(insts)]
        mode = MODES[trial // len(insts) % len(MODES)]
        paths = _random_cover(rng, inst, repeat=trial % 3 == 0)
        deadline = deadlines(inst, mode, _param(rng, inst, paths, mode))
        got = merge_paths(inst, paths, deadline)
        assert _seqs(got) == _seqs(merge_reference.merge_paths(
            inst, paths, deadline)), (trial, mode)
        compared += 1
        dropped += len(paths) - len(got)
    assert compared >= 1000
    assert dropped > 2 * compared          # the merges do real work


def test_merge_keeps_deadlines_order_and_is_idempotent():
    # On random covers, some visiting a client twice: the merge passes
    # verify with no repeated node, drops a path, keeps the survivors in
    # input order and is a fixed point of itself.
    rng = random.Random(7)
    for trial, inst in enumerate(list(_instances()) * 4):
        mode = MODES[trial % len(MODES)]
        paths = _random_cover(rng, inst, repeat=True)
        param = _param(rng, inst, paths, mode)
        deadline = deadlines(inst, mode, param)
        merged = merge_paths(inst, paths, deadline)
        key = VERIFY_MODES[mode][0]
        check = verify(inst, merged, mode, {key: param})
        assert check["ok"], check["failures"]
        assert all(len(set(p.nodes)) == len(p.nodes) for p in merged)
        assert 1 <= len(merged) < len(paths)
        # each survivor holds an input path, in order, plus insertions
        kept = iter(p for p in paths if not p.is_trivial)
        assert all(any(_holds(p.nodes, q.nodes) for q in kept)
                   for p in merged)
        assert _seqs(merge_paths(inst, merged, deadline)) == _seqs(merged)


def test_merge_rules_on_a_line():
    # Clients at 1, 2 and 3 on a line; deadlines D_v + R.
    inst = gen_line([0, 1, 2, 3])
    singles = [RootedPath.build(inst, [0, v]) for v in (3, 1, 2)]
    trivial = RootedPath.trivial(inst)
    # R = 0: only walks outwards are on time.  The trivial path goes, 3
    # takes the cheaper end (after 2, not after 1), then 1 goes in front.
    merged = merge_paths(inst, [trivial, *singles], deadlines(inst, "rvrp", 0))
    assert _seqs(merged) == [(0, 1, 2, 3)]
    # A path whose clients all lie on other paths drops without a trial.
    dup = [RootedPath.build(inst, [0, 1, 2]), RootedPath.build(inst, [0, 3]),
           RootedPath.build(inst, [0, 2])]
    assert _seqs(merge_paths(inst, dup, deadlines(inst, "rvrp", 0))) == \
        [(0, 1, 2, 3)]
    # Clients on either side of the root: at R = 1 going out and back is
    # late, and the input comes back as it was.
    apart = gen_line([0, -1, 1])
    pair = [RootedPath.build(apart, [0, 1]), RootedPath.build(apart, [0, 2])]
    assert merge_paths(apart, pair, deadlines(apart, "rvrp", 1)) == pair
    # At R = 2 the walk 0 -> -1 -> 1 reaches 1 at time 3 = D + R.
    assert _seqs(merge_paths(apart, pair, deadlines(apart, "rvrp", 2))) == \
        [(0, 1, 2)]
    # Without clients only trivial paths remain, and they all go.
    lone = Instance.from_matrix([[0]])
    assert merge_paths(lone, [RootedPath.trivial(lone)], {}) == []


def test_merge_ties_go_to_the_earlier_path_then_position():
    # Four clients at distance 1 from the root and 2 from each other, all
    # due at 5.  Client 3 costs 2 more after the root or after 1 or 2 in
    # [0, 1, 2], or after the root in [0, 4]: the first path and its first
    # position win.  Then neither 4 nor [0, 3, 1, 2] fits anywhere.
    star = Instance.from_matrix(
        [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(5)]
         for i in range(5)])
    paths = [RootedPath.build(star, s) for s in ([0, 1, 2], [0, 3], [0, 4])]
    deadline = dict.fromkeys(star.clients, 5)
    assert _seqs(merge_paths(star, paths, deadline)) == [(0, 3, 1, 2),
                                                         (0, 4)]


def test_merge_refuses_a_late_input_cover():
    inst = gen_line([0, 1, 2])
    late = [RootedPath.build(inst, [0, 2, 1])]
    with pytest.raises(SolverError, match="node 1 visited too late"):
        merge_paths(inst, late, deadlines(inst, "rvrp", 0))
    with pytest.raises(SolverError, match=r"uncovered"):
        merge_paths(inst, [RootedPath.build(inst, [0, 1])],
                    deadlines(inst, "rvrp", 0))


def _solver_params(rng, inst, solver):
    D = inst.root_dist
    maxd = max(D)
    return {"rvrp": {"regret": rng.choice((1, maxd // 4, maxd // 2))},
            "dvrp-dp": {"dist": maxd + rng.choice((0, maxd // 3, maxd))},
            "dvrp-lp": {"dist": maxd + rng.choice((0, maxd // 3, maxd))},
            "mult": {"ratio": rng.choice((Fraction(5, 4), Fraction(3, 2),
                                          Fraction(2)))},
            "nonuniform": {"bounds": {v: rng.randint(0, maxd // 2)
                                      for v in inst.clients}}}[solver]


@pytest.mark.parametrize("solver", MERGED)
def test_merged_solver_covers(solver):
    # Through run_solver at 12 clients or fewer: the merged cover passes
    # verify, never has more paths than the solver's own, never fewer than
    # the optimum where a brute force exists, and is a fixed point.
    rng = random.Random(solver)
    insts = [gen_euclidean(7, 31), gen_random_metric(8, 32),
             gen_euclidean(10, 33), gen_ladder(2, 1), gen_euclidean(13, 34)]
    moved = 0
    for inst in insts:
        params = _solver_params(rng, inst, solver)
        diag: dict = {}
        paths = run_solver(solver, inst, params, diagnostics=diag)
        mode, vparams = _verify_mode(solver, params, paths)
        assert verify(inst, paths, mode, vparams)["ok"]
        assert diag["path_count"] == len(paths) <= diag["rounded_count"]
        moved += diag["rounded_count"] - len(paths)
        if len(inst.clients) <= 9 and solver in ("rvrp", "dvrp-dp",
                                                  "dvrp-lp"):
            oracle = brute_force_rvrp if solver == "rvrp" else \
                brute_force_dvrp
            assert len(paths) >= oracle(inst, params[SOLVERS[solver].param])
        deadline = deadlines(inst, mode, vparams[VERIFY_MODES[mode][0]])
        assert _seqs(merge_paths(inst, paths, deadline)) == _seqs(paths)
    assert moved > 0                        # the merge drops paths


def test_krvrp_is_not_merged():
    diag: dict = {}
    paths = run_solver("krvrp", gen_euclidean(8, 5), {"k": 3},
                       diagnostics=diag)
    assert "rounded_count" not in diag and diag["path_count"] == len(paths)


def test_late_insertion_is_refused_under_optimized_python(src_env):
    # A merge whose insertion test lets one late insertion through must be
    # stopped by the final deadline check, even with asserts compiled out.
    script = (
        "from regret_route import core, harness\n"
        "from regret_route.core import Instance, SolverError\n"
        "assert False, 'asserts are live'\n"
        "best, late = core._Route.best_insertion, []\n"
        "def accept_late(self, v, due, dist_v):\n"
        "    found = best(self, v, due, dist_v)\n"
        "    if found is None and not late:\n"
        "        late.append(v)\n"
        "        return dist_v[self.nodes[-1]], len(self.nodes) - 1\n"
        "    return found\n"
        "core._Route.best_insertion = accept_late\n"
        "star = Instance.from_matrix([[0 if i == j else (1 if 0 in (i, j)\n"
        "                              else 2) for j in range(4)]\n"
        "                             for i in range(4)])\n"
        "try:\n"
        "    harness.run_solver('rvrp', star, {'regret': 0})\n"
        "except SolverError as exc:\n"
        "    print('SolverError:', exc, late)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "SolverError: node 1 visited too late [1]"
