"""The doubling DP for distance caps with every regret scale solved: the
test oracle.

every_scale_state is ``regret_route.reductions.dvrp_dp_state`` before it
learnt to skip the scales whose lower bound loses: level i > 0 solves S_i
at every scale 2^k, k = 0, 1, ..., i - 1, and keeps the first least count.
The tests require the pruned DP to return the same S, F, P and choice.

prune_redundant is ``regret_route.reductions._prune_redundant`` before it
became one pass with coverage counts: it restarts after every removal and
rebuilds the union of the other paths for each candidate.

greedy_cover_bound is ``regret_route.reductions.cover_lower_bound`` before
it searched for the largest unpairable set: the size of the greedy one,
taken in (D, id) order.
"""

from typing import List, Optional

from regret_route.core import (RootedPath, check_cap, induced_instance,
                               regret_distance, zero_regret_cover)
from regret_route.reductions import DvrpDpState, _length_prefix, solve_rvrp


def prune_redundant(paths):
    kept = sorted(paths, key=lambda p: (len(p.nodes), p.nodes))
    changed = True
    while changed:
        changed = False
        for idx, p in enumerate(kept):
            others = set()
            for j, q in enumerate(kept):
                if j != idx:
                    others |= q.node_set
            if p.node_set - {p.nodes[0]} <= others:
                kept.pop(idx)
                changed = True
                break
    return kept


def greedy_cover_bound(inst, R):
    chosen: List[int] = []
    for v in sorted(inst.clients, key=lambda v: (inst.root_dist[v], v)):
        if all(regret_distance(inst, u, v) > R and
               regret_distance(inst, v, u) > R for u in chosen):
            chosen.append(v)
    return len(chosen)


def every_scale_state(inst, cap) -> DvrpDpState:
    cap = check_cap(inst, cap)
    D = inst.root_dist
    clients = set(inst.clients)
    min_d = min((D[v] for v in clients), default=0)
    M = (cap - min_d).bit_length()
    S = [sorted(v for v in clients if cap - D[v] < 2 ** i)
         for i in range(M + 1)]
    base = zero_regret_cover(inst, S[0])
    F = [len(base)]
    P = [base]
    choice: List[Optional[int]] = [None]
    subsolves = 0
    for i in range(1, M + 1):
        if not S[i]:
            F.append(0)
            P.append([])
            choice.append(0)
            continue
        sub, ids = induced_instance(inst, S[i])
        best = None
        for k in range(i):
            sub_paths = solve_rvrp(sub, 2 ** k)
            subsolves += 1
            cand = len(sub_paths) + F[k]
            if best is None or cand < best[0]:
                best = (cand, k, sub_paths)
        count, k, sub_paths = best
        mapped = [RootedPath.build(inst, [ids[v] for v in p.nodes])
                  for p in sub_paths]
        prefixes = [_length_prefix(inst, p, cap) for p in mapped]
        F.append(count)
        P.append(prune_redundant(
            list(P[k]) + [p for p in prefixes if not p.is_trivial]))
        choice.append(k)
    return DvrpDpState(cap=cap, M=M, S=S, F=F, P=P, choice=choice,
                       subsolves=subsolves)
