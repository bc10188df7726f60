"""Exact subset-DP pricing oracles and a local-search fallback.

The exact oracles answer argmax/argmin queries over all simple rooted paths
by scanning a Held-Karp table: HK[S][t] is the cheapest rooted path visiting
exactly client set S and ending at t. One table serves every budget kind, so
it is built once per instance and shared. Rewards are exact rationals; all
comparisons are integer comparisons after clearing denominators.

The table and the scans are numpy arrays, filled one popcount layer at a
time. Fixed-width integers wrap where Python integers grow, so every dtype
is chosen from a bound on the values it must hold:

* costs are int32 when (m+1)·max_edge < 2^29 and int64 when it is below
  2^61, which leaves room for the sentinel that marks end nodes outside a
  mask; larger metrics fall back to Python integers (dtype=object);
* reward sums are int64 when the scaled total fits 2^62, else object;
* the min-excess scan bounds max(|min_regret|, 1)·den + Σ rewards the same
  way before it multiplies.

An object array runs the same code with exact Python integers, so results
never depend on the dtype. numpy is imported inside the table constructor,
after the size check: it costs about as much time and memory as the rest of
start-up, and runs that never build a table (every instance above the
exact threshold) do not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple

from .core import Instance, RegretRouteError, RootedPath

DEFAULT_EXACT_THRESHOLD = 16
# Worst-case bytes per (mask, end) cell: an int64 cost and an int8 parent.
CELL_BYTES = 9
TABLE_BUDGET_BYTES = 256 << 20


class OracleUnavailableError(RegretRouteError):
    """The instance exceeds the exact oracle's size threshold."""


def check_exact_threshold(threshold: int) -> None:
    """Reject a threshold whose largest table would exceed the memory budget.

    The estimate is 2^m·m cells at CELL_BYTES each; nothing is allocated.
    """
    m = max(threshold, 0)
    if (m << m) * CELL_BYTES > TABLE_BUDGET_BYTES:
        raise ValueError(
            f"exact threshold {threshold} needs a {m}-client table of about "
            f"{((m << m) * CELL_BYTES) >> 20} MiB, over the "
            f"{TABLE_BUDGET_BYTES >> 20} MiB budget")


@dataclass(frozen=True)
class PricingQuery:
    """One pricing call: per-client rewards plus a budget kind.

    budget_kind is "regret" (paths with regret <= budget), "length"
    (cost <= budget), or "min_excess" (no budget; minimize regret minus
    reward).
    """

    rewards: Mapping[int, Fraction]
    budget_kind: str
    budget: int = 0


@dataclass(frozen=True)
class PricedPath:
    path: RootedPath
    value: Fraction


def _cost_dtype(top: int, np):
    """dtype for costs below top, and a sentinel above them all that still
    fits after one more edge is added."""
    if top < 1 << 29:
        return np.int32, 1 << 30
    if top < 1 << 61:
        return np.int64, 1 << 62
    return object, top + 1


def _sum_dtype(bound: int, np):
    """dtype for integers of absolute value below bound."""
    return np.int64 if bound < 1 << 62 else object


def _doubling(values, dtype, np):
    """out[mask] = sum of values[i] over the bits i of mask: m doublings."""
    out = np.zeros(1 << len(values), dtype)
    for i, x in enumerate(values):
        out[1 << i:2 << i] = out[:1 << i] + x
    return out


class HKTable:
    """Held-Karp subset DP for one instance.

    cost[mask, i] is the cheapest cost of a rooted path visiting exactly the
    clients in mask and ending at clients[i] (a sentinel above every real
    cost where i is not in mask); parent pointers reconstruct one canonical
    optimal path. min_regret/min_length fold out the end node, with the
    first optimal end in regret_end/length_end (-1 for the empty mask).
    """

    def __init__(self, inst: Instance, threshold: int = DEFAULT_EXACT_THRESHOLD):
        check_exact_threshold(threshold)
        self.inst = inst
        self.clients = list(inst.clients)
        m = len(self.clients)
        if m > threshold:
            raise OracleUnavailableError(
                f"{m} clients exceed the exact threshold {threshold}")
        self.m = m
        import numpy as np

        clients = self.clients
        dist = inst.dist
        D = [inst.root_dist[v] for v in clients]
        top = (m + 1) * max(map(max, dist))
        dtype, sentinel = _cost_dtype(top, np)
        size = 1 << m
        self.popcount = _doubling([1] * m, np.uint8, np)
        cost = np.full((size, m), sentinel, dtype)
        parent = np.full((size, m), -1, np.int8)
        ends = np.arange(m)
        cost[1 << ends, ends] = [dist[inst.root][v] for v in clients]
        step = np.array([[dist[u][v] for v in clients] for u in clients], dtype)
        # Masks grouped by popcount, ascending within a group.
        order = np.argsort(self.popcount, kind="stable")
        starts = np.cumsum(np.bincount(self.popcount, minlength=m + 1))
        for k in range(1, m):
            layer = order[starts[k - 1]:starts[k]]
            rows = cost[layer]
            for j in range(m):
                prev = (layer >> j) & 1 == 0
                cand = rows[prev]
                cand += step[:, j]
                # argmin takes the first minimum: the smallest predecessor
                # end i among the cheapest, the canonical parent.
                best = cand.argmin(axis=1)
                nxt = layer[prev] | 1 << j
                cost[nxt, j] = cand[np.arange(len(best)), best]
                parent[nxt, j] = best
        self.cost = cost
        self.parent = parent
        # Per-mask optima over the end node: visit the masks that contain
        # end i as a strided view and keep strict improvements in ascending
        # i, so the first optimal end wins.
        self.min_regret = np.full(size, sentinel, dtype)
        self.regret_end = np.full(size, -1, np.int8)
        self.min_length = np.full(size, sentinel, dtype)
        self.length_end = np.full(size, -1, np.int8)
        for i in range(m):
            c = cost.reshape(-1, 2, 1 << i, m)[:, 1, :, i]
            for low, end, value in ((self.min_length, self.length_end, c),
                                    (self.min_regret, self.regret_end,
                                     c - D[i])):
                low = low.reshape(-1, 2, 1 << i)[:, 1]
                better = value < low
                low[better] = value[better]
                end.reshape(-1, 2, 1 << i)[:, 1][better] = i

    def path_for(self, mask: int, end_index: int) -> RootedPath:
        seq = []
        i = end_index
        while i >= 0:
            seq.append(self.clients[i])
            nxt = int(self.parent[mask, i])
            mask ^= 1 << i
            i = nxt
        seq.append(self.inst.root)
        return RootedPath.build(self.inst, reversed(seq))


def _scaled_rewards(table: HKTable, rewards: Mapping[int, Fraction]) -> Tuple[List[int], int]:
    """Clear denominators: returns per-client integer rewards and the scale."""
    fr = [Fraction(rewards.get(v, 0)) for v in table.clients]
    if any(f < 0 for f in fr):
        raise ValueError("rewards must be nonnegative")
    den = math.lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * den) for f in fr], den


def _reward_sums(nums: List[int], np):
    return _doubling(nums, _sum_dtype(sum(nums), np), np)


def _pick_best_mask(table: HKTable, masks) -> int:
    # Fewer nodes first, then the smallest mask as a canonical order; masks
    # is ascending and argmin takes the first minimum.
    return int(masks[table.popcount[masks].argmin()])


def _table(inst: Instance, table: Optional[HKTable], threshold: int) -> HKTable:
    if table is not None:
        return table
    return HKTable(inst, threshold=threshold)


def _max_reward_scan(inst: Instance, rewards: Mapping[int, Fraction],
                     budget: int, kind: str, table: Optional[HKTable],
                     threshold: int) -> PricedPath:
    """Max-reward rooted path whose regret or length is at most budget."""
    if budget < 0:
        raise ValueError(f"negative {kind} budget")
    t = _table(inst, table, threshold)
    import numpy as np

    nums, den = _scaled_rewards(t, rewards)
    sums = _reward_sums(nums, np)
    values = t.min_regret if kind == "regret" else t.min_length
    feasible = np.flatnonzero(values <= budget)
    reach = sums[feasible]
    best = int(reach.max()) if len(reach) else 0
    if best <= 0:
        return PricedPath(RootedPath.trivial(inst), Fraction(0))
    mask = _pick_best_mask(t, feasible[reach == best])
    row = t.cost[mask].tolist()
    D = inst.root_dist
    end = next(i for i, v in enumerate(t.clients) if mask >> i & 1 and
               row[i] - (D[v] if kind == "regret" else 0) <= budget)
    return PricedPath(t.path_for(mask, end), Fraction(best, den))


def exact_orienteering(inst: Instance, rewards: Mapping[int, Fraction], budget: int,
                       table: Optional[HKTable] = None,
                       threshold: int = DEFAULT_EXACT_THRESHOLD) -> PricedPath:
    """Max-reward rooted path with regret at most budget; exact.

    Ties are broken toward fewer nodes, then a fixed canonical order. With
    all-zero rewards this is the trivial path at reward 0.
    """
    return _max_reward_scan(inst, rewards, budget, "regret", table, threshold)


def exact_length_budget(inst: Instance, rewards: Mapping[int, Fraction], budget: int,
                        table: Optional[HKTable] = None,
                        threshold: int = DEFAULT_EXACT_THRESHOLD) -> PricedPath:
    """Max-reward rooted path with total length at most budget; exact."""
    return _max_reward_scan(inst, rewards, budget, "length", table, threshold)


def exact_min_excess_pricing(inst: Instance, rewards: Mapping[int, Fraction],
                             table: Optional[HKTable] = None,
                             threshold: int = DEFAULT_EXACT_THRESHOLD) -> PricedPath:
    """Minimize regret(P) - reward(P) over rooted paths; exact.

    The empty path (value 0) is always a candidate, so the result never has
    positive value. Under a budget row whose dual is z >= 0, callers admit
    the column when value < -z. Ties go to fewer nodes, then canonical.
    """
    t = _table(inst, table, threshold)
    import numpy as np

    nums, den = _scaled_rewards(t, rewards)
    sums = _reward_sums(nums, np)[1:]
    regret = t.min_regret[1:]           # the empty mask is the trivial path
    if not len(regret):
        return PricedPath(RootedPath.trivial(inst), Fraction(0))
    top = max(-int(regret.min()), int(regret.max()), 1) * den + sum(nums)
    dtype = _sum_dtype(top, np)
    excess = regret.astype(dtype) * den - sums.astype(dtype)
    best = int(excess.min())
    if best >= 0:
        return PricedPath(RootedPath.trivial(inst), Fraction(0))
    mask = _pick_best_mask(t, np.flatnonzero(excess == best) + 1)
    return PricedPath(t.path_for(mask, int(t.regret_end[mask])),
                      Fraction(best, den))


def heuristic_pricing(inst: Instance, query: PricingQuery) -> PricedPath:
    """Greedy insertion plus 2-opt under the query's budget; no optimality.

    Any returned path satisfies the budget exactly (integer arithmetic).
    Used when the client count exceeds the exact threshold; the caller must
    then report the LP as unverified.
    """
    rewards = {v: Fraction(query.rewards.get(v, 0)) for v in inst.clients}
    if query.budget_kind == "regret":
        feasible = lambda p: p.regret <= query.budget
        objective = lambda p: sum(rewards[v] for v in p.nodes[1:])
        improves = lambda new, old: new > old
    elif query.budget_kind == "length":
        feasible = lambda p: p.cost <= query.budget
        objective = lambda p: sum(rewards[v] for v in p.nodes[1:])
        improves = lambda new, old: new > old
    elif query.budget_kind == "min_excess":
        feasible = lambda p: True
        objective = lambda p: p.regret - sum(rewards[v] for v in p.nodes[1:])
        improves = lambda new, old: new < old
    else:
        raise ValueError(f"unknown budget kind {query.budget_kind!r}")

    path = RootedPath.trivial(inst)
    value = objective(path)
    changed = True
    while changed:
        changed = False
        free = [v for v in inst.clients if v not in path.node_set]
        best = None
        for v in sorted(free):
            for pos in range(1, len(path.nodes) + 1):
                cand_nodes = path.nodes[:pos] + (v,) + path.nodes[pos:]
                cand = RootedPath.build(inst, cand_nodes)
                if not feasible(cand):
                    continue
                cand_val = objective(cand)
                if improves(cand_val, value) and (best is None or improves(cand_val, best[0])):
                    best = (cand_val, cand)
        if best is not None:
            value, path = best[0], best[1]
            changed = True
            continue
        # 2-opt: reverse an internal segment if it helps.
        nodes = path.nodes
        for i in range(1, len(nodes) - 1):
            for j in range(i + 1, len(nodes)):
                cand_nodes = nodes[:i] + tuple(reversed(nodes[i:j + 1])) + nodes[j + 1:]
                cand = RootedPath.build(inst, cand_nodes)
                if not feasible(cand):
                    continue
                cand_val = objective(cand)
                if improves(cand_val, value):
                    value, path = cand_val, cand
                    changed = True
                    break
            if changed:
                break
    return PricedPath(path, Fraction(value))
