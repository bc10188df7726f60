"""Held-Karp tables and exact pricers: the test oracles.

ReferenceTable and the pricers are the plain loops that
``regret_route.pricing`` vectorises.  DenseReferenceTable is the numpy
build that the packed-key build replaced: one argmin per (layer, end).
dense_ranking is the numpy bounded scan that the per-budget plan of
maximal sets replaced: every round sums the rewards of all 2^m masks and
ranks every mask within the budget.  orienteering, length_budget and
min_excess give the single best column over every feasible mask;
maximal_masks lists the masks a bounded scan prices, and ranking orders
them (every mask, for min-excess) the way a scan returns its columns,
each drawn as its mask's cheapest path by the scan's measure, from the
smallest end that reaches it.  The tests require the vectorised table and
pricers to agree with them exactly: the same parent pointers, per-mask
optima and ends, the same (path, value) list from every pricer as
ranking, and a bounded scan's first value equal to the best over every
feasible mask.
"""

import math
from fractions import Fraction

import numpy as np

from regret_route.core import INF, RootedPath
from regret_route import pricing
from regret_route.pricing import (PricedPath, _doubling, _key_dtype,
                                  _sum_dtype)


class ReferenceTable:
    """cost[mask][i] is the cheapest rooted path visiting exactly mask and
    ending at clients[i]; INF where i is not in mask."""

    def __init__(self, inst):
        self.inst = inst
        self.clients = list(inst.clients)
        m = self.m = len(self.clients)
        dist = inst.dist
        D = inst.root_dist
        size = 1 << m
        cost = [[INF] * m for _ in range(size)]
        parent = [[-1] * m for _ in range(size)]
        for i, v in enumerate(self.clients):
            cost[1 << i][i] = dist[inst.root][v]
        for mask in range(1, size):
            row = cost[mask]
            rest = (size - 1) ^ mask
            for i in range(m):
                if not mask >> i & 1:
                    continue
                base = row[i]
                if base >= INF:
                    continue
                drow = dist[self.clients[i]]
                r = rest
                while r:
                    j = (r & -r).bit_length() - 1
                    r &= r - 1
                    new = base + drow[self.clients[j]]
                    nm = mask | 1 << j
                    if new < cost[nm][j]:
                        cost[nm][j] = new
                        parent[nm][j] = i
        self.cost = cost
        self.parent = parent
        self.min_regret = [INF] * size
        self.regret_end = [-1] * size
        self.min_length = [INF] * size
        self.length_end = [-1] * size
        for mask in range(1, size):
            row = cost[mask]
            br = bl = INF
            er = el = -1
            for i in _bits(mask):
                c = row[i]
                if c < bl:
                    bl, el = c, i
                reg = c - D[self.clients[i]]
                if reg < br:
                    br, er = reg, i
            self.min_regret[mask] = br
            self.regret_end[mask] = er
            self.min_length[mask] = bl
            self.length_end[mask] = el

    def path_for(self, mask, end_index):
        seq = []
        i = end_index
        while i >= 0:
            seq.append(self.clients[i])
            nxt = self.parent[mask][i]
            mask ^= 1 << i
            i = nxt
        seq.append(self.inst.root)
        return RootedPath.build(self.inst, reversed(seq))


class DenseReferenceTable:
    """HKTable's arrays, built one (popcount layer, end) pair at a time: the
    masks of the layer without end j take their rows plus the step to j,
    and argmin's first minimum is the parent. cost and parent are
    mask-major, shape (2^m, m): parent is the transpose of HKTable's. cost
    is in the key dtype, and an end outside its mask holds top + 1, the
    folds' value at the empty mask; the folds are in HKTable's dtype."""

    def __init__(self, inst):
        self.inst = inst
        self.clients = clients = list(inst.clients)
        m = self.m = len(clients)
        dist = inst.dist
        D = [inst.root_dist[v] for v in clients]
        edge = max(map(max, dist))
        top = (m + 1) * edge
        dtype = _sum_dtype(top, np)
        kdt = _key_dtype(m, edge, np)[0]
        size = 1 << m
        self.popcount = _doubling([1] * m, np.uint8, np)
        cost = np.full((size, m), top + 1, kdt)
        parent = np.full((size, m), -1, np.int8)
        ends = np.arange(m)
        cost[1 << ends, ends] = [dist[inst.root][v] for v in clients]
        step = np.array([[dist[u][v] for v in clients] for u in clients], kdt)
        order = np.argsort(self.popcount, kind="stable")
        starts = np.cumsum(np.bincount(self.popcount, minlength=m + 1))
        for k in range(1, m):
            layer = order[starts[k - 1]:starts[k]]
            rows = cost[layer]
            for j in range(m):
                prev = (layer >> j) & 1 == 0
                cand = rows[prev]
                cand += step[:, j]
                best = cand.argmin(axis=1)
                nxt = layer[prev] | 1 << j
                cost[nxt, j] = cand[np.arange(len(best)), best]
                parent[nxt, j] = best
        self.cost = cost
        self.parent = parent
        # Strict improvements in ascending end i keep the first optimal end.
        self.min_regret = np.full(size, top + 1, dtype)
        self.regret_end = np.full(size, -1, np.int8)
        self.min_length = np.full(size, top + 1, dtype)
        self.length_end = np.full(size, -1, np.int8)
        for i in range(m):
            c = cost.reshape(-1, 2, 1 << i, m)[:, 1, :, i].astype(dtype)
            for low, end, value in ((self.min_length, self.length_end, c),
                                    (self.min_regret, self.regret_end,
                                     c - D[i])):
                low = low.reshape(-1, 2, 1 << i)[:, 1]
                better = value < low
                low[better] = value[better]
                end.reshape(-1, 2, 1 << i)[:, 1][better] = i


def dense_ranking(t, rewards, budget, kind):
    """The columns of an HKTable's instance that the bounded scan returned
    before it priced only maximal sets: every mask whose regret (kind
    "regret") or length (kind "length") is within budget and whose reward
    is positive, from the reward sums of all 2^m masks, by (-reward,
    popcount, mask), cut at COLUMNS_PER_ROUND, each as its cheapest path by
    that measure and at its reward. The trivial path alone when there is
    none."""
    nums, den = pricing._checked_rewards(rewards, t.clients)
    sums = _doubling(nums, pricing._sum_dtype(sum(nums), np), np)
    values, ends = ((t.min_regret, t.regret_end) if kind == "regret"
                    else (t.min_length, t.length_end))
    masks = np.flatnonzero(values[1:] <= budget) + 1
    masks = masks[np.argsort(t.popcount[masks], kind="stable")]
    score = sums.take(masks)        # a first maximum is the canonical pick
    out = []
    while len(out) < pricing.COLUMNS_PER_ROUND and len(score):
        pick = int(score.argmax())
        if score[pick] <= 0:
            break
        mask = int(masks[pick])
        out.append(PricedPath(t.path_for(mask, int(ends[mask])),
                              Fraction(int(score[pick]), den)))
        score[pick] = 0
    return out or [PricedPath(RootedPath.trivial(t.inst), Fraction(0))]


def _bits(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def scaled_rewards(clients, rewards):
    """Fraction rewards by client id in the pricers' integer form: nums in
    the order of clients over the lcm of their denominators; a missing
    client gets 0."""
    fr = [Fraction(rewards.get(v, 0)) for v in clients]
    if any(f < 0 for f in fr):
        raise ValueError("rewards must be nonnegative")
    den = math.lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * den) for f in fr], den


def _reward_sums(nums, m):
    total = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        total[mask] = total[mask ^ low] + nums[low.bit_length() - 1]
    return total


def _pick_best_mask(candidates):
    return min(candidates, key=lambda mask: (bin(mask).count("1"), mask))


def _max_reward(t, rewards, budget, values, ends):
    nums, den = scaled_rewards(t.clients, rewards)
    sums = _reward_sums(nums, t.m)
    best = 0
    masks = []
    for mask in range(1, 1 << t.m):
        if values[mask] <= budget:
            s = sums[mask]
            if s > best:
                best, masks = s, [mask]
            elif s == best and best > 0:
                masks.append(mask)
    if best <= 0:
        return PricedPath(RootedPath.trivial(t.inst), Fraction(0))
    mask = _pick_best_mask(masks)
    return PricedPath(t.path_for(mask, ends[mask]), Fraction(best, den))


def orienteering(t, rewards, budget):
    return _max_reward(t, rewards, budget, t.min_regret, t.regret_end)


def length_budget(t, rewards, budget):
    return _max_reward(t, rewards, budget, t.min_length, t.length_end)


def min_excess(t, rewards):
    nums, den = scaled_rewards(t.clients, rewards)
    sums = _reward_sums(nums, t.m)
    best = 0
    masks = []
    for mask in range(1, 1 << t.m):
        v = t.min_regret[mask] * den - sums[mask]
        if v < best:
            best, masks = v, [mask]
        elif v == best and best < 0:
            masks.append(mask)
    if best >= 0:
        return PricedPath(RootedPath.trivial(t.inst), Fraction(0))
    mask = _pick_best_mask(masks)
    return PricedPath(t.path_for(mask, t.regret_end[mask]),
                      Fraction(best, den))


def maximal_masks(values, budget, m):
    """The nonempty masks whose value is at most budget and that no such
    mask extends by one client, in (popcount, mask) order; values[mask] is
    a mask's least regret or length, INF (or a sentinel) at mask 0."""
    feasible = {mask for mask in range(1, 1 << m) if values[mask] <= budget}
    maximal = [mask for mask in feasible
               if not any(mask | 1 << j in feasible for j in range(m)
                          if not mask >> j & 1)]
    return sorted(maximal, key=lambda mask: (bin(mask).count("1"), mask))


def ranking(t, rewards, kind, budget=None):
    """Every column a scan may return, in its order, cut at
    COLUMNS_PER_ROUND: for kind "regret" or "length" the maximal masks
    within budget of positive reward, by (-reward, popcount, mask); for
    kind "min_excess" every mask of negative excess by (excess, popcount,
    mask). Each column comes with its reward (or excess)."""
    nums, den = scaled_rewards(t.clients, rewards)
    ranked = []
    if kind == "min_excess":
        sums = _reward_sums(nums, t.m)
        for mask in range(1, 1 << t.m):
            key = t.min_regret[mask] * den - sums[mask]
            if key < 0:
                ranked.append((key, bin(mask).count("1"), mask))
    else:
        values = t.min_regret if kind == "regret" else t.min_length
        sums = {mask: sum(nums[i] for i in _bits(mask))
                for mask in maximal_masks(values, budget, t.m)}
        ranked = [(-x, bin(mask).count("1"), mask)
                  for mask, x in sums.items() if x > 0]
    ranked.sort()
    ends = t.length_end if kind == "length" else t.regret_end
    out = []
    for key, _, mask in ranked[:pricing.COLUMNS_PER_ROUND]:
        value = Fraction(key if kind == "min_excess" else -key, den)
        out.append(PricedPath(t.path_for(mask, ends[mask]), value))
    return out
