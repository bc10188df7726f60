"""Integral min-cost circulation with arc lower bounds.

Lower bounds are folded away by pre-routing them and repairing conservation
through a super source/sink pair; the remainder is a min-cost max-flow solved
with successive shortest augmenting paths. All arc costs must be nonnegative,
so Dijkstra with potentials works from the start. Everything is integer.
"""

from __future__ import annotations

import heapq
from typing import List

from .core import SolverError


class MinCostCirculation:
    """Circulation network on nodes 0..n-1 (two helper nodes added on solve)."""

    def __init__(self, n: int):
        self.n = n
        self._arcs: List[tuple] = []  # (u, v, lower, cap, cost)
        self._solved = False

    def add_arc(self, u: int, v: int, lower: int, cap: int, cost: int) -> int:
        if self._solved:
            raise SolverError("network already solved")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("arc endpoint out of range")
        if not 0 <= lower <= cap:
            raise ValueError(f"bad bounds lower={lower} cap={cap}")
        if cost < 0:
            raise ValueError("negative arc cost")
        self._arcs.append((u, v, lower, cap, cost))
        return len(self._arcs) - 1

    def solve(self) -> int:
        """Find a minimum-cost feasible circulation; returns its cost.

        Raises SolverError when the lower bounds admit no circulation.
        """
        n = self.n
        source, sink = n, n + 1
        size = n + 2
        # Residual arc arrays; arc 2i/2i+1 are a forward/backward pair.
        to: List[int] = []
        cap: List[int] = []
        cost: List[int] = []
        adj: List[List[int]] = [[] for _ in range(size)]

        def push_arc(u: int, v: int, c: int, w: int) -> int:
            aid = len(to)
            to.append(v); cap.append(c); cost.append(w); adj[u].append(aid)
            to.append(u); cap.append(0); cost.append(-w); adj[v].append(aid + 1)
            return aid

        balance = [0] * size
        self._residual_id = []
        base_cost = 0
        for u, v, lower, capacity, w in self._arcs:
            self._residual_id.append(push_arc(u, v, capacity - lower, w))
            # Pre-routing `lower` units leaves a deficit at v and excess at u.
            balance[v] += lower
            balance[u] -= lower
            base_cost += lower * w
        need = 0
        for v in range(n):
            if balance[v] > 0:
                push_arc(source, v, balance[v], 0)
                need += balance[v]
            elif balance[v] < 0:
                push_arc(v, sink, -balance[v], 0)

        # Successive shortest paths with Johnson potentials.
        pot = [0] * size
        pushed = 0
        total_cost = base_cost
        INFD = float("inf")
        while pushed < need:
            dist = [INFD] * size
            prev_arc = [-1] * size
            dist[source] = 0
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                pu = pot[u]
                for aid in adj[u]:
                    if cap[aid] <= 0:
                        continue
                    v = to[aid]
                    nd = d + cost[aid] + pu - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_arc[v] = aid
                        heapq.heappush(heap, (nd, v))
            if dist[sink] == INFD:
                raise SolverError("lower bounds are infeasible")
            for v in range(size):
                if dist[v] < INFD:
                    pot[v] += dist[v]
            # Bottleneck along the shortest path, then augment.
            bottleneck = need - pushed
            v = sink
            while v != source:
                aid = prev_arc[v]
                bottleneck = min(bottleneck, cap[aid])
                v = to[aid ^ 1]
            v = sink
            while v != source:
                aid = prev_arc[v]
                cap[aid] -= bottleneck
                cap[aid ^ 1] += bottleneck
                total_cost += bottleneck * cost[aid]
                v = to[aid ^ 1]
            pushed += bottleneck
        self._cap = cap
        self._solved = True
        return total_cost

    def flow(self, arc_id: int) -> int:
        if not self._solved:
            raise SolverError("solve() has not run")
        u, v, lower, capacity, w = self._arcs[arc_id]
        rid = self._residual_id[arc_id]
        return lower + (capacity - lower - self._cap[rid])
