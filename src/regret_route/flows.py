"""Integral min-cost circulation with arc lower bounds, and the rooted
path cover built on it.

Lower bounds are folded away by pre-routing them and repairing conservation
through a super source/sink pair; the remainder is a min-cost max-flow solved
with successive shortest augmenting paths. All arc costs must be nonnegative,
so Dijkstra with potentials works from the start; each Dijkstra stops once
the sink is settled. Everything is integer. ``solve`` returns the cost and
each arc's flow; it builds its residual network afresh on every call.

``min_cost_path_cover`` is the one network the package builds: root trails
through a DAG that enter every required node (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993). The zero-regret cover and the rounding's witness
flow both call it.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Tuple

from .core import Instance, SolverError, require


class MinCostCirculation:
    """Circulation network on nodes 0..n-1 (two helper nodes added on solve)."""

    def __init__(self, n: int):
        self.n = n
        self._arcs: List[tuple] = []  # (u, v, lower, cap, cost)

    def add_arc(self, u: int, v: int, lower: int, cap: int, cost: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("arc endpoint out of range")
        if not 0 <= lower <= cap:
            raise ValueError(f"bad bounds lower={lower} cap={cap}")
        if cost < 0:
            raise ValueError("negative arc cost")
        self._arcs.append((u, v, lower, cap, cost))
        return len(self._arcs) - 1

    def solve(self) -> Tuple[int, List[int]]:
        """Find a minimum-cost feasible circulation; returns its cost and
        the flow on each arc, in add_arc order.

        Raises SolverError when the lower bounds admit no circulation.
        """
        n = self.n
        source, sink = n, n + 1
        size = n + 2
        # Residual arc arrays; arc 2i/2i+1 are a forward/backward pair, and
        # network arc i is residual arc 2i.
        to: List[int] = []
        cap: List[int] = []
        cost: List[int] = []
        adj: List[List[int]] = [[] for _ in range(size)]

        def push_arc(u: int, v: int, c: int, w: int) -> None:
            aid = len(to)
            to.append(v); cap.append(c); cost.append(w); adj[u].append(aid)
            to.append(u); cap.append(0); cost.append(-w); adj[v].append(aid + 1)

        balance = [0] * size
        base_cost = 0
        for u, v, lower, capacity, w in self._arcs:
            push_arc(u, v, capacity - lower, w)
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
                if u == sink:   # settled: its shortest path is known
                    break
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
            reach = dist[sink]
            if reach == INFD:
                raise SolverError("lower bounds are infeasible")
            # A node settled before the sink advances by its distance, any
            # other by the sink's; reduced costs stay nonnegative.
            for v in range(size):
                dv = dist[v]
                pot[v] += dv if dv < reach else reach
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
        return total_cost, [arc[3] - cap[2 * i]
                            for i, arc in enumerate(self._arcs)]


def min_cost_path_cover(inst: Instance, arcs: Mapping[Tuple[int, int], int],
                        required: Iterable[int], cap: int, trail_cost: int
                        ) -> Tuple[int, List[List[int]]]:
    """Cheapest root trails through the DAG ``arcs`` entering every required
    node; returns the total cost and the trails as node lists from the root.

    A trail pays the cost of its arcs plus trail_cost, and every arc, node
    and the number of trails are capped at cap. Each non-root node is split
    into in and out, joined by an arc with lower bound 1 when the node is
    required; every out node may end a trail at a collector, which closes
    back to the root. Nodes are numbered root-out, then in/out per node in
    ascending order, then the collector; arcs are added sorted, then each
    node's inner and collector arcs, then the closing arc, and solve
    returns each arc's flow in that order. SolverError when no such trails
    exist within the cap.

    Trails are peeled one unit at a time from the root. The next hop is the
    least (D[v], v) with flow left; a trail ends where no flow leaves, at a
    node with collector flow left, and all flow is consumed.
    """
    root, D = inst.root, inst.root_dist
    required = set(required)
    nodes = sorted(required.union(*arcs) - {root})
    pos = {v: 1 + 2 * i for i, v in enumerate(nodes)}   # in-node; out is +1
    collector = 1 + 2 * len(nodes)
    net = MinCostCirculation(collector + 1)
    arc_ids = {(u, v): net.add_arc(0 if u == root else pos[u] + 1, pos[v],
                                   lower=0, cap=cap, cost=arcs[(u, v)])
               for u, v in sorted(arcs)}
    end_ids = {}
    for v in nodes:
        net.add_arc(pos[v], pos[v] + 1, lower=int(v in required), cap=cap,
                    cost=0)
        end_ids[v] = net.add_arc(pos[v] + 1, collector, lower=0, cap=cap,
                                 cost=0)
    close = net.add_arc(collector, 0, lower=0, cap=cap, cost=trail_cost)
    cost, flow = net.solve()

    left = {a: flow[aid] for a, aid in arc_ids.items() if flow[aid]}
    ends = {v: flow[aid] for v, aid in end_ids.items()}
    outs: Dict[int, List[int]] = {}
    for u, v in sorted(left, key=lambda a: (D[a[1]], a[1])):
        outs.setdefault(u, []).append(v)
    trails = []
    for _ in range(flow[close]):
        trail = [root]
        while True:
            u = trail[-1]
            nxt = next((v for v in outs.get(u, ()) if left[(u, v)]), None)
            if nxt is None:
                break
            left[(u, nxt)] -= 1
            trail.append(nxt)
        require(ends.get(trail[-1], 0) > 0, "trail stranded off a path end")
        ends[trail[-1]] -= 1
        trails.append(trail)
    require(not any(left.values()), "flow left after peeling every trail")
    return cost, trails
