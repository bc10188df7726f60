"""The min-cost circulation solver and the two node-split networks and trail
peels that ``flows`` replaced: the test oracles for it.

``ReferenceCirculation`` is the successive-shortest-path solver whose
Dijkstra runs until every reachable node is settled; the tests require
``MinCostCirculation``, which stops at the sink, to find the same cost.

``zero_regret_cover`` splits every client (in-node 2v, out-node 2v+1) and
peels whole zero-regret paths.  ``witness_flow`` splits only the witnesses,
in ``round_flow``'s numbering, and peels value-many root trails that may
end only where flow leaves for the collector.  Both peels take the least
(D, id) next hop.  The tests require the routine to return the same
trails as these.
"""

import heapq
from typing import Dict, List, Mapping, Sequence, Tuple

from regret_route.core import (Instance, RootedPath, SolverError,
                               regret_distance, tight_arcs)
from regret_route.flows import MinCostCirculation


class ReferenceCirculation(MinCostCirculation):
    """MinCostCirculation with a Dijkstra that settles every reachable node
    before each augmentation; only solve differs."""

    def solve(self) -> Tuple[int, List[int]]:
        n = self.n
        source, sink = n, n + 1
        size = n + 2
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


def zero_regret_cover(inst: Instance, targets) -> List[RootedPath]:
    """Minimum number of zero-regret rooted paths covering the targets."""
    targets = sorted(set(targets) - {inst.root})
    if not targets:
        return []

    net = MinCostCirculation(2 * inst.n + 2)
    root_out = 2 * inst.root
    sink = 2 * inst.n
    source_arc = net.add_arc(sink, root_out, lower=0, cap=inst.n, cost=1)
    for v in inst.clients:
        lb = 1 if v in set(targets) else 0
        net.add_arc(2 * v, 2 * v + 1, lower=lb, cap=inst.n, cost=0)
    hop = {}
    for u, v in tight_arcs(inst):
        tail = root_out if u == inst.root else 2 * u + 1
        hop[(u, v)] = net.add_arc(tail, 2 * v, lower=0, cap=inst.n, cost=0)
    for v in inst.clients:
        net.add_arc(2 * v + 1, sink, lower=0, cap=inst.n, cost=0)

    _, flows = net.solve()

    # Peel paths from the root, always taking the smallest-(D, id) next hop.
    out_arcs: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
    flow = {}
    for (u, v), aid in hop.items():
        f = flows[aid]
        if f > 0:
            flow[(u, v)] = f
            out_arcs.setdefault(u, []).append(((inst.root_dist[v], v), aid))
    for lst in out_arcs.values():
        lst.sort()
    paths = []
    for _ in range(flows[source_arc]):
        seq = [inst.root]
        u = inst.root
        while True:
            nxt = None
            for (_, v), _aid in out_arcs.get(u, []):
                if flow.get((u, v), 0) > 0:
                    nxt = v
                    break
            if nxt is None:
                break
            flow[(u, nxt)] -= 1
            seq.append(nxt)
            u = nxt
        paths.append(RootedPath.build(inst, seq))
    assert all(p.regret == 0 for p in paths)
    assert set(targets) <= set().union(*(p.node_set for p in paths))
    return paths


def witness_flow(inst: Instance, arcs: Sequence[Tuple[int, int]],
                 witnesses: Sequence[int], value_cap: int
                 ) -> Tuple[int, Dict[Tuple[int, int], int], int,
                            List[List[int]]]:
    """Min-regret-cost flow of value <= value_cap entering every witness.

    Returns the cost, the positive flow per arc, the value and the peeled
    trails; MinCostCirculation raises SolverError when the lower bounds are
    infeasible.
    """
    wlist = sorted(witnesses)
    idx: Dict[Tuple[int, str], int] = {}

    def node(v: int, side: str) -> int:
        key = (v, side)
        if key not in idx:
            idx[key] = len(idx)
        return idx[key]

    root_out = node(inst.root, "out")
    for w in wlist:
        node(w, "in"), node(w, "out")
    collector = node(-1, "sink")
    net = MinCostCirculation(len(idx))
    arc_ids = {}
    for (u, v) in sorted(arcs):
        tail = root_out if u == inst.root else node(u, "out")
        arc_ids[(u, v)] = net.add_arc(tail, node(v, "in"), lower=0,
                                      cap=value_cap,
                                      cost=regret_distance(inst, u, v))
    for w in wlist:
        net.add_arc(node(w, "in"), node(w, "out"), lower=1, cap=value_cap,
                    cost=0)
        net.add_arc(node(w, "out"), collector, lower=0, cap=value_cap, cost=0)
    close = net.add_arc(collector, root_out, lower=0, cap=value_cap, cost=0)
    total, arc_flow = net.solve()
    flows = {a: arc_flow[aid] for a, aid in arc_ids.items() if arc_flow[aid] > 0}
    value = arc_flow[close]
    return total, flows, value, _peel(inst, flows, wlist, value)


def _peel(inst: Instance, flows: Mapping[Tuple[int, int], int],
          witnesses: Sequence[int], value: int) -> List[List[int]]:
    """Value-many root trails; each ends where its flow goes to the
    collector, and together they use up every arc's flow."""
    remaining = dict(flows)
    entering: Dict[int, int] = {}
    leaving: Dict[int, int] = {}
    for (u, v), f in flows.items():
        entering[v] = entering.get(v, 0) + f
        leaving[u] = leaving.get(u, 0) + f
    ends = {w: entering.get(w, 0) - leaving.get(w, 0) for w in witnesses}
    assert all(e >= 0 for e in ends.values()), "conservation violated"
    D = inst.root_dist
    outs: Dict[int, List[int]] = {}
    for (u, v) in sorted(remaining, key=lambda a: (D[a[1]], a[1])):
        outs.setdefault(u, []).append(v)

    raw: List[List[int]] = []
    for _ in range(value):
        seq = [inst.root]
        at = inst.root
        while True:
            nxt = next((v for v in outs.get(at, ())
                        if remaining.get((at, v), 0) > 0), None)
            if nxt is None:
                assert ends.get(at, 0) > 0, "trail stranded off a path end"
                ends[at] -= 1
                break
            remaining[(at, nxt)] -= 1
            seq.append(nxt)
            at = nxt
        raw.append(seq)
    assert all(f == 0 for f in remaining.values())
    return raw
