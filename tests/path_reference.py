"""Path-cutting loops: the test oracle for ``regret_route.core``.

classify_edges groups consecutive red edges into maximal runs with a
nested while loop and hands every position its (possibly trivial) run;
split_by_regret walks the prefix regrets with a window/current state
machine; farthest_node keeps the best (D, -id) seen.  ``core`` now cuts
each path once, at its blue edges or where the regret window changes.
The tests require the same edge colours, the same red subpath at every
node, the same split paths node for node and the same farthest node.
"""

from typing import Dict, List, Tuple

from regret_route.core import Instance, RootedPath


def classify_edges(inst: Instance, path: RootedPath
                   ) -> Tuple[Tuple[bool, ...], Dict[int, Tuple[int, ...]]]:
    """(edge_is_red, the red subpath of each node)."""
    nodes = path.nodes
    D = inst.root_dist
    m = len(nodes)
    red = []
    if m > 1:
        prefmax = [D[nodes[0]]]
        for v in nodes[1:]:
            prefmax.append(max(prefmax[-1], D[v]))
        sufmin = [0] * m
        sufmin[-1] = D[nodes[-1]]
        for i in range(m - 2, -1, -1):
            sufmin[i] = min(sufmin[i + 1], D[nodes[i]])
        red = [prefmax[i] >= sufmin[i + 1] for i in range(m - 1)]

    # Group consecutive red edges into maximal runs; every position gets one.
    span = [(i, i) for i in range(m)]
    i = 0
    intervals = []
    while i < m - 1:
        if red[i]:
            j = i
            while j < m - 1 and red[j]:
                j += 1
            intervals.append(tuple(nodes[i:j + 1]))
            for p in range(i, j + 1):
                span[p] = (i, j)
            i = j
        else:
            i += 1
    span_nodes = tuple(tuple(nodes[a:b + 1]) for a, b in span)
    return tuple(red), {v: span_nodes[i] for i, v in enumerate(nodes)}


def split_by_regret(inst: Instance, path: RootedPath, R: int
                    ) -> List[RootedPath]:
    """The split without its checks; R >= 1."""
    if path.regret <= R:
        return [path]
    nodes, prefix = path.nodes, path.prefix_regret
    groups: List[List[int]] = []
    window = 0
    current: List[int] = [nodes[0]]
    for v, pr in zip(nodes[1:], prefix[1:]):
        w = 0 if pr <= R else (pr + R - 1) // R - 1
        if w != window:
            groups.append(current)
            current = [inst.root, v]
            window = w
        else:
            current.append(v)
    groups.append(current)
    return [RootedPath.build(inst, g) for g in groups]


def farthest_node(inst: Instance, path: RootedPath) -> int:
    best = path.nodes[0]
    for v in path.nodes:
        if (inst.root_dist[v], -v) > (inst.root_dist[best], -best):
            best = v
    return best
