"""The deadline merge without forward slack: the test oracle for
``core.merge_paths``.

Each trial insertion builds the receiving path's new node sequence and
recomputes every visit time on it against the deadlines, so it needs none
of the slack bookkeeping.  The candidate order, the cheapest-position rule
and its tie-breaks are the ones ``merge_paths`` documents; the tests require
both to return the same paths.
"""

from typing import List, Mapping, Sequence

from regret_route.core import Instance, RootedPath


def _length(inst: Instance, nodes: Sequence[int]) -> int:
    return sum(inst.dist[u][v] for u, v in zip(nodes, nodes[1:]))


def _on_time(inst: Instance, nodes: Sequence[int],
             deadline: Mapping[int, int]) -> bool:
    t = 0
    for u, v in zip(nodes, nodes[1:]):
        t += inst.dist[u][v]
        if t > deadline.get(v, -1):
            return False
    return True


def merge_paths(inst: Instance, paths: Sequence[RootedPath],
                deadline: Mapping[int, int]) -> List[RootedPath]:
    routes = [list(p.nodes) for p in paths if len(p.nodes) > 1]
    while True:
        for c in sorted(range(len(routes)),
                        key=lambda i: (len(routes[i]), i)):
            others = {v for j, r in enumerate(routes) if j != c for v in r}
            trial = [list(r) for r in routes]
            fits = True
            for v in routes[c][1:]:
                if v in others:
                    continue
                best = None
                for j, r in enumerate(trial):
                    if j == c:
                        continue
                    for i in range(len(r)):
                        new = r[:i + 1] + [v] + r[i + 1:]
                        if not _on_time(inst, new, deadline):
                            continue
                        added = _length(inst, new) - _length(inst, r)
                        if best is None or added < best[0]:
                            best = (added, j, i)
                if best is None:
                    fits = False
                    break
                _, j, i = best
                trial[j].insert(i + 1, v)
            if fits:
                del trial[c]
                routes = trial
                break
        else:
            return [RootedPath.build(inst, r) for r in routes]
