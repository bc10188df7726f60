"""The verifier with one check per mode, reading first visits only: the
test oracle.

verify is ``regret_route.harness.verify`` before every guarantee became
one deadline rule.  Each mode has its own check of the earliest visit of
each client (rvrp and nonuniform: its regret; multiplicative: its time
against ratio * D_v) or of each path's length (dvrp).  On solutions that
visit each client at most once, the tests require the deadline rule to
fail the same nodes and paths.
"""

from fractions import Fraction
from typing import Dict, List, Mapping, Optional

from regret_route.core import RootedPath, _as_int, node_bounds


def _length_check(inst, visits: Mapping, lengths: Mapping, cap) -> List[dict]:
    cap = _as_int(cap, "distance cap")
    return [{"kind": "length", "path": idx,
             "detail": f"length {cost} exceeds {cap}"}
            for idx, cost in sorted(lengths.items()) if cost > cap]


def _visit_time_check(inst, visits: Mapping, lengths: Mapping,
                      ratio) -> List[dict]:
    ratio, D = Fraction(ratio), inst.root_dist
    return [{"kind": "visit_time", "node": v,
             "detail": f"first visit {min(t)} exceeds {ratio} * {D[v]}"}
            for v, t in sorted(visits.items()) if min(t) > ratio * D[v]]


def _node_regret_check(inst, visits: Mapping, lengths: Mapping,
                       bounds) -> List[dict]:
    bound = node_bounds(inst, bounds)
    D = inst.root_dist
    return [{"kind": "regret", "node": v,
             "detail": f"best regret {min(t) - D[v]} exceeds {bound[v]}"}
            for v, t in sorted(visits.items()) if min(t) - D[v] > bound[v]]


def _regret_check(inst, visits: Mapping, lengths: Mapping, R) -> List[dict]:
    R = _as_int(R, "regret bound")
    return _node_regret_check(inst, visits, lengths,
                              dict.fromkeys(inst.clients, R))


CHECKS = {"rvrp": ("regret", _regret_check),
          "dvrp": ("dist", _length_check),
          "multiplicative": ("ratio", _visit_time_check),
          "nonuniform": ("bounds", _node_regret_check)}


def verify(inst, paths, mode: str, params: Optional[Mapping] = None) -> dict:
    key, check = CHECKS[mode]
    params = dict(params or {})
    failures: List[dict] = []
    dist = inst.dist
    seqs = [list(p.nodes) if isinstance(p, RootedPath) else
            [int(v) for v in p] for p in paths]
    visits: Dict[int, List[int]] = {}
    lengths: Dict[int, int] = {}
    for idx, seq in enumerate(seqs):
        if not seq or seq[0] != inst.root:
            failures.append({"kind": "structure", "path": idx,
                             "detail": "path does not start at the root"})
            continue
        if any(not 0 <= v < inst.n for v in seq):
            failures.append({"kind": "structure", "path": idx,
                             "detail": "node id out of range"})
            continue
        if len(set(seq)) != len(seq):
            failures.append({"kind": "structure", "path": idx,
                             "detail": "repeated node"})
            continue
        cost = 0
        for u, v in zip(seq, seq[1:]):
            cost += dist[u][v]
            visits.setdefault(v, []).append(cost)
        lengths[idx] = cost
    for v in sorted(set(inst.clients) - set(visits)):
        failures.append({"kind": "coverage", "node": v,
                         "detail": "client not visited by any path"})
    failures.extend(check(inst, visits, lengths, params[key]))
    return {"mode": mode, "ok": not failures, "failures": failures}
