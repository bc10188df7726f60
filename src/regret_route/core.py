"""Metric instances, rooted paths, regret arithmetic, and edge coloring."""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby
from operator import le
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

INF = 1 << 60


class RegretRouteError(Exception):
    """Base class for all solver errors."""


class InvalidInstanceError(RegretRouteError):
    """Input metric is malformed (asymmetric, negative, non-integral, ...)."""


class MalformedPathError(RegretRouteError):
    """A node sequence does not form a valid rooted path."""


class InfeasibleError(RegretRouteError):
    """Requested parameters admit no feasible solution."""

    def __init__(self, message: str, nodes: Sequence[int] = ()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class SolverError(RegretRouteError):
    """Internal failure that theory says should not happen; a bug signal."""


def require(cond: bool, msg: str) -> None:
    """Raise SolverError(msg) unless cond; a certificate ``python -O``
    keeps, unlike an assert."""
    if not cond:
        raise SolverError(msg)


def require_cover(paths: Iterable[RootedPath], targets: Iterable[int],
                  msg: str) -> None:
    """Raise SolverError unless the paths visit every target; a ``{}`` in
    msg is filled in with the sorted targets they miss."""
    missing = set(targets).difference(*(p.node_set for p in paths))
    if missing:
        raise SolverError(msg.format(sorted(missing)))


def _as_int(x, what: str = "distance entry") -> int:
    # Accept an int (not a bool) or an integral real: a float, numpy scalar
    # or Fraction. Refuse anything else (a str, a numpy bool), naming x.
    if isinstance(x, bool):
        raise InvalidInstanceError(f"boolean {what}")
    if isinstance(x, int):
        return x
    if isinstance(x, numbers.Real) and abs(x) < math.inf and int(x) == x:
        return int(x)
    raise InvalidInstanceError(f"non-integer {what}: {x!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """Complete integer metric on n nodes with a distinguished root.

    dist is symmetric, zero on the diagonal, and satisfies the triangle
    inequality. root_dist caches the root row: root_dist[v] is the shortest
    root-to-v distance, written D_v elsewhere.
    """

    n: int
    root: int
    dist: Tuple[Tuple[int, ...], ...]
    root_dist: Tuple[int, ...]
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_matrix(cls, dist, root: int = 0, meta: dict | None = None,
                    validate: bool = True) -> "Instance":
        try:
            rows = [tuple(_as_int(x) for x in row) for row in dist]
        except TypeError:
            raise InvalidInstanceError(
                "distance matrix is not a list of rows") from None
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidInstanceError("distance matrix is not square")
        if not 0 <= root < n:
            raise InvalidInstanceError(f"root {root} out of range")
        if validate:
            _validate_metric(rows)
        return cls(n=n, root=root, dist=tuple(rows),
                   root_dist=tuple(rows[root]), meta=dict(meta or {}))

    @property
    def clients(self) -> Tuple[int, ...]:
        return tuple(v for v in range(self.n) if v != self.root)

    def to_dict(self) -> dict:
        return {"n": self.n, "root": self.root,
                "dist": [list(row) for row in self.dist], "meta": self.meta}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Instance":
        if not isinstance(d, Mapping) or "dist" not in d:
            raise InvalidInstanceError(
                'an instance is a JSON object with a "dist" matrix')
        meta = d.get("meta")
        if meta is not None and not isinstance(meta, Mapping):
            raise InvalidInstanceError(
                f'an instance\'s "meta" is a JSON object, not {meta!r}')
        return cls.from_matrix(d["dist"], meta=meta,
                               root=_as_int(d.get("root", 0), "root"))


def _validate_metric(rows: List[Tuple[int, ...]]) -> None:
    n = len(rows)
    for u in range(n):
        if rows[u][u] != 0:
            raise InvalidInstanceError(f"nonzero diagonal at node {u}")
        for v in range(u + 1, n):
            if rows[u][v] != rows[v][u]:
                raise InvalidInstanceError(f"asymmetric entry ({u},{v})")
            if rows[u][v] < 0:
                raise InvalidInstanceError(f"negative distance ({u},{v})")
    for w in range(n):
        rw = rows[w]
        for u in range(n):
            ru = rows[u]
            uw = ru[w]
            for v in range(u + 1, n):
                if ru[v] > uw + rw[v]:
                    raise InvalidInstanceError(
                        f"triangle inequality fails: d({u},{v}) > d({u},{w}) + d({w},{v})")


@dataclass(frozen=True, eq=False)
class RootedPath:
    """Simple path starting at the root, with cached cost and regret data.

    prefix_regret[i] is the regret of nodes[i]: cost of the prefix ending
    there minus D of that node. It is nonnegative and nondecreasing, and
    prefix_regret[-1] equals the path regret.
    """

    nodes: Tuple[int, ...]
    cost: int
    regret: int
    prefix_regret: Tuple[int, ...]
    node_set: frozenset = field(repr=False)

    @classmethod
    def build(cls, inst: Instance, nodes: Sequence[int]) -> "RootedPath":
        nodes = tuple(map(int, nodes))
        if not nodes:
            raise MalformedPathError("empty node sequence")
        if nodes[0] != inst.root:
            raise MalformedPathError(f"path starts at {nodes[0]}, not the root")
        if min(nodes) < 0 or max(nodes) >= inst.n:
            raise MalformedPathError("node id out of range")
        node_set = frozenset(nodes)
        if len(node_set) != len(nodes):
            raise MalformedPathError("repeated node in path")
        dist, D = inst.dist, inst.root_dist
        cost = 0
        prefix = [0]
        for u, v in zip(nodes, nodes[1:]):
            cost += dist[u][v]
            prefix.append(cost - D[v])
        # Nondecreasing from prefix[0] = 0, so nonnegative too.
        if not all(map(le, prefix, prefix[1:])):
            raise SolverError(f"prefix regrets {prefix} of {nodes} are not "
                              "nonnegative and nondecreasing")
        # The frozen dataclass __init__ sets each field through
        # object.__setattr__; one __dict__ update sets all five at once.
        path = object.__new__(cls)
        path.__dict__.update(nodes=nodes, cost=cost, regret=prefix[-1],
                             prefix_regret=tuple(prefix), node_set=node_set)
        return path

    @classmethod
    def trivial(cls, inst: Instance) -> "RootedPath":
        return cls.build(inst, (inst.root,))

    @property
    def end(self) -> int:
        return self.nodes[-1]

    @property
    def is_trivial(self) -> bool:
        return len(self.nodes) == 1

    def visit_cost(self, i: int, inst: Instance) -> int:
        """Distance travelled from the root to nodes[i] along the path."""
        return self.prefix_regret[i] + inst.root_dist[self.nodes[i]]


def regret_distance(inst: Instance, u: int, v: int) -> int:
    """Asymmetric regret length of edge (u, v): D_u + c_uv - D_v."""
    return inst.root_dist[u] + inst.dist[u][v] - inst.root_dist[v]


@dataclass(frozen=True, eq=False)
class EdgeColoring:
    """Red/blue labels for the edges of one rooted path.

    Edge i (between positions i and i+1) is red iff some node at position
    <= i is at least as far from the root as some node at position >= i+1.
    piece maps each node to its maximal red subpath, or to (v,) when no red
    edge touches v.
    """

    path: RootedPath
    edge_is_red: Tuple[bool, ...]
    piece: Mapping[int, Tuple[int, ...]] = field(repr=False)

    def red_cost(self, inst: Instance) -> int:
        nodes = self.path.nodes
        return sum(inst.dist[nodes[i]][nodes[i + 1]]
                   for i, red in enumerate(self.edge_is_red) if red)


def classify_edges(inst: Instance, path: RootedPath) -> EdgeColoring:
    """Label each path edge red or blue via prefix-max / suffix-min of D.

    The total cost of red edges is at most 1.5x the path regret; this is
    checked on output.
    """
    nodes = path.nodes
    D = [inst.root_dist[v] for v in nodes]
    prefmax = accumulate(D, max)
    sufmin = list(accumulate(reversed(D), min))[::-1]
    red = tuple(a >= b for a, b in zip(prefmax, sufmin[1:]))
    # Cutting after every blue edge leaves the maximal red subpaths and the
    # nodes no red edge touches.
    cuts = [0, *(i + 1 for i, r in enumerate(red) if not r), len(nodes)]
    piece = {v: nodes[a:b] for a, b in zip(cuts, cuts[1:]) for v in nodes[a:b]}
    coloring = EdgeColoring(path=path, edge_is_red=red, piece=piece)
    require(2 * coloring.red_cost(inst) <= 3 * path.regret,
            f"red edges of {nodes} cost more than 1.5x its regret")
    return coloring


def split_by_regret(inst: Instance, path: RootedPath, R: int) -> List[RootedPath]:
    """Break a path into rooted subpaths of regret at most R.

    Nodes are grouped by the window (ell*R, (ell+1)*R] their prefix regret
    falls in; prefix regrets never fall, so each group is a run of the path
    and, with the root put in front, a rooted path. Returns at most
    max(ceil(regret/R), 1) paths whose union covers the input.
    """
    if R <= 0:
        raise ValueError(f"regret bound must be positive, got {R}")
    if path.regret <= R:
        return [path]
    windows = groupby(zip(path.nodes[1:], path.prefix_regret[1:]),
                      key=lambda vp: max(-(-vp[1] // R) - 1, 0))
    out = [RootedPath.build(inst, [inst.root, *(v for v, _ in group)])
           for _, group in windows]
    require(len(out) <= -(-path.regret // R), "split made too many paths")
    require(all(p.regret <= R for p in out), f"split left regret above {R}")
    require_cover(out, path.nodes, "split lost nodes")
    return out


def farthest_node(inst: Instance, path: RootedPath) -> int:
    """Farthest-from-root client on the path (the root on a trivial one);
    ties go to the smallest id, so a client at the depot beats the root."""
    return max(path.nodes[1:] or path.nodes,
               key=lambda v: (inst.root_dist[v], -v))


def preprocess_path_pair(inst: Instance, path: RootedPath) -> Tuple[RootedPath, RootedPath]:
    """Split a path into two paths that both end at its farthest node.

    The first is the prefix up to the farthest node v; the second jumps to
    the old end and walks the end-to-v portion backwards. Neither costs more
    than the original, neither has larger regret, and together they cover
    all of its nodes. If the path already ends at v the second output is the
    degenerate two-node path root->v.
    """
    v = farthest_node(inst, path)
    j = path.nodes.index(v)
    first = RootedPath.build(inst, path.nodes[:j + 1])
    if j == 0:  # trivial path
        return first, first
    tail = tuple(reversed(path.nodes[j:]))
    second = RootedPath.build(inst, (inst.root,) + tail)
    require(max(first.cost, second.cost) <= path.cost,
            f"preprocessing {path.nodes} raised its cost")
    require(max(first.regret, second.regret) <= path.regret,
            f"preprocessing {path.nodes} raised its regret")
    require(first.end == second.end == v,
            f"preprocessed paths do not both end at {v}")
    return first, second


def shortcut(inst: Instance, path: RootedPath, keep: Iterable[int]) -> RootedPath:
    """Subsequence of the path restricted to keep (the root always stays)."""
    keep = set(keep)
    if not keep <= path.node_set:
        raise ValueError("keep contains nodes not on the path")
    nodes = [path.nodes[0]] + [v for v in path.nodes[1:] if v in keep]
    out = RootedPath.build(inst, nodes)
    require(out.cost <= path.cost and out.regret <= path.regret,
            f"shortcut of {path.nodes} costs more than the path")
    return out


def check_cap(inst: Instance, cap) -> int:
    """The distance cap as an int; InfeasibleError naming the clients
    farther than it from the root, which no capped path can reach."""
    cap = _as_int(cap, "distance cap")
    far = [v for v in inst.clients if inst.root_dist[v] > cap]
    if far:
        raise InfeasibleError(
            f"nodes {far} lie beyond distance {cap} from the root", nodes=far)
    return cap


def check_regret(R) -> int:
    """The additive regret bound as an int; ValueError if negative."""
    R = _as_int(R, "regret bound")
    if R < 0:
        raise ValueError("regret bound must be nonnegative")
    return R


def as_fraction(x, what: str) -> Fraction:
    """x as a Fraction; ValueError, not ZeroDivisionError, on a zero
    denominator such as "1/0"."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {what} {x!r}") from None


def check_path_budget(k) -> int:
    """The path budget as an int; ValueError below 1."""
    k = _as_int(k, "path budget")
    if k < 1:
        raise ValueError("path budget must be at least 1")
    return k


def deadlines(inst: Instance, mode: str, param) -> Dict[int, int]:
    """The latest time each client may be reached, on every path through
    it, under a verify mode and its parameter: D_v + R for ``rvrp``,
    D_v + b_v for ``nonuniform``, floor(ratio * D_v) for ``multiplicative``
    (visit times are ints) and the cap for ``dvrp`` (a path's length is its
    last visit time).  The parameter is refused as the mode's solver
    refuses it, but a cap below some D_v is not: those clients are late.
    """
    D = inst.root_dist
    if mode == "rvrp":                  # one bound for every client
        param = dict.fromkeys(inst.clients, check_regret(param))
    if mode in ("rvrp", "nonuniform"):
        return {v: D[v] + b for v, b in node_bounds(inst, param).items()}
    if mode == "multiplicative":
        ratio = as_fraction(param, "multiplicative bound")
        if ratio < 1:
            raise ValueError("multiplicative bound must be at least 1")
        return {v: int(ratio * D[v]) for v in inst.clients}   # floor: >= 0
    if mode == "dvrp":
        return dict.fromkeys(inst.clients, _as_int(param, "distance cap"))
    raise ValueError(f"unknown verification mode {mode!r}")


def require_deadlines(inst: Instance, paths: Sequence[RootedPath],
                      deadline: Mapping[int, int], cover_msg: str) -> None:
    """Raise SolverError unless every visit after the root, not only a
    node's first, meets the node's deadline (a node without one is always
    late) and every node with one is visited; cover_msg is require_cover's."""
    for p in paths:
        for i, v in enumerate(p.nodes[1:], 1):
            if p.visit_cost(i, inst) > deadline.get(v, -1):
                raise SolverError(f"node {v} visited too late")
    require_cover(paths, deadline, cover_msg)


class _Route:
    """A path's nodes with its visit times and forward slack: slack[i] is
    how far every visit from position i on may be delayed and still meet
    its deadline (INF past the end), so an insertion is tested in O(1)."""

    __slots__ = ("nodes", "time", "slack", "path")

    def __init__(self, nodes: Sequence[int], dist, deadline: Mapping[int, int],
                 path: RootedPath | None = None):
        self.nodes = nodes
        self.path = path                    # the input path, while unchanged
        self.time = list(accumulate(
            (dist[u][v] for u, v in zip(nodes, nodes[1:])), initial=0))
        self.slack = [INF] * (len(nodes) + 1)
        for i in range(len(nodes) - 1, 0, -1):
            self.slack[i] = min(deadline.get(nodes[i], -1) - self.time[i],
                                self.slack[i + 1])

    def best_insertion(self, v: int, due: int, dist_v: Sequence[int]):
        """(added cost, i) of the cheapest insertion of v after position i
        that meets v's deadline due and every later one, the first such i
        on ties; None when there is none."""
        nodes, time, slack = self.nodes, self.time, self.slack
        last = len(nodes) - 1
        best = None
        for i, a in enumerate(nodes):
            to_v = dist_v[a]
            # time[i] + d(a, v) never falls as i grows (triangle inequality)
            if time[i] + to_v > due:
                break
            if i < last:
                b = nodes[i + 1]
                added = to_v + dist_v[b] - time[i + 1] + time[i]
                if added > slack[i + 1]:
                    continue
            else:
                added = to_v
            if best is None or added < best[0]:
                best = (added, i)
        return best


def merge_paths(inst: Instance, paths: Sequence[RootedPath],
                deadline: Mapping[int, int]) -> List[RootedPath]:
    """Fewer paths for the same deadlines: drop whole paths by inserting
    their clients into the others (Clarke & Wright's savings merge, tested
    by forward slack as in Savelsbergh 1992).

    Trivial paths go first.  Candidates are taken in ascending (clients on
    the path, position) order; each client of the candidate that no other
    path visits is inserted, in path order, at the cheapest position of
    another path that keeps every deadline (ties go to the earlier path,
    then the earlier position).  When every client fits the candidate is
    dropped and the scan restarts; otherwise the trial is undone.  It stops
    when no path can be dropped.  Surviving paths keep their input order,
    and the merged cover is rechecked with require_deadlines, so the count
    never rises and every deadline still holds.
    """
    dist = inst.dist
    routes = [_Route(p.nodes, dist, deadline, p) for p in paths
              if not p.is_trivial]
    visits: Dict[int, int] = {}
    for r in routes:
        for v in r.nodes[1:]:
            visits[v] = visits.get(v, 0) + 1
    while True:
        for c in sorted(range(len(routes)),
                        key=lambda i: (len(routes[i].nodes), i)):
            changed = _absorb(routes, c, visits, dist, deadline)
            if changed is not None:
                break
        else:
            break
        for i, r in changed.items():
            routes[i] = r
        for v in routes.pop(c).nodes[1:]:
            if visits[v] > 1:       # else v moved to the route that took it
                visits[v] -= 1
    out = [r.path or RootedPath.build(inst, r.nodes) for r in routes]
    require_deadlines(inst, out, deadline, "merge left clients {} uncovered")
    return out


def _absorb(routes: List[_Route], c: int, visits: Mapping[int, int], dist,
            deadline: Mapping[int, int]):
    """The routes, by index, that take in every client only routes[c]
    visits, one cheapest insertion at a time; None when one does not fit."""
    changed: Dict[int, _Route] = {}
    for v in routes[c].nodes[1:]:
        if visits[v] > 1:
            continue
        due, dist_v = deadline.get(v, -1), dist[v]
        best = None
        for j, r in enumerate(routes):
            if j == c:
                continue
            r = changed.get(j, r)
            found = r.best_insertion(v, due, dist_v)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], j, found[1])
        if best is None:
            return None
        _, j, i = best
        r = changed.get(j, routes[j])
        changed[j] = _Route((*r.nodes[:i + 1], v, *r.nodes[i + 1:]), dist,
                            deadline)
    return changed


def node_bounds(inst: Instance, bounds: Mapping) -> Dict[int, int]:
    """Regret bounds by int node id, keyed by ints (not bools) or decimal
    strings such as JSON's; ValueError naming a key that is neither, a node
    two keys name, non-client keys and the first client without a
    nonnegative bound."""
    out: Dict[int, int] = {}
    for key, b in bounds.items():
        if not (type(key) is int or isinstance(key, str) and
                re.fullmatch(r"[+-]?[0-9]+", key)):
            raise ValueError(f"regret bound key {key!r} is not a node id")
        v = int(key)
        if v in out:
            raise ValueError(f"two regret bounds for node {v}")
        out[v] = _as_int(b, f"regret bound of node {v}")
    stray = sorted(set(out) - set(inst.clients))
    if stray:
        raise ValueError(f"regret bounds for non-clients {stray}")
    for v in inst.clients:
        if v not in out:
            raise ValueError(f"missing regret bound for node {v}")
        if out[v] < 0:
            raise ValueError(f"negative regret bound for node {v}")
    return out


def tight_arcs(inst: Instance) -> List[Tuple[int, int]]:
    """Arcs (u, v) with D_u + c_uv = D_v; exactly the zero-regret edges.

    Between co-located clients (c_uv = 0) only the arc from the smaller
    (D, id) is kept, so the arcs form a DAG; arcs out of the root all stay.
    """
    D = inst.root_dist
    arcs = []
    for u in range(inst.n):
        for v in inst.clients:
            if (u != v and D[u] + inst.dist[u][v] == D[v] and
                    (u == inst.root or (D[u], u) < (D[v], v))):
                arcs.append((u, v))
    return arcs


def zero_regret_cover(inst: Instance, targets: Iterable[int]) -> List[RootedPath]:
    """Minimum number of zero-regret rooted paths covering the target nodes.

    A zero-regret path can only use tight arcs, which form a DAG ((D, id)
    strictly increases), so this is a minimum path cover with node lower
    bounds: flows.min_cost_path_cover over the tight arcs at cost 0, with
    the targets required, capacity n and one unit of cost per path.
    """
    from .flows import min_cost_path_cover

    targets = sorted(set(targets) - {inst.root})
    if any(not 0 <= v < inst.n for v in targets):
        raise ValueError("target node out of range")
    if not targets:
        return []

    _, trails = min_cost_path_cover(inst, dict.fromkeys(tight_arcs(inst), 0),
                                    targets, inst.n, 1)
    paths = [RootedPath.build(inst, t) for t in trails]
    require(all(p.regret == 0 for p in paths),
            "zero-regret cover has a path with positive regret")
    require_cover(paths, targets, "zero-regret cover left targets {} uncovered")
    return paths


def metric_from_edges(n: int, edges: Iterable[Tuple[int, int, int]]) -> List[List[int]]:
    """Shortest-path closure of a weighted undirected edge list."""
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v, w in edges:
        w = _as_int(w, "edge weight")
        if w < 0:
            raise InvalidInstanceError(f"negative edge weight on ({u},{v})")
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    _floyd(d)
    if any(d[i][j] >= INF for i in range(n) for j in range(n)):
        raise InvalidInstanceError("edge list does not connect all nodes")
    return d


def _floyd(d: List[List[int]]) -> None:
    n = len(d)
    for w in range(n):
        dw = d[w]
        for u in range(n):
            du = d[u]
            uw = du[w]
            if uw >= INF:
                continue
            for v in range(n):
                alt = uw + dw[v]
                if alt < du[v]:
                    du[v] = alt


def induced_instance(inst: Instance, keep: Iterable[int]) -> Tuple[Instance, List[int]]:
    """Sub-instance on {root} union keep; returns it plus new->original ids."""
    ids = [inst.root] + sorted(set(keep) - {inst.root})
    if any(not 0 <= v < inst.n for v in ids):
        raise ValueError("node id out of range")
    sub = [[inst.dist[u][v] for v in ids] for u in ids]
    return Instance.from_matrix(sub, root=0, validate=False), ids


def solution_to_dict(paths: Sequence[RootedPath], stats: dict | None = None) -> dict:
    """JSON form of a solution: node sequences, per-path regrets, stats."""
    return {"paths": [list(p.nodes) for p in paths],
            "regrets": [p.regret for p in paths], "stats": stats or {}}


def solution_from_dict(d: Mapping) -> List[List[int]]:
    """The paths of a solution's JSON form; ValueError unless each is a
    list of int nodes (a bool is not one)."""
    if not isinstance(d, Mapping) or not isinstance(d.get("paths"), list):
        raise ValueError('a solution is a JSON object with a "paths" list')
    for p in d["paths"]:
        if not isinstance(p, list) or any(type(v) is not int for v in p):
            raise ValueError(f"a path is a list of int nodes, not {p!r}")
    return [list(p) for p in d["paths"]]
