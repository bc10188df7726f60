"""Instance generators, brute-force oracles, verifiers, and the runner.

Everything here is support machinery: deterministic generators for the
test corpus, exact small-instance oracles the solvers are measured
against, a verifier that recomputes feasibility from the raw distance
matrix, and the experiment runner behind the command line.
"""

import json
import math
import random
import time
from fractions import Fraction
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from . import reductions
from .core import (Instance, RootedPath, InfeasibleError, _as_int, check_cap,
                   check_path_budget, check_regret, deadlines, merge_paths,
                   metric_from_edges)
from .lp import FractionalSolution
from .pricing import (DEFAULT_EXACT_THRESHOLD, OracleUnavailableError,
                      check_exact_threshold, table_for)

ORACLE_LIMIT = 12
LP_ORACLE_LIMIT = 9


# --- generators -------------------------------------------------------------

def gen_ladder(h: int, c: int = 1) -> Instance:
    """c disjoint ladders sharing the root; rails cost h, rungs cost 1.

    Each ladder has 2h-1 levels with two nodes per level.  The meta block
    carries the canonical fractional cover: for every level one path per
    rail direction that climbs to the level, crosses the rung, and runs
    out along the other rail.  Each such path has regret exactly 1 and
    weight 1/(2h), totalling 2 - 1/h per ladder, which pins the value of
    the covering LP at regret bound 1.
    """
    h = _as_int(h, "ladder height")
    c = _as_int(c, "ladder copies")
    if h < 1 or c < 1:
        raise ValueError("ladder parameters must be at least 1")
    levels = 2 * h - 1
    n = 1 + 2 * levels * c
    edges = []
    canonical = []
    for t in range(c):
        off = 1 + 2 * levels * t
        u = [off + 2 * i for i in range(levels)]
        v = [off + 2 * i + 1 for i in range(levels)]
        edges.append((0, u[0], h))
        edges.append((0, v[0], h))
        for i in range(levels - 1):
            edges.append((u[i], u[i + 1], h))
            edges.append((v[i], v[i + 1], h))
        for i in range(levels):
            edges.append((u[i], v[i], 1))
        for i in range(levels):
            canonical.append([0] + u[:i + 1] + v[i:])
            canonical.append([0] + v[:i + 1] + u[i:])
    meta = {"kind": "ladder", "h": h, "copies": c,
            "canonical_paths": canonical, "canonical_weight": [1, 2 * h]}
    return Instance.from_matrix(metric_from_edges(n, edges), meta=meta)


def gen_euclidean(n: int, seed: int, scale: int = 100) -> Instance:
    """Random points in a scale-by-scale square, distances rounded up.

    Rounding up preserves the triangle inequality (ceil is subadditive)
    and keeps distinct points at positive distance.
    """
    n = _as_int(n, "node count")
    scale = _as_int(scale, "scale")
    if n < 2:
        raise ValueError("need at least two nodes")
    if scale < 1:
        raise ValueError("scale must be positive")
    rng = random.Random(seed)
    pts: List[Tuple[float, float]] = []
    while len(pts) < n:
        p = (rng.uniform(0, scale), rng.uniform(0, scale))
        if p not in pts:
            pts.append(p)
    dist = [[math.ceil(math.hypot(a[0] - b[0], a[1] - b[1]))
             for b in pts] for a in pts]
    meta = {"kind": "euclidean", "n": n, "seed": seed, "scale": scale,
            "points": [[a, b] for a, b in pts]}
    return Instance.from_matrix(dist, meta=meta)


def gen_random_metric(n: int, seed: int, max_edge: int = 60) -> Instance:
    """Shortest-path closure of a complete graph with random integer costs."""
    n = _as_int(n, "node count")
    max_edge = _as_int(max_edge, "max edge")
    if n < 2:
        raise ValueError("need at least two nodes")
    if max_edge < 1:
        raise ValueError("max edge must be positive")
    rng = random.Random(seed)
    edges = [(i, j, rng.randint(1, max_edge))
             for i in range(n) for j in range(i + 1, n)]
    meta = {"kind": "random", "n": n, "seed": seed, "max_edge": max_edge}
    return Instance.from_matrix(metric_from_edges(n, edges), meta=meta)


def gen_line(positions: Sequence[int]) -> Instance:
    """Nodes on the integer line; node 0 is the root."""
    pos = [_as_int(p, "line position") for p in positions]
    if len(pos) < 2:
        raise ValueError("need at least two nodes")
    if len(set(pos)) != len(pos):
        raise ValueError("positions must be distinct")
    dist = [[abs(a - b) for b in pos] for a in pos]
    meta = {"kind": "line", "positions": pos}
    return Instance.from_matrix(dist, meta=meta)


# --- brute-force oracles ----------------------------------------------------

def _optima(inst: Instance, limit: int, attr: str) -> List[int]:
    """HKTable.min_regret or .min_length without the empty mask: the least
    regret or length of a rooted path through exactly each client set.
    The table is pricing's, so right after a solve of inst it is reused."""
    if not inst.clients:
        return []
    return getattr(table_for(inst, limit), attr).tolist()[1:]


def _cover_count(optima: Sequence[int], bound: int) -> int:
    """Fewest client sets with optima at most bound that cover every client.

    Feasible families here are subset-closed (dropping a node from a path
    and shortcutting never raises regret or length), so partitioning is as
    good as covering and the classic submask DP applies.
    """
    feasible = [False] + [x <= bound for x in optima]
    m = len(optima).bit_length()
    full = (1 << m) - 1
    best = [0] + [m + 1] * full
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        acc = m + 1
        while sub:
            if sub & low and feasible[sub]:
                cand = best[mask ^ sub] + 1
                if cand < acc:
                    acc = cand
            sub = (sub - 1) & mask
        best[mask] = acc
    return best[full]


def brute_force_rvrp(inst: Instance, R: int,
                     limit: int = ORACLE_LIMIT) -> int:
    """Exact minimum number of regret-<=R rooted paths covering all clients."""
    R = check_regret(R)
    return _cover_count(_optima(inst, limit, "min_regret"), R)


def brute_force_dvrp(inst: Instance, cap: int,
                     limit: int = ORACLE_LIMIT) -> int:
    """Exact minimum number of length-<=cap rooted paths covering all."""
    cap = check_cap(inst, cap)
    return _cover_count(_optima(inst, limit, "min_length"), cap)


def brute_force_krvrp(inst: Instance, k: int,
                      limit: int = ORACLE_LIMIT) -> int:
    """Exact minimum over <=k-path covers of the maximum path regret."""
    k = check_path_budget(k)
    regrets = _optima(inst, limit, "min_regret")
    values = sorted(set(regrets)) or [0]
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _cover_count(regrets, values[mid]) <= k:
            hi = mid
        else:
            lo = mid + 1
    return values[lo]


def brute_force_lp(inst: Instance, bound: int, kind: str = "regret",
                   limit: int = LP_ORACLE_LIMIT) -> float:
    """Covering-LP value over every budget-feasible rooted path.

    Enumerates all simple rooted paths by depth-first search (pruned on
    the prefix budget, which is monotone for both regret and length),
    keeps the maximal feasible node sets, and solves the LP with an
    off-the-shelf solver.  Entirely independent of the column-generation
    stack, which this value is used to cross-check.
    """
    from scipy.optimize import linprog

    bound = _as_int(bound, "budget")
    if kind not in ("regret", "length"):
        raise ValueError(f"unknown budget kind {kind!r}")
    if bound < 0:
        raise ValueError("budget must be nonnegative")
    clients = inst.clients
    m = len(clients)
    if m > limit:
        raise OracleUnavailableError(
            f"{m} clients exceed the enumeration threshold {limit}")
    if m == 0:
        return 0.0
    index = {v: i for i, v in enumerate(clients)}
    D, dist = inst.root_dist, inst.dist

    feasible = set()

    def extend(u: int, mask: int, cost: int) -> None:
        for v in clients:
            bit = 1 << index[v]
            if mask & bit:
                continue
            new = cost + dist[u][v]
            excess = new - D[v] if kind == "regret" else new
            if excess > bound:
                continue
            feasible.add(mask | bit)
            extend(v, mask | bit, new)

    extend(inst.root, 0, 0)

    uncovered = [clients[i] for i in range(m)
                 if not any(mask >> i & 1 for mask in feasible)]
    if uncovered:
        raise InfeasibleError(
            f"nodes {uncovered} unreachable within the budget",
            nodes=uncovered)
    maximal = [mask for mask in feasible
               if not any(other != mask and other & mask == mask
                          for other in feasible)]
    rows = [[-1.0 if mask >> i & 1 else 0.0 for mask in maximal]
            for i in range(m)]
    res = linprog(c=[1.0] * len(maximal), A_ub=rows, b_ub=[-1.0] * m,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise InfeasibleError(f"LP solver failed: {res.message}")
    return float(res.fun)


# Oracle kind -> (the brute-force optimum, its parameter, which is also its
# CLI flag; the report field a solver's output is measured by against it).
ORACLES = {"rvrp": (brute_force_rvrp, "regret", "count"),
           "dvrp": (brute_force_dvrp, "dist", "count"),
           "krvrp": (brute_force_krvrp, "k", "max_regret")}


# --- verifier ---------------------------------------------------------------

# Verify mode -> (its parameter, which is also its CLI flag; the kind of a
# failure to reach a client by the deadline core.deadlines gives it).
VERIFY_MODES = {"rvrp": ("regret", "regret"), "dvrp": ("dist", "length"),
                "multiplicative": ("ratio", "visit_time"),
                "nonuniform": ("bounds", "regret")}


def verify(inst: Instance, paths: Iterable, mode: str,
           params: Optional[Mapping] = None) -> dict:
    """Recompute feasibility of a solution from the distance matrix alone.

    Accepts raw node sequences or path objects, trusting neither costs
    nor regrets.  Checks structure (rooted, valid ids, no repeats),
    coverage, and that every visit of a client, not only its first, meets
    its core.deadlines deadline: a failure per late visit, or under dvrp,
    where every deadline is the cap, per path too long.  Failures become
    report entries; a parameter the mode's solver refuses raises there.
    """
    if mode not in VERIFY_MODES:
        raise ValueError(f"unknown verification mode {mode!r}")
    key, kind = VERIFY_MODES[mode]
    params = dict(params or {})
    if params.get(key) is None:
        raise ValueError(f"verification mode {mode!r} requires the "
                         f"{key!r} parameter")
    deadline = deadlines(inst, mode, params[key])
    failures: List[dict] = []
    D, dist = inst.root_dist, inst.dist

    seqs = [list(p.nodes) if isinstance(p, RootedPath) else
            [int(v) for v in p] for p in paths]
    seen: Dict[int, int] = {}       # client -> its earliest visit time
    lengths: Dict[int, int] = {}
    for idx, seq in enumerate(seqs):
        malformed = None
        if not seq or seq[0] != inst.root:
            malformed = "path does not start at the root"
        elif any(not 0 <= v < inst.n for v in seq):
            malformed = "node id out of range"
        elif len(set(seq)) != len(seq):
            malformed = "repeated node"
        if malformed:
            failures.append({"kind": "structure", "path": idx,
                             "detail": malformed})
            continue
        cost, path_late = 0, []
        for u, v in zip(seq, seq[1:]):
            cost += dist[u][v]
            seen[v] = min(seen.get(v, cost), cost)
            if cost > deadline[v]:
                path_late.append({"kind": kind, "node": v, "detail":
                                  f"visit {cost} on path {idx} exceeds its "
                                  f"deadline {deadline[v]}"})
        lengths[idx] = cost
        if kind == "length" and path_late:
            # every deadline is the cap, so the last visit is late too
            path_late = [{"kind": kind, "path": idx, "detail":
                          f"length {cost} exceeds {deadline[seq[-1]]}"}]
        failures.extend(path_late)

    for v in sorted(set(inst.clients) - set(seen)):
        failures.append({"kind": "coverage", "node": v,
                         "detail": "client not visited by any path"})

    stats = {"paths": len(seqs), "covered": len(seen),
             "max_length": max(lengths.values(), default=0),
             "max_regret": max((t - D[v] for v, t in seen.items()), default=0),
             "total_regret": sum(cost - D[seqs[idx][-1]]
                                 for idx, cost in lengths.items())}
    return {"mode": mode, "ok": not failures, "failures": failures,
            "stats": stats}


# --- experiment runner ------------------------------------------------------

class Solver(NamedTuple):
    param: str              # the budget parameter, also the CLI flag
    function: str           # the reductions function that runs it, looked
                            # up on every call so that a wrapper bound to the
                            # module global sees the call
    verify_mode: Optional[str]  # None for a k-path cover, verified at the
                                # worst regret it produced
    oracle: Optional[str]   # the oracle kind; None without a brute force
    threshold: bool         # takes a rounding split threshold


SOLVERS = {
    "rvrp": Solver("regret", "solve_rvrp", "rvrp", "rvrp", True),
    "dvrp-dp": Solver("dist", "solve_dvrp_dp", "dvrp", "dvrp", False),
    "dvrp-lp": Solver("dist", "solve_dvrp_lp_round", "dvrp", "dvrp", False),
    "mult": Solver("ratio", "solve_multiplicative", "multiplicative", None,
                   False),
    "nonuniform": Solver("bounds", "solve_nonuniform", "nonuniform", None,
                         False),
    "krvrp": Solver("k", "solve_krvrp_minmax", None, "krvrp", False),
}


def _solver(name: str) -> Solver:
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}")
    return SOLVERS[name]


def run_solver(solver: str, inst: Instance, params: Mapping,
               diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Run a named solver from SOLVERS; the CLI reads the same table.

    A missing (or None) budget parameter, a rounding threshold given to a
    solver whose row says it takes none, and an exact threshold that is no
    int or is over the table memory budget are refused before any work
    (None means the default, as for every parameter).  A row with a
    verify mode has its cover merged after the solver's own checks
    (core.merge_paths under the mode's deadlines), and diagnostics gets
    the solver's own count as rounded_count.  This is the one place a
    cover is summarised: after the solve, diagnostics gets the returned
    paths' path_count, max_regret, total_regret and max_length, and
    subsolves (the solve_rvrp calls the solver made on sub-instances) is 0
    unless the solver set it."""
    row = _solver(solver)
    if params.get(row.param) is None:
        raise ValueError(f"solver {solver!r} requires the {row.param!r} "
                         f"parameter")
    exact = params.get("exact_threshold")
    diag = {} if diagnostics is None else diagnostics
    kwargs = {"diagnostics": diag, "exact_threshold": check_exact_threshold(
        DEFAULT_EXACT_THRESHOLD if exact is None else exact)}
    threshold = params.get("threshold")
    if threshold is not None and not row.threshold:
        raise ValueError(f"solver {solver!r} takes no rounding threshold")
    if threshold is not None:
        kwargs["threshold"] = threshold
    paths = getattr(reductions, row.function)(inst, params[row.param],
                                              **kwargs)
    if row.verify_mode is not None:
        diag["rounded_count"] = len(paths)
        paths = merge_paths(inst, paths, deadlines(inst, row.verify_mode,
                                                   params[row.param]))
    diag.setdefault("subsolves", 0)
    diag.update(path_count=len(paths),
                max_regret=max((p.regret for p in paths), default=0),
                total_regret=sum(p.regret for p in paths),
                max_length=max((p.cost for p in paths), default=0))
    return paths


def _verify_mode(solver: str, params: Mapping, paths: List[RootedPath]
                 ) -> Tuple[str, dict]:
    mode = _solver(solver).verify_mode
    if mode is None:
        # k-path covers carry no per-node budget; audit coverage and
        # recompute regrets by verifying against the worst regret produced.
        return "rvrp", {"regret": max((p.regret for p in paths), default=0)}
    key = VERIFY_MODES[mode][0]
    return mode, {key: params[key]}


def _oracle_value(solver: str, inst: Instance, params: Mapping
                  ) -> Optional[int]:
    kind = _solver(solver).oracle
    if kind is None:
        return None
    oracle, key, _ = ORACLES[kind]
    try:
        return oracle(inst, params[key])
    except OracleUnavailableError:
        return None


def run_job(job: Mapping, timings: bool = False) -> dict:
    """Execute one (instance, solver) pair into a report dictionary.

    Report keys: id, solver, n, params, count, rounded_count (the
    solver's own count before run_solver's merge; absent for krvrp),
    total_regret, max_regret, max_length, lp_value, lp_certified,
    lp_rounds, lp_pivots and lp_columns (when the solver produced an LP;
    certified is false when pricing was heuristic; rounds, pivots and
    columns are the column-generation rounds, the master's simplex pivots
    and the columns it ended with), subsolves (the solve_rvrp calls a
    reduction made on sub-instances; 0 for rvrp and krvrp), oracle (exact
    optimum when the instance is small enough, plus the solver/oracle
    ratio), bound_checks (forwarded from the solver diagnostics), ok.
    count, rounded_count, the regrets, max_length and subsolves are
    run_solver's summary.
    """
    inst: Instance = job["instance"]
    params = dict(job["params"])
    started = time.perf_counter()
    diag: dict = {}
    paths = run_solver(job["solver"], inst, params, diagnostics=diag)
    elapsed = time.perf_counter() - started

    mode, vparams = _verify_mode(job["solver"], params, paths)
    report_params = {k: (str(v) if isinstance(v, Fraction) else v)
                     for k, v in params.items()}
    check = verify(inst, paths, mode, vparams)
    report = {
        "id": job["id"],
        "solver": job["solver"],
        "n": inst.n,
        "params": report_params,
        "count": diag["path_count"],
        "ok": check["ok"],
        "failures": check["failures"],
    }
    report.update((key, diag[key]) for key in
                  ("rounded_count", "total_regret", "max_regret",
                   "max_length", "subsolves",
                   "bound_checks", *FractionalSolution.REPORT_KEYS)
                  if key in diag)
    if job.get("oracle"):
        opt = _oracle_value(job["solver"], inst, params)
        if opt is not None:
            report["oracle"] = opt
            measured = report[ORACLES[SOLVERS[job["solver"]].oracle][2]]
            report["ratio"] = (None if opt == 0 else
                               round(measured / opt, 6))
    if timings:
        report["wall_ms"] = round(elapsed * 1000, 3)
    return report


def _suite_smoke(seed: int) -> List[dict]:
    line = gen_line([0, 1, 2, 4])
    star = Instance.from_matrix(
        [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(5)]
         for i in range(5)])
    ladder = gen_ladder(2, 1)
    euclid = gen_euclidean(6, seed)
    jobs = []
    for name, inst in [("line", line), ("star", star),
                       ("ladder", ladder), ("euclid", euclid)]:
        maxd = max(inst.root_dist)
        batch = [
            ("rvrp", {"regret": 0}, True),
            ("rvrp", {"regret": 2}, True),
            ("dvrp-dp", {"dist": maxd + 2}, True),
            ("dvrp-lp", {"dist": maxd + 2}, True),
            ("krvrp", {"k": 2}, True),
            ("mult", {"ratio": Fraction(3, 2)}, False),
            ("nonuniform", {"bounds": {v: v % 3 for v in inst.clients}},
             False),
        ]
        for pos, (solver, params, oracle) in enumerate(batch):
            jobs.append({"id": f"smoke-{name}-{solver}-{pos}",
                         "solver": solver, "instance": inst,
                         "params": params, "oracle": oracle})
    return jobs


def _suite_rvrp(seed: int) -> List[dict]:
    jobs = []
    for i in range(12):
        n = 6 + i % 5
        inst = (gen_random_metric(n, seed * 1000 + i) if i % 2 == 0
                else gen_euclidean(n, seed * 1000 + i))
        maxd = max(inst.root_dist)
        R = (0, 1, maxd // 2, 2 * maxd)[i % 4]
        jobs.append({"id": f"rvrp-{i:03d}", "solver": "rvrp",
                     "instance": inst, "params": {"regret": R},
                     "oracle": True})
    return jobs


def _suite_caps(seed: int) -> List[dict]:
    jobs = []
    for i in range(10):
        n = 6 + i % 4
        inst = (gen_euclidean(n, seed * 500 + i) if i % 2 == 0
                else gen_random_metric(n, seed * 500 + i))
        maxd = max(inst.root_dist)
        if i % 3 == 0:
            job = {"solver": "dvrp-dp", "params": {"dist": maxd + i},
                   "oracle": True}
        elif i % 3 == 1:
            job = {"solver": "dvrp-lp", "params": {"dist": maxd + i},
                   "oracle": True}
        else:
            job = {"solver": "mult",
                   "params": {"ratio": (Fraction(5, 4), Fraction(2))[i % 2]}}
        job.update(id=f"caps-{i:03d}", instance=inst)
        jobs.append(job)
    return jobs


def _suite_heuristic(seed: int) -> List[dict]:
    """18 to 24 clients, above the exact threshold: every LP is priced by
    the heuristic, under a regret (rvrp), a length (dvrp-lp) and a
    min-excess (krvrp) query."""
    jobs = []
    for i in range(9):
        n = 19 + (3 * i) % 7
        inst = (gen_euclidean(n, seed * 900 + i) if i % 2 == 0
                else gen_random_metric(n, seed * 900 + i))
        maxd = max(inst.root_dist)
        solver, params = (("rvrp", {"regret": maxd // 4}),
                          ("krvrp", {"k": 2 + i % 2}),
                          ("dvrp-lp", {"dist": maxd + maxd // 2}))[i % 3]
        jobs.append({"id": f"heuristic-{i:03d}", "solver": solver,
                     "instance": inst, "params": params})
    return jobs


SUITES = {"smoke": _suite_smoke, "rvrp": _suite_rvrp, "caps": _suite_caps,
          "heuristic": _suite_heuristic}


def run_suite(name: str, seed: int = 0, timings: bool = False) -> List[dict]:
    """Run a named suite; reports come back in job order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return [run_job(j, timings) for j in SUITES[name](seed)]


def reports_to_jsonl(reports: Iterable[Mapping]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
