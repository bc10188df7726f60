"""Solvers layered on the regret-bounded core.

The base solver covers all clients with few paths of bounded additive
regret (LP + rounding).  Everything else reduces to it: multiplicative
regret via distance rings chained into walks, distance caps via either a
doubling DP or an LP partition, per-node bounds via regret classes, and
k-path covers via the count-capped LP.

The reductions' analyses ask one thing of each sub-solve: a cover of its
part by at most (8 + 4*sqrt(3)) * LP + 1 paths.  A sub-solve is a
solve_rvrp call.  When its LP is certified (exact pricing) and the optimal
basic solution is integral, that solution's support is returned as it is:
its count equals the LP value, which is then the optimum, so no rounding
could return fewer paths.  The support is still checked as a cover within
the regret bound whose count is the LP value, by SolverErrors that
``python -O`` keeps.  Every other LP is rounded.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (Instance, RootedPath, check_cap, check_path_budget,
                   check_regret, deadlines, induced_instance, node_bounds,
                   regret_distance, require, require_deadlines,
                   zero_regret_cover)
from .lp import (DEFAULT_EXACT_THRESHOLD, solve_dvrp_lp, solve_minsum_lp,
                 solve_rvrp_lp, preprocess_fractional)
from .rounding import round_minsum, round_rvrp


def solve_rvrp(inst: Instance, R: int,
               exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
               diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Cover all clients with rooted paths of regret at most R.

    R = 0 is solved exactly as a min path cover of the tight arcs; R > 0
    goes through the configuration LP and the rounding pipeline at the
    default threshold, which minimizes its bound, so the number of paths
    is within (8 + 4*sqrt(3)) times the fractional optimum, plus one.
    A certified LP whose optimal weights are integral is not rounded.  At
    an optimum no weight is above 1 (one copy of the column covers as
    much), so its support has as many paths as the LP value, which
    certified pricing makes the optimum; the count, the cover and the
    regret bound are checked again, and diagnostics get the LP's report
    alone.  Every other LP's diagnostics report the rounding's stages too.
    """
    # No simple path has regret above its length, at most (n - 1) times
    # the longest edge, so a larger R admits the same columns.
    R = min(check_regret(R), (inst.n - 1) * max(map(max, inst.dist)))
    if R == 0 or not inst.clients:
        return zero_regret_cover(inst, inst.clients)
    sol = solve_rvrp_lp(inst, R, exact_threshold=exact_threshold)
    if not sol.certified or any(w.denominator > 1 for w in sol.weights):
        return round_rvrp(inst, R, sol, diagnostics=diagnostics)
    paths = [p for p, _ in sol.support()]
    require(len(paths) == sol.value,
            f"{len(paths)} support paths but LP value {sol.value}")
    require_deadlines(inst, paths, deadlines(inst, "rvrp", R),
                      "LP support leaves clients {} uncovered")
    if diagnostics is not None:
        diagnostics.update(sol.report())
    return paths


def _cover_subset(inst: Instance, nodes: Sequence[int], bound: int,
                  exact_threshold: int) -> List[RootedPath]:
    """solve_rvrp on the sub-instance induced by nodes, mapped back.

    The induced metric is a restriction of the original, so mapped paths
    keep their cost and regret verbatim.  A part whose LP is certified with
    integral optimal weights gets that optimum's support: as many paths as
    the LP value, within the (8 + 4*sqrt(3)) * LP + 1 every reduction's
    analysis assumes of a part.  Every other part is rounded.
    """
    sub, ids = induced_instance(inst, nodes)
    sub_paths = solve_rvrp(sub, bound, exact_threshold=exact_threshold)
    return [RootedPath.build(inst, [ids[v] for v in p.nodes])
            for p in sub_paths]


# --- multiplicative regret ------------------------------------------------

def _chain_period(delta_m: Fraction) -> int:
    """Smallest M with 2^M >= 3 + 8/delta_m."""
    target = 3 + 8 / delta_m
    M = 0
    while Fraction(2 ** M) < target:
        M += 1
    return M


def solve_multiplicative(inst: Instance, ratio,
                         exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                         diagnostics: Optional[dict] = None
                         ) -> List[RootedPath]:
    """Cover all clients so every visit of node v is within ratio * D_v.

    Clients are bucketed into distance rings V_i = {2^(i-1) <= D_v < 2^i}.
    Each ring gets an additive solve at bound floor((ratio-1) * 2^(i-2)),
    and the j-th paths of every M-th ring are chained through the root into
    one walk (shortcut past the repeated root, which only hastens visits).
    The chain period M is large enough that earlier segments of a walk are
    geometrically shorter than the ring ahead, keeping every visit within
    the multiplicative budget; every visit is checked against its deadline
    floor(ratio * D_v).
    """
    deadline = deadlines(inst, "multiplicative", ratio)   # checks the ratio
    ratio = Fraction(ratio)
    if diagnostics is None:
        diagnostics = {}
    if ratio == 1:
        return zero_regret_cover(inst, inst.clients)
    delta_m = ratio - 1

    D = inst.root_dist
    zero_clients = sorted(v for v in inst.clients if D[v] == 0)
    rings: Dict[int, List[int]] = {}
    for v in inst.clients:
        if D[v] > 0:
            rings.setdefault(D[v].bit_length(), []).append(v)

    covers: Dict[int, List[RootedPath]] = {}
    ring_info = {}
    for i, ring in sorted(rings.items()):
        scaled = delta_m * Fraction(2 ** i, 4)
        bound = scaled.numerator // scaled.denominator
        covers[i] = _cover_subset(inst, ring, bound, exact_threshold)
        ring_info[i] = {"bound": bound, "size": len(ring),
                        "paths": len(covers[i])}
    width = max((len(ps) for ps in covers.values()), default=0)
    period = _chain_period(delta_m)

    walks: List[RootedPath] = []
    for residue in range(period):
        indices = sorted(i for i in covers if i % period == residue)
        for j in range(width):
            seq = [inst.root]
            for i in indices:
                if j < len(covers[i]):
                    seq.extend(covers[i][j].nodes[1:])
            if len(seq) > 1:
                walks.append(RootedPath.build(inst, seq))

    if zero_clients:
        rest = walks[0].nodes[1:] if walks else ()
        head = RootedPath.build(inst, [inst.root] + zero_clients + list(rest))
        walks = [head] + walks[1:]

    require_deadlines(inst, walks, deadline, "walks miss clients {}")
    diagnostics.update(rings=ring_info, chain_period=period,
                       subsolves=len(covers))
    return walks


# --- distance-capped covers -----------------------------------------------

@dataclass
class DvrpDpState:
    """Trace of the doubling DP for distance-capped covering.

    S[i] holds the clients within 2^i of the cap (S[M] is everything),
    F[i] the recurrence value, P[i] a cover of S[i] by paths of length at
    most the cap, and choice[i] the regret exponent picked at index i;
    subsolves counts the solve_rvrp calls on sub-instances.
    """

    cap: int
    M: int
    S: List[List[int]]
    F: List[int]
    P: List[List[RootedPath]]
    choice: List[Optional[int]]
    subsolves: int


def _length_prefix(inst: Instance, path: RootedPath, cap: int) -> RootedPath:
    """Longest prefix of the path with total length at most cap."""
    j = len(path.nodes)
    while path.visit_cost(j - 1, inst) > cap:
        j -= 1
    return RootedPath.build(inst, path.nodes[:j])


def _prune_redundant(paths: List[RootedPath]) -> List[RootedPath]:
    """Drop paths every client of which is covered elsewhere; deterministic.

    Shorter node sequences are offered up first, so the survivors are the
    paths that carry unique coverage.  One pass with a count of covering
    paths per client suffices: counts only fall, so a path kept earlier
    stays needed.  Never increases the count and never uncovers a node, but
    routinely removes the overlap the cap recurrence creates between a
    recursive cover and the fresh prefixes.
    """
    covers = Counter(v for p in paths for v in p.nodes[1:])
    kept = []
    for p in sorted(paths, key=lambda p: (len(p.nodes), p.nodes)):
        if all(covers[v] > 1 for v in p.nodes[1:]):
            covers.subtract(p.nodes[1:])
        else:
            kept.append(p)
    return kept


def cover_lower_bound(inst: Instance, R: int,
                      exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> int:
    """A lower bound on the number of regret-<=R paths covering inst.

    Clients u and v are pairable when regret_distance(u, v) <= R or
    regret_distance(v, u) <= R.  If u precedes v on a path P of regret at
    most R, then D_u + c_uv - D_v <= c_P(v) - D_v <= R, since c_P(u) >= D_u
    and the regrets of P's prefixes never decrease.  So no path covers two
    members of a set of pairwise unpairable clients, and every cover has
    at least as many paths as the set has members.

    The bound is the size of the largest such set when inst has at most
    exact_threshold clients (a branch and bound seeded with the greedy
    set), and the size of the greedy set, taken in (D, id) order, above.
    """
    order = sorted(inst.clients, key=lambda v: (inst.root_dist[v], v))
    pairable = [sum(1 << b for b, v in enumerate(order) if b != a and
                    (regret_distance(inst, u, v) <= R or
                     regret_distance(inst, v, u) <= R))
                for a, u in enumerate(order)]
    chosen = 0
    for a, mask in enumerate(pairable):
        if not mask & chosen:
            chosen |= 1 << a
    if len(order) > exact_threshold:
        return chosen.bit_count()
    return _largest_unpairable(pairable, chosen.bit_count())


def _largest_unpairable(pairable: List[int], incumbent: int) -> int:
    """Size of the largest set of positions no two of which are pairable.

    pairable[a] is the bitmask of the positions pairable with a.  Each
    node of the search takes the lowest free position a and branches on
    taking it (dropping its partners) or not; a node with no more free
    positions than the best size beyond its own is cut, and a free
    position with no free partner is taken without the second branch.  A
    search over m positions visits at most 2^(m+1) nodes.  Returns
    incumbent when no set is larger.
    """
    best = incumbent

    def grow(size: int, free: int) -> None:
        nonlocal best
        while free:
            if size + free.bit_count() <= best:
                return
            low = free & -free
            free &= ~low
            partners = pairable[low.bit_length() - 1] & free
            if partners:
                grow(size + 1, free & ~partners)
            else:
                size += 1
        best = max(best, size)

    grow(0, (1 << len(pairable)) - 1)
    return best


def dvrp_dp_state(inst: Instance, cap: int,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD
                  ) -> DvrpDpState:
    """Doubling DP: cover clients with paths of length at most cap.

    S_i collects the clients v with cap - D_v < 2^i, so covering S_i with
    paths of regret under 2^i is exactly as hard as respecting the cap on
    those nodes.  Index 0 is solved exactly with zero-regret paths; index
    i > 0 picks the regret scale 2^k (k < i) that minimises F[i] =
    |cover of S_i at 2^k| + F[k], the smallest such k on a tie, keeps the
    length-cap prefixes of that cover (nodes of S_i beyond S_k survive the
    cut: their visit cost is at most 2^k + D_v <= cap), and recurses on
    S_k for the rest.

    Every cover of S_i at 2^k, solve_rvrp's included, has at least
    cover_lower_bound(S_i, 2^k) paths, so (bound + F[k], k) is never above
    the (count + F[k], k) that scale k scores.  Each level computes that
    pair for every k < i first and solves the scales in ascending order of
    it, keeping the least (count + F[k], k); it stops at the first scale
    whose pair is above the best score found, since neither it nor any
    later scale can win.  S, F, P and choice are those of solving every
    scale; only subsolves is lower.
    """
    cap = check_cap(inst, cap)
    deadline = deadlines(inst, "dvrp", cap)
    D = inst.root_dist
    clients = set(inst.clients)
    min_d = min((D[v] for v in clients), default=0)
    M = (cap - min_d).bit_length()

    S = [sorted(v for v in clients if cap - D[v] < 2 ** i)
         for i in range(M + 1)]
    require(set(S[M]) == clients, f"S[{M}] is not every client")

    base = zero_regret_cover(inst, S[0])
    F = [len(base)]
    P = [base]
    choice: List[Optional[int]] = [None]
    subsolves = 0
    for i in range(1, M + 1):
        if not S[i]:
            # S is nested, so every lower level is empty too: F[k] = 0 for
            # all k < i, and k = 0 wins with no paths.
            F.append(0)
            P.append([])
            choice.append(0)
            continue
        sub, ids = induced_instance(inst, S[i])
        lows = sorted((cover_lower_bound(sub, 2 ** k, exact_threshold) + F[k],
                       k) for k in range(i))
        best: Optional[Tuple[int, int]] = None
        for low, k in lows:
            if best is not None and (low, k) > best:
                break
            # the level's solves of sub share one table, held by pricing
            paths_k = solve_rvrp(sub, 2 ** k, exact_threshold=exact_threshold)
            subsolves += 1
            if best is None or (len(paths_k) + F[k], k) < best:
                best, sub_paths = (len(paths_k) + F[k], k), paths_k
        count, k = best
        mapped = [RootedPath.build(inst, [ids[v] for v in p.nodes])
                  for p in sub_paths]
        prefixes = [_length_prefix(inst, p, cap) for p in mapped]
        merged = _prune_redundant(
            list(P[k]) + [p for p in prefixes if not p.is_trivial])
        F.append(count)
        P.append(merged)
        choice.append(k)
        require(len(merged) <= count,
                f"{len(merged)} paths at level {i} exceed F = {count}")
        require_deadlines(inst, merged, {v: deadline[v] for v in S[i]},
                          f"level {i} leaves nodes {{}} uncovered")
    return DvrpDpState(cap=cap, M=M, S=S, F=F, P=P, choice=choice,
                       subsolves=subsolves)


def solve_dvrp_dp(inst: Instance, cap: int,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                  diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Cover all clients with rooted paths of length at most cap (DP route)."""
    if diagnostics is None:
        diagnostics = {}
    state = dvrp_dp_state(inst, cap, exact_threshold=exact_threshold)
    diagnostics.update(
        cap=state.cap, levels=state.M,
        level_sizes=[len(s) for s in state.S],
        chain=[{"i": i, "k": state.choice[i], "count": state.F[i]}
               for i in range(state.M + 1)],
        subsolves=state.subsolves)
    return state.P[state.M]


def solve_dvrp_lp_round(inst: Instance, cap: int,
                        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                        diagnostics: Optional[dict] = None
                        ) -> List[RootedPath]:
    """Cover all clients with rooted paths of length at most cap (LP route).

    Solves the length-capped covering LP, rewrites its support so every
    column ends at its farthest node, and partitions the clients by
    furthest-first choice of centers v_i, grouping with each center the
    nodes covered to a 1/(3k*) extent by columns ending inside the part
    (taking the closure under captured ends).  A column containing a
    later center ends at that center or inside an earlier part, and no
    part leaks cut-mass to outside nodes, which caps the number of parts
    below 3k*.  Each part is then an additive solve at bound
    cap - D_center, so every output path obeys the cap.
    """
    cap = check_cap(inst, cap)
    if diagnostics is None:
        diagnostics = {}
    if not inst.clients:
        return []
    sol = solve_dvrp_lp(inst, cap, exact_threshold=exact_threshold)
    star = preprocess_fractional(sol)
    kstar = star.total_weight
    cut = 1 / (3 * kstar)
    D = inst.root_dist

    ends: Dict[int, List[Tuple[RootedPath, Fraction]]] = {}
    for p, w in star.support():
        ends.setdefault(p.end, []).append((p, w))

    unassigned = set(inst.clients)

    def zone(center: int) -> List[int]:
        # close the part under captured ends: a column covering a still
        # unassigned node may end at a non-center member, and its mass is
        # only counted once that member's own columns join the pool
        mass: Dict[int, Fraction] = {}
        members = {center}
        frontier = [center]
        while frontier:
            for e in frontier:
                for p, w in ends.get(e, []):
                    for u in p.nodes[1:]:
                        mass[u] = mass.get(u, Fraction(0)) + w
            frontier = [u for u, m in mass.items()
                        if m >= cut and u in unassigned and u not in members]
            members.update(frontier)
        return sorted(members)

    parts: List[Tuple[int, List[int]]] = []
    part_info = []
    while unassigned:
        center = min(unassigned, key=lambda v: (-D[v], v))
        # closed parts leak no cut-mass, so the center keeps this much
        end_mass = sum((w for _, w in ends.get(center, [])), Fraction(0))
        slack = 1 - Fraction(len(parts)) * cut
        require(end_mass > slack or (not parts and end_mass >= slack),
                f"center {center} keeps end mass {end_mass}, not above "
                f"{slack}")
        members = zone(center)
        require(center in members, f"center {center} left its own part")
        require(all(D[u] <= D[center] for u in members),
                f"part of center {center} has a farther member")
        unassigned -= set(members)
        parts.append((center, members))
        part_info.append({"center": center, "size": len(members),
                          "bound": cap - D[center]})
    require(len(parts) < 3 * kstar,
            f"{len(parts)} parts reach 3k* = {3 * kstar}")

    paths: List[RootedPath] = []
    for center, members in parts:
        paths.extend(_cover_subset(inst, members, cap - D[center],
                                   exact_threshold))
    require_deadlines(inst, paths, deadlines(inst, "dvrp", cap),
                      "parts leave clients {} uncovered")
    diagnostics.update(**sol.report(), support_weight=float(kstar),
                       parts=part_info, subsolves=len(parts))
    return paths


# --- per-node regret bounds -----------------------------------------------

def solve_nonuniform(inst: Instance, bounds: Mapping[int, int],
                     exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                     diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Cover all clients so node v's regret is at most its own bound.

    Clients are grouped by the power-of-two class of their bound; class i
    (2^(i-1) <= bound < 2^i) is covered by an additive solve at 2^(i-1),
    which is never above any member's bound.  Zero-bound clients get the
    exact zero-regret cover.  Bounds are keyed by client id or, as in JSON,
    by its decimal string; any other key is a ValueError.
    """
    if diagnostics is None:
        diagnostics = {}
    bounds = node_bounds(inst, bounds)
    classes: Dict[int, List[int]] = {}
    for v in inst.clients:
        classes.setdefault(bounds[v].bit_length(), []).append(v)

    paths: List[RootedPath] = []
    class_info = []
    subsolves = 0
    for i, members in sorted(classes.items()):
        bound = 0 if i == 0 else 2 ** (i - 1)
        if i == 0:
            got = zero_regret_cover(inst, members)
        else:
            got = _cover_subset(inst, members, bound, exact_threshold)
            subsolves += 1
        class_info.append({"bound": bound, "size": len(members),
                           "paths": len(got)})
        paths.extend(got)

    require_deadlines(inst, paths, deadlines(inst, "nonuniform", bounds),
                      "regret classes leave clients {} uncovered")
    diagnostics.update(classes=class_info, subsolves=subsolves)
    return paths


# --- k-path covers ----------------------------------------------------------

def solve_krvrp_minmax(inst: Instance, k: int,
                       exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                       diagnostics: Optional[dict] = None) -> List[RootedPath]:
    """Cover all clients with at most k rooted paths, small total regret.

    The total regret is within an O(k) factor of the best achievable by k
    paths, which makes the maximum end regret (the max_regret run_solver
    reports) an O(k^2) answer for the min-max question.
    """
    k = check_path_budget(k)
    if not inst.clients:
        return []
    sol = solve_minsum_lp(inst, k, exact_threshold=exact_threshold)
    return round_minsum(inst, k, sol, diagnostics=diagnostics)
