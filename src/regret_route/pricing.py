"""Exact subset-DP pricing oracles and a local-search fallback.

The exact oracles answer argmax/argmin queries over all simple rooted paths
by scanning the folds of a Held-Karp table: min_regret[S] and min_length[S],
the least regret and length of a rooted path visiting exactly client set S.
A count-LP column costs 1 and covers its set, so a set's column is its
cheapest path by the scan's measure (regret for a regret budget and the
min-excess scan, length for a length budget), drawn from the smallest end
that reaches the least. One table serves every budget kind, so
it is built once per instance and shared: every request goes through
table_for, which keeps the last table it built. Rewards arrive as integers
over one common denominator, (nums, den) with nums in the order of
inst.clients, which is how the covering master hands over its duals; every
comparison is an integer comparison and only the returned value is a
Fraction.

Each exact scan returns up to COLUMNS_PER_ROUND = 8 columns, one per
client set, each with its true value. The min-excess scan returns those of
negative excess, least first. A bounded scan returns those of positive
reward, largest first. Ties go to fewer nodes, then the smallest mask; when
nothing qualifies, the trivial path at 0 alone. All three go through one
picker, _columns, which takes first maxima of the scan's score array,
overwriting each pick with 0, and raises SolverError unless the path it
draws has its mask's least regret or length.

A bounded scan (exact_orienteering, exact_length_budget) prices only the
maximal client sets: those whose least regret or length is within the
budget and that no such set extends by one client. Adding clients to a
feasible set while it stays feasible ends at a maximal one, and rewards are
nonnegative, so a best maximal set is a best set, and when no maximal set
prices above a threshold no feasible set does (Desrochers, Desrosiers &
Solomon, Oper. Res. 40(2), 1992; Feillet et al., Networks 44(3), 2004).
The sets are fixed for the whole LP while the rewards change every round:
the first scan at a (kind, budget) builds a ScanPlan, the maximal masks in
(popcount, mask) order with their 0/1 client rows, and holds it in the
table's one plan slot; a scan at another budget replaces it. Each round's
reward sums are one product of those rows with the rewards' numerators.
The exact count oracles (harness.brute_force_rvrp, _dvrp and _krvrp) read
the same plans through plan_for: a cover by feasible sets is a cover by
maximal ones, so these sets are the program's one feasible-set family.
The min-excess scan has no budget and scores every mask by
-(excess·(m+1) + popcount), which folds the tie order into the score; its
dtype bound on the regrets is computed once per table.

The table and the scans are numpy arrays, filled one popcount layer at a
time. Fixed-width integers wrap where Python integers grow, so every dtype
is chosen from a bound on the values it must hold:

* the folds min_regret and min_length are int32 when top = (m+1)·max_edge
  is below 2^31 - 1, int64 when it is below 2^62, else Python integers
  (dtype=object): a nonempty mask's fold is at most m·max_edge, and the
  empty mask holds top + 1; the ends and the parent pointers are int8;
* the build's packed keys cost << s | end, s = (m-1).bit_length(), are
  uint16 when ((m+2)·max_edge + 1) << s < 2^16, then int32, int64 and
  object on the same rule with 2^31 and 2^63 (see HKTable);
* a bounded scan's reward sums are int32 when the scaled total is below
  2^31 - 1, int64 when it is below 2^62, else object;
* the min-excess scan bounds its score by (max(|min_regret|, 1)·den +
  Σ rewards + 1)·(m+1) and runs its sums, its product and its popcount
  subtraction in the one dtype that bound picks.

An object array runs the same code with exact Python integers, so results
never depend on the dtype. numpy is imported inside the table constructor,
after the size check: it costs about as much time and memory as the rest of
start-up, and runs that never build a table (every instance above the
exact threshold) do not pay for it.

table_for holds exactly one table, in module state. Its key is the
instance's (root, dist), captured when the table is built, so an equal but
distinct Instance (induced_instance on every client of a root-0 instance,
Instance.from_matrix on the same matrix) is served the same table, and
successive solves of one instance (rvrp and krvrp, a reduction's repeated
sub-solves, the exact oracles after the solve) build it once. A
request for another instance drops the held table before it builds the new
one, so two tables are never alive at once through the memo. The entry has
no size, switch or reset: the program is single-threaded and the slot is
not locked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (Instance, RegretRouteError, RootedPath, SolverError,
                   _as_int)

DEFAULT_EXACT_THRESHOLD = 16
# Bytes per (mask, end) cell at the build's peak on an int64 table from 16
# clients up: the key, the int8 parent, the per-mask folds and ends and the
# chunk buffers (HKTable).
CELL_BYTES = 11
TABLE_BUDGET_BYTES = 256 << 20
# Bytes of keys per chunk of masks while the table is built.
CHUNK_BYTES = 128 << 10
# The most columns an exact scan returns. Four
# took more column-generation rounds for a slower solve, sixteen were no
# faster than eight.
COLUMNS_PER_ROUND = 8


class OracleUnavailableError(RegretRouteError):
    """The instance exceeds the exact oracle's size threshold."""


def _check_size(m: int, threshold: int) -> None:
    if m > threshold:
        raise OracleUnavailableError(
            f"{m} clients exceed the exact threshold {threshold}")


def check_exact_threshold(threshold) -> int:
    """The threshold as an int; ValueError when its largest table would
    exceed the memory budget.

    The estimate is 2^m·m cells at CELL_BYTES each; nothing is allocated.
    """
    threshold = _as_int(threshold, "exact threshold")
    m = max(threshold, 0)
    if (m << m) * CELL_BYTES > TABLE_BUDGET_BYTES:
        raise ValueError(
            f"exact threshold {threshold} needs a {m}-client table of about "
            f"{((m << m) * CELL_BYTES) >> 20} MiB, over the "
            f"{TABLE_BUDGET_BYTES >> 20} MiB budget")
    return threshold


# Per-client rewards nums[i] / den, nums in the order of inst.clients.
ScaledRewards = Tuple[Sequence[int], int]


@dataclass(frozen=True)
class PricedPath:
    path: RootedPath
    value: Fraction


def _key_dtype(m: int, edge: int, np):
    """dtype of the build's keys cost << s | end on m clients with edges up
    to edge, and s. The largest key is the cap (m+1)·edge + 1 plus one more
    edge, with every low bit set."""
    s = (m - 1).bit_length()
    bound = ((m + 2) * edge + 1) << s
    for dtype, bits in ((np.uint16, 16), (np.int32, 31), (np.int64, 63)):
        if bound < 1 << bits:
            return dtype, s
    return object, s


def _sum_dtype(bound: int, np):
    """dtype for integers of absolute value at most bound + 1: int32 below
    2^31 - 1, int64 below 2^62, else object. A bounded scan's reward sums
    are at most the total; the min-excess scan passes a bound on its
    score."""
    if bound < (1 << 31) - 1:
        return np.int32
    return np.int64 if bound < 1 << 62 else object


def _doubling(values, dtype, np):
    """out[mask] = sum of values[i] over the bits i of mask: m doublings."""
    out = np.zeros(1 << len(values), dtype)
    for i, x in enumerate(values):
        np.add(out[:1 << i], x, out=out[1 << i:2 << i])
    return out


class HKTable:
    """Held-Karp subset DP for one instance.

    min_regret[mask] and min_length[mask] are the least regret and length of
    a rooted path visiting exactly the clients in mask, and regret_end[mask]
    and length_end[mask] the smallest end index among those that reach them
    (top + 1 and -1 at the empty mask). Parent pointers draw one canonical
    cheapest path per end: parent[i, mask] is the smallest predecessor end
    among the cheapest paths of mask that end at clients[i] (-1 for a single
    client or an end outside the mask), end-major, shape (m, 2^m). So
    path_for(mask, regret_end[mask]) is mask's cheapest path by regret, and
    with length_end by length. regret_bound is max(|min_regret|, 1) over
    the nonempty masks, the min-excess scan's dtype bound, and plan holds
    the ScanPlan of the last bounded scan: its maximal masks and their
    client rows at one (kind, budget).

    The build works on packed keys cost << s | end, s bits wide enough for
    every end index, so that one elementwise minimum yields both the
    cheapest cost and the smallest end that reaches it. It runs one popcount
    layer at a time, in chunks of at most CHUNK_BYTES of keys: gather the
    chunk's columns with one take, fold them into min_length and min_regret
    and their ends (the regret key adds max(D) - D_i to stay nonnegative),
    push every mask to all m ends at once, one np.minimum over the
    predecessor ends, and write each end's targets into its own row. The
    table holds the keys, in the key dtype: uint16 at 16 clients while max
    edge <= 227, as on the harness generators' default metrics. At the end
    the parents are split out of it one row at a time and the keys are
    dropped, so a built table keeps about 1.7 / 2.2 bytes per cell at 16
    clients (int32 / int64 folds). The build's peak per cell, at 14 / 16
    clients, is about 4.7 / 3.7 bytes on a uint16 table, 7.5 / 5.7 on int32
    and 11.9 to 12.5 / 9.8 to 10.3 on int64. From 16 clients up that is
    under CELL_BYTES; on fewer clients the fixed chunk buffers weigh more,
    and object tables are not bounded by it.
    """

    def __init__(self, inst: Instance, threshold: int = DEFAULT_EXACT_THRESHOLD):
        check_exact_threshold(threshold)
        self.inst = inst
        self.clients = list(inst.clients)
        m = len(self.clients)
        _check_size(m, threshold)
        self.m = m
        import numpy as np

        clients = self.clients
        dist = inst.dist
        D = [inst.root_dist[v] for v in clients]
        max_d = max(D, default=0)
        edge = max(map(max, dist))
        # A path of k clients costs at most k·edge, so top + 1 is above every
        # cost and every fold of a nonempty mask.
        top = (m + 1) * edge
        fold = _sum_dtype(top, np)
        kdt, s = _key_dtype(m, edge, np)
        low = (1 << s) - 1
        size = 1 << m
        self.popcount = _doubling([1] * m, np.uint8, np)
        # Every mask in (popcount, mask) order: layer k is order[starts[k -
        # 1]:starts[k]]. It is narrowed to the least dtype that holds a mask
        # before the table is allocated, and each chunk is copied to intp.
        order = np.argsort(self.popcount, kind="stable").astype(
            np.min_scalar_type(size - 1))
        starts = np.bincount(self.popcount, minlength=m + 1).cumsum().tolist()
        ends = np.arange(m)
        # The keys cost << s | parent; an end outside its mask holds top + 1.
        table = np.full((m, size), (top + 1) << s, kdt)
        table[ends, 1 << ends] = [dist[inst.root][v] << s for v in clients]
        step = np.array([[dist[u][v] << s for v in clients] for u in clients],
                        kdt)
        regret_offset = np.array([(max_d - d) << s for d in D], kdt)[:, None]
        end_bits = ends.astype(kdt)[:, None]
        cost_bits = np.invert(np.array(low, kdt))
        self.min_regret = np.full(size, top + 1, fold)
        self.min_length = np.full(size, top + 1, fold)
        self.regret_end = np.full(size, -1, np.int8)
        self.length_end = np.full(size, -1, np.int8)
        chunk = max(1, CHUNK_BYTES // (max(m, 1) * np.dtype(kdt).itemsize))
        for k in range(1, m + 1):
            for lo in range(starts[k - 1], starts[k], chunk):
                masks = order[lo:min(lo + chunk, starts[k])].astype(np.intp)
                # keys[i, c] = cost[i, masks[c]] << s | i, so a fold's low
                # bits are the smallest end among those that reach its least.
                keys = table.take(masks, axis=1)
                keys &= cost_bits
                keys |= end_bits
                best = np.minimum.reduce(keys, axis=0)
                self.min_length[masks] = best >> s
                self.length_end[masks] = best & low
                work = keys + regret_offset
                best = np.minimum.reduce(work, axis=0)
                self.min_regret[masks] = (best >> s).astype(fold) - max_d
                self.regret_end[masks] = best & low
                if k == m:
                    continue
                # nxt[j, c]: the least key[i, c] + d(i, j) over i, whose low
                # bits are the parent: the smallest i among the cheapest.
                nxt = np.add(keys[0], step[0][:, None])
                for i in range(1, m):
                    np.add(keys[i], step[i][:, None], out=work)
                    np.minimum(nxt, work, out=nxt)
                # Target (j, masks | 1 << j). Where j is in the mask, the xor
                # sends the write to (j, mask ^ 1 << j) instead, a cell of
                # an end outside its mask in a layer already read, whose
                # parent is reset below.
                for j, row in enumerate(table):
                    row[masks ^ 1 << j] = nxt[j]
        del order               # before the build's peak, the split
        parent = np.empty((m, size), np.int8)
        for j, (row, links) in enumerate(zip(table, parent)):
            np.bitwise_and(row, low, out=links, casting="unsafe")
            links[1 << j] = -1
            links.reshape(-1, 2, 1 << j)[:, 0] = -1
        self.parent = parent
        regret = self.min_regret[1:]
        self.regret_bound = max(-int(regret.min()), int(regret.max()),
                                1) if m else 1
        self.plan: Optional[ScanPlan] = None

    def _check_mask(self, mask: int) -> None:
        if not 0 < mask < 1 << self.m:
            raise ValueError(f"mask {mask} is outside [1, 2^{self.m})")

    def path_for(self, mask: int, end_index: int) -> RootedPath:
        """The canonical cheapest path visiting exactly mask and ending at
        clients[end_index]; ValueError for a mask outside [1, 2^m) or an
        end outside the mask."""
        self._check_mask(mask)
        if not (0 <= end_index < self.m and mask >> end_index & 1):
            raise ValueError(f"end {end_index} is not in mask {mask}")
        seq = []
        i = end_index
        while i >= 0:
            seq.append(self.clients[i])
            nxt = int(self.parent[i, mask])
            mask ^= 1 << i
            i = nxt
        seq.append(self.inst.root)
        return RootedPath.build(self.inst, reversed(seq))


# The table table_for built last, with its instance's (root, dist).
_held: Optional[Tuple[tuple, HKTable]] = None


def table_for(inst: Instance,
              threshold: int = DEFAULT_EXACT_THRESHOLD) -> HKTable:
    """The Held-Karp table of inst, built only when the held table belongs
    to a different metric.

    The threshold is checked on every call, hit or miss: ValueError over
    the memory budget, OracleUnavailableError when inst has more clients.
    """
    global _held
    check_exact_threshold(threshold)
    _check_size(inst.n - 1, threshold)
    key = (inst.root, inst.dist)
    if _held is None or _held[0] != key:
        _held = None            # drop the old table before building
        _held = (key, HKTable(inst, threshold))
    return _held[1]


def _checked_rewards(rewards: ScaledRewards,
                     clients: Sequence[int]) -> Tuple[List[int], int]:
    """nums as a list and den, or ValueError unless there is one
    nonnegative integer per client over a positive integer den."""
    nums, den = rewards
    nums = list(nums)
    if len(nums) != len(clients):
        raise ValueError(f"{len(nums)} rewards for {len(clients)} clients")
    if type(den) is not int or den < 1:
        raise ValueError(f"reward denominator {den!r} is not a positive int")
    if any(type(x) is not int or x < 0 for x in nums):
        raise ValueError("rewards must be nonnegative integers")
    return nums, den


def _check_budget_kind(kind: str,
                       kinds: Tuple[str, ...] = ("regret", "length")) -> None:
    """ValueError unless kind is one of kinds."""
    if kind not in kinds:
        raise ValueError(f"unknown budget kind {kind!r}")


class ScanPlan:
    """The client sets a bounded scan of one table prices at one budget.

    A nonempty mask is feasible when its least regret (kind "regret") or
    length (kind "length") is at most budget, and maximal when no feasible
    mask adds one client to it. masks holds the maximal ones in (popcount,
    mask) order, so that a first maximum is the canonical pick; it is intp,
    numpy's own index type. rows[i, j] = masks[i] >> j & 1, as uint8, so a
    round's reward sums are rows @ nums. Any other kind is a ValueError.
    """

    def __init__(self, table: HKTable, kind: str, budget: int):
        import numpy as np

        _check_budget_kind(kind)
        self.kind, self.budget = kind, budget
        values = table.min_regret if kind == "regret" else table.min_length
        feasible = values <= budget
        feasible[0] = False
        # Pass i clears the masks without client bit i whose superset with
        # it is feasible.  The passes commute, and those for the low bits
        # (rows of 1 << i bytes) run on a copy with the low six bits as the
        # slow axis, where every row is long.
        low = min(table.m, 6)
        maximal = feasible.copy()
        for i in range(low, table.m):
            maximal.reshape(-1, 2, 1 << i)[:, 0] &= \
                ~feasible.reshape(-1, 2, 1 << i)[:, 1]
        # In the copies, entry [a, h] is mask h << low | a.
        high = feasible.size >> low
        maximal = maximal.reshape(high, 1 << low).T.copy()
        feasible = feasible.reshape(high, 1 << low).T.copy()
        for i in range(low):
            maximal.reshape(-1, 2, high << i)[:, 0] &= \
                ~feasible.reshape(-1, 2, high << i)[:, 1]
        masks = np.flatnonzero(maximal.T)
        self.masks = masks[np.argsort(table.popcount[masks], kind="stable")]
        self.rows = (self.masks[:, None] >> np.arange(table.m) & 1).astype(
            np.uint8)


def plan_for(t: HKTable, kind: str, budget: int) -> ScanPlan:
    """The table's plan for (kind, budget), built when the held one is for
    another budget; the old plan is dropped first."""
    plan = t.plan
    if plan is None or plan.kind != kind or plan.budget != budget:
        t.plan = None
        t.plan = plan = ScanPlan(t, kind, budget)
    return plan


def _columns(t: HKTable, score, mask_of, kind: str,
             value_of) -> List[PricedPath]:
    """Up to COLUMNS_PER_ROUND columns from the positive entries of score,
    one first maximum at a time: entry i is the client set mask_of(i), drawn
    as its cheapest path by kind ("regret" or "length"), and its value is
    value_of(i), read before the entry is overwritten with 0. With no
    positive entry, the trivial path at 0. SolverError when a drawn path's
    regret or length is not its mask's fold."""
    ends, folds = ((t.regret_end, t.min_regret) if kind == "regret"
                   else (t.length_end, t.min_length))
    columns = []
    while len(score) and len(columns) < COLUMNS_PER_ROUND:
        pick = int(score.argmax())
        if score[pick] <= 0:
            break
        value = value_of(pick)
        score[pick] = 0
        mask = mask_of(pick)
        path = t.path_for(mask, int(ends[mask]))
        least = int(folds[mask])
        if (path.regret if kind == "regret" else path.cost) != least:
            raise SolverError(f"path {path.nodes} drawn for mask {mask} does "
                              f"not have its least {kind} {least}")
        columns.append(PricedPath(path, value))
    return columns or [PricedPath(RootedPath.trivial(t.inst), Fraction(0))]


def _max_reward_scan(t: HKTable, rewards: ScaledRewards, budget: int,
                     kind: str) -> List[PricedPath]:
    """Up to COLUMNS_PER_ROUND maximal client sets whose regret or length
    is within budget, of positive reward, the largest first, each as its
    cheapest path by that measure and at its reward."""
    if budget < 0:
        raise ValueError(f"negative {kind} budget")
    import numpy as np

    nums, den = _checked_rewards(rewards, t.clients)
    plan = plan_for(t, kind, budget)
    sums = plan.rows @ np.array(nums, _sum_dtype(sum(nums), np))
    return _columns(t, sums, lambda i: int(plan.masks[i]), kind,
                    lambda i: Fraction(int(sums[i]), den))


def exact_orienteering(table: HKTable, rewards: ScaledRewards,
                       budget: int) -> List[PricedPath]:
    """The maximal client sets of the table's instance with regret at most
    budget and positive reward, the largest reward first, as rooted paths;
    exact: no path within budget has a larger reward than the first.

    Ties are broken toward fewer nodes, then a fixed canonical order. With
    no positive reward (all-zero rewards, say) this is the trivial path at
    reward 0 alone.
    """
    return _max_reward_scan(table, rewards, budget, "regret")


def exact_length_budget(table: HKTable, rewards: ScaledRewards,
                        budget: int) -> List[PricedPath]:
    """The maximal client sets of the table's instance with total length at
    most budget, as rooted paths ordered as exact_orienteering's; exact."""
    return _max_reward_scan(table, rewards, budget, "length")


def exact_min_excess_pricing(table: HKTable,
                             rewards: ScaledRewards) -> List[PricedPath]:
    """The rooted paths of the table's instance of least regret(P) -
    reward(P), up to COLUMNS_PER_ROUND of negative value, best first; exact.

    The empty path (value 0) is always a candidate, so no result has
    positive value, and it is returned alone when nothing is negative.
    Under a budget row whose dual is z >= 0, callers admit a column when
    value < -z. Ties go to fewer nodes, then canonical.
    """
    t = table
    import numpy as np

    nums, den = _checked_rewards(rewards, t.clients)
    regret = t.min_regret[1:]           # the empty mask is the trivial path
    # score = -(excess·w + popcount) with w = m + 1, so the first maximum is
    # the canonical pick (least excess, then fewest nodes, then smallest
    # mask), and score > 0 exactly where excess < 0.
    w = t.m + 1
    # Every |score| is below top, and so is each of its terms, so the one
    # dtype that top picks holds the sums, the product and the score.
    top = (t.regret_bound * den + sum(nums) + 1) * w
    dtype = _sum_dtype(top, np)
    sums = _doubling([x * w for x in nums], dtype, np)[1:]
    if dtype is object:
        score = sums - regret.astype(object) * (den * w)
    else:
        score = np.multiply(regret, -den * w, dtype=dtype, casting="unsafe")
        score += sums
    score -= t.popcount[1:]
    return _columns(t, score, lambda i: i + 1, "regret",
                    lambda i: Fraction(int(regret[i]) * den
                                       - int(sums[i]) // w, den))


def _insertion_deltas(row: Sequence[int], links) -> List[int]:
    """Added cost of putting node v between a and b, for each link (a, b,
    d[a][b]) of a path; row is d[v]."""
    return [row[a] + row[b] - ab for a, b, ab in links]


def _first_reversal(dist, D: Sequence[int],
                    nodes: List[int]) -> Optional[Tuple[int, int, int]]:
    """The first (i, j), in lexicographic order, whose reversal of
    nodes[i..j] strictly lowers the path's regret, with the cost it adds;
    None when no reversal does."""
    last = len(nodes) - 1
    for i in range(1, last):
        a, u = nodes[i - 1], nodes[i]
        row_a, row_u = dist[a], dist[u]
        for j in range(i + 1, last + 1):
            w = nodes[j]
            delta = row_a[w] - row_a[u]
            if j < last:
                b = nodes[j + 1]
                delta += row_u[b] - dist[w][b]
                if delta < 0:
                    return i, j, delta
            elif delta - D[u] < -D[w]:      # u becomes the end
                return i, j, delta
    return None


def heuristic_pricing(inst: Instance, rewards: ScaledRewards,
                      budget_kind: str, budget: int = 0) -> PricedPath:
    """Greedy insertion plus 2-opt under a budget; no optimality.

    budget_kind is "regret" (paths with regret <= budget), "length"
    (cost <= budget), or "min_excess" (no budget; minimize regret minus
    reward).

    Each step inserts the free client at the position that improves the
    objective most.  Ties go to the smallest client id, then to the first
    position from the front (after the root) to the end: the pick of a
    scan in ascending id that keeps a candidate only when it is strictly
    better.  When no insertion improves, a min_excess search reverses the
    first segment nodes[i..j] (i, j in lexicographic order) that strictly
    lowers the regret, then goes back to inserting.  A reversal keeps the
    reward sum, so under a regret or length budget it can never strictly
    improve, and that scan is skipped.

    The search tries clients by descending reward, ties by id, and stops
    early.  Under a budget every feasible position of v scores the same,
    the reward sum plus reward[v], so the first client with a feasible
    position is the pick, at its first feasible position.  Under
    min_excess no move of v scores below the path's value minus
    reward[v], since no insertion lowers the regret (triangle
    inequality): an inner one adds its cost delta >= 0 and an end one
    adds d(end, v) + D[end] − D[v] >= 0.  The scan stops at the first
    client whose bound is above the best move found, and skips one whose
    bound ties it with a larger id.  A client of reward 0 can never
    improve the objective and is never tried.

    Moves are scored by integer deltas, not by rebuilding the path: the
    search tracks the path's cost, its scaled reward sum and its scaled
    objective (the reward sum, or regret·den − reward sum for min_excess),
    all in the integer rewards.  Inserting
    v between a and b adds d[a][v] + d[v][b] − d[a][b]; appending adds
    d[end][v].  Reversing nodes[i..j] after a and before b adds
    d[a][nodes[j]] − d[a][nodes[i]] + d[nodes[i]][b] − d[nodes[j]][b]
    (the last two terms only when b exists), since the metric is
    symmetric.  The path is built once, at the end, and SolverError is
    raised unless its cost, regret, value and budget agree with the
    tracked ones; a nontrivial result satisfies the budget exactly, and
    the trivial path (value 0) is returned when nothing else is feasible.

    Rewards must be nonnegative integers over a positive den, and a regret
    or length budget nonnegative, as in the exact scans (ValueError).  Used
    when the client count exceeds the exact threshold; the caller must then
    report the LP as unverified.
    """
    kind = budget_kind
    clients = inst.clients
    nums, den = _checked_rewards(rewards, clients)
    _check_budget_kind(kind, ("regret", "length", "min_excess"))
    excess = kind == "min_excess"
    if not excess and budget < 0:
        raise ValueError(f"negative {kind} budget")
    reward = dict(zip(clients, nums))
    dist, D = inst.dist, inst.root_dist
    # The free clients of positive reward, by descending reward, then id.
    free = sorted((v for v in clients if reward[v]),
                  key=lambda v: (-reward[v], v))

    nodes = [inst.root]
    cost = gain = value = 0
    while True:
        end = nodes[-1]
        links = [(a, b, dist[a][b]) for a, b in zip(nodes, nodes[1:])]
        best = None             # (v, position, added cost)
        if excess:
            # The best move as (value, client, 0 inner or 1 end); until
            # one is found, a move must beat the path's own value.
            top = (value,)
            for v in free:
                bound = value - reward[v]
                if bound > top[0]:
                    break
                if (bound, v) > top[:2]:
                    continue
                row = dist[v]
                deltas = _insertion_deltas(row, links)
                if deltas:
                    delta = min(deltas)
                    key = (bound + delta * den, v, 0)
                    if key < top:
                        top, best = key, (v, deltas.index(delta) + 1, delta)
                key = ((cost + row[end] - D[v]) * den - gain - reward[v],
                       v, 1)
                if key < top:
                    top, best = key, (v, len(nodes), row[end])
        else:
            slack = budget - (cost - D[end] if kind == "regret" else cost)
            for v in free:
                row = dist[v]
                deltas = _insertion_deltas(row, links)
                k = next((k for k, delta in enumerate(deltas)
                          if delta <= slack), None)
                if k is not None:
                    best = (v, k + 1, deltas[k])
                    break
                if row[end] <= (budget - cost + D[v] if kind == "regret"
                                else slack):
                    best = (v, len(nodes), row[end])
                    break
        if best is not None:
            v, pos, delta = best
            nodes.insert(pos, v)
            free.remove(v)
            cost += delta
            gain += reward[v]
            value = top[0] if excess else gain
            continue
        if not excess:
            break
        move = _first_reversal(dist, D, nodes)
        if move is None:
            break
        i, j, delta = move
        nodes[i:j + 1] = nodes[j:i - 1:-1]
        cost += delta
        value = (cost - D[nodes[-1]]) * den - gain

    path = RootedPath.build(inst, nodes)
    within = path.regret if kind == "regret" else path.cost
    objective = sum(reward[v] for v in path.nodes[1:])
    if excess:
        objective = path.regret * den - objective
    if (path.cost != cost or path.regret != cost - D[nodes[-1]]
            or objective != value
            or not (excess or path.is_trivial or within <= budget)):
        raise SolverError(
            f"heuristic pricing tracked cost {cost} and value {value}, but "
            f"built {path.nodes} with cost {path.cost}, regret "
            f"{path.regret} and value {objective}")
    return PricedPath(path, Fraction(value, den))
