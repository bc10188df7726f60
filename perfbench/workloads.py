"""The benchmark's workloads: which solver calls a seed expands into.

A workload is a fixed list of ``run_solver`` jobs built from the seed
alone.  Each job names a solver, its parameters and a
``gen_euclidean`` instance; the program sees only these inputs.  One
instance's solve time varies several-fold with the seed (it depends on
where the root falls and on how many column-generation rounds the
instance needs), so every workload solves a batch of instances per seed;
the batch size keeps the spread of a pass's time across seeds inside the
bounds in ``BENCHMARK.json``.
"""

from fractions import Fraction
from typing import Dict, List


def _exact16(inst) -> List[tuple]:
    # 16 clients: one full Held-Karp table per solve, used by the
    # orienteering scan (rvrp) and the min-excess scan with a budget row
    # (krvrp).
    maxd = max(inst.root_dist)
    return [("rvrp", {"regret": maxd // 2}), ("krvrp", {"k": 3})]


def _fanout14(inst) -> List[tuple]:
    # 14 clients: dvrp-dp re-solves one sub-instance at many regret
    # scales; mult and nonuniform build one small table per ring or class.
    # The cap sits 192 past the nearest client, so the doubling DP always
    # has eight levels (36 sub-solves), and it exceeds every distance in
    # the 100 x 100 square (at most 142), so the cap is always feasible.
    dist = min(inst.root_dist[v] for v in inst.clients) + 192
    return [("dvrp-dp", {"dist": dist}), ("dvrp-lp", {"dist": dist}),
            ("mult", {"ratio": Fraction(3, 2)}),
            ("nonuniform", {"bounds": {v: 7 * v % 40 for v in inst.clients}})]


def _above_rvrp(inst) -> List[tuple]:
    return [("rvrp", {"regret": max(inst.root_dist) // 4})]


def _above_krvrp(inst) -> List[tuple]:
    return [("krvrp", {"k": 3})]


# name -> [(instances per seed, nodes, jobs for one instance), ...]
WORKLOADS: Dict[str, list] = {
    "exact-16": [(5, 17, _exact16)],
    "fanout-14": [(7, 15, _fanout14)],
    # Above the exact threshold of 16 clients pricing is heuristic and the
    # rational master dominates.  24 and 21 clients stay above a threshold
    # raised to 20.  A heuristic solve's time varies several-fold with the
    # instance, so the pass is many short solves rather than a few long ones.
    "above-threshold": [(70, 25, _above_rvrp), (7, 22, _above_krvrp)],
}


def build(name: str, seed: int) -> List[dict]:
    """The jobs of one pass over workload ``name`` for ``seed``."""
    from regret_route.harness import gen_euclidean
    jobs = []
    for count, nodes, make in WORKLOADS[name]:
        for j in range(count):
            gen_seed = seed * 1000 + j
            inst = gen_euclidean(nodes, gen_seed)
            for solver, params in make(inst):
                jobs.append({"id": f"{name}/{gen_seed}/{nodes}/{solver}",
                             "solver": solver, "instance": inst,
                             "params": params})
    return jobs


def instance_count(name: str) -> int:
    return sum(count for count, _, _ in WORKLOADS[name])
