"""Self-checks for the benchmark's tracer and correctness gate.

Runs in a few seconds on small instances:

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._import_program()

from regret_route import harness, lp, pricing  # noqa: E402
from regret_route.core import RootedPath  # noqa: E402
from regret_route.harness import gen_euclidean  # noqa: E402
from tracing import Tracer, layer_metrics, reconcile  # noqa: E402


def _small_jobs() -> list:
    inst = gen_euclidean(9, 7)
    maxd = max(inst.root_dist)
    cases = [
        ("rvrp", {"regret": maxd // 2}),
        ("krvrp", {"k": 2}),
        ("dvrp-dp", {"dist": maxd + maxd // 2}),
        ("dvrp-lp", {"dist": maxd + maxd // 2}),
        ("mult", {"ratio": Fraction(3, 2)}),
        ("nonuniform", {"bounds": {v: 7 * v % 40 for v in inst.clients}}),
        # a threshold below the client count forces heuristic pricing
        ("rvrp", {"regret": maxd // 2, "exact_threshold": 4}),
        ("krvrp", {"k": 2, "exact_threshold": 4}),
    ]
    return [{"id": f"small/{i}/{solver}", "solver": solver, "instance": inst,
             "params": params} for i, (solver, params) in enumerate(cases)]


def test_traced_run_reconciles_with_untraced_run():
    build = run.workloads.build
    run.workloads.build = lambda name, seed: _small_jobs()
    try:
        metrics, attempted, failures, _ = run.measure_traced("selftest", 0)
    finally:
        run.workloads.build = build
    assert failures == [] and attempted == 2 * len(_small_jobs())
    layers = {name: value for name, (value, _) in metrics.items()}
    assert layers["exactlp.solves"] == layers["lp.rounds"]
    assert (layers["pricing.scans"] + layers["pricing.heuristic_calls"]
            == layers["lp.rounds"])
    assert layers["pricing.heuristic_calls"] > 0 and layers["pricing.scans"] > 0
    assert 0 < layers["lp.certified_share"] < 1
    assert layers["reductions.subsolves"] > 0
    assert "trace.overhead_s" in layers


def test_traced_pass_matches_untraced_pass():
    jobs = _small_jobs()
    plain = run.run_pass(jobs)
    with Tracer() as tracer:
        traced = run.run_pass(jobs, tracer)
    assert traced["outputs"] == plain["outputs"]
    assert reconcile(tracer.spans) == []
    jobs_seen = {s[4] for s in tracer.spans if s[0] == "harness.run_solver"}
    assert jobs_seen == set(range(len(jobs)))


def test_uninstall_restores_every_original():
    init, solve = pricing.HKTable.__init__, lp.CoveringMaster.solve
    scan = lp.exact_orienteering
    with Tracer():
        assert lp.exact_orienteering is not scan
        assert pricing.exact_orienteering is lp.exact_orienteering
    assert lp.exact_orienteering is scan is pricing.exact_orienteering
    assert pricing.HKTable.__init__ is init
    assert lp.CoveringMaster.solve is solve


def test_self_time_and_containment():
    spans = [
        ["lp.cg", 0.0, 10.0, -1, 0, {"rounds": 1, "columns": 1,
                                     "certified": 1}],
        ["exactlp.solve", 1.0, 3.0, 0, 0, {"pivots": 2}],
        ["pricing.scan", 4.0, 5.0, 0, 0, {"masks": 8}],
    ]
    layers = layer_metrics(spans)
    assert layers["lp.cg_s"] == 10.0 and layers["lp.cg_self_s"] == 7.0
    assert reconcile(spans) == []
    spans[2][2] = 11.0
    assert any("escapes" in p for p in reconcile(spans))
    spans[2][2] = 5.0
    spans[0][5]["rounds"] = 2
    assert any("2 rounds" in p for p in reconcile(spans))


def test_gate_rejects_bad_solutions():
    job = _small_jobs()[0]
    inst = job["instance"]
    diag: dict = {}
    paths = harness.run_solver(job["solver"], inst, job["params"],
                               diagnostics=diag)
    assert run.gate(job, paths, diag) == []
    assert run.gate(job, paths[1:], diag)              # a client uncovered
    assert run.gate(job, paths, {**diag, "lp_value": 0.01})  # count bound
    broken = {**diag, "bound_checks": {"x": {"ok": False}}}
    assert run.gate(job, paths, broken)
    assert run.gate(job, paths, {})                    # no lp_value
    trivial = [RootedPath.trivial(inst)]
    assert run.gate(_small_jobs()[1], trivial, {})     # krvrp uncovered


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-checks passed")
