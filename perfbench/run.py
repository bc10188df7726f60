"""Solve benchmark for regret-route: end-to-end metrics, or per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-16 --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``exact-16``, ``fanout-14``, ``above-threshold``
or ``all`` (each workload in its own process, one after another).  The
seed alone decides the generated instances.  One caller in one thread
runs the solves one at a time (a closed loop); no thread pool is used.

``--trace 0`` times whole passes over the workload's solver calls,
repeating passes while they fit in ``--seconds`` (at least one), and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced and
one traced pass, reports the per-layer metrics, checks that the trace
reconciles, and writes the spans to ``perfbench/out/``.

Every solve passes a correctness gate; any failure, raised error or
nondeterminism makes the command exit non-zero.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
RVRP_FACTOR = 8 + 4 * math.sqrt(3)
# reference_seconds() in a typical phase of the 2-core x86-64 VM the
# baseline was taken on; wall_s and setup_s are reported at this speed.
REFERENCE_S = 0.0014

# Runs in a fresh interpreter: import the program and build the inputs.
SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print("ready", flush=True)
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_program():
    if not (SRC / "regret_route" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import regret_route
    if Path(regret_route.__file__).resolve().parent != SRC / "regret_route":
        raise BenchmarkError(f"imported regret_route from "
                             f"{regret_route.__file__}, not from {SRC}")


def _setup_probe(workload: str, seed: int) -> float:
    """Time from interpreter start to the inputs being ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload,
         str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise BenchmarkError(f"set-up probe exited with code {code}")
    return elapsed


def gate(job: dict, paths: list, diag: dict) -> list:
    """Correctness problems of one solve; an empty list means it passed."""
    from regret_route import harness
    solver, params, inst = job["solver"], job["params"], job["instance"]
    mode, vparams = harness._verify_mode(solver, params, paths)
    check = harness.verify(inst, paths, mode, vparams)
    problems = [f"verify {mode}: {f['kind']} {f['detail']}"
                for f in check["failures"]]
    for name, entry in diag.get("bound_checks", {}).items():
        if entry.get("ok") is not True:
            problems.append(f"bound check {name}: {entry}")
    if solver == "rvrp":
        lp_value = diag.get("lp_value")
        if lp_value is None:
            problems.append("rvrp reported no lp_value")
        elif len(paths) > RVRP_FACTOR * lp_value + 1:
            problems.append(f"{len(paths)} paths exceed (8+4*sqrt(3))*"
                            f"{lp_value}+1")
    if solver == "krvrp" and len(paths) > params["k"]:
        problems.append(f"{len(paths)} paths exceed k={params['k']}")
    return problems


def reference_seconds() -> float:
    """Median time of a fixed pure-Python task: the machine's speed now."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Rescale a measured time by the reference task's times around it.

    The machine's speed drifts by up to a quarter over tens of seconds
    (shared host); the reference task slows down with it, so the rescaled
    time follows the work done rather than the phase it ran in.
    """
    return seconds * 2 * REFERENCE_S / (before + after)


def run_pass(jobs: list, tracer=None, before_job=None) -> dict:
    """Solve every job once; only the solver calls are timed."""
    from regret_route import harness
    wall = scaled = 0.0
    outputs, failures = [], []
    ref = reference_seconds()
    for index, job in enumerate(jobs):
        if before_job is not None:
            before_job(index)
            ref = reference_seconds()
        if tracer is not None:
            tracer.job = index
        diag: dict = {}
        paths = None
        started = time.perf_counter()
        try:
            paths = harness.run_solver(job["solver"], job["instance"],
                                       job["params"], diagnostics=diag)
        except Exception:
            failures.append((job["id"], traceback.format_exc()))
        took = time.perf_counter() - started
        after = reference_seconds()
        wall += took
        scaled += at_reference_speed(took, ref, after)
        ref = after
        if paths is None:
            outputs.append(None)
            continue
        problems = gate(job, paths, diag)
        if problems:
            failures.append((job["id"], "; ".join(problems)))
        outputs.append(tuple(p.nodes for p in paths))
    return {"raw_s": wall, "wall_s": scaled, "outputs": outputs,
            "failures": failures}


def _path_count(outputs: list) -> int:
    return sum(len(o) for o in outputs if o is not None)


def _digest(outputs: list) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(workload: str, seed: int, counts: dict) -> None:
    """Deterministic counts must match every earlier run of this seed
    against the same source; a mismatch is nondeterminism, not noise."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload}-{seed}-{_source_digest()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    diff = {k: (known[k], v) for k, v in counts.items()
            if k in known and known[k] != v}
    if diff:
        raise BenchmarkError(f"nondeterminism: counts differ from an earlier "
                             f"run of seed {seed}: {diff}")
    known.update(counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)


def measure(workload: str, seed: int, seconds: int) -> tuple:
    """Untraced passes; end-to-end metrics."""
    jobs = workloads.build(workload, seed)
    # Set-up is timed in fresh processes spread over the first pass, so the
    # median spans the machine's slow and fast phases alike.
    due = [len(jobs) * i // SETUP_REPEATS for i in range(SETUP_REPEATS)]
    setups, setups_raw = [], []

    def probe(index: int) -> None:
        for _ in range(due.count(index)):
            before = reference_seconds()
            took = _setup_probe(workload, seed)
            setups_raw.append(took)
            setups.append(at_reference_speed(took, before,
                                             reference_seconds()))

    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, before_job=None if passes else probe))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["raw_s"] for p in passes)
        if elapsed + typical > seconds:
            break
    first = passes[0]["outputs"]
    if any(p["outputs"] != first for p in passes[1:]):
        raise BenchmarkError("nondeterminism: passes over the same inputs "
                             "returned different paths")
    check_repeatable(workload, seed, {"paths": _path_count(first),
                                      "paths_digest": _digest(first)})
    attempted = len(jobs) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "paths": (_path_count(first), "count"),
    }
    notes = {"passes": len(passes), "solves per pass": len(jobs),
             "instances": workloads.instance_count(workload),
             "failed_share": (len(failures) / attempted, "ratio"),
             "unscaled setup_s": (statistics.median(setups_raw), "s"),
             "unscaled wall_s": (statistics.median(p["raw_s"]
                                                   for p in passes), "s")}
    return metrics, attempted, failures, notes


def measure_traced(workload: str, seed: int) -> tuple:
    """Each job untraced and traced; per-layer metrics."""
    from tracing import Tracer, layer_metrics, reconcile
    jobs = workloads.build(workload, seed)
    tracer = Tracer()
    plain, traced = [], []
    # The two runs of a job are back to back, traced first on the jobs
    # whose index has an odd number of set bits (Thue-Morse order), so the
    # machine's drift and warm-up cancel out of the tracing overhead even
    # when the workload repeats a period of solvers.
    for index, job in enumerate(jobs):
        tracer.job = index
        traced_first = bin(index).count("1") % 2 == 1
        for with_trace in (traced_first, not traced_first):
            if with_trace:
                with tracer:
                    traced.append(run_pass([job]))
            else:
                plain.append(run_pass([job]))

    outputs = [o for p in plain for o in p["outputs"]]
    if [o for p in traced for o in p["outputs"]] != outputs:
        raise BenchmarkError("traced runs returned different paths than the "
                             "untraced runs")
    problems = reconcile(tracer.spans)
    if problems:
        raise BenchmarkError("trace does not reconcile: "
                             + "; ".join(problems[:5]))
    layers = layer_metrics(tracer.spans)
    check_repeatable(workload, seed, {
        "paths": _path_count(outputs), "paths_digest": _digest(outputs),
        **{k: layers[k] for k in ("lp.rounds", "exactlp.pivots",
                                  "pricing.hk_builds",
                                  "reductions.subsolves")}})
    _write_spans(workload, seed, jobs, tracer.spans)
    untraced_s = sum(p["wall_s"] for p in plain)
    overhead = sum(p["wall_s"] for p in traced) - untraced_s
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_s, "ratio")
    failures = [f for p in plain + traced for f in p["failures"]]
    notes = {"solves per pass": len(jobs),
             "untraced wall_s": (untraced_s, "s"),
             "unscaled untraced wall_s": (sum(p["raw_s"] for p in plain),
                                          "s")}
    return metrics, 2 * len(jobs), failures, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def _write_spans(workload: str, seed: int, jobs: list, spans: list) -> None:
    OUT.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "jobs": [j["id"] for j in jobs],
                             "fields": ["name", "start_s", "end_s", "parent",
                                        "job", "counts"]}) + "\n")
        for name, start, end, parent, job, counts in spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, job,
                                 counts]) + "\n")


def run_one(args) -> int:
    try:
        _import_program()
        if args.trace:
            metrics, attempted, failures, notes = measure_traced(
                args.workload, args.seed)
        else:
            metrics, attempted, failures, notes = measure(
                args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    for job_id, detail in failures:
        print(f"FAILED {job_id}: {detail}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in notes.items()
                      if not isinstance(v, tuple)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {unit}")
    for name, note in notes.items():
        if isinstance(note, tuple):
            print(f"  {name:28s} {note[0]:>14.6g} {note[1]}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    worst = 0
    for name in workloads.WORKLOADS:
        code = subprocess.call(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
