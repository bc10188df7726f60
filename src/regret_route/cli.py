"""Command-line front end.

Subcommands: ``gen`` writes instance JSON, ``solve`` runs a named solver
and writes solution JSON, ``oracle`` computes exact small-instance
optima, ``verify`` re-checks a solution from the distance matrix alone,
and ``bench`` runs a named suite to JSON lines.  Exit codes: 0 success,
1 usage, input or solver error (e.g. a missing file or an infeasible
instance), 2 verification or bench failures.
"""

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .core import (Instance, RegretRouteError, solution_from_dict,
                   solution_to_dict)
from .harness import (ORACLES, SOLVERS, SUITES, VERIFY_MODES,
                      brute_force_lp, gen_euclidean, gen_ladder, gen_line,
                      gen_random_metric, reports_to_jsonl, run_solver,
                      run_suite, verify)
from .harness import LP_ORACLE_LIMIT, ORACLE_LIMIT
from .pricing import DEFAULT_EXACT_THRESHOLD


def _jsonable(obj):
    """Diagnostics may hold Fractions and tuples; JSON knows neither."""
    if isinstance(obj, Fraction):
        return obj.numerator if obj.denominator == 1 else str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _write_text(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, out: Optional[str]) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _load_bounds(arg: str) -> dict:
    inline = arg.lstrip().startswith(("{", "["))    # else a file path
    raw = json.loads(arg) if inline else _read_json(arg)
    if not isinstance(raw, dict):
        raise ValueError("bounds must be a JSON object of node: bound")
    return raw


def _flag(args: argparse.Namespace, what: str, key: str):
    """The value of --key, without which `what` cannot run."""
    value = getattr(args, key)
    if value is None:
        raise SystemExit(f"error: {what} requires --{key}")
    return _load_bounds(value) if key == "bounds" else value


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "ladder":
        inst = gen_ladder(args.height, args.copies)
    elif args.kind == "euclidean":
        inst = gen_euclidean(args.n, args.seed, scale=args.scale)
    elif args.kind == "random":
        inst = gen_random_metric(args.n, args.seed, max_edge=args.max_edge)
    else:
        positions = [int(x) for x in args.positions.split(",")]
        inst = gen_line(positions)
    _write_json(inst.to_dict(), args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = Instance.from_dict(_read_json(args.instance))
    key = SOLVERS[args.solver].param
    params = {key: _flag(args, f"solver {args.solver!r}", key)}
    if args.threshold is not None:
        params["threshold"] = args.threshold
    params["exact_threshold"] = args.exact_threshold
    diag: dict = {}
    paths = run_solver(args.solver, inst, params, diagnostics=diag)
    stats = {"solver": args.solver,
             "params": _jsonable(params),
             "count": len(paths),
             "diagnostics": _jsonable(diag)}
    _write_json(solution_to_dict(inst, paths, stats=stats), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = Instance.from_dict(_read_json(args.instance))
    if args.kind == "lp":
        if (args.regret is None) == (args.dist is None):
            raise SystemExit(
                "error: oracle lp takes exactly one of --regret / --dist")
        kind = "regret" if args.regret is not None else "length"
        bound = args.regret if kind == "regret" else args.dist
        limit = LP_ORACLE_LIMIT if args.limit is None else args.limit
        value = brute_force_lp(inst, bound, kind=kind, limit=limit)
    else:
        oracle, key, _ = ORACLES[args.kind]
        limit = ORACLE_LIMIT if args.limit is None else args.limit
        value = oracle(inst, _flag(args, f"oracle {args.kind}", key),
                       limit=limit)
    _write_json({"oracle": args.kind, "value": value}, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = Instance.from_dict(_read_json(args.instance))
    paths = solution_from_dict(_read_json(args.solution))
    key = VERIFY_MODES[args.mode][0]
    report = verify(inst, paths, args.mode,
                    {key: _flag(args, f"mode {args.mode}", key)})
    _write_json(report, args.out)
    return 0 if report["ok"] else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, seed=args.seed, timings=args.timings)
    _write_text(reports_to_jsonl(reports), args.out)
    bad = [r["id"] for r in reports if not r["ok"]]
    if bad:
        print(f"{len(bad)} failing jobs: {', '.join(bad)}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regret-route",
        description="Cover clients of a rooted metric with few bounded-"
                    "regret or bounded-length paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance as JSON")
    gen.add_argument("kind", choices=("ladder", "euclidean", "random", "line"))
    gen.add_argument("--height", type=int, default=2,
                     help="ladder parameter h (2h-1 levels)")
    gen.add_argument("--copies", type=int, default=1,
                     help="ladder copies glued at the root")
    gen.add_argument("--n", type=int, default=8, help="number of nodes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=int, default=100,
                     help="euclidean coordinate range")
    gen.add_argument("--max-edge", type=int, default=60,
                     help="random-metric edge weight cap")
    gen.add_argument("--positions", default="0,1,2,4",
                     help="line positions, comma separated (root first)")
    gen.add_argument("--out", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run a solver on an instance")
    solve.add_argument("solver", choices=list(SOLVERS))
    solve.add_argument("--instance", required=True,
                       help="instance JSON file ('-' for stdin)")
    solve.add_argument("--regret", type=int, help="additive regret bound")
    solve.add_argument("--dist", type=int, help="per-path length cap")
    solve.add_argument("--ratio", help="multiplicative bound, e.g. 3/2")
    solve.add_argument("--bounds",
                       help="per-node regret bounds: JSON object or file")
    solve.add_argument("--k", type=int, help="path budget")
    solve.add_argument("--threshold",
                       help="rvrp rounding split threshold in (0,1), e.g. 1/3")
    solve.add_argument("--exact-threshold", type=int,
                       default=DEFAULT_EXACT_THRESHOLD,
                       help="largest client count priced exactly")
    solve.add_argument("--out", help="output file (default stdout)")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser(
        "oracle", help="exact optimum by exhaustion (small instances)")
    oracle.add_argument("kind", choices=[*ORACLES, "lp"])
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--regret", type=int)
    oracle.add_argument("--dist", type=int)
    oracle.add_argument("--k", type=int)
    oracle.add_argument("--limit", type=int,
                        help=f"largest client count to attempt (default "
                             f"{LP_ORACLE_LIMIT} for lp, else {ORACLE_LIMIT})")
    oracle.add_argument("--out", help="output file (default stdout)")
    oracle.set_defaults(func=_cmd_oracle)

    ver = sub.add_parser("verify", help="re-check a solution file")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--solution", required=True)
    ver.add_argument("--mode", required=True, choices=list(VERIFY_MODES))
    ver.add_argument("--regret", type=int)
    ver.add_argument("--dist", type=int)
    ver.add_argument("--ratio")
    ver.add_argument("--bounds")
    ver.add_argument("--out", help="output file (default stdout)")
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run a suite to JSON lines")
    bench.add_argument("--suite", required=True, choices=sorted(SUITES))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--timings", action="store_true",
                       help="include wall_ms (breaks byte determinism)")
    bench.add_argument("--out", help="output file (default stdout)")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RegretRouteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
