"""Per-layer spans recorded from outside the solver.

The tracer replaces public functions of ``regret_route`` with timing
wrappers at every place a caller looks them up: each module global bound
to the function, or the class attribute for a method.  ``src/`` is not
modified; ``Tracer.uninstall`` puts every original back.

A span is ``[name, start, end, parent, job, counts]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``job`` the index of the
solver call that caused it, and ``counts`` the work recorded at the
boundary (rounds, pivots, table cells, ...) or ``None``.
"""

import functools
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, JOB, COUNTS = range(6)

SOLVERS = {
    "solve_rvrp": "rvrp",
    "solve_dvrp_dp": "dvrp-dp",
    "solve_dvrp_lp_round": "dvrp-lp",
    "solve_multiplicative": "mult",
    "solve_nonuniform": "nonuniform",
    "solve_krvrp_minmax": "krvrp",
}
SCANS = ("exact_orienteering", "exact_length_budget",
         "exact_min_excess_pricing")


class Tracer:
    """Records spans in memory while installed; one thread, one caller."""

    def __init__(self):
        self.spans: List[list] = []
        self.job = -1
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, name: str, fn: Callable,
              count: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    tracer.job, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        return traced

    def _patch_function(self, name: str, fn: Callable,
                        count: Optional[Callable] = None) -> None:
        wrapper = self._wrap(name, fn, count)
        for modname, module in list(sys.modules.items()):
            if modname != "regret_route" and \
                    not modname.startswith("regret_route."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _patch_method(self, name: str, cls: type, attr: str,
                      count: Optional[Callable] = None) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, count))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from regret_route import (core, exactlp, flows, harness, lp, pricing,
                                  reductions, rounding)
        if self._undo:
            raise RuntimeError("tracer already installed")

        def cells(args, _):
            table = args[0]
            return {"cells": table.m << table.m}

        def masks(args, _):
            return {"masks": 1 << len(args[0].clients)}

        pivots_seen = weakref.WeakKeyDictionary()

        def pivots(args, result):
            master = args[0]
            delta = result.pivots - pivots_seen.get(master, 0)
            pivots_seen[master] = result.pivots
            return {"pivots": delta}

        def cg(_, result):
            return {"rounds": result.rounds, "columns": len(result.columns),
                    "certified": int(result.certified)}

        self._patch_method("pricing.hk_build", pricing.HKTable, "__init__",
                           cells)
        for fname in SCANS:
            self._patch_function("pricing.scan", getattr(pricing, fname),
                                 masks)
        self._patch_function("pricing.heuristic", pricing.heuristic_pricing)
        self._patch_method("exactlp.solve", exactlp.CoveringMaster, "solve",
                           pivots)
        self._patch_function("lp.cg", lp.column_generation, cg)
        for fname, solver in SOLVERS.items():
            self._patch_function(f"reductions.{solver}",
                                 getattr(reductions, fname))
        for fname in ("round_rvrp", "round_minsum"):
            self._patch_function("rounding.round", getattr(rounding, fname))
        self._patch_function("rounding.forest", rounding.build_forest)
        self._patch_function("rounding.shortcut",
                             rounding.shortcut_to_witnesses)
        self._patch_function("rounding.flow", rounding.round_flow)
        self._patch_function("rounding.graft", rounding.graft)
        self._patch_method("flows.solve", flows.MinCostCirculation, "solve")
        self._patch_function("core.zero_regret", core.zero_regret_cover)
        self._patch_function("core.split_by_regret", core.split_by_regret)
        self._patch_function("harness.run_solver", harness.run_solver)
        self._patch_function("harness.verify", harness.verify)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _children(spans: List[list]) -> List[List[int]]:
    kids: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def _self_time(spans: List[list], kids: List[List[int]], i: int) -> float:
    s = spans[i]
    return (s[END] - s[START]) - sum(spans[c][END] - spans[c][START]
                                     for c in kids[i])


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Totals per layer over all recorded spans (one traced pass)."""
    kids = _children(spans)
    out: Dict[str, float] = {
        "pricing.hk_build_s": 0.0, "pricing.hk_builds": 0,
        "pricing.hk_cells": 0,
        "pricing.scan_s": 0.0, "pricing.scans": 0, "pricing.scan_masks": 0,
        "pricing.heuristic_s": 0.0, "pricing.heuristic_calls": 0,
        "exactlp.solve_s": 0.0, "exactlp.solves": 0, "exactlp.pivots": 0,
        "lp.cg_s": 0.0, "lp.cg_self_s": 0.0, "lp.cg_runs": 0,
        "lp.rounds": 0, "lp.columns": 0, "lp.certified_share": 0.0,
        "reductions.subsolves": 0, "reductions.subsolve_s": 0.0,
        **{f"reductions.{solver}_s": 0.0 for solver in SOLVERS.values()},
        "rounding.round_s": 0.0, "rounding.forest_s": 0.0,
        "rounding.shortcut_s": 0.0, "rounding.flow_s": 0.0,
        "rounding.graft_s": 0.0, "flows.solve_s": 0.0,
        "core.zero_regret_s": 0.0, "core.split_by_regret_s": 0.0,
        "harness.run_solver_s": 0.0, "harness.verify_s": 0.0,
    }
    certified = 0
    for i, s in enumerate(spans):
        # a call that raised has no counts; the gate reports its failure
        name, dur, counts = s[NAME], s[END] - s[START], s[COUNTS] or {}
        layer = name.split(".")[0]
        if name == "pricing.hk_build":
            out["pricing.hk_build_s"] += dur
            out["pricing.hk_builds"] += 1
            out["pricing.hk_cells"] += counts.get("cells", 0)
        elif name == "pricing.scan":
            out["pricing.scan_s"] += _self_time(spans, kids, i)
            out["pricing.scans"] += 1
            out["pricing.scan_masks"] += counts.get("masks", 0)
        elif name == "pricing.heuristic":
            out["pricing.heuristic_s"] += dur
            out["pricing.heuristic_calls"] += 1
        elif name == "exactlp.solve":
            out["exactlp.solve_s"] += dur
            out["exactlp.solves"] += 1
            out["exactlp.pivots"] += counts.get("pivots", 0)
        elif name == "lp.cg":
            out["lp.cg_s"] += dur
            out["lp.cg_self_s"] += _self_time(spans, kids, i)
            out["lp.cg_runs"] += 1
            out["lp.rounds"] += counts.get("rounds", 0)
            out["lp.columns"] += counts.get("columns", 0)
            certified += counts.get("certified", 0)
        elif layer == "reductions":
            if _under(spans, i, "reductions"):
                out["reductions.subsolves"] += 1
                out["reductions.subsolve_s"] += dur
            else:
                out[name + "_s"] += dur
        else:
            out[name + "_s"] += dur
    if out["lp.cg_runs"]:
        out["lp.certified_share"] = certified / out["lp.cg_runs"]
    return out


def _under(spans: List[list], i: int, layer: str) -> bool:
    """True when some ancestor of span i belongs to the given layer."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME].startswith(layer + "."):
            return True
        p = spans[p][PARENT]
    return False


def reconcile(spans: List[list]) -> List[str]:
    """Self-checks on one traced pass; returns the problems found.

    Every child span lies inside its parent, and each column-generation
    call solved its master once and priced once per round.
    """
    problems = []
    kids = _children(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if not p[START] <= s[START] <= s[END] <= p[END]:
                problems.append(f"span {i} ({s[NAME]}) escapes its parent "
                                f"{s[PARENT]} ({p[NAME]})")
        if s[NAME] != "lp.cg" or s[COUNTS] is None:
            continue
        rounds = s[COUNTS]["rounds"]
        names = [spans[c][NAME] for c in kids[i]]
        solves = names.count("exactlp.solve")
        prices = names.count("pricing.scan") + names.count("pricing.heuristic")
        if solves != rounds or prices != rounds:
            problems.append(f"column generation span {i}: {rounds} rounds but "
                            f"{solves} master solves and {prices} pricings")
    return problems

