"""End-to-end runs of the command-line front end."""

import json
import subprocess
import sys

import pytest

from regret_route.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_solve_verify_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert run_cli("gen", "line", "--positions", "0,1,2,4",
                   "--out", inst) == 0
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "1",
                   "--out", sol) == 0
    assert run_cli("verify", "--instance", inst, "--solution", sol,
                   "--mode", "rvrp", "--regret", "1",
                   "--out", str(tmp_path / "report.json")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] and report["failures"] == []
    payload = json.loads(sol.read_text())
    assert payload["stats"]["solver"] == "rvrp"
    assert payload["stats"]["count"] == len(payload["paths"])


def test_verify_rejects_corrupted_solution(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "line", "--positions", "0,1,2,4", "--out", inst)
    run_cli("solve", "rvrp", "--instance", inst, "--regret", "0",
            "--out", sol)
    payload = json.loads(sol.read_text())
    payload["paths"] = payload["paths"][:1] or [[0, 1]]
    del payload["paths"][0][-1]                      # drop the last stop
    sol.write_text(json.dumps(payload))
    code = run_cli("verify", "--instance", inst, "--solution", sol,
                   "--mode", "rvrp", "--regret", "0",
                   "--out", str(tmp_path / "report.json"))
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["ok"] and report["failures"]


def test_solve_errors_exit_one(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen", "line", "--positions", "0,1,5", "--out", inst)
    assert run_cli("solve", "dvrp-dp", "--instance", inst,
                   "--dist", "3") == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("solve", "rvrp", "--instance", inst,
                   "--regret", "-1") == 1
    assert "error:" in capsys.readouterr().err
    # a threshold whose table would not fit the memory budget
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "1",
                   "--exact-threshold", "40") == 1
    assert "budget" in capsys.readouterr().err
    # a rounding threshold passed to a solver that rounds nothing
    assert run_cli("solve", "mult", "--instance", inst, "--ratio", "3/2",
                   "--threshold", "1/3") == 1
    assert ("error: solver 'mult' takes no rounding threshold"
            in capsys.readouterr().err)
    # a rounding threshold outside (0, 1), 0 included, also at R = 0
    for regret, bad in (("1", "0"), ("1", "1"), ("0", "0")):
        assert run_cli("solve", "rvrp", "--instance", inst, "--regret",
                       regret, "--threshold", bad) == 1
        assert ("error: threshold must lie strictly between 0 and 1"
                in capsys.readouterr().err)
    # a zero denominator in a ratio or a threshold
    sol = tmp_path / "sol.json"
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "1",
                   "--out", sol) == 0
    for argv in (("solve", "mult", "--instance", inst, "--ratio", "1/0"),
                 ("verify", "--instance", inst, "--solution", sol,
                  "--mode", "multiplicative", "--ratio", "1/0"),
                 ("solve", "rvrp", "--instance", inst, "--regret", "1",
                  "--threshold", "1/0")):
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert "error: zero denominator in " in capsys.readouterr().err


@pytest.mark.parametrize("solver, flag, mode, value", [
    ("rvrp", "--regret", "rvrp", "1" + "0" * 320),
    ("mult", "--ratio", "multiplicative", "1e400"),
])
def test_huge_bound_is_capped(tmp_path, solver, flag, mode, value):
    # No simple path has regret above (n - 1) times the longest edge, so a
    # larger regret bound is solved as that cap: one path covers every
    # client. A huge ratio reaches it through its rings' regret bounds.
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "euclidean", "--n", "6", "--seed", "9", "--out", inst)
    assert run_cli("solve", solver, "--instance", inst, flag, value,
                   "--out", sol) == 0
    assert run_cli("verify", "--instance", inst, "--solution", sol,
                   "--mode", mode, flag, value, "--out", tmp_path / "r") == 0
    if solver == "rvrp":
        assert len(json.loads(sol.read_text())["paths"]) == 1


def test_non_integer_bound_is_named(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "line", "--positions", "0,1,5", "--out", inst)
    assert run_cli("solve", "nonuniform", "--instance", inst,
                   "--bounds", '{"1": 2.5, "2": 1}') == 1
    assert capsys.readouterr().err == ("error: non-integer regret bound of "
                                       "node 1: 2.5\n")
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "1",
                   "--out", sol) == 0
    assert run_cli("verify", "--instance", inst, "--solution", sol,
                   "--mode", "nonuniform", "--bounds", '{"2": 0.5}') == 1
    assert capsys.readouterr().err == ("error: non-integer regret bound of "
                                       "node 2: 0.5\n")


def test_bound_of_a_non_client_is_named(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "euclidean", "--n", "5", "--seed", "1", "--out", inst)
    good = {str(v): 3 for v in range(1, 5)}
    stray = json.dumps({**good, "0": 7, "99": 1, "-4": 2})
    error = "error: regret bounds for non-clients [-4, 0, 99]\n"
    assert run_cli("solve", "nonuniform", "--instance", inst,
                   "--bounds", stray) == 1
    assert capsys.readouterr().err == error
    assert run_cli("solve", "nonuniform", "--instance", inst,
                   "--bounds", json.dumps(good), "--out", sol) == 0
    assert run_cli("verify", "--instance", inst, "--solution", sol,
                   "--mode", "nonuniform", "--bounds", stray) == 1
    assert capsys.readouterr().err == error


@pytest.mark.parametrize("bounds, error", [
    ({"1": 3, "2": 3, "3": 3}, "missing regret bound for node 4"),
    ({"1": 3, "2": -1, "3": 3, "4": 3}, "negative regret bound for node 2"),
    ({"1": 1, "01": 5, "2": 1, "3": 1, "4": 1},
     "two regret bounds for node 1"),
    ({"1": 1, "+1": 5, "2": 1, "3": 1, "4": 1},
     "two regret bounds for node 1"),
], ids=["missing", "negative", "two-for-one-leading-zero",
        "two-for-one-plus-sign"])
def test_solve_and_verify_refuse_the_same_bounds(tmp_path, capsys, bounds,
                                                 error):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "euclidean", "--n", "5", "--seed", "1", "--out", inst)
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "3",
                   "--out", sol) == 0
    capsys.readouterr()
    for argv in (("solve", "nonuniform", "--instance", inst),
                 ("verify", "--instance", inst, "--solution", sol,
                  "--mode", "nonuniform")):
        assert run_cli(*argv, "--bounds", json.dumps(bounds)) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


RATIO_ERROR = "multiplicative bound must be at least 1"


@pytest.mark.parametrize("solver, mode, flag, value, error", [
    ("mult", "multiplicative", "ratio", "1/2", RATIO_ERROR),
    ("mult", "multiplicative", "ratio", "0", RATIO_ERROR),
    ("mult", "multiplicative", "ratio", "-3", RATIO_ERROR),
    ("rvrp", "rvrp", "regret", "-1", "regret bound must be nonnegative"),
], ids=["ratio-half", "ratio-zero", "ratio-negative", "regret-negative"])
def test_solve_and_verify_refuse_the_same_parameter(tmp_path, capsys, solver,
                                                    mode, flag, value, error):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "euclidean", "--n", "5", "--seed", "1", "--out", inst)
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "3",
                   "--out", sol) == 0
    capsys.readouterr()
    for argv in (("solve", solver, "--instance", inst),
                 ("verify", "--instance", inst, "--solution", sol,
                  "--mode", mode)):
        assert run_cli(*argv, f"--{flag}", value) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


def test_exact_threshold_is_checked_before_any_solve(tmp_path, capsys):
    # R = 0 builds no table; the threshold over the memory budget is
    # refused all the same.
    inst = tmp_path / "e6.json"
    out = tmp_path / "sol.json"
    run_cli("gen", "euclidean", "--n", "7", "--seed", "1", "--out", inst)
    for regret in ("0", "20"):
        assert run_cli("solve", "rvrp", "--instance", inst, "--regret",
                       regret, "--exact-threshold", "99", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: exact threshold 99 needs a 99-client "
                              "table of about ")
        assert err.endswith(" MiB, over the 256 MiB budget\n")
        assert not out.exists()
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "0",
                   "--exact-threshold", "20", "--out", out) == 0


def test_missing_required_param_exits_nonzero(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "line", "--positions", "0,1,2", "--out", inst)
    with pytest.raises(SystemExit):
        run_cli("solve", "rvrp", "--instance", inst)     # no --regret
    with pytest.raises(SystemExit):
        run_cli("solve", "bogus", "--instance", inst)    # unknown solver
    for kind, flag in (("rvrp", "regret"), ("dvrp", "dist"), ("krvrp", "k")):
        with pytest.raises(SystemExit,
                           match=f"^error: oracle {kind} requires --{flag}$"):
            run_cli("oracle", kind, "--instance", inst)
    sol = tmp_path / "sol.json"
    assert run_cli("solve", "rvrp", "--instance", inst, "--regret", "1",
                   "--out", sol) == 0
    with pytest.raises(SystemExit, match="^error: mode dvrp requires --dist$"):
        run_cli("verify", "--instance", inst, "--solution", sol,
                "--mode", "dvrp")


@pytest.mark.parametrize("argv", [
    ("solve", "rvrp", "--instance", "missing.json", "--regret", "1"),
    ("oracle", "rvrp", "--instance", "missing.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "inst.json", "--regret", "1",
     "--out", "missing/sol.json"),
    ("solve", "nonuniform", "--instance", "inst.json", "--bounds", "[1,2]"),
    ("solve", "nonuniform", "--instance", "inst.json", "--bounds",
     "list.json"),
    ("solve", "rvrp", "--instance", "no-dist.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "list.json", "--regret", "1"),
    ("verify", "--instance", "inst.json", "--solution", "no-paths.json",
     "--mode", "rvrp", "--regret", "1"),
    ("solve", "rvrp", "--instance", "meta-list.json", "--regret", "1"),
    ("verify", "--instance", "inst.json", "--solution", "null-node.json",
     "--mode", "rvrp", "--regret", "1"),
    ("solve", "rvrp", "--instance", "root-null.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "root-half.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "root-true.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "dist-int.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "dist-flat.json", "--regret", "1"),
    ("solve", "rvrp", "--instance", "dist-str.json", "--regret", "1"),
], ids=["missing-instance", "oracle-missing-instance", "out-in-missing-dir",
        "inline-bounds-list", "bounds-file-list", "instance-without-dist",
        "instance-list", "solution-without-paths", "instance-meta-list",
        "solution-null-node", "instance-root-null", "instance-root-half",
        "instance-root-true", "instance-dist-int", "instance-dist-flat",
        "instance-dist-strings"])
def test_bad_input_files_exit_one(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run_cli("gen", "line", "--positions", "0,1,2", "--out", "inst.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "no-dist.json").write_text('{"n": 3, "root": 0}')
    (tmp_path / "no-paths.json").write_text('{"stats": {}}')
    (tmp_path / "meta-list.json").write_text(
        '{"dist": [[0, 1], [1, 0]], "meta": [1]}')
    (tmp_path / "null-node.json").write_text('{"paths": [[0, null]]}')
    (tmp_path / "dist-int.json").write_text('{"dist": 5}')
    (tmp_path / "dist-flat.json").write_text('{"dist": [5, 6]}')
    (tmp_path / "dist-str.json").write_text(
        '{"dist": [["0", " 1"], ["1", "0"]], "root": "0"}')
    for name, root in (("null", "null"), ("half", "1.5"), ("true", "true")):
        (tmp_path / f"root-{name}.json").write_text(
            f'{{"dist": [[0, 1], [1, 0]], "root": {root}}}')
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_every_solver_round_trips(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "euclidean", "--n", "6", "--seed", "9", "--out", inst)
    data = json.loads(inst.read_text())
    n = len(data["dist"])
    bounds = json.dumps({str(v): 2 for v in range(1, n)})
    cap = max(data["dist"][0]) + 2
    cases = [
        ("rvrp", ["--regret", "2"]),
        ("dvrp-dp", ["--dist", str(cap)]),
        ("dvrp-lp", ["--dist", str(cap)]),
        ("mult", ["--ratio", "3/2"]),
        ("nonuniform", ["--bounds", bounds]),
        ("krvrp", ["--k", "2"]),
    ]
    for solver, extra in cases:
        sol = tmp_path / f"{solver}.json"
        assert run_cli("solve", solver, "--instance", inst,
                       *extra, "--out", sol) == 0
        payload = json.loads(sol.read_text())
        assert payload["paths"], solver
        diag = payload["stats"]["diagnostics"]
        assert diag["path_count"] == len(payload["paths"]), solver
        # every cover but krvrp's is merged and carries the solver's count
        if solver == "krvrp":
            assert "rounded_count" not in diag
        else:
            assert diag["path_count"] <= diag["rounded_count"], solver


def test_oracle_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen", "ladder", "--height", "2", "--out", inst)
    assert run_cli("oracle", "lp", "--instance", inst, "--regret", "1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.5)
    assert run_cli("oracle", "rvrp", "--instance", inst, "--regret", "1") == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2
    # lp wants exactly one budget
    with pytest.raises(SystemExit):
        run_cli("oracle", "lp", "--instance", inst,
                "--regret", "1", "--dist", "2")


def test_oracle_limit_is_the_one_given(tmp_path, capsys):
    # 10 clients: over the lp enumeration's default of 9, under rvrp's 12
    inst = tmp_path / "inst.json"
    run_cli("gen", "euclidean", "--n", "11", "--seed", "3", "--out", inst)
    assert run_cli("oracle", "lp", "--instance", inst, "--regret", "0") == 1
    assert "exceed the enumeration threshold 9" in capsys.readouterr().err
    for limit in ("10", "12"):
        assert run_cli("oracle", "lp", "--instance", inst, "--regret", "0",
                       "--limit", limit) == 0
        assert json.loads(capsys.readouterr().out)["value"] >= 1
    assert run_cli("oracle", "rvrp", "--instance", inst, "--regret", "0") == 0
    capsys.readouterr()
    assert run_cli("oracle", "rvrp", "--instance", inst, "--regret", "0",
                   "--limit", "9") == 1
    assert "exceed the exact threshold 9" in capsys.readouterr().err


def test_bench_smoke_jsonl(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert run_cli("bench", "--suite", "smoke", "--seed", "1",
                   "--out", out1) == 0
    assert run_cli("bench", "--suite", "smoke", "--seed", "1",
                   "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 28
    for line in lines:
        record = json.loads(line)
        assert record["ok"], record["id"]


def test_module_entry_point(tmp_path, src_env):
    inst = tmp_path / "inst.json"
    run_cli("gen", "line", "--positions", "0,1,2", "--out", inst)
    proc = subprocess.run(
        [sys.executable, "-m", "regret_route", "solve", "rvrp",
         "--instance", str(inst), "--regret", "0"],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stats"]["count"] == 1


def test_no_numpy_import_without_a_table(src_env):
    # numpy is loaded only to build a Held-Karp table; above the exact
    # threshold nothing builds one, so start-up time and memory stay lean.
    # krvrp there runs the master with its budget row and the min-excess
    # heuristic pricer.
    code = (
        "import sys\n"
        "import regret_route, regret_route.cli, regret_route.harness\n"
        "from regret_route.harness import gen_euclidean, run_solver\n"
        "inst = gen_euclidean(21, 1)\n"
        "assert run_solver('rvrp', inst, {'regret': max(inst.root_dist) // 4})\n"
        "inst = gen_euclidean(22, 1)\n"
        "assert run_solver('krvrp', inst, {'k': 3})\n"
        "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
