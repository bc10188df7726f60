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


def test_missing_required_param_exits_nonzero(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "line", "--positions", "0,1,2", "--out", inst)
    with pytest.raises(SystemExit):
        run_cli("solve", "rvrp", "--instance", inst)     # no --regret
    with pytest.raises(SystemExit):
        run_cli("solve", "bogus", "--instance", inst)    # unknown solver


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
        assert payload["stats"]["diagnostics"], solver


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


def test_bench_smoke_jsonl(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert run_cli("bench", "--suite", "smoke", "--seed", "1",
                   "--out", out1) == 0
    assert run_cli("bench", "--suite", "smoke", "--seed", "1",
                   "--threads", "2", "--out", out2) == 0
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
    code = (
        "import sys\n"
        "import regret_route, regret_route.cli, regret_route.harness\n"
        "from regret_route.harness import gen_euclidean, run_solver\n"
        "inst = gen_euclidean(21, 1)\n"
        "assert run_solver('rvrp', inst, {'regret': max(inst.root_dist) // 4})\n"
        "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
