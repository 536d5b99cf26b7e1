"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import TableCall, TableMix  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_table_mix_is_seeded_and_stratified():
    a, b = TableMix(5), TableMix(5)
    first = a.next_round()
    assert first == b.next_round()
    assert a.next_round() != first
    assert first[-1] == first[workloads.REPEAT_SLOT]
    drawn = first[:-1]
    assert sum(c.rows for c in first) == 104_000
    assert all(5_000 <= c.rows <= 35_000 and abs(c.m) <= c.n <= 20 for c in drawn)
    assert sum(c.fmt == "json" for c in drawn) == 2
    assert sum(c.mesh is not None for c in drawn) == 2
    assert {c.space for c in drawn} == {"position", "momentum"}
    assert {c.scale for c in drawn} == {"linear", "log"}


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("polys.inner", lambda: None)
    outer = tracer.wrap("position.outer", lambda: (inner(), inner()))
    outer()
    calls, total, self_s, _ = tracer.stats["position.outer"]
    assert (calls, total, self_s) == (1, 5.0, 3.0)
    assert tracer.stats["polys.inner"][:3] == [2, 2.0, 2.0]


def test_traced_worker_sees_caller_namespaces(tmp_path):
    argv = ["table", "--space", "momentum", "--n", "3", "--m", "1", "--grid", "0.1:5:20"]
    spec = {"calls": [argv], "trace": True, "out": str(tmp_path / "o"), "stack": True}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["calls"][0]["code"] == 0
    assert res["stats"]["momentum.psi_momentum"][0] == 20
    assert res["stats"]["polys.assoc_legendre"][3] == 20
    assert res["stats"]["polys.bessel_j"][0] == 0
    assert res["stack"]["python"] == ".".join(map(str, sys.version_info[:3]))


@pytest.mark.parametrize("space,n,m", [("position", 4, -2), ("position", 20, 7),
                                       ("momentum", 5, 3), ("momentum", 18, -11)])
def test_oracle_matches_library(space, n, m):
    from hydro2d.momentum import MomentumPoint, psi_momentum
    from hydro2d.position import PolarPoint, QuantumNumbers, psi_position

    call = TableCall(space, n, m, "0", "1", 2, "linear", "csv", None, "0.7")
    for coord in (0.0, 0.3, 2.5, 17.0):
        if space == "position":
            got = psi_position(QuantumNumbers(n, m), PolarPoint(coord, 0.7))
        else:
            got = psi_momentum(QuantumNumbers(n, m), MomentumPoint(coord, 0.7))
        want = checks.oracle_psi(call, coord, 0.7)
        assert abs(got - want) <= 1e-11 * abs(want) + 1e-300


def _cli_text(argv):
    from hydro2d.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("fmt,mesh", [("csv", None), ("json", 4)])
def test_table_check_accepts_the_program_and_rejects_changes(fmt, mesh):
    call = TableCall("position", 6, 2, "0.01", "40", 50, "log", fmt, mesh, "1.1")
    code, text = _cli_text(call.argv)
    assert checks.check_table(call, text, code, sample_seed=3) == []
    if fmt == "csv":
        lines = text.split("\n")
        scaled = [lines[0]] + [",".join(f[:1] + [repr(float(f[1]) * (1 + 1e-6))] + f[2:])
                               for f in (ln.split(",") for ln in lines[1:-1])] + [""]
        assert checks.check_table(call, "\n".join(scaled), code, sample_seed=3)
        assert checks.check_table(call, "\n".join(lines[:-2] + [""]), code, sample_seed=3)
    assert checks.check_table(call, text, 1, sample_seed=3)


def test_verify_check_enforces_names_keys_and_exit_code():
    names = workloads.SUITE_CHECKS["momentum"]
    reports = [{"check_name": n, "grid_desc": "", "max_abs_err": 0.0, "max_rel_err": 0.0,
                "tolerance": 1.0, "pass": i != 1, "notes": "", "worst_at": {}}
               for i, n in enumerate(names)]
    text = json.dumps(reports)
    assert checks.check_verify(text, 1, names) == ([], 1)
    assert checks.check_verify(text, 0, names)[0]
    assert checks.check_verify(json.dumps(reports[::-1]), 1, names)[0]
    del reports[0]["notes"]
    assert checks.check_verify(json.dumps(reports), 1, names)[0]
    problems, failed = checks.check_verify("not json", 1, names)
    assert len(problems) == 1 and failed == len(names)


def test_table_sweep_run_reports_end_to_end_metrics():
    proc = run_bench("--workload", "table-sweep", "--seed", "2", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-3].startswith("stack ") and lines[-2].startswith("raw ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 18
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics():
    proc = run_bench("--workload", "verify-identities", "--seed", "2", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["attempted"] == 50
    assert result["metrics"]["ftoracle.ft_hankel.calls"]["value"] == 0
    assert result["metrics"]["verify.checks_failed"]["value"] == result["failed"] / 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
