"""Command-line contract: exact bytes, exit codes, determinism.

Exit codes are part of the public interface (0 success, 1 verification
failure, 2 usage error), as is byte-identical output for identical
invocations, so several tests compare full strings rather than parsed
values.
"""

import dataclasses
import errno
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hydro2d
from hydro2d import cli
from hydro2d.cli import main
from hydro2d.momentum import MomentumPoint, psi_momentum
from hydro2d.position import PolarPoint, QuantumNumbers, psi_position
from hydro2d.reporting import GridSpec
from hydro2d.verify import SUITE_ORDER, SUITES, run_suite

EIGEN_2 = ("n,q0,energy\n"
           "0,2.0,-4.0\n"
           "1,0.6666666666666666,-0.4444444444444444\n"
           "2,0.4,-0.16000000000000003\n")


def run_cli(capsys, args):
    code = main(args)
    return code, capsys.readouterr().out


def test_eigen_csv_exact(capsys):
    code, out = run_cli(capsys, ["eigen", "--n-max", "2"])
    assert code == 0
    assert out == EIGEN_2


def test_eigen_single_row(capsys):
    code, out = run_cli(capsys, ["eigen", "--n-max", "0"])
    assert code == 0
    assert out == "n,q0,energy\n0,2.0,-4.0\n"


def test_eigen_json(capsys):
    code, out = run_cli(capsys, ["eigen", "--n-max", "1", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"n": 0, "q0": 2.0, "energy": -4.0},
                    {"n": 1, "q0": 2.0 / 3.0, "energy": -(2.0 / 3.0) ** 2}]


def test_csv_field_writes_numpy_floats_as_python_floats():
    assert cli._csv_field(np.float64(0.1)) == "0.1" == cli._csv_field(0.1)


@pytest.mark.parametrize("bad", [["eigen", "--n-max", "-3"],
                                 ["eigen", "--n-max", "51"]])
def test_eigen_usage_errors(bad):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2


def test_table_position_first_row(capsys):
    code, out = run_cli(capsys, ["table", "--n", "0", "--m", "0", "--grid", "0:5:6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coordinate,re,im,abs2"
    assert lines[1] == "0.0,1.5957691216057308,0.0,2.5464790894703255"
    assert len(lines) == 7


def test_table_position_at_overflowing_radius(capsys):
    # v^|m| overflows at rho = 1e200; the table prints the limit 0 there.
    code, out = run_cli(capsys, ["table", "--n", "2", "--m", "2", "--grid", "0:1e200:3"])
    assert code == 0
    assert out.splitlines()[-1] == "1e+200,0.0,0.0,0.0"


@pytest.mark.parametrize("n", [0, 3])
def test_table_position_out_to_the_largest_radius(n):
    # Past rho ~ 4e307 v = 2 q0 rho is inf: the table prints the limit 0 there, with no
    # overflow warning and no Laguerre overflow error.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(hydro2d.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "hydro2d.cli", "table", "--n", str(n),
                          "--m", "0", "--grid", "0:1e308:3"], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines()[-2:] == ["5e+307,0.0,0.0,0.0", "1e+308,0.0,0.0,0.0"]


def test_table_momentum_ground_state(capsys):
    code, out = run_cli(capsys, ["table", "--space", "momentum",
                                 "--n", "0", "--m", "0", "--grid", "0:2:5"])
    assert code == 0
    # |psi(0)|^2 = 1/(2 pi) under the unitary transform convention
    assert out.splitlines()[1] == "0.0,0.3989422804014327,0.0,0.15915494309189535"


def test_table_momentum_phase_purely_imaginary(capsys):
    code, out = run_cli(capsys, ["table", "--space", "momentum",
                                 "--n", "1", "--m", "1", "--grid", "0.1:1:4"])
    assert code == 0
    for line in out.splitlines()[1:]:
        _, re, im, _ = line.split(",")
        assert float(re) == 0.0
        assert float(im) != 0.0


def test_table_log_grid_and_json(capsys):
    code, out = run_cli(capsys, ["table", "--n", "1", "--m", "0",
                                 "--grid", "0.1:10:4:log", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[0]["coordinate"] == pytest.approx(0.1)
    assert rows[-1]["coordinate"] == pytest.approx(10.0)
    assert set(rows[0]) == {"coordinate", "re", "im", "abs2"}


def test_table_mesh_outer_product(capsys):
    code, out = run_cli(capsys, ["table", "--n", "1", "--m", "1",
                                 "--grid", "0:2:3", "--mesh", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coordinate,angle,re,im,abs2"
    assert len(lines) == 1 + 3 * 4
    angles = {line.split(",")[1] for line in lines[1:]}
    assert angles == {repr(2.0 * math.pi * k / 4) for k in range(4)}


@pytest.mark.parametrize("bad", [
    ["table", "--n", "1", "--m", "2", "--grid", "0:5:6"],     # |m| > n
    ["table", "--n", "1", "--m", "0", "--grid", "5:0:6"],     # min > max
    ["table", "--n", "1", "--m", "0", "--grid", "junk"],
    ["table", "--n", "1", "--m", "0", "--grid", "-1:5:6"],    # negative radius
    ["table", "--n", "1", "--m", "0", "--grid", "0:5:6", "--mesh", "1"],
    ["table", "--n", "92", "--m", "92", "--grid", "0:1:3"],  # normalization underflows
    ["table", "--space", "momentum", "--n", "92", "--m", "92", "--grid", "0:1:3"],
    ["table", "--n", "1", "--m", "1", "--grid", "0:5:3", "--angle", "nan"],
    ["table", "--n", "1", "--m", "1", "--grid", "0:inf:3"],
])
def test_table_usage_errors(bad):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2


def test_table_non_finite_value_is_a_usage_error(monkeypatch, capsys):
    # Whatever slips past input validation, the writer prints no NaN or inf.
    monkeypatch.setattr(cli, "psi_position",
                        lambda qn, pt: np.where(pt.rho > 1.0, complex(1.0, math.nan), 1.0))
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "1", "--m", "0", "--grid", "0:2:3"])
    assert exc.value.code == 2
    assert "non-finite im" in capsys.readouterr().err


# Tables at or above cli._SPLIT_ROWS, with odd row counts (4,001 and 1,001 x 7), so that
# table formats their second half in a forked child where two CPUs are usable.
SPLIT_SLICE = ["--grid", "0:40:4001", "--angle", "1.1"]
SPLIT_MESH = ["--grid", "0:9:1001", "--mesh", "7"]
SPLIT_TABLE = ["table", "--n", "4", "--m", "-3", "--format", "json", *SPLIT_SLICE]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so a large table and verify all fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("space, extra", [
    ("position", ["--grid", "0:7:9", "--angle", "0.4"]),
    ("momentum", ["--grid", "0.01:30:9:log", "--angle", "2.5"]),
    ("position", ["--grid", "0:7:5", "--mesh", "3"]),
    ("momentum", ["--grid", "0:3:4", "--mesh", "5"]),
    ("momentum", ["--grid", "0.5:1:2", "--angle", "0.0"]),
    ("position", SPLIT_SLICE),
    ("momentum", SPLIT_MESH),
])
def test_table_writer_matches_generic_writers(capsys, two_cpus, space, extra, fmt):
    # The one-template writer, split or not, must give the bytes of _csv and _json on the
    # same columns.
    argv = ["table", "--space", space, "--n", "4", "--m", "-3", "--format", fmt, *extra]
    code, out = run_cli(capsys, argv)
    assert code == 0
    grid = GridSpec.parse(extra[1]).values()
    meshed = "--mesh" in extra
    angles = ([2.0 * math.pi * k / int(extra[-1]) for k in range(int(extra[-1]))] if meshed
              else [float(extra[-1])])
    coords, phis = np.meshgrid(grid, angles, indexing="ij")
    qn = QuantumNumbers(4, -3)
    vals = (psi_position(qn, PolarPoint(coords, phis)) if space == "position"
            else psi_momentum(qn, MomentumPoint(coords, phis)))
    header = ["coordinate", "angle", "re", "im", "abs2"]
    cols = [coords, phis, vals.real, vals.imag, np.abs(vals) ** 2]
    if not meshed:
        del header[1], cols[1]
    rows = list(zip(*(c.ravel().tolist() for c in cols)))
    want = (cli._csv(header, rows) if fmt == "csv"
            else cli._json([dict(zip(header, r)) for r in rows]))
    assert out == want


# The two commands that do half their work in a forked child, each with the cli function
# a fault is injected through: a table above the split and verify all.
SPLIT_COMMANDS = [pytest.param(SPLIT_TABLE, "_fill", id="table"),
                  pytest.param(["verify", "all"], "run_suite", id="verify-all")]


def inject_fault(monkeypatch, name, where):
    """Make ``cli.<name>`` raise in the parent only or in the forked child only."""
    parent, real = os.getpid(), getattr(cli, name)

    def faulty(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError(f"{where} fault")
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, name, faulty)


def count_forks(monkeypatch):
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("argv", [
    ["table", "--n", "4", "--m", "-3", *SPLIT_SLICE],
    ["table", "--n", "4", "--m", "-3", *SPLIT_MESH],
    ["verify", "all"],
], ids=["table", "table-mesh", "verify-all"])
def test_split_forks_one_child_and_reaps_it(monkeypatch, capsys, two_cpus, argv):
    forks = count_forks(monkeypatch)
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert forks == [os.getpid()]
    assert_no_child_left()


@pytest.mark.parametrize("argv, name", SPLIT_COMMANDS)
def test_split_child_failure_gives_the_same_bytes(monkeypatch, capsys, two_cpus, argv, name):
    _, want = run_cli(capsys, argv)
    inject_fault(monkeypatch, name, "child")
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == want
    assert_no_child_left()


@pytest.mark.parametrize("argv, name", SPLIT_COMMANDS)
def test_split_reaps_child_when_the_parent_half_raises(monkeypatch, two_cpus, argv, name):
    inject_fault(monkeypatch, name, "parent")
    with pytest.raises(RuntimeError, match="parent fault"):
        main(argv)
    assert_no_child_left()


@pytest.mark.parametrize("argv, name", SPLIT_COMMANDS)
@pytest.mark.parametrize("cpus, error", [
    ({0}, AssertionError("forked with one usable CPU")),
    ({0, 1}, BlockingIOError(errno.EAGAIN, "no process to spare")),
], ids=["one-cpu", "fork-fails"])
def test_split_without_a_child_gives_the_same_bytes(monkeypatch, capsys, two_cpus, cpus, error,
                                                    argv, name):
    _, want = run_cli(capsys, argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    def no_fork():
        raise error
    monkeypatch.setattr(os, "fork", no_fork)
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("argv, name", SPLIT_COMMANDS)
def test_split_fork_warning_stays_quiet(monkeypatch, capsys, two_cpus, argv, name):
    # Python 3.12+ warns when a process with other threads forks; the command must
    # neither fail nor print it, even with warnings made errors.
    _, want = run_cli(capsys, argv)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("this process is multi-threaded", DeprecationWarning)
        return pid
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == want and captured.err == ""
    assert_no_child_left()


@pytest.mark.parametrize("argv, name", SPLIT_COMMANDS)
def test_split_out_matches_stdout(tmp_path, capsys, two_cpus, argv, name):
    _, want = run_cli(capsys, argv)
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, [*argv, "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_bytes() == want.encode("ascii")
    assert_no_child_left()


def test_verify_all_split_gives_the_reports_of_run_suite(capsys, two_cpus):
    code, out = run_cli(capsys, ["verify", "all"])
    assert code == 0
    assert out == json.dumps([r.to_dict() for r in run_suite("all")], indent=2) + "\n"


@pytest.mark.parametrize("extra", [["--tol", "1e-300"], ["--tol", "1e-300", "--n-max", "0"]],
                         ids=["tol", "tol-n-max-0"])
def test_verify_all_split_failures_in_both_halves(monkeypatch, capsys, two_cpus, extra):
    argv = ["verify", "all", *extra]
    code, out = run_cli(capsys, argv)
    assert code == 1
    in_child = [suite in cli._CHILD_SUITES for suite in SUITE_ORDER for _ in SUITES[suite]]
    reports = json.loads(out)
    assert len(reports) == len(in_child)
    assert {child for child, r in zip(in_child, reports) if not r["pass"]} == {False, True}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_cli(capsys, argv) == (1, out)


def test_verify_all_split_failure_in_the_child_half_alone(monkeypatch, capsys, two_cpus):
    # The exit code comes from the joined reports, so one failing check in the child's
    # half makes it 1.
    assert "ft" in cli._CHILD_SUITES
    real = cli.run_suite

    def last_ft_check_fails(suite, **kwargs):
        reports = real(suite, **kwargs)
        if suite == "ft":
            reports[-1] = dataclasses.replace(reports[-1], passed=False)
        return reports
    monkeypatch.setattr(cli, "run_suite", last_ft_check_fails)
    code, out = run_cli(capsys, ["verify", "all"])
    assert code == 1
    assert [r["pass"] for r in json.loads(out)].count(False) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_cli(capsys, ["verify", "all"]) == (1, out)


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_single_suite_verify_makes_no_fork(monkeypatch, capsys, two_cpus, suite):
    forks = count_forks(monkeypatch)
    code, _ = run_cli(capsys, ["verify", suite])
    assert code == 0
    assert forks == []


def test_verify_polys_json(capsys):
    code, out = run_cli(capsys, ["verify", "polys"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 5
    for rep in reports:
        assert list(rep.keys()) == ["check_name", "grid_desc", "max_abs_err",
                                    "max_rel_err", "tolerance", "pass", "notes"]
        assert rep["pass"] is True


def test_verify_byte_identical_reruns(capsys):
    _, first = run_cli(capsys, ["verify", "polys"])
    _, second = run_cli(capsys, ["verify", "polys"])
    assert first == second


def test_verify_stamp_adds_timestamp(capsys):
    code, out = run_cli(capsys, ["verify", "polys", "--stamp"])
    assert code == 0
    reports = json.loads(out)
    assert all("generated_at" in rep for rep in reports)


def test_verify_unreachable_tolerance_fails(capsys):
    code, out = run_cli(capsys, ["verify", "polys", "--tol", "1e-30"])
    assert code == 1
    reports = json.loads(out)
    assert any(not rep["pass"] for rep in reports)


def test_verify_all_at_the_levi_civita_limit(capsys):
    # --n-max reaches every check that takes it, up to the Levi-Civita oracle's n = 30;
    # two-oracle-agreement alone keeps its cost cap of n = 3.
    code, out = run_cli(capsys, ["verify", "all", "--n-max", "30"])
    reports, checks = json.loads(out), [fn for suite in SUITE_ORDER for fn in SUITES[suite]]
    assert code == 0 and len(reports) == len(checks) == 29
    assert all(rep["pass"] for rep in reports)
    for fn, rep in zip(checks, reports):  # a default of None: a fixed case set
        if inspect.signature(fn).parameters["n_max"].default is not None:
            want = "3" if rep["check_name"] == "two-oracle-agreement" else "30"
            assert want in re.findall(r"\d+", rep["grid_desc"]), rep["check_name"]


def test_verify_empty_sweeps_exit_1(capsys):
    code, out = run_cli(capsys, ["verify", "all", "--n-max", "0"])
    assert code == 1
    assert [rep["check_name"] for rep in json.loads(out) if not rep["pass"]] == [
        "laguerre-derivative", "position-orthogonality-same-m", "position-orthogonality-same-n"]


def test_verify_csv_format(capsys):
    code, out = run_cli(capsys, ["verify", "position", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check_name,grid_desc,max_abs_err,max_rel_err,tolerance,pass,notes"
    assert len(lines) == 6
    assert out.endswith("\n")


@pytest.mark.parametrize("bad", [
    ["verify", "everything"],
    ["verify", "polys", "--n-max", "31"],
    ["verify", "polys", "--tol", "0"],
    [],
    ["verify", "levicivita", "--format", "csv", "--tol", "nan"],
    ["verify", "levicivita", "--format", "csv", "--tol", "inf"],
])
def test_verify_usage_errors(bad):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["eigen", "--n-max", "51"], "--n-max must lie in [0, 50]"),
    (["table", "--n", "1", "--m", "0", "--grid", "0:5:6", "--mesh", "1"],
     "--mesh needs at least 2 angles"),
    (["table", "--n", "1", "--m", "0", "--grid", "0:1:1000000000000000"],
     "a table of 1000000000000000 rows does not fit in memory"),
    (["table", "--n", "1", "--m", "0", "--grid", "0:1:2", "--mesh", "1000000000000000"],
     "a table of 2000000000000000 rows does not fit in memory"),
    (["verify", "all", "--n-max", "31"], "--n-max must lie in [0, 30]"),
], ids=["eigen", "table", "table-grid-memory", "table-mesh-memory", "verify"])
def test_usage_error_prints_the_subcommand_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: hydro2d {argv[0]} [-h]")
    assert err.endswith(f"hydro2d {argv[0]}: error: {message}\n")


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "spectrum.csv"
    code = main(["eigen", "--n-max", "2", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == EIGEN_2


@pytest.mark.parametrize("argv", [["eigen", "--n-max", "2"],
                                  ["table", "--n", "1", "--m", "0", "--grid", "0:5:6"],
                                  ["verify", "polys"]])
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    # A missing directory or a directory as the target: exit 2 naming the path, no traceback.
    target = str(tmp_path / where)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", target])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write --out {target}" in err and "Traceback" not in err


def _verify_all_in_child(stack):
    # The variables are set for the child only; numpy and OpenBLAS read them at import.
    env = {**os.environ, **stack,
           "PYTHONPATH": str(pathlib.Path(hydro2d.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "hydro2d.cli", "verify", "all", "--format", "json"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def default_stack_output():
    return _verify_all_in_child({})


@pytest.mark.parametrize("stack, same_bytes", [
    ({"OPENBLAS_CORETYPE": "Nehalem",
      "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}, False),
    ({"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}, True),
], ids=["nehalem-baseline-simd", "haswell-one-thread"])
def test_verify_all_holds_on_other_kernels(stack, same_bytes, default_stack_output):
    # No BLAS or LAPACK call is on the runtime path, so other BLAS kernels and
    # thread counts give the same bytes.  numpy at its baseline SIMD moves the
    # last bits of its own exp, sin and cos: there the checks, keys and
    # verdicts hold, and errors stay within a decade.
    output = _verify_all_in_child(stack)
    if same_bytes:
        assert output == default_stack_output
    reports, default_stack_reports = json.loads(output), json.loads(default_stack_output)
    assert [r["check_name"] for r in reports] == [r["check_name"] for r in default_stack_reports]
    for got, want in zip(reports, default_stack_reports):
        assert list(got) == list(want)
        assert got["pass"] is want["pass"] is True
        assert (got["grid_desc"], got["tolerance"], got["notes"]) == \
            (want["grid_desc"], want["tolerance"], want["notes"])
        for key in ("max_abs_err", "max_rel_err"):
            assert want[key] / 10.0 <= got[key] <= 10.0 * want[key], (got["check_name"], key)
