"""Command-line contract: exact bytes, exit codes, determinism.

Exit codes are part of the public interface (0 success, 1 verification
failure, 2 usage error), as is byte-identical output for identical
invocations, so several tests compare full strings rather than parsed
values.
"""

import errno
import json
import math
import os
import pathlib
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
    """Two usable CPUs whatever the host has, so a large table takes the forked path."""
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


@pytest.mark.parametrize("extra", [SPLIT_SLICE, SPLIT_MESH])
def test_table_split_forks_one_child_and_reaps_it(monkeypatch, capsys, two_cpus, extra):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    code, _ = run_cli(capsys, ["table", "--n", "4", "--m", "-3", *extra])
    assert code == 0
    assert forks == [os.getpid()]
    assert_no_child_left()


def test_table_split_child_failure_gives_the_same_bytes(monkeypatch, capsys, two_cpus):
    _, want = run_cli(capsys, SPLIT_TABLE)
    parent, fill = os.getpid(), cli._fill

    def fails_in_child(block, row, sep):
        if os.getpid() != parent:
            raise RuntimeError("child formatter fault")
        return fill(block, row, sep)
    monkeypatch.setattr(cli, "_fill", fails_in_child)
    code, out = run_cli(capsys, SPLIT_TABLE)
    assert code == 0
    assert out == want
    assert_no_child_left()


def test_table_split_reaps_child_when_parent_formatting_raises(monkeypatch, two_cpus):
    parent, fill = os.getpid(), cli._fill

    def fails_in_parent(block, row, sep):
        if os.getpid() == parent:
            raise RuntimeError("parent formatter fault")
        return fill(block, row, sep)
    monkeypatch.setattr(cli, "_fill", fails_in_parent)
    with pytest.raises(RuntimeError, match="parent formatter fault"):
        main(SPLIT_TABLE)
    assert_no_child_left()


@pytest.mark.parametrize("cpus, error", [
    ({0}, AssertionError("table forked with one usable CPU")),
    ({0, 1}, BlockingIOError(errno.EAGAIN, "no process to spare")),
], ids=["one-cpu", "fork-fails"])
def test_table_without_a_child_gives_the_same_bytes(monkeypatch, capsys, two_cpus, cpus, error):
    _, want = run_cli(capsys, SPLIT_TABLE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    def no_fork():
        raise error
    monkeypatch.setattr(os, "fork", no_fork)
    code, out = run_cli(capsys, SPLIT_TABLE)
    assert code == 0
    assert out == want


def test_table_split_fork_warning_stays_quiet(monkeypatch, capsys, two_cpus):
    # Python 3.12+ warns when a process with other threads forks; the table must
    # neither fail nor print it, even with warnings made errors.
    _, want = run_cli(capsys, SPLIT_TABLE)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("this process is multi-threaded", DeprecationWarning)
        return pid
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(SPLIT_TABLE)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == want and captured.err == ""
    assert_no_child_left()


def test_table_split_out_matches_stdout(tmp_path, capsys, two_cpus):
    _, want = run_cli(capsys, SPLIT_TABLE)
    target = tmp_path / "table.json"
    code, out = run_cli(capsys, [*SPLIT_TABLE, "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_bytes() == want.encode("ascii")
    assert_no_child_left()


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
    ["verify", "polys", "--n-max", "11"],
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
    (["verify", "all", "--n-max", "11"], "--n-max must lie in [0, 10]"),
], ids=["eigen", "table", "verify"])
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
