"""Command-line front end.

Three subcommands:

    eigen   --n-max K                      spectrum table (n, q0, energy)
    table   --n N --m M --grid a:b:k[:log] wavefunction slice at a fixed angle
    verify  SUITE                          run named verification suites

Exit codes are a stable contract: 0 means success (all checks passed for
``verify``), 1 means a verification failure, 2 means a usage error.  Output
is CSV (header row, LF endings, round-trip float formatting via repr) or
JSON; identical invocations produce byte-identical bytes unless ``--stamp``
is passed to ``verify``.

``table`` spends its time in ``float.__repr__``.  A table of at least
``_SPLIT_ROWS`` (4,000) rows is formatted in two halves: on Linux, when the
process may run on two or more CPUs, a forked child formats the second half
while this process formats the first.  Below that size the fork (about 3 ms)
costs more than it saves.  The bytes do not depend on the split.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np

from .momentum import MomentumPoint, psi_momentum
from .position import PolarPoint, QuantumNumbers, make_bound_state, psi_position
from .reporting import GridSpec
from .verify import SUITE_ORDER, run_suite

# Rows from which ``table`` formats its second half in a forked child.  On a 2-vCPU
# VM a fork, pipe and reaping took 2.2-3.3 ms with numpy loaded, as long as formatting
# 2,000 rows; the split won in 37 of 41 timings at 4,000 rows and about half at 3,000.
_SPLIT_ROWS = 4000


def _emit(text: str, out: Optional[str], parser: argparse.ArgumentParser) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _csv_field(value: object) -> str:
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_field(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _fill(block: np.ndarray, row: str, sep: str) -> str:
    """The rows of ``block`` through the %-template ``row``, joined by ``sep``."""
    return sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def _format_rows(stacked: np.ndarray, row: str, sep: str) -> str:
    """``_fill`` of every row of ``stacked``, with the second half in a forked child.

    Below ``_SPLIT_ROWS`` rows, or without two usable CPUs (``os.sched_getaffinity``
    exists only on Linux), this is ``_fill(stacked, row, sep)``.  Otherwise the child
    formats rows [half:] and sends the ASCII text through a pipe while this process
    formats rows [:half]; the child leaves only through ``os._exit``, so it never
    returns into the caller or flushes inherited stdio.  It is reaped in every case,
    and if it fails, or the fork does, this process formats its half too.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if len(stacked) < _SPLIT_ROWS or cpus < 2:
        return _fill(stacked, row, sep)
    half = len(stacked) // 2
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while other threads (numpy's BLAS pool) live;
            # the child only formats Python floats and never calls into BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_end)
        os.close(write_end)
        return _fill(stacked, row, sep)
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            data = memoryview(_fill(stacked[half:], row, sep).encode("ascii"))
            while data:
                data = data[os.write(write_end, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        first = _fill(stacked[:half], row, sep)
        chunks = []
        while chunk := os.read(read_end, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(read_end)
        status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status) == 0:
        second = b"".join(chunks).decode("ascii")
    else:
        second = _fill(stacked[half:], row, sep)
    return first + sep + second


def cmd_eigen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n_max < 0 or args.n_max > 50:
        parser.error("--n-max must lie in [0, 50]")
    states = [make_bound_state(QuantumNumbers(n, 0)) for n in range(args.n_max + 1)]
    if args.format == "csv":
        text = _csv(("n", "q0", "energy"),
                    ((st.qn.n, st.q0, st.energy) for st in states))
    else:
        text = _json([{"n": st.qn.n, "q0": st.q0, "energy": st.energy}
                      for st in states])
    _emit(text, args.out, parser)
    return 0


def cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        grid = GridSpec.parse(args.grid)
        qn = QuantumNumbers(args.n, args.m)
    except ValueError as exc:
        parser.error(str(exc))
    if args.mesh is not None and args.mesh < 2:
        parser.error("--mesh needs at least 2 angles")
    if args.mesh is None:
        angles = [args.angle]
    else:
        angles = [2.0 * math.pi * k / args.mesh for k in range(args.mesh)]

    coords, phis = np.meshgrid(grid.values(), angles, indexing="ij")
    try:
        if args.space == "position":
            vals = psi_position(qn, PolarPoint(coords, phis))
        else:
            vals = psi_momentum(qn, MomentumPoint(coords, phis))
    except ValueError as exc:
        parser.error(str(exc))
    columns = [coords, vals.real, vals.imag, np.abs(vals) ** 2]
    header = ["coordinate", "re", "im", "abs2"]
    if args.mesh is not None:
        columns.insert(1, phis)
        header.insert(1, "angle")
    stacked = np.column_stack([col.ravel() for col in columns])
    finite = np.isfinite(stacked).all(axis=0)
    if not finite.all():
        parser.error(f"non-finite {header[finite.argmin()]} in the table")
    # One %-template per row: %r is float.__repr__, as in _csv and json.dumps.
    if args.format == "csv":
        row = ",".join(["%r"] * len(header)) + "\n"
        text = ",".join(header) + "\n" + _format_rows(stacked, row, "")
    else:
        row = "  {\n" + ",\n".join(f'    "{h}": %r' for h in header) + "\n  }"
        text = "[\n" + _format_rows(stacked, row, ",\n") + "\n]\n"
    _emit(text, args.out, parser)
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n_max is not None and not 0 <= args.n_max <= 10:
        parser.error("--n-max must lie in [0, 10]")
    if args.tol is not None and not (args.tol > 0.0 and math.isfinite(args.tol)):
        parser.error("--tol must be a positive finite number")
    reports = run_suite(args.suite, args.n_max, args.tol)
    dicts = [r.to_dict() for r in reports]
    if args.stamp:
        stamp = datetime.now(timezone.utc).isoformat()
        for d in dicts:
            d["generated_at"] = stamp
    if args.format == "csv":
        keys = list(dicts[0].keys())
        text = _csv(keys, ([d[k] for k in keys] for d in dicts))
    else:
        text = _json(dicts)
    _emit(text, args.out, parser)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydro2d",
        description="Bound states of the two-dimensional hydrogen atom: "
                    "spectrum, wavefunction tables, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    eigen = sub.add_parser("eigen", help="emit the bound-state spectrum")
    eigen.add_argument("--n-max", type=int, required=True,
                       help="largest principal quantum number (0..50)")
    eigen.add_argument("--format", choices=("csv", "json"), default="csv")
    eigen.add_argument("--out", default=None, help="write to file instead of stdout")
    eigen.set_defaults(func=functools.partial(cmd_eigen, parser=eigen))

    table = sub.add_parser("table", help="tabulate a wavefunction slice")
    table.add_argument("--space", choices=("position", "momentum"),
                       default="position")
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--m", type=int, required=True)
    table.add_argument("--grid", required=True, metavar="MIN:MAX:POINTS[:log]",
                       help="radial grid as min:max:points, optionally :log")
    table.add_argument("--angle", type=float, default=0.0,
                       help="fixed azimuth of the slice (radians)")
    table.add_argument("--mesh", type=int, default=None, metavar="K",
                       help="emit the outer product with K equally spaced "
                            "azimuths instead of a single-angle slice")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", default=None)
    table.set_defaults(func=functools.partial(cmd_table, parser=table))

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=SUITE_ORDER + ("all",))
    verify.add_argument("--n-max", type=int, default=None,
                        help="cap quantum numbers (default: per-check caps)")
    verify.add_argument("--tol", type=float, default=None,
                        help="override every tolerance in the suite")
    verify.add_argument("--format", choices=("csv", "json"), default="json")
    verify.add_argument("--out", default=None)
    verify.add_argument("--stamp", action="store_true",
                        help="add a UTC timestamp to each report")
    verify.set_defaults(func=functools.partial(cmd_verify, parser=verify))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
