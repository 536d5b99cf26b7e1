"""Output checks the benchmark applies to every CLI call it makes.

Verify output must parse, name exactly the expected checks in suite order,
carry the seven report keys of the README contract (extra keys are
allowed), and exit with 1 exactly when some ``pass`` is false.

Table output must have the right row count and coordinates, and seeded
sample rows must match an oracle built on scipy: ``eval_genlaguerre`` with
the normalisation computed in ``math.lgamma`` space for position states,
and ``lpmv`` times (-1)^m, which strips the Condon-Shortley phase, for
momentum states.

Each function returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from typing import List, Sequence, Tuple

from workloads import TableCall

REPORT_KEYS = ("check_name", "grid_desc", "max_abs_err", "max_rel_err", "tolerance",
               "pass", "notes")
SAMPLE_ROWS = 12
# Relative agreement with the oracle, plus an absolute floor relative to the
# largest sampled value for points near a node of the wavefunction.
REL_TOL = 1e-9
FLOOR_TOL = 1e-12
GRID_TOL = 1e-12


def check_verify(text: str, code: object, expected: Sequence[str]) -> Tuple[List[str], int]:
    """Problems with one ``verify`` call's output, and how many checks failed."""
    try:
        reports = json.loads(text)
    except ValueError as exc:
        return [f"verify output is not JSON: {exc}"], len(expected)
    if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
        return ["verify output is not a list of report objects"], len(expected)
    problems = []
    names = tuple(r.get("check_name") for r in reports)
    if names != tuple(expected):
        problems.append(f"check names {names} differ from {tuple(expected)}")
    for r in reports:
        missing = [k for k in REPORT_KEYS if k not in r]
        if missing:
            problems.append(f"report {r.get('check_name')!r} lacks keys {missing}")
        elif not isinstance(r["pass"], bool):
            problems.append(f"report {r['check_name']!r} has a non-boolean pass")
    if problems:
        return problems, len(expected)
    failed = sum(not r["pass"] for r in reports)
    if code != (1 if failed else 0):
        problems.append(f"exit code {code!r} with {failed} failing checks")
    return problems, failed


def grid_values(call: TableCall) -> List[float]:
    """The grid ``min:max:points[:log]`` as the README defines it."""
    import numpy as np

    lo, hi = float(call.lo), float(call.hi)
    if call.scale == "log":
        return np.geomspace(lo, hi, call.points).tolist()
    return np.linspace(lo, hi, call.points).tolist()


def oracle_psi(call: TableCall, coord: float, angle: float) -> complex:
    """Wavefunction from scipy's special functions, independent of hydro2d."""
    from scipy.special import eval_genlaguerre, lpmv

    n, m = call.n, call.m
    am = abs(m)
    q0 = 1.0 / (n + 0.5)
    log_ratio = math.lgamma(n - am + 1) - math.lgamma(n + am + 1)
    phase = cmath.exp(1j * m * angle)
    if call.space == "position":
        v = 2.0 * q0 * coord
        norm = math.exp(0.5 * (3.0 * math.log(q0) + log_ratio - math.log(math.pi)))
        radial = norm * v**am * math.exp(-0.5 * v) * float(eval_genlaguerre(n - am, 2 * am, v))
        return radial * phase
    p2 = coord * coord
    q = (p2 - q0 * q0) / (p2 + q0 * q0)
    legendre = (-1) ** am * float(lpmv(am, n, q))
    amp = (math.exp(0.5 * log_ratio) / math.sqrt(2.0 * math.pi)
           * (2.0 * q0 / (p2 + q0 * q0)) ** 1.5 * legendre)
    return amp * (-1j) ** am * phase


def _rows(call: TableCall, text: str) -> List:
    """Rows of a table output; CSV rows stay unparsed until sampled."""
    keys = ["coordinate", "re", "im", "abs2"]
    if call.mesh is not None:
        keys.insert(1, "angle")
    if call.fmt == "json":
        data = json.loads(text)
        if not isinstance(data, list) or any(list(row) != keys for row in data):
            raise ValueError(f"JSON rows must be objects with keys {keys}")
        return [[row[k] for k in keys] for row in data]
    lines = text.split("\n")
    if lines[0] != ",".join(keys) or lines[-1] != "":
        raise ValueError(f"CSV needs header {','.join(keys)} and a final newline")
    return lines[1:-1]


def _parse_row(row, width: int) -> List[float]:
    if isinstance(row, str):
        row = [float(x) for x in row.split(",")]
    if len(row) != width:
        raise ValueError(f"row has {len(row)} fields, expected {width}")
    return row


def _close(got: float, want: float, floor: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + floor


def check_table(call: TableCall, text: str, code: object, sample_seed: int) -> List[str]:
    """Problems with one ``table`` call's output."""
    if code != 0:
        return [f"table exited with {code!r}"]
    try:
        rows = _rows(call, text)
    except (ValueError, TypeError, KeyError) as exc:
        return [f"table output malformed: {exc}"]
    if len(rows) != call.rows:
        return [f"{len(rows)} rows, expected {call.rows}"]
    grid = grid_values(call)
    width = call.mesh or 1
    rng = random.Random(sample_seed)
    picks = sorted(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows))))
    problems = []
    samples = []
    for r in picks:
        try:
            row = _parse_row(rows[r], 4 if call.mesh is None else 5)
        except (ValueError, TypeError) as exc:
            return [f"row {r} malformed: {exc}"]
        coord = grid[r // width]
        if call.mesh is None:
            angle = float(call.angle)
        else:
            angle = 2.0 * math.pi * (r % width) / width
            if abs(row[1] - angle) > GRID_TOL * (1.0 + angle):
                problems.append(f"row {r}: angle {row[1]!r}, expected {angle!r}")
        if abs(row[0] - coord) > GRID_TOL * (1.0 + abs(coord)):
            problems.append(f"row {r}: coordinate {row[0]!r}, expected {coord!r}")
        samples.append((r, row[-3:], oracle_psi(call, coord, angle)))
    scale = max(abs(want) for _, _, want in samples)
    for r, (re, im, abs2), want in samples:
        if not (_close(re, want.real, FLOOR_TOL * scale)
                and _close(im, want.imag, FLOOR_TOL * scale)
                and _close(abs2, abs(want) ** 2, FLOOR_TOL * scale * scale)):
            problems.append(f"row {r} of {' '.join(call.argv)}: got ({re!r}, {im!r}, "
                            f"{abs2!r}), oracle {want!r}")
    return problems
