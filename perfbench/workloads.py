"""Workload definitions: which CLI calls one operation makes.

Every operation runs each of its worker specs in a fresh interpreter, so
import and the cold quadrature caches are paid on every call, as they are
for a user of the ``hydro2d`` command.

``verify-all``
    one worker running ``verify all`` with JSON output, the headline cost.
    The ``ft`` suite (Fourier oracle and ``bessel_j``) dominates it.
``verify-identities``
    one worker running the five non-``ft`` suites at ``--n-max 10``.  No
    oracle runs; closed forms, quadrature-based integrals and the
    generating-function series do the work.  This is the no-change side
    for an oracle or Bessel change.
``table-sweep``
    one operation is a round of ``table`` invocations, one worker each,
    drawn from the seed inside eight fixed strata (space, grid scale,
    format, mesh, recurrence degree, row count) plus a repeat of the
    smallest one for the determinism check.  The strata are fixed so that
    every round carries the same mix and the same 104,000 rows; the seed
    draws n, m, grid bounds, angles and mesh sizes inside them.  Pointwise closed forms
    and output formatting do all the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

SUITE_CHECKS = {
    "polys": ("gegenbauer-gf-coefficients", "gegenbauer-difference-recurrence",
              "gegenbauer-legendre-connection", "laguerre-derivative",
              "polys-determinism"),
    "position": ("position-normalization", "position-orthogonality-same-m",
                 "position-orthogonality-same-n", "radial-ode-residual",
                 "position-conjugation"),
    "momentum": ("momentum-parseval", "momentum-two-form-equality",
                 "momentum-phase-structure"),
    "levicivita": ("quadratic-form-det-identity", "gaussian-integral-identity",
                   "measure-factor-adjudication", "genfunc-beta-derivative",
                   "genfunc-coefficient-consistency"),
    "genfunc": ("laguerre-gf", "shifted-laguerre-gf", "coordinate-gf",
                "gegenbauer-gf", "new-legendre-gf",
                "gegenbauer-reindexing-identity", "gegenbauer-chain-consistency"),
    "ft": ("momentum-vs-ft-oracle", "two-oracle-agreement",
           "oracle-phase-correctness", "oracle-node-doubling"),
}
SUITE_ORDER = ("polys", "position", "momentum", "levicivita", "genfunc", "ft")
ALL_CHECKS = tuple(name for suite in SUITE_ORDER for name in SUITE_CHECKS[suite])
IDENTITY_SUITES = SUITE_ORDER[:-1]

WORKLOADS = ("verify-all", "verify-identities", "table-sweep")


@dataclass(frozen=True)
class VerifyCall:
    argv: Tuple[str, ...]
    expected: Tuple[str, ...]


def verify_calls(workload: str) -> List[VerifyCall]:
    """The calls one verify operation makes, with the check names each must report."""
    if workload == "verify-all":
        return [VerifyCall(("verify", "all", "--format", "json"), ALL_CHECKS)]
    if workload == "verify-identities":
        return [VerifyCall(("verify", suite, "--n-max", "10", "--format", "json"),
                           SUITE_CHECKS[suite])
                for suite in IDENTITY_SUITES]
    raise ValueError(f"not a verify workload: {workload}")


@dataclass(frozen=True)
class TableCall:
    space: str
    n: int
    m: int
    lo: str
    hi: str
    points: int
    scale: str
    fmt: str
    mesh: Optional[int]
    angle: str

    @property
    def rows(self) -> int:
        return self.points * (self.mesh or 1)

    @property
    def argv(self) -> Tuple[str, ...]:
        grid = f"{self.lo}:{self.hi}:{self.points}"
        if self.scale == "log":
            grid += ":log"
        out = ["table", "--space", self.space, "--n", str(self.n), "--m", str(self.m),
               "--grid", grid, "--format", self.fmt]
        if self.mesh is None:
            out += ["--angle", self.angle]
        else:
            out += ["--mesh", str(self.mesh)]
        return tuple(out)


# (space, scale, format, mesh, recurrence degree n - |m|, rows).  A quarter
# of the slots are JSON and a quarter meshed.  The cost per point grows with
# the recurrence degree, so each slot fixes it, spreading 2..18 over the
# round, and the seed draws |m| <= 20 - degree: n covers 0..20 and a round
# costs about the same whatever the seed.
TABLE_SLOTS = (
    ("position", "linear", "csv", False, 2, 35_000),
    ("momentum", "log", "csv", False, 16, 7_000),
    ("position", "log", "json", False, 10, 7_000),
    ("momentum", "linear", "csv", True, 8, 14_000),
    ("position", "linear", "csv", True, 18, 7_000),
    ("momentum", "log", "json", False, 4, 14_000),
    ("position", "log", "csv", False, 14, 10_000),
    ("momentum", "linear", "csv", False, 12, 5_000),
)
N_MAX = 20
# Index of the slot whose call is made twice per round: the cheapest one.
REPEAT_SLOT = 7
MESH_SIZES = (4, 5, 8, 10)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _draw(rng: random.Random, slot) -> TableCall:
    space, scale, fmt, meshed, degree, rows = slot
    am = rng.randint(0, N_MAX - degree)
    n = degree + am
    m = rng.choice((-am, am))
    mesh = rng.choice(MESH_SIZES) if meshed else None
    points = rows // (mesh or 1)
    if space == "position":
        hi = rng.uniform(4.0, 2.0 * (n + 1) ** 2 + 10.0)
        lo = 0.0 if scale == "linear" else rng.uniform(1e-3, 1e-1)
    else:
        hi = rng.uniform(1.0, 30.0) if scale == "linear" else rng.uniform(2.0, 60.0)
        lo = 0.0 if scale == "linear" else rng.uniform(1e-3, 5e-2)
    angle = _fmt(rng.uniform(0.0, 6.283))
    return TableCall(space, n, m, _fmt(lo), _fmt(hi), points, scale, fmt, mesh, angle)


class TableMix:
    """Seeded stream of table-sweep rounds; the same seed gives the same rounds."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def next_round(self) -> List[TableCall]:
        calls = [_draw(self._rng, slot) for slot in TABLE_SLOTS]
        return calls + [calls[REPEAT_SLOT]]
