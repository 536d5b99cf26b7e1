"""Report and grid types shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    ``passed`` reflects whichever error the check is about (absolute or
    relative) compared against ``tolerance``; ``notes`` carries measured
    constants and convention adjudications that a reader of the report
    should see.
    """

    check_name: str
    grid_desc: str
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool
    notes: str = ""

    @classmethod
    def from_abs(cls, check_name: str, grid_desc: str, max_abs_err: float,
                 max_rel_err: float, tolerance: float, notes: str = ""):
        return cls(check_name, grid_desc, float(max_abs_err), float(max_rel_err),
                   tolerance, bool(max_abs_err <= tolerance), notes)

    @classmethod
    def from_rel(cls, check_name: str, grid_desc: str, max_abs_err: float,
                 max_rel_err: float, tolerance: float, notes: str = ""):
        return cls(check_name, grid_desc, float(max_abs_err), float(max_rel_err),
                   tolerance, bool(max_rel_err <= tolerance), notes)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "grid_desc": self.grid_desc,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class GridSpec:
    """1-d evaluation grid, parsed from ``min:max:points`` or ``min:max:points:log``."""

    min: float
    max: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        for name, bound in (("min", self.min), ("max", self.max)):
            if not np.isfinite(bound):
                raise ValueError(f"grid {name} must be finite, got {bound!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError("grid scale must be 'linear' or 'log'")
        if not self.min < self.max:
            raise ValueError("grid needs min < max")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")
        if self.scale == "log" and self.min <= 0.0:
            raise ValueError("log grid needs min > 0")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) == 3:
            lo, hi, pts = parts
            scale = "linear"
        elif len(parts) == 4:
            lo, hi, pts, scale = parts
            if scale != "log":
                raise ValueError("grid suffix must be 'log' when present")
        else:
            raise ValueError("grid must look like min:max:points or min:max:points:log")
        return cls(min=float(lo), max=float(hi), points=int(pts), scale=scale)

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.points)
        return np.linspace(self.min, self.max, self.points)

    def describe(self) -> str:
        return f"{self.scale} grid [{self.min!r}, {self.max!r}] x {self.points}"
