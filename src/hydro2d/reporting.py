"""Report and grid types shared by the verification suites and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np
from numpy.typing import ArrayLike


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    Checks build it with ``from_errors``, the one reduction of their
    errors to the two maxima and the verdict; ``notes`` carries measured
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
    def from_errors(cls, check_name: str, grid_desc: str,
                    pairs: Iterable[Tuple[ArrayLike, ArrayLike]], tolerance: float,
                    notes: str = "", relative: bool = False) -> "VerificationReport":
        """The report of (error, scale) pairs, consumed lazily.

        Error and scale may be scalars or arrays that broadcast together.
        max_abs_err is the largest error and max_rel_err the largest
        error / scale; a point whose scale is 0 counts towards the absolute
        maximum only.  Both maxima propagate NaN.  The check passes when the
        relative (``relative``) or else the absolute maximum is within
        ``tolerance``, neither maximum is NaN and at least one point was
        compared.
        """
        worst_abs = worst_rel = 0.0
        compared = 0
        for err, scale in pairs:
            err, scale = np.broadcast_arrays(np.asarray(err, dtype=float), scale)
            compared += err.size
            worst_abs = float(np.max(err, initial=worst_abs))
            ok = scale != 0.0
            worst_rel = float(np.max(err[ok] / scale[ok], initial=worst_rel))
        judged = worst_rel if relative else worst_abs
        passed = bool(compared > 0 and judged <= tolerance
                      and not math.isnan(worst_abs) and not math.isnan(worst_rel))
        return cls(check_name, grid_desc, worst_abs, worst_rel, tolerance, passed, notes)

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
        if len(parts) not in (3, 4):
            raise ValueError("grid must look like min:max:points or min:max:points:log")
        if parts[3:] not in ([], ["log"]):
            raise ValueError("grid suffix must be 'log' when present")
        fields = {"scale": "log" if parts[3:] else "linear"}
        for name, value, kind, noun in zip(("min", "max", "points"), parts, (float, float, int),
                                           ("a number", "a number", "an integer")):
            try:
                fields[name] = kind(value)
            except ValueError:
                raise ValueError(f"grid {name} must be {noun}, got {value!r}") from None
        return cls(**fields)

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.points)
        return np.linspace(self.min, self.max, self.points)
