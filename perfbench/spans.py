"""In-memory span recorder installed into a worker before it calls the CLI.

Callers bind library names at import (``from .polys import bessel_j``), so a
span around a layer has to replace the name in every module that holds it:
``hydro2d.ftoracle.bessel_j``, ``hydro2d.position.laguerre``,
``hydro2d.cli.psi_position`` and so on.  ``install`` does that for every
public function of the package, and wraps the check functions in
``hydro2d.verify.SUITES`` under the name of the check each one reports.

A span's self time is its duration minus the time its child spans cover.
Spans are folded into per-name totals as they close, so memory stays flat
however many points a table has.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List

LAYER_MODULES = ("cli", "verify", "ftoracle", "position", "momentum", "genfunc",
                 "levicivita", "polys", "quadrature")

# Position of the evaluation-point argument of the special functions, whose
# cost is counted per point.
POINT_ARG = {"polys.laguerre": 2, "polys.gegenbauer": 2, "polys.assoc_legendre": 2,
             "polys.legendre": 1, "polys.bessel_j": 1}
ORACLES = ("ftoracle.ft_hankel", "ftoracle.ft_direct_2d")
# ftoracle integrates with Gauss-Laguerre while p / (2 q0) stays at or below this.
GL_SWITCH = 0.75


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Per-name totals [calls, total_s, self_s, points] plus layer counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {
            "oracle_calls": 0, "oracle_gl_calls": 0,
            "gauss_laguerre_misses": 0, "gauss_laguerre_build_s": 0.0,
            "checks_failed": 0,
        }
        self._open: List[List[float]] = []  # child time of each open span

    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn):
        """Span around ``fn``; counts points, oracle branches and cache misses."""
        clock, open_, counters = self.clock, self._open, self.counters
        st = self._stat(name)
        arg = POINT_ARG.get(name)
        oracle = name in ORACLES
        cache_info = fn.cache_info if name == "quadrature.gauss_laguerre" else None
        panel = name == "quadrature.panel_nodes"

        def traced(*args, **kwargs):
            if arg is not None and len(args) > arg:
                st[3] += _size(args[arg])
            if oracle:
                qn, mp = args[0], args[1]
                counters["oracle_calls"] += 1
                counters["oracle_gl_calls"] += mp.p * (qn.n + 0.5) / 2.0 <= GL_SWITCH
            misses = cache_info().misses if cache_info else 0
            frame = [0.0]
            open_.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                open_.pop()
                if open_:
                    open_[-1][0] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if cache_info and cache_info().misses > misses:
                    counters["gauss_laguerre_misses"] += 1
                    counters["gauss_laguerre_build_s"] += dur
            if panel:
                st[3] += _size(result[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_check(self, fn):
        """Span named ``verify.<check-name>`` after the report the check returns."""
        def traced(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            start = self.clock()
            report = None
            try:
                report = fn(*args, **kwargs)
            finally:
                dur = self.clock() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                label = report.check_name if report is not None else fn.__name__
                st = self._stat(f"verify.{label}")
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
            self.counters["checks_failed"] += not report.passed
            return report

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Route every public hydro2d function, in every module that binds it, through ``tracer``."""
    wrapped: Dict[int, object] = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"hydro2d.{short}")
        for attr, obj in list(vars(mod).items()):
            home = getattr(obj, "__module__", None) or ""
            if (attr.startswith(("_", "check_")) or isinstance(obj, type)
                    or not callable(obj) or not home.startswith("hydro2d.")):
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(f"{home.rsplit('.', 1)[1]}.{obj.__name__}", obj)
            setattr(mod, attr, wrapped[id(obj)])
    verify = importlib.import_module("hydro2d.verify")
    for suite, fns in verify.SUITES.items():
        verify.SUITES[suite] = [tracer.wrap_check(fn) for fn in fns]
