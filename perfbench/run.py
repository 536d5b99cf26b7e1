"""hydro2d benchmark: cold CLI calls in a closed loop with one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 38 --trace 0

Each operation runs its ``hydro2d.cli.main`` calls in fresh worker
interpreters, started one at a time, with ``src`` on the path.  Bare workers
that only import ``hydro2d.cli`` run before the first operation and after
each one, to sample set-up.  Operations start until the next one would end
past ``--seconds``; there are always at least two.  Every call's output is
checked (see ``checks.py``) and identical calls must give identical bytes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` operations alternate between
untraced and traced workers and the metrics are the per-layer ones, taken
from the traced operations.  Earlier lines stamp the stack and, untraced,
give the raw times.  See ``README.md`` for what each metric measures, why
each workload exists and why times are rescaled by a reference kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Bare import workers run before the first operation and after each one, so
# that set-up is sampled across the whole run.
FIRST_PROBES = 3
PROBES_PER_OP = 2
MIN_OPS = 2
WORKER_TIMEOUT_S = 60.0
# Times are rescaled to the speed at which the reference kernel in
# worker.py takes this long; see README.md, "Speed drift".
REFERENCE_S = 0.05


class SetupError(RuntimeError):
    """The program cannot be started here; the run prints no result."""


@dataclass
class Op:
    """One operation: its timings, resource use and what the checks found."""

    call_s: float = 0.0
    wall_s: float = 0.0  # with the probes after it; predicts the next one
    rss_mb: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    bytes_out: int = 0
    stats: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def absorb(self, res: dict) -> None:
        """Add one worker's timings and span totals."""
        self.setup_s.append(res["setup_s"])
        self.reference_s += res["reference_s"]
        self.call_s += sum(c["s"] for c in res["calls"])
        self.bytes_out += sum(c["bytes"] for c in res["calls"])
        self.rss_mb = max(self.rss_mb, res["rss_kb"] / 1024.0)
        for name, vals in res.get("stats", {}).items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, v in res.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + v


class Runner:
    """Starts workers one at a time and hands back their outputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        self._seq = 0

    def run(self, calls, trace: bool = False, stack: bool = False):
        """Run one worker; returns (result, outputs) or (None, [reason])."""
        self._seq += 1
        prefix = self.workdir / f"w{self._seq}_"
        spec = {"calls": [list(c) for c in calls], "trace": trace,
                "out": str(prefix), "stack": stack}
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, [f"worker timed out after {WORKER_TIMEOUT_S} s"]
        lines = proc.stdout.strip().splitlines() or [""]
        try:
            res = json.loads(lines[-1]) if proc.returncode == 0 else None
        except ValueError:
            res = None
        if res is None:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result line"]
            return None, [f"worker exited with {proc.returncode}: {tail[0]}"]
        outputs = []
        for i in range(len(calls)):
            path = Path(f"{prefix}{i}.txt")
            outputs.append(path.read_bytes())
            path.unlink()
        return res, outputs


class VerifyWorkload:
    """One worker per operation; a check is the unit of ``attempted``."""

    def __init__(self, name: str):
        self.calls = workloads.verify_calls(name)
        self.digests: Optional[List[str]] = None

    def run_op(self, runner: Runner, trace: bool) -> Op:
        op = Op()
        op.attempted = sum(len(c.expected) for c in self.calls)
        res, outputs = runner.run([c.argv for c in self.calls], trace=trace)
        if res is None:
            op.failed = op.attempted
            op.problems = outputs
            return op
        op.absorb(res)
        digests = [hashlib.sha256(out).hexdigest() for out in outputs]
        if self.digests is None:
            self.digests = digests
        for call, out, info, digest, first in zip(self.calls, outputs, res["calls"],
                                                  digests, self.digests):
            problems, failed = checks.check_verify(out.decode("utf-8"), info["code"],
                                                   call.expected)
            if digest != first:
                problems.append(f"{' '.join(call.argv)}: output differs from the first run")
                failed = len(call.expected)
            op.failed += failed
            op.problems += problems
        return op


class TableWorkload:
    """A round of seeded table calls per operation, one worker each."""

    def __init__(self, seed: int):
        self.mix = workloads.TableMix(seed)
        self.seed = seed
        self.calls_made = 0

    def run_op(self, runner: Runner, trace: bool) -> Op:
        op = Op()
        digests: Dict[tuple, str] = {}
        for call in self.mix.next_round():
            self.calls_made += 1
            op.attempted += 1
            res, outputs = runner.run([call.argv], trace=trace)
            if res is None:
                op.failed += 1
                op.problems += outputs
                continue
            op.absorb(res)
            out = outputs[0]
            problems = checks.check_table(call, out.decode("utf-8"), res["calls"][0]["code"],
                                          sample_seed=self.seed * 1_000_003 + self.calls_made)
            digest = hashlib.sha256(out).hexdigest()
            if digests.setdefault(call.argv, digest) != digest:
                problems.append(f"{' '.join(call.argv)}: output differs from the first run")
            if problems:
                op.failed += 1
                op.problems += problems
        return op


def _per_layer(op: Op) -> Dict[str, dict]:
    """Per-layer metrics of one traced operation, as {name: metric}."""
    stats, ctr = op.stats, op.counters
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = _metric(value, unit)

    def get(name: str, i: int) -> float:
        return stats.get(name, [0, 0.0, 0.0, 0])[i]

    def per(name: str, i: int, scale: float, by: int) -> float:
        d = get(name, by)
        return get(name, i) / d * scale if d else 0.0

    def module_self(mod: str) -> float:
        return sum(v[2] for k, v in stats.items() if k.startswith(mod + "."))

    for fn in ("bessel_j", "laguerre", "assoc_legendre", "gegenbauer"):
        name = f"polys.{fn}"
        put(f"{name}.calls", get(name, 0), "count")
        put(f"{name}.points", get(name, 3), "count")
        put(f"{name}.ns_per_point", per(name, 2, 1e9, 3), "ns")
    put("polys.bessel_j.self_s", get("polys.bessel_j", 2), "s")
    for fn in ("ft_hankel", "ft_direct_2d"):
        name = f"ftoracle.{fn}"
        put(f"{name}.calls", get(name, 0), "count")
        put(f"{name}.ms_per_call", per(name, 1, 1e3, 0), "ms")
    put("ftoracle.self_s", module_self("ftoracle"), "s")
    oracle_calls = ctr.get("oracle_calls", 0)
    put("ftoracle.gl_branch_frac",
        ctr.get("oracle_gl_calls", 0) / oracle_calls if oracle_calls else 0.0, "ratio")
    for name in ("position.psi_position", "momentum.psi_momentum"):
        put(f"{name}.calls", get(name, 0), "count")
        put(f"{name}.us_per_call", per(name, 1, 1e6, 0), "us")
    put("momentum.psi_momentum_gegenbauer.us_per_call",
        per("momentum.psi_momentum_gegenbauer", 1, 1e6, 0), "us")
    put("position.norm_squared.calls", get("position.norm_squared", 0), "count")
    put("position.overlap.calls", get("position.overlap", 0), "count")
    for mod in ("position", "momentum", "genfunc", "levicivita", "cli"):
        put(f"{mod}.self_s", module_self(mod), "s")
    put("quadrature.gauss_laguerre.calls", get("quadrature.gauss_laguerre", 0), "count")
    put("quadrature.gauss_laguerre.misses", ctr.get("gauss_laguerre_misses", 0), "count")
    put("quadrature.gauss_laguerre.build_s", ctr.get("gauss_laguerre_build_s", 0.0), "s")
    put("quadrature.panel_nodes.points", get("quadrature.panel_nodes", 3), "count")
    for check in workloads.ALL_CHECKS:
        put(f"verify.{check}.s", get(f"verify.{check}", 1), "s")
    put("verify.checks_failed", ctr.get("checks_failed", 0), "count")
    put("cli.bytes_out", op.bytes_out, "B")
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    runner = Runner(workdir)
    setup_s: List[float] = []
    reference_s: List[float] = []

    def probe(stack: bool = False) -> dict:
        res, why = runner.run([], stack=stack)
        if res is None:
            raise SetupError(f"cannot import hydro2d.cli: {why[0]}")
        setup_s.append(res["setup_s"])
        reference_s.extend(res["reference_s"])
        return res

    stack = dict(probe(stack=True)["stack"], seed=seed, workload=workload)
    print("stack " + json.dumps(stack, sort_keys=True))
    for _ in range(FIRST_PROBES - 1):
        probe()

    if workload == "table-sweep":
        load = TableWorkload(seed)
    else:
        load = VerifyWorkload(workload)
    ops: List[Op] = []
    traced: List[bool] = []
    start = time.perf_counter()
    while True:
        this_traced = trace and len(ops) % 2 == 1
        t0 = time.perf_counter()
        op = load.run_op(runner, this_traced)
        for _ in range(PROBES_PER_OP):
            probe()
        op.wall_s = time.perf_counter() - t0
        ops.append(op)
        traced.append(this_traced)
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + median(o.wall_s for o in ops) > seconds:
            break

    problems = [p for op in ops for p in op.problems]
    for p in problems[:20]:
        print("problem: " + p, file=sys.stderr)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    # Checks that report pass=false are the program's verdict, not a wrong
    # output; the run is incorrect only when an output breaks its contract.
    correct = not problems

    if not trace:
        raw = {"setup_s": median(setup_s + [s for op in ops for s in op.setup_s]),
               "call_s": median(op.call_s for op in ops),
               "reference_s": fmean(reference_s + [s for op in ops for s in op.reference_s])}
        print("raw " + json.dumps(raw))
        scale = REFERENCE_S / raw["reference_s"]
        metrics = {
            "setup_s": _metric(raw["setup_s"] * scale, "s"),
            "call_s": _metric(raw["call_s"] * scale, "s"),
            "peak_rss_mb": _metric(median(op.rss_mb for op in ops), "MB"),
        }
    else:
        plain = [op for op, t in zip(ops, traced) if not t]
        with_trace = [op for op, t in zip(ops, traced) if t]
        layers = [_per_layer(op) for op in with_trace]
        metrics = {name: _metric(median(d[name]["value"] for d in layers), m["unit"])
                   for name, m in layers[0].items()}
        metrics["trace_overhead_frac"] = _metric(
            median(op.call_s for op in with_trace) / median(op.call_s for op in plain) - 1.0,
            "ratio")
        metrics["fail_frac"] = _metric(failed / attempted, "ratio")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hydro2d" / "cli.py").is_file():
        print(f"no hydro2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / ".work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
