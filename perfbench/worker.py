"""One cold CLI worker: import hydro2d.cli, make the given calls, report.

Usage (by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py '{"calls": [[...argv...]], "trace": false,
                                  "out": "<path prefix>", "stack": false}'

The import of ``hydro2d.cli`` is timed first, before anything else loads
numpy.  Each call's standard output is captured and written, after its
timing, to ``<out><i>.txt``.  The last line on standard output is a JSON
object with the import time, each call's exit code, wall time and output
size, the reference kernel's times, the peak resident memory and, when
tracing, the span totals.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
t0 = time.perf_counter()
import hydro2d.cli  # noqa: E402
setup_s = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402


def reference_s() -> float:
    """Wall time of a fixed mix of scalar numpy, vector numpy and formatting.

    The machine's speed drifts; ``run.py`` rescales times by this kernel,
    sampled before and after the calls of every worker.
    """
    import numpy as np

    x = np.linspace(0.0, 40.0, 4096)
    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        v = np.asarray(0.01 * i)
        acc += float(np.exp(-0.5 * v) * (1.0 + v) ** 2)
    for _ in range(250):
        acc += float(np.sum(np.cos(x) * np.exp(-0.1 * x)))
    json.dumps([repr(acc * k) for k in range(12000)])
    return time.perf_counter() - start


def stack_fingerprint() -> dict:
    """Versions and BLAS build of the stack this worker runs on."""
    import ctypes
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": threads, "nproc": os.cpu_count()}


tracer = None
if spec["trace"]:
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)

reference = [reference_s()]
calls = []
for i, argv in enumerate(spec["calls"]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = hydro2d.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
    data = buf.getvalue().encode("utf-8")
    with open(f"{spec['out']}{i}.txt", "wb") as fh:
        fh.write(data)
    calls.append({"code": code, "s": elapsed, "bytes": len(data)})

reference.append(reference_s())
result = {"setup_s": setup_s, "calls": calls, "reference_s": reference,
          "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
if tracer is not None:
    result["stats"] = tracer.stats
    result["counters"] = tracer.counters
if spec.get("stack"):
    result["stack"] = stack_fingerprint()
print(json.dumps(result))
