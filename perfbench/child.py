"""Run one fracpme CLI command in this fresh interpreter and record its cost.

    python3 perfbench/child.py RESULT_JSON TRACE [fracpme argv ...]

Writes to RESULT_JSON the monotonic time at which `import fracpme.harness`
finished, the exit code, wall and CPU time of `fracpme.harness.main(argv)`,
the time of the reference computation run just before and just after it,
and the peak resident memory of this process. With TRACE=1 the span tracer
is installed first and its per-layer summary is added. With no argv it only
imports and records the environment (a set-up probe).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE_REPS = 2000


def reference_s() -> float:
    """Wall time of a fixed computation that uses no fracpme code: numpy FFTs
    and a pure Python loop, the two kinds of work the workloads do, 0.2 to
    0.3 s on a 2-vCPU Xeon VM. It slows down with the host and not with the
    program, so a command's time divided by it follows the program."""
    import numpy as np

    x = np.random.default_rng(0).random(2048)
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        np.fft.irfft(np.fft.rfft(x))
        total = 0
        for i in range(1000):
            total += i * i
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main() -> int:
    result_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    import fracpme.harness as harness

    imported_at = time.monotonic()
    if Path(harness.__file__).resolve().parents[1] != SRC:
        print(f"fracpme imported from {harness.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result: dict = {"imported_at": imported_at}
    if not argv:
        result["env"] = environment()
        result_path.write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    entry = harness.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span("harness.main", harness.main)

    before = reference_s()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = entry(argv)
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    after = reference_s()

    result.update(
        rc=rc,
        wall_s=wall,
        reference_s=(before + after) / 2,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if tracer is not None:
        result["layers"] = tracer.summary()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
