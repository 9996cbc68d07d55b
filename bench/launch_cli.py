"""Run one CLI subcommand in this fresh interpreter, optionally traced.

    python3 bench/launch_cli.py --stats-out STATS.json [--trace-out SPANS.npz] \
        <subcommand> [cli args...]

Both the timed and the traced runs of the cli-figures workload start the CLI
through this launcher, so they take the same path: import
``vortex_uca.cli`` and call ``main``.  The process times the calibration
kernel three times before ``main`` and three times after it, and at exit
writes its own peak RSS, the kernels' median and their total time to the
stats file.  With ``--trace-out`` the tracer's wrappers are installed
before ``main`` runs, and the spans plus the ``mode_gain_factors`` cache
counts are written to the given file at exit.
"""

import json
import os
import statistics
import sys
from time import perf_counter

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

# Kernel timings on each side of ``main``.  In trials on the reference VM a
# single timing after ``main`` tracked the machine's speed during the
# subcommand no better than no correction; the median of three on each side
# did.
CALIBRATION_SAMPLES = 3


def peak_rss_mb() -> float:
    """This process's own peak resident set size (VmHWM).

    ``getrusage`` is not used: Linux carries the parent's peak across
    fork and exec into ``ru_maxrss``, so a child of the harness would report
    the harness's scipy-laden peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def calibration_kernel() -> float:
    """Seconds taken by fixed work in the library's style.

    Small numpy arrays driven from Python, never touching vortex_uca: its
    time tracks only how fast the machine runs this kind of code right now.
    """
    import math

    import numpy as np

    t0 = perf_counter()
    x = np.linspace(0.1, 20.0, 32)
    acc = 0.0
    for k in range(1, 400):
        acc += float(np.abs(np.exp(1j * x * k).sum())) / k + math.sqrt(abs(math.sin(k)))
    return perf_counter() - t0


def _main(argv: list[str]) -> int:
    stats_out, argv = argv[1], argv[2:]  # --stats-out PATH
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from vortex_uca import channel, cli

    t0 = perf_counter()
    kernels = [calibration_kernel() for _ in range(CALIBRATION_SAMPLES)]
    kernel_total = perf_counter() - t0
    if trace_out is None:
        code = cli.main(argv)
    else:
        import numpy as np

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        info = channel.mode_gain_factors.cache_info()
        np.savez(trace_out, cache_hits=info.hits, cache_misses=info.misses, **tracer.arrays())
    t0 = perf_counter()
    kernels += [calibration_kernel() for _ in range(CALIBRATION_SAMPLES)]
    kernel_total += perf_counter() - t0
    stats = {"peak_rss_mb": peak_rss_mb(), "calibration_s": statistics.median(kernels),
             "calibration_total_s": kernel_total}
    with open(stats_out, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
