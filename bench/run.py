"""Benchmark harness for vortex_uca: one workload, one seed, one JSON result.

    python3 bench/run.py --workload {cli-figures,se-design,demux-mc} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout that holds ``src/vortex_uca``.  The harness generates
the workload's inputs from the seed (numpy/scipy, never the library), times
fresh-interpreter set-ups, each paired with a baseline interpreter, then
starts ``bench/worker.py``, which runs the program in a closed loop with one
client for ``--seconds``.  Outputs are checked against oracles that do not
use the library.  The last line of standard output is the result; the line
before it records the environment.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, the probe pass
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PAIRS = 15
SETUP_TIMEOUT_S = 60
# Each set-up sample is paired with a fresh interpreter that imports numpy,
# the library's one dependency, and nothing of the program.  A co-tenant
# that slows the machine slows both alike, so their ratio stays put while
# the set-up time alone moved by a third between two sets of runs of the
# same code.  setup_s is the median ratio times BASELINE_REF_S, the
# baseline's median time on the reference machine (below); work the program
# adds to set-up moves it as much as the measured time.
BASELINE_CODE = "import numpy; print('ready 0.0', flush=True)"
BASELINE_REF_S = 0.12
# The worker may overrun --seconds by its last op and the checks after it.
WORKER_GRACE_S = 100

# Median time of launch_cli.calibration_kernel on the reference machine
# (shared 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  End-to-end op
# times are reported at this speed: each op's measured time x
# CALIBRATION_REF_S / the kernel time next to it, timed in the process that
# ran the op.  The kernel never touches the program, so a change to the
# program moves a reported time as much as the measured one, while the
# machine running slower or faster moves neither.
CALIBRATION_REF_S = 3.0e-3
# The kernel time next to an op is the median of this many kernel samples
# around it (at most 0.1 s apart); one sample alone is noisy.
LOCAL_KERNELS = 5

# ROADMAP item 1's layer table, measured on a 2-core VM (Python 3.11.7,
# numpy 2.4.6); each traced run records it next to the probe pass.
PROBE_REFERENCE = {
    "probe.bessel_j_x3_us": 176.0,
    "probe.bessel_j_x15_us": 343.0,
    "probe.bessel_j_vec10k_ms": 2.6,
    "probe.mode_gain_closed_us": 155.0,
    "probe.mode_channel_matrix_n10_ms": 18.2,
    "probe.mode_channel_matrix_n64_ms": 704.0,
    "probe.channel_matrix_exact_n10_ms": 0.30,
    "probe.channel_matrix_exact_n64_ms": 11.8,
    "probe.spectrum_efficiency_n10_ms": 2.1,
    "probe.demultiplex_cached_us": 12.0,
    "probe.crosstalk_matrix_ms": 21.9,
}


def metric_units(key: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "vortex_uca")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "VORTEX_UCA_THREADS": os.environ.get("VORTEX_UCA_THREADS", "unset"),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _time_ready(cmd: list[str], env: dict) -> tuple[float, str]:
    """Seconds from spawning ``cmd`` to its 'ready' line, and that line."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up process failed (exit {code}): {cmd[1]}")
    return elapsed, line


def time_setup(workload: str, inputs_path: str, env: dict, baseline_first: bool):
    """(set-up seconds, baseline seconds, import seconds), timed back to back.

    Set-up is a fresh worker from spawn to ready: ``import vortex_uca`` and
    the generated inputs turned into what the ops consume.
    """
    setup = [sys.executable, WORKER, "setup", "--workload", workload, "--inputs", inputs_path]
    baseline = [sys.executable, "-c", BASELINE_CODE]
    if baseline_first:
        base_s, _ = _time_ready(baseline, env)
    setup_s, line = _time_ready(setup, env)
    if not baseline_first:
        base_s, _ = _time_ready(baseline, env)
    return setup_s, base_s, float(line.split()[1])


def run_worker(cmd: list[str], env: dict, timeout: float) -> int:
    """Run the worker in its own process group; on timeout kill the group.

    The group holds the CLI processes cli-figures starts, so none outlives
    the run.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -signal.SIGKILL


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least ten samples beyond it, or p90.

    Returns (value, percentile, samples beyond).  Below 100 ops that order
    statistic would sink under p90, toward the median, so the nearest-rank
    p90 is used instead, with fewer than ten samples beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, math.ceil(0.9 * n) - 1, 0)
    percentile = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], percentile, n - 1 - k


def check_se_samples(inputs: dict, samples: list) -> list[str]:
    """Sampled se-design outputs against the scipy oracle; one entry per failed op.

    A point whose min |J| lies within rounding of the gap threshold may be
    a gap on either side.
    """
    failures = []
    for idx, got in samples:
        op = inputs["ops"][idx]
        for tilt, a, (b, low) in zip(op["tilts"], got, workloads.se_oracle(op)):
            if a is None and b is None:
                continue
            if (a is None) != (b is None):
                if abs(low - workloads.INVERSION_TOL) <= 1e-6 * workloads.INVERSION_TOL:
                    continue
                failures.append(f"op {idx} tilt {tilt!r}: gap mismatch {a} vs oracle {b}")
                break
            if not abs(a - b) <= 1e-9 * abs(b):
                failures.append(f"op {idx} tilt {tilt!r}: SE {a!r} vs oracle {b!r}")
                break
    return failures


def op_times(phase: dict) -> tuple[list[float], list[float]]:
    """A phase's op times as measured and at the reference machine speed."""
    start, seconds, kernel = np.fromfile(phase["ops"]).reshape(-1, 3).T
    at, samples = np.array(phase["calibration_at"]), np.array(phase["calibration"])
    todo = np.isnan(kernel)
    if todo.any() and len(samples):
        half = LOCAL_KERNELS // 2
        local = np.array([np.median(samples[max(0, j - half):j + half + 1])
                          for j in range(len(samples))])
        kernel[todo] = local[np.minimum(np.searchsorted(at, start[todo]), len(samples) - 1)]
    kernel[np.isnan(kernel)] = CALIBRATION_REF_S  # an op with no kernel near it
    return seconds.tolist(), (seconds * CALIBRATION_REF_S / kernel).tolist()


def _op_metrics(lat: list[float]) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail(lat)[0],
    }


def end_to_end(setup_s: float, result: dict) -> tuple[dict, dict]:
    """(metrics with op times at the reference machine speed, op times as measured)."""
    untraced = result["untraced"]
    metrics = {"setup_s": setup_s, **_op_metrics(untraced["at_ref"]),
               "peak_rss_mb": result["peak_rss_mb"]}
    return metrics, _op_metrics(untraced["latencies"])


def per_layer(result: dict, import_s: float, failed_frac: float) -> dict:
    trace = result["trace"]
    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    values = counters.get("specfun.bessel_j.values", 0.0)
    lookups = trace["cache_hits"] + trace["cache_misses"]
    untraced, traced = result["untraced"], result["traced"]
    total_self = sum(trace["layers"].values())
    wall = sum(traced["latencies"])
    m = {
        "specfun.bessel_j.values": values,
        "specfun.bessel_j.values_large_x":
            counters.get("specfun.bessel_j.values_large_x", 0.0) / values if values else 0.0,
        "channel.mode_gain_factors.hit_ratio": trace["cache_hits"] / lookups if lookups else 0.0,
        "metrics.se_sweep.points": counters.get("metrics.se_sweep.points", 0.0),
        "metrics.se_sweep.gaps": counters.get("metrics.se_sweep.gaps", 0.0),
        "cli.csv_bytes": statistics.median(untraced.get("csv_bytes") or [0]),
        "cli.pool.busy_over_wall":
            trace["pool_busy_s"] / trace["pool_wall_s"] if trace["pool_wall_s"] else 0.0,
        "cli.import_s": import_s,
        "failed_frac": failed_frac,
        # At the reference speed, so the machine changing speed between the
        # halves does not show.
        "trace.overhead_frac":
            statistics.median(traced["at_ref"]) / statistics.median(untraced["at_ref"]) - 1,
        "trace.spans": trace["spans"],
        "trace.busy_s": trace["busy_s"],
        "trace.wall_s": wall,
    }
    for fn in calls:  # every wrapped function, called or not
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s[fn]
    sub_times = untraced.get("sub_times", {})
    for sub in workloads.CLI_SUBCOMMANDS:
        m[f"cli.{sub}_s"] = statistics.median(sub_times[sub]) if sub_times.get(sub) else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = trace["layers"][layer]
        m[f"{layer}.self_share"] = trace["layers"][layer] / total_self if total_self else 0.0
    m.update(result["probes"])
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli-figures", "se-design", "demux-mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "vortex_uca", "__init__.py")):
        print(f"error: no vortex_uca sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env_record = environment()
    inputs = workloads.generate(args.workload, args.seed)
    work = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        env = _child_env()
        # Half the set-up pairs before the timed run and half after, so
        # they span the run rather than one moment of a noisy machine.
        setups = [time_setup(args.workload, inputs_path, env, i % 2 == 1)
                  for i in range(SETUP_PAIRS // 2)]
        cmd = [sys.executable, WORKER, "run", "--workload", args.workload, "--inputs",
               inputs_path, "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", work]
        code = run_worker(cmd, env, timeout=args.seconds + WORKER_GRACE_S)
        if code != 0:
            print(f"error: worker exited with {code}", file=sys.stderr)
            return 1
        setups += [time_setup(args.workload, inputs_path, env, i % 2 == 1)
                   for i in range(len(setups), SETUP_PAIRS)]
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        for phase in ("untraced", "traced"):
            if phase in result:
                result[phase]["latencies"], result[phase]["at_ref"] = op_times(result[phase])
        if args.trace:
            os.replace(os.path.join(work, "spans.npz"),
                       os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(p["latencies"]) for p in phases)
    errors = [e for p in phases for e in p["errors"]]
    failed = sum(p["failed"] for p in phases)
    if args.workload == "se-design":
        for phase in phases:
            bad = check_se_samples(inputs, phase["samples"])
            failed += len(bad)
            errors += bad[:5]
    for line in errors[:10]:
        print(f"failure: {line}", file=sys.stderr)
    failed_frac = failed / attempted if attempted else 1.0

    setup_s = BASELINE_REF_S * statistics.median(s / b for s, b, _ in setups)
    import_s = statistics.median(i for _, _, i in setups)
    lat = result["untraced"]["latencies"]
    _, pct, beyond = tail(lat)
    record = {
        "env": env_record,
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": workloads.digest(inputs),
        "ops_untraced": len(lat),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": [s for s, _, _ in setups],
        "baseline_samples_s": [b for _, b, _ in setups],
    }
    if args.trace:
        metrics = per_layer(result, import_s, failed_frac)
        units = metric_units("per_layer")
        record["probe_reference"] = PROBE_REFERENCE
    else:
        metrics, record["measured"] = end_to_end(setup_s, result)
        record["measured"]["setup_s"] = statistics.median(s for s, _, _ in setups)
        record["calibration_s"] = statistics.median(result["untraced"]["calibration"])
        units = metric_units("end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    if attempted == 0 or not all(math.isfinite(metrics[k]) for k in units):
        print("error: no op completed or a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
