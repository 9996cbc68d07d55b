"""The process that runs the program for one benchmark run.

    python3 bench/worker.py setup --workload W --inputs INPUTS.json
    python3 bench/worker.py run --workload W --inputs INPUTS.json --seconds S --trace 0|1 --out DIR

``setup`` imports ``vortex_uca``, turns the generated plain-number inputs
into what the ops consume, prints ``ready <import seconds>`` and exits; the
harness times it from spawn to that line.  ``run`` does the same and then
runs the workload's ops back to back (a closed loop with one client) until
the deadline, writing ``DIR/result.json``.  With ``--trace 1`` the time is
split: an untraced half, the probe pass, then a traced half.

scipy is never imported here: peak RSS must be the program's own.
The CLI processes of cli-figures are started through ``launch_cli.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from array import array
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launch_cli.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
sys.path.insert(1, HERE)

from launch_cli import calibration_kernel, peak_rss_mb  # noqa: E402

# Every SAMPLE_EVERY-th se-design op is checked against the scipy oracle.
SAMPLE_EVERY = 3
ROUND_TRIP_TOL = 1e-9
CLI_TIMEOUT_S = 60
# After an op, at most this often, the process that ran it times the
# calibration kernel; the harness corrects each op's time by the kernel
# times around it.  The machine's speed changes within seconds, so the
# samples must be close together.
CALIBRATE_EVERY_S = 0.1


class Recorder:
    """One phase's op latencies, failures and workload-specific extras.

    Each op is recorded as (start, seconds, kernel seconds), the last NaN
    unless the op timed the calibration kernel itself (cli-figures); the
    harness then takes it from the kernel samples timed around the op.  Ops
    go to a file in fixed-size chunks, so the worker's memory, and with it
    peak RSS, does not grow with the number of ops a faster program
    completes.
    """

    CHUNK = 4096

    def __init__(self, work_dir: str, tracer=None):
        self.work_dir = work_dir
        self.tracer = tracer
        self.path = os.path.join(work_dir, f"ops-{int(tracer is not None)}.f64")
        self._file = open(self.path, "wb")
        self._chunk = array("d")
        self.calibration = array("d")
        self.calibration_at = array("d")
        self._next_calibration = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict = {}

    def unobserved(self):
        """A block whose library calls are checks, not ops: the tracer skips them."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def latency(self, start: float, seconds: float, kernel: float = math.nan) -> None:
        self._chunk.extend((start, seconds, kernel))
        if len(self._chunk) >= self.CHUNK:
            self._chunk.tofile(self._file)
            del self._chunk[:]

    def calibrate_if_due(self) -> None:
        """Time the calibration kernel here, between ops, if one is due."""
        if perf_counter() >= self._next_calibration:
            self.calibration_at.append(perf_counter())
            self.calibration.append(calibration_kernel())
            self._next_calibration = perf_counter() + CALIBRATE_EVERY_S

    def close(self) -> dict:
        self._chunk.tofile(self._file)
        self._file.close()
        return {"ops": self.path, "calibration": self.calibration.tolist(),
                "calibration_at": self.calibration_at.tolist(), "failed": self.failed, "errors": self.errors, **self.extra}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def materialize(workload: str, inputs: dict):
    """Turn plain-number inputs into the values the ops consume."""
    import numpy as np

    if workload == "se-design":
        return {"ops": inputs["ops"], "cursor": 0}
    if workload == "demux-mc":
        qpsk = np.exp(1j * (0.25 * math.pi + 0.5 * math.pi * np.arange(4)))
        geoms = [dict(g, codes=np.array(g["codes"])) for g in inputs["geometries"]]
        return {"geoms": geoms, "qpsk": qpsk, "cursor": 0, "current": None}
    return {"subcommands": inputs["subcommands"], "cursor": 0}


# --- se-design ---------------------------------------------------------------

def se_op(vu, op):
    g = vu.LinkGeometry(
        n_tx=op["n"], n_rx=op["n"], radius_tx=op["radius_tx"], radius_rx=op["radius_rx"],
        center_distance=op["distance"], bearing_theta=op["bearing"], tilt_phi=op["tilts"][0],
        offset_alpha_tx=op["alpha_tx"], offset_alpha_rx=op["alpha_rx"],
        wavelength=op["wavelength"],
    )
    budget = vu.LinkBudget.uniform(g, 1.0, op["noise_variance"], op["noise_seed"])
    return vu.se_sweep(g, "phi", op["tilts"], budget)


def run_se_design(vu, st, deadline, rec):
    ops = st["ops"]
    samples = rec.extra.setdefault("samples", [])
    while perf_counter() < deadline:
        i = st["cursor"]
        st["cursor"] += 1
        t0 = perf_counter()
        try:
            points = se_op(vu, ops[i % len(ops)])
        except Exception as exc:  # any raise is a failed op, gaps are outputs
            rec.latency(t0, perf_counter() - t0)
            rec.fail(f"op {i}: {exc!r}")
            continue
        rec.latency(t0, perf_counter() - t0)
        rec.calibrate_if_due()
        if i % SAMPLE_EVERY == 0:
            samples.append([i % len(ops), [p.spectrum_efficiency for p in points]])


# --- demux-mc ----------------------------------------------------------------

def _new_geometry(vu, spec):
    g = vu.LinkGeometry(
        n_tx=spec["n"], n_rx=spec["n"], radius_tx=spec["radius"], radius_rx=spec["radius"],
        center_distance=spec["distance"], offset_alpha_tx=spec["alpha_tx"],
        offset_alpha_rx=spec["alpha_rx"],
        wavelength=spec["wavelength"],
    )
    noise = vu.NoiseModel.uniform(spec["noise_variance"], spec["n"], spec["noise_seed"])
    return g, vu.mode_index_set(g), vu.channel_matrix(g, "exact"), noise


def _round_trip_error(vu, g, modes, symbols_row) -> float:
    import numpy as np

    symbols = vu.ModeSymbolVector(symbols_row, modes)
    rx = vu.propagate_mode_model(symbols, vu.mode_channel_matrix(g, "closed"))
    return float(np.max(np.abs(vu.demultiplex(rx, g).estimated_symbols - symbols_row)))


def run_demux_mc(vu, st, deadline, rec):
    import numpy as np

    from workloads import DEMUX_TRIALS_PER_GEOMETRY

    geoms, qpsk = st["geoms"], st["qpsk"]
    while perf_counter() < deadline:
        gi, trial = divmod(st["cursor"], DEMUX_TRIALS_PER_GEOMETRY)
        st["cursor"] += 1
        spec = geoms[gi % len(geoms)]
        t0 = perf_counter()
        try:
            if trial == 0:
                st["current"] = None
                st["current"] = _new_geometry(vu, spec)
            g, modes, channel, noise = st["current"]
            row = qpsk[spec["codes"][trial % len(spec["codes"])]]
            symbols = vu.ModeSymbolVector(row, modes)
            rx = vu.propagate(vu.synthesize_transmit(symbols, g), channel, noise, trial=trial)
            estimates = vu.demultiplex(rx, g).estimated_symbols
        except Exception as exc:
            rec.latency(t0, perf_counter() - t0)
            rec.fail(f"geometry {gi} trial {trial}: {exc!r}")
            continue
        rec.latency(t0, perf_counter() - t0)
        rec.calibrate_if_due()
        if not np.all(np.isfinite(estimates)):
            rec.fail(f"geometry {gi} trial {trial}: non-finite estimate")
        if trial == 0:
            try:
                with rec.unobserved():
                    err = _round_trip_error(vu, g, modes, row)
            except Exception as exc:
                err, detail = math.inf, repr(exc)
            else:
                detail = f"round trip error {err:.3e}"
            if not err <= ROUND_TRIP_TOL:
                rec.fail(f"geometry {gi}: {detail}")
            rec.extra["round_trips"] = rec.extra.get("round_trips", 0) + 1


# --- cli-figures -------------------------------------------------------------

def run_cli_figures(vu, st, deadline, rec):
    from workloads import compare_csv

    work = rec.work_dir
    references = {}
    for sub in st["subcommands"]:
        with open(os.path.join(REFERENCE_DIR, sub.replace("-", "_") + ".csv")) as fh:
            references[sub] = fh.read()
    sub_times = rec.extra.setdefault("sub_times", {sub: [] for sub in st["subcommands"]})
    csv_bytes = rec.extra.setdefault("csv_bytes", [])
    while perf_counter() < deadline:
        i = st["cursor"]
        st["cursor"] += 1
        problems, walls = [], {}
        t0 = perf_counter()
        for sub in st["subcommands"]:
            cmd = [sys.executable, LAUNCHER, "--stats-out", os.path.join(work, f"stats-{sub}.json")]
            if rec.tracer is not None:
                trace_path = os.path.join(work, f"spans-{i}-{sub}.npz")
                rec.extra.setdefault("span_files", []).append(trace_path)
                cmd += ["--trace-out", trace_path]
            cmd += [sub, "--out", os.path.join(work, f"{sub}.csv")]
            s0 = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"{sub}: timed out")
                continue
            finally:
                walls[sub] = perf_counter() - s0
            if proc.returncode != 0 or "Traceback" in proc.stderr:
                problems.append(f"{sub}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        # A subcommand's time excludes the kernel its process timed; the
        # figure set at the reference speed sums each subcommand's time over
        # its own kernel median, which gives the set's effective kernel time.
        seconds = over_kernel = 0.0
        total = 0
        for sub, wall in walls.items():
            path = os.path.join(work, f"{sub}.csv")
            try:
                with open(os.path.join(work, f"stats-{sub}.json")) as fh:
                    stats = json.load(fh)
                with open(path) as fh:
                    text = fh.read()
            except OSError as exc:
                problems.append(f"{sub}: {exc}")
                seconds += wall
                over_kernel = math.nan
                continue
            own = wall - stats["calibration_total_s"]
            sub_times[sub].append(own)
            seconds += own
            over_kernel += own / stats["calibration_s"]
            rec.extra["peak_rss_mb"] = max(rec.extra.get("peak_rss_mb", 0.0), stats["peak_rss_mb"])
            rec.calibration_at.append(perf_counter())
            rec.calibration.append(stats["calibration_s"])
            total += len(text.encode())
            diff = compare_csv(text, references[sub])
            if diff:
                problems.append(f"{sub}: {diff}")
            os.remove(path)
            os.remove(os.path.join(work, f"stats-{sub}.json"))
        rec.latency(t0, seconds, seconds / over_kernel if over_kernel else math.nan)
        csv_bytes.append(total)
        if problems:
            rec.fail(f"figure set {i}: " + "; ".join(problems))


RUNNERS = {"se-design": run_se_design, "demux-mc": run_demux_mc, "cli-figures": run_cli_figures}


# --- probe pass --------------------------------------------------------------

def run_probes(vu) -> dict[str, float]:
    """Best-of-k timings of the layer table in ROADMAP item 1, at CLI defaults."""
    import numpy as np

    def best(fn, repeat, number=1):
        times = []
        for _ in range(repeat):
            t0 = perf_counter()
            for _ in range(number):
                fn()
            times.append((perf_counter() - t0) / number)
        return min(times)

    g10 = vu.LinkGeometry(n_tx=10, n_rx=10, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    g64 = vu.LinkGeometry(n_tx=64, n_rx=64, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    vec = np.linspace(0.0, 20.0, 10_000)
    modes10 = vu.mode_index_set(g10)
    symbols = vu.ModeSymbolVector(np.exp(0.5j * np.arange(len(modes10))), modes10)
    rx = vu.propagate_mode_model(symbols, vu.mode_channel_matrix(g10))
    budget = vu.LinkBudget.uniform(g10, 1.0, 0.01, 1)
    return {
        "probe.bessel_j_x3_us": 1e6 * best(lambda: vu.bessel_j(2, 3.0), 5, 50),
        "probe.bessel_j_x15_us": 1e6 * best(lambda: vu.bessel_j(2, 15.0), 5, 50),
        "probe.bessel_j_vec10k_ms": 1e3 * best(lambda: vu.bessel_j(2, vec), 5),
        "probe.mode_gain_closed_us": 1e6 * best(lambda: vu.mode_gain_closed(2, 3, g10), 5, 50),
        "probe.mode_channel_matrix_n10_ms": 1e3 * best(lambda: vu.mode_channel_matrix(g10), 3),
        "probe.mode_channel_matrix_n64_ms": 1e3 * best(lambda: vu.mode_channel_matrix(g64), 2),
        "probe.channel_matrix_exact_n10_ms": 1e3 * best(lambda: vu.channel_matrix(g10), 5),
        "probe.channel_matrix_exact_n64_ms": 1e3 * best(lambda: vu.channel_matrix(g64), 3),
        "probe.spectrum_efficiency_n10_ms": 1e3 * best(
            lambda: vu.spectrum_efficiency(g10, budget), 5),
        "probe.demultiplex_cached_us": 1e6 * best(lambda: vu.demultiplex(rx, g10), 5, 200),
        "probe.crosstalk_matrix_ms": 1e3 * best(lambda: vu.crosstalk_matrix(g10), 3),
    }


# --- entry point -------------------------------------------------------------

def _run(vu, args, state) -> dict:
    import numpy as np

    from tracer import Tracer, merge, summarize

    runner = RUNNERS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = Recorder(args.out)
    runner(vu, state, perf_counter() + budget, untraced)
    # For cli-figures the program runs in the CLI processes, which report their own peak.
    rss = untraced.extra.pop("peak_rss_mb", 0.0) if args.workload == "cli-figures" else peak_rss_mb()
    out = {"peak_rss_mb": rss, "untraced": untraced.close()}
    if not args.trace:
        return out

    out["probes"] = run_probes(vu)
    tracer = Tracer()
    traced = Recorder(args.out, tracer)
    cache = vu.mode_gain_factors
    before = cache.cache_info()
    tracer.install()
    try:
        runner(vu, state, perf_counter() + budget, traced)
    finally:
        tracer.uninstall()
    after = cache.cache_info()
    out["traced"] = traced.close()
    spans_path = os.path.join(args.out, "spans.npz")
    np.savez(spans_path, **tracer.arrays())
    with np.load(spans_path) as data:
        summaries = [summarize(dict(data))]
    hits, misses = after.hits - before.hits, after.misses - before.misses
    for path in out["traced"].pop("span_files", []):
        with np.load(path) as data:
            spans = dict(data)
        hits += int(spans.pop("cache_hits"))
        misses += int(spans.pop("cache_misses"))
        summaries.append(summarize(spans))
    trace = merge(summaries)
    trace["cache_hits"], trace["cache_misses"] = hits, misses
    out["trace"] = trace
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import vortex_uca as vu

    import_s = perf_counter() - t0
    with open(args.inputs) as fh:
        state = materialize(args.workload, json.load(fh))
    if args.mode == "setup":
        print(f"ready {import_s!r}", flush=True)
        return 0
    out = _run(vu, args, state)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
