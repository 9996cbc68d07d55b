"""Quick self-check of the benchmark: every workload at a tiny size.

    python3 bench/selfcheck.py

Runs each workload for about a second, untraced and traced, and asserts
that every metric named in BENCHMARK.json is emitted with its unit, that no
op failed, and that the generated inputs are a function of the seed: the
same seed gives the same digest and another seed a different one (except
for cli-figures, whose inputs are fixed by definition).  First it checks
that the tracer's spans and counters stay exact under threads, as they must
under the CLI's thread pool, and that the CSV check tells rounding-level
differences from real ones.  Exits 0 on success.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, HERE)

import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_tracer_threads(threads: int = 4, calls: int = 2000) -> None:
    """Spans and counters stay exact when several threads call traced functions."""
    import numpy as np

    sys.path.insert(1, os.path.join(ROOT, "src"))
    import vortex_uca as vu

    tracer = Tracer()
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(lambda: [vu.bessel_j(2, 1.5) for _ in range(calls)])
                       for _ in range(threads)]
            for f in futures:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    spans = tracer.arrays()
    s = summarize(spans)
    total = threads * calls
    counts = (s["calls"]["specfun.bessel_j"], s["counters"]["specfun.bessel_j.values"])
    assert counts == (total, total), f"thread counts {counts}, expected {total}"
    assert np.all(spans["parent"] == -1), "a span was nested under another thread's span"
    print(f"ok tracer under {threads} threads: {total} spans")


def check_compare_csv() -> None:
    """The CSV check ignores rounding-level differences and catches real ones."""
    def edit(name: str, old: str, new: str) -> str | None:
        with open(os.path.join(HERE, "reference", name)) as fh:
            ref = fh.read()
        assert old in ref, f"{name}: {old!r} not in reference"
        return workloads.compare_csv(ref.replace(old, new, 1), ref)

    rounding = (
        ("demux_demo.csv", "5.551115123126e-17", "1.2e-16"),
        ("demux_demo.csv", "= 1.0970763492193804e-11", "= 2.5e-11"),
        ("error_sweep.csv", "-1.590613476369e+01", "-1.520613476369e+01"),
        ("error_sweep.csv", "-3.000000000000e+02", "-1.550000000000e+01"),
    )
    real = (
        ("demux_demo.csv", "1.534496369319e-01", "1.534497369319e-01"),
        ("error_sweep.csv", "-6.370951677367e+00", "-6.370961677367e+00"),
        ("gain_vs_phi.csv", "1.447129797824e-12", "2.447129797824e-12"),
        ("se_vs_phi.csv", "n_tx = 10", "n_tx = 11"),
    )
    for case in rounding:
        assert edit(*case) is None, f"rounding-level edit rejected: {case}"
    for case in real:
        assert edit(*case) is not None, f"real edit accepted: {case}"
    print(f"ok compare_csv: {len(rounding)} rounding edits pass, {len(real)} real edits fail")


def main() -> int:
    check_tracer_threads()
    check_compare_csv()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for item in spec["workloads"]:
        w = item["name"]
        first = workloads.digest(workloads.generate(w, 1))
        assert first == workloads.digest(workloads.generate(w, 1)), f"{w}: same seed, new inputs"
        other = workloads.digest(workloads.generate(w, 2))
        if w == "cli-figures":
            assert first == other, f"{w}: inputs must not depend on the seed"
        else:
            assert first != other, f"{w}: another seed gave the same inputs"
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(w, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
            assert result["correct"] and result["failed"] == 0, f"{w} trace={trace}: {result}"
            assert result["attempted"] >= 1
            if trace:
                assert result["metrics"]["failed_frac"]["value"] == 0.0
        print(f"ok {w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
