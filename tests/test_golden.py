"""Golden corpus: the five subcommands at defaults reproduce bench/reference/.

The reference CSVs were written by the code before the single-pass Bessel
table.  They are compared with the benchmark's own ``compare_csv``: numeric
cells within rtol 1e-9 plus a rounding floor per column, '#' lines with
the same words and numbers, everything else exactly.
"""

import importlib.util
from pathlib import Path

import pytest

from vortex_uca.cli import main as cli_main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SUBCOMMANDS = ("error-sweep", "gain-vs-phi", "gain-vs-theta", "se-vs-phi", "demux-demo")


def _compare_csv():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_csv


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_default_csv_matches_reference(tmp_path, subcommand):
    name = subcommand.replace("-", "_") + ".csv"
    out = tmp_path / name
    assert cli_main([subcommand, "--out", str(out)]) == 0
    reference = (BENCH / "reference" / name).read_text()
    difference = _compare_csv()(out.read_text(), reference)
    assert difference is None, difference
