import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortex_uca as v
from vortex_uca.cli import (
    _SUBCOMMANDS,
    MAX_SWEEP_STEPS,
    SweepSpec,
    _cells,
    main,
    parse_config,
    render_config,
)


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    """(comments, header, data rows) of an experiment CSV."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_empty_config_gives_reference_defaults():
    config = parse_config("")
    g = config.geometry
    assert g.n_tx == 10 and g.n_rx == 10
    assert g.radius_tx == 0.1 and g.radius_rx == 0.1
    assert g.center_distance == 1.0 and g.wavelength == 0.1
    assert g.bearing_theta == 0.0 and g.tilt_phi == 0.0
    assert g.beta == pytest.approx(4 * math.pi)
    assert config.mode_power == 1.0 and config.noise_variance == 0.01
    assert config.seed == 1 and config.sweep is None
    assert "geometry.n_tx" in config.defaulted


def test_readme_config_block_parses_to_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config files\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    assert " ; " in block  # the block carries inline comments
    config = parse_config(block)
    defaults = parse_config("")
    assert config.geometry == defaults.geometry
    assert (config.mode_power, config.noise_variance, config.seed) == (
        defaults.mode_power, defaults.noise_variance, defaults.seed)
    assert config.sweep == SweepSpec(*_SUBCOMMANDS["se-vs-phi"][2])
    assert config.defaulted == ()


def test_config_overrides_and_tilt():
    config = parse_config("[geometry]\nphi_rad = 1.0471975512\nn_tx = 12\n")
    assert config.geometry.tilt_phi == pytest.approx(math.pi / 3, abs=1e-9)
    assert config.geometry.n_tx == 12


def test_config_rejects_invalid_field():
    with pytest.raises(v.ValidationError) as excinfo:
        parse_config("[geometry]\nn_tx = 0\n")
    assert excinfo.value.field == "n_tx"


def test_config_rejects_unknown_key_and_section():
    with pytest.raises(v.ValidationError) as excinfo:
        parse_config("[geometry]\nn_elements = 4\n")
    assert "n_elements" in str(excinfo.value)
    with pytest.raises(v.ValidationError):
        parse_config("[mystery]\nx = 1\n")


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nn_tx = 4\n", "[DEFAULT]\nn_tx = 4\n[budget]\nseed = 2\n"]
)
def test_config_rejects_default_section(text):
    with pytest.raises(v.ValidationError) as excinfo:
        parse_config(text)
    assert excinfo.value.field == "DEFAULT"


def test_config_rejects_bad_numbers_and_seed(tmp_path, capsys):
    with pytest.raises(v.ValidationError):
        parse_config("[geometry]\nradius_tx_m = abc\n")
    for text, field in [
        ("[budget]\nseed = -2\n", "seed"),
        ("[budget]\nnoise_variance = -1\n", "noise_variance"),
        ("[budget]\nmode_power = inf\n", "mode_power"),
    ]:
        with pytest.raises(v.ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.field == field
    out = tmp_path / "se.csv"
    for seed in ("-1", str(2**64)):
        assert run_cli("se-vs-phi", "--out", str(out), "--seed", seed) == 1
        assert capsys.readouterr().err == "error: seed: must be an unsigned 64-bit integer\n"
    assert not out.exists()


def test_config_parse_error_carries_line():
    with pytest.raises(v.ParseError) as excinfo:
        parse_config("[geometry]\nn_tx 10\n")
    assert excinfo.value.line == 2
    with pytest.raises(v.ParseError):
        parse_config("n_tx = 10\n")  # key before any section


def test_config_round_trip():
    text = (
        "[geometry]\nn_tx = 8\nn_rx = 6\nphi_rad = 0.25\nbeta = 9.0\n"
        "[budget]\nmode_power = 2.0\nnoise_variance = 0.125\nseed = 77\n"
        "[sweep]\nvariable = phi\nstart = 0.0\nstop = 1.5\nsteps = 11\n"
    )
    config = parse_config(text)
    assert parse_config(render_config(config)) == config


def test_config_round_trip_tiny_negative_angle():
    config = parse_config("[geometry]\ntheta_rad = -1e-20\n")
    assert config.geometry.bearing_theta == 0.0
    assert parse_config(render_config(config)) == config


def test_sweep_section_requires_all_keys():
    with pytest.raises(v.ValidationError):
        parse_config("[sweep]\nvariable = phi\nstart = 0\nstop = 1\n")
    with pytest.raises(v.ValidationError):
        parse_config("[sweep]\nvariable = phi\nstart = 2\nstop = 1\nsteps = 3\n")


def test_sweep_steps_bound():
    assert SweepSpec("phi", 0.0, 1.0, MAX_SWEEP_STEPS).steps == MAX_SWEEP_STEPS
    for args, field in [
        (("phi", 0.0, 1.0, MAX_SWEEP_STEPS + 1), "steps"),
        (("phi", 0.0, 1.0, 0), "steps"),
        (("radius", 0.0, 1.0, 3), "variable"),
        (("phi", 0.0, math.inf, 3), "start"),
        (("theta", math.nan, 1.0, 3), "start"),
    ]:
        with pytest.raises(v.ValidationError) as excinfo:
            SweepSpec(*args)
        assert excinfo.value.field == field


def test_sweep_steps_are_an_integer_but_not_a_bool():
    grid = SweepSpec("phi", 0.0, 1.0, np.int64(5)).grid()
    assert grid.tolist() == SweepSpec("phi", 0.0, 1.0, 5).grid().tolist()
    for steps in (True, np.bool_(True), 5.0):
        with pytest.raises(v.ValidationError) as excinfo:
            SweepSpec("phi", 0.0, 1.0, steps)
        assert excinfo.value.field == "steps"


def test_run_config_seed_is_an_integer_but_not_a_bool():
    config = parse_config("")
    assert dataclasses.replace(config, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    for seed in (1.5, True, np.bool_(True), 2**64, -1):
        with pytest.raises(v.ValidationError) as excinfo:
            dataclasses.replace(config, seed=seed)
        assert excinfo.value.field == "seed"


def test_error_sweep_single_size(tmp_path, capsys):
    out = tmp_path / "err.csv"
    assert run_cli("error-sweep", "--out", str(out), "--grid", "10:10:1") == 0
    comments, header, rows = read_rows(out)
    assert header == ["n_elements", "mode", "log10_error"]
    assert len(rows) == 6  # modes 0..5 representable with ten elements
    assert [r[1] for r in rows] == [str(k) for k in range(6)]
    assert any("excluded: mode 8" in c for c in comments)
    assert "mode 8 outside the mode set" in capsys.readouterr().err


def test_error_sweep_rejects_odd_sizes(tmp_path, capsys):
    out = tmp_path / "err.csv"
    assert run_cli("error-sweep", "--out", str(out), "--grid", "5:5:1") == 1
    assert "even integers" in capsys.readouterr().err


def test_error_sweep_beyond_max_bessel_order(tmp_path):
    # 130 elements carry mode 65, past the Bessel order limit; the sweep
    # only reads modes 0..8
    out = tmp_path / "err.csv"
    assert run_cli("error-sweep", "--out", str(out), "--grid", "130:130:1") == 0
    _, _, rows = read_rows(out)
    assert [(r[0], r[1]) for r in rows] == [("130", str(k)) for k in range(9)]
    assert all(float(r[2]) < -10.0 for r in rows)


def test_error_sweep_with_tx_offset(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[geometry]\nalpha_tx_rad = 0.3\n")
    out = tmp_path / "err.csv"
    assert run_cli("error-sweep", "--config", str(config), "--out", str(out),
                   "--grid", "24:32:5") == 0
    _, _, rows = read_rows(out)
    assert len(rows) == 5 * 9
    assert all(float(r[2]) < -12.0 for r in rows)


def test_error_sweep_values_drop_with_size(tmp_path):
    out = tmp_path / "err.csv"
    assert run_cli("error-sweep", "--out", str(out), "--grid", "8:32:2") == 0
    _, _, rows = read_rows(out)
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    for mode in range(4):
        assert table[(32, mode)] < table[(8, mode)]


def test_error_sweep_default_grid_trend(tmp_path):
    # on the default size grid, every row above 10 elements sits below the
    # 8-element row of the same mode (for modes the 8-element set carries)
    out = tmp_path / "err.csv"
    assert run_cli("error-sweep", "--out", str(out)) == 0
    _, _, rows = read_rows(out)
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    sizes = sorted({n for n, _ in table})
    assert sizes == list(range(4, 33, 2))
    for mode in range(0, 5):
        baseline = table[(8, mode)]
        for n in sizes:
            if n > 10 and (n, mode) in table:
                assert table[(n, mode)] < baseline


def test_gain_sweep_phi_structure(tmp_path):
    out = tmp_path / "gain.csv"
    assert run_cli("gain-vs-phi", "--out", str(out), "--grid", "0:1.5:4") == 0
    _, header, rows = read_rows(out)
    assert header == ["angle_rad", "m", "mode", "gain"]
    # 4 angles x 4 panels x 10 modes
    assert len(rows) == 4 * 4 * 10
    first = rows[0]
    assert float(first[0]) == 0.0
    at_zero_mode0 = [float(r[3]) for r in rows if float(r[0]) == 0.0 and r[2] == "0"]
    assert at_zero_mode0 == pytest.approx([0.2835402137274107] * 4, rel=1e-9)


def test_gain_sweep_rejects_out_of_range_grid(tmp_path, capsys):
    out = tmp_path / "gain.csv"
    assert run_cli("gain-vs-phi", "--out", str(out), "--grid", "0:2.0:5") == 1
    assert "phi grid" in capsys.readouterr().err
    assert run_cli("gain-vs-theta", "--out", str(out), "--grid", "0:6.30:5") == 1


def test_gain_sweep_theta_defaults_to_tilted_link(tmp_path):
    out = tmp_path / "gain.csv"
    assert run_cli("gain-vs-theta", "--out", str(out), "--grid", "0:6.0:7") == 0
    comments, _, rows = read_rows(out)
    # a bare bearing sweep runs at tilt pi/3, not at the coaxial default
    assert any("phi_rad = 1.0471975511965976" in c for c in comments)
    assert len(rows) == 7 * 4 * 10
    gains = np.array([float(r[3]) for r in rows])
    assert np.all(np.isfinite(gains)) and np.all(gains > 0)


def test_gain_sweep_theta_respects_explicit_tilt(tmp_path):
    out = tmp_path / "gain.csv"
    config = tmp_path / "config.ini"
    config.write_text("[geometry]\nphi_rad = 0.0\n")
    assert run_cli(
        "gain-vs-theta", "--config", str(config), "--out", str(out), "--grid", "0:6.0:5"
    ) == 0
    comments, _, rows = read_rows(out)
    assert any("phi_rad = 0.0" in c for c in comments)
    # a coaxial link has no bearing dependence: constant per (element, mode)
    by_pair = {}
    for r in rows:
        by_pair.setdefault((r[1], r[2]), []).append(float(r[3]))
    for values in by_pair.values():
        assert max(values) - min(values) < 1e-12


DEGENERATE_CONFIG = "[geometry]\nradius_rx_m = 0.5\ndistance_m = 1.0\n"
DEGENERATE_GRID = "0.5235987755982988:0.5235987755982988:1"


def test_gain_sweep_degenerate_point_is_a_gap(tmp_path, capsys):
    # At tilt pi/6 the in-plane offset cancels rx element 1's radius.
    config = tmp_path / "c.ini"
    config.write_text(DEGENERATE_CONFIG)
    out = tmp_path / "gain.csv"
    assert run_cli("gain-vs-phi", "--config", str(config), "--out", str(out),
                   "--grid", DEGENERATE_GRID) == 0
    comments, _, rows = read_rows(out)
    gaps = [c for c in comments if c.startswith("# gap: degenerate geometry at angle=")]
    assert len(gaps) == 40
    assert gaps[0] == "# gap: degenerate geometry at angle=0.5235987755982988 m=1 mode=-4"
    assert len(rows) == 40 and all(r[3] == "nan" for r in rows)
    err = capsys.readouterr().err.splitlines()
    assert len([ln for ln in err if ln.startswith("note: degenerate geometry at angle=")]) == 40


def test_gain_sweep_checks_tilt_bound_per_point(tmp_path, capsys):
    # The grid check holds the stop to the geometry's own tilt bound, so
    # pi/2 + 5e-13 is refused as a grid, before any geometry is built.
    out = tmp_path / "gain.csv"
    assert run_cli("gain-vs-phi", "--out", str(out), "--grid", "0:1.5707963267953966:3") == 1
    err = capsys.readouterr().err
    assert err == "error: sweep: phi grid must lie within [0, pi/2]\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMANDS))
def test_huge_bessel_argument_is_an_error(tmp_path, capsys, subcommand):
    # A vanishing wavelength puts the Bessel arguments near 6e298; the
    # recurrence would start that far up and never finish.
    config = tmp_path / "c.ini"
    config.write_text("[geometry]\nwavelength_m = 1e-300\n")
    out = tmp_path / "out.csv"
    assert run_cli(subcommand, "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: Bessel argument \|x\| = \S+ exceeds 10000\n", err)
    assert not out.exists()


def _run_with_closed_pipe(stream, args):
    """Run the CLI in a subprocess whose stdout or stderr is a pipe nobody reads."""
    src = Path(v.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                             os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "vortex_uca.cli", *args], env=env,
                              stdin=subprocess.DEVNULL, timeout=120, **{stream: write_end})
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "stream,args",
    [
        ("stdout", ("demux-demo",)),
        ("stderr", ("gain-vs-phi", "--config", "{config}", "--grid", DEGENERATE_GRID)),
    ],
)
def test_csv_survives_a_closed_console_pipe(tmp_path, capsys, stream, args):
    config = tmp_path / "c.ini"
    config.write_text(DEGENERATE_CONFIG)
    args = [a.format(config=config) for a in args]
    expected, out = tmp_path / "expected.csv", tmp_path / "out.csv"
    assert run_cli(*args, "--out", str(expected)) == 0
    # The lost console still fails the run, but only after the CSV is written.
    assert _run_with_closed_pipe(stream, [*args, "--out", str(out)]).returncode == 1
    assert out.read_bytes() == expected.read_bytes()


class _ClosedStream:
    """A console stream whose reader is gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_error_report_on_a_closed_stderr_still_returns_1(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stderr", _ClosedStream())
    out = tmp_path / "se.csv"
    assert run_cli("se-vs-phi", "--grid", "1:0:3", "--out", str(out)) == 1
    assert not out.exists()


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--help")
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        assert f"{name}: {help_text}" in text


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("gain-vs-psi")
    assert exit_info.value.code == 2
    assert "invalid choice: 'gain-vs-psi'" in capsys.readouterr().err


def test_se_sweep_output(tmp_path):
    out = tmp_path / "se.csv"
    assert run_cli("se-vs-phi", "--out", str(out), "--grid", "0:1.2:13") == 0
    comments, header, rows = read_rows(out)
    assert header == ["phi_rad", "spectrum_efficiency"]
    assert len(rows) == 13
    assert float(rows[0][1]) == pytest.approx(13.443259289434376, rel=1e-9)
    assert any("budget" in c for c in comments)
    # The same grid from a config [sweep] section writes the same file.
    config = tmp_path / "c.ini"
    config.write_text("[sweep]\nvariable = phi\nstart = 0\nstop = 1.2\nsteps = 13\n")
    from_config = tmp_path / "se_config.csv"
    assert run_cli("se-vs-phi", "--out", str(from_config), "--config", str(config)) == 0
    assert from_config.read_bytes() == out.read_bytes()


def test_csv_columns_format_each_type_once():
    ints = [0, -3, 2**40]
    reals = [0.1, -0.0, math.nan, math.inf, 5e-324, 123456789.123456789]
    assert _cells(np.array(ints)) == _cells(ints) == [str(i) for i in ints]
    assert _cells(np.array(reals)) == _cells(reals) == [f"{x:.12e}" for x in reals]
    assert _cells(["farfield", "exact"]) == ["farfield", "exact"]


def test_csv_precision_and_config_block(tmp_path):
    out = tmp_path / "se.csv"
    assert run_cli("se-vs-phi", "--out", str(out), "--grid", "0:1.0:3", "--seed", "42") == 0
    comments, _, rows = read_rows(out)
    assert any(re.match(r"^\d\.\d{12}e[+-]\d{2}$", cell) for cell in rows[1])
    assert any("seed = 42" in c for c in comments)
    assert any(c.startswith("# vortex-uca ") for c in comments)
    # resolved config parses back to the config that produced the file
    embedded = "\n".join(
        line[len("#   "):] for line in comments if line.startswith("#   ")
    )
    config = parse_config(embedded)
    assert config.seed == 42 and config.sweep.steps == 3


@pytest.mark.parametrize(
    "args",
    [
        ("error-sweep", "--grid", "4:12:5"),
        ("gain-vs-phi", "--grid", "0:1.5:6"),
        ("gain-vs-theta", "--grid", "0:6.0:5"),
        ("se-vs-phi", "--grid", "0:1.5:9"),
        ("demux-demo",),
    ],
)
def test_reruns_are_byte_identical(tmp_path, args):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run_cli(args[0], *args[1:], "--out", str(first)) == 0
    assert run_cli(args[0], *args[1:], "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_demux_demo_report(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert run_cli("demux-demo", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "crosstalk max off-diagonal" in stdout
    _, header, rows = read_rows(out)
    assert header == ["channel_variant", "noise", "mode", "symbol_error"]
    assert len(rows) == 4 * 10
    farfield_clean = [
        float(r[3]) for r in rows if r[0] == "farfield" and r[1] == "noiseless"
    ]
    assert max(farfield_clean) < 1e-10


def test_demux_demo_tilted_errors_match_crosstalk_prediction(tmp_path):
    out = tmp_path / "demo.csv"
    config = tmp_path / "config.ini"
    tilt = math.pi / 6
    config.write_text(f"[geometry]\nphi_rad = {tilt!r}\n[budget]\nseed = 9\n")
    assert run_cli("demux-demo", "--config", str(config), "--out", str(out)) == 0
    _, _, rows = read_rows(out)
    reported = {
        int(r[2]): float(r[3]) for r in rows if r[0] == "farfield" and r[1] == "noiseless"
    }
    # reproduce the demo's symbol draw and compare against the leakage model
    from conftest import reference_geometry

    g = reference_geometry(tilt_phi=tilt)
    modes = v.mode_index_set(g)
    symbols = np.exp(2j * np.pi * np.random.default_rng(9).random(len(modes)))
    predicted = np.abs(
        (v.crosstalk_matrix(g) - np.eye(len(modes))) @ symbols
    )
    for i, mode in enumerate(modes):
        assert abs(reported[mode] - predicted[i]) < 1e-10


def test_demux_demo_seed_changes_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("demux-demo", "--out", str(a), "--seed", "1") == 0
    assert run_cli("demux-demo", "--out", str(b), "--seed", "2") == 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize(
    "subcommand,line,field",
    [
        ("se-vs-phi", "distance_m = inf", "center_distance"),
        ("se-vs-phi", "beta = inf", "beta"),
        ("gain-vs-phi", "radius_tx_m = nan", "radius_tx"),
        ("demux-demo", "wavelength_m = -inf", "wavelength"),
    ],
)
def test_non_finite_geometry_is_an_error_line(tmp_path, capsys, subcommand, line, field):
    config = tmp_path / "c.ini"
    config.write_text(f"[geometry]\n{line}\n")
    out = tmp_path / "out.csv"
    assert run_cli(subcommand, "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: must be finite") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "scales",
    [
        "beta = 1e200\nwavelength_m = 1e200\n",
        "beta = 1e-200\nwavelength_m = 1e-200\n",
        "beta = 1e160\n",  # finite amplitude, but |h|^2 overflows in the SE
    ],
)
def test_out_of_range_farfield_amplitude_is_an_error_line(tmp_path, capsys, scales):
    config = tmp_path / "c.ini"
    config.write_text(
        "[geometry]\nn_tx = 4\nn_rx = 4\nradius_tx_m = 1\nradius_rx_m = 1\n"
        f"distance_m = 10\n{scales}"
    )
    out = tmp_path / "out.csv"
    assert run_cli("se-vs-phi", "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: beta: far-field amplitude") and err.count("\n") == 1
    assert not out.exists()


def test_overflowing_distance_is_an_error_line_naming_it(tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_text("[geometry]\ndistance_m = 1e200\n")
    assert run_cli("se-vs-phi", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: center_distance: must be < 1e150") and err.count("\n") == 1


# The configs of tests/test_geometry.py's OVERFLOWING_WAVELENGTHS: each ended
# in a ValueError traceback (cmath.exp of an infinite carrier phase, or an
# infinite Bessel argument) in at least one subcommand.
TINY_WAVELENGTHS = [
    "wavelength_m = 5e-324\n",
    "wavelength_m = 1e-310\n",
    "wavelength_m = 1e-308\n",
    "radius_tx_m = 1e149\nradius_rx_m = 1e149\ndistance_m = 9e149\nwavelength_m = 1e-158\n",
    "radius_tx_m = 1e-160\nradius_rx_m = 1e-160\ndistance_m = 1e-159\n"
    "wavelength_m = 1e-300\nbeta = 1e140\n",
]


@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("lengths", TINY_WAVELENGTHS,
                         ids=["5e-324", "1e-310", "1e-308", "huge-lengths", "tiny-lengths"])
def test_tiny_wavelength_is_an_error_line(tmp_path, capsys, subcommand, lengths):
    config = tmp_path / "c.ini"
    config.write_text(f"[geometry]\n{lengths}")
    out = tmp_path / "out.csv"
    assert run_cli(subcommand, "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: wavelength: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def test_missing_config_file_fails(tmp_path, capsys):
    assert run_cli("se-vs-phi", "--config", str(tmp_path / "nope.ini")) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_grid_argument(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli("se-vs-phi", "--out", str(out), "--grid", "1:2") == 1
    assert "START:STOP:STEPS" in capsys.readouterr().err
    assert run_cli("se-vs-phi", "--out", str(out), "--grid", "a:b:c") == 1
    assert capsys.readouterr().err == "error: grid: cannot parse 'a:b:c'\n"
    assert not out.exists()


def test_oversized_grid_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "se.csv"
    assert run_cli("se-vs-phi", "--out", str(out), "--grid", "0:1:100000000") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: steps: ") and err.count("\n") == 1
    assert not out.exists()


def test_demux_demo_rejects_grid(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("demux-demo", "--out", str(out), "--grid", "1:2:3") == 1
    err = capsys.readouterr().err
    assert err == "error: grid: subcommand demux-demo takes no sweep grid\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, sweep, line",
    [
        ("demux-demo", "phi", "error: sweep: subcommand demux-demo takes no sweep grid"),
        ("se-vs-phi", "theta",
         "error: variable: subcommand se-vs-phi sweeps 'phi', config says 'theta'"),
    ],
    ids=["demux-demo", "se-vs-phi"],
)
def test_config_sweep_must_fit_the_subcommand(tmp_path, capsys, subcommand, sweep, line):
    config = tmp_path / "c.ini"
    config.write_text(f"[sweep]\nvariable = {sweep}\nstart = 0\nstop = 1\nsteps = 3\n")
    out = tmp_path / "x.csv"
    assert run_cli(subcommand, "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        ("[geometry]\nn_tx = 4\n[geometry]\nn_rx = 4\n",
         "error: line 3: duplicate section 'geometry'"),
        ("[budget]\nseed = 2\n\nSEED = 3\n", "error: line 4: duplicate budget key 'seed'"),
    ],
    ids=["section", "key"],
)
def test_duplicate_section_or_key_is_an_error_line(tmp_path, capsys, text, line):
    config = tmp_path / "c.ini"
    config.write_text(text)
    out = tmp_path / "x.csv"
    assert run_cli("se-vs-phi", "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_non_utf8_config_is_an_error_line(tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_bytes(b"[geometry]\nbeta = \xff\n")
    out = tmp_path / "d.csv"
    assert run_cli("demux-demo", "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err
    assert not out.exists()
