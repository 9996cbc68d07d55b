"""Command-line experiment runner with deterministic CSV output.

Subcommands reproduce the standard experiment set: the closed-form
approximation error versus array size, per-mode amplitude gains versus the
tilt and bearing angles, the spectrum-efficiency tilt sweep, and a
demultiplexing demonstration.  Every output file embeds the fully resolved
configuration as comment lines, so a file is reproducible from its own
header.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import channel_matrix, mode_channel_matrix, worst_approximation_error
from .errors import (
    DegenerateGeometry,
    ModeUnobservable,
    ParseError,
    ValidationError,
    VortexUcaError,
)
from .geometry import LinkGeometry, mode_index_set
from .metrics import LinkBudget, se_sweep
from .transceiver import (
    ModeSymbolVector,
    NoiseModel,
    crosstalk_matrix,
    demultiplex,
    propagate,
    propagate_mode_model,
    synthesize_transmit,
)

_GEOMETRY_KEYS = {
    # config key -> (LinkGeometry field, parser, default)
    "n_tx": ("n_tx", int, 10),
    "n_rx": ("n_rx", int, 10),
    "radius_tx_m": ("radius_tx", float, 0.1),
    "radius_rx_m": ("radius_rx", float, 0.1),
    "distance_m": ("center_distance", float, 1.0),
    "theta_rad": ("bearing_theta", float, 0.0),
    "phi_rad": ("tilt_phi", float, 0.0),
    "alpha_tx_rad": ("offset_alpha_tx", float, 0.0),
    "alpha_rx_rad": ("offset_alpha_rx", float, 0.0),
    "wavelength_m": ("wavelength", float, 0.1),
    "beta": ("beta", float, 4.0 * math.pi),
}

_BUDGET_DEFAULTS = {"mode_power": 1.0, "noise_variance": 0.01, "seed": 1}

_SWEEP_VARIABLES = ("phi", "theta", "n_elements")

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi

_DEFAULT_SWEEPS = {
    "error-sweep": ("n_elements", 4.0, 32.0, 15),
    "gain-vs-phi": ("phi", 0.0, HALF_PI, 91),
    "gain-vs-theta": ("theta", 0.0, TWO_PI * 71.0 / 72.0, 72),
    "se-vs-phi": ("phi", 0.0, HALF_PI, 121),
}

# The bearing sweep is run at a tilted link by default (a coaxial link has
# no bearing dependence); an explicit phi_rad in the config still wins.
_THETA_SWEEP_DEFAULT_TILT = math.pi / 3.0

# Receive elements shown by the gain sweeps (panel convention).
_GAIN_PANELS = (1, 2, 3, 4)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.variable not in _SWEEP_VARIABLES:
            raise ValidationError("variable", f"must be one of {_SWEEP_VARIABLES}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValidationError("steps", "must be an integer >= 1")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError("start", "sweep bounds must be finite")
        if self.start > self.stop:
            raise ValidationError("start", "must satisfy start <= stop")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class RunConfig:
    geometry: LinkGeometry
    mode_power: float
    noise_variance: float
    seed: int
    sweep: SweepSpec | None = None
    defaulted: tuple[str, ...] = field(default=(), compare=False)


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value config text into a validated RunConfig.

    Missing keys fall back to documented defaults; unknown sections or keys
    are rejected by name.
    """
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError("content before any [section] header", line=exc.lineno) from exc
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ParseError("malformed key-value line", line=line) from exc
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    known_sections = {"geometry", "budget", "sweep"}
    for section in parser.sections():
        if section not in known_sections:
            raise ValidationError(section, "unknown config section")

    defaulted: list[str] = []

    def read(section: str, key: str, cast, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError:
                raise ValidationError(
                    f"{section}.{key}", f"cannot parse {raw!r} as {cast.__name__}"
                ) from None
        defaulted.append(f"{section}.{key}")
        return default

    if parser.has_section("geometry"):
        for key in parser.options("geometry"):
            if key not in _GEOMETRY_KEYS:
                raise ValidationError(key, "unknown geometry key")
    geometry = LinkGeometry(**{
        fieldname: read("geometry", key, cast, default)
        for key, (fieldname, cast, default) in _GEOMETRY_KEYS.items()
    })

    if parser.has_section("budget"):
        for key in parser.options("budget"):
            if key not in _BUDGET_DEFAULTS:
                raise ValidationError(key, "unknown budget key")
    mode_power = read("budget", "mode_power", float, _BUDGET_DEFAULTS["mode_power"])
    noise_variance = read(
        "budget", "noise_variance", float, _BUDGET_DEFAULTS["noise_variance"]
    )
    seed = read("budget", "seed", int, _BUDGET_DEFAULTS["seed"])
    if mode_power < 0 or not math.isfinite(mode_power):
        raise ValidationError("mode_power", "must be finite and >= 0")
    if noise_variance < 0 or not math.isfinite(noise_variance):
        raise ValidationError("noise_variance", "must be finite and >= 0")
    if not 0 <= seed < 2**64:
        raise ValidationError("seed", "must be an unsigned 64-bit integer")

    sweep = None
    if parser.has_section("sweep"):
        for key in parser.options("sweep"):
            if key not in ("variable", "start", "stop", "steps"):
                raise ValidationError(key, "unknown sweep key")
        missing = [k for k in ("variable", "start", "stop", "steps")
                   if not parser.has_option("sweep", k)]
        if missing:
            raise ValidationError(missing[0], "sweep section requires this key")
        sweep = SweepSpec(
            variable=read("sweep", "variable", str, None),
            start=read("sweep", "start", float, None),
            stop=read("sweep", "stop", float, None),
            steps=read("sweep", "steps", int, None),
        )

    return RunConfig(
        geometry=geometry,
        mode_power=mode_power,
        noise_variance=noise_variance,
        seed=seed,
        sweep=sweep,
        defaulted=tuple(defaulted),
    )


def render_config(config: RunConfig) -> str:
    """Emit a RunConfig as config text; parsing it back yields an equal config."""
    g = config.geometry
    lines = ["[geometry]"]
    lines += [f"{key} = {getattr(g, fieldname)!r}"
              for key, (fieldname, _, _) in _GEOMETRY_KEYS.items()]
    lines += [
        "",
        "[budget]",
        f"mode_power = {config.mode_power!r}",
        f"noise_variance = {config.noise_variance!r}",
        f"seed = {config.seed!r}",
    ]
    if config.sweep is not None:
        lines += [
            "",
            "[sweep]",
            f"variable = {config.sweep.variable}",
            f"start = {config.sweep.start!r}",
            f"stop = {config.sweep.stop!r}",
            f"steps = {config.sweep.steps!r}",
        ]
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    """CSV cell formatting: integers verbatim, reals with 13 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12e}"


def _write_csv(path: str, subcommand: str, config: RunConfig, notes, header, rows) -> None:
    """Write one experiment CSV: column names first, then a '#' metadata
    block (tool version, resolved config, defaults, notes), then data rows."""

    def cell(value):
        return value if isinstance(value, str) else _fmt(value)

    lines = [",".join(header)]
    lines += [f"# vortex-uca {__version__}", f"# subcommand: {subcommand}"]
    lines += [f"# {note}" for note in notes]
    lines.append("# resolved config:")
    lines += [f"#   {ln}" for ln in render_config(config).splitlines()]
    defaulted = " ".join(config.defaulted) if config.defaulted else "none"
    lines.append(f"# defaulted keys: {defaulted}")
    lines += [",".join(cell(value) for value in row) for row in rows]
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _resolve_sweep(config: RunConfig, subcommand: str, grid_arg: str | None) -> RunConfig:
    """Fix the sweep actually used: --grid beats config, config beats defaults."""
    defaulted = list(config.defaulted)
    default = _DEFAULT_SWEEPS.get(subcommand)
    variable = default[0] if default else None
    if grid_arg is not None:
        parts = grid_arg.split(":")
        if len(parts) != 3:
            raise ValidationError("grid", "expected START:STOP:STEPS")
        try:
            start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError("grid", f"cannot parse {grid_arg!r}") from None
        sweep = SweepSpec(variable=variable, start=start, stop=stop, steps=steps)
    elif config.sweep is not None:
        if variable is not None and config.sweep.variable != variable:
            raise ValidationError(
                "variable",
                f"subcommand {subcommand} sweeps {variable!r}, "
                f"config says {config.sweep.variable!r}",
            )
        sweep = config.sweep
    elif default is not None:
        sweep = SweepSpec(*default)
        defaulted.append("sweep.*")
    else:
        sweep = None
    if default is None and grid_arg is not None:
        raise ValidationError("grid", f"subcommand {subcommand} takes no sweep grid")
    return dataclasses.replace(config, sweep=sweep, defaulted=tuple(defaulted))


def _check_angle_grid(sweep: SweepSpec) -> None:
    if sweep.variable == "phi":
        if sweep.start < 0.0 or sweep.stop > HALF_PI + 1e-12:
            raise ValidationError("sweep", "phi grid must lie within [0, pi/2]")
    elif sweep.variable == "theta":
        if sweep.start < 0.0 or sweep.stop >= TWO_PI:
            raise ValidationError("sweep", "theta grid must lie within [0, 2*pi)")


def run_error_sweep(config: RunConfig, out_path: str) -> None:
    """Worst-case closed-form error per mode across array sizes."""
    sweep = config.sweep
    sizes = []
    for value in sweep.grid():
        rounded = round(float(value))
        if abs(value - rounded) > 1e-9 or rounded < 2 or rounded % 2:
            raise ValidationError("sweep", f"element-count grid must be even integers, got {value}")
        sizes.append(int(rounded))

    rows, notes = [], []
    for n in sizes:
        geom = dataclasses.replace(config.geometry, n_tx=n, n_rx=n)
        modes = mode_index_set(geom)
        kept = [mode for mode in range(0, 9) if mode in modes]
        for mode in range(0, 9):
            if mode not in modes:
                notes.append(f"excluded: mode {mode} outside the mode set of n_elements={n}")
                print(f"note: mode {mode} outside the mode set of n_elements={n}; skipped",
                      file=sys.stderr)
        for mode, error in zip(kept, worst_approximation_error(geom, kept)):
            rows.append((n, mode, error))
    _write_csv(out_path, "error-sweep", config, notes,
               ("n_elements", "mode", "log10_error"), rows)


def run_gain_sweep(config: RunConfig, variable: str, out_path: str) -> None:
    """Per-mode amplitude gains versus tilt (phi) or bearing (theta)."""
    sweep = config.sweep
    _check_angle_grid(sweep)
    fieldname = "tilt_phi" if variable == "phi" else "bearing_theta"
    geometry = config.geometry
    panels = [m for m in _GAIN_PANELS if m <= geometry.n_rx]
    modes = mode_index_set(geometry)

    rows, notes = [], []
    for angle in map(float, sweep.grid()):
        geom = dataclasses.replace(geometry, **{fieldname: angle})
        try:
            gains = np.abs(mode_channel_matrix(geom, method="closed").entries)
        except DegenerateGeometry:
            gains = None
        for m in panels:
            for i, mode in enumerate(modes):
                if gains is None:
                    notes.append(f"gap: degenerate geometry at angle={angle!r} m={m} mode={mode}")
                    print(f"note: degenerate geometry at angle={angle!r} m={m} mode={mode}",
                          file=sys.stderr)
                rows.append((angle, m, mode, math.nan if gains is None else gains[m - 1, i]))
    subcommand = f"gain-vs-{variable}"
    _write_csv(out_path, subcommand, config, notes,
               ("angle_rad", "m", "mode", "gain"), rows)


def run_se_sweep(config: RunConfig, out_path: str) -> None:
    """Spectrum efficiency versus tilt angle."""
    sweep = config.sweep
    _check_angle_grid(sweep)
    geometry = config.geometry
    budget = LinkBudget.uniform(geometry, config.mode_power, config.noise_variance, config.seed)
    rows, notes = [], []
    for point in se_sweep(geometry, "phi", sweep.grid(), budget):
        if point.spectrum_efficiency is None:
            notes.append(f"gap: unevaluable point at phi={point.value!r}")
            print(f"note: unevaluable point at phi={point.value!r}", file=sys.stderr)
            rows.append((point.value, math.nan))
        else:
            rows.append((point.value, point.spectrum_efficiency))
    notes.append("budget: uniform per-mode power and per-element noise variance as configured")
    _write_csv(out_path, "se-vs-phi", config, notes,
               ("phi_rad", "spectrum_efficiency"), rows)


def run_demux_demo(config: RunConfig, out_path: str) -> None:
    """Round-trip demonstration through the mode model and the exact channel."""
    geometry = config.geometry
    modes = mode_index_set(geometry)
    rng = np.random.default_rng(config.seed)
    symbols = ModeSymbolVector(
        symbols=np.exp(2j * math.pi * rng.random(len(modes))), modes=modes
    )
    noise = NoiseModel.uniform(config.noise_variance, geometry.n_rx, config.seed)
    mode_model = mode_channel_matrix(geometry, method="closed")
    exact = channel_matrix(geometry, variant="exact")
    tx = synthesize_transmit(symbols, geometry)

    received = [
        ("farfield", "noiseless", propagate_mode_model(symbols, mode_model)),
        ("farfield", "noisy", propagate_mode_model(symbols, mode_model, noise, trial=1)),
        ("exact", "noiseless", propagate(tx, exact)),
        ("exact", "noisy", propagate(tx, exact, noise, trial=2)),
    ]

    rows, notes = [], []
    print(f"demux demo: {len(modes)} modes, seed {config.seed}")
    for variant, noise_tag, rx in received:
        try:
            out = demultiplex(rx, geometry)
        except ModeUnobservable as exc:
            notes.append(f"gap: {variant}/{noise_tag}: {exc}")
            print(f"note: {variant}/{noise_tag}: {exc}", file=sys.stderr)
            for mode in modes:
                rows.append((variant, noise_tag, mode, math.nan))
            continue
        errors = np.abs(out.estimated_symbols - symbols.symbols)
        for mode, err in zip(modes, errors):
            rows.append((variant, noise_tag, mode, float(err)))
        print(f"  {variant:<9} {noise_tag:<10} max |estimate - symbol| = {errors.max():.6e}")

    leakage = crosstalk_matrix(geometry)
    off = np.abs(leakage - np.eye(len(modes)))
    print(f"  crosstalk max off-diagonal = {off.max():.6e}")
    notes.append(f"crosstalk_max_offdiagonal = {float(off.max())!r}")

    _write_csv(out_path, "demux-demo", config, notes,
               ("channel_variant", "noise", "mode", "symbol_error"), rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortex-uca",
        description="OAM link experiments for non-coaxial uniform circular arrays",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "error-sweep": "closed-form approximation error vs array size",
        "gain-vs-phi": "per-mode amplitude gain vs tilt angle",
        "gain-vs-theta": "per-mode amplitude gain vs bearing angle",
        "se-vs-phi": "spectrum efficiency vs tilt angle",
        "demux-demo": "round-trip demultiplexing demonstration",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="config file (defaults when omitted)")
        p.add_argument("--out", metavar="PATH", help="output CSV path")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--grid", metavar="START:STOP:STEPS", help="override the sweep grid")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            with open(args.config, encoding="utf-8") as handle:
                text = handle.read()
        config = parse_config(text)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ValidationError("seed", "must be an unsigned 64-bit integer")
            config = dataclasses.replace(config, seed=args.seed)
        config = _resolve_sweep(config, args.subcommand, args.grid)
        if args.subcommand == "gain-vs-theta" and "geometry.phi_rad" in config.defaulted:
            config = dataclasses.replace(
                config,
                geometry=dataclasses.replace(
                    config.geometry, tilt_phi=_THETA_SWEEP_DEFAULT_TILT
                ),
            )
        out_path = args.out or args.subcommand.replace("-", "_") + ".csv"
        if args.subcommand == "error-sweep":
            run_error_sweep(config, out_path)
        elif args.subcommand == "gain-vs-phi":
            run_gain_sweep(config, "phi", out_path)
        elif args.subcommand == "gain-vs-theta":
            run_gain_sweep(config, "theta", out_path)
        elif args.subcommand == "se-vs-phi":
            run_se_sweep(config, out_path)
        else:
            run_demux_demo(config, out_path)
    except VortexUcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
