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
from .channel import _sweep_gains, channel_matrix, mode_channel_matrix, worst_approximation_error
from .errors import ParseError, ValidationError, VortexUcaError, _is_integer
from .geometry import TWO_PI, LinkGeometry, mode_index_set
from .metrics import _SWEEP_FIELDS, LinkBudget, se_sweep
from .transceiver import (
    ModeSymbolVector,
    NoiseModel,
    crosstalk_matrix,
    demultiplex,
    propagate,
    propagate_mode_model,
    synthesize_transmit,
)

_CONFIG_KEYS = {
    # section -> config key -> (field, parser, default); the field belongs to
    # LinkGeometry, RunConfig and SweepSpec in turn.  A [sweep] section needs
    # every key, so its keys have no default.
    "geometry": {
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
    },
    "budget": {
        "mode_power": ("mode_power", float, 1.0),
        "noise_variance": ("noise_variance", float, 0.01),
        "seed": ("seed", int, 1),
    },
    "sweep": {
        "variable": ("variable", str, None),
        "start": ("start", float, None),
        "stop": ("stop", float, None),
        "steps": ("steps", int, None),
    },
}

_SWEEP_VARIABLES = ("phi", "theta", "n_elements")

# Largest sweep grid accepted; the default grids have at most 121 points.
MAX_SWEEP_STEPS = 10_000

HALF_PI = 0.5 * math.pi

_SUBCOMMANDS = {
    # name -> (help, runner, default sweep or None when it takes no grid).
    # Runners are named, not held, so main calls whatever the module binds
    # to that name when it runs (a wrapper installed by a profiler included).
    "error-sweep": ("closed-form approximation error vs array size",
                    "run_error_sweep", ("n_elements", 4.0, 32.0, 15)),
    "gain-vs-phi": ("per-mode amplitude gain vs tilt angle",
                    "run_gain_sweep", ("phi", 0.0, HALF_PI, 91)),
    "gain-vs-theta": ("per-mode amplitude gain vs bearing angle",
                      "run_gain_sweep", ("theta", 0.0, TWO_PI * 71.0 / 72.0, 72)),
    "se-vs-phi": ("spectrum efficiency vs tilt angle",
                  "run_se_sweep", ("phi", 0.0, HALF_PI, 121)),
    "demux-demo": ("round-trip demultiplexing demonstration", "run_demux_demo", None),
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
        if not _is_integer(self.steps) or self.steps < 1:
            raise ValidationError("steps", "must be an integer >= 1")
        if self.steps > MAX_SWEEP_STEPS:
            raise ValidationError("steps", f"must be <= {MAX_SWEEP_STEPS}, got {self.steps}")
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

    def __post_init__(self):
        for name in ("mode_power", "noise_variance"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValidationError(name, "must be finite and >= 0")
        if not _is_integer(self.seed) or not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed", "must be an unsigned 64-bit integer")


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value config text into a validated RunConfig.

    Missing keys fall back to documented defaults; unknown sections or keys
    are rejected by name, [DEFAULT] included.
    """
    # No header can name the empty section, so [DEFAULT] reads as an
    # ordinary (and unknown) section instead of lending its keys to others.
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="",
                                       comment_prefixes=("#", ";"), inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError("content before any [section] header", line=exc.lineno) from exc
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ParseError("malformed key-value line", line=line) from exc
    except configparser.DuplicateSectionError as exc:
        raise ParseError(f"duplicate section {exc.section!r}", line=exc.lineno) from exc
    except configparser.DuplicateOptionError as exc:
        raise ParseError(f"duplicate {exc.section} key {exc.option!r}", line=exc.lineno) from exc

    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ValidationError(section, "unknown config section")
        for key in parser.options(section):
            if key not in _CONFIG_KEYS[section]:
                raise ValidationError(key, f"unknown {section} key")

    defaulted: list[str] = []

    def read(section: str) -> dict:
        values = {}
        for key, (fieldname, cast, default) in _CONFIG_KEYS[section].items():
            if not parser.has_option(section, key):
                defaulted.append(f"{section}.{key}")
                values[fieldname] = default
                continue
            raw = parser.get(section, key)
            try:
                values[fieldname] = cast(raw)
            except ValueError:
                raise ValidationError(
                    f"{section}.{key}", f"cannot parse {raw!r} as {cast.__name__}"
                ) from None
        return values

    config = RunConfig(geometry=LinkGeometry(**read("geometry")), **read("budget"))
    sweep = None
    if parser.has_section("sweep"):
        missing = [k for k in _CONFIG_KEYS["sweep"] if not parser.has_option("sweep", k)]
        if missing:
            raise ValidationError(missing[0], "sweep section requires this key")
        sweep = SweepSpec(**read("sweep"))
    return dataclasses.replace(config, sweep=sweep, defaulted=tuple(defaulted))


def render_config(config: RunConfig) -> str:
    """Emit a RunConfig as config text; parsing it back yields an equal config."""
    sources = {"geometry": config.geometry, "budget": config, "sweep": config.sweep}
    blocks = []
    for section, keys in _CONFIG_KEYS.items():
        if sources[section] is None:
            continue
        lines = [f"[{section}]"]
        for key, (fieldname, cast, _) in keys.items():
            value = getattr(sources[section], fieldname)
            lines.append(f"{key} = {value if cast is str else repr(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _cells(column) -> list[str]:
    """One CSV column as text: integers verbatim, reals with 13 significant
    digits, strings as they are."""
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "f":
        # One formatting operation for the whole column.
        return ("%.12e\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    return list(map(str, values.tolist())) if kind in "iu" else values.tolist()


def _write_csv(path: str, subcommand: str, config: RunConfig, notes, header, columns,
               console=()) -> None:
    """Write one experiment CSV: column names first, then a '#' metadata
    block (tool version, resolved config, defaults, notes), then data rows
    read across ``columns``, each column formatted in one pass.  Only then
    print the ``console`` (stream, line) pairs, so a closed pipe costs no CSV."""
    lines = [",".join(header)]
    lines += [f"# vortex-uca {__version__}", f"# subcommand: {subcommand}"]
    lines += [f"# {note}" for note in notes]
    lines.append("# resolved config:")
    lines += [f"#   {ln}" for ln in render_config(config).splitlines()]
    defaulted = " ".join(config.defaulted) if config.defaulted else "none"
    lines.append(f"# defaulted keys: {defaulted}")
    lines += map(",".join, zip(*map(_cells, columns)))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    for stream, line in console:
        print(line, file=stream)


def _resolve_sweep(config: RunConfig, subcommand: str, grid_arg: str | None) -> RunConfig:
    """Fix the sweep actually used: --grid beats config, config beats defaults."""
    default = _SUBCOMMANDS[subcommand][2]
    if default is None:
        if grid_arg is not None or config.sweep is not None:
            source = "grid" if grid_arg is not None else "sweep"
            raise ValidationError(source, f"subcommand {subcommand} takes no sweep grid")
        return config
    variable, defaulted = default[0], config.defaulted
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
        if config.sweep.variable != variable:
            raise ValidationError(
                "variable",
                f"subcommand {subcommand} sweeps {variable!r}, "
                f"config says {config.sweep.variable!r}",
            )
        sweep = config.sweep
    else:
        sweep = SweepSpec(*default)
        defaulted += ("sweep.*",)
    return dataclasses.replace(config, sweep=sweep, defaulted=defaulted)


def _angle_field(sweep: SweepSpec) -> str:
    """Check an angle sweep's bounds; return the LinkGeometry field it sweeps."""
    if sweep.variable == "phi":
        if sweep.start < 0.0 or sweep.stop > HALF_PI:
            raise ValidationError("sweep", "phi grid must lie within [0, pi/2]")
    elif sweep.variable == "theta":
        if sweep.start < 0.0 or sweep.stop >= TWO_PI:
            raise ValidationError("sweep", "theta grid must lie within [0, 2*pi)")
    return _SWEEP_FIELDS[sweep.variable]


def run_error_sweep(config: RunConfig, out_path: str) -> None:
    """Worst-case closed-form error per mode across array sizes."""
    sweep = config.sweep
    sizes = []
    for value in sweep.grid():
        rounded = round(float(value))
        if abs(value - rounded) > 1e-9 or rounded < 2 or rounded % 2:
            raise ValidationError("sweep", f"element-count grid must be even integers, got {value}")
        sizes.append(int(rounded))

    rows, excluded = [], []
    for n in sizes:
        geom = dataclasses.replace(config.geometry, n_tx=n, n_rx=n)
        modes = mode_index_set(geom)
        kept = [mode for mode in range(0, 9) if mode in modes]
        excluded += [f"mode {mode} outside the mode set of n_elements={n}"
                     for mode in range(0, 9) if mode not in modes]
        rows += zip([n] * len(kept), kept, worst_approximation_error(geom, kept))
    _write_csv(out_path, "error-sweep", config, [f"excluded: {x}" for x in excluded],
               ("n_elements", "mode", "log10_error"), zip(*rows),
               [(sys.stderr, f"note: {x}; skipped") for x in excluded])


def run_gain_sweep(config: RunConfig, out_path: str) -> None:
    """Per-mode amplitude gains versus tilt (phi) or bearing (theta), as the sweep says."""
    sweep, geometry = config.sweep, config.geometry
    fieldname = _angle_field(sweep)
    grid = sweep.grid()
    panels = np.array([m for m in _GAIN_PANELS if m <= geometry.n_rx])
    modes = np.array(mode_index_set(geometry))
    gains, degenerate = _sweep_gains(geometry, fieldname, grid, panels)
    # Rows run angle-major, then panel, then mode: each repeated column is
    # formatted once from its source vector and its strings repeated.
    per_angle = len(panels) * len(modes)
    columns = ([cell for cell in _cells(grid) for _ in range(per_angle)],
               [cell for cell in _cells(panels) for _ in range(len(modes))] * len(grid),
               _cells(modes) * (len(grid) * len(panels)), gains.ravel())
    gaps = [f"degenerate geometry at angle={angle!r} m={m} mode={mode}"
            for angle in grid[degenerate].tolist() for m in panels for mode in modes]
    _write_csv(out_path, f"gain-vs-{sweep.variable}", config, [f"gap: {gap}" for gap in gaps],
               ("angle_rad", "m", "mode", "gain"), columns,
               [(sys.stderr, f"note: {gap}") for gap in gaps])


def run_se_sweep(config: RunConfig, out_path: str) -> None:
    """Spectrum efficiency versus tilt angle."""
    sweep, geometry = config.sweep, config.geometry
    _angle_field(sweep)
    budget = LinkBudget.uniform(geometry, config.mode_power, config.noise_variance, config.seed)
    points = se_sweep(geometry, "phi", sweep.grid(), budget)
    gaps = [f"unevaluable point at phi={p.value!r}" for p in points
            if p.spectrum_efficiency is None]
    notes = [f"gap: {gap}" for gap in gaps]
    notes.append("budget: uniform per-mode power and per-element noise variance as configured")
    se = [math.nan if p.spectrum_efficiency is None else p.spectrum_efficiency for p in points]
    _write_csv(out_path, "se-vs-phi", config, notes,
               ("phi_rad", "spectrum_efficiency"), ([p.value for p in points], se),
               [(sys.stderr, f"note: {gap}") for gap in gaps])


def run_demux_demo(config: RunConfig, out_path: str) -> None:
    """Round-trip demonstration through the mode model and the exact channel."""
    geometry = config.geometry
    modes = mode_index_set(geometry)
    rng = np.random.default_rng(config.seed)
    symbols = ModeSymbolVector(np.exp(2j * math.pi * rng.random(len(modes))), modes)
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

    errors = []
    console = [(sys.stdout, f"demux demo: {len(modes)} modes, seed {config.seed}")]
    for variant, noise_tag, rx in received:
        errors.append(np.abs(demultiplex(rx, geometry).estimated_symbols - symbols.symbols))
        console.append((sys.stdout, f"  {variant:<9} {noise_tag:<10} "
                                    f"max |estimate - symbol| = {errors[-1].max():.6e}"))

    off = np.abs(crosstalk_matrix(geometry) - np.eye(len(modes)))
    console.append((sys.stdout, f"  crosstalk max off-diagonal = {off.max():.6e}"))
    notes = [f"crosstalk_max_offdiagonal = {float(off.max())!r}"]

    columns = ([variant for variant, _, _ in received for _ in modes],
               [noise_tag for _, noise_tag, _ in received for _ in modes],
               np.tile(modes, len(received)), np.concatenate(errors))
    _write_csv(out_path, "demux-demo", config, notes,
               ("channel_variant", "noise", "mode", "symbol_error"), columns, console)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortex-uca",
        description="OAM link experiments for non-coaxial uniform circular arrays",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS, metavar="SUBCOMMAND",
                        help="; ".join(f"{name}: {help_text}"
                                       for name, (help_text, _, _) in _SUBCOMMANDS.items()))
    parser.add_argument("--config", metavar="PATH", help="config file (defaults when omitted)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    parser.add_argument("--grid", metavar="START:STOP:STEPS", help="override the sweep grid")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            with open(args.config, encoding="utf-8") as handle:
                try:
                    text = handle.read()
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"{args.config}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                    ) from None
        config = parse_config(text)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        config = _resolve_sweep(config, args.subcommand, args.grid)
        if args.subcommand == "gain-vs-theta" and "geometry.phi_rad" in config.defaulted:
            tilted = dataclasses.replace(config.geometry, tilt_phi=_THETA_SWEEP_DEFAULT_TILT)
            config = dataclasses.replace(config, geometry=tilted)
        out_path = args.out or args.subcommand.replace("-", "_") + ".csv"
        runner = globals()[_SUBCOMMANDS[args.subcommand][1]]
        runner(config, out_path)
    except (VortexUcaError, OSError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass  # stderr is gone as well; the exit status still reports the failure
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
