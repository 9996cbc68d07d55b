"""Seeded input generators and independent output oracles for the benchmark.

Everything here runs in the harness process, never in the process that runs
the program: it uses numpy and ``scipy.special.jv`` only, and no part of
``vortex_uca``.  Generators return plain JSON-able data, so the program
receives only numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

TWO_PI = 2.0 * math.pi

# The library refuses per-mode inversion below this |J_l(b_m)|; mirrored
# here so the oracle can predict the same gaps.
INVERSION_TOL = 1e-12
DEGENERACY_TOL = 1e-15

CLI_SUBCOMMANDS = ("error-sweep", "gain-vs-phi", "gain-vs-theta", "se-vs-phi", "demux-demo")

# se-design: (array size, grid length) cells.  A designer sweeps a small
# array on a fine grid and a large one on a coarse grid, since a point costs
# more the more modes it carries; so op costs stay within a few times of one
# another and a 30 s run's quantiles are steady.  Each block of ops holds
# every cell once, so the op mix of a run does not depend on the seed.
SE_CELLS = ((8, 12), (8, 24), (16, 6), (16, 12), (32, 3), (32, 6), (64, 1), (64, 3))
SE_BLOCKS = 320  # 2560 ops; the worker cycles through them if it runs out

# demux-mc: coaxial links only, because a tilted link leaks between modes
# and the noiseless round trip would not return the symbols.
DEMUX_SIZES = (8, 16, 32)
DEMUX_TRIALS_PER_GEOMETRY = 3000
DEMUX_GEOMETRIES = 384  # above the library's LRU size (256)
DEMUX_SYMBOL_BLOCK = 16
DEMUX_WAVELENGTH = 0.01
DEMUX_RADIUS = 0.2
# Screening floor on min |J_l(b)|.  The noiseless round trip loses about
# eps / min |J_l(b)| to cancellation between modes, so a link that merely
# inverts (|J| >= INVERSION_TOL) can miss the 1e-9 round-trip check.
DEMUX_MIN_GAIN = 1e-5


def mode_set(n: int) -> list[int]:
    """Mode numbers of an n-element transmit array (same rule as the library)."""
    lower = (2 - n) / 2
    lower = math.ceil(lower) if lower < 0 else math.floor(lower)
    return list(range(lower, math.floor(n / 2) + 1))


_WORKLOAD_TAGS = {"se-design": 1, "demux-mc": 2}


def generate(workload: str, seed: int) -> dict:
    if workload == "cli-figures":
        # Inputs are fixed by definition: the five subcommands at defaults.
        return {"workload": workload, "subcommands": list(CLI_SUBCOMMANDS)}
    rng = np.random.default_rng([seed, _WORKLOAD_TAGS[workload]])
    if workload == "se-design":
        return {"workload": workload, "ops": _se_design_ops(rng)}
    if workload == "demux-mc":
        return {"workload": workload, "geometries": _demux_geometries(rng)}
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _se_design_ops(rng) -> list[dict]:
    ops = []
    for _ in range(SE_BLOCKS):
        for i in rng.permutation(len(SE_CELLS)):
            n, steps = SE_CELLS[i]
            r, big_r, d = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2), rng.uniform(2.0, 8.0)
            # A designer sizes the aperture for the modes carried: the
            # coaxial Bessel argument scales with n.
            b0 = rng.uniform(0.35, 1.0) * (0.5 * n + 2.0)
            # Tilts as in-plane offset over rx radius; near 1 an element
            # faces the projected tx center and high modes vanish there.
            u0 = rng.uniform(0.0, 2.0)
            u = np.linspace(u0, u0 + rng.uniform(0.05, 0.6), steps)
            ops.append({
                "n": n,
                "radius_tx": r,
                "radius_rx": big_r,
                "distance": d,
                "wavelength": TWO_PI * r * big_r / (d * b0),
                "bearing": rng.uniform(0.0, TWO_PI),
                "alpha_tx": rng.uniform(0.0, TWO_PI),
                "alpha_rx": rng.uniform(0.0, TWO_PI),
                "noise_variance": 10.0 ** rng.uniform(-7.0, -5.0),
                "noise_seed": int(rng.integers(0, 2**32)),
                "tilts": np.arcsin(u * big_r / d).tolist(),
            })
    return ops


def _demux_geometries(rng) -> list[dict]:
    from scipy.special import jv

    out = []
    while len(out) < DEMUX_GEOMETRIES:
        for n in rng.permutation(DEMUX_SIZES):
            while True:
                g = {
                    "n": int(n),
                    "radius": DEMUX_RADIUS,
                    "wavelength": DEMUX_WAVELENGTH,
                    "distance": rng.uniform(1.5, 3.0),
                    "alpha_tx": rng.uniform(0.0, TWO_PI),
                    "alpha_rx": rng.uniform(0.0, TWO_PI),
                }
                srange = math.sqrt(g["distance"] ** 2 + 2 * DEMUX_RADIUS**2)
                b = TWO_PI * DEMUX_RADIUS * DEMUX_RADIUS / (DEMUX_WAVELENGTH * srange)
                if np.min(np.abs(jv(mode_set(g["n"]), b))) >= DEMUX_MIN_GAIN:
                    break
            n_modes = len(mode_set(g["n"]))
            g["noise_variance"] = rng.uniform(1e-4, 1e-2)
            g["noise_seed"] = int(rng.integers(0, 2**32))
            # QPSK symbol codes, one row per trial slot.
            g["codes"] = rng.integers(0, 4, (DEMUX_SYMBOL_BLOCK, n_modes)).tolist()
            out.append(g)
    return out[:DEMUX_GEOMETRIES]


def se_oracle(op: dict) -> list[tuple[float | None, float]]:
    """(SE, min |J_l(b_m)|) at every tilt of an se-design op, from scipy's jv.

    Follows the paper's far-field model directly: per-element Bessel
    argument b_m, aggregated per-mode noise sum(sigma^2 / |J_l(b_m)|^2) and
    SE = sum_l log2(1 + M^2 |h|^2 p / var_l).  SE is ``None`` at a gap.
    """
    from scipy.special import jv

    n = op["n"]
    r, big_r, d, lam = op["radius_tx"], op["radius_rx"], op["distance"], op["wavelength"]
    modes = np.array(mode_set(n))
    srange = math.sqrt(d * d + r * r + big_r * big_r)
    h_power = n * (lam / srange) ** 2  # beta = 4*pi
    gap = TWO_PI * np.arange(n) / n + op["alpha_rx"] - op["bearing"]
    out = []
    for tilt in op["tilts"]:
        inplane = d * math.sin(tilt)
        if np.min(np.hypot(big_r - inplane * np.cos(gap), inplane * np.sin(gap))) <= DEGENERACY_TOL:
            out.append((None, math.nan))
            continue
        spread = np.sqrt(big_r**2 + inplane**2 - 2.0 * big_r * inplane * np.cos(gap))
        c_abs = np.abs(jv(modes[:, None], TWO_PI * r * spread / (lam * srange)))
        low = float(np.min(c_abs))
        if low < INVERSION_TOL:
            out.append((None, low))
            continue
        var = np.sum(op["noise_variance"] / c_abs**2, axis=1)
        out.append((float(np.sum(np.log2(1.0 + n**2 * h_power / var))), low))
    return out


# CSV cells at rounding level carry no information, and any correct change
# that reorders floating-point operations moves them.  A numeric cell is
# compared within rtol plus an absolute floor of ROUNDING times the largest
# magnitude in its column of the reference: noiseless symbol errors of
# 1e-17 to 1e-11 sit next to noisy ones of up to 5e3 in the same column.
ROUNDING = 1e-12
# ``log10_*`` columns hold log10 |closed - direct| of gains below 1 (the
# direct sum's own rounding is 1e-16 to 1e-15); they are compared as
# magnitudes, and differences below LOG10_FLOOR count as equal.
LOG10_FLOOR = 1e-12
# Numbers in '#' metadata lines are config echoes of order 1 and summary
# values such as the crosstalk of a coaxial link, which is rounding (1e-11).
META_FLOOR = 1e-9
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _compare_meta(a: str, b: str, rtol: float) -> bool:
    """Same words, and the same numbers within rtol plus META_FLOOR."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return False
    return all(_close(float(x), float(y), rtol, META_FLOOR)
               for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)))


def compare_csv(text: str, reference: str, rtol: float = 1e-9) -> str | None:
    """None when ``text`` matches ``reference``; otherwise the first difference.

    The header must match exactly; '#' lines must have the same words and
    their numbers within rtol plus META_FLOOR; numeric cells within rtol
    plus the column's rounding floor (NaN matches NaN); other cells exactly.
    """
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, reference has {len(want)}"
    header = want[0].split(",")
    logs = [h.startswith("log10_") for h in header]
    rows = [ln.split(",") for ln in want[1:] if not ln.startswith("#")]
    atol = []
    for j, is_log in enumerate(logs):
        values = []
        for row in rows:
            try:
                v = float(row[j])
            except (ValueError, IndexError):
                continue
            if not math.isnan(v):
                values.append(v)
        atol.append(LOG10_FLOOR if is_log else ROUNDING * max(map(abs, values), default=0.0))
    for i, (a, b) in enumerate(zip(got, want)):
        if a == b:
            continue
        if i == 0:
            return f"header differs: {a!r} vs {b!r}"
        if a.startswith("#") or b.startswith("#"):
            if a.startswith("#") and b.startswith("#") and _compare_meta(a, b, rtol):
                continue
            return f"line {i + 1} differs: {a!r} vs {b!r}"
        ca, cb = a.split(","), b.split(",")
        if len(ca) != len(cb):
            return f"line {i + 1} has {len(ca)} cells, reference {len(cb)}"
        for j, (x, y) in enumerate(zip(ca, cb)):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return f"line {i + 1}: {x!r} vs {y!r}"
            if logs[j]:
                fx, fy = 10.0**fx, 10.0**fy
            if not _close(fx, fy, rtol, atol[j]):
                return f"line {i + 1}: {x} vs {y} beyond rtol {rtol} + {atol[j]:.3g}"
    return None
