"""Calibration sweeps that freeze the empirical constants.

Each constant is the extremal value of a seeded deterministic sweep, padded
by a safety factor, stored with the settings that produced it.  Re-running
the sweeps with the same settings must stay on the safe side of the frozen
values (``off_safe_side``).  The test suite asserts that for every sweep
but ``c_str``; the CI workflow re-runs all eight through ``hdlab calibrate``.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import ConstantsFile
from .counting import gowers_cs_bound
from .decomposition import (ScaleLadder, check_error_bound, check_structured_bound,
                            check_uniform_bound)
from .grid import PlanarGrid, make_indicator
from .sphere import (THETA, CircleQuadrature, decay_envelope,
                     domination_integral, lower_bound_constant,
                     smooth_sphere_value)
from .gaussian import KernelSpec

VERSION = "1"


def random_mask(side: float, nodes: int, density: float, seed: int) -> PlanarGrid:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    vals = (rng.random((nodes, nodes)) < density).astype(np.float64)
    return PlanarGrid(side, side / nodes, vals)


def random_grid(side: float, nodes: int, seed: int) -> PlanarGrid:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return PlanarGrid(side, side / nodes, rng.random((nodes, nodes)))


def calibrate_ball_floor(node_count: int = 256, radial_steps: int = 801):
    value, radius = lower_bound_constant(node_count, radial_steps)
    return {
        "value": value * 0.99,
        "settings": {"M": node_count, "radial_steps": radial_steps,
                     "observed": value, "attained_radius": radius},
    }


def calibrate_decay(max_radius: float = 100.0, steps: int = 1201, nodes: int = 1600):
    radii = np.linspace(10.0, max_radius, steps)
    q = CircleQuadrature(nodes, 1.0)
    observed = decay_envelope(q, radii)
    return {
        "value": observed * 1.05,
        "settings": {"radii": [10.0, max_radius], "steps": steps, "M": nodes,
                     "observed": observed},
    }


def calibrate_domination(lam: float = 1.0):
    pairs = [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25), (1.0, 0.25), (0.5, 0.25), (0.5, 0.125)]
    radii = np.array([0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0]) * lam
    pts = np.stack([radii, np.zeros_like(radii)], axis=-1)
    q = CircleQuadrature(256, lam)
    worst = 0.0
    for t, eps in pairs:
        lhs = smooth_sphere_value(q, KernelSpec("g", t * lam), pts)
        rhs = eps**-3 * domination_integral(pts, THETA * t * lam)[0]
        worst = max(worst, float(np.max(lhs / np.maximum(rhs, 1e-300))))
    return {
        "value": worst * 1.2,
        "settings": {"lambda": lam, "pairs": pairs, "radii": radii.tolist(),
                     "observed": worst},
    }


def calibrate_gcs(count: int = 100, nodes: int = 32, seed: int = 1000):
    worst = math.inf
    for i in range(count):
        f = random_grid(1.0, nodes, seed + i)
        chk = gowers_cs_bound(f, 2, (0.0, 0.0, 1.0))
        worst = min(worst, chk.ratio)
    return {
        "value": worst * 0.95,
        "settings": {"count": count, "nodes": nodes, "seed": seed, "n": 2,
                     "observed": worst},
    }


def calibrate_structured(count: int = 50, nodes: int = 32, seed: int = 2000):
    lams = (0.125, 0.25, 0.5)
    masks = (random_mask(1.0, nodes, 0.1 + 0.8 * (i / max(count - 1, 1)), seed + i)
             for i in range(count))
    # one mask at a time, so each grid's memoised four-point table goes with it
    worst = min(check_structured_bound([f], lams, n, quadrature_nodes=64).observed
                for f in masks for n in (1, 2))
    return {
        "value": worst * 0.9,
        "settings": {"count": count, "nodes": nodes, "seed": seed,
                     "lambdas": list(lams), "orders": [1, 2],
                     "observed": worst},
    }


def calibrate_error(seed: int = 3000):
    disk = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.4}], 1.0, 1.0 / 128)
    mask = random_mask(1.0, 128, 0.5, seed)
    worst = 0.0
    ladder = ScaleLadder.geometric(1.0 / 16, 4)
    for f in (disk, mask):
        for eps in (0.25, 0.5):
            chk = check_error_bound(f, ladder, eps, 1, quadrature_nodes=128)
            ratio = chk.observed / (eps**-3 * math.log(1.0 / eps) * f.side**2)
            worst = max(worst, ratio)
    return {
        "value": worst * 1.2,
        "settings": {"J": 4, "eps": [0.25, 0.5], "n": 1, "seed": seed,
                     "observed": worst},
    }


def _annulus_heavy(side: float = 4.0, nodes: int = 256) -> PlanarGrid:
    # rings at the probe scale make the sharp/smooth gap as large as this
    # resolution allows
    shapes = []
    for k in range(3):
        r0 = 0.55 + 0.5 * k
        shapes.append({"type": "disk", "cx": 2.0, "cy": 2.0, "r": r0 + 0.1})
    g = make_indicator(shapes, side, side / nodes)
    inner = make_indicator(
        [{"type": "disk", "cx": 2.0, "cy": 2.0, "r": 0.55 + 0.5 * k} for k in range(3)],
        side, side / nodes)
    vals = np.clip(g.values - inner.values, 0.0, 1.0)
    return PlanarGrid(side, side / nodes, vals)


def calibrate_uniform(seed: int = 4000):
    disk = make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 1}], 4.0, 1.0 / 64)
    rings = _annulus_heavy()
    mask = random_mask(4.0, 256, 0.5, seed)
    eps_values = [2.0**-k for k in range(1, 7)]
    worst = 0.0
    for f in (disk, rings, mask):
        chk = check_uniform_bound(f, 1.0, eps_values, 1, quadrature_nodes=256)
        worst = max(worst, chk.observed)
    return {
        "value": worst * 1.25,
        "settings": {"lambda": 1.0, "eps": eps_values, "n": 1, "seed": seed,
                     "observed": worst},
    }


def calibrate_depth_coefficient():
    configs = [(0.5, 1, 3), (0.25, 1, 3)]
    worst = 0.0
    for delta, n, depth in configs:
        worst = max(worst, depth * delta ** ((3 * n + 1) * 2 ** (n + 1)))
    return {
        "value": worst * 1.5,
        "settings": {"configs": configs, "observed": worst},
    }


# each constant with its sweep and the side of the frozen value a re-run
# must stay on: a lower bound (padded down) may only be observed at or
# above its value, an upper bound (padded up) at or below it
SWEEPS = {
    "c_ball": (calibrate_ball_floor, "lower"),
    "C_decay": (calibrate_decay, "upper"),
    "C_domination": (calibrate_domination, "upper"),
    "c_gcs": (calibrate_gcs, "lower"),
    "c_str": (calibrate_structured, "lower"),
    "C_err": (calibrate_error, "upper"),
    "C_uni": (calibrate_uniform, "upper"),
    "J_coeff": (calibrate_depth_coefficient, "upper"),
}


def run_calibration() -> ConstantsFile:
    return ConstantsFile(VERSION, {name: sweep() for name, (sweep, _) in SWEEPS.items()})


def off_safe_side(entries: dict, frozen: ConstantsFile) -> list[str]:
    """One message per re-run entry whose observed value crosses the frozen
    value of its constant; empty when all stay on the safe side."""
    out = []
    for name, entry in entries.items():
        observed, value = float(entry["settings"]["observed"]), frozen.value(name)
        side = SWEEPS[name][1]
        if not (observed >= value if side == "lower" else observed <= value):
            out.append(f"{name}: observed {observed!r} is not on the safe ({side} bound) "
                       f"side of the frozen {value!r}")
    return out
