"""The three workloads: inputs made from a seed, the jobs of one pass, checks.

A job is one operation: it runs once per pass and its output is checked
after the pass, outside the timed region.  A check raises ``CheckFailed``
or returns ``{label: relative deviation}`` for the comparisons that count
towards ``ref_dev``.  Checks compare against ``oracles`` or against
identities the method must satisfy, never against stored outputs.

The seed places every set by whole cells (and picks the orientation of the
decompose rectangle).  Shapes keep their size in cells, so each pass does the same
amount of work and meets the same discretisation error on every seed,
while the program sees different inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from hdlab import cli, counting, decomposition, embedding, grid


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    name: str
    run: Callable[[Path], object]        # pass directory -> output
    check: Callable[[dict], dict]        # all outputs of the pass -> {label: deviation}


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def rel_dev(value, reference):
    return abs(value / reference - 1.0)


def cli_job(name, config, check) -> Job:
    def run(pass_dir: Path):
        out = pass_dir / name
        code = cli.run(config, out)
        if code != 0:
            raise CheckFailed(f"hdlab exited with status {code}")
        return out

    return Job(name, run, check)


def cli_report(out_dir: Path, filename: str) -> dict:
    doc = json.loads((out_dir / filename).read_text())
    return doc["report"]


def replay(config_jobs, pass_dir: Path):
    """Run the pass's CLI configs again into the same directories (cache hits)."""
    for name, config in config_jobs:
        code = cli.run(config, pass_dir / name)
        if code != 0:
            raise CheckFailed(f"replay of {name} exited with status {code}")


def place(rng, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


# ---------------------------------------------------------------------------
# decompose: CLI decompose configs, n = 1 and n = 2, 3-scale ladder, M = 128


class Decompose:
    """The three-part split as CLI users run it.

    Sets: a 20 x 12-cell rectangle at h = 1/16 in a 40-node window (ring
    padding 2, 51 MB offset table) and a disk of radius 18 cells at
    h = 1/32 in a 64-node window (padding 3, 132 MB table), each with
    n = 1 and n = 2.
    """

    cli_driven = True
    LADDER = {"smallest": 0.125, "count": 3}
    EPS = 0.25
    M = 128
    MC = {"samples": 4000, "seed": 2024}   # fixed, so the 3-sigma test has one outcome

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        h = 1 / 16
        w, t = (20, 12) if rng.integers(2) else (12, 20)
        i0, j0 = place(rng, 2, 38 - w), place(rng, 2, 38 - t)
        rect = {"type": "rect", "x0": i0 * h, "y0": j0 * h, "x1": (i0 + w) * h, "y1": (j0 + t) * h}
        hd = 1 / 32
        cx, cy = (32 + place(rng, -8, 8)) * hd, (32 + place(rng, -8, 8)) * hd
        disk = {"type": "disk", "cx": cx, "cy": cy, "r": 18 * hd}
        self.sets = {"rect": (2.5, h, rect), "disk": (2.0, hd, disk)}
        self.configs = []
        for name in self.sets:
            side, step, shape = self.sets[name]
            for n in (1, 2):
                self.configs.append((f"{name}-n{n}", {
                    "command": "decompose",
                    "set": {"R": side, "h": step, "shapes": [shape]},
                    "n": n, "eps": self.EPS, "M": self.M, "ladder": dict(self.LADDER),
                }))
        self._mc = None

    def lambdas(self):
        lo, count = self.LADDER["smallest"], self.LADDER["count"]
        return [lo * 2.0**j for j in range(count)]

    def pixel_area(self, name):
        side, step, shape = self.sets[name]
        return float(oracles.raster([shape], side, step).sum()) * step * step

    def oracle(self, name, lam):
        shape = self.sets[name][2]
        if shape["type"] == "disk":
            return oracles.lens_area(shape["r"], lam)
        return oracles.rect_pair_area(shape["x1"] - shape["x0"], shape["y1"] - shape["y0"], lam)

    def monte_carlo(self):
        """n = 2, eps = 1 Monte Carlo value of the disk at the top scale (once per run)."""
        if self._mc is None:
            side, step, shape = self.sets["disk"]
            g = grid.make_indicator([shape], side, step)
            params = counting.CountingParams(n=2, lam=self.lambdas()[-1], eps=1.0,
                                             estimator=counting.MONTE_CARLO,
                                             mc_samples=self.MC["samples"], seed=self.MC["seed"])
            rep = counting.counting_smooth(g, params)
            self._mc = (rep.value, rep.estimator_stderr)
        return self._mc

    def jobs(self):
        return [cli_job(name, config, self._checker(name)) for name, config in self.configs]

    def _checker(self, job):
        set_name, n = job.split("-n")[0], int(job[-1])

        def check(outputs):
            rows = cli_report(outputs[job], "decompose.json")["rows"]
            lams = self.lambdas()
            require([r["lambda"] for r in rows] == lams, f"{job}: ladder {[r['lambda'] for r in rows]}")
            for r in rows:
                parts = r["structured"] + r["error"] + r["uniform"]
                require(r["telescoping_ok"] and abs(parts - r["sharp"]) <= 1e-9 * max(abs(r["sharp"]), 1.0),
                        f"{job}: parts sum to {parts!r}, sharp is {r['sharp']!r}")
            devs = {}
            if n == 1:
                area = self.pixel_area(set_name)
                for r in rows:
                    ref = self.oracle(set_name, r["lambda"])
                    dev = rel_dev(r["sharp"], ref)
                    require(dev <= 0.02, f"{job}: sharp {r['sharp']:.6g} vs oracle {ref:.6g} at lambda {r['lambda']}")
                    require(r["sharp"] <= area * (1 + 1e-12), f"{job}: sharp {r['sharp']:.6g} above |A| = {area:.6g}")
                    devs[f"{job}@{r['lambda']}"] = dev
                return devs
            ones = cli_report(outputs[f"{set_name}-n1"], "decompose.json")["rows"]
            for r, r1 in zip(rows, ones):
                require(0.0 <= r["sharp"] <= r1["sharp"] * (1 + 1e-12),
                        f"{job}: n = 2 sharp {r['sharp']:.6g} outside [0, n = 1 sharp {r1['sharp']:.6g}]")
            if set_name == "disk":
                value, stderr = self.monte_carlo()
                top = rows[-1]["structured"]
                require(abs(top - value) <= 3.0 * stderr,
                        f"{job}: smoothed n = 2 {top:.6g} vs Monte Carlo {value:.6g} +- {stderr:.2g}")
            return devs

        return check

    def warm_up(self, work: Path):
        config = {"command": "decompose",
                  "set": {"R": 1.0, "h": 0.125, "shapes": [{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}]},
                  "n": 2, "eps": 0.5, "M": 8, "ladder": {"smallest": 0.125, "count": 2}}
        require(cli.run(config, work / "warm-up") == 0, "warm-up decompose failed")


# ---------------------------------------------------------------------------
# scale_forms: L_form and theta_form on zero-extended grids, library calls


class ScaleForms:
    """Read-heavy use of the offset table: one build per grid and pass, then
    hundreds of ring/ball tent and assemble calls in the outer quadrature.

    Grids: a disk of radius 10 cells in a 48-node window, a 16 x 10-cell
    rectangle in a 40-node window, a disk-and-bar union in a 32-node window,
    all at h = 1/16.
    """

    cli_driven = False
    ALPHA, BETA, M = 0.25, 1.0, 128
    GAMMAS = {1: (1.0,), 2: (1.0, math.sqrt(2.0))}

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        h = 1 / 16
        self.grids = []
        cx, cy = (24 + place(rng, -8, 8)) * h, (24 + place(rng, -8, 8)) * h
        self.grids.append(("disk", 3.0, h, 0.25, [{"type": "disk", "cx": cx, "cy": cy, "r": 10 * h}]))
        # one orientation: peak RSS differed by 8 MB between the two
        i0, j0 = place(rng, 2, 22), place(rng, 2, 28)
        self.grids.append(("rect", 2.5, h, 0.5, [{"type": "rect", "x0": i0 * h, "y0": j0 * h,
                                                  "x1": (i0 + 16) * h, "y1": (j0 + 10) * h}]))
        ux, uy = place(rng, 7, 14), place(rng, 7, 20)
        self.grids.append(("union", 2.0, h, 0.25, [
            {"type": "disk", "cx": ux * h, "cy": uy * h, "r": 6 * h},
            {"type": "rect", "x0": (ux + 8) * h, "y0": (uy - 2) * h, "x1": (ux + 16) * h, "y1": (uy + 2) * h},
        ]))

    def jobs(self):
        built = {}

        def grid_of(name, side, step, shapes):
            if name not in built:
                built[name] = grid.make_indicator(shapes, side, step)
            return built[name]

        jobs = []
        for name, side, step, lam, shapes in self.grids:
            get = (lambda name=name, side=side, step=step, shapes=shapes:
                   grid_of(name, side, step, shapes))
            # for a 0/1 set the 2^n-th power of the samples is the set itself,
            # so 2 pi ||f||^(2^n) is 2 pi |A| for every n
            target = 2.0 * math.pi * float(oracles.raster(shapes, side, step).sum()) * step * step
            for n in (1, 2):
                jobs.append(Job(f"{name}-L{n}", self._l_run(get, lam, n), self._l_check(f"{name}-L{n}")))
                jobs.append(Job(f"{name}-T{n}", self._t_run(get, n), self._t_check(f"{name}-T{n}", target)))
        return jobs

    def _l_run(self, get, lam, n):
        def run(pass_dir):
            f = get()
            parts = [decomposition.L_form(f, lam, self.ALPHA, self.BETA, m, n, quadrature_nodes=self.M)
                     for m in range(1, n + 1)]
            smooth = [counting.counting_smooth(f, counting.CountingParams(
                n=n, lam=lam, eps=e, quadrature_nodes=self.M)).value for e in (self.ALPHA, self.BETA)]
            return parts, smooth

        return run

    def _l_check(self, job):
        def check(outputs):
            parts, (sa, sb) = outputs[job]
            total = sum(p.value for p in parts)
            dev = rel_dev(total, sa - sb)
            require(dev <= 0.01, f"{job}: sum of L_form {total:.6g} vs smooth_a - smooth_b {sa - sb:.6g}")
            return {job: dev}

        return check

    def _t_run(self, get, n):
        def run(pass_dir):
            f = get()
            return [decomposition.theta_form(f, self.GAMMAS[n], m) for m in range(1, n + 1)]

        return run

    def _t_check(self, job, target):
        def check(outputs):
            parts = outputs[job]
            total = sum(p.value for p in parts)
            for p in parts:
                require(p.value >= -1e-6 * target, f"{job}: theta {p.value:.6g} negative")
            dev = rel_dev(total, target)
            require(dev <= 0.02, f"{job}: sum of theta {total:.6g} vs 2 pi |f|^(2^n) {target:.6g}")
            return {job: dev}

        return check

    def warm_up(self, work: Path):
        f = grid.make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 0.125)
        decomposition.L_form(f, 0.25, 0.25, 1.0, 2, 2, tnodes=4, quadrature_nodes=16)
        decomposition.theta_form(f, (1.0, math.sqrt(2.0)), 1, nodes=8)


# ---------------------------------------------------------------------------
# witness_scan: CLI embed configs on a rasterised set and a PGM bitmap


class WitnessScan:
    """Direct search for copies, first witness deep in the cursor order.

    Both sets sit in the right part of the unit window, so every base point
    of the rows before them is walked (and rejected) first.  The seed moves
    them along x2 only, which keeps the cursor depth within one lattice row.
    """

    cli_driven = True
    SIDE = 1.0

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 3])
        h = 1 / 64
        y = place(rng, 12, 40)
        self.shapes = [{"type": "disk", "cx": 44 * h, "cy": y * h, "r": 8 * h},
                       {"type": "rect", "x0": 38 * h, "y0": (y + 10) * h, "x1": 50 * h, "y1": (y + 22) * h}]
        self.shape_step = h
        self.shape_mask = oracles.raster(self.shapes, self.SIDE, h)
        c = 1 / 128
        yb = place(rng, 30, 90)
        pgm_shapes = [{"type": "disk", "cx": 84 * c, "cy": yb * c, "r": 14 * c},
                      {"type": "rect", "x0": 98 * c, "y0": (yb - 3) * c, "x1": 116 * c, "y1": (yb + 3) * c}]
        self.pgm_cell = c
        self.pgm_mask = oracles.raster(pgm_shapes, self.SIDE, c)
        self.pgm_path = work / "set.pgm"
        oracles.write_pgm(self.pgm_path, self.pgm_mask)
        shapes_set = {"R": self.SIDE, "h": h, "shapes": self.shapes}
        pgm_set = {"pgm": str(self.pgm_path), "side": self.SIDE}
        self.configs = [
            ("shapes-n1", shapes_set, [0.2], {"x_step": h, "angles": 90}),
            ("shapes-n2", shapes_set, [0.14, 0.1], {"x_step": h, "angles": 90}),
            ("pgm-n2", pgm_set, [0.12, 0.12], {"x_step": h, "angles": 90}),
            ("pgm-n3", pgm_set, [0.1, 0.08, 0.06], {"x_step": h, "angles": 24}),
            ("pgm-none", pgm_set, [0.9, 0.9], {"x_step": 1 / 32, "angles": 36}),
        ]
        self.configs = [(name, {"command": "embed", "set": s, "lengths": lengths,
                                "search": dict(search, eta_len=search["x_step"], eta_gap=1e-3)})
                        for name, s, lengths, search in self.configs]

    def jobs(self):
        return [cli_job(name, config, self._checker(name, config)) for name, config in self.configs]

    def _checker(self, job, config):
        search, lengths = config["search"], config["lengths"]
        x_step, angles = search["x_step"], search["angles"]
        n = len(lengths)
        pts = oracles.lattice_count(self.SIDE, x_step)
        if job.startswith("pgm"):
            mask, cell = self.pgm_mask, self.pgm_cell
        else:
            mask, cell = self.shape_mask, self.shape_step

        def check(outputs):
            rep = cli_report(outputs[job], "embed.json")
            devs = {}
            if job.endswith("none"):
                # no witness can exist: lambda exceeds the diagonal of the set's bounding box
                ii, jj = np.nonzero(mask)
                diag = math.hypot(ii.max() - ii.min() + 1, jj.max() - jj.min() + 1) * cell
                require(min(lengths) > diag, f"{job}: lambda not above the set diameter")
                total = pts * pts * angles**n
                require(rep["status"] == "not_found" and rep["witness"] is None,
                        f"{job}: status {rep['status']}")
                require(rep["examined"] == total and rep["resume_cursor"] == total,
                        f"{job}: examined {rep['examined']} of {total}")
                return devs
            require(rep["status"] == "found" and rep["verified"], f"{job}: status {rep['status']}")
            w = rep["witness"]
            for (e1, e2), a in zip(w["edges"], lengths):
                require(abs(math.hypot(e1, e2) - a) <= search["eta_len"], f"{job}: edge length off")
            verts = oracles.cube_vertices(w["base"], w["edges"])
            require(oracles.member(mask, cell, self.SIDE, verts[:, 0], verts[:, 1]).all(),
                    f"{job}: a witness vertex lies outside the set")
            d = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=-1)
            require(d[np.triu_indices(len(verts), 1)].min() >= search["eta_gap"], f"{job}: vertices collide")
            cursor = oracles.scan_cursor(w["base"], w["edges"], self.SIDE, x_step, angles)
            require(rep["resume_cursor"] == cursor and rep["examined"] == cursor + 1,
                    f"{job}: cursor {rep['resume_cursor']} / examined {rep['examined']} vs rebuilt {cursor}")
            if job == "shapes-n1":
                # the raster the scan searches, against the exact area of the shapes
                g = grid.make_indicator(self.shapes, self.SIDE, self.shape_step)
                exact = sum(oracles.shape_area(s) for s in self.shapes)
                devs["raster-area"] = rel_dev(grid.measure(g), exact)
            if job == "pgm-n2":
                g = embedding.read_pgm(self.pgm_path, self.SIDE)
                require(np.array_equal(g.values >= 0.5, self.pgm_mask), f"{job}: PGM read back differs")
            return devs

        return check

    def warm_up(self, work: Path):
        config = {"command": "embed",
                  "set": {"R": 1.0, "h": 0.0625, "shapes": [{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}]},
                  "lengths": [0.2, 0.2], "search": {"x_step": 0.125, "angles": 8}}
        require(cli.run(config, work / "warm-up") == 0, "warm-up embed failed")


WORKLOADS = {"decompose": Decompose, "scale_forms": ScaleForms, "witness_scan": WitnessScan}
