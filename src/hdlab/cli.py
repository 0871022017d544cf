"""Batch experiment runner.

Subcommands: identities, counting, decompose, embed, interval,
counterexample, calibrate.  Runs are driven by a JSON config validated
against a per-command schema; reports land in the output directory and are
cached under a digest of (config, constants file), so identical runs are
byte-identical and served from the cache.  One run at a time per output
directory (lock file).

Exit codes: 0 success, 1 numerical invariant failure (named on stderr),
2 config/schema violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np

from . import calibrate as calibrate_mod
from .constants import load_constants, save_constants
from .counting import CountingParams, counting_sharp, counting_smooth
from .decomposition import ScaleLadder, decomposition_report
from .embedding import (PlanarSet, SearchSpec, avoided_distance_demo,
                        find_copy, pigeonhole_interval, read_pgm, verify_copy)
from .gaussian import heat_flow_check, verify_conv_hh, verify_conv_kg
from .grid import from_shape_json

# ---------------------------------------------------------------------------
# config schemas

_SHAPE = {
    "type": "object",
    "oneOf": [
        {
            "required": ["R", "h"],
            "properties": {
                "R": {"type": "number", "exclusiveMinimum": 0},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "boundary": {"enum": ["zero", "periodic"]},
                "shapes": {"type": "array"},
            },
        },
        {"required": ["pgm"], "properties": {"pgm": {"type": "string"},
                                             "side": {"type": "number"}}},
    ],
}

_COUNTING_PARAMS = {
    "type": "object",
    "required": ["n", "lambda"],
    "properties": {
        "n": {"type": "integer", "minimum": 1, "maximum": 3},
        "lambda": {"type": "number", "exclusiveMinimum": 0},
        "eps": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "M": {"type": "integer", "minimum": 4},
        "estimator": {"enum": ["exact_quadrature", "monte_carlo"]},
        "mc_samples": {"type": "integer", "minimum": 2},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_SEARCH = {
    "type": "object",
    "properties": {
        "x_step": {"type": "number", "exclusiveMinimum": 0},
        "angles": {"type": "integer", "minimum": 4},
        "eta_len": {"type": "number", "minimum": 0},
        "eta_gap": {"type": "number", "minimum": 0},
        "budget": {"type": "integer", "minimum": 1},
    },
}

SCHEMAS = {
    "identities": {
        "type": "object",
        "required": ["command"],
        "properties": {
            "command": {"const": "identities"},
            "pairs": {"type": "array",
                      "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                "items": {"type": "number", "exclusiveMinimum": 0}}},
            "seed": {"type": "integer", "minimum": 0},
            "side": {"type": "number", "exclusiveMinimum": 0},
            "step": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "counting": {
        "type": "object",
        "required": ["command", "set", "params", "form"],
        "properties": {
            "command": {"const": "counting"},
            "set": _SHAPE,
            "params": _COUNTING_PARAMS,
            "form": {"enum": ["sharp", "smooth"]},
        },
        "additionalProperties": False,
    },
    "decompose": {
        "type": "object",
        "required": ["command", "set", "n", "eps", "ladder"],
        "properties": {
            "command": {"const": "decompose"},
            "set": _SHAPE,
            "n": {"type": "integer", "minimum": 1, "maximum": 2},
            "eps": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "M": {"type": "integer", "minimum": 4},
            "ladder": {
                "type": "object",
                "required": ["smallest", "count"],
                "properties": {
                    "smallest": {"type": "number", "exclusiveMinimum": 0},
                    "count": {"type": "integer", "minimum": 1},
                    "ratio": {"type": "number", "minimum": 2},
                },
            },
        },
        "additionalProperties": False,
    },
    "embed": {
        "type": "object",
        "required": ["command", "set", "lengths"],
        "properties": {
            "command": {"const": "embed"},
            "set": _SHAPE,
            "lengths": {"type": "array", "minItems": 1, "maxItems": 3,
                        "items": {"type": "number", "exclusiveMinimum": 0}},
            "search": _SEARCH,
        },
        "additionalProperties": False,
    },
    "interval": {
        "type": "object",
        "required": ["command", "set", "delta", "n", "eps", "J"],
        "properties": {
            "command": {"const": "interval"},
            "set": _SHAPE,
            "delta": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
            "n": {"type": "integer", "minimum": 1, "maximum": 2},
            "eps": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "J": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 4},
            "search": _SEARCH,
        },
        "additionalProperties": False,
    },
    "counterexample": {
        "type": "object",
        "required": ["command", "kind", "lambda"],
        "properties": {
            "command": {"const": "counterexample"},
            "kind": {"enum": ["banach_Z", "stripes"]},
            "lambda": {"type": ["number", "string"]},
            "eps": {"type": ["number", "string"]},
        },
        "additionalProperties": False,
    },
    "calibrate": {
        "type": "object",
        "required": ["command"],
        "properties": {"command": {"const": "calibrate"}},
        "additionalProperties": False,
    },
}


class InvariantFailure(RuntimeError):
    pass


def _load_set(doc) -> tuple:
    """Returns (grid, planar_set)."""
    if "pgm" in doc:
        grid = read_pgm(doc["pgm"], doc.get("side", 1.0))
    else:
        grid = from_shape_json(doc)
    return grid, PlanarSet.from_bitmap(grid)


def _search_spec(doc, default_step) -> SearchSpec:
    doc = doc or {}
    return SearchSpec(
        x_step=doc.get("x_step", default_step),
        angle_count=doc.get("angles", 0),
        eta_len=doc.get("eta_len", 0.0),
        eta_gap=doc.get("eta_gap", 0.0),
        budget=doc.get("budget", 1 << 40),
    )


def _copy_dict(copy):
    if copy is None:
        return None
    return {"base": list(copy.base), "edges": [list(e) for e in copy.edges],
            "target_lengths": list(copy.target_lengths),
            "min_gap": copy.min_pairwise_gap()}


# ---------------------------------------------------------------------------
# command implementations: each returns {filename: text}


def _run_identities(cfg, consts) -> dict:
    seed = cfg.get("seed", 0)
    side = cfg.get("side", 16.0)
    step = cfg.get("step", 1.0 / 32.0)
    pairs = cfg.get("pairs")
    if pairs is None:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        pairs = (0.5 + 3.5 * rng.random((10, 2))).tolist()
    rows = []
    worst = 0.0
    for a, b in pairs:
        hh = verify_conv_hh(a, b, side, step)
        kg = verify_conv_kg(a, b, side, step)
        rows.append({"alpha": a, "beta": b,
                     "hh_residual": hh.residual, "kg_residual": kg.residual})
        worst = max(worst, hh.residual, kg.residual)
    heat = [heat_flow_check(1.0, (0.0, 0.0), 1e-3),
            heat_flow_check(1.0, (1.0, 1.0), 1e-3)]
    report = {"pairs": rows, "heat_residuals": heat, "max_residual": worst}
    if worst > 1e-6:
        raise InvariantFailure(f"convolution identity residual {worst:.3e} above 1e-6")
    if max(heat) > 1e-5:
        raise InvariantFailure("heat-flow residual above 1e-5")
    return {"identities.json": report}


def _run_counting(cfg, consts) -> dict:
    grid, _ = _load_set(cfg["set"])
    p = cfg["params"]
    params = CountingParams(
        n=p["n"], lam=p["lambda"], eps=p.get("eps", 1.0),
        quadrature_nodes=p.get("M", 256), estimator=p.get("estimator", "exact_quadrature"),
        mc_samples=p.get("mc_samples", 20000), seed=p.get("seed"),
    )
    fn = counting_sharp if cfg["form"] == "sharp" else counting_smooth
    rep = fn(grid, params)
    doc = rep.to_dict()
    doc["provenance"]["constants_version"] = consts.version
    return {"counting.json": doc}


def _run_decompose(cfg, consts) -> dict:
    grid, _ = _load_set(cfg["set"])
    lad = cfg["ladder"]
    ladder = ScaleLadder.geometric(lad["smallest"], lad["count"], lad.get("ratio", 2.0))
    rep = decomposition_report(grid, ladder, cfg["eps"], cfg["n"],
                               constants={"version": consts.version},
                               quadrature_nodes=cfg.get("M", 128))
    c_uni = consts.value("C_uni") if "C_uni" in consts.entries else None
    lines = ["lambda,eps,structured,error,uniform,bound_rhs,pass"]
    for row in rep.rows():
        if not row["telescoping_ok"]:
            raise InvariantFailure("telescoping identity violated in decomposition")
        rhs = "" if c_uni is None else c_uni * math.sqrt(rep.eps) * grid.side**2
        ok = "" if c_uni is None else (abs(row["uniform"]) <= rhs)
        lines.append(
            f"{row['lambda']!r},{row['eps']!r},{row['structured']!r},"
            f"{row['error']!r},{row['uniform']!r},{rhs!r},{ok}"
        )
    return {"decompose.json": rep.to_dict(), "decompose.csv": "\n".join(lines) + "\n"}


def _run_embed(cfg, consts) -> dict:
    grid, pset = _load_set(cfg["set"])
    lengths = cfg["lengths"]
    search = _search_spec(cfg.get("search"), default_step=max(grid.step * 4, grid.side / 64))
    out = find_copy(pset, lengths, search)
    verified = bool(out.copy and verify_copy(pset, out.copy, eta_len=search.resolved(lengths).eta_len))
    return {"embed.json": {"status": out.status, "witness": _copy_dict(out.copy),
                           "verified": verified, "resume_cursor": out.resume_cursor,
                           "examined": out.examined}}


def _run_interval(cfg, consts) -> dict:
    grid, pset = _load_set(cfg["set"])
    search = None
    if "search" in cfg:
        search = _search_spec(cfg["search"], default_step=grid.step * 4)
    coeff = consts.value("J_coeff") if "J_coeff" in consts.entries else None
    res = pigeonhole_interval(pset, cfg["delta"], cfg["n"], cfg["eps"], cfg["J"],
                              search=search, quadrature_nodes=cfg.get("M", 128),
                              depth_coefficient=coeff)
    if res.depth_bound_ok is False:
        raise InvariantFailure("configured J exceeds the frozen depth coefficient bound")
    return {"interval.json": {
        "j": res.j, "interval": list(res.interval), "length": res.length,
        "J": res.depth, "delta": res.delta,
        "error_parts": list(res.error_parts),
        "sampled_scales": list(res.sampled_scales),
        "witnesses": [_copy_dict(w) for w in res.witnesses],
        "witness_found": res.witness_found,
        "flags": [] if res.witness_found else ["witness-not-found-at-resolution"],
    }}


def _run_counterexample(cfg, consts) -> dict:
    lam = Fraction(str(cfg["lambda"]))
    eps = Fraction(str(cfg["eps"])) if "eps" in cfg else None
    exists = avoided_distance_demo(cfg["kind"], lam, eps=eps)
    return {"counterexample.json": {
        "kind": cfg["kind"], "lambda": str(lam),
        "eps": str(eps) if eps is not None else None,
        "pair_at_distance_exists": exists,
    }}


COMMANDS = {
    "identities": _run_identities,
    "counting": _run_counting,
    "decompose": _run_decompose,
    "embed": _run_embed,
    "interval": _run_interval,
    "counterexample": _run_counterexample,
}


# ---------------------------------------------------------------------------
# runner machinery


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(cfg, constants_bytes: bytes) -> str:
    hasher = hashlib.sha256()
    hasher.update(_canonical(cfg).encode())
    hasher.update(b"\x00")
    hasher.update(constants_bytes)
    return hasher.hexdigest()


def _render(name: str, payload, digest: str, version: str) -> bytes:
    if name.endswith(".json"):
        doc = {"config_digest": digest, "constants_version": version, "report": payload}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    header = f"# config_digest={digest} constants_version={version}\n"
    return (header + payload).encode()


class _Lock:
    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory is locked by another run ({self.path}); "
                "remove the lock file if that run is gone"
            )
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            self.path.unlink(missing_ok=True)


def run(config: dict, out_dir, constants_path=None, use_cache: bool = True) -> int:
    """Execute one config; returns the process exit status."""
    command = config.get("command")
    if command not in SCHEMAS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        jsonschema.validate(config, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        print(f"error: config does not match the {command} schema: "
              f"{exc.json_path}: {exc.message}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if command == "calibrate":
        with _Lock(out):
            consts = calibrate_mod.run_calibration()
            save_constants(consts, out / "constants.json")
        print(f"wrote {out / 'constants.json'}")
        return 0

    if constants_path is not None:
        constants_bytes = Path(constants_path).read_bytes()
        consts = load_constants(constants_path)
    else:
        consts = load_constants()
        constants_bytes = _canonical(consts.to_dict()).encode()
    digest = _digest(config, constants_bytes)

    with _Lock(out):
        cache_dir = out / ".cache" / digest
        if use_cache and cache_dir.is_dir():
            for item in sorted(cache_dir.iterdir()):
                shutil.copyfile(item, out / item.name)
                print(f"cache hit: {out / item.name}")
            return 0
        try:
            payloads = COMMANDS[command](config, consts)
        except InvariantFailure as exc:
            print(f"invariant failure: {exc}", file=sys.stderr)
            return 1
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rendered = {name: _render(name, payload, digest, consts.version)
                    for name, payload in payloads.items()}
        if use_cache:
            cache_dir.mkdir(parents=True, exist_ok=True)
            for name, blob in rendered.items():
                (cache_dir / name).write_bytes(blob)
        for name, blob in rendered.items():
            (out / name).write_bytes(blob)
            print(f"wrote {out / name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdlab",
        description="experiment runner for planar hypercube-pattern counting",
    )
    parser.add_argument("command", choices=sorted(SCHEMAS))
    parser.add_argument("--config", type=Path, help="JSON config path (defaults to {'command': ...})")
    parser.add_argument("--out", type=Path, default=Path("hdlab-out"))
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; runs are single-threaded")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--constants", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            config = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    else:
        config = {"command": args.command}
    if config.get("command") != args.command:
        print(
            f"error: config command {config.get('command')!r} does not match "
            f"subcommand {args.command!r}", file=sys.stderr)
        return 2
    try:
        return run(config, args.out, constants_path=args.constants,
                   use_cache=not args.no_cache)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
