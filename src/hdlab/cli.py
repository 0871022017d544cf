"""Batch experiment runner.

Subcommands: identities, counting, decompose, embed, interval,
counterexample, calibrate.  Runs are driven by a JSON config validated
against a per-command schema; reports land in the output directory and are
cached under a digest of (config, constants file, package version, bytes
of a named PGM file), so identical runs are byte-identical and served from
the cache.  One run at a time per output directory (lock file holding the
PID; a lock whose PID is no longer running is taken over).

The schemas (``SCHEMAS``) are JSON Schema documents, checked by
``schema_error``, which implements the subset of Draft 2020-12 they use:
``type``, ``required``, ``properties``, ``additionalProperties: false``,
``enum``, ``const``, ``minimum``, ``maximum``, ``exclusiveMinimum``,
``minItems``, ``maxItems``, ``items``, ``oneOf``, ``allOf`` and
``if``/``then``.  ``tests/test_cli.py::test_schemas_use_only_implemented_keywords``
fails on any other keyword, and a property test there holds the checker
to jsonschema's ``Draft202012Validator`` on mutated configs.

Exit codes: 0 success, 1 numerical invariant failure (named on stderr),
2 config/schema violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import calibrate as calibrate_mod
from .constants import load_constants, save_constants
from .counting import CountingParams, counting_sharp, counting_smooth
from .decomposition import ScaleLadder, decomposition_report
from .embedding import (PlanarSet, SearchSpec, avoided_distance_demo,
                        find_copy, pigeonhole_interval, read_pgm, verify_copy)
from .gaussian import heat_flow_check, verify_conv_hh, verify_conv_kg
from .grid import SHAPE_FIELDS, from_shape_json

# ---------------------------------------------------------------------------
# config schemas

_NUMBER = {"type": "number"}
_NUMBER_PAIR = {"type": "array", "minItems": 2, "maxItems": 2, "items": _NUMBER}
_SHAPE_ITEM = {
    "type": "object",
    "properties": {**dict.fromkeys(SHAPE_FIELDS["rect"] + SHAPE_FIELDS["disk"], _NUMBER),
                   "intervals": {"type": "array", "items": _NUMBER_PAIR}, "axis": {"enum": [0, 1]}},
    "allOf": [{"if": {"properties": {"type": {"const": kind}}}, "then": {"required": fields}}
              for kind, fields in SHAPE_FIELDS.items()],
}

_SHAPE = {
    "type": "object",
    "oneOf": [
        {
            "required": ["R", "h"],
            "properties": {
                "R": {"type": "number", "exclusiveMinimum": 0},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "boundary": {"enum": ["zero", "periodic"]},
                "shapes": {"type": "array", "items": _SHAPE_ITEM},
            },
        },
        {"required": ["pgm"], "properties": {"pgm": {"type": "string"},
                                             "side": {"type": "number", "exclusiveMinimum": 0}}},
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
        "resume_cursor": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}


def _command_schema(command: str, required: list, properties: dict) -> dict:
    """The config of one command: ``command`` plus the given fields, no others."""
    return {"type": "object", "required": ["command", *required],
            "properties": {"command": {"const": command}, **properties},
            "additionalProperties": False}


SCHEMAS = {
    "identities": _command_schema("identities", [], {
        "pairs": {"type": "array",
                  "items": {"type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "number", "exclusiveMinimum": 0}}},
        "seed": {"type": "integer", "minimum": 0},
        "side": {"type": "number", "exclusiveMinimum": 0},
        "step": {"type": "number", "exclusiveMinimum": 0},
    }),
    "counting": _command_schema("counting", ["set", "params", "form"], {
        "set": _SHAPE,
        "params": _COUNTING_PARAMS,
        "form": {"enum": ["sharp", "smooth"]},
    }),
    "decompose": _command_schema("decompose", ["set", "n", "eps", "ladder"], {
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
    }),
    "embed": _command_schema("embed", ["set", "lengths"], {
        "set": _SHAPE,
        "lengths": {"type": "array", "minItems": 1, "maxItems": 3,
                    "items": {"type": "number", "exclusiveMinimum": 0}},
        "search": _SEARCH,
    }),
    "interval": _command_schema("interval", ["set", "delta", "n", "eps", "J"], {
        "set": _SHAPE,
        "delta": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
        "n": {"type": "integer", "minimum": 1, "maximum": 2},
        "eps": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "J": {"type": "integer", "minimum": 1},
        "M": {"type": "integer", "minimum": 4},
        "search": _SEARCH,
    }),
    "counterexample": _command_schema("counterexample", ["kind", "lambda"], {
        "kind": {"enum": ["banach_Z", "stripes"]},
        "lambda": {"type": ["number", "string"]},
        "eps": {"type": ["number", "string"]},
    }),
    "calibrate": _command_schema("calibrate", [], {}),
}


def _is_type(x, kind: str) -> bool:
    """JSON types of a parsed value: true is no number, 1.0 is an integer."""
    if kind in ("number", "integer"):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        return kind == "number" or isinstance(x, int) or x.is_integer()
    return isinstance(x, {"object": dict, "array": list, "string": str,
                          "boolean": bool, "null": type(None)}[kind])


def _equal(x, want) -> bool:
    """JSON equality with a scalar ``want``: true and 1 differ, 1.0 and 1 do not."""
    return isinstance(x, bool) == isinstance(want, bool) and x == want


# Each check is a generator of the (path, message) violations of one keyword,
# given the value, the keyword's argument, the schema holding it and the path.


def _type(x, kinds, schema, path):
    if not any(_is_type(x, k) for k in ([kinds] if isinstance(kinds, str) else kinds)):
        yield path, f"{x!r} is not of type {kinds!r}"


def _required(x, keys, schema, path):
    if isinstance(x, dict):
        for k in keys:
            if k not in x:
                yield path, f"{k!r} is a required property"


def _properties(x, props, schema, path):
    if isinstance(x, dict):
        for k, sub in props.items():
            if k in x:
                yield from _violations(x[k], sub, path + (k,))


def _no_additional(x, allowed, schema, path):
    # only ``false``: test_schemas_use_only_implemented_keywords enforces it
    if isinstance(x, dict):
        for k in x:
            if k not in schema.get("properties", {}):
                yield path, f"additionalProperties are not allowed ({k!r} was unexpected)"


def _enum(x, values, schema, path):
    if not any(_equal(x, v) for v in values):
        yield path, f"{x!r} is not one of the enum {values!r}"


def _const(x, value, schema, path):
    if not _equal(x, value):
        yield path, f"{x!r} is not the const {value!r}"


def _bound(fails, words: str):
    # compares the way a violation is worded, so NaN passes, as in jsonschema
    def check(x, bound, schema, path):
        if _is_type(x, "number") and fails(x, bound):
            yield path, f"{x!r} is {words} {bound!r}"
    return check


def _length(fails, keyword: str):
    def check(x, bound, schema, path):
        if isinstance(x, list) and fails(len(x), bound):
            yield path, f"{len(x)} items against {keyword} {bound}"
    return check


def _items(x, sub, schema, path):
    if isinstance(x, list):
        for i, v in enumerate(x):
            yield from _violations(v, sub, path + (i,))


def _one_of(x, branches, schema, path):
    found = [next(_violations(x, branch, path), None) for branch in branches]
    matches = found.count(None)
    if matches > 1:
        yield path, f"valid under {matches} oneOf branches, not exactly one"
    elif matches == 0:
        # the branch that got furthest into the value names the fault; on a
        # tie none does
        depths = [len(where) for where, _ in found]
        if depths.count(max(depths)) == 1:
            yield found[depths.index(max(depths))]
        else:
            yield path, "valid under none of the oneOf branches"


def _all_of(x, subs, schema, path):
    for sub in subs:
        yield from _violations(x, sub, path)


def _if(x, cond, schema, path):
    if next(_violations(x, cond, path), None) is None:
        yield from _violations(x, schema.get("then", {}), path)


_CHECKS = {
    "type": _type, "required": _required, "properties": _properties,
    "additionalProperties": _no_additional, "enum": _enum, "const": _const,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "minItems": _length(operator.lt, "minItems"), "maxItems": _length(operator.gt, "maxItems"),
    "items": _items, "oneOf": _one_of, "allOf": _all_of,
    "if": _if, "then": lambda x, sub, schema, path: iter(()),  # read by "if"
}


def _violations(x, schema: dict, path: tuple = ()):
    """The (path, message) violations of ``x`` against ``schema``, lazily."""
    for keyword, argument in schema.items():
        yield from _CHECKS[keyword](x, argument, schema, path)


def schema_error(config, schema: dict):
    """``"<JSON path>: <message>"`` for the first way ``config`` breaks
    ``schema``, or None when it conforms.  ``schema`` uses only the
    keywords of the module docstring."""
    found = next(_violations(config, schema), None)
    if found is None:
        return None
    path, message = found
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path) + f": {message}"


class InvariantFailure(RuntimeError):
    pass


def _load_set(doc) -> tuple:
    """Returns (grid, planar_set)."""
    if "pgm" in doc:
        try:
            grid = read_pgm(doc["pgm"], doc.get("side", 1.0))
        except OSError as exc:
            raise ValueError(f"cannot read the set's PGM file: {exc}") from exc
    else:
        grid = from_shape_json(doc)
    return grid, PlanarSet.from_bitmap(grid)


def _search_spec(doc, **defaults) -> SearchSpec:
    """The fields the config sets (``angles`` is ``angle_count``) over
    ``defaults``, then over ``SearchSpec``'s own."""
    fields = {"angle_count" if k == "angles" else k: v for k, v in (doc or {}).items()}
    return SearchSpec(**{**defaults, **fields})


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


# config key -> CountingParams field; a key the config omits keeps its default
_PARAM_NAMES = {"n": "n", "lambda": "lam", "eps": "eps", "M": "quadrature_nodes",
                "estimator": "estimator", "mc_samples": "mc_samples", "seed": "seed"}
# circle nodes of decompose and interval when the config sets no M
_FORM_NODES = 128


def _run_counting(cfg, consts) -> dict:
    grid, _ = _load_set(cfg["set"])
    p = cfg["params"]
    params = CountingParams(**{name: p[key] for key, name in _PARAM_NAMES.items() if key in p})
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
                               quadrature_nodes=cfg.get("M", _FORM_NODES))
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
    search = _search_spec(cfg.get("search"), x_step=max(grid.step * 4, grid.side / 64))
    search = search.resolved(lengths)  # the scan's tolerances verify its witness
    out = find_copy(pset, lengths, search)
    verified = bool(out.copy and verify_copy(pset, out.copy, search.eta_len, search.eta_gap))
    return {"embed.json": {"status": out.status, "witness": _copy_dict(out.copy),
                           "verified": verified, "resume_cursor": out.resume_cursor,
                           "examined": out.examined}}


def _run_interval(cfg, consts) -> dict:
    grid, pset = _load_set(cfg["set"])
    search = _search_spec(cfg.get("search"))  # pigeonhole_interval fills what it omits
    coeff = consts.value("J_coeff") if "J_coeff" in consts.entries else None
    res = pigeonhole_interval(pset, cfg["delta"], cfg["n"], cfg["eps"], cfg["J"],
                              search=search, quadrature_nodes=cfg.get("M", _FORM_NODES),
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
    """Cache key: the config, the constants, the package version and the
    bytes of a PGM file the config's set names."""
    hasher = hashlib.sha256()
    hasher.update(_canonical(cfg).encode())
    hasher.update(b"\x00")
    hasher.update(constants_bytes)
    hasher.update(b"\x00")
    hasher.update(__version__.encode())
    pgm = cfg.get("set", {}).get("pgm")
    if pgm is not None:
        hasher.update(b"\x00")
        hasher.update(Path(pgm).read_bytes())
    return hasher.hexdigest()


def _render(name: str, payload, digest: str, version: str) -> bytes:
    if name.endswith(".json"):
        doc = {"config_digest": digest, "constants_version": version, "report": payload}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    header = f"# config_digest={digest} constants_version={version}\n"
    return (header + payload).encode()


def _write_cache(cache_dir: Path, rendered: dict):
    """Write a cache entry into a temporary sibling, then move it into place.

    A run that dies mid-write leaves no entry, so a later run does not
    serve a partial one as a cache hit.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"{cache_dir.name}.", dir=cache_dir.parent))
    try:
        for name, blob in rendered.items():
            (tmp / name).write_bytes(blob)
        os.replace(tmp, cache_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # already gone after the replace


class _Lock:
    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._holder_gone():
                raise RuntimeError(
                    f"output directory is locked by another run ({self.path}); "
                    "remove the lock file if that run is gone"
                )
            # its run is gone (a run that read the same dead PID may still drop our new lock)
            self.path.unlink(missing_ok=True)
            return self.__enter__()
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def _holder_gone(self) -> bool:
        """True when the lock names a PID that is no longer running."""
        try:
            pid = int(self.path.read_text())
            if pid > 0:
                os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError):  # unreadable, unparseable, or alive but not ours
            pass
        return False

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
    # Draft 2020-12 restricted to type, required, properties,
    # additionalProperties: false, enum, const, minimum, maximum,
    # exclusiveMinimum, minItems, maxItems, items, oneOf, allOf and if/then;
    # test_schemas_use_only_implemented_keywords fails on any other keyword
    problem = schema_error(config, SCHEMAS[command])
    if problem is not None:
        print(f"error: config does not match the {command} schema: {problem}", file=sys.stderr)
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
        try:
            constants_bytes = Path(constants_path).read_bytes()
            consts = load_constants(constants_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read constants: {exc}", file=sys.stderr)
            return 2
    else:
        consts = load_constants()
        constants_bytes = _canonical(consts.to_dict()).encode()
    try:
        digest = _digest(config, constants_bytes)
    except OSError as exc:
        print(f"error: cannot read the set's PGM file: {exc}", file=sys.stderr)
        return 2

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
            cache_dir.parent.mkdir(exist_ok=True)
            _write_cache(cache_dir, rendered)
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
                        help="ignored; accepted for interface compatibility (BLAS picks "
                             "its own thread count)")
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
    if not isinstance(config, dict):
        print(f"error: config is not a JSON object: {config!r}", file=sys.stderr)
        return 2
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
