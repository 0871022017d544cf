import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlab import CountingParams, cli, counting_smooth
from hdlab.calibrate import random_mask
from hdlab.cli import main

DISK_SET = {"R": 4.0, "h": 1 / 32, "shapes": [{"type": "disk", "cx": 2, "cy": 2, "r": 1}]}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(args):
    return main([str(a) for a in args])


def test_counting_run_and_cache(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "counting", "set": DISK_SET,
        "params": {"n": 1, "lambda": 1.0, "M": 64}, "form": "sharp",
    })
    out = tmp_path / "out"
    assert run_cli(["counting", "--config", cfg, "--out", out]) == 0
    first = (out / "counting.json").read_bytes()
    doc = json.loads(first)
    assert "config_digest" in doc and "constants_version" in doc
    assert doc["report"]["value"] > 0
    # cached rerun and a different thread count give identical bytes
    assert run_cli(["counting", "--config", cfg, "--out", out]) == 0
    assert (out / "counting.json").read_bytes() == first
    out2 = tmp_path / "out2"
    assert run_cli(["counting", "--config", cfg, "--out", out2,
                    "--threads", 4, "--no-cache"]) == 0
    assert (out2 / "counting.json").read_bytes() == first


def test_schema_violation_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "counting", "set": DISK_SET,
        "params": {"n": 1, "lambda": 1.0, "eps": 0.0}, "form": "smooth",
    })
    assert run_cli(["counting", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "eps" in err and "minimum" in err


def test_under_resolved_smoothing_exits_0(tmp_path):
    # an 8 x 8 mask at lambda = 1.5 h, eps = 0.5: eps * lambda is under a
    # cell, where a midpoint rule in one slot once drove the n = 2 value
    # negative; it is a sum of nonnegative terms, the library's value
    mask = random_mask(1.0, 8, 0.125, 0)
    raster = np.where(mask.values >= 0.5, 255, 0).astype(np.uint8).T[::-1, :]
    pgm = tmp_path / "mask.pgm"
    pgm.write_bytes(b"P5\n8 8\n255\n" + raster.tobytes())
    cfg = write_config(tmp_path, {
        "command": "counting", "set": {"pgm": str(pgm), "side": 1.0},
        "params": {"n": 2, "lambda": 1.5 / 8, "eps": 0.5}, "form": "smooth",
    })
    assert run_cli(["counting", "--config", cfg, "--out", tmp_path / "o"]) == 0
    value = json.loads((tmp_path / "o" / "counting.json").read_text())["report"]["value"]
    want = counting_smooth(mask, CountingParams(n=2, lam=1.5 / 8, eps=0.5)).value
    assert value >= 0.0 and value == want


def test_decompose_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the n = 2 smoothed parts contract a table with BLAS; a run at one and
    # at two OpenBLAS threads must write the same bytes
    cfg = write_config(tmp_path, {
        "command": "decompose",
        "set": {"R": 2.0, "h": 1 / 32,
                "shapes": [{"type": "disk", "cx": 1.0, "cy": 1.0, "r": 18 / 32}]},
        "n": 2, "eps": 0.25, "M": 32, "ladder": {"smallest": 0.125, "count": 3},
    })
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(cli.__file__).parent.parent))
        code = f"from hdlab.cli import main; raise SystemExit(main({['decompose', '--config', str(cfg), '--out', str(out), '--no-cache']!r}))"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        reports.append([(out / name).read_bytes() for name in ("decompose.json", "decompose.csv")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", sorted(cli.SCHEMAS))
def test_schemas_are_valid(command):
    # run validates configs without checking the schema itself
    schema = cli.SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def unimplemented_keywords(schema) -> list:
    """The keywords of ``schema`` and its subschemas that ``cli.schema_error``
    does not implement, in walk order."""
    bad = []
    for key, arg in schema.items():
        if (key not in cli._CHECKS or (key == "additionalProperties" and arg is not False)
                or (key == "then" and "if" not in schema)):
            bad.append(key)
        subs = (arg.values() if key == "properties" else arg if key in ("oneOf", "allOf")
                else [arg] if key in ("items", "if", "then") else [])
        for sub in subs:
            bad += unimplemented_keywords(sub)
    return bad


@pytest.mark.parametrize("command", sorted(cli.SCHEMAS))
def test_schemas_use_only_implemented_keywords(command):
    assert unimplemented_keywords(cli.SCHEMAS[command]) == []


def test_unimplemented_keyword_is_reported():
    schema = {"type": "object", "properties": {"a": {"items": {"pattern": "x"}}},
              "additionalProperties": {"type": "number"}, "then": {}}
    assert unimplemented_keywords(schema) == ["pattern", "additionalProperties", "then"]


# one valid config per command, together using every property and every
# kind of set; the property test below mutates them
VALID_CONFIGS = [
    {"command": "identities", "pairs": [[1.0, 2]], "seed": 3, "side": 8.0, "step": 0.25},
    {"command": "counting",
     "set": {"R": 1.0, "h": 0.25, "boundary": "periodic", "shapes": [
         {"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1},
         {"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25},
         {"type": "stripes1d", "axis": 1, "intervals": [[0.1, 0.2]]}]},
     "params": {"n": 2, "lambda": 0.5, "eps": 1, "M": 8, "estimator": "monte_carlo",
                "mc_samples": 2, "seed": 0},
     "form": "smooth"},
    {"command": "decompose", "set": {"pgm": "set.pgm", "side": 2.0}, "n": 1, "eps": 0.5,
     "M": 4, "ladder": {"smallest": 0.125, "count": 2, "ratio": 2}},
    {"command": "embed", "set": DISK_SET, "lengths": [0.2, 0.3, 0.4],
     "search": {"x_step": 0.1, "angles": 4, "eta_len": 0, "eta_gap": 0.1, "budget": 1,
                "resume_cursor": 0}},
    {"command": "interval", "set": {"R": 1.0, "h": 0.5, "boundary": "zero", "shapes": []},
     "delta": 0.5, "n": 2, "eps": 1, "J": 1, "M": 4, "search": {}},
    {"command": "counterexample", "kind": "stripes", "lambda": "1/2", "eps": 0.25},
    {"command": "calibrate"},
]


def schema_bounds(schema) -> set:
    """Every minimum, maximum and exclusiveMinimum of a schema tree."""
    if isinstance(schema, list):
        return set().union(*map(schema_bounds, schema))
    if not isinstance(schema, dict):
        return set()
    own = {v for k, v in schema.items() if k in ("minimum", "maximum", "exclusiveMinimum")}
    return own.union(*map(schema_bounds, schema.values()))


BOUNDS = sorted(schema_bounds(list(cli.SCHEMAS.values())))
# numbers at, next to and across each bound, integral ones as integers and
# as floats (a set would keep only one of 1 and 1.0)
NUMBERS = [b + d for b in BOUNDS for d in (-1, -0.5, -1e-9, 0, 1e-9, 0.5, 1)]
NUMBERS += [float(b) for b in NUMBERS if float(b).is_integer()]
# a value of every JSON type, true and 1.0 among them
OTHER_TYPES = [True, False, None, 1.0, 1, 0, -1, 0.5, float("nan"), float("inf"), "1", "",
               "stripes", [], [1.0, 2.0], {}, {"type": "rect"}]
# keys a config may lack or not know: a set's R, h or pgm next to the
# other branch's, a shape's type, and unknown names
EXTRA_KEYS = [("pgm", "set.pgm"), ("R", 1.0), ("h", 0.25), ("side", 1.0), ("type", "disk"),
              ("type", "stripes1d"), ("command", "embed"), ("M", 4), ("unknown", 1),
              ("resume", 0)]


def config_nodes(doc, path=()):
    """Every (path, value) of a config, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from config_nodes(value, path + (key,))


def mutate(doc, data) -> object:
    """``doc`` with one node changed: a key dropped or added, a value
    swapped for another type or moved across a bound, or an array resized."""
    nodes = list(config_nodes(doc))
    op = data.draw(st.sampled_from(["drop", "add", "swap", "number", "resize"]))
    targets = {
        "drop": [p for p, v in nodes if isinstance(v, dict) and v],
        "add": [p for p, v in nodes if isinstance(v, dict)],
        "number": [p for p, v in nodes if isinstance(v, (int, float)) and not isinstance(v, bool)],
        "resize": [p for p, v in nodes if isinstance(v, list)],
    }.get(op, [p for p, _ in nodes[1:]])
    if not targets:
        return doc
    path = data.draw(st.sampled_from(targets))
    node = dict(nodes)[path]
    if op == "drop":
        key = data.draw(st.sampled_from(sorted(node)))
        value = {k: v for k, v in node.items() if k != key}
    elif op == "add":
        key, extra = data.draw(st.sampled_from(EXTRA_KEYS))
        value = {**node, key: extra}
    elif op == "swap":
        value = data.draw(st.sampled_from(OTHER_TYPES))
    elif op == "number":
        value = data.draw(st.sampled_from(NUMBERS))
    else:
        fill = node[-1] if node else data.draw(st.sampled_from([0.5, [0.1, 0.2]]))
        value = (node + [fill] * 5)[:data.draw(st.integers(0, 5))]
    return replace_at(doc, path, value)


def replace_at(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


ORACLES = {command: jsonschema.Draft202012Validator(schema)
           for command, schema in cli.SCHEMAS.items()}


@settings(max_examples=600)
@given(base=st.sampled_from(VALID_CONFIGS), mutations=st.integers(1, 3), data=st.data())
def test_schema_error_agrees_with_jsonschema(base, mutations, data, tmp_path_factory):
    command = base["command"]
    assert cli.schema_error(base, cli.SCHEMAS[command]) is None
    cfg = base
    for _ in range(mutations):
        cfg = mutate(cfg, data)
    error = cli.schema_error(cfg, cli.SCHEMAS[command])
    assert (error is None) == ORACLES[command].is_valid(cfg), error
    if error is not None:
        # an invalid config exits 2 before the run makes its output directory
        tmp = tmp_path_factory.getbasetemp()
        out = tmp / "schema-property-out"
        assert run_cli([command, "--config", write_config(tmp, cfg), "--out", out]) == 2
        assert not out.exists()


def test_each_single_substitution_agrees_with_jsonschema():
    # every value of the pools at every node of every valid config: the
    # property above reaches a given leaf with a given value only rarely
    disagree = []
    for base in VALID_CONFIGS:
        schema, oracle = cli.SCHEMAS[base["command"]], ORACLES[base["command"]]
        for path, _ in list(config_nodes(base))[1:]:
            for value in OTHER_TYPES + NUMBERS:
                cfg = replace_at(base, path, value)
                if (cli.schema_error(cfg, schema) is None) != oracle.is_valid(cfg):
                    disagree.append((base["command"], path, value))
    assert disagree == []


def test_config_that_is_no_object_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, [{"command": "calibrate"}])
    assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("error: config is not a JSON object")


def test_command_mismatch_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"command": "counting", "set": DISK_SET,
                                  "params": {"n": 1, "lambda": 1.0}, "form": "sharp"})
    assert run_cli(["embed", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_invariant_failure_exit_1(tmp_path, capsys):
    # a deliberately coarse probe grid pushes the identity residual above
    # threshold without tripping the window preconditions
    cfg = write_config(tmp_path, {
        "command": "identities", "pairs": [[0.8, 0.8]], "side": 16.0, "step": 0.25,
    })
    assert run_cli(["identities", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "invariant failure" in capsys.readouterr().err


def test_identities_default_run(tmp_path):
    cfg = write_config(tmp_path, {"command": "identities", "seed": 3,
                                  "pairs": [[1.0, 1.0], [0.5, 2.0]]})
    out = tmp_path / "out"
    assert run_cli(["identities", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "identities.json").read_text())
    assert doc["report"]["max_residual"] <= 1e-6


def test_decompose_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "decompose",
        "set": {"R": 1.0, "h": 1 / 64,
                "shapes": [{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}]},
        "n": 1, "eps": 0.5, "M": 64,
        "ladder": {"smallest": 0.125, "count": 3},
    })
    out = tmp_path / "out"
    assert run_cli(["decompose", "--config", cfg, "--out", out]) == 0
    lines = (out / "decompose.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "lambda,eps,structured,error,uniform,bound_rhs,pass"
    assert len(lines) == 5
    doc = json.loads((out / "decompose.json").read_text())
    for row in doc["report"]["rows"]:
        total = row["structured"] + row["error"] + row["uniform"]
        assert abs(total - row["sharp"]) <= 1e-12 * max(1.0, abs(row["sharp"]))


def test_embed_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "embed",
        "set": {"R": 4.0, "h": 1 / 32,
                "shapes": [{"type": "rect", "x0": 0, "y0": 0, "x1": 4, "y1": 4}]},
        "lengths": [1.0, 1.0],
        "search": {"x_step": 0.25},
    })
    out = tmp_path / "out"
    assert run_cli(["embed", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "embed.json").read_text())
    assert doc["report"]["status"] == "found"
    assert doc["report"]["verified"] is True


def test_budgeted_embed_resumes_to_the_first_witness(tmp_path):
    # a scan cut into budgeted CLI runs, each fed the resume_cursor of the
    # one before, ends at the witness of one unbudgeted run
    doc = {"command": "embed",
           "set": {"R": 1.0, "h": 1 / 32,
                   "shapes": [{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}]},
           "lengths": [0.3], "search": {"x_step": 0.25, "angles": 8}}

    def embed(search, name):
        cfg = write_config(tmp_path, dict(doc, search=dict(doc["search"], **search)))
        assert run_cli(["embed", "--config", cfg, "--out", tmp_path / name]) == 0
        return json.loads((tmp_path / name / "embed.json").read_text())["report"]

    whole = embed({}, "whole")
    assert whole["status"] == "found" and whole["resume_cursor"] > 20
    piece = embed({"budget": 7}, "piece0")
    examined = piece["examined"]
    for i in range(1, 100):
        if piece["status"] != "budget_exceeded":
            break
        assert piece["examined"] == 7
        piece = embed({"budget": 7, "resume_cursor": piece["resume_cursor"]}, f"piece{i}")
        examined += piece["examined"]
    assert piece == dict(whole, examined=piece["examined"])
    assert examined == whole["examined"]


def test_unknown_search_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "embed", "set": DISK_SET, "lengths": [1.0],
                                  "search": {"x_step": 0.25, "resume": 10}})
    assert run_cli(["embed", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "resume" in capsys.readouterr().err


def test_interval_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "interval",
        "set": {"R": 1.0, "h": 1 / 128,
                "shapes": [{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}]},
        "delta": 0.5, "n": 1, "eps": 0.25, "J": 2, "M": 64,
    })
    out = tmp_path / "out"
    assert run_cli(["interval", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "interval.json").read_text())
    assert doc["report"]["length"] >= 4.0 ** -doc["report"]["J"]
    assert doc["report"]["witness_found"] is True


def test_interval_search_block_without_x_step_keeps_the_default_step(tmp_path):
    # the scan steps at max(4h, |I_j| / 8) = 1/32 here, whether or not a
    # search block is given; at 4h = 1/64 the first witness base moves
    base = {"command": "interval",
            "set": {"R": 1.0, "h": 1 / 256,
                    "shapes": [{"type": "rect", "x0": 0.3, "y0": 0.3, "x1": 0.7, "y1": 0.7}]},
            "delta": 0.1, "n": 1, "eps": 0.5, "J": 1, "M": 16}
    reports = []
    for extra in ({}, {"search": {}}):
        out = tmp_path / f"out{len(extra)}"
        assert run_cli(["interval", "--config", write_config(tmp_path, {**base, **extra}),
                        "--out", out]) == 0
        reports.append(json.loads((out / "interval.json").read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["witnesses"][0]["base"] == [0.328125, 0.328125]


def test_counterexample_command(tmp_path):
    cfg = write_config(tmp_path, {"command": "counterexample", "kind": "banach_Z",
                                  "lambda": 0.5})
    out = tmp_path / "out"
    assert run_cli(["counterexample", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "counterexample.json").read_text())
    assert doc["report"]["pair_at_distance_exists"] is False


def test_lock_file_blocks_concurrent_runs(tmp_path):
    cfg = write_config(tmp_path, {"command": "counterexample", "kind": "banach_Z",
                                  "lambda": 0.5})
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text("held")
    assert run_cli(["counterexample", "--config", cfg, "--out", out]) == 1


def test_lock_of_a_finished_run_is_taken_over(tmp_path):
    cfg = write_config(tmp_path, {"command": "counterexample", "kind": "banach_Z",
                                  "lambda": 0.5})
    out = tmp_path / "out"
    out.mkdir()
    done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    (out / ".lock").write_text(done.stdout.strip())
    assert run_cli(["counterexample", "--config", cfg, "--out", out]) == 0
    assert not (out / ".lock").exists()


def test_lock_of_a_live_run_blocks(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "counterexample", "kind": "banach_Z",
                                  "lambda": 0.5})
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()))
    assert run_cli(["counterexample", "--config", cfg, "--out", out]) == 1
    assert "locked by another run" in capsys.readouterr().err
    assert (out / ".lock").read_text() == str(os.getpid())


@pytest.mark.parametrize("content", [None, "{not json", "5"])
def test_unreadable_constants_file_exit_2(tmp_path, capsys, content):
    constants = tmp_path / "constants.json"
    if content is not None:
        constants.write_text(content)
    cfg = write_config(tmp_path, {"command": "counterexample", "kind": "banach_Z",
                                  "lambda": 0.5})
    assert run_cli(["counterexample", "--config", cfg, "--out", tmp_path / "out",
                    "--constants", constants]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read constants:") and "Traceback" not in err


def write_pgm(path, img):
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % img.shape)
        fh.write(img.tobytes())


def test_pgm_config_input(tmp_path):
    img = np.full((32, 32), 255, dtype=np.uint8)
    pgm = tmp_path / "full.pgm"
    write_pgm(pgm, img)
    cfg = write_config(tmp_path, {
        "command": "counting", "set": {"pgm": str(pgm), "side": 1.0},
        "params": {"n": 1, "lambda": 0.25, "M": 32}, "form": "sharp",
    })
    out = tmp_path / "out"
    assert run_cli(["counting", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "counting.json").read_text())
    assert doc["report"]["value"] > 0


def test_rewritten_pgm_is_not_served_from_cache(tmp_path, capsys):
    pgm = tmp_path / "set.pgm"
    write_pgm(pgm, np.full((16, 16), 255, dtype=np.uint8))
    cfg = write_config(tmp_path, {
        "command": "embed", "set": {"pgm": str(pgm), "side": 1.0},
        "lengths": [0.25], "search": {"x_step": 0.25},
    })
    out = tmp_path / "out"
    assert run_cli(["embed", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "embed.json").read_text())["report"]["status"] == "found"
    capsys.readouterr()
    # same config, same output directory, a different mask in the same file
    write_pgm(pgm, np.zeros((16, 16), dtype=np.uint8))
    assert run_cli(["embed", "--config", cfg, "--out", out]) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert json.loads((out / "embed.json").read_text())["report"]["status"] == "not_found"


def test_missing_pgm_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.pgm"
    cfg = write_config(tmp_path, {
        "command": "embed", "set": {"pgm": str(missing), "side": 1.0},
        "lengths": [0.25], "search": {"x_step": 0.25},
    })
    assert run_cli(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert "Traceback" not in err
    # the set loader reports the same way when the file goes away after
    # the cache key was taken
    with pytest.raises(ValueError, match="PGM"):
        cli._load_set({"pgm": str(missing)})


def test_truncated_pgm_is_a_config_error(tmp_path, capsys):
    pgm = tmp_path / "cut.pgm"
    pgm.write_bytes(b"P5\n4")
    cfg = write_config(tmp_path, {
        "command": "embed", "set": {"pgm": str(pgm), "side": 1.0},
        "lengths": [0.25], "search": {"x_step": 0.25},
    })
    assert run_cli(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err == "error: PGM header ends before its height\n"


def test_counting_params_default_where_the_config_is_silent(tmp_path):
    # each counting param key maps to a CountingParams field, and a key the
    # config leaves out takes that field's default
    assert set(cli._PARAM_NAMES) == set(cli.SCHEMAS["counting"]["properties"]["params"]["properties"])
    cfg = write_config(tmp_path, {
        "command": "counting", "set": DISK_SET, "params": {"n": 1, "lambda": 1.0}, "form": "sharp",
    })
    assert run_cli(["counting", "--config", cfg, "--out", tmp_path / "out"]) == 0
    params = json.loads((tmp_path / "out" / "counting.json").read_text())["report"]["params"]
    assert params == CountingParams(n=1, lam=1.0).to_dict()


def test_interrupted_cache_write_leaves_no_entry(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {
        "command": "decompose",
        "set": {"R": 1.0, "h": 1 / 32,
                "shapes": [{"type": "rect", "x0": 0.25, "y0": 0.25, "x1": 0.75, "y1": 0.75}]},
        "n": 1, "eps": 0.5, "M": 16, "ladder": {"smallest": 0.125, "count": 1},
    })
    out = tmp_path / "out"
    write_bytes = Path.write_bytes
    writes = []

    def second_write_fails(path, data):
        writes.append(path)
        if len(writes) == 2:
            raise OSError("disk full")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", second_write_fails)
    with pytest.raises(OSError, match="disk full"):
        run_cli(["decompose", "--config", cfg, "--out", out])
    monkeypatch.undo()
    capsys.readouterr()
    assert run_cli(["decompose", "--config", cfg, "--out", out]) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert (out / "decompose.json").is_file() and (out / "decompose.csv").is_file()
    # the completed entry is served whole on the next run
    assert run_cli(["decompose", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().out.count("cache hit") == 2


def test_embed_verifies_with_the_scan_tolerances(tmp_path):
    # with eta_gap = 1e-30 the scan accepts two coinciding vertices (a gap
    # of 5.6e-17); the report verifies the witness with that same gap, not
    # with the default min(lengths) / 1000
    cfg = write_config(tmp_path, {
        "command": "embed",
        "set": {"R": 1.0, "h": 1 / 64,
                "shapes": [{"type": "rect", "x0": 0.1, "y0": 0.45, "x1": 0.9, "y1": 0.55}]},
        "lengths": [0.2, 0.2],
        "search": {"angles": 4, "x_step": 0.05, "eta_gap": 1e-30},
    })
    out = tmp_path / "out"
    assert run_cli(["embed", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "embed.json").read_text())["report"]
    assert report["status"] == "found" and report["witness"]["min_gap"] < 1e-15
    assert report["verified"] is True


@pytest.mark.parametrize("bad_set", [
    {"R": 1.0, "h": 1 / 16, "shapes": [{"type": "rect", "x0": 0.1, "y0": 0.1, "x1": 0.9}]},
    {"R": 1.0, "h": 1 / 16, "shapes": [{"type": "stripes1d", "axis": 0}]},
    {"R": 1.0, "h": 1 / 16, "shapes": [{"type": "disk", "cx": 0.5, "cy": 0.5, "r": "big"}]},
    {"pgm": "PGM", "side": 0},
    {"R": 1.0, "h": 1 / 16, "shapes": [{"type": "stripes1d", "axis": [1], "intervals": []}]},
], ids=["rect-without-y1", "stripes-without-intervals", "disk-radius-string", "pgm-side-0",
        "stripes-axis-list"])
def test_malformed_set_is_a_config_error(tmp_path, capsys, bad_set):
    if "pgm" in bad_set:
        pgm = tmp_path / "full.pgm"
        write_pgm(pgm, np.full((16, 16), 255, dtype=np.uint8))
        bad_set = dict(bad_set, pgm=str(pgm))
    cfg = write_config(tmp_path, {"command": "counting", "set": bad_set,
                                  "params": {"n": 1, "lambda": 0.25, "M": 16}, "form": "sharp"})
    assert run_cli(["counting", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
