"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its runtime; the stated budgets are
enforced.
"""

import json
import math
import time

import numpy as np
import pytest

from hdlab import (CountingParams, L_form, PlanarGrid, PlanarSet, ScaleLadder,
                   SearchSpec, avoided_distance_demo, check_error_bound,
                   check_structured_bound, check_uniform_bound,
                   counting_sharp, counting_smooth, find_copy,
                   gowers_cs_bound, gowers_norm, heat_flow_check,
                   make_indicator, measure, pigeonhole_interval, theta_form,
                   verify_conv_hh, verify_conv_kg, verify_copy)
from hdlab.calibrate import random_grid, random_mask
from hdlab.cli import main as cli_main
from hdlab.decomposition import lp_pow_sum

from conftest import seeded_rng, u2_routes


def _report(num, desc, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {num}: {desc} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed <= budget


def test_criterion_1_gaussian_identities():
    t0 = time.monotonic()
    pairs = 0.5 + 3.5 * seeded_rng(2024).random((10, 2))
    for a, b in pairs:
        assert verify_conv_hh(a, b, 16.0, 1 / 32).residual <= 1e-6
        assert verify_conv_kg(a, b, 16.0, 1 / 32).residual <= 1e-6
    assert heat_flow_check(1.0, (0.0, 0.0), 1e-3) <= 1e-5
    r1 = heat_flow_check(1.0, (0.7, -0.4), 2e-3)
    r2 = heat_flow_check(1.0, (0.7, -0.4), 1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)
    _report(1, "Gaussian convolution identities and heat flow", t0, 30)


def test_criterion_2_gowers_suite(constants):
    t0 = time.monotonic()
    for i in range(20):
        g = random_grid(1.0, 32, 5000 + i)
        routes = u2_routes(g)
        assert max(routes) - min(routes) <= 1e-6 * max(routes)
    sq = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 64)
    assert gowers_norm(sq, 2) == pytest.approx((4 / 9) ** 0.25, rel=0.01)
    c_gcs = constants.value("c_gcs")
    assert c_gcs > 0
    for i in range(100):
        g = random_grid(1.0, 32, 1000 + i)
        assert gowers_cs_bound(g, 2, (0.0, 0.0, 1.0)).ratio >= c_gcs
    _report(2, "box-norm routes, unit-square value, cube lower bound", t0, 120)


def test_criterion_3_counting_consistency():
    t0 = time.monotonic()
    disk = make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 1}], 4.0, 1 / 64)
    lens = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)
    sharp = counting_sharp(disk, CountingParams(n=1, lam=1.0, quadrature_nodes=256))
    assert sharp.value == pytest.approx(lens, rel=0.02)
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        v = counting_smooth(disk, CountingParams(n=1, lam=1.0, eps=eps)).value
        gaps.append(abs(v - sharp.value))
    assert all(b <= a * 1.05 + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.01 * sharp.value
    square = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 4, "y1": 4}], 4.0, 1 / 16)
    exact = counting_smooth(square, CountingParams(n=2, lam=1.0, eps=1.0, quadrature_nodes=32))
    mc = counting_smooth(square, CountingParams(n=2, lam=1.0, eps=1.0,
                                                estimator="monte_carlo",
                                                mc_samples=100_000, seed=2024))
    combined = math.hypot(exact.estimator_stderr, mc.estimator_stderr)
    assert abs(exact.value - mc.value) <= 3 * combined
    _report(3, "lens area, eps convergence, MC vs exact estimators", t0, 300)


def test_criterion_4_theta_suite(canonical_sets):
    t0 = time.monotonic()
    for name, f in canonical_sets.items():
        cap1 = 2 * math.pi * lp_pow_sum(f, 2.0)
        th = theta_form(f, (1.0,), 1)
        assert th.value >= -1e-6 * cap1
        assert th.value == pytest.approx(cap1, rel=0.02), name
        cap2 = 2 * math.pi * lp_pow_sum(f, 4.0)
        parts = [theta_form(f, (1.0, math.sqrt(2)), m) for m in (1, 2)]
        for p in parts:
            assert p.value >= -1e-6 * cap2
        assert sum(p.value for p in parts) == pytest.approx(cap2, rel=0.02), name
    _report(4, "box-form positivity and telescoping totals", t0, 300)


def test_criterion_5_decomposition_sweeps(constants, canonical_sets):
    t0 = time.monotonic()
    # telescoping through the derivative forms, n = 1 and 2
    disk = canonical_sets["disk"]
    for n in (1, 2):
        na = counting_smooth(disk, CountingParams(n=n, lam=0.5, eps=0.25)).value
        nb = counting_smooth(disk, CountingParams(n=n, lam=0.5, eps=1.0)).value
        total = sum(L_form(disk, 0.5, 0.25, 1.0, m, n).value for m in range(1, n + 1))
        diff = na - nb
        assert abs(total - diff) <= 0.01 * max(abs(diff), 1e-6 * measure(disk))
    # structured lower bound over 50 random sets
    c_str = constants.value("c_str")
    sets = [random_mask(1.0, 32, 0.1 + 0.8 * i / 49, 2000 + i) for i in range(50)]
    for n in (1, 2):
        chk = check_structured_bound(sets, [0.25], n, frozen=c_str, quadrature_nodes=64)
        assert chk.ok, f"structured ratio {chk.observed} below frozen {c_str}"
    # uniform bound with one frozen constant across the eps sweep
    c_uni = constants.value("C_uni")
    disk4 = make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 1}], 4.0, 1 / 64)
    eps_values = [2.0**-k for k in range(1, 7)]
    chk = check_uniform_bound(disk4, 1.0, eps_values, 1, frozen=c_uni,
                              quadrature_nodes=256)
    assert chk.ok
    # depth independence of the error-sum under a doubled ladder
    mask = random_mask(1.0, 256, 0.5, 99)
    a = check_error_bound(mask, ScaleLadder.geometric(2.0**-5, 4), 0.25, 1,
                          quadrature_nodes=128).observed
    big = np.zeros((8 * 256, 8 * 256))
    big[:256, :256] = mask.values
    embedded = PlanarGrid(8.0, mask.step, big)
    b = check_error_bound(embedded, ScaleLadder.geometric(2.0**-5, 8), 0.25, 1,
                          quadrature_nodes=128).observed
    assert b / embedded.side**2 <= 1.10 * (a / mask.side**2)
    # and the raw ladder sum stays below the frozen error constant
    c_err = constants.value("C_err")
    chk = check_error_bound(mask, ScaleLadder.geometric(2.0**-5, 4), 0.25, 1,
                            frozen=c_err, quadrature_nodes=128)
    assert chk.ok
    _report(5, "telescoping, structured, uniform and error-ladder bounds", t0, 900)


def test_criterion_6_embedding(constants):
    t0 = time.monotonic()
    square = PlanarSet.from_shapes(
        [{"type": "rect", "x0": 0, "y0": 0, "x1": 4, "y1": 4}], 4.0)
    disk = PlanarSet.from_shapes([{"type": "disk", "cx": 10, "cy": 10, "r": 10}], 20.0)
    for n in (1, 2, 3):
        spec = SearchSpec(x_step=0.25 if n < 3 else 0.5)
        out = find_copy(square, (1.0,) * n, spec)
        assert out.status == "found" and verify_copy(square, out.copy), ("square", n)
        out = find_copy(disk, (1.0,) * n, spec)
        assert out.status == "found" and verify_copy(disk, out.copy), ("disk", n)
    from fractions import Fraction

    assert avoided_distance_demo("banach_Z", Fraction(1, 2)) is False
    eps = Fraction(1, 100)
    assert avoided_distance_demo("stripes", Fraction(3, 2) * eps, eps=eps) is False
    mask = random_mask(1.0, 256, 0.5, 4242)
    res = pigeonhole_interval(PlanarSet.from_bitmap(mask), 0.5, 1, 0.25, 3,
                              depth_coefficient=constants.value("J_coeff"))
    assert res.length == 4.0**-res.j
    assert res.length >= 4.0**-res.depth
    assert res.witness_found
    assert any(w is not None and verify_copy(PlanarSet.from_bitmap(mask), w)
               for w in res.witnesses)
    _report(6, "witness search, exact 1-d negatives, interval selection", t0, 600)


def test_criterion_7_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "command": "decompose",
        "set": {"R": 1.0, "h": 1 / 64,
                "shapes": [{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.4}]},
        "n": 1, "eps": 0.5, "M": 64,
        "ladder": {"smallest": 0.125, "count": 2},
    }))
    outputs = []
    for i, threads in enumerate((1, 4, 2)):
        out = tmp_path / f"out{i}"
        rc = cli_main(["decompose", "--config", str(cfg), "--out", str(out),
                       "--threads", str(threads), "--no-cache"])
        assert rc == 0
        outputs.append(((out / "decompose.json").read_bytes(),
                        (out / "decompose.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    # cached rerun reproduces the bytes as well
    out_c = tmp_path / "cached"
    for _ in range(2):
        assert cli_main(["decompose", "--config", str(cfg), "--out", str(out_c)]) == 0
        assert (out_c / "decompose.json").read_bytes() == outputs[0][0]
    _report(7, "byte-identical reports across reruns and thread counts", t0, 120)
