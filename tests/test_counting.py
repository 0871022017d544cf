import math

import numpy as np
import pytest

from hdlab import (PERIODIC, CountingParams, PlanarGrid, _kernels, counting_sharp,
                   counting_smooth, degenerate_mass, eval_F, make_indicator)
from hdlab.calibrate import random_grid

from conftest import seeded_rng

LENS_AREA = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)  # unit disk, lam = 1


# --- vertex product ---------------------------------------------------------


def test_eval_F_constant_window():
    g = PlanarGrid(1.0, 1 / 32, np.ones((32, 32)), PERIODIC)
    assert eval_F(g, (0.4, 0.6), [(0.2, 0.0), (0.0, 0.3)]) == pytest.approx(1.0)


def test_eval_F_unit_square_cases():
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 2.0, 1 / 64)
    inside = eval_F(g, (0.5, 0.5), [(0.1, 0.0), (0.0, 0.1)])
    assert inside == pytest.approx(1.0)
    outside = eval_F(g, (0.5, 0.5), [(1.0, 0.0), (0.0, 0.1)])
    assert outside == 0.0


def test_eval_F_recurrence_agrees_with_direct():
    rng = seeded_rng(11)
    g = PlanarGrid(1.0, 1 / 32, rng.random((32, 32)))
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        x = rng.uniform(0, 1, 2)
        ys = rng.uniform(-0.4, 0.4, (n, 2))
        a = eval_F(g, x, ys, "direct")
        b = eval_F(g, x, ys, "recurrence")
        worst = max(worst, abs(a - b))
    assert worst <= 1e-12


def test_eval_F_symmetric_in_slots():
    rng = seeded_rng(12)
    g = PlanarGrid(1.0, 1 / 32, rng.random((32, 32)))
    x = (0.5, 0.5)
    ys = [(0.1, 0.05), (-0.2, 0.1), (0.07, -0.13)]
    base = eval_F(g, x, ys)
    assert eval_F(g, x, ys[::-1]) == pytest.approx(base, rel=1e-12)
    assert eval_F(g, x, [ys[1], ys[0], ys[2]]) == pytest.approx(base, rel=1e-12)


# --- sharp form --------------------------------------------------------------


def test_sharp_constant_periodic_is_window_area():
    side = 2.0
    g = PlanarGrid(side, side / 32, np.ones((32, 32)), PERIODIC)
    for n in (1, 2):
        rep = counting_sharp(g, CountingParams(n=n, lam=0.7, quadrature_nodes=8))
        assert rep.value == pytest.approx(side**2, rel=1e-12)
        assert rep.estimator_stderr == 0.0


def test_sharp_disk_matches_lens_area(disk_r4):
    rep = counting_sharp(disk_r4, CountingParams(n=1, lam=1.0, quadrature_nodes=256))
    assert rep.value == pytest.approx(LENS_AREA, rel=0.02)


def test_sharp_small_support_vanishes():
    g = make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 0.3}], 4.0, 1 / 32)
    rep = counting_sharp(g, CountingParams(n=1, lam=1.0, quadrature_nodes=32))
    assert rep.value == 0.0


def test_sharp_dilate_longer_than_window_vanishes(disk_r4):
    # lam exceeds the disk's diameter and the 4x4 window: no vertex pair fits
    for lam in (4.2, 5.0):
        rep = counting_sharp(disk_r4, CountingParams(n=1, lam=lam, quadrature_nodes=16))
        assert rep.value == 0.0


def test_mc_values_match_pointwise_route_at_long_edges():
    # the whole-grid route of the Monte Carlo kernel against the per-point
    # vertex product, with vertices that leave the zero-extended window
    g = random_grid(1.0, 16, 41)
    ys = np.array([
        [(0.3, -0.2), (-0.25, 0.35)],  # short edges, some vertices leave
        [(0.6, 0.1), (-0.3, 0.5)],
        [(1.2, 0.0), (0.1, 0.1)],  # one edge longer than the window
        [(0.7, 0.05), (0.7, -0.05)],  # diagonal sum longer than the window
        [(-2.5, 1.0), (3.1, -0.4)],
        [(0.0, 1.0), (0.05, 0.0)],  # exactly one window side
    ])
    out = np.empty(len(ys))
    _kernels.mc_values(g.values, g.step, ys, g.periodic, out)
    x = g.node_coords()
    for value, y in zip(out, ys):
        ref = g.step**2 * sum(eval_F(g, (a, b), y, "direct") for a in x for b in x)
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert out[:2].min() > 0 and not out[2:].any()


def test_sharp_budget_rejection():
    g = make_indicator([], 1.0, 1 / 64)
    params = CountingParams(n=3, lam=0.1, quadrature_nodes=256, budget=10**6)
    with pytest.raises(ValueError, match="budget"):
        counting_sharp(g, params)


def test_sharp_monotone_in_f(disk_r4):
    params = CountingParams(n=1, lam=0.8, quadrature_nodes=32)
    small = disk_r4.with_values(disk_r4.values * 0.6)
    lo = counting_sharp(small, params).value
    hi = counting_sharp(disk_r4, params).value
    assert lo <= hi + 1e-12


def test_sharp_scaling_covariance(disk_r4):
    # dilating the grid geometry by s and lam by s scales the value by s^2
    params = CountingParams(n=1, lam=1.0, quadrature_nodes=64)
    base = counting_sharp(disk_r4, params).value
    s = 2.0
    dilated = PlanarGrid(disk_r4.side * s, disk_r4.step * s, disk_r4.values)
    scaled = counting_sharp(dilated, CountingParams(n=1, lam=s, quadrature_nodes=64)).value
    assert scaled == pytest.approx(s**2 * base, rel=1e-12)


# --- smoothed form -----------------------------------------------------------


def test_smooth_constant_periodic_exact():
    side = 2.0
    g = PlanarGrid(side, side / 32, np.ones((32, 32)), PERIODIC)
    rep = counting_smooth(g, CountingParams(n=1, lam=0.5, eps=0.5))
    assert rep.value == pytest.approx(side**2, rel=1e-9)
    mc = counting_smooth(g, CountingParams(n=2, lam=0.5, eps=0.5,
                                           estimator="monte_carlo",
                                           mc_samples=100, seed=1))
    assert mc.value == pytest.approx(side**2, rel=1e-12)
    assert mc.estimator_stderr == pytest.approx(0.0, abs=1e-12)


def test_smooth_converges_to_sharp(disk_r4):
    sharp = counting_sharp(disk_r4, CountingParams(n=1, lam=1.0, quadrature_nodes=256)).value
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        v = counting_smooth(disk_r4, CountingParams(n=1, lam=1.0, eps=eps)).value
        gaps.append(abs(v - sharp))
    assert all(b <= a * 1.05 + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.01 * sharp


def test_smooth_mc_vs_exact_two_slots():
    side = 4.0
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 4, "y1": 4}], side, 1 / 16)
    exact = counting_smooth(g, CountingParams(n=2, lam=1.0, eps=1.0, quadrature_nodes=64))
    mc = counting_smooth(g, CountingParams(n=2, lam=1.0, eps=1.0,
                                           estimator="monte_carlo",
                                           mc_samples=20000, seed=21))
    combined = math.hypot(exact.estimator_stderr, mc.estimator_stderr)
    assert abs(exact.value - mc.value) <= 3 * combined


def test_smooth_mc_deterministic(disk_r4):
    params = CountingParams(n=2, lam=1.0, eps=0.5, estimator="monte_carlo",
                            mc_samples=500, seed=33)
    a = counting_smooth(disk_r4, params)
    b = counting_smooth(disk_r4, params)
    assert a.value == b.value
    assert a.estimator_stderr == b.estimator_stderr


def test_smooth_exact_three_slots_rejected(disk_r4):
    with pytest.raises(ValueError, match="monte_carlo"):
        counting_smooth(disk_r4, CountingParams(n=3, lam=1.0, eps=0.5))


def test_smooth_three_slots_mc_runs():
    g = make_indicator([{"type": "disk", "cx": 1, "cy": 1, "r": 0.9}], 2.0, 1 / 32)
    rep = counting_smooth(g, CountingParams(n=3, lam=0.5, eps=0.5,
                                            estimator="monte_carlo",
                                            mc_samples=2000, seed=5))
    assert rep.value >= 0
    assert rep.estimator_stderr > 0


def test_params_validation():
    with pytest.raises(ValueError, match="eps"):
        CountingParams(n=1, lam=1.0, eps=0.0)
    with pytest.raises(ValueError, match="seed"):
        CountingParams(n=1, lam=1.0, estimator="monte_carlo", seed=None)
    with pytest.raises(ValueError, match="dimension"):
        CountingParams(n=4, lam=1.0)
    with pytest.raises(ValueError, match="estimator"):
        CountingParams(n=1, lam=1.0, estimator="bogus")


def test_report_serialisation(disk_r4):
    rep = counting_sharp(disk_r4, CountingParams(n=1, lam=1.0, quadrature_nodes=16))
    doc = rep.to_dict()
    assert doc["value"] == rep.value
    assert doc["stderr"] == 0.0
    assert doc["params"]["n"] == 1
    assert "constants_version" in doc["provenance"]


# --- degeneracy diagnostics ---------------------------------------------------


def test_degenerate_mass_single_slot():
    p = CountingParams(n=1, lam=1.0, quadrature_nodes=64)
    assert degenerate_mass(None, p, 0.5) == 0.0
    assert degenerate_mass(None, p, 1.0) == 1.0  # |y| = lam <= tol


def test_degenerate_mass_two_slots_exact_ties():
    m = 256
    p = CountingParams(n=2, lam=1.0, quadrature_nodes=m)
    frac = degenerate_mass(None, p, 0.0)
    assert frac <= 4.0 / m
    assert frac > 0  # the aligned and antipodal pairs are real ties


def test_degenerate_mass_two_slots_tolerance():
    p = CountingParams(n=2, lam=1.0, quadrature_nodes=256)
    assert degenerate_mass(None, p, 0.01) <= 0.05


def test_degenerate_mass_shrinks_with_tolerance():
    p = CountingParams(n=2, lam=1.0, quadrature_nodes=128)
    fracs = [degenerate_mass(None, p, tol) for tol in (0.2, 0.1, 0.05, 0.0)]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_degenerate_mass_three_slots():
    p = CountingParams(n=3, lam=1.0, quadrature_nodes=32)
    frac = degenerate_mass(None, p, 0.0)
    # ties y_i = +- y_j across three slots; each pair contributes 2/M
    assert 0 < frac <= 6.0 / 32 + 1e-12
