import math

import pytest

from hdlab import gowers_cs_bound, gowers_norm, make_indicator
from hdlab.calibrate import random_grid

U2_UNIT_SQUARE = (4.0 / 9.0) ** 0.25  # tent-correlation integral per axis is 2/3


def test_u1_unit_square(unit_square):
    assert gowers_norm(unit_square, 1) == pytest.approx(1.0, abs=1e-12)


def test_u2_unit_square(unit_square):
    assert gowers_norm(unit_square, 2) == pytest.approx(U2_UNIT_SQUARE, rel=0.01)


def test_u2_three_routes_agree():
    for seed in range(5):
        g = random_grid(1.0, 32, 100 + seed)
        r1 = gowers_norm(g, 2, "recursion")
        r2 = gowers_norm(g, 2, "autocorrelation")
        r3 = gowers_norm(g, 2, "spectral")
        spread = max(r1, r2, r3) - min(r1, r2, r3)
        assert spread <= 1e-6 * max(r1, r2, r3)


def test_u3_runs_and_dominates_density(unit_square):
    # box norms of indicators are bounded by 1 and decrease slowly in n
    u3 = gowers_norm(unit_square, 3)
    assert 0 < u3 <= 1


def test_gowers_rejects_bad_order(unit_square):
    with pytest.raises(ValueError):
        gowers_norm(unit_square, 4)
    with pytest.raises(ValueError):
        gowers_norm(unit_square, 2, route="fft")


def test_gowers_rejects_negative_values(unit_square):
    g = unit_square.with_values(unit_square.values - 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gowers_norm(g, 2)


# --- cube-supported lower bound ----------------------------------------------


def test_cs_bound_unit_square(unit_square):
    chk = gowers_cs_bound(unit_square, 2, (0.0, 0.0, 1.0))
    assert chk.lhs == pytest.approx(U2_UNIT_SQUARE, rel=0.01)
    assert chk.rhs == pytest.approx(1.0, rel=1e-12)
    assert chk.ratio == pytest.approx(U2_UNIT_SQUARE, rel=0.01)


def test_cs_bound_homogeneity(unit_square):
    half = unit_square.with_values(0.5 * unit_square.values)
    a = gowers_cs_bound(unit_square, 2, (0.0, 0.0, 1.0))
    b = gowers_cs_bound(half, 2, (0.0, 0.0, 1.0))
    assert b.lhs == pytest.approx(a.lhs / 2, rel=1e-12)
    assert b.rhs == pytest.approx(a.rhs / 2, rel=1e-12)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_cs_bound_support_leak_rejected():
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1.5, "y1": 1.0}],
                       2.0, 1 / 32)
    with pytest.raises(ValueError, match="leak"):
        gowers_cs_bound(g, 2, (0.0, 0.0, 1.0))


def test_cs_bound_random_sweep(constants):
    c_gcs = constants.value("c_gcs")
    worst = math.inf
    for i in range(100):
        g = random_grid(1.0, 32, 1000 + i)
        worst = min(worst, gowers_cs_bound(g, 2, (0.0, 0.0, 1.0)).ratio)
    assert worst >= c_gcs > 0
