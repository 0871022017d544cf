import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlab import (PERIODIC, ZERO, PlanarGrid, gowers_cs_bound, gowers_norm,
                   make_indicator)
from hdlab.calibrate import random_grid

from conftest import seeded_rng, torus_values, u2_routes

U2_UNIT_SQUARE = (4.0 / 9.0) ** 0.25  # tent-correlation integral per axis is 2/3


def test_u1_unit_square(unit_square):
    assert gowers_norm(unit_square, 1) == pytest.approx(1.0, abs=1e-12)


def test_u2_unit_square(unit_square):
    assert gowers_norm(unit_square, 2) == pytest.approx(U2_UNIT_SQUARE, rel=0.01)


def test_u2_three_routes_agree():
    for seed in range(5):
        g = random_grid(1.0, 32, 100 + seed)
        routes = u2_routes(g)
        assert max(routes) - min(routes) <= 1e-6 * max(routes)


@settings(max_examples=200)
@given(nodes=st.integers(4, 16), density=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
       periodic=st.booleans())
def test_u2_routes_agree_on_random_grids(nodes, density, seed, periodic):
    # direct shifted sums, squared autocorrelation and fourth power of the
    # transform; a scan of 3 000 such grids found a relative spread of at
    # most 8.7e-16
    rng = seeded_rng(seed)
    values = rng.random((nodes, nodes)) * (rng.random((nodes, nodes)) < density)
    g = PlanarGrid(1.0, 1.0 / nodes, values, PERIODIC if periodic else ZERO)
    routes = u2_routes(g)
    assert max(routes) - min(routes) <= 1e-14 * max(routes), routes


def test_u3_runs_and_dominates_density(unit_square):
    # box norms of indicators are bounded by 1 and decrease slowly in n
    u3 = gowers_norm(unit_square, 3)
    assert 0 < u3 <= 1


@settings(max_examples=100)
@given(nodes=st.integers(2, 4), density=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
       periodic=st.booleans())
def test_u3_matches_direct_sum(nodes, density, seed, periodic):
    # on the torus gowers_norm embeds the grid in, with no transform:
    # u3^8 = h^8 sum_{a,b} (sum_x f(x) f(x+a) f(x+b) f(x+a+b))^2, the shift
    # of the third slot factored out as the square
    rng = seeded_rng(seed)
    values = rng.random((nodes, nodes)) * (rng.random((nodes, nodes)) < density)
    g = PlanarGrid(1.0, 1.0 / nodes, values, PERIODIC if periodic else ZERO)
    vals, h = torus_values(g), g.step
    t = len(vals)
    plus = (np.arange(t)[:, None] + np.arange(t)) % t  # plus[b, x] = x + b mod t

    def shifts(m):  # shifts(m)[b1, b2, x1, x2] = m(x + b)
        return m[plus[:, None, :, None], plus[None, :, None, :]]

    total = 0.0
    for shifted in shifts(vals).reshape(t * t, t, t):
        pair = vals * shifted  # f(x) f(x + a)
        total += float(((pair * shifts(pair)).sum(axis=(2, 3)) ** 2).sum())
    want = (h**8 * total) ** 0.125
    assert abs(gowers_norm(g, 3) - want) <= 1e-13 * want


def test_gowers_rejects_bad_order(unit_square):
    with pytest.raises(ValueError):
        gowers_norm(unit_square, 4)


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
