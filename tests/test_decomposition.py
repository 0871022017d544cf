import math

import numpy as np
import pytest

from hdlab import (PERIODIC, CountingParams, L_form, PlanarGrid, ScaleLadder,
                   check_error_bound, check_structured_bound,
                   check_uniform_bound, counting_sharp, counting_smooth,
                   decompose, decomposition_report, make_indicator, measure,
                   structured_part, theta_form, uniform_part)
from hdlab.calibrate import random_mask
from hdlab.decomposition import lp_pow_sum


def test_ladder_validation():
    lad = ScaleLadder.geometric(0.1, 3)
    assert lad.scales == (0.1, 0.2, 0.4)
    with pytest.raises(ValueError, match="factor 2"):
        ScaleLadder((0.1, 0.15))
    with pytest.raises(ValueError, match="twice"):
        ScaleLadder.geometric(0.25, 3).check_window(1.0)


def test_structured_constant_periodic():
    side = 2.0
    g = PlanarGrid(side, side / 32, np.ones((32, 32)), PERIODIC)
    assert structured_part(g, 0.5, 1) == pytest.approx(side**2, rel=1e-9)


def test_structured_mask_lower_bound(constants):
    c_str = constants.value("c_str")
    for seed, dens in ((1, 0.3), (2, 0.6)):
        f = random_mask(1.0, 64, dens, seed)
        d = measure(f)
        val = structured_part(f, 0.25, 1, quadrature_nodes=64)
        assert val >= c_str * d**2


def test_structured_positive_beyond_support_diameter():
    # smoothing tails keep the fully smoothed form positive where the
    # sharp form is exactly zero
    f = make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 0.25}], 4.0, 1 / 32)
    lam = 1.6  # more than three support diameters
    sharp = counting_sharp(f, CountingParams(n=1, lam=lam, quadrature_nodes=64)).value
    smooth = structured_part(f, lam, 1, quadrature_nodes=64)
    assert sharp == 0.0
    assert 0 < smooth < 0.05 * measure(f)


def test_structured_bound_full_window():
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 64)
    chk = check_structured_bound([g], [0.125], 1)
    # density-one window: the ratio is the smoothed form itself, near 1
    assert chk.observed == pytest.approx(1.0, rel=0.35)
    assert chk.observed > 0


def test_structured_bound_sub_square_sweep():
    g = make_indicator([{"type": "rect", "x0": 0.25, "y0": 0.25, "x1": 0.5, "y1": 0.5}],
                       1.0, 1 / 64)
    chk = check_structured_bound([g], [0.125, 0.25, 0.5, 1.0], 2, quadrature_nodes=64)
    assert chk.observed > 0


def test_structured_bound_random_sweep(constants):
    c_str = constants.value("c_str")
    sets = [random_mask(1.0, 32, 0.1 + 0.8 * i / 9, 3000 + i) for i in range(10)]
    for n in (1, 2):
        chk = check_structured_bound(sets, [0.25], n, frozen=c_str, quadrature_nodes=64)
        assert chk.ok


# --- derivative forms ---------------------------------------------------------


def test_L_telescopes_single_slot(canonical_sets):
    f = canonical_sets["disk"]
    na = counting_smooth(f, CountingParams(n=1, lam=0.5, eps=0.25)).value
    nb = counting_smooth(f, CountingParams(n=1, lam=0.5, eps=1.0)).value
    L = L_form(f, 0.5, 0.25, 1.0, 1, 1)
    assert L.converged
    assert L.value == pytest.approx(na - nb, rel=0.01)


@pytest.mark.parametrize("name", ["square", "disk", "mask"])
def test_L_telescopes_two_slots(canonical_sets, name):
    f = canonical_sets[name]
    na = counting_smooth(f, CountingParams(n=2, lam=0.5, eps=0.25)).value
    nb = counting_smooth(f, CountingParams(n=2, lam=0.5, eps=1.0)).value
    total = sum(L_form(f, 0.5, 0.25, 1.0, m, 2).value for m in (1, 2))
    diff = na - nb
    assert abs(total - diff) <= 0.01 * max(abs(diff), 1e-6 * measure(f))


def test_L_vanishes_for_narrow_band(canonical_sets):
    f = canonical_sets["disk"]
    L = L_form(f, 0.5, 1.0 - 1e-6, 1.0, 1, 1)
    assert abs(L.value) <= 1e-6


def test_L_slot_symmetry_radial(canonical_sets):
    # for a radially symmetric set the two slots are interchangeable;
    # the two discretisations agree to quadrature accuracy
    f = canonical_sets["disk"]
    l1 = L_form(f, 0.5, 0.25, 1.0, 1, 2).value
    l2 = L_form(f, 0.5, 0.25, 1.0, 2, 2).value
    assert l2 == pytest.approx(l1, rel=0.05)


def test_L_validates_band():
    f = make_indicator([], 1.0, 1 / 32)
    with pytest.raises(ValueError):
        L_form(f, 0.5, 0.5, 0.25, 1, 1)


# --- the scale-integrated box form ---------------------------------------------


def test_theta_single_slot_square(canonical_sets):
    f = canonical_sets["square"]
    th = theta_form(f, (1.0,), 1)
    assert th.converged
    assert th.value == pytest.approx(2 * math.pi * measure(f), rel=0.02)


def test_theta_within_envelope(canonical_sets):
    for f in canonical_sets.values():
        for gammas in ((1.0,), (0.7,)):
            th = theta_form(f, gammas, 1)
            cap = 2 * math.pi * lp_pow_sum(f, 2.0)
            assert -1e-6 * cap <= th.value <= cap * 1.02


@pytest.mark.parametrize("name", ["square", "disk", "mask"])
def test_theta_two_slots_telescopes(canonical_sets, name):
    f = canonical_sets[name]
    gammas = (1.0, math.sqrt(2))
    total = sum(theta_form(f, gammas, m).value for m in (1, 2))
    target = 2 * math.pi * lp_pow_sum(f, 4.0)
    assert total == pytest.approx(target, rel=0.02)


def test_theta_positivity(canonical_sets):
    f = canonical_sets["mask"]
    cap = 2 * math.pi * lp_pow_sum(f, 4.0)
    for m in (1, 2):
        th = theta_form(f, (1.0, 1.0), m)
        assert th.value >= -1e-6 * cap


def test_theta_window_validation(canonical_sets):
    f = canonical_sets["disk"]
    with pytest.raises(ValueError, match="s-window"):
        theta_form(f, (1.0,), 1, s_window=(0.1, 1e3))


# --- ladder bounds -------------------------------------------------------------


def test_error_bound_trivial_at_full_smoothing(canonical_sets):
    f = canonical_sets["disk"]
    ladder = ScaleLadder.geometric(1.0 / 16, 3)
    chk = check_error_bound(f, ladder, 1.0, 1)
    assert chk.observed == 0.0
    assert chk.bound == 0.0


def test_error_bound_disk(constants):
    c_err = constants.value("C_err")
    disk = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.4}], 1.0, 1 / 128)
    ladder = ScaleLadder.geometric(1.0 / 16, 4)
    chk = check_error_bound(disk, ladder, 0.25, 1, frozen=c_err, quadrature_nodes=128)
    assert chk.ok


def test_error_sum_depth_independent():
    # doubling the ladder depth by adding larger scales, with the window
    # enlarged to keep R >= 2 lam_max, must not grow the normalised sum
    mask = random_mask(1.0, 256, 0.5, 99)
    shallow = ScaleLadder.geometric(2.0**-5, 4)
    a = check_error_bound(mask, shallow, 0.25, 1, quadrature_nodes=128).observed

    n = mask.node_count
    factor = 8
    big = np.zeros((factor * n, factor * n))
    big[:n, :n] = mask.values
    embedded = PlanarGrid(factor * mask.side, mask.step, big)
    deep = ScaleLadder.geometric(2.0**-5, 8)
    b = check_error_bound(embedded, deep, 0.25, 1, quadrature_nodes=128).observed

    assert b / embedded.side**2 <= 1.10 * (a / mask.side**2)


def test_error_bound_rejects_bad_window():
    f = make_indicator([], 1.0, 1 / 32)
    with pytest.raises(ValueError, match="twice"):
        check_error_bound(f, ScaleLadder.geometric(0.3, 2), 0.5, 1)


def test_uniform_part_constant_periodic():
    side = 2.0
    g = PlanarGrid(side, side / 32, np.ones((32, 32)), PERIODIC)
    assert uniform_part(g, 0.5, 0.5, 1, quadrature_nodes=32) <= 1e-9


def test_uniform_bound_sweep(constants, disk_r4):
    c_uni = constants.value("C_uni")
    eps_values = [2.0**-k for k in range(1, 7)]
    chk = check_uniform_bound(disk_r4, 1.0, eps_values, 1, frozen=c_uni,
                              quadrature_nodes=256)
    assert chk.ok
    assert not chk.detail["inconclusive"]


# --- assembled reports ----------------------------------------------------------


def test_decomposition_cell_telescopes(disk_r4):
    cell = decompose(disk_r4, 1.0, 0.25, 1, quadrature_nodes=64)
    s, e, u = cell.parts()
    assert s + e + u == cell.sharp  # exact algebra, same evaluations


def test_decomposition_report_rows(canonical_sets):
    f = canonical_sets["disk"]
    ladder = ScaleLadder.geometric(1.0 / 8, 2)
    rep = decomposition_report(f, ladder, 0.5, 1, quadrature_nodes=64)
    rows = list(rep.rows())
    assert len(rows) == 2
    for row in rows:
        assert row["telescoping_ok"]
        total = row["structured"] + row["error"] + row["uniform"]
        assert total == pytest.approx(row["sharp"], abs=1e-12)
