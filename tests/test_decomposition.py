import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from hdlab import (PERIODIC, ZERO, CountingParams, L_form, PlanarGrid, ScaleLadder,
                   _kernels, counting, check_error_bound, check_structured_bound,
                   check_uniform_bound, counting_sharp, counting_smooth,
                   decompose, decomposition_report, error_part, make_indicator,
                   measure, spectral, structured_part, theta_form, uniform_part)
from hdlab.calibrate import random_mask
from hdlab.counting import (_ghat, _neg_khat, _offset_table, _ring_angles,
                            _sigma_weight_table, ring_pad)
from hdlab.decomposition import _log_nodes, _outer_sums, lp_pow_sum
from hdlab.sphere import sphere_fourier_radial

from conftest import seeded_rng


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


def test_structured_bound_holds_one_set_of_tables_at_a_time():
    # each set's memoised offset tables go once its scales are done: the
    # peak over three sets is that of one, and the ratios are unchanged
    masks = [random_mask(1.0, 24, 0.5, 40 + i) for i in range(3)]
    lams = (0.125, 0.25)

    def traced(sets):
        tracemalloc.start()
        try:
            chk = check_structured_bound(sets, lams, 2, quadrature_nodes=16)
            return chk, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = [traced([random_mask(1.0, 24, 0.5, 40 + i)]) for i in range(3)]
    chk, peak = traced(masks)
    assert chk.detail["ratios"] == [r for c, _ in alone for r in c.detail["ratios"]]
    assert not any(hasattr(f, "_offset_tables") for f in masks)
    # a 24-node mask's table is (47^2 + 1) / 2 rows of its 826 occupied
    # |xi| bins in float32, 3.7 MB; holding all three tables would add
    # 7.3 MB to the single-set peak
    assert peak <= 1.25 * max(p for _, p in alone), (peak, [p for _, p in alone])


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


@settings(max_examples=200)
@given(lo=st.floats(1e-6, 1.0), ratio=st.floats(2.0, 1e8), nodes=st.integers(2, 64),
       power=st.floats(-1.0, 2.0))
def test_outer_sums_nest_the_coarse_rule(lo, ratio, nodes, power):
    # the integrand s^power exp(-s) is evaluated once, on the 2 nodes - 1
    # fine nodes, and the coarse sum equals the separate nodes-point rule
    calls = []

    def integrand(s):
        calls.append(s)
        return s**power * np.exp(-s)

    hi = lo * ratio
    coarse, fine = _outer_sums(integrand, lo, hi, nodes)
    assert len(calls) == 1 and calls[0].shape == (2 * nodes - 1,)
    for count, got in ((nodes, coarse), (2 * nodes - 1, fine)):
        s, w = _log_nodes(lo, hi, count)
        want = float(w @ integrand(s))
        assert abs(got - want) <= 1e-12 * want, (count, got, want)


def test_error_part_is_the_decomposition_error_part(canonical_sets):
    f = canonical_sets["mask"]
    for n in (1, 2):
        cell = decompose(f, 0.25, 0.5, n, quadrature_nodes=32)
        assert error_part(f, 0.25, 0.5, n, quadrature_nodes=32) == cell.error_part


# --- the batched evaluator against per-node loops --------------------------------
#
# The loops below evaluate the outer scale quadrature one node at a time,
# with one tent call and one matrix-vector product per node.  They are the
# reference for the batched evaluator.


def gauss_tent_ref(x, a, h):
    k = math.sqrt(math.pi) / a

    def anti(u):
        ku = k * u
        return 0.5 * u + 0.5 * (u * erf(ku) + np.exp(-np.minimum(ku * ku, 700.0)) / (k * math.sqrt(math.pi)))

    return (anti(x + h) - 2.0 * anti(x) + anti(x - h)) / h


def gauss_tent_da_ref(x, a, h):
    return a * (spectral.gauss1(x - h, a) - 2.0 * spectral.gauss1(x, a)
                + spectral.gauss1(x + h, a)) / (2.0 * math.pi * h)


def ball_tents_ref(offsets, step, scale, deriv):
    x = offsets * step
    g = gauss_tent_ref(x, scale, step)
    if not deriv:
        return np.outer(g, g).ravel()
    dg = gauss_tent_da_ref(x, scale, step)
    return (np.outer(dg, g) + np.outer(g, dg)).ravel()


def ring_tents_ref(offsets, step, lam, scale, angles, deriv):
    x = offsets * step
    th = 2.0 * np.pi * np.arange(angles) / angles
    ux = x[:, None] - lam * np.cos(th)[None, :]
    uy = x[:, None] - lam * np.sin(th)[None, :]
    gx = gauss_tent_ref(ux, scale, step)
    gy = gauss_tent_ref(uy, scale, step)
    if not deriv:
        return (np.einsum("am,bm->ab", gx, gy) / angles).ravel()
    dgx = gauss_tent_da_ref(ux, scale, step)
    dgy = gauss_tent_da_ref(uy, scale, step)
    return ((np.einsum("am,bm->ab", dgx, gy) + np.einsum("am,bm->ab", gx, dgy)) / angles).ravel()


def full_rows(tab):
    """(power, zero mode) of every offset from the stored half: the offset
    -d has the mirror index nd^2 - 1 - k of d and the same rows."""
    return (np.concatenate([tab.power, tab.power[-2::-1]]),
            np.concatenate([tab.zero_mode, tab.zero_mode[-2::-1]]))


def assemble_ref(tab, c, w, zero_w):
    """The assembled value and the same sum over absolute terms, summed
    over the rows of all offsets."""
    power, zero_mode = full_rows(tab)
    vals = power @ w.astype(np.float32) + zero_mode * zero_w
    mags = power @ np.abs(w).astype(np.float32) + zero_mode * abs(zero_w)
    return np.array([c @ vals, np.abs(c) @ mags]) / tab.torus_side**2


def lattice_bins(n2, step, nbins=2048):
    """|xi| and the multiplicity of each rfft2 lattice point of an n2-node
    torus, and its bin as ``build_offset_table`` bins them, all flat."""
    xi, mult = spectral.frequency_lattice(n2, n2 * step)
    binidx = np.minimum((xi / (float(xi.max()) * (1.0 + 1e-12)) * nbins).astype(np.int64),
                        nbins - 1)
    return xi.ravel(), mult.ravel(), binidx.ravel()


def offset_table_ref(values, step, pad, nbins=2048):
    """(power, zero mode) rows of every lattice offset, -d as well as d,
    one rfft2 each, over all ``nbins`` bins, and the mask of the bins that
    hold a lattice point."""
    n = values.shape[0]
    n2 = pad * n
    _, mult, binidx = lattice_bins(n2, step, nbins)
    offs = np.arange(-(n - 1), n)
    power = np.zeros((len(offs) ** 2, nbins), dtype=np.float32)
    zero = np.zeros(len(offs) ** 2)
    for k, (da, db) in enumerate((da, db) for da in offs for db in offs):
        buf = np.zeros((n2, n2))
        m = values[max(0, -da):min(n, n - da), max(0, -db):min(n, n - db)]
        m = m * values[max(0, da):min(n, n + da), max(0, db):min(n, n + db)]
        buf[max(0, -da):max(0, -da) + m.shape[0], max(0, -db):max(0, -db) + m.shape[1]] = m
        fm = np.fft.rfft2(buf) * (step * step)
        pm = (fm.real**2 + fm.imag**2).ravel()
        zero[k] = pm[0]
        pm *= mult
        pm[0] = 0.0
        power[k] = np.bincount(binidx, weights=pm, minlength=nbins)
    return power, zero, np.bincount(binidx, minlength=nbins) > 0


def stored_columns(power, occupied):
    """The reference columns ``build_offset_table`` keeps, row-major like its
    table; every dropped one holds no lattice point and is zero."""
    assert not power[:, ~occupied].any()
    return np.ascontiguousarray(power[:, occupied])


def sub_box_mask(rng, nodes, density, box, corner):
    """A random 0/1 mask whose support lies in a box of side ``box`` (at
    most the window), placed at ``corner`` modulo the free room."""
    box = min(box, nodes)
    i0, j0 = (c % (nodes - box + 1) for c in corner)
    values = np.zeros((nodes, nodes))
    values[i0:i0 + box, j0:j0 + box] = rng.random((box, box)) < density
    return values


@settings(max_examples=30)
@given(nodes=st.integers(2, 9), density=st.floats(0.05, 1.0), pad=st.integers(1, 3),
       box=st.integers(1, 9), corner=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       seed=st.integers(0, 2**32 - 1))
def test_half_offset_table_matches_full_table(nodes, density, pad, box, corner, seed):
    # a box below the window side puts the support in a sub-box, so the
    # crop to the support extent drops offsets
    values = sub_box_mask(seeded_rng(seed), nodes, density, box, corner)
    step = 1.0 / nodes
    tab = spectral.build_offset_table(values, step, pad)
    power, zero, occupied = offset_table_ref(values, step, pad)
    power = stored_columns(power, occupied)
    e = max(spectral.support_extent(values), 1)
    nd = 2 * e - 1
    assert np.array_equal(tab.offsets, np.arange(-(e - 1), e))
    assert tab.power.shape == ((nd * nd + 1) // 2, occupied.sum())
    # every window offset beyond the support extent has an empty product ...
    window = np.arange(-(nodes - 1), nodes)
    inside = np.abs(window) < e
    kept = (inside[:, None] & inside[None, :]).ravel()
    assert not power[~kept].any() and not zero[~kept].any()
    # ... the stored rows are the first half of the cropped rows of the
    # full table, bit for bit ...
    power, zero = power[kept], zero[kept]
    assert np.array_equal(tab.power, power[:len(tab.power)])
    assert np.array_equal(tab.zero_mode, zero[:len(tab.power)])
    # ... and the rows of -d are those of d up to round-off, the transform
    # of a translate differing from the transform only in phase
    full_power, full_zero = full_rows(tab)
    scale = max(float(power.max()), 1e-300)
    assert np.abs(full_power - power).max() <= 1e-6 * scale
    assert np.abs(full_zero - zero).max() <= 1e-12 * max(float(zero.max()), 1e-300)


@settings(max_examples=30)
@given(nodes=st.integers(2, 12), density=st.floats(0.05, 1.0), pad=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_offset_table_stores_the_occupied_bins(nodes, density, pad, seed):
    # one column per |xi| bin that holds a lattice point, in bin order: each
    # centroid lies among its bin's lattice radii, so they strictly increase
    values = (seeded_rng(seed).random((nodes, nodes)) < density).astype(float)
    step = 1.0 / nodes
    tab = spectral.build_offset_table(values, step, pad)
    xi, _, binidx = lattice_bins(pad * nodes, step)
    occupied = np.unique(binidx)
    assert len(tab.xi_bar) == tab.power.shape[1] == len(occupied)
    assert np.all(np.diff(tab.xi_bar) > 0)
    for centroid, b in zip(tab.xi_bar, occupied):
        radii = xi[binidx == b]
        assert radii.min() * (1 - 1e-12) <= centroid <= radii.max() * (1 + 1e-12)


def test_assemble_drops_subnormal_float32_weights():
    # weights below the smallest normal float32 enter the product as 0, so
    # the value is bit-identical with them replaced by 0; the last column
    # has no other weight, not even at the zero mode, so it must be 0
    rng = seeded_rng(17)
    f = random_mask(1.0, 12, 0.5, 17)
    tab = spectral.build_offset_table(f.values, f.step, ring_pad(f, 0.0))
    nd, tiny = len(tab.offsets), float(np.finfo(np.float32).tiny)
    c = rng.normal(size=(nd * nd, 3))
    w = rng.normal(size=(len(tab.xi_bar), 3))
    small = rng.random(w.shape) < 0.3
    small[:, -1] = True
    w[small] = rng.uniform(-tiny, tiny, small.sum())
    w0 = rng.normal(size=3)
    w0[-1] = 0.0
    zeroed = np.where(np.abs(w) < tiny, 0.0, w)
    got = spectral.assemble(tab, c, w, w0)
    assert np.array_equal(got, spectral.assemble(tab, c, zeroed, w0)) and got[-1] == 0.0


@pytest.mark.parametrize("bins,columns", [(273, 1), (273, 4), (632, 16), (826, 8), (1628, 5),
                                          (826, 255)])
def test_assemble_rounds_a_row_alike_in_any_table(bins, columns):
    # the 85 rows of a small table placed among the zero rows of a 1105-row
    # one: a one-hot tent column t reads row d_t of the float32 product
    # alone, exactly, so both tables give the same bits
    rng = seeded_rng(bins * 1000 + columns)
    small = rng.random((85, bins)).astype(np.float32)
    place = np.sort(rng.choice(1105, 85, replace=False))
    big = np.zeros((1105, bins), dtype=np.float32)
    big[place] = small
    w = rng.random((bins, columns))
    picks = rng.integers(0, 85, columns)
    values = []
    for power, at, nd in ((small, picks, 13), (big, place[picks], 47)):
        tab = spectral.OffsetTable(1.0, 2.0, np.arange(-(nd // 2), nd // 2 + 1),
                                   np.arange(1.0, bins + 1), power, np.zeros(len(power)))
        c = np.zeros((nd * nd, columns))
        c[at, np.arange(columns)] = 1.0
        values.append(spectral.assemble(tab, c, w, np.zeros(columns)))
    assert np.array_equal(*values)


@settings(max_examples=30)
@given(nodes=st.integers(2, 12), density=st.floats(0.05, 1.0), columns=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_assemble_matches_full_table(nodes, density, columns, seed):
    # tent weights with no d -> -d symmetry, so every mirror pair is folded
    # with two different weights
    rng = seeded_rng(seed)
    f = PlanarGrid(1.0, 1.0 / nodes, (rng.random((nodes, nodes)) < density).astype(float))
    tab = spectral.build_offset_table(f.values, f.step, ring_pad(f, 0.0))
    nd = len(tab.offsets)
    c = rng.normal(size=(nd * nd, columns))
    w = rng.normal(size=(len(tab.xi_bar), columns))
    w0 = rng.normal(size=columns)
    got = spectral.assemble(tab, c, w, w0)
    for t in range(columns):
        want, magnitude = assemble_ref(tab, c[:, t], w[:, t], w0[t])
        assert abs(got[t] - want) <= 1e-6 * magnitude


def test_offset_table_memory_is_half_the_full_table():
    # N = 32: the full table over the window's offsets would take
    # nd^2 x B float32 = 13.1 MB for its B = 826 stored |xi| bins
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}], 1.0, 1 / 32)
    nd = 2 * f.node_count - 1
    tracemalloc.start()
    try:
        tab = spectral.build_offset_table(f.values, f.step, ring_pad(f, 0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * nd * nd * len(tab.xi_bar) * 4, peak


@pytest.mark.parametrize("angles", [4, 5, 8, 30, 64, 66])
@pytest.mark.parametrize("deriv", [False, True])
def test_ring_tents_match_per_scale_reference(angles, deriv):
    # an even angle count evaluates the profiles for theta in [0, pi/2] and
    # mirrors the rest; 4 | angles (4, 8, 64) also takes the profiles at the
    # sin offsets from those at the cos offsets a quarter turn on, angles =
    # 2 (mod 4) (30, 66) evaluates both, and an odd count (5) every node
    f = random_mask(1.0, 12, 0.5, 3)
    tab = _offset_table(f, ring_pad(f, 0.0))
    lam = 3.3 * tab.step
    scales = np.geomspace(0.05, 3.0, 7) * tab.step
    got = spectral.ring_tents(tab.offsets, tab.step, lam, scales, angles, deriv)
    for t, a in enumerate(scales):
        want = ring_tents_ref(tab.offsets, tab.step, lam, a, angles, deriv)
        assert np.abs(got[:, t] - want).max() <= 1e-13 * np.abs(want).max()


def test_sigma_table_is_memoised_on_the_grid():
    # a second call on the same grid makes no sphere_fourier_radial call and
    # gives the same bits; a new grid with the same samples computes afresh
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}], 1.0, 1 / 32)
    params = CountingParams(n=2, lam=0.25, eps=0.5, quadrature_nodes=128)
    real = counting.sphere_fourier_radial
    with mock.patch.object(counting, "sphere_fourier_radial", side_effect=real) as spy:
        first = counting_smooth(f, params).value
        assert spy.call_count == 1
        tab = _offset_table(f, ring_pad(f, params.lam))
        table = _sigma_weight_table(f, params, 5.0, tab)
        assert spy.call_count == 2
        again = _sigma_weight_table(f, params, 5.0, tab)
        second = counting_smooth(f, params).value
        assert spy.call_count == 2
        # another torus side has other zero-cell radii
        _sigma_weight_table(f, params, 5.0, _offset_table(f, ring_pad(f, params.lam) + 1))
        assert spy.call_count == 3
        counting_smooth(PlanarGrid(f.side, f.step, f.values), params)
        assert spy.call_count == 4
    assert np.array_equal(first, second)
    for a, b in zip(table, again):
        assert np.array_equal(a, b)


def test_sigma_table_is_sigma_hat_at_the_read_radii():
    # every bin centroid below the cut holds sigma-hat at its own radius, as
    # one sphere_fourier_radial call over the distinct radii gives it; bins
    # above the cut hold 0; and the 2^15-point interpolated table this
    # replaced is within its interpolation error
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}], 1.0, 1 / 32)
    params = CountingParams(n=2, lam=0.25, eps=0.25, quadrature_nodes=128)
    tab = _offset_table(f, ring_pad(f, params.lam))
    lattice, r2 = tab.xi_bar, tab.torus_side
    u_cut = 0.6 * float(lattice.max())
    real = counting.sphere_fourier_radial
    with mock.patch.object(counting, "sphere_fourier_radial", side_effect=real) as spy:
        table, cells = _sigma_weight_table(f, params, u_cut, tab)
    q = spy.call_args.args[0]
    radii = np.unique(lattice)
    read = radii[radii <= u_cut]
    ref = sphere_fourier_radial(q, np.concatenate([read, spectral.cell_radii(r2)]))
    assert table.shape == lattice.shape
    for r, want in zip(read, ref):
        assert np.all(table[lattice == r] == want)
    assert np.array_equal(cells, ref[len(read):])
    assert np.all(table[lattice > u_cut] == 0.0)
    assert (lattice > u_cut).any() and (lattice <= u_cut).sum() > 100
    u = np.linspace(0.0, u_cut, 1 << 15)
    old = np.interp(lattice, u, sphere_fourier_radial(q, u), right=0.0)
    assert np.abs(table - old).max() <= 1e-6


def correlation_ref(f, offsets):
    """h^2 sum_x f(x) f(x + d) at the 2-d offsets d that ``offsets`` span,
    flat in the layout of the tent weights: a direct sum over the nodes x
    per offset, d wrapped on a periodic grid and f read as 0 outside a
    zero-extended one."""
    n, v = f.node_count, f.values
    out = np.zeros((len(offsets), len(offsets)))
    for a, da in enumerate(offsets):
        for b, db in enumerate(offsets):
            if f.periodic:
                moved = np.roll(v, (-da, -db), axis=(0, 1))
            else:
                moved = np.zeros_like(v)
                moved[max(0, -da):min(n, n - da), max(0, -db):min(n, n - db)] = \
                    v[max(0, da):min(n, n + da), max(0, db):min(n, n + db)]
            out[a, b] = (v * moved).sum() * f.step**2
    return out.ravel()


def tent_ref_offsets(f, reach):
    """Every window offset of a zero-extended grid; on a periodic grid the
    offsets within ``reach`` plus two cells, wrapped."""
    k = int(math.ceil(reach / f.step)) + 2 if f.periodic else f.node_count - 1
    return np.arange(-k, k + 1)


def tent_value_ref(corr, c):
    """(value, magnitude) of the correlation times tent weights.  The
    magnitude is the largest |a| times the sum of |c|: the round-off of a
    transformed correlation is relative to its largest entry, not to each
    entry."""
    return np.array([corr @ c, np.abs(corr).max() * np.abs(c).sum()])


@settings(max_examples=40)
@given(nodes=st.integers(2, 12), density=st.floats(0.05, 1.0), periodic=st.booleans(),
       box=st.integers(1, 12), corner=st.tuples(st.integers(0, 11), st.integers(0, 11)),
       reach_cells=st.floats(0.0, 30.0), seed=st.integers(0, 2**32 - 1))
def test_pair_correlation_is_the_direct_lattice_sum(nodes, density, periodic, box, corner,
                                                    reach_cells, seed):
    # one transform per grid, read at the support's offsets (zero-extended)
    # or at every offset of the reach, far beyond N / 2 included (periodic)
    values = sub_box_mask(seeded_rng(seed), nodes, density, box, corner)
    f = PlanarGrid(1.0, 1.0 / nodes, values, PERIODIC if periodic else ZERO)
    real = spectral.pair_spectrum
    with mock.patch.object(spectral, "pair_spectrum", side_effect=real) as spy:
        offsets, got = counting._pair_correlation(f, reach_cells * f.step, 0.0)
        again = counting._pair_correlation(f, reach_cells * f.step, 0.0)[1]
    assert spy.call_count == 1 and np.array_equal(got, again)
    if periodic:
        assert offsets[-1] >= reach_cells + 1
    else:
        e = max(spectral.support_extent(values), 1)
        assert np.array_equal(offsets, np.arange(-(e - 1), e))
    want = correlation_ref(f, offsets)
    assert np.abs(got - want).max() <= 1e-13 * max(float(want.max()), 1e-300)


def sigma_hat(f, params, tab, smallest_scale):
    """Sigma-hat at the bin centroids of ``tab`` and at the zero-cell radii
    of its torus, from a table that ends at the last centroid or at 3.6 /
    (the smallest kernel scale)."""
    cut = min(float(tab.xi_bar.max()) * (1 + 1e-9), 3.6 / smallest_scale)
    return _sigma_weight_table(f, params, cut, tab)


def l_form_loop(f, lam, alpha, beta, m, n, params, tnodes):
    ts, wq = _log_nodes(alpha, beta, tnodes)
    total = np.zeros(2)
    angles = _ring_angles(params, f.step)
    if n == 1:
        offsets = tent_ref_offsets(f, lam + 4.0 * beta * lam)
        corr = correlation_ref(f, offsets)
        for t, w in zip(ts, wq):
            a = t * lam
            kappa = -2.0 * math.pi * a * ring_tents_ref(offsets, f.step, lam, a, angles, True)
            total += w * tent_value_ref(corr, kappa)
        return total / (2.0 * math.pi)
    tab = _offset_table(f, ring_pad(f, lam))
    cells = spectral.cell_radii(tab.torus_side)
    sig_bins, sig_cells = sigma_hat(f, params, tab, alpha * lam)
    kernel = _neg_khat if m == 1 else _ghat
    for t, w in zip(ts, wq):
        a = t * lam
        wk = sig_bins * kernel(a, tab.xi_bar)
        zero_w = float((sig_cells * kernel(a, cells)).mean())
        if m == 1:
            c = ring_tents_ref(tab.offsets, tab.step, lam, a, angles, False)
            total += w * assemble_ref(tab, c, wk, zero_w)
        else:
            kappa = 2.0 * math.pi * a * ring_tents_ref(tab.offsets, tab.step, lam, a, angles, True)
            total += w * np.array([-1.0, 1.0]) * assemble_ref(tab, kappa, wk, zero_w)
    return total / (2.0 * math.pi)


def theta_loop(f, gammas, m, smin, smax, nodes):
    ss, wq = _log_nodes(smin, smax, nodes)
    total = np.zeros(2)
    if len(gammas) == 1:
        offsets = tent_ref_offsets(f, 4.0 * smax * gammas[0])
        corr = correlation_ref(f, offsets)
        for s, w in zip(ss, wq):
            a = s * gammas[0]
            kappa = -2.0 * math.pi * a * ball_tents_ref(offsets, f.step, a, True)
            total += w * tent_value_ref(corr, kappa)
        return total
    tab = _offset_table(f, ring_pad(f, 0.0))
    cells = spectral.cell_radii(tab.torus_side)
    kernel = _neg_khat if m == 1 else _ghat
    for s, w in zip(ss, wq):
        a1, a2 = s * gammas[0], s * gammas[1]
        wk = kernel(a1, tab.xi_bar)
        zero_w = float(kernel(a1, cells).mean())
        if m == 1:
            c = ball_tents_ref(tab.offsets, tab.step, a2, False)
            total += w * assemble_ref(tab, c, wk, zero_w)
        else:
            kappa = 2.0 * math.pi * a2 * ball_tents_ref(tab.offsets, tab.step, a2, True)
            total += w * np.array([-1.0, 1.0]) * assemble_ref(tab, kappa, wk, zero_w)
    return total


@pytest.mark.parametrize("form,n,m", [("L", 1, 1), ("L", 2, 1), ("L", 2, 2),
                                      ("theta", 1, 1), ("theta", 2, 1), ("theta", 2, 2)])
@settings(max_examples=20)
@given(nodes=st.integers(8, 20), density=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
       lam_cells=st.floats(1.0, 12.0), outer_nodes=st.integers(3, 24),
       stack_elements=st.sampled_from([1, 3000, 40000, _kernels.STACK_ELEMENTS]))
def test_batched_forms_match_node_loops(form, n, m, nodes, density, seed, lam_cells,
                                        outer_nodes, stack_elements):
    # a stack of one element makes every chunk a single node; 3000 and
    # 40000 cut the (offsets^2 x T), (offsets x angles x T) and lattice
    # blocks of these grids into chunks of a few nodes
    rng = seeded_rng(seed)
    f = PlanarGrid(1.0, 1.0 / nodes, (rng.random((nodes, nodes)) < density).astype(float))
    with mock.patch.object(_kernels, "STACK_ELEMENTS", stack_elements):
        if form == "theta":
            gammas = (1.0, math.sqrt(2.0))[:n]
            window = (1e-5 * f.step, 1e3 * f.side)
            got = theta_form(f, gammas, m, nodes=outer_nodes)
            ref = [theta_loop(f, gammas, m, *window, k) for k in (outer_nodes, 2 * outer_nodes - 1)]
        else:
            lam = lam_cells * f.step
            params = CountingParams(n=n, lam=lam, eps=1.0, quadrature_nodes=16)
            got = L_form(f, lam, 0.25, 1.0, m, n, tnodes=outer_nodes, quadrature_nodes=16)
            ref = [l_form_loop(f, lam, 0.25, 1.0, m, n, params, k)
                   for k in (outer_nodes, 2 * outer_nodes - 1)]
    # relative to a magnitude, because sigma-hat and the tent derivatives
    # change sign and the value itself can cancel to near zero.  n = 1:
    # float64 round-off of the transformed correlation and of erf.  n = 2:
    # float32 products over the bins summed in another order
    rel = 1e-12 if n == 1 else 1e-6
    for a, (b, magnitude) in zip((got.coarse, got.value), ref):
        assert abs(a - b) <= rel * magnitude, (a, b, magnitude)


def smooth_ref(f, params):
    """counting_smooth at eps as one node of the loops above (T = 1)."""
    lam, a = params.lam, params.eps * params.lam
    angles = _ring_angles(params, f.step)
    if params.n == 1:
        offsets = tent_ref_offsets(f, lam + 4.0 * a)
        c = ring_tents_ref(offsets, f.step, lam, a, angles, False)
        return tent_value_ref(correlation_ref(f, offsets), c)
    tab = _offset_table(f, ring_pad(f, lam))
    cells = spectral.cell_radii(tab.torus_side)
    sig_bins, sig_cells = sigma_hat(f, params, tab, a)
    zero_w = float((sig_cells * _ghat(a, cells)).mean())
    c = ring_tents_ref(tab.offsets, tab.step, lam, a, angles, False)
    return assemble_ref(tab, c, sig_bins * _ghat(a, tab.xi_bar), zero_w)


@pytest.mark.parametrize("n,boundary", [(1, ZERO), (1, PERIODIC), (2, ZERO)])
@settings(max_examples=20)
@given(nodes=st.integers(8, 20), density=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
       lam_cells=st.floats(1.0, 12.0), eps=st.floats(0.05, 1.0))
def test_counting_smooth_matches_single_node_reference(n, boundary, nodes, density, seed,
                                                       lam_cells, eps):
    rng = seeded_rng(seed)
    f = PlanarGrid(1.0, 1.0 / nodes, (rng.random((nodes, nodes)) < density).astype(float), boundary)
    params = CountingParams(n=n, lam=lam_cells * f.step, eps=eps, quadrature_nodes=16)
    want, magnitude = smooth_ref(f, params)
    # n = 2: a smoothing width below a cell can leave the spectral value
    # negative beyond the noise floor of counting._clamped, which then raises
    floor = 1e-3 * max(float(f.values.sum()) * f.step**2, f.step**2)
    if want < -floor:
        with pytest.raises(ArithmeticError, match="negative"):
            counting_smooth(f, params)
        return
    got = counting_smooth(f, params).value
    # the tolerances of test_batched_forms_match_node_loops, around the
    # reference, clamped for n = 2
    tol = (1e-12 if n == 1 else 1e-6) * magnitude
    assert abs(got - (want if n == 1 else max(want, 0.0))) <= tol, (got, want)


def full_window_table(f, pad):
    """The offset table over every window offset -(N-1) .. N-1, packed from
    ``offset_table_ref`` with the lattice of ``build_offset_table``."""
    tab = spectral.build_offset_table(f.values, f.step, pad)
    power, zero, occupied = offset_table_ref(f.values, f.step, pad)
    power = stored_columns(power, occupied)
    half = (len(power) + 1) // 2
    return spectral.OffsetTable(tab.step, tab.torus_side, np.arange(-(f.node_count - 1), f.node_count),
                                tab.xi_bar, power[:half], zero[:half])


@pytest.mark.parametrize("form,m", [("smooth", 0), ("L", 1), ("L", 2), ("theta", 1), ("theta", 2)])
def test_cropped_table_matches_full_window_table(form, m):
    # a compact set inside a larger window: the forms on the table cropped
    # to the support extent against the same forms on the full-window table
    values = sub_box_mask(seeded_rng(11), 24, 0.6, 7, (5, 12))
    cropped = PlanarGrid(1.0, 1.0 / 24, values)
    full = PlanarGrid(1.0, 1.0 / 24, values)
    lam = 3.5 * full.step
    params = CountingParams(n=2, lam=lam, eps=0.5, quadrature_nodes=16)
    pad = ring_pad(full, 0.0 if form == "theta" else lam)
    counting._grid_memo(full, "_offset_tables")[pad] = full_window_table(full, pad)
    assert len(_offset_table(cropped, pad).offsets) < len(_offset_table(full, pad).offsets)
    if form == "smooth":
        got, want = (counting_smooth(g, params).value for g in (cropped, full))
        magnitude = smooth_ref(full, params)[1]
    elif form == "L":
        got, want = (L_form(g, lam, 0.25, 1.0, m, 2, tnodes=6, quadrature_nodes=16).value
                     for g in (cropped, full))
        magnitude = l_form_loop(full, lam, 0.25, 1.0, m, 2, params, 12)[1]
    else:
        gammas = (1.0, math.sqrt(2.0))
        got, want = (theta_form(g, gammas, m, nodes=8).value for g in (cropped, full))
        magnitude = theta_loop(full, gammas, m, 1e-3 * full.step, 1e3 * full.side, 16)[1]
    # the tolerance of test_batched_forms_match_node_loops' normalisation:
    # the float32 product runs in fixed-shape row blocks, so a row rounds
    # alike in both tables and only the rows of empty products are gone
    assert abs(got - want) <= 1e-9 * magnitude, (got, want, magnitude)


def test_empty_support_gives_zero_two_slot_forms():
    # an all-zero grid has support extent 0; its table keeps the one offset 0
    f = PlanarGrid(1.0, 1.0 / 16, np.zeros((16, 16)))
    assert np.array_equal(_offset_table(f, ring_pad(f, 0.0)).offsets, [0])
    params = CountingParams(n=2, lam=0.25, eps=0.5, quadrature_nodes=16)
    assert counting_smooth(f, params).value == 0.0
    for m in (1, 2):
        assert L_form(f, 0.25, 0.25, 1.0, m, 2, tnodes=4, quadrature_nodes=16).value == 0.0
        assert theta_form(f, (1.0, math.sqrt(2.0)), m, nodes=8).value == 0.0


def test_two_slot_forms_reject_periodic_grids():
    # the exact two-slot path reads offset products of a zero-extended grid;
    # on a torus the products would wrap, so every way into the table refuses
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 1 / 16)
    g = PlanarGrid(f.side, f.step, f.values, PERIODIC)
    params = CountingParams(n=2, lam=0.25, eps=0.5, quadrature_nodes=16)
    with pytest.raises(ValueError, match="zero-extended"):
        counting_smooth(g, params)
    for m in (1, 2):
        with pytest.raises(ValueError, match="zero-extended"):
            L_form(g, 0.25, 0.25, 1.0, m, 2, tnodes=4, quadrature_nodes=16)


def test_two_slot_budget_counts_the_cropped_offsets():
    # a compact set in a large window: the estimate over the support's
    # offsets, nd = 2e - 1, fits a budget that 2N - 1 window offsets did not
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 6 / 32}], 4.0, 1 / 32)
    nodes, e = f.node_count, spectral.support_extent(f.values)
    window_cost = (2 * nodes - 1) ** 2 * (4 * nodes) ** 2 // 4
    support_cost = (2 * e - 1) ** 2 * (4 * nodes) ** 2 // 4
    budget = int(math.sqrt(window_cost * support_cost))
    assert support_cost < budget < window_cost
    params = CountingParams(n=2, lam=0.1, eps=0.5, quadrature_nodes=16, budget=budget)
    assert counting_smooth(f, params).value > 0
    # the same budget still rejects a set that fills the window
    full = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 4, "y1": 4}], 4.0, 1 / 32)
    with pytest.raises(ValueError, match="budget"):
        counting_smooth(full, params)


def test_two_slot_budget_counts_the_padded_torus():
    # the table is built on ring_pad(f, lam) * N nodes per side, so the
    # estimate nd^2 (pad N)^2 / 4 grows with the pad: a disk of radius 1/4 in
    # a unit window gets pad 6 at lam = 1 and pad 2 at lam = 1/8.  A budget
    # between a 4N torus and the true one rejects the first and admits the
    # second
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 1 / 32)
    nodes, nd = f.node_count, 2 * spectral.support_extent(f.values) - 1
    assert (ring_pad(f, 1.0), ring_pad(f, 0.125)) == (6, 2)

    def cost(pad):
        return nd * nd * (pad * nodes) ** 2 // 4

    budget = int(math.sqrt(cost(4) * cost(6)))
    assert cost(4) < budget < cost(6)
    with pytest.raises(ValueError, match="budget"):
        counting_smooth(f, CountingParams(n=2, lam=1.0, eps=0.5, quadrature_nodes=16, budget=budget))
    budget = int(math.sqrt(cost(2) * cost(4)))
    assert cost(2) < budget < cost(4)
    params = CountingParams(n=2, lam=0.125, eps=0.5, quadrature_nodes=16, budget=budget)
    assert counting_smooth(f, params).value > 0


@pytest.mark.parametrize("form", ["L", "theta"])
def test_two_slot_forms_check_the_budget_before_the_build(form):
    # a full-window square of 256 nodes: nd = 511 offsets, each a transform
    # of a pad-4 torus, is an estimate of 511^2 1024^2 / 4 = 6.8e10 over the
    # default budget of 1.7e10; the form refuses before any table is built
    f = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 256)
    with mock.patch.object(spectral, "build_offset_table") as spy:
        with pytest.raises(ValueError, match="budget"):
            if form == "L":
                L_form(f, 0.25, 0.25, 1.0, 1, 2, tnodes=4, quadrature_nodes=16)
            else:
                theta_form(f, (1.0, math.sqrt(2.0)), 1, nodes=8)
    spy.assert_not_called()


def test_ball_tents_are_the_radius_zero_ring():
    # the radius-0 ring of one node reproduces the outer product of the
    # 1-d profiles bit for bit, tents and scale derivatives alike
    f = random_mask(1.0, 16, 0.5, 5)
    tab = _offset_table(f, ring_pad(f, 0.0))
    x = tab.offsets * tab.step
    s = np.geomspace(1e-4, 1e3, 57)[:, None]
    g = spectral.gauss_tent(x, s, tab.step)
    dg = spectral.gauss_tent_da(x, s, tab.step)
    outer = {False: g[:, :, None] * g[:, None, :],
             True: dg[:, :, None] * g[:, None, :] + g[:, :, None] * dg[:, None, :]}
    for deriv, c in outer.items():
        assert np.array_equal(spectral.ball_tents(tab.offsets, tab.step, s[:, 0], deriv),
                              c.reshape(len(s), -1).T)


def test_gauss_tent_profiles_match_three_point_formula():
    # one stack of scales from far below to far above the step, as the ring
    # tents see them; wide profiles are second differences of large
    # antiderivatives, so both formulas carry round-off of the stack's scale
    h = 1 / 16
    x = np.arange(-47, 48) * h
    shifts = np.array([0.0, 0.013, -0.4, 1.7])
    u = x[None, :] - shifts[:, None]
    scales = np.geomspace(1e-4, 40.0, 13)[:, None, None]
    for batched, ref in ((spectral.gauss_tent, gauss_tent_ref),
                         (spectral.gauss_tent_da, gauss_tent_da_ref)):
        got = batched(u, scales, h)
        want = np.stack([ref(u, s, h) for s in scales[:, 0, 0]])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def ulps(a, b):
    """Distance in units in the last place, through the ordered integer
    image of the doubles (-0 and +0 coincide)."""
    def ordered(v):
        i = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(i < 0, -(i & 0x7FFFFFFFFFFFFFFF), i)
    return np.abs(ordered(a) - ordered(b))


@settings(max_examples=300)
@given(xs=st.lists(st.one_of(st.floats(-7.0, 7.0), st.floats(allow_nan=False)),
                   min_size=1, max_size=40))
def test_erf_port_matches_cephes(xs):
    # the Cephes rational forms in the same Horner order as scipy.special.erf:
    # bit for bit where no exp enters (|x| <= 1) or the result rounds to +-1
    # (|x| >= 6); NumPy's exp may differ from libm's by an ulp in between
    x = np.array(xs)
    got, want = spectral._erf(x), erf(x)
    exact = (np.abs(x) <= 1.0) | (np.abs(x) >= 6.0)
    assert np.array_equal(got[exact].view(np.int64), want[exact].view(np.int64))
    assert ulps(got, want).max() <= 1
    assert max(ulps(g, math.erf(v)) for g, v in zip(got, xs)) <= 3


def test_erf_port_special_inputs():
    tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        signed = spectral._erf(np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308]))
        nan = spectral._erf(np.array([np.nan]))
        sub = spectral._erf(tiny)
        scalar, zero_d = spectral._erf(0.5), spectral._erf(np.array(-2.5))
        empty, empty_2d = spectral._erf(np.array([])), spectral._erf(np.empty((0, 3)))
    assert np.array_equal(signed, [0.0, 0.0, 1.0, -1.0, 1.0, -1.0])
    assert list(np.signbit(signed)) == [False, True, False, True, False, True]
    assert np.isnan(nan).all()
    assert np.array_equal(sub.view(np.int64), erf(tiny).view(np.int64))
    assert scalar.shape == () and scalar == erf(0.5)
    assert zero_d.shape == () and ulps(zero_d, erf(-2.5)) <= 1
    assert empty.shape == (0,) and empty_2d.shape == (0, 3)


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
