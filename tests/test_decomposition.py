import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, erfc, erfcx

from hdlab import (PERIODIC, ZERO, CountingParams, L_form, PlanarGrid, ScaleLadder,
                   _kernels, counting, check_error_bound, check_structured_bound,
                   check_uniform_bound, counting_sharp, counting_smooth,
                   decompose, decomposition_report, error_part, make_indicator,
                   measure, spectral, structured_part, theta_form, uniform_part)
from hdlab.calibrate import random_mask
from hdlab.counting import _offset_table, _ring_angles
from hdlab.decomposition import _log_nodes, _outer_sums, lp_pow_sum

from conftest import assemble_ref, fold, four_point_ref, packed_table, seeded_rng


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
    # each set's cache (its table and tent profiles) is cleared once its
    # scales are done: the peak over three sets is that of one, and the
    # ratios are unchanged
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
    assert not any(f.cache for f in masks)
    # a 24-node mask's table is the triangle of its 1105 half rows and
    # columns in float32, 2.7 MB; holding all three tables would add 5.4 MB
    # to the single-set peak
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
    # the four-point table is symmetric under the swap of the two slots, so
    # the Laplacian in either slot gives the same form, radial set or not
    for name, f in canonical_sets.items():
        l1 = L_form(f, 0.5, 0.25, 1.0, 1, 2).value
        l2 = L_form(f, 0.5, 0.25, 1.0, 2, 2).value
        assert abs(l2 - l1) <= 1e-12 * abs(l1), name


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
    # the antiderivative max(u, 0) + R(|u|) at x - h, x, x + h: the ramp's
    # second difference is the kink's, and R's keeps the Gaussian tail
    k = math.sqrt(math.pi) / a

    def rest(u):
        kv = k * np.abs(u)
        return 0.5 * (np.exp(-np.minimum(kv * kv, 700.0)) / (k * math.sqrt(math.pi)) - np.abs(u) * erfc(kv))

    kink = np.where((x - h < 0) & (x + h > 0),
                    np.maximum(x + h, 0) - 2.0 * np.maximum(x, 0) + np.maximum(x - h, 0), 0.0)
    return (rest(x + h) - 2.0 * rest(x) + rest(x - h) + kink) / h


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


def window_offsets(f):
    """Every offset of the window, -(N-1) .. N-1."""
    return np.arange(-(f.node_count - 1), f.node_count)


def unpacked(tab):
    """The half rows and columns of Q, from the triangle blocks."""
    nd = len(tab.offsets)
    half = (nd * nd + 1) // 2
    q = np.zeros((half, half))
    for r0, r1, c0, block in tab.blocks():
        q[r0:r1, c0:] = block
        beyond = max(r1, c0)
        q[beyond:, r0:r1] = block[:, beyond - c0:].T
    return q


def direct_four_point(values, offsets):
    """sum_x f(x) f(x + d1) f(x + d2) f(x + d1 + d2) by shifted products,
    with no transform, at every pair of the offsets' 2-d offsets."""
    n, k = values.shape[0], int(np.abs(offsets).max())
    big = np.zeros((n + 4 * k, n + 4 * k))
    big[2 * k:2 * k + n, 2 * k:2 * k + n] = values
    view = np.lib.stride_tricks.sliding_window_view(big, (n, n))  # view[2k + d] = f(. + d)
    da, db = (o.ravel() + 2 * k for o in np.meshgrid(offsets, offsets, indexing="ij"))
    out = np.zeros((len(da), len(da)))
    for i in range(len(da)):
        m = values * view[da[i], db[i]]
        out[i] = np.einsum("xy,jxy,jxy->j", m, view[da, db], view[da + da[i] - 2 * k, db + db[i] - 2 * k])
    return out


def sub_box_mask(rng, nodes, density, box, corner):
    """A random 0/1 mask whose support lies in a box of side ``box`` (at
    most the window), placed at ``corner`` modulo the free room."""
    box = min(box, nodes)
    i0, j0 = (c % (nodes - box + 1) for c in corner)
    values = np.zeros((nodes, nodes))
    values[i0:i0 + box, j0:j0 + box] = rng.random((box, box)) < density
    return values


@settings(max_examples=40)
@given(nodes=st.integers(2, 10), density=st.floats(0.05, 1.0), grey=st.booleans(),
       box=st.integers(1, 10), corner=st.tuples(st.integers(0, 9), st.integers(0, 9)),
       move=st.tuples(st.integers(0, 9), st.integers(0, 9)), seed=st.integers(0, 2**32 - 1))
def test_half_offset_table_matches_full_table(nodes, density, grey, box, corner, move, seed):
    # the stored triangle of the half rows and columns against the direct
    # four-point sum over every pair of support offsets, 0/1 and grey
    # samples anywhere in the window
    rng = seeded_rng(seed)
    values = sub_box_mask(rng, nodes, density, box, corner)
    if grey:
        values *= rng.random(values.shape)
    step = 1.0 / 16
    tab = spectral.build_offset_table(values, step)
    e = max(spectral.support_extent(values), 1)
    assert np.array_equal(tab.offsets, np.arange(-(e - 1), e))
    full = direct_four_point(values, tab.offsets) * step * step
    nd = len(tab.offsets)
    half = (nd * nd + 1) // 2
    # Q is symmetric and even in each argument (-d has the mirror index) ...
    scale = max(full.max(), 1e-300)
    assert np.abs(full - full.T).max() <= 1e-14 * scale
    assert np.abs(full - full[::-1]).max() <= 1e-14 * scale
    # ... so the half holds it; 0/1 sums are integers, rounded and held
    # exactly in float32 at a step of 2^-4
    got = unpacked(tab)
    if grey:
        assert np.abs(got - full[:half, :half]).max() <= 1e-6 * scale
    else:
        assert np.array_equal(got, full[:half, :half])
    # the set translated and put in a larger window gives the same bits
    width = nodes + max(move) + 3
    moved = np.zeros((width, width))
    moved[move[0]:move[0] + nodes, move[1]:move[1] + nodes] = values
    assert np.array_equal(spectral.build_offset_table(moved, step).power, tab.power)


@pytest.mark.parametrize("entries,columns", [(273, 1), (273, 4), (632, 16), (826, 8), (1628, 5),
                                             (826, 255)])
def test_assemble_rounds_a_row_alike_in_any_table(entries, columns):
    # a symmetric Q with random entries among the offsets -6 .. 6, stored in
    # its own 85-row table and among the zero rows of the 1105-row table of
    # the offsets -23 .. 23: a one-hot weight in each slot, folded onto the
    # stored half, reads one entry through the triangle blocks, alone and
    # exactly, so both tables give the same bits, and those of the entry
    rng = seeded_rng(entries * 1000 + columns)
    small, big = np.arange(-6, 7), np.arange(-23, 24)
    q = np.zeros((169, 169))
    at = rng.integers(0, 169, (entries, 2))
    q[at[:, 0], at[:, 1]] = rng.random(entries).astype(np.float32)
    q = np.maximum(q, q.T)
    q = np.maximum(q, q[::-1])
    q = np.maximum(q, q[:, ::-1])
    inside = ((big[:, None] + 23) * 47 + big[None, :] + 23)[17:30, 17:30].ravel()
    wide = np.zeros((47 * 47, 47 * 47))
    wide[np.ix_(inside, inside)] = q
    pick = rng.integers(0, 169, (2, columns))
    values = []
    for offsets, table, index in ((small, q, np.arange(169)), (big, wide, inside)):
        tab = packed_table(1.0, offsets, table)
        c1, c2 = (np.zeros((len(offsets) ** 2, columns)) for _ in range(2))
        c1[index[pick[0]], np.arange(columns)] = 1.0
        c2[index[pick[1]], np.arange(columns)] = 1.0
        values.append(spectral.assemble(tab, fold(c1), fold(c2)))
    assert np.array_equal(*values)
    assert np.array_equal(values[0], q[pick[0], pick[1]])


@settings(max_examples=30)
@given(nodes=st.integers(2, 12), density=st.floats(0.05, 1.0), columns=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_assemble_matches_full_table(nodes, density, columns, seed):
    # weights with no d -> -d symmetry and different in the two slots,
    # folded onto the stored half, so every mirror pair sums two different
    # weights, against the float64 sum over all pairs of offsets
    rng = seeded_rng(seed)
    f = PlanarGrid(1.0, 1.0 / nodes, (rng.random((nodes, nodes)) < density).astype(float))
    tab = spectral.build_offset_table(f.values, f.step)
    q = four_point_ref(f.values, f.step, tab.offsets)
    nd = len(tab.offsets)
    c1, c2 = rng.normal(size=(2, nd * nd, columns))
    got = spectral.assemble(tab, fold(c1), fold(c2))
    for t in range(columns):
        want, magnitude = assemble_ref(q, c1[:, t], c2[:, t])
        assert abs(got[t] - want) <= 1e-6 * magnitude


def test_offset_table_memory_is_half_the_full_table():
    # N = 32: the support extent is 20 nodes, so the 761 half rows and
    # columns would take 2.3 MB in float32; the stored triangle takes 0.58
    # of that (its 128-row blocks keep their diagonal squares whole), and
    # the build adds batch buffers of a fixed size, whatever the table's
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}], 1.0, 1 / 32)
    e = spectral.support_extent(f.values)
    half = ((2 * e - 1) ** 2 + 1) // 2
    tracemalloc.start()
    try:
        tab = spectral.build_offset_table(f.values, f.step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tab.power.nbytes <= 0.6 * half * half * 4
    assert peak <= tab.power.nbytes + 16 * spectral._BATCH_POINTS * 8, peak


@pytest.mark.parametrize("angles", [4, 8, 12, 64, 68])
@pytest.mark.parametrize("deriv", [False, True])
def test_ring_tents_match_per_scale_reference(angles, deriv):
    # the profiles are evaluated on a quarter turn and folded onto the
    # offsets >= 0; q = angles / 4 is odd (4, 12, 68) or even (8, 64), so the
    # node pi/4, paired with itself, is absent or present.  The reference
    # on all offsets is folded onto the stored half
    f = random_mask(1.0, 12, 0.5, 3)
    tab = _offset_table(f)
    lam = 3.3 * tab.step
    scales = np.geomspace(0.05, 3.0, 7) * tab.step
    got = spectral.ring_tents(tab.offsets, tab.step, lam, scales, angles, deriv)
    for t, a in enumerate(scales):
        want = fold(ring_tents_ref(tab.offsets, tab.step, lam, a, angles, deriv))
        assert np.abs(got[:, t] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("angles", [5, 30, 66])
@pytest.mark.parametrize("deriv", [False, True])
def test_ring_tents_refuse_angle_counts_not_divisible_by_4(angles, deriv):
    # odd (5) and 2 (mod 4) (30, 66) counts have no quarter turn to fold onto
    with pytest.raises(ValueError, match="divisible by 4"):
        spectral.ring_tents(np.arange(-3, 4), 0.1, 0.3, [0.1], angles, deriv)


@settings(max_examples=150)
@given(nodes=st.integers(2, 12), quarter=st.integers(1, 64), sides=st.floats(0.0, 3.0),
       rel_scale=st.floats(-4.0, 3.0), step=st.floats(1e-3, 1.0),
       kind=st.sampled_from(["c", "dc"]))
def test_ring_tents_match_reference_property(nodes, quarter, sides, rel_scale, step, kind):
    # symmetric offsets of either parity (half-integers for an even count),
    # lam up to three window sides, scales 1e-4 h .. 1e3 h.  Both routes
    # round the node positions (error eps lam / s in the profiles) and take
    # second differences of antiderivatives of size s / h (eps (s / h)^2).
    # On this domain the fold and a sum over the full ring both stay within
    # 130 eps times that condition; the bound is 450 eps times it.  The
    # reference is folded onto the stored half; with an even count of
    # offsets no row is its own mirror
    offsets = np.arange(nodes) - (nodes - 1) / 2
    angles, lam, scale = 4 * quarter, sides * nodes * step, 10.0**rel_scale * step
    tol = 1e-13 * (1.0 + 10.0 ** (2 * rel_scale) + lam / scale)
    got = spectral.ring_tents(offsets, step, lam, [scale], angles, kind == "dc")
    want = fold(ring_tents_ref(offsets, step, lam, scale, angles, kind == "dc"))
    assert got.shape == ((nodes * nodes + 1) // 2, 1)
    assert np.abs(got[:, 0] - want).max() <= tol * np.abs(want).max()


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
    # or at every offset of the reach, far beyond N / 2 included (periodic),
    # on the stored half: the rows up to d = 0
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
    want = correlation_ref(f, offsets)[:(len(offsets) ** 2 + 1) // 2]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * max(float(want.max()), 1e-300)


def l_form_loop(f, lam, alpha, beta, m, n, params, tnodes):
    ts, wq = _log_nodes(alpha, beta, tnodes)
    total = np.zeros(2)
    angles = _ring_angles(params, f.step)
    offsets = tent_ref_offsets(f, lam + 4.0 * beta * lam)
    corr = correlation_ref(f, offsets) if n == 1 else None
    q = four_point_ref(f.values, f.step, offsets) if n == 2 else None
    for t, w in zip(ts, wq):
        a = t * lam
        c = ring_tents_ref(offsets, f.step, lam, a, angles, False)
        kappa = -2.0 * math.pi * a * ring_tents_ref(offsets, f.step, lam, a, angles, True)
        if n == 1:
            total += w * tent_value_ref(corr, kappa)
        else:
            total += w * assemble_ref(q, *((kappa, c) if m == 1 else (c, kappa)))
    return total / (2.0 * math.pi)


def theta_loop(f, gammas, m, smin, smax, nodes):
    ss, wq = _log_nodes(smin, smax, nodes)
    total = np.zeros(2)
    offsets = tent_ref_offsets(f, 4.0 * smax * gammas[0])
    corr = correlation_ref(f, offsets) if len(gammas) == 1 else None
    q = four_point_ref(f.values, f.step, offsets) if len(gammas) == 2 else None
    for s, w in zip(ss, wq):
        slots = []
        for k, g in enumerate(gammas, 1):
            a = s * g
            laplacian = -2.0 * math.pi * a * ball_tents_ref(offsets, f.step, a, True)
            slots.append(laplacian if k == m else ball_tents_ref(offsets, f.step, a, False))
        total += w * (tent_value_ref(corr, slots[0]) if q is None else assemble_ref(q, *slots))
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
    # relative to a magnitude, because the tent derivatives change sign and
    # the value itself can cancel to near zero.  n = 1: float64 round-off of
    # the transformed correlation and of erf.  n = 2: the table in float32
    rel = 1e-12 if n == 1 else 1e-6
    for a, (b, magnitude) in zip((got.coarse, got.value), ref):
        assert abs(a - b) <= rel * magnitude, (a, b, magnitude)


def smooth_ref(f, params):
    """counting_smooth at eps as one node of the loops above (T = 1)."""
    lam, a = params.lam, params.eps * params.lam
    angles = _ring_angles(params, f.step)
    offsets = tent_ref_offsets(f, lam + 4.0 * a)
    c = ring_tents_ref(offsets, f.step, lam, a, angles, False)
    if params.n == 1:
        return tent_value_ref(correlation_ref(f, offsets), c)
    return assemble_ref(four_point_ref(f.values, f.step, offsets), c, c)


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
    got = counting_smooth(f, params).value
    # the tolerances of test_batched_forms_match_node_loops
    assert abs(got - want) <= (1e-12 if n == 1 else 1e-6) * magnitude, (got, want)


def memo_calls(boundary, lam):
    """Forms of one grid whose tents share folded profiles: on a zero-extended
    grid L_form's n = 1 and n = 2 share rings and theta_form's slots share
    balls.  The two counting_smooth calls share their scale and angle count
    (M = 128 is above 6 pi / eps) but not lam; on a periodic grid the n = 1
    offsets depend on lam and, through L_form's largest scale, on beta,
    while its first scale node is alpha lam for either beta."""
    smooth = [lambda f, n=n, radius=radius, eps=eps: counting_smooth(f, CountingParams(
                  n=n, lam=radius, eps=eps, quadrature_nodes=128)).value
              for n in ((1,) if boundary == PERIODIC else (1, 2))
              for radius, eps in ((lam, 0.5), (2.0 * lam, 0.25))]
    if boundary == PERIODIC:
        return smooth + [lambda f, beta=beta: L_form(f, lam, 0.25, beta, 1, 1, tnodes=3,
                                                     quadrature_nodes=16) for beta in (0.5, 1.0)]
    return smooth + \
        [lambda f, n=n, m=m: L_form(f, lam, 0.25, 1.0, m, n, tnodes=3, quadrature_nodes=16)
         for n, m in ((1, 1), (2, 1), (2, 2))] + \
        [lambda f, n=n, m=m: theta_form(f, (1.0, math.sqrt(2.0))[:n], m, nodes=3)
         for n, m in ((1, 1), (2, 1), (2, 2))]


@pytest.mark.parametrize("boundary", [ZERO, PERIODIC])
@settings(max_examples=15)
@given(nodes=st.integers(4, 10), density=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1),
       lam_cells=st.floats(1.0, 4.0), order=st.permutations(range(10)),
       stack_elements=st.sampled_from([1, 3000, _kernels.STACK_ELEMENTS]))
def test_memoised_forms_equal_forms_on_a_fresh_grid(boundary, nodes, density, seed, lam_cells,
                                                     order, stack_elements):
    # a stack of one element makes each scale node its own chunk, so forms
    # that share a node share the memo entry of its profiles
    values = (seeded_rng(seed).random((nodes, nodes)) < density).astype(float)
    calls = memo_calls(boundary, lam_cells / nodes)
    with mock.patch.object(_kernels, "STACK_ELEMENTS", stack_elements):
        warm = PlanarGrid(1.0, 1.0 / nodes, values, boundary)
        got = {i: calls[i](warm) for i in order if i < len(calls)}
        for i, call in enumerate(calls):
            assert got[i] == call(PlanarGrid(1.0, 1.0 / nodes, values, boundary)), i


def test_edge_heavy_draws_keep_two_slot_values_nonnegative():
    # 400 draws over the ranges of the reference test above, each parameter
    # at an end of its range half the time: rings wholly in the Gaussian tail
    # of sparse masks, where tents cancelled to round-off.  No n = 2 value
    # may trip the report's guard against negative values
    rng = seeded_rng(35054501)

    def draw(lo, hi):
        return (lo, hi)[rng.integers(2)] if rng.random() < 0.5 else rng.uniform(lo, hi)

    for _ in range(400):
        nodes = int(round(draw(8, 20)))
        values = (rng.random((nodes, nodes)) < draw(0.05, 1.0)).astype(float)
        f = PlanarGrid(1.0, 1.0 / nodes, values)
        params = CountingParams(n=2, lam=draw(1.0, 12.0) * f.step, eps=draw(0.05, 1.0),
                                quadrature_nodes=16)
        assert counting_smooth(f, params).value >= -1e-12


@pytest.mark.parametrize("form,m", [("smooth", 0), ("L", 1), ("L", 2), ("theta", 1), ("theta", 2)])
def test_cropped_table_matches_full_window_table(form, m):
    # a compact set inside a larger window: the forms on the table cropped
    # to the support extent against the same forms on a table of every
    # window offset, from the reference sums
    values = sub_box_mask(seeded_rng(11), 24, 0.6, 7, (5, 12))
    cropped = PlanarGrid(1.0, 1.0 / 24, values)
    full = PlanarGrid(1.0, 1.0 / 24, values)
    offsets = window_offsets(full)
    q = four_point_ref(values, full.step, offsets)
    full.cache["four_point_table"] = packed_table(full.step, offsets, q)
    assert len(_offset_table(cropped).offsets) < len(_offset_table(full).offsets)
    lam = 3.5 * full.step
    params = CountingParams(n=2, lam=lam, eps=0.5, quadrature_nodes=16)
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
    # both tables hold the same float32 entries; the rows of empty products
    # are gone, and the contraction sums the rest in another order
    assert abs(got - want) <= 1e-9 * magnitude, (got, want, magnitude)


def test_empty_support_gives_zero_two_slot_forms():
    # an all-zero grid has support extent 0; its table keeps the one offset 0
    f = PlanarGrid(1.0, 1.0 / 16, np.zeros((16, 16)))
    assert np.array_equal(_offset_table(f).offsets, [0])
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


def table_cost(extent):
    """The budget estimate of a table: one transform of the (2e)^2 torus per
    stored row, (2e)^2 log2(2e) each, plus the table's bytes at 64
    operations each."""
    side = 2 * max(extent, 1)
    rows, entries = spectral.table_size(extent)
    return int(rows * side * side * math.log2(side)) + 64 * 4 * entries


def test_two_slot_budget_counts_the_cropped_offsets():
    # a compact set in a large window: the estimate over the support's
    # offsets fits a budget that the window's offsets did not
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 6 / 32}], 4.0, 1 / 32)
    window_cost, support_cost = table_cost(f.node_count), table_cost(spectral.support_extent(f.values))
    budget = int(math.sqrt(window_cost * support_cost))
    assert support_cost < budget < window_cost
    params = CountingParams(n=2, lam=0.1, eps=0.5, quadrature_nodes=16)
    with mock.patch.object(counting, "DEFAULT_BUDGET", budget):
        assert counting_smooth(f, params).value > 0
        # the same budget still rejects a set that fills the window
        full = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 4, "y1": 4}], 4.0, 1 / 32)
        with pytest.raises(ValueError, match="budget"):
            counting_smooth(full, params)


def test_two_slot_budget_counts_the_padded_torus():
    # the table is built on the 2e-node torus of the support box, whatever
    # lam and the window: the estimate admits a budget of exactly its value
    # and rejects one less.  The table's bytes are part of it: a budget
    # that covers the transforms alone is rejected
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 1 / 32)
    cost = table_cost(spectral.support_extent(f.values))
    rows, entries = spectral.table_size(spectral.support_extent(f.values))
    for lam in (0.125, 1.0):
        params = CountingParams(n=2, lam=lam, eps=0.5, quadrature_nodes=16)
        with mock.patch.object(counting, "DEFAULT_BUDGET", cost - 64 * 4 * entries):
            with pytest.raises(ValueError, match="budget"):
                counting_smooth(f, params)
        with mock.patch.object(counting, "DEFAULT_BUDGET", cost):
            assert counting_smooth(f, params).value > 0


@pytest.mark.parametrize("form", ["L", "theta"])
def test_two_slot_forms_check_the_budget_before_the_build(form):
    # a full-window square of 256 nodes: 130 561 stored rows, each a
    # transform of the 512-node torus, and 8.5e9 entries of 4 bytes at 64
    # operations each make an estimate of 2.5e12, over the default budget
    # of 1.7e10; the form refuses before any table is built
    f = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 256)
    assert table_cost(256) > counting.DEFAULT_BUDGET
    with mock.patch.object(spectral, "build_offset_table") as spy:
        with pytest.raises(ValueError, match="budget"):
            if form == "L":
                L_form(f, 0.25, 0.25, 1.0, 1, 2, tnodes=4, quadrature_nodes=16)
            else:
                theta_form(f, (1.0, math.sqrt(2.0)), 1, nodes=8)
    spy.assert_not_called()


@pytest.mark.parametrize("form", ["smooth", "L", "theta"])
def test_one_slot_forms_check_the_budget_before_the_correlation(form):
    # every n = 1 form prices the correlation torus and its tents, and refuses
    # before the correlation is made
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 1 / 16)
    with mock.patch.object(counting, "DEFAULT_BUDGET", 1), \
            mock.patch.object(spectral, "pair_spectrum") as spy:
        with pytest.raises(ValueError, match="budget"):
            if form == "smooth":
                counting_smooth(f, CountingParams(n=1, lam=0.25, eps=0.5, quadrature_nodes=16))
            elif form == "L":
                L_form(f, 0.25, 0.25, 1.0, 1, 1, tnodes=4, quadrature_nodes=16)
            else:
                theta_form(f, (1.0,), 1, nodes=8)
    spy.assert_not_called()


@pytest.mark.parametrize("field, value", [("quadrature_nodes", 0), ("quadrature_nodes", 2.5),
                                          ("quadrature_nodes", -4), ("tnodes", 1), ("tnodes", 2.5),
                                          ("nodes", 1), ("nodes", 2.5)])
def test_node_counts_are_refused_by_name(field, value):
    # a node count that is not an integer, or below the least a rule can use
    # (one circle node, two outer nodes), is a ValueError naming the field
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 1 / 16)
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        if field == "quadrature_nodes":
            CountingParams(n=1, lam=0.25, quadrature_nodes=value)
        elif field == "tnodes":
            L_form(f, 0.25, 0.25, 1.0, 1, 1, tnodes=value, quadrature_nodes=16)
        else:
            theta_form(f, (1.0,), 1, nodes=value)


def test_default_budget_caps_the_table_memory():
    # a table byte is priced at 64 operations, so the default budget admits
    # support extents up to 74 nodes (a 236 MB triangle), the 64-node
    # acceptance square among them, and refuses 75 before any table is built
    assert table_cost(64) <= table_cost(74) <= counting.DEFAULT_BUDGET < table_cost(75)
    assert 4 * spectral.table_size(74)[1] < 240e6
    h = 1 / 128
    f = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 75 * h, "y1": 75 * h}], 1.0, h)
    assert spectral.support_extent(f.values) == 75
    with mock.patch.object(spectral, "build_offset_table") as spy:
        with pytest.raises(ValueError, match="budget"):
            counting_smooth(f, CountingParams(n=2, lam=0.1, eps=0.5, quadrature_nodes=16))
    spy.assert_not_called()


def test_ball_tents_are_the_radius_zero_ring():
    # the radius-0 ring of four nodes reproduces the outer product of the
    # 1-d profiles bit for bit, tents and scale derivatives alike: the
    # profiles are exactly even, so the fold doubles them and the weights
    # 1/2 and 1/4 undo it.  Those weights round below the smallest normal
    # number, so there the ring may differ from the product by that much.
    # The product on all offsets is folded onto the stored half
    f = random_mask(1.0, 16, 0.5, 5)
    tab = _offset_table(f)
    x = tab.offsets * tab.step
    s = np.geomspace(1e-4, 1e3, 57)[:, None]
    g = spectral.gauss_tent(x, s, tab.step)
    dg = spectral.gauss_tent_da(x, s, tab.step)
    outer = {False: g[:, :, None] * g[:, None, :],
             True: dg[:, :, None] * g[:, None, :] + g[:, :, None] * dg[:, None, :]}
    tiny = np.finfo(float).tiny
    for deriv, c in outer.items():
        want = fold(c.reshape(len(s), -1).T)
        got = spectral.ball_tents(tab.offsets, tab.step, s[:, 0], deriv)
        normal = np.abs(want) >= tiny
        assert np.array_equal(got[normal], want[normal])
        assert np.abs(got - want)[~normal].max(initial=0.0) <= tiny


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


@settings(max_examples=300)
@given(xs=st.lists(st.floats(0.0, 27.0, exclude_max=True), min_size=1, max_size=40))
def test_erfcx_port_matches_scipy(xs):
    # the Cephes forms on [0, 27), where the tents read them, with the edges
    # of each branch: below 1 through erf, in the same Horner order as
    # scipy.special.erf, so bit for bit with exp(x^2) (1 - erf(x)); then the
    # forms of erfc, within 1e-14 of SciPy's erfcx (2.1e-15 seen at most)
    edges = [0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, math.nextafter(8.0, 0.0), 8.0,
             math.nextafter(27.0, 0.0)]
    x = np.array(edges + xs)
    got, want = spectral._erfcx(x), erfcx(x)
    assert (np.abs(got - want) <= 1e-14 * want).all()
    low = x < 1.0
    below = np.exp(x[low] * x[low]) * (1.0 - erf(x[low]))
    assert np.array_equal(got[low].view(np.int64), below.view(np.int64))


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
