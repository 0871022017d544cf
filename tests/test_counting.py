import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlab import (PERIODIC, ZERO, CountingParams, PlanarGrid, _kernels, counting,
                   counting_sharp, counting_smooth, degenerate_mass, eval_F,
                   make_indicator, spectral)
from hdlab.calibrate import random_grid, random_mask

from conftest import assemble_ref, four_point_ref, seeded_rng

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


def eval_F_recurrence(f, x, ys):
    """``eval_F`` by splitting off the last edge vector and multiplying the
    two half-products; an independent oracle for the direct product.

    ``x`` (..., 2) and ``ys`` (..., n, 2) may carry leading axes of draws
    sharing one n; each recursion leaf reads its vertices of every draw in
    one array ``value_at`` call."""
    ys = np.asarray(ys, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if ys.shape[-2] == 1:
        a = f.value_at(x[..., 0], x[..., 1])
        b = f.value_at(x[..., 0] + ys[..., 0, 0], x[..., 1] + ys[..., 0, 1])
        return a * b
    head, last = ys[..., :-1, :], ys[..., -1, :]
    return eval_F_recurrence(f, x, head) * eval_F_recurrence(f, x + last, head)


def test_eval_F_recurrence_agrees_with_direct():
    rng = seeded_rng(11)
    g = PlanarGrid(1.0, 1 / 32, rng.random((32, 32)))
    draws = {1: [], 2: [], 3: []}
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        draws[n].append((rng.uniform(0, 1, 2), rng.uniform(-0.4, 0.4, (n, 2))))
    worst = 0.0
    for n, xys in draws.items():
        x, ys = (np.array(v) for v in zip(*xys))
        a = np.array([eval_F(g, xi, yi) for xi, yi in xys])
        worst = max(worst, np.abs(a - eval_F_recurrence(g, x, ys)).max())
    assert worst <= 1e-12


def vertex_product_ref(values, h, x1, x2, ys, periodic):
    """The vertex product with one scalar ``read_bilinear`` call per vertex."""
    prod = 1.0
    for r in range(1 << ys.shape[0]):
        p1 = x1
        p2 = x2
        for k in range(ys.shape[0]):
            if (r >> k) & 1:
                p1 += ys[k, 0]
                p2 += ys[k, 1]
        prod *= float(_kernels.read_bilinear(values, h, np.float64(p1), np.float64(p2), periodic))
        if prod == 0.0:
            return 0.0
    return prod


@settings(max_examples=300)
@given(n=st.integers(1, 3), nodes=st.integers(4, 16), seed=st.integers(0, 2**32 - 1),
       periodic=st.booleans(), reach=st.floats(0.0, 3.0))
def test_eval_F_routes_agree(n, nodes, seed, periodic, reach):
    # edge vectors up to three window sides, so vertices leave the window
    # (zero-extended) or wrap around it (periodic)
    rng = seeded_rng(seed)
    g = PlanarGrid(1.0, 1.0 / nodes, rng.random((nodes, nodes)), PERIODIC if periodic else ZERO)
    x = rng.uniform(0.0, 1.0, 2)
    ys = rng.uniform(-reach, reach, (n, 2))
    a = eval_F(g, x, ys)
    b = eval_F_recurrence(g, x, ys)
    assert abs(a - b) <= 1e-12 * abs(b), (a, b)
    # one batched read of the vertices gives the bits of one read per vertex
    assert a == vertex_product_ref(g.values, g.step, x[0], x[1], ys, g.periodic)


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
    # at n = 3 the weights of the C(M + 2, 3) evaluated multisets must add
    # up to M^3 for the window area to come out
    for n in (1, 2, 3):
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
        ref = g.step**2 * sum(eval_F(g, (a, b), y) for a in x for b in x)
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert out[:2].min() > 0 and not out[2:].any()


# reference loops: one angle tuple (one sample) at a time, whole-grid shifts


def sharp_sum_loop(values, h, lam, cos_t, sin_t, n, periodic):
    m = cos_t.shape[0]
    tuples = m**n
    total = 0.0
    for t in range(tuples):
        rem = t
        idx = []
        for _ in range(n):
            idx.append(rem % m)
            rem //= m
        prod = values.copy()
        for r in range(1, 1 << n):
            d1 = 0.0
            d2 = 0.0
            for k in range(n):
                if (r >> k) & 1:
                    d1 += lam * cos_t[idx[k]]
                    d2 += lam * sin_t[idx[k]]
            prod = prod * _kernels.shift_grid(values, h, d1, d2, periodic)
            if not prod.any():
                break
        total += prod.sum()
    return total * h * h / tuples


def mc_values_loop(values, h, ys, periodic):
    ns, n = ys.shape[:2]
    out = np.empty(ns)
    for s in range(ns):
        prod = values.copy()
        for r in range(1, 1 << n):
            d1 = 0.0
            d2 = 0.0
            for k in range(n):
                if (r >> k) & 1:
                    d1 += ys[s, k, 0]
                    d2 += ys[s, k, 1]
            prod = prod * _kernels.shift_grid(values, h, d1, d2, periodic)
            if not prod.any():
                break
        out[s] = prod.sum() * h * h
    return out


def assert_matches_loops(values, lam, m, n, periodic, ys, stack_elements):
    h = 1.0 / values.shape[0]
    th = 2.0 * np.pi * np.arange(m) / m
    cos_t, sin_t = np.cos(th), np.sin(th)
    with mock.patch.object(_kernels, "STACK_ELEMENTS", stack_elements), \
            mock.patch.object(_kernels, "MC_STACK_ELEMENTS", stack_elements):
        got = [_kernels.sharp_sum(values, h, lam, cos_t, sin_t, n, periodic)]
        got += list(_kernels.mc_values(values, h, ys, periodic, np.empty(len(ys))))
    ref = [sharp_sum_loop(values, h, lam, cos_t, sin_t, n, periodic)]
    ref += list(mc_values_loop(values, h, ys, periodic))
    for a, b in zip(got, ref):
        # round-off of a regrouped x-sum, and exact zeros where the loop has them
        assert abs(a - b) <= 1e-12 * abs(b), (a, b)


def corner_node(nodes):
    v = np.zeros((nodes, nodes))
    v[-1, 0] = 0.7
    return v


def one_row(nodes):
    v = np.zeros((nodes, nodes))
    v[3, :] = seeded_rng(5).random(nodes)
    return v


@settings(max_examples=100)
@given(n=st.integers(1, 3), m=st.integers(3, 8), nodes=st.integers(4, 16),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       periodic=st.booleans(), lam_cells=st.floats(0.01, 48.0),
       stack_elements=st.sampled_from([1, 200, _kernels.STACK_ELEMENTS]))
def test_kernels_match_tuple_and_sample_loops(n, m, nodes, density, seed, periodic,
                                              lam_cells, stack_elements):
    # lam from 0.01 cell to three window sides (48 cells of the largest grid);
    # samples of every length up to three sides, in both boundary modes
    rng = seeded_rng(seed)
    values = rng.random((nodes, nodes)) * (rng.random((nodes, nodes)) < density)
    lam = min(lam_cells / nodes, 3.0)
    ys = rng.uniform(-3.0, 3.0, (5, n, 2)) * rng.uniform(0.0, 1.0, (5, n, 1)) ** 2
    assert_matches_loops(values, lam, m, n, periodic, ys, stack_elements)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("values", [np.zeros((8, 8)), corner_node(8), one_row(12)],
                         ids=["all_zero", "corner_node", "one_row"])
def test_kernels_match_loops_on_edge_supports(values, periodic):
    ys = seeded_rng(6).uniform(-1.5, 1.5, (6, 3, 2))
    for n in (1, 2, 3):
        for lam in (0.01 / len(values), 0.3, 1.0, 2.9):
            assert_matches_loops(values, lam, 5, n, periodic, ys[:, :n], 200)


@settings(max_examples=100)
@given(nodes=st.integers(2, 12), box=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       k=st.integers(1, 6), reach=st.floats(0.0, 2.5), periodic=st.booleans(),
       stacked_prod=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_corner_dots_match_the_summed_shift_stack(nodes, box, k, reach, periodic,
                                                  stacked_prod, seed):
    # shifts up to 2.5 window sides, K = 1 included, on any box of nodes, with
    # one product grid or one per shift; the dot path regroups the x-sum, so
    # the two agree within round-off of the absolute sum
    rng = seeded_rng(seed)
    values = rng.random((nodes, nodes))
    h = 1.0 / nodes
    i0, i1 = sorted(int(b * nodes) for b in box[:2])
    j0, j1 = sorted(int(b * nodes) for b in box[2:])
    box = (i0, max(i1, i0 + 1), j0, max(j1, j0 + 1))
    rows, cols = box[1] - box[0], box[3] - box[2]
    prod = rng.random((k, rows, cols) if stacked_prod else (rows, cols))
    dy1, dy2 = rng.uniform(-reach, reach, (2, k))
    windows = _kernels._window_view(values, periodic, box)
    stack = _kernels._shift_stack(values, h, dy1, dy2, periodic, box, windows)
    want = (prod * stack).reshape(k, -1).sum(axis=1)
    scale = np.abs(prod * stack).reshape(k, -1).sum(axis=1)
    got = _kernels._shift_dots(prod, values, h, dy1, dy2, periodic, box, windows)
    assert got.shape == (k,)
    assert np.all(np.abs(got - want) <= 1e-13 * scale), (got, want)


@settings(max_examples=25)
@given(n=st.integers(1, 3), nodes=st.integers(4, 40), density=st.floats(0.0, 1.0),
       periodic=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mc_values_do_not_depend_on_the_stack_cap(n, nodes, density, periodic, seed):
    # each sample's x-sum is formed by the same arithmetic whatever the
    # stack holds, so the cap moves no bit
    rng = seeded_rng(seed)
    values = rng.random((nodes, nodes)) * (rng.random((nodes, nodes)) < density)
    ys = rng.uniform(-0.7, 0.7, (60, n, 2))
    outs = []
    for cap in (1, 2000, _kernels.MC_STACK_ELEMENTS, _kernels.STACK_ELEMENTS):
        with mock.patch.object(_kernels, "MC_STACK_ELEMENTS", cap):
            outs.append(_kernels.mc_values(values, 1 / nodes, ys, periodic, np.empty(len(ys))))
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_sharp_n1_matches_splatted_autocorrelation(disk_r4):
    # independent n = 1 route: h^2/M sum_delta K(delta) C(delta), with K the
    # bilinear splat of the M circle points onto integer cell offsets and C
    # the autocorrelation of the grid values (one FFT on a 2N torus, so every
    # offset |delta| < N is read without wrap-around)
    values, h, m = disk_r4.values, disk_r4.step, 256
    nodes = values.shape[0]
    side = 2 * nodes
    spec = np.fft.rfft2(values, s=(side, side))
    corr = np.fft.irfft2(spec * spec.conj(), s=(side, side))
    th = 2.0 * np.pi * np.arange(m) / m
    for lam in (0.05, 0.3, 1.0, 1.9, 4.5):
        q1, q2 = lam * np.cos(th) / h, lam * np.sin(th) / h
        c1, c2 = np.floor(q1), np.floor(q2)
        f1, f2 = q1 - c1, q2 - c2
        splat = np.zeros((side, side))
        for di, w1 in ((0, 1 - f1), (1, f1)):
            for dj, w2 in ((0, 1 - f2), (1, f2)):
                d1, d2 = (c1 + di).astype(int), (c2 + dj).astype(int)
                inside = (np.abs(d1) < nodes) & (np.abs(d2) < nodes)
                np.add.at(splat, (d1[inside] % side, d2[inside] % side), (w1 * w2)[inside])
        oracle = h * h / m * float((splat * corr).sum())
        value = counting_sharp(disk_r4, CountingParams(n=1, lam=lam, quadrature_nodes=m)).value
        # the absolute term covers FFT round-off where C vanishes (lam = 4.5)
        assert abs(value - oracle) <= 1e-12 * abs(oracle) + 1e-12 * h * h, lam


def test_sharp_sum_memory_is_bounded_by_stack_chunks():
    # unchunked, n = 1 on 128 x 128 nodes with M = 256 peaks near 100 MB
    # ((256, 129, 129) float64 stacks take 34 MB each), and n = 2 on
    # 224 x 224 nodes with M = 40 near 84 MB; chunked, both stay under 25 MB.
    # n = 3 with M = 32 on 4 x 4 nodes peaks near 0.1 MB: nothing of M^3
    # floats (a 32^3 table of per-tuple sums took 1.3 MB)
    for nodes, m, n, bound in ((128, 256, 1, 64e6), (224, 40, 2, 64e6), (4, 32, 3, 0.5e6)):
        values = seeded_rng(8).random((nodes, nodes)) + 0.5
        th = 2.0 * np.pi * np.arange(m) / m
        tracemalloc.start()
        try:
            _kernels.sharp_sum(values, 1 / nodes, 0.3, np.cos(th), np.sin(th), n, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak)


@pytest.mark.parametrize("stack_elements", [1, 200])
@pytest.mark.parametrize("n", [2, 3])
def test_sharp_sum_evaluates_each_angle_multiset_once(n, stack_elements):
    # a positive periodic grid never ends a product early, so the stacked
    # (slot-0) shifts are r = 1 once per angle and the 2^(n-1) - 1 other
    # slot-0 vertices once per evaluated tuple: C(M + n - 1, n) of them,
    # not the M^n ordered tuples.  The last vertex is a stacked corner-dot
    # call rather than a stacked shift; both are counted
    m, nodes = 7, 6
    values = seeded_rng(9).random((nodes, nodes)) + 0.5
    th = 2.0 * np.pi * np.arange(m) / m
    stacked = []

    def counting_stacks(real, dy1_at):
        def counted(*args):
            if np.ndim(args[dy1_at]):
                stacked.append(len(args[dy1_at]))
            return real(*args)
        return counted

    with mock.patch.object(_kernels, "STACK_ELEMENTS", stack_elements), \
            mock.patch.object(_kernels, "_shift_stack", counting_stacks(_kernels._shift_stack, 2)), \
            mock.patch.object(_kernels, "_shift_dots", counting_stacks(_kernels._shift_dots, 3)):
        got = _kernels.sharp_sum(values, 1 / nodes, 0.3, np.cos(th), np.sin(th), n, True)
    assert sum(stacked) == m + (2 ** (n - 1) - 1) * math.comb(m + n - 1, n)
    ref = sharp_sum_loop(values, 1 / nodes, 0.3, np.cos(th), np.sin(th), n, True)
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_under_resolved_width_gives_the_direct_value(eps):
    # eps * lambda below a cell on a sparse 8 x 8 mask, where a midpoint
    # rule in one slot once drove the n = 2 value negative.  Tents and the
    # four-point table are nonnegative, so the value is a sum of nonnegative
    # terms, as the n = 1 value is, and it is the direct sum over all pairs
    # of window offsets, the table's half rows and columns taking the tents
    # on the stored half, as Q is even in each argument
    f = random_mask(1.0, 8, 0.125, 0)
    assert counting_smooth(f, CountingParams(n=1, lam=1.5 * f.step, eps=eps)).value > 0
    params = CountingParams(n=2, lam=1.5 * f.step, eps=eps)
    got = counting_smooth(f, params).value
    offsets = np.arange(-7, 8)
    c = spectral.ring_tents(offsets, f.step, params.lam, [eps * params.lam],
                            counting._ring_angles(params, f.step))[:, 0]
    half = len(c)
    q = four_point_ref(f.values, f.step, offsets)[:half, :half]
    want, magnitude = assemble_ref(q, c, c)
    assert got >= 0.0 and abs(got - want) <= 1e-6 * magnitude, (got, want)


@pytest.mark.parametrize("n", [1, 2])
def test_smooth_budget_rejection(n):
    f = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.25}], 1.0, 1 / 16)
    with mock.patch.object(counting, "DEFAULT_BUDGET", 1), pytest.raises(ValueError, match="budget"):
        counting_smooth(f, CountingParams(n=n, lam=0.25, eps=0.5, quadrature_nodes=16))


def test_sharp_budget_rejection():
    g = make_indicator([], 1.0, 1 / 64)
    params = CountingParams(n=3, lam=0.1, quadrature_nodes=256)
    with mock.patch.object(counting, "DEFAULT_BUDGET", 10**6), pytest.raises(ValueError, match="budget"):
        counting_sharp(g, params)


def test_sharp_budget_counts_unordered_tuples():
    # n = 2, M = 16 on 8 x 8 nodes: the C(17, 2) = 136 evaluated tuples cost
    # 136 * 64 * 4 = 34 816, under a budget that the 16^2 = 256 ordered
    # tuples (65 536) would exceed
    g = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.4}], 1.0, 1 / 8)
    params = CountingParams(n=2, lam=0.25, quadrature_nodes=16)
    with mock.patch.object(counting, "DEFAULT_BUDGET", 50_000):
        value = counting_sharp(g, params).value
    th = 2.0 * np.pi * np.arange(16) / 16
    ref = sharp_sum_loop(g.values, g.step, 0.25, np.cos(th), np.sin(th), 2, False)
    assert value > 0 and abs(value - ref) <= 1e-12 * ref
    with mock.patch.object(counting, "DEFAULT_BUDGET", 34_815), \
            pytest.raises(ValueError, match="needs ~3.48e"):
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


@pytest.mark.parametrize("n,shape", [
    (1, {"type": "disk", "cx": 0.375, "cy": 0.375, "r": 0.25}),
    (2, {"type": "rect", "x0": 0.125, "y0": 0.1875, "x1": 0.625, "y1": 0.5}),
])
def test_sharp_monte_carlo_matches_exact(n, shape):
    # both routes integrate the bilinear vertex product over uniform
    # angles at lambda = 2h; the exact one with 512 angle nodes, which is
    # within 4e-7 of its 1024-node value here, far below one standard error
    h = 1 / 16
    f = make_indicator([shape], 0.75, h)
    exact = counting_sharp(f, CountingParams(n=n, lam=2 * h, quadrature_nodes=512)).value
    params = CountingParams(n=n, lam=2 * h, estimator="monte_carlo", mc_samples=100_000, seed=1)
    mc = counting_sharp(f, params)
    assert mc.estimator_stderr > 0
    assert abs(exact - mc.value) <= 3.0 * mc.estimator_stderr, (exact, mc)
    again = counting_sharp(f, params)
    assert (again.value, again.estimator_stderr) == (mc.value, mc.estimator_stderr)


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


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_smooth_one_slot_matches_monte_carlo_at_two_cells(eps):
    # a disk of radius 1/4 centred in a 0.75 window, lambda = 2h: for n = 1
    # the bilinear integrand of the Monte Carlo route is what the pair
    # correlation times tent weights sums exactly, so the two agree within
    # the sampling error.  The midpoint-rule spectral route this replaced
    # was 35.5 (eps = 1) and 56.8 (eps = 0.5) standard errors high here
    h = 1 / 16
    f = make_indicator([{"type": "disk", "cx": 0.375, "cy": 0.375, "r": 0.25}], 0.75, h)
    exact = counting_smooth(f, CountingParams(n=1, lam=2 * h, eps=eps)).value
    mc = counting_smooth(f, CountingParams(n=1, lam=2 * h, eps=eps, estimator="monte_carlo",
                                           mc_samples=400_000, seed=2024))
    assert abs(exact - mc.value) <= 3.0 * mc.estimator_stderr, (exact, mc)


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


@pytest.mark.parametrize("estimator", ["monte_carlo", "exact_quadrature"])
@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("seed", "1"), ("seed", True),
                                          ("seed", 1 << 64), ("mc_samples", 2.5),
                                          ("mc_samples", 1), ("mc_samples", None)])
def test_sampling_fields_are_refused_by_name(estimator, field, value):
    # refused when the params are built, not at the draw: a negative or huge
    # seed would overflow the uint64 Philox key, 1.5 would key it with 1
    with pytest.raises(ValueError, match=f"^{field} must be "):
        CountingParams(n=1, lam=1.0, estimator=estimator, **{"seed": 1, field: value})


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
    assert degenerate_mass(p, 0.5) == 0.0
    assert degenerate_mass(p, 1.0) == 1.0  # |y| = lam <= tol


def test_degenerate_mass_two_slots_exact_ties():
    m = 256
    p = CountingParams(n=2, lam=1.0, quadrature_nodes=m)
    frac = degenerate_mass(p, 0.0)
    assert frac <= 4.0 / m
    assert frac > 0  # the aligned and antipodal pairs are real ties


def test_degenerate_mass_two_slots_tolerance():
    p = CountingParams(n=2, lam=1.0, quadrature_nodes=256)
    assert degenerate_mass(p, 0.01) <= 0.05


def test_degenerate_mass_shrinks_with_tolerance():
    p = CountingParams(n=2, lam=1.0, quadrature_nodes=128)
    fracs = [degenerate_mass(p, tol) for tol in (0.2, 0.1, 0.05, 0.0)]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_degenerate_mass_three_slots():
    p = CountingParams(n=3, lam=1.0, quadrature_nodes=32)
    frac = degenerate_mass(p, 0.0)
    # ties y_i = +- y_j across three slots; each pair contributes 2/M
    assert 0 < frac <= 6.0 / 32 + 1e-12
