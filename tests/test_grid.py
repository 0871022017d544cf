import math

import numpy as np
import pytest

from hdlab import (PERIODIC, ZERO, PlanarGrid, _kernels, convolve, dft,
                   from_shape_json, idft, load_grid, make_indicator, measure,
                   save_grid)
from hdlab.calibrate import random_grid
from hdlab.gaussian import KernelSpec, sample_wrapped

from conftest import seeded_rng


def test_indicator_full_window_measure():
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 64)
    assert measure(g) == 1.0


def test_indicator_empty():
    g = make_indicator([], 1.0, 1 / 64)
    assert measure(g) == 0.0


def test_disk_measure_refines_to_area():
    # node-centre rasterisation converges to the closed-form area
    errs = []
    for h in (1 / 64, 1 / 128):
        g = make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 1}], 4.0, h)
        errs.append(abs(measure(g) - math.pi))
    assert errs[-1] <= 0.02 * math.pi
    assert errs[-1] <= errs[0] + 1e-12


def test_measure_linearity():
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 64)
    half = g.with_values(0.5 * g.values)
    assert measure(half) == pytest.approx(0.5, abs=1e-15)


def test_stripe_measure():
    h = 1 / 64
    g = make_indicator([{"type": "stripes1d", "axis": 0, "intervals": [[0.0, 0.25]]}], 1.0, h)
    assert abs(measure(g) - 0.25) <= h


def test_indicator_rejections():
    with pytest.raises(ValueError, match="outside the window"):
        make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 1.0}], 1.0, 1 / 32)
    with pytest.raises(ValueError, match="h="):
        make_indicator([], 1.0, 0.75)


def test_values_are_immutable():
    g = make_indicator([], 1.0, 1 / 32)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_geometry_invariant_enforced():
    with pytest.raises(ValueError, match="inconsistent geometry"):
        PlanarGrid(1.0, 1 / 31, np.zeros((64, 64)))


# --- whole-grid shift ------------------------------------------------------


@pytest.mark.parametrize("boundary", [ZERO, PERIODIC])
def test_shift_grid_matches_bilinear_read_at_any_shift(boundary):
    # shifts just under, at and beyond one window side, on each axis and mixed
    side, n = 1.0, 16
    h = side / n
    g = PlanarGrid(side, h, seeded_rng(31).random((n, n)), boundary)
    lengths = [side - h / 2, side, side + 3 * h, 2.5 * side, 0.37 * h]
    signed = [s * d for d in lengths for s in (1.0, -1.0)]
    shifts = [(d, 0.37 * h) for d in signed] + [(0.37 * h, d) for d in signed]
    shifts += [(d, e) for d in signed for e in signed]
    shifts += [tuple(v) for v in seeded_rng(32).uniform(-3 * side, 3 * side, (200, 2))]
    x = g.node_coords()
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    scale = np.abs(g.values).max()
    for d1, d2 in shifts:
        whole = _kernels.shift_grid(g.values, h, d1, d2, g.periodic)
        pointwise = _kernels.read_bilinear(g.values, h, x1 + d1, x2 + d2, g.periodic)
        assert np.abs(whole - pointwise).max() <= 1e-12 * scale, (d1, d2)


# --- convolution -----------------------------------------------------------


def _direct_convolve(a: PlanarGrid, b: PlanarGrid) -> np.ndarray:
    n = a.node_count
    h = a.step
    out = np.zeros((n, n))
    for m1 in range(n):
        for m2 in range(n):
            acc = 0.0
            for k1 in range(n):
                for k2 in range(n):
                    i1, i2 = m1 - k1, m2 - k2
                    if a.periodic:
                        acc += a.values[k1, k2] * b.values[i1 % n, i2 % n]
                    elif 0 <= i1 < n and 0 <= i2 < n:
                        acc += a.values[k1, k2] * b.values[i1, i2]
            out[m1, m2] = acc * h * h
    return out


@pytest.mark.parametrize("boundary", ["zero_extended", "periodic"])
def test_convolve_matches_direct_double_sum(boundary):
    for seed in (0, 1, 2):
        a = PlanarGrid(1.0, 1 / 16, seeded_rng(seed).random((16, 16)), boundary)
        b = PlanarGrid(1.0, 1 / 16, seeded_rng(seed + 10).random((16, 16)), boundary)
        direct = _direct_convolve(a, b)
        spectral = convolve(a, b).values
        scale = np.abs(direct).max()
        assert np.abs(spectral - direct).max() <= 1e-10 * scale


def test_convolve_commutative_bilinear():
    a = random_grid(1.0, 32, 5)
    b = random_grid(1.0, 32, 6)
    c = random_grid(1.0, 32, 7)
    ab = convolve(a, b).values
    ba = convolve(b, a).values
    assert np.abs(ab - ba).max() <= 1e-12 * np.abs(ab).max()
    lin = convolve(a.with_values(a.values + 2 * c.values), b).values
    split = ab + 2 * convolve(c, b).values
    assert np.abs(lin - split).max() <= 1e-12 * np.abs(split).max()


def test_convolve_square_overlap():
    # conv sample m sits at position (m+1)h; the overlap area of the unit
    # square with its reflection has the closed form prod (1 - |1 - v_i|)+
    h = 1 / 64
    q = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 4.0, h)
    c = convolve(q, q)
    idx = int(round(1 / h)) - 1  # position (1, 1)
    assert abs(c.values[idx, idx] - 1.0) <= 2 * h
    assert abs(c.values[0, 0]) <= 2 * h  # position (h, h): degenerate overlap


def test_convolve_gaussian_pair():
    side, step = 16.0, 1 / 32
    g1 = sample_wrapped(KernelSpec("g", 1.0), side, step)
    c = convolve(g1, g1)
    n = g1.node_count
    # position (N h, N h) = origin on the torus; g_sqrt2(0) = 1/2
    assert abs(c.values[n - 1, n - 1] - 0.5) <= 1e-4


def test_convolve_measure_multiplicative_periodic():
    a = PlanarGrid(1.0, 1 / 32, seeded_rng(1).random((32, 32)), PERIODIC)
    b = PlanarGrid(1.0, 1 / 32, seeded_rng(2).random((32, 32)), PERIODIC)
    lhs = measure(convolve(a, b))
    rhs = measure(a) * measure(b)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_convolve_rejects_mismatched():
    a = random_grid(1.0, 32, 1)
    b = random_grid(2.0, 32, 2)
    with pytest.raises(ValueError, match="identical"):
        convolve(a, b)


def test_transform_rejects_non_power_of_two():
    g = PlanarGrid(1.0, 1 / 48, np.zeros((48, 48)))
    with pytest.raises(ValueError, match="power-of-two"):
        dft(g)


# --- transforms ------------------------------------------------------------


def test_dft_constant_periodic():
    side = 4.0
    g = PlanarGrid(side, side / 64, np.ones((64, 64)), PERIODIC)
    coef = dft(g).coefficients
    assert coef[0, 0] == pytest.approx(side**2, rel=1e-12)
    rest = np.abs(coef).sum() - abs(coef[0, 0])
    assert rest <= 1e-9


def test_dft_gaussian_matches_closed_form():
    side, step = 16.0, 1 / 32
    g = sample_wrapped(KernelSpec("g", 1.0), side, step)
    s = dft(g)
    xi = s.frequencies()
    x1, x2 = np.meshgrid(xi, xi, indexing="ij")
    r2 = x1**2 + x2**2
    mask = r2 <= 4.0
    target = np.exp(-np.pi * r2)
    assert np.abs(s.coefficients - target)[mask].max() <= 1e-6


def test_dft_roundtrip_and_parseval():
    g = random_grid(2.0, 64, 9)
    s = dft(g)
    back = idft(s)
    assert np.abs(back.values - g.values).max() <= 1e-10
    lhs = (g.values**2).sum() * g.step**2
    rhs = (np.abs(s.coefficients) ** 2).sum() / g.side**2
    assert abs(lhs - rhs) <= 1e-10 * lhs
    assert s.coefficients[0, 0].real == pytest.approx(measure(g), rel=1e-12)
    assert s.frequency_step == pytest.approx(1 / g.side)


# --- persistence and JSON ingestion ---------------------------------------


def test_save_load_roundtrip(tmp_path):
    g = make_indicator([{"type": "disk", "cx": 1, "cy": 1, "r": 0.5}], 2.0, 1 / 32)
    path = tmp_path / "g.grid"
    save_grid(g, path)
    raw = path.read_bytes()
    assert raw[:8] == b"HDLGRID1"
    assert int.from_bytes(raw[8:12], "little") == g.node_count
    assert np.frombuffer(raw[12:20], dtype="<f8")[0] == g.side
    assert raw[20] == 0
    back = load_grid(path)
    assert back.side == g.side
    assert back.boundary == g.boundary
    assert np.array_equal(back.values, g.values)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"NOTAGRID" + b"\x00" * 100)
    with pytest.raises(ValueError, match="magic"):
        load_grid(path)


def test_from_shape_json():
    doc = {"R": 1.0, "h": 1 / 64, "boundary": "zero",
           "shapes": [{"type": "rect", "x0": 0, "y0": 0, "x1": 0.5, "y1": 1.0}]}
    g = from_shape_json(doc)
    assert measure(g) == pytest.approx(0.5, abs=1 / 64)
    assert set(np.unique(g.values)) <= {0.0, 1.0}
    with pytest.raises(ValueError, match="boundary"):
        from_shape_json({"R": 1.0, "h": 1 / 64, "boundary": "torus", "shapes": []})
