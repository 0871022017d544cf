import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlab import (KernelSpec, dft, eval_kernel, fourier_kernel,
                   heat_flow_check, kernel_integral, verify_conv_hh,
                   verify_conv_kg)
from hdlab.gaussian import FAMILIES, _wrapped_coords, conv_kg_identity, sample_wrapped

from conftest import seeded_rng


def eval_kernel_ref(spec, x):
    """The joint formula: the family's polynomial in v = x/t times
    exp(-pi |v|^2), with |v|^2 capped at 700/pi."""
    x = np.asarray(x, dtype=np.float64)
    t = spec.scale
    v1 = x[..., 0] / t
    v2 = x[..., 1] / t
    r2 = v1 * v1 + v2 * v2
    e = np.exp(-np.pi * np.minimum(r2, 700.0 / np.pi))
    if spec.family == "g":
        base = e
    elif spec.family == "h1":
        base = -2.0 * np.pi * v1 * e
    elif spec.family == "h2":
        base = -2.0 * np.pi * v2 * e
    else:
        base = (4.0 * np.pi**2 * r2 - 4.0 * np.pi) * e
    return base / (t * t)


def joint_magnitude_ref(spec, x):
    """The joint formula with every term taken by its absolute value."""
    t = spec.scale
    v = np.asarray(x, dtype=np.float64) / t
    r2 = (v * v).sum(axis=-1)
    poly = {"g": 1.0, "h1": 2.0 * np.pi * np.abs(v[..., 0]),
            "h2": 2.0 * np.pi * np.abs(v[..., 1]),
            "k": 4.0 * np.pi**2 * r2 + 4.0 * np.pi}[spec.family]
    return poly * np.exp(-np.pi * np.minimum(r2, 700.0 / np.pi)) / (t * t)


def sample_wrapped_ref(spec, side, step, offset=0.5):
    """The joint formula summed over the 5 x 5 torus images on the 2-d grid."""
    n = int(round(side / step))
    w = _wrapped_coords(side, n, offset)
    W1, W2 = np.meshgrid(w, w, indexing="ij")
    out = np.zeros((n, n))
    for a in range(-2, 3):
        for b in range(-2, 3):
            out += eval_kernel_ref(spec, np.stack([W1 + a * side, W2 + b * side], axis=-1))
    return out


def test_gaussian_at_origin():
    assert eval_kernel(KernelSpec("g", 1.0), np.zeros(2)) == 1.0


def test_gradient_odd_at_origin():
    assert eval_kernel(KernelSpec("h1", 1.0), np.zeros(2)) == 0.0
    assert eval_kernel(KernelSpec("h2", 1.0), np.zeros(2)) == 0.0


def test_laplacian_at_origin_matches_stencil():
    # five-point finite-difference Laplacian of exp(-pi |x|^2) as the oracle
    d = 1e-4
    g = KernelSpec("g", 1.0)
    pts = np.array([[d, 0], [-d, 0], [0, d], [0, -d], [0, 0]])
    vals = eval_kernel(g, pts)
    lap = (vals[:4].sum() - 4 * vals[4]) / d**2
    k0 = float(eval_kernel(KernelSpec("k", 1.0), np.zeros(2)))
    assert k0 == pytest.approx(-4 * math.pi, rel=1e-14)
    assert lap == pytest.approx(k0, rel=1e-6)


def test_dilation_rule():
    x = np.array([0.3, -0.7])
    for fam in ("g", "h1", "h2", "k"):
        t = 1.7
        lhs = eval_kernel(KernelSpec(fam, t), x)
        rhs = eval_kernel(KernelSpec(fam, 1.0), x / t) / t**2
        assert lhs == pytest.approx(rhs, rel=1e-14)


@settings(max_examples=200)
@given(family=st.sampled_from(FAMILIES), t=st.floats(1e-3, 10.0),
       count=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_eval_kernel_matches_joint_formula(family, t, count, seed):
    # the per-axis products against the joint formula, out to 20 scales.
    # exp(a) exp(b) and exp(a + b) differ by the round-off of exponents up
    # to 700; per-axis caps at 700/pi differ from the joint cap on r^2 only
    # below 1e-296
    spec = KernelSpec(family, t)
    x = seeded_rng(seed).uniform(-20.0, 20.0, (count, 2)) * t
    err = np.abs(eval_kernel(spec, x) - eval_kernel_ref(spec, x))
    assert (err <= 1e-12 * joint_magnitude_ref(spec, x) + 1e-296 / (t * t)).all()


@settings(max_examples=100)
@given(family=st.sampled_from(FAMILIES), offset=st.sampled_from([0.5, 1.0]),
       n=st.integers(8, 128), side=st.floats(1.0, 32.0), frac=st.floats(0.0, 1.0))
def test_sample_wrapped_matches_image_loop(family, offset, n, side, frac):
    # per-axis image sums and their outer products against the joint formula
    # on every one of the 5 x 5 images; scales from 3 steps to side/6 (log
    # scale, either way round when 3 steps exceed side/6)
    step = side / n
    t = 3.0 * step * (side / (18.0 * step)) ** frac
    spec = KernelSpec(family, t)
    got = sample_wrapped(spec, side, step, offset).values
    ref = sample_wrapped_ref(spec, side, step, offset)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("offset", [0.5, 1.0])
def test_sample_wrapped_sums_5_images_per_axis(family, offset):
    # at a scale of one window side the second ring of images is far above
    # round-off (1e-2 of the sum), and the third below it, so one ring of
    # images fewer or more per axis misses the 5 x 5 images' sum
    side = 4.0
    spec = KernelSpec(family, side)
    got = sample_wrapped(spec, side, side / 16, offset).values
    ref = sample_wrapped_ref(spec, side, side / 16, offset)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_fourier_values():
    assert fourier_kernel(KernelSpec("g", 1.0), np.zeros(2)) == 1.0
    v = fourier_kernel(KernelSpec("h1", 1.0), np.array([1.0, 0.0]))
    assert v == pytest.approx(2j * math.pi * math.exp(-math.pi), rel=1e-14)
    assert fourier_kernel(KernelSpec("k", 1.0), np.zeros(2)) == 0.0


def test_fourier_dilation_rule():
    xi = np.array([0.4, -1.1])
    for fam in ("g", "h1", "h2", "k"):
        t = 2.3
        lhs = fourier_kernel(KernelSpec(fam, t), xi)
        rhs = fourier_kernel(KernelSpec(fam, 1.0), t * xi)
        assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
def test_kernel_integrals(scale):
    assert kernel_integral(KernelSpec("g", scale)) == pytest.approx(1.0, abs=1e-8)
    for fam in ("h1", "h2", "k"):
        assert abs(kernel_integral(KernelSpec(fam, scale))) <= 1e-8


def test_fourier_matches_grid_transform():
    side, step = 16.0, 1 / 32
    for fam in ("g", "k"):
        sampled = sample_wrapped(KernelSpec(fam, 1.0), side, step)
        coef = dft(sampled).coefficients
        xi = dft(sampled).frequencies()
        x1, x2 = np.meshgrid(xi, xi, indexing="ij")
        mask = x1**2 + x2**2 <= 4.0
        target = fourier_kernel(KernelSpec(fam, 1.0), np.stack([x1, x2], axis=-1))
        assert np.abs(coef - target)[mask].max() <= 1e-6


# --- convolution identities -------------------------------------------------


def test_conv_hh_unit_scales():
    chk = verify_conv_hh(1.0, 1.0)
    assert chk.coefficient == pytest.approx(0.5)
    assert chk.residual <= 1e-6


def test_conv_hh_mixed_scales():
    chk = verify_conv_hh(1.0, 2.0)
    assert chk.coefficient == pytest.approx(0.4)
    assert chk.residual <= 1e-6


def test_conv_hh_origin_value():
    # at the origin the right side is coef * k_sqrt2(0) = -pi
    from hdlab.grid import convolve

    side, step = 16.0, 1 / 32
    lhs = None
    for fam in ("h1", "h2"):
        a = sample_wrapped(KernelSpec(fam, 1.0), side, step)
        c = convolve(a, a)
        lhs = c.values if lhs is None else lhs + c.values
    n = lhs.shape[0]
    assert lhs[n - 1, n - 1] == pytest.approx(-math.pi, abs=1e-6)


def test_conv_kg_values():
    chk = verify_conv_kg(1.0, 1.0)
    assert chk.coefficient == pytest.approx(0.5)
    assert chk.residual <= 1e-6
    chk = verify_conv_kg(1.0, math.sqrt(3))
    assert chk.coefficient == pytest.approx(0.25)
    assert chk.residual <= 1e-6


def test_conv_kg_small_beta_limit():
    # closed forms only: the convolution approaches the Laplacian kernel
    beta = 1e-3
    coef, s = conv_kg_identity(1.0, beta)
    x = np.stack(np.meshgrid(np.linspace(-3, 3, 101), np.linspace(-3, 3, 101),
                             indexing="ij"), axis=-1)
    lhs = coef * eval_kernel(KernelSpec("k", s), x)
    rhs = eval_kernel(KernelSpec("k", 1.0), x)
    assert np.abs(lhs - rhs).max() <= 1e-3


def test_identities_random_scales():
    rng = seeded_rng(42)
    pairs = 0.5 + 3.5 * rng.random((10, 2))
    for a, b in pairs:
        assert verify_conv_hh(a, b).residual <= 1e-6
        assert verify_conv_kg(a, b).residual <= 1e-6


def test_probe_window_rejection():
    with pytest.raises(ValueError, match="too small"):
        verify_conv_hh(20.0, 20.0, side=16.0)
    with pytest.raises(ValueError, match="too coarse"):
        verify_conv_kg(0.05, 1.0, side=16.0, step=1 / 32)


# --- heat flow ---------------------------------------------------------------


def test_heat_flow_at_origin():
    assert heat_flow_check(1.0, (0.0, 0.0), 1e-3) <= 1e-5


def test_heat_flow_second_order():
    r1 = heat_flow_check(1.0, (1.0, 1.0), 2e-3)
    r2 = heat_flow_check(1.0, (1.0, 1.0), 1e-3)
    assert r2 > 0
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_heat_flow_zero_set():
    # the Laplacian kernel vanishes on |x| = t / sqrt(pi)
    t = 1.0
    r = t / math.sqrt(math.pi)
    assert abs(eval_kernel(KernelSpec("k", t), np.array([r, 0.0]))) <= 1e-14
    assert heat_flow_check(t, (r, 0.0), 1e-4) <= 1e-7


def test_heat_flow_rejects_large_step():
    with pytest.raises(ValueError):
        heat_flow_check(1.0, (0.0, 0.0), 0.5)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("q", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("g", 0.0)
