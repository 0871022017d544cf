import math

import numpy as np
import pytest

from hdlab import (KernelSpec, dft, eval_kernel, fourier_kernel,
                   heat_flow_check, kernel_integral, verify_conv_hh,
                   verify_conv_kg)
from hdlab.gaussian import conv_kg_identity, sample_wrapped

from conftest import seeded_rng


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
