import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from hdlab import (CircleQuadrature, KernelSpec, gaussian_domination_check,
                   lower_bound_constant, measure, smooth_sphere,
                   smooth_sphere_value, sphere_fourier, sphere_fourier_radial)
from hdlab.gaussian import FAMILIES
from hdlab.sphere import _GAMMA_MAX, THETA, decay_envelope, domination_integral

from conftest import seeded_rng


def test_weights_sum_to_one():
    q = CircleQuadrature(128, 2.0)
    assert sphere_fourier(q, np.zeros(2)) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=100)
@given(half_nodes=st.integers(2, 256), lam=st.floats(0.01, 10.0),
       reach=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_radial_transform_matches_jacobi_anger(half_nodes, lam, reach, seed):
    # for even M the node sum (1/M) sum_j cos(z cos theta_j) is
    # J0(z) + 2 sum_k (-1)^(kM/2) J_kM(z): the trapezoid rule's error is the
    # aliased Bessel terms.  Arguments z reach up to 3M, where the series has
    # a few terms; a scan of 15 000 such cases found at most 4.7e-14
    m = 2 * half_nodes
    z = seeded_rng(seed).uniform(0.0, reach * m, 16)
    got = sphere_fourier_radial(CircleQuadrature(m, lam), z / (2.0 * math.pi * lam))
    terms = int(math.ceil((z.max() + 60.0) / m)) + 1
    want = jv(0, z) + 2.0 * sum((-1) ** (k * m // 2) * jv(k * m, z) for k in range(1, terms + 1))
    assert np.abs(got - want).max() <= 2e-13


def plain_node_sum(q, u):
    """(1/M) sum_j cos(2 pi lam u cos theta_j) over all M nodes at once."""
    arg = 2.0 * np.pi * q.dilation * np.asarray(u)[:, None] * np.cos(q.angles())
    return np.cos(arg).mean(axis=1)


@settings(max_examples=200)
@given(quarter=st.integers(1, 128), rest=st.sampled_from([0, 2]),
       phase=st.sampled_from([0.0]) | st.floats(1e-3, 2.0 * math.pi),
       lam=st.floats(0.01, 10.0), reach=st.floats(0.0, 3.0), radii=st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1))
def test_radial_transform_matches_plain_node_sum(quarter, rest, phase, lam, reach, radii, seed):
    # the transform's node sum, taken over all M nodes in blocks of 64, against
    # one sum over all nodes: M = 0 and 2 (mod 4), at phase 0 and off it
    m = 4 * quarter + rest
    q = CircleQuadrature(m, lam, phase)
    u = seeded_rng(seed).uniform(0.0, reach * m, radii) / (2.0 * math.pi * lam)
    got = sphere_fourier_radial(q, u)
    assert np.abs(got - plain_node_sum(q, u)).max() <= 1e-13
    assert np.array_equal(sphere_fourier_radial(q, u[:, None])[:, 0], got)


def test_phase_independence_for_radial_integrands():
    # quadrature of a radial function must not depend on the node phase
    def radial_avg(q):
        pts = q.nodes() + np.array([0.3, 0.0])
        r2 = (pts**2).sum(axis=-1)
        return float(np.exp(-r2).mean())

    base = radial_avg(CircleQuadrature(256, 1.0, phase=0.0))
    for phase in (0.1, 1.0, 2.5):
        assert abs(radial_avg(CircleQuadrature(256, 1.0, phase=phase)) - base) <= 1e-12


@pytest.mark.parametrize("m", [4, 16, 64, 256])
def test_smoothed_gaussian_at_origin_exact(m):
    # every node sits at distance 1 from the origin, so the node sum is exact
    q = CircleQuadrature(m, 1.0)
    v = smooth_sphere_value(q, KernelSpec("g", 1.0), np.zeros(2))
    assert v == pytest.approx(math.exp(-math.pi), abs=1e-10)


def test_smoothed_gaussian_far_tail():
    q = CircleQuadrature(64, 1.0)
    v = smooth_sphere_value(q, KernelSpec("g", 1.0), np.array([10.0, 0.0]))
    assert v <= math.exp(-math.pi * 81)


def test_smoothed_grids_integrals():
    q = CircleQuadrature(256, 2.0)
    res = smooth_sphere(q, KernelSpec("g", 1.0), 16.0, 1 / 32)
    assert not res.under_resolved
    assert measure(res.grid) == pytest.approx(1.0, abs=1e-6)
    res_k = smooth_sphere(q, KernelSpec("k", 1.0), 16.0, 1 / 32)
    assert abs(measure(res_k.grid)) <= 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_smooth_sphere_matches_node_sum(family):
    # the per-term (n x M) @ (M x n) products against the pointwise node sum
    # at the node centres, from M = 12 to 256 nodes
    step = 1 / 16
    x = (np.arange(96) + 0.5) * step - 3.0
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    for m in (12, 40, 256):
        q = CircleQuadrature(m, 1.5, 0.3)
        spec = KernelSpec(family, 0.4)
        got = smooth_sphere(q, spec, 6.0, step).grid.values
        want = smooth_sphere_value(q, spec, pts)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_smoothed_grid_positive_and_radial():
    q = CircleQuadrature(256, 1.0)
    res = smooth_sphere(q, KernelSpec("g", 1.0), 8.0, 1 / 32)
    vals = res.grid.values
    assert vals.min() > 0
    # radial symmetry about the window centre: compare against transpose
    # and both axis flips (the sampling lattice is symmetric under these)
    assert np.abs(vals - vals.T).max() <= 1e-10
    assert np.abs(vals - vals[::-1, :]).max() <= 1e-10
    assert np.abs(vals - vals[:, ::-1]).max() <= 1e-10


def test_under_resolved_flag():
    q = CircleQuadrature(8, 4.0)
    res = smooth_sphere(q, KernelSpec("g", 0.01), 16.0, 1 / 16)
    assert res.under_resolved


def test_sphere_fourier_real_radial_for_even_m():
    # radial to round-off while the node count dominates 2 pi lam |xi|
    q = CircleQuadrature(256, 1.0)
    radii = np.array([0.5, 1.0, 3.0, 7.0])
    base = None
    for ang in (0.0, 0.7, 2.1):
        pts = np.stack([radii * math.cos(ang), radii * math.sin(ang)], axis=-1)
        vals = sphere_fourier(q, pts)
        assert np.abs(vals.imag).max() <= 1e-10
        if base is None:
            base = vals.real
        else:
            assert np.abs(vals.real - base).max() <= 1e-10


def test_sphere_fourier_refinement_agreement():
    q1 = CircleQuadrature(64, 1.0)
    q2 = CircleQuadrature(128, 1.0)
    xi = np.array([1.0, 0.0])
    assert sphere_fourier(q1, xi) == pytest.approx(sphere_fourier(q2, xi), abs=1e-8)


def test_sphere_fourier_decay(constants):
    radii = np.linspace(10.0, 100.0, 1201)
    q = CircleQuadrature(1600, 1.0)  # at least 16 nodes per unit frequency
    assert decay_envelope(q, radii) <= constants.value("C_decay")


def test_radial_profile_matches_pointwise():
    q = CircleQuadrature(128, 1.5)
    u = np.array([0.3, 1.2, 4.0])
    prof = sphere_fourier_radial(q, u)
    pts = np.stack([u, np.zeros_like(u)], axis=-1)
    assert np.abs(prof - sphere_fourier(q, pts).real).max() <= 1e-12


def test_lower_bound_constant(constants):
    c, r = lower_bound_constant(256, 801)
    assert c >= constants.value("c_ball")
    assert c > 0
    # value at the origin is exactly exp(-pi); the minimum sits on the rim
    v0 = smooth_sphere_value(CircleQuadrature(256, 1.0), KernelSpec("g", 1.0), np.zeros(2))
    assert v0 == pytest.approx(math.exp(-math.pi), abs=1e-12)
    assert r == pytest.approx(2.0, abs=1e-9)
    # radial monotonicity beyond the circle
    radii = np.linspace(1.0, 2.0, 64)
    pts = np.stack([radii, np.zeros_like(radii)], axis=-1)
    vals = smooth_sphere_value(CircleQuadrature(256, 1.0), KernelSpec("g", 1.0), pts)
    assert np.all(np.diff(vals) < 0)


def test_domination_basic(constants):
    c = constants.value("C_domination")
    pts = np.array([[0.0, 0.0]])
    res = gaussian_domination_check(1.0, 1.0, 1.0, pts, c)
    assert res.status == "ok"
    assert res.holds
    assert res.margin >= 1.0


def test_domination_on_circle(constants):
    c = constants.value("C_domination")
    pts = np.array([[1.0, 0.0], [0.5, 0.5]])
    res = gaussian_domination_check(1.0, 0.5, 0.5, pts, c)
    assert res.holds


def test_domination_monotone_in_eps(constants):
    # halving eps multiplies the dominating side by 8, so margins only grow
    c = constants.value("C_domination")
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    m1 = gaussian_domination_check(1.0, 0.5, 0.5, pts, c).margin
    m2 = gaussian_domination_check(1.0, 0.5, 0.25, pts, c).margin
    assert m2 >= m1 * 7.9


def simpson_domination(x, s, nodes):
    """The dominating scale integral by one Simpson rule on its own nodes."""
    u = np.linspace(0.0, math.log(_GAMMA_MAX), nodes)
    w = np.full(nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (u[1] - u[0]) / 3.0
    sg = s * np.exp(u)
    vals = np.exp(-np.pi * np.minimum((x**2).sum(axis=-1)[..., None] / sg**2, 700.0)) / sg**2
    return (vals * (w * np.exp(-u))).sum(axis=-1)


def test_domination_sums_are_the_separate_simpson_rules():
    # the 385-node sum reads every other node of the 769-node evaluation
    # and equals the 385-node rule bit for bit
    rng = seeded_rng(5)
    for _ in range(20):
        pts = rng.normal(size=(7, 2)) * rng.uniform(0.01, 5.0)
        s = float(rng.uniform(1e-3, 2.0))
        coarse, fine = domination_integral(pts, s)
        assert np.array_equal(coarse, simpson_domination(pts, s, 385))
        assert np.array_equal(fine, simpson_domination(pts, s, 769))


def test_domination_validates_ranges():
    with pytest.raises(ValueError):
        gaussian_domination_check(1.0, 0.25, 0.5, np.zeros((1, 2)), 1.0)


def test_scale_band_radicand_positive():
    # sqrt((t lam)^2 - 2 s^2) stays real across the whole working band
    for tlam in (0.01, 0.5, 1.0, 7.0):
        s = np.linspace(THETA * tlam, math.e * THETA * tlam, 101)
        assert np.all(tlam**2 - 2 * s**2 > 0)
